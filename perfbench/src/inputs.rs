//! Seeded inputs: the images every workload serves and the open-loop
//! arrival schedule. Everything here is a pure function of the `--seed`
//! argument, so the same seed always gives the same inputs.

use sc_image::GrayImage;
use std::time::Duration;

/// SplitMix64: a small, well-mixed generator for deriving input parameters
/// from the seed (image blends, noise seeds, arrival times).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform sample in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One benchmark image: `GrayImage::noise` blended with a Gaussian blob and
/// a gradient. The blend weights, the gradient direction and the noise seed
/// all come from `(seed, index)`, so images differ between seeds and
/// between pool slots while keeping smooth regions and real edges.
#[must_use]
pub fn bench_image(width: usize, height: usize, seed: u64, index: u64) -> GrayImage {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let noise = GrayImage::noise(width, height, rng.next_u64());
    let blob = GrayImage::gaussian_blob(width, height);
    let w_blob = 0.4 + 0.2 * rng.next_f64();
    let w_noise = 0.15 + 0.1 * rng.next_f64();
    let w_grad = 1.0 - w_blob - w_noise;
    let horizontal = rng.next_u64() & 1 == 0;
    GrayImage::from_fn(width, height, |x, y| {
        let grad = if horizontal {
            x as f64 / width as f64
        } else {
            y as f64 / height as f64
        };
        (w_blob * blob.get(x, y) + w_noise * noise.get(x, y) + w_grad * grad).clamp(0.0, 1.0)
    })
}

/// The input pool of a workload: `count` images, cycling through `sizes`.
#[must_use]
pub fn image_pool(sizes: &[(usize, usize)], count: usize, seed: u64) -> Vec<GrayImage> {
    (0..count)
        .map(|i| {
            let (w, h) = sizes[i % sizes.len()];
            bench_image(w, h, seed, i as u64)
        })
        .collect()
}

/// Every `PAIR_EVERY`-th open-loop arrival is due at the same instant as
/// the one before it: a pair whose second image waits behind, or coalesces
/// with, the first.
pub const PAIR_EVERY: usize = 4;

/// Largest seeded offset of an arrival inside its slot, as a share of the
/// slot.
pub const MAX_JITTER: f64 = 0.25;

/// Open-loop arrival offsets: `count` arrivals over `[0, span)`, one per
/// equal slot at a seeded offset of up to [`MAX_JITTER`] of a slot, except
/// that every [`PAIR_EVERY`]-th arrival joins the one before it and leaves
/// its own slot empty. The offered rate is exactly `count / span`. A fixed
/// share of requests (one in `PAIR_EVERY`) arrives while another is in
/// service, and no other gap is shorter than `1 - MAX_JITTER` slots, so the
/// latency tail measures the server's handling of overlapping requests on
/// every seed, not how bursty one seed's draw happened to be.
#[must_use]
pub fn arrival_schedule(seed: u64, count: usize, span: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed ^ 0x0A11_7E55_u64);
    let slot = span.as_secs_f64() / count.max(1) as f64;
    let mut offsets: Vec<Duration> = Vec::with_capacity(count);
    for k in 0..count {
        let at = slot * (k as f64 + MAX_JITTER * rng.next_f64());
        let paired = k % PAIR_EVERY == PAIR_EVERY - 1;
        offsets.push(match offsets.last() {
            Some(&first) if paired => first,
            _ => Duration::from_secs_f64(at),
        });
    }
    offsets
}

/// A 64-bit FNV-1a digest over an image's dimensions and exact pixel bits,
/// used to compare every served image with its reference after the timed
/// region without keeping all outputs alive.
#[must_use]
pub fn image_digest(image: &GrayImage) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    };
    mix(image.width() as u64);
    mix(image.height() as u64);
    for y in 0..image.height() {
        for x in 0..image.width() {
            mix(image.get(x, y).to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let sizes = [(40, 40), (33, 21)];
        assert_eq!(image_pool(&sizes, 4, 7), image_pool(&sizes, 4, 7));
        let span = Duration::from_secs(10);
        assert_eq!(arrival_schedule(7, 50, span), arrival_schedule(7, 50, span));
    }

    #[test]
    fn different_seed_different_inputs() {
        let sizes = [(40, 40)];
        let a = image_pool(&sizes, 3, 1);
        let b = image_pool(&sizes, 3, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(image_digest(x), image_digest(y));
        }
        let span = Duration::from_secs(10);
        assert_ne!(arrival_schedule(1, 50, span), arrival_schedule(2, 50, span));
    }

    #[test]
    fn pool_slots_differ_and_stay_in_range() {
        let pool = image_pool(&[(24, 24)], 4, 9);
        for (i, a) in pool.iter().enumerate() {
            for y in 0..a.height() {
                for x in 0..a.width() {
                    assert!((0.0..=1.0).contains(&a.get(x, y)));
                }
            }
            for b in &pool[i + 1..] {
                assert_ne!(image_digest(a), image_digest(b));
            }
        }
    }

    #[test]
    fn schedule_is_sorted_and_inside_the_span() {
        let span = Duration::from_secs(3);
        let s = arrival_schedule(11, 200, span);
        assert_eq!(s.len(), 200);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|d| *d < span));
    }

    #[test]
    fn pairs_are_the_only_overlaps() {
        let span = Duration::from_secs(40);
        let s = arrival_schedule(5, 600, span);
        let slot = 40.0 / 600.0;
        for (k, w) in s.windows(2).enumerate() {
            let gap = (w[1] - w[0]).as_secs_f64();
            if (k + 1) % PAIR_EVERY == PAIR_EVERY - 1 {
                assert_eq!(gap, 0.0, "arrival {} pairs with {k}", k + 1);
            } else {
                assert!(
                    gap >= (1.0 - MAX_JITTER) * slot - 1e-9,
                    "gap {gap} after {k}"
                );
            }
        }
    }
}
