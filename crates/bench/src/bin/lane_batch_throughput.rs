//! Measures the lane-batched `u64×4` library kernels against scalar
//! execution, and records the evidence in `BENCH_lane_batch.json`.
//!
//! Run with `cargo run --release -p sc_bench --bin lane_batch_throughput`.
//! The JSON file is written to the current directory (or to the path given
//! as the first argument). For each of the three FSM laggards — `ca_max`,
//! `synchronizer_d1`, `decorrelator_d4` — at 4096-bit streams it reports,
//! per stream:
//!
//! * `scalar_ns` — one solo word-parallel call;
//! * `lane_ns` — a `LANES`-wide kernel-level lane group, time / 4.
//!
//! The bin asserts that every lane reproduces the solo call bit for bit
//! before timing anything, then gates the kernel-level lane speedups.

use sc_arith::maxmin::{ca_max, ca_max_lanes};
use sc_bitstream::{Bitstream, Probability};
use sc_convert::DigitalToStochastic;
use sc_core::{
    process_lane_pairs, CorrelationManipulator, Decorrelator, DecorrelatorLanes, LaneBank,
    Synchronizer, LANES,
};
use sc_rng::{Halton, VanDerCorput};
use sc_telemetry::Json;
use std::time::Instant;

const STREAM_BITS: usize = 4096;

fn input_pair(n: usize) -> (Bitstream, Bitstream) {
    let mut gx = DigitalToStochastic::new(VanDerCorput::new());
    let mut gy = DigitalToStochastic::new(Halton::new(3));
    (
        gx.generate(Probability::saturating(0.5), n),
        gy.generate(Probability::saturating(0.75), n),
    )
}

/// Median ns per call over several timed samples, with adaptive batching so
/// each sample lasts long enough for the clock to be meaningful.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    // Calibrate the batch size to ~2 ms.
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as u64;
        if ns >= 2_000_000 || iters >= 1 << 22 {
            break;
        }
        iters = (iters * 2_000_000 / ns.max(1)).clamp(iters + 1, iters * 16);
    }
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

struct Row {
    op: &'static str,
    scalar_ns: f64,
    lane_ns: f64,
}

impl Row {
    fn lane_speedup(&self) -> f64 {
        self.scalar_ns / self.lane_ns
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_lane_batch.json".into());
    let (x, y) = input_pair(STREAM_BITS);
    let lane_inputs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&x, &y)).collect();
    let mut rows: Vec<Row> = Vec::new();

    for op in ["ca_max", "synchronizer_d1", "decorrelator_d4"] {
        // Bit-identity first: every lane must reproduce the solo call.
        let (solo, lanes) = match op {
            "ca_max" => (
                vec![ca_max(&x, &y).expect("lengths")],
                ca_max_lanes(&lane_inputs).expect("lengths"),
            ),
            "synchronizer_d1" => {
                let (ox, oy) = Synchronizer::new(1).process(&x, &y).expect("lengths");
                let mut bank = LaneBank::new(
                    (0..LANES)
                        .map(|_| Box::new(Synchronizer::new(1)) as Box<dyn CorrelationManipulator>)
                        .collect(),
                );
                let out = process_lane_pairs(&mut bank, &lane_inputs).expect("lengths");
                (
                    vec![ox, oy],
                    out.into_iter().flat_map(|(a, b)| [a, b]).collect(),
                )
            }
            "decorrelator_d4" => {
                let (ox, oy) = Decorrelator::new(4).process(&x, &y).expect("lengths");
                let mut bank = DecorrelatorLanes::new(4, LANES);
                let out = process_lane_pairs(&mut bank, &lane_inputs).expect("lengths");
                (
                    vec![ox, oy],
                    out.into_iter().flat_map(|(a, b)| [a, b]).collect(),
                )
            }
            other => unreachable!("unknown op {other}"),
        };
        for (l, lane) in lanes.chunks(solo.len()).enumerate() {
            assert_eq!(
                lane,
                solo.as_slice(),
                "{op}: lane {l} diverged from the solo call"
            );
        }

        let scalar_ns = match op {
            "ca_max" => measure(|| {
                std::hint::black_box(ca_max(&x, &y).expect("lengths"));
            }),
            "synchronizer_d1" => measure(|| {
                std::hint::black_box(Synchronizer::new(1).process(&x, &y).expect("lengths"));
            }),
            "decorrelator_d4" => measure(|| {
                std::hint::black_box(Decorrelator::new(4).process(&x, &y).expect("lengths"));
            }),
            other => unreachable!("unknown op {other}"),
        };
        let lane_ns = match op {
            "ca_max" => measure(|| {
                let pairs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&x, &y)).collect();
                std::hint::black_box(ca_max_lanes(&pairs).expect("lengths"));
            }),
            "synchronizer_d1" => measure(|| {
                let pairs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&x, &y)).collect();
                let mut bank = LaneBank::new(
                    (0..LANES)
                        .map(|_| Box::new(Synchronizer::new(1)) as Box<dyn CorrelationManipulator>)
                        .collect(),
                );
                std::hint::black_box(process_lane_pairs(&mut bank, &pairs).expect("lengths"));
            }),
            "decorrelator_d4" => measure(|| {
                let pairs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&x, &y)).collect();
                let mut bank = DecorrelatorLanes::new(4, LANES);
                std::hint::black_box(process_lane_pairs(&mut bank, &pairs).expect("lengths"));
            }),
            other => unreachable!("unknown op {other}"),
        } / LANES as f64;

        let row = Row {
            op,
            scalar_ns,
            lane_ns,
        };
        println!(
            "{:<16} scalar {:>9.1} ns   lane {:>9.1} ns ({:>5.2}x)",
            row.op,
            row.scalar_ns,
            row.lane_ns,
            row.lane_speedup(),
        );
        rows.push(row);
    }

    let doc = Json::obj(vec![
        ("stream_bits", Json::u64(STREAM_BITS as u64)),
        ("lanes", Json::u64(LANES as u64)),
        ("host", sc_bench::host_context()),
        ("unit", Json::str("ns per stream, median of 9 samples")),
        (
            "results",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj(vec![
                            ("op", Json::str(row.op)),
                            ("scalar_ns", Json::fixed(row.scalar_ns, 1)),
                            ("lane_ns", Json::fixed(row.lane_ns, 1)),
                            ("lane_speedup", Json::fixed(row.lane_speedup(), 2)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write BENCH_lane_batch.json");
    println!("\nwrote {out_path}");

    // Acceptance bars, conservative halves of the measured gains so a noisy
    // shared 1-CPU runner still clears them (see BENCH_lane_batch.json for
    // the measured values on the development box).
    for (required, lane_bar) in [
        ("ca_max", 3.0),
        ("synchronizer_d1", 1.2),
        ("decorrelator_d4", 1.7),
    ] {
        let row = rows
            .iter()
            .find(|r| r.op == required)
            .expect("required op measured");
        assert!(
            row.lane_speedup() >= lane_bar,
            "{required} kernel lane speedup {:.2}x is below the {lane_bar}x bar",
            row.lane_speedup()
        );
    }
    println!("all lane kernels meet their bars");
}
