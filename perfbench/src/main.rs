//! Command-line entry point of the repository benchmark; see the library
//! documentation for the workloads and metrics.

use perfbench::measure::{run_traced, run_untraced, Outcome};
use perfbench::workloads::{workload, WORKLOADS};
use sc_telemetry::json::{parse, Json};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::f64(*value)),
                    ("unit", Json::str(unit.as_str())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::u64(outcome.attempted as u64)),
        ("failed", Json::u64(outcome.failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

fn print_outcome(outcome: &Outcome) {
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, unit, value) in &outcome.metrics {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    println!("{}", result_line(outcome));
}

/// Runs every workload in a child process of its own (so `peak_rss_mb` is
/// per workload) and combines their results under `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = Outcome::default();
    for w in &WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        for line in stdout.lines().filter(|l| *l != last) {
            println!("[{}] {line}", w.name);
        }
        let doc = parse(last).map_err(|e| format!("{}: no result line ({e:?})", w.name))?;
        all.attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) as usize;
        all.failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(1) as usize;
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                all.metrics
                    .push((format!("{}.{name}", w.name), unit.to_string(), value));
            }
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# host {}", sc_bench::host_context().to_string_compact());
    let outcome = if args.workload == "all" {
        match run_all(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let Some(w) = workload(&args.workload) else {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "unknown workload {:?}; one of {names:?} or all\n{USAGE}",
                args.workload
            );
            return ExitCode::from(2);
        };
        if args.trace {
            let spans = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            run_traced(w, args.seed, args.seconds, &spans)
        } else {
            run_untraced(w, args.seed, args.seconds)
        }
    };
    print_outcome(&outcome);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
