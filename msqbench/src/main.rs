//! Repository benchmark for the multi-source skyline engine.
//!
//! ```text
//! cargo run --release --manifest-path msqbench/Cargo.toml -- \
//!     --workload ca_cold --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Prints a metric table, a provenance line, and as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 1` it prints the per-layer metrics instead of the end-to-end
//! ones and writes its spans to `.bench_out/`. See `msqbench/README.md`.

mod bench;
mod host;
mod provenance;
mod replay;
mod report;
mod spans;
mod stats;

use bench::{Plan, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: msqbench --workload <ca_cold|au_cold|ca_churn> \
                     [--seed <u64>] [--seconds <1-600>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let outcome = bench::run(
        args.workload,
        args.seed,
        args.trace,
        &Plan::for_seconds(args.seconds),
    );
    let provenance = provenance::block(name, args.seed, args.trace, &outcome.digest);
    if let Some(tracer) = &outcome.tracer {
        let path = std::path::PathBuf::from(format!(".bench_out/trace-{name}-{}.jsonl", args.seed));
        if let Err(e) = tracer.write_jsonl(&path, &provenance) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let t = &outcome.tally;
    let declared = report::declared(args.trace);
    let metrics = outcome.metrics();
    println!(
        "# msqbench {name} seed={} trace={} attempted={} failed={} error_rate={} host_speed={:.4}",
        args.seed,
        u8::from(args.trace),
        t.attempted,
        t.failed,
        stats::ratio(t.failed as f64, t.attempted as f64),
        t.host_speed()
    );
    print!("{}", metrics.table(&declared));
    println!("{provenance}");
    println!("{}", metrics.result_line(&declared, t.attempted, t.failed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload au_cold --seed 7 --seconds 25 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::AuCold);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25.0, true));
    }

    #[test]
    fn refuses_bad_input() {
        assert!(args("--seed 1").is_err());
        assert!(args("--workload na_cold").is_err());
        assert!(args("--workload ca_cold --trace 2").is_err());
        assert!(args("--workload ca_cold --seconds 0").is_err());
        assert!(args("--workload ca_cold --seed").is_err());
    }
}
