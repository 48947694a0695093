//! `rlc-timing-bench`: end-to-end and per-layer benchmark of the timing
//! engine. See `README.md` next to this crate for the workloads, metrics
//! and how to run it.
//!
//! ```text
//! rlc-timing-bench --workload <wide_batch|deep_paths|eco_edit|remote_batch>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable notes, then one JSON result line, and exits
//! non-zero when any correctness check fails.

mod gen;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

/// End-to-end metrics of the untraced run, in `BENCHMARK.json` order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "stages_per_s",
    "request_latency_p50_ms",
    "request_latency_p90_ms",
    "delay_err_pct_mean",
    "slew_err_pct_mean",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
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

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
///
/// The `eco.*` metrics are printed by every traced run but left out of the
/// result line and `BENCHMARK.json`: `eco_edit`, the only workload that
/// exercises the result store, is not listed there while its cold-analysis
/// check fails on the program (see `README.md`), so on every listed workload
/// they would read 0.
const PER_LAYER: [&str; 30] = [
    "charlib.rs_extract.calls",
    "charlib.rs_extract.busy_s",
    "charlib.rs_extract.us_p50",
    "charlib.characterize.busy_s",
    "lint.calls",
    "lint.busy_s",
    "lint.findings",
    "load.reduce.calls",
    "load.reduce.busy_s",
    "ceff.model.calls",
    "ceff.model.busy_s",
    "ceff.iterations_mean",
    "ceff.two_ramp_share",
    "backend.analyze.self_s",
    "backend.far_end.calls",
    "backend.far_end.busy_s",
    "backend.far_end.ms_p50",
    "backend.far_end_sinks.calls",
    "backend.far_end_sinks.busy_s",
    "spice.steps",
    "spice.degraded_to_dense",
    "session.submit_us_p50",
    "session.self_s",
    "service.submit_rtt_us_p50",
    "service.drain_s",
    "service.request_bytes",
    "service.response_bytes",
    "service.self_s",
    "trace.coverage",
    "trace.overhead_pct",
];

fn main() -> ExitCode {
    // Shard worker processes are re-invocations of this binary.
    if rlc_service::maybe_run_worker_from_env() {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rlc-timing-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let name = args.workload.name();
    for (metric, value, unit) in result.metrics.iter() {
        println!("# {name} seed={} {metric} = {value} {unit}", args.seed);
    }
    for note in &result.notes {
        println!("# {name}: {note}");
    }
    for problem in &result.problems {
        println!("# {name}: CHECK FAILED: {problem}");
    }
    let correct =
        result.problems.is_empty() && result.tally.failed == 0 && result.tally.attempted > 0;
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result.metrics.result_line(correct, &result.tally, names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the runs print is declared in `BENCHMARK.json` once, and
    /// every name declared there is a metric or a workload the runs know.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert_eq!(
                json.matches(&format!("\"name\": \"{name}\"")).count(),
                1,
                "{name}"
            );
        }
        for declared in json.split("\"name\": \"").skip(1) {
            let name = declared.split('"').next().expect("closing quote");
            assert!(
                END_TO_END.contains(&name)
                    || PER_LAYER.contains(&name)
                    || Workload::parse(name).is_some(),
                "{name} is declared but never measured"
            );
        }
    }
}
