//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit (and, for medians, the spread over
//! repeats), then as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The metrics are the
//! end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`. Exits 1 when a correctness check fails, 2 on bad usage
//! or when the run cannot complete.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{json_number, quartiles, Metric, Options, Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]";

/// The seed used while developing; claims are checked on another one.
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::EthMemcached,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn print_metric(m: &Metric) {
    let mut line = format!("{:<28} {:>16} {}", m.name, json_number(m.value), m.unit);
    if !m.samples.is_empty() {
        let (q1, q3) = quartiles(&m.samples);
        let lo = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        line.push_str(&format!(
            "   median of {}; q1-q3 {q1:.6}-{q3:.6}; min-max {lo:.6}-{hi:.6}",
            m.samples.len()
        ));
    }
    println!("{line}");
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.name());
            return ExitCode::from(2);
        }
    };
    println!(
        "== {} seed {} trace {} ==",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        print_metric(m);
    }
    for f in &outcome.failures {
        println!("check failed: {f}");
    }
    let reported = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
