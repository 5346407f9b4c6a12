//! Lossy-fabric transport differential: the identical cold-ring
//! incast run under {lossless + PFC, 0.01%–1% random loss} × {go-back-N,
//! IRN-style selective repeat} × {firmware, softemu, pinned}, with the
//! cells fanned over the executor ([`simcore::shard::run_isolated`]).
//!
//! Flags (all via `tracectl::RunOpts`):
//!
//! * `--transport <gbn|irn>`: run only that transport's cells; absent →
//!   both.
//! * `--backend <firmware|softemu|pinned>`: run only that backend's
//!   cells; absent → all three.
//! * `--out <path>`: where to write the JSON artifact (default
//!   `BENCH_lossy.json`; skipped under `--check`).
//! * `--check <path>`: compare this run's cells against a committed
//!   artifact and exit 1 on any drift. Only simulation-deterministic
//!   tallies are compared — wall-clock never enters the file.
//! * `--jobs <n>` (alias `--shards <n>`): worker threads for the cell
//!   pool; output is byte-identical at every value.

use netsim::profile::{FabricProfile, RdmaTransport};
use npf_bench::lossy::{self, LossyCell};
use npf_core::BackendKind;
use simcore::shard::task;

fn main() {
    let opts = npf_bench::tracectl::RunOpts::init(&["out", "check"]);
    let out_path = opts.extra("out").unwrap_or("BENCH_lossy.json").to_owned();
    let check_path = opts.extra("check").map(str::to_owned);
    // `--transport` is a standard flag with a gbn default, so "was it
    // given at all" needs an argv peek: absent → sweep both.
    let transports: Vec<RdmaTransport> =
        if std::env::args().any(|a| a == "--transport" || a.starts_with("--transport=")) {
            vec![opts.transport]
        } else {
            lossy::SWEEP_TRANSPORTS.to_vec()
        };
    let backends: Vec<BackendKind> = match opts.backend {
        Some(k) => vec![k],
        None => lossy::SWEEP_BACKENDS.to_vec(),
    };
    let mut combos: Vec<(FabricProfile, RdmaTransport, BackendKind)> = Vec::new();
    for p in lossy::sweep_profiles() {
        for &t in &transports {
            for &b in &backends {
                combos.push((p, t, b));
            }
        }
    }

    let cells: Vec<LossyCell> = npf_bench::tracectl::run(|| {
        simcore::shard::run_isolated(
            combos
                .iter()
                .map(|&(profile, transport, backend)| {
                    task(move || lossy::run_cell(profile, transport, backend))
                })
                .collect(),
            opts.jobs,
            npf_bench::tracectl::isolation_spec(),
        )
    });
    print!("{}", lossy::render_report(&cells).render());

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let drifted = lossy::check_against(&baseline, &cells);
        if drifted.is_empty() {
            println!("all {} cells match {path}", cells.len());
        } else {
            for line in &drifted {
                eprintln!("drifted from {path}: {line}");
            }
            eprintln!(
                "{} of {} cells drifted from {path}",
                drifted.len(),
                cells.len()
            );
            std::process::exit(1);
        }
    } else {
        let json = lossy::render_json(&cells);
        if let Err(e) = std::fs::write(&out_path, &json) {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(2);
        }
        println!("lossy transport differential written to {out_path}");
    }
}
