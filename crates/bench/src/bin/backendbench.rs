//! ODP backend differential: the identical Ethernet scenario run
//! under the firmware NPF path, the NP-RDMA-style software emulation,
//! and the pinned baseline, with the per-seed cells fanned over the
//! executor.
//!
//! Flags (all via `tracectl::RunOpts`):
//!
//! * `--backend <firmware|softemu|pinned>`: run only that backend's
//!   cells; absent → all three.
//! * `--out <path>`: where to write the JSON artifact (default
//!   `BENCH_backend.json`; skipped under `--check`).
//! * `--check <path>`: compare this run's cells against a committed
//!   artifact and exit 1 on any drift. Only simulation-deterministic
//!   tallies are compared — wall-clock never enters the file.
//! * `--jobs <n>` (alias `--shards <n>`): worker threads; output is
//!   byte-identical at every value.

use npf_bench::backends::{self, BackendCell};
use simcore::shard::{run_isolated, task};

fn main() {
    let opts = npf_bench::tracectl::RunOpts::init(&["out", "check"]);
    let out_path = opts.extra("out").unwrap_or("BENCH_backend.json").to_owned();
    let check_path = opts.extra("check").map(str::to_owned);
    let backend_kinds: Vec<_> = match opts.backend {
        Some(k) => vec![k],
        None => backends::SWEEP_BACKENDS.to_vec(),
    };

    let combos: Vec<_> = backend_kinds
        .iter()
        .flat_map(|&backend| {
            backends::SWEEP_SEEDS
                .iter()
                .map(move |&seed| (backend, seed))
        })
        .collect();
    let cells: Vec<BackendCell> = npf_bench::tracectl::run(|| {
        let tasks = combos
            .iter()
            .map(|&(backend, seed)| task(move || backends::run_cell(backend, seed)))
            .collect();
        let cells = run_isolated(tasks, opts.jobs, npf_bench::tracectl::isolation_spec());
        print!("{}", backends::render_report(&cells).render());
        cells
    });

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let drifted = backends::check_against(&baseline, &cells);
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
        let json = backends::render_json(&cells);
        if let Err(e) = std::fs::write(&out_path, &json) {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(2);
        }
        println!("backend differential written to {out_path}");
    }
}
