//! Regenerates Figure 8: storage bandwidth and memory usage.
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>` (see
//! `--help`; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    let tasks = vec![
        task(|| npf_bench::ib_experiments::fig8a(4000)),
        task(|| npf_bench::ib_experiments::fig8b(1500)),
    ];
    npf_bench::tracectl::run_tasks(tasks, |reports| {
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", r.render());
        }
    });
}
