//! Regenerates Figure 4: the cold ring problem.
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>`
//! (experiment points, and the testbeds within each figure, run on the
//! worker pool; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    let tasks = vec![
        task(|| npf_bench::eth_experiments::fig4a(20)),
        task(|| npf_bench::eth_experiments::fig4b(10_000, 150)),
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
