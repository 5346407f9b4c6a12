//! Regenerates Figure 7: dynamic working sets under a shared cgroup.
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>`
//! (experiment points, and the testbeds within each figure, run on the
//! worker pool; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    npf_bench::tracectl::run_tasks(
        vec![task(|| npf_bench::eth_experiments::fig7(30, 10))],
        |reports| {
            for r in &reports {
                print!("{}", r.render());
            }
        },
    );
}
