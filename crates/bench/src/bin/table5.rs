//! Regenerates Table 5: memory overcommitment with 1-4 memcached VMs.
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>`
//! (experiment points, and the testbeds within each figure, run on the
//! worker pool; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    npf_bench::tracectl::run_tasks(
        vec![task(|| npf_bench::eth_experiments::table5(4))],
        |reports| {
            for r in &reports {
                print!("{}", r.render());
            }
        },
    );
}
