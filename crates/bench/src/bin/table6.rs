//! Regenerates Table 6: effective communication bandwidth (beff).
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>` (see
//! `--help`; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    npf_bench::tracectl::run_tasks(
        vec![task(|| npf_bench::ib_experiments::table6(20, 8))],
        |reports| {
            for r in &reports {
                print!("{}", r.render());
            }
        },
    );
}
