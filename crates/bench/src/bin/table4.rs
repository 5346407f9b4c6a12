//! Regenerates Table 4: tail latency of NPFs.
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>` (see
//! `--help`; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    npf_bench::tracectl::run_tasks(vec![task(|| npf_bench::micro::table4(3000))], |reports| {
        for r in &reports {
            print!("{}", r.render());
        }
    });
}
