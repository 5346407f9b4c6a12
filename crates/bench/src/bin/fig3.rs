//! Regenerates Figure 3: NPF and invalidation execution breakdown.
//!
//! Pass `--trace <path>` to record a Perfetto-loadable Chrome trace of
//! the run, and/or `--metrics <path>` for the flat metrics registry.
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    npf_bench::tracectl::run_tasks(vec![task(|| npf_bench::micro::fig3(500))], |reports| {
        for r in &reports {
            print!("{}", r.render());
        }
    });
}
