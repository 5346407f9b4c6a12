//! Ablations of the paper's design choices.
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>` (see
//! `--help`; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    let tasks = vec![
        task(npf_bench::ablations::ablation_batching),
        task(npf_bench::ablations::ablation_firmware_bypass),
        task(npf_bench::ablations::ablation_concurrency),
        task(|| npf_bench::ablations::ablation_pindown_sweep(30)),
        task(npf_bench::ablations::ablation_read_rnr),
        task(npf_bench::ablations::ablation_prefaulting),
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
