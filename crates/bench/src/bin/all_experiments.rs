//! Runs every experiment (E1-E12 plus ablations) and prints the full
//! report document — the source of `EXPERIMENTS.md`.
//!
//! Supports `--trace <path>` / `--metrics <path>` / `--jobs <n>` (see
//! `--help`; output is byte-identical at every worker count).
use simcore::shard::task;

fn main() {
    npf_bench::tracectl::RunOpts::init(&[]);
    let t0 = std::time::Instant::now();
    let tasks = vec![
        task(|| npf_bench::micro::fig3(500)),
        task(|| npf_bench::micro::fig3_traced(500)),
        task(|| npf_bench::micro::table4(3000)),
        task(|| npf_bench::eth_experiments::fig4a(20)),
        task(|| npf_bench::eth_experiments::fig4b(10_000, 150)),
        task(|| npf_bench::eth_experiments::table5(4)),
        task(|| npf_bench::eth_experiments::fig7(30, 10)),
        task(|| npf_bench::ib_experiments::fig8a(4000)),
        task(|| npf_bench::ib_experiments::fig8b(1500)),
        task(|| npf_bench::ib_experiments::fig9(30, 8)),
        task(|| npf_bench::ib_experiments::fig9_allreduce(30, 8)),
        task(|| npf_bench::ib_experiments::table6(20, 8)),
        task(|| npf_bench::ib_experiments::fig10_ethernet(500)),
        task(|| npf_bench::ib_experiments::fig10_infiniband(3000)),
        task(npf_bench::ablations::ablation_batching),
        task(npf_bench::ablations::ablation_firmware_bypass),
        task(npf_bench::ablations::ablation_concurrency),
        task(|| npf_bench::ablations::ablation_pindown_sweep(30)),
        task(npf_bench::ablations::ablation_read_rnr),
        task(npf_bench::ablations::ablation_prefaulting),
    ];
    npf_bench::tracectl::run_tasks(tasks, |reports| {
        for r in &reports {
            print!("{}", r.render());
            println!();
        }
    });
    eprintln!(
        "all experiments finished in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
