//! Byte-identity of every artifact across executor worker counts.
//!
//! The executor's contract (`DESIGN.md` §13) is that `--jobs N` is
//! unobservable: stdout tables, trace and metrics exports, journal
//! exports, and invariant tallies are byte-identical whether the tasks
//! run serially or on N workers, because every task runs under fresh
//! instruments that are absorbed in task order. This suite pins that
//! down from every angle the repo fans out:
//!
//! * the `ablations` binary at `--jobs 1` vs `--jobs 4`, plain and with
//!   a chaos profile armed (stdout, `--metrics`, `--trace`, the chaos
//!   verdict on stderr), and `--shards 4` vs `--jobs 4` (the alias);
//! * the `fig4` binary at `--jobs 1` vs `--jobs 4`: experiment points
//!   whose testbeds fan out over a pool nested in the binary's own;
//! * in-process IB tasks with fault injection actually firing (the
//!   ablation testbeds take no chaos config);
//! * property tests over scalebench cells at 1/2/8 workers — plain,
//!   chaos, and chaos + journal watchdog — plus the same cells through
//!   nested pools;
//! * the 256-tenant scale artifact at 1 vs 4 workers.
//!
//! Tuned small (`PROPTEST_CASES` overrides): the point is the
//! cross-worker comparison, not scenario coverage.

use std::path::PathBuf;
use std::process::Command;

use npf_bench::report::Report;
use npf_bench::scale::{self, ScaleCell};
use npf_core::ArbiterPolicy;
use proptest::prelude::*;
use simcore::chaos::{invariant, ChaosConfig, ChaosProfile, InvariantChecker};
use simcore::journal::{self, JournalRecorder};
use simcore::shard::{self, task, IsolationSpec, Task};
use simcore::trace::{self, TraceRecorder};
use simcore::units::ByteSize;
use simcore::{JournalWatchdog, SimDuration};

const POLICIES: [ArbiterPolicy; 3] = [
    ArbiterPolicy::ChannelOnly,
    ArbiterPolicy::RoundRobin,
    ArbiterPolicy::WeightedFair,
];

/// Ring capacity for the per-task recorders: big enough that no task
/// here wraps, small enough that 8 concurrent rings stay cheap.
const RING: usize = 1 << 16;

// ---------------------------------------------------------------------
// Through the binaries
// ---------------------------------------------------------------------

/// Output of one binary run: stdout, the chaos-relevant stderr lines,
/// and the exported files' contents.
struct BinRun {
    stdout: String,
    chaos_stderr: String,
    metrics: String,
    trace: String,
}

/// Runs bench binary `exe` with `args`, exporting metrics and a trace
/// into a per-run temp directory.
fn run_bin(exe: &str, tag: &str, args: &[&str]) -> BinRun {
    let dir = std::env::temp_dir().join(format!(
        "npf-determinism-{}-{tag}-{}",
        std::process::id(),
        args.join("_").replace(['-', '='], "")
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics: PathBuf = dir.join("metrics.json");
    let trace: PathBuf = dir.join("trace.json");
    let out = Command::new(exe)
        .args(args)
        .arg(format!("--metrics={}", metrics.display()))
        .arg(format!("--trace={}", trace.display()))
        .output()
        .expect("run bench binary");
    assert!(out.status.success(), "{tag} {args:?} failed");
    let chaos_stderr = String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("chaos"))
        .collect::<Vec<_>>()
        .join("\n");
    let run = BinRun {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        chaos_stderr,
        metrics: std::fs::read_to_string(&metrics).expect("metrics written"),
        trace: std::fs::read_to_string(&trace).expect("trace written"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    run
}

fn run_ablations(args: &[&str]) -> BinRun {
    run_bin(env!("CARGO_BIN_EXE_ablations"), "ablations", args)
}

/// Asserts every output of two binary runs is byte-identical.
fn assert_same_bin_output(a: &BinRun, b: &BinRun, what: &str) {
    assert_eq!(a.stdout, b.stdout, "stdout: {what}");
    assert_eq!(a.chaos_stderr, b.chaos_stderr, "chaos verdict: {what}");
    assert_eq!(a.metrics, b.metrics, "metrics export: {what}");
    assert_eq!(a.trace, b.trace, "trace export: {what}");
    assert!(!a.stdout.is_empty(), "reports actually printed");
    assert!(a.metrics.contains('{'), "metrics actually exported");
}

#[test]
fn ablations_binary_is_byte_identical_across_jobs() {
    let serial = run_ablations(&["--jobs=1"]);
    let parallel = run_ablations(&["--jobs=4"]);
    assert_same_bin_output(&serial, &parallel, "--jobs 1 vs --jobs 4");
}

#[test]
fn ablations_binary_is_byte_identical_across_jobs_under_chaos() {
    let chaos = ["--chaos-profile", "all", "--chaos-seed", "9"];
    let serial = run_ablations(&[&["--jobs=1"], &chaos[..]].concat());
    let parallel = run_ablations(&[&["--jobs=4"], &chaos[..]].concat());
    assert_same_bin_output(&serial, &parallel, "--jobs 1 vs --jobs 4 under chaos");
    assert!(
        serial.chaos_stderr.contains("no invariant violations"),
        "verdict line present: {}",
        serial.chaos_stderr
    );
}

#[test]
fn shards_flag_is_an_alias_of_jobs() {
    let jobs = run_ablations(&["--jobs=4"]);
    let shards = run_ablations(&["--shards=4"]);
    assert_same_bin_output(&jobs, &shards, "--jobs 4 vs --shards 4");
}

/// `fig4` fans two experiment points over the binary's pool, and each
/// point fans its testbeds over a pool nested inside its worker. A
/// 30-second release run, so it is opt-in (`--include-ignored`; CI runs
/// it in release).
#[test]
#[ignore = "30 s release run of the fig4 binary; run with --include-ignored"]
fn nested_pools_in_fig4_are_byte_identical_across_jobs() {
    let exe = env!("CARGO_BIN_EXE_fig4");
    let serial = run_bin(exe, "fig4", &["--jobs=1"]);
    let parallel = run_bin(exe, "fig4", &["--jobs=4"]);
    assert_same_bin_output(&serial, &parallel, "fig4 --jobs 1 vs --jobs 4");
}

// ---------------------------------------------------------------------
// In process, under caller-installed instruments
// ---------------------------------------------------------------------

/// The caller-side instruments of an in-process run, mirroring what
/// `tracectl::run` installs for a bench binary.
#[derive(Debug, Clone, Copy)]
struct Armed {
    chaos_seed: Option<u64>,
    watchdog: bool,
}

/// Everything one in-process run exports, as text.
struct Capture {
    results: String,
    trace: String,
    metrics: String,
    journal: String,
    attribution: String,
    chaos: String,
    unresolved: String,
}

/// First line where `a` and `b` disagree, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first diff at line {}: {la:?} vs {lb:?}", i + 1);
        }
    }
    format!("common prefix equal; lengths {} vs {}", a.len(), b.len())
}

/// The first export on which two captures disagree, if any.
fn divergence(a: &Capture, b: &Capture) -> Option<String> {
    [
        ("results", &a.results, &b.results),
        ("trace", &a.trace, &b.trace),
        ("metrics", &a.metrics, &b.metrics),
        ("journal", &a.journal, &b.journal),
        ("attribution", &a.attribution, &b.attribution),
        ("chaos", &a.chaos, &b.chaos),
        ("unresolved", &a.unresolved, &b.unresolved),
    ]
    .into_iter()
    .find(|(_, x, y)| x != y)
    .map(|(name, x, y)| format!("{name}: {}", first_diff(x, y)))
}

/// The isolation spec tasks inherit from the installed instruments, at
/// the test-sized ring.
fn spec() -> IsolationSpec {
    IsolationSpec {
        ring_capacity: RING,
        ..npf_bench::tracectl::isolation_spec()
    }
}

/// Installs `armed`'s instruments on this thread, runs `body` (which
/// drives one or more pools and renders their results), then takes the
/// instruments back off and renders every export.
fn capture(armed: Armed, body: impl FnOnce() -> String) -> Capture {
    assert!(
        trace::install(TraceRecorder::new(RING)).is_none(),
        "test thread must start uninstrumented"
    );
    if let Some(s) = armed.chaos_seed {
        assert!(invariant::install(InvariantChecker::new(s)).is_none());
    }
    let mut jr = JournalRecorder::new();
    if armed.watchdog {
        jr.set_watchdog(JournalWatchdog {
            budget: SimDuration::from_micros(200),
        });
    }
    assert!(journal::install(jr).is_none());

    let results = body();

    let recorder = trace::uninstall().expect("installed above");
    let journal = journal::uninstall().expect("installed above");
    let (chaos, unresolved) = armed.chaos_seed.map_or_else(Default::default, |_| {
        let mut checker = invariant::uninstall().expect("installed above");
        let tallies = format!(
            "seed={} checks={} resolved={} delivered={} outstanding={} violations={}",
            checker.seed(),
            checker.checks(),
            checker.resolved_faults(),
            checker.messages_delivered(),
            checker.outstanding_faults(),
            checker.violations().len(),
        );
        (tallies, format!("{:?}", checker.finish()))
    });
    Capture {
        results,
        trace: recorder.export_chrome_json(),
        metrics: recorder.metrics().to_json(),
        journal: journal.export_chrome_json(),
        attribution: journal.attribution_report(),
        chaos,
        unresolved,
    }
}

/// A small two-node IB transfer with fault injection armed through the
/// testbed config (not argv), so chaos actually fires inside the task.
fn chaos_ib_task(seed: u64) -> Task<'static, Report> {
    task(move || {
        use rdmasim::types::{RcConfig, SendOp, WcStatus};
        use testbed::ib::{IbCluster, IbConfig};
        let mut c = IbCluster::new(
            IbConfig::default()
                .with_nodes(2)
                .with_rc(RcConfig {
                    max_retries: 100_000,
                    max_rnr_retries: 100_000,
                    ..RcConfig::default()
                })
                .with_chaos(ChaosConfig::profile(ChaosProfile::All, seed))
                .with_disk(memsim::swap::DiskConfig::nvme()),
        );
        let (qa, qb) = c.connect(0, 1);
        let src = c.alloc_buffers(0, ByteSize::mib(4));
        let dst = c.alloc_buffers(1, ByteSize::mib(4));
        const MSGS: u64 = 8;
        for i in 0..MSGS {
            c.post_recv(1, qb, 1000 + i, dst, 4 << 20);
        }
        for i in 0..MSGS {
            c.post_send(
                0,
                qa,
                i,
                SendOp::Send {
                    local: src,
                    len: (i + 1) * 4096,
                },
            );
        }
        c.run_until_quiescent(50_000_000);
        let recv = c.drain_completions(1);
        let mut r = Report::new(&format!("chaos ib seed {seed}"), "determinism");
        r.columns(["wr_id", "len", "status"]);
        for comp in &recv {
            r.row([
                comp.wr_id.to_string(),
                comp.len.to_string(),
                format!("{:?}", comp.status),
            ]);
        }
        assert_eq!(recv.len() as u64, MSGS, "delivery at seed {seed}");
        assert!(
            recv.iter().all(|c| c.status == WcStatus::Success),
            "status at seed {seed}"
        );
        r
    })
}

#[test]
fn injected_chaos_runs_are_identical_across_jobs() {
    let armed = Armed {
        chaos_seed: Some(21),
        watchdog: false,
    };
    let run = |workers| {
        capture(armed, || {
            let tasks = (0..4).map(|i| chaos_ib_task(21 + i)).collect();
            let reports = shard::run_isolated(tasks, workers, spec());
            // The report bodies differ per seed, so merge order is
            // observable.
            let mut rendered: Vec<String> = reports.iter().map(Report::render).collect();
            assert_eq!(rendered.len(), 4);
            let joined = rendered.join("\n");
            rendered.sort();
            rendered.dedup();
            assert_eq!(
                rendered.len(),
                4,
                "per-seed tasks produced distinct reports"
            );
            joined
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        divergence(&serial, &parallel),
        None,
        "injected chaos must merge identically at every job count"
    );
    assert!(
        !serial.chaos.contains("checks=0 "),
        "the invariant checker actually observed the runs: {}",
        serial.chaos
    );
}

/// One scalebench cell's parameters.
type CellParams = (u32, u64, ArbiterPolicy, Option<u64>, Option<u64>);

fn cell_task((tenants, seed, policy, quota, chaos_seed): CellParams) -> Task<'static, ScaleCell> {
    let chaos = chaos_seed.map(|s| ChaosConfig::profile(ChaosProfile::All, s));
    task(move || scale::run_cell_chaos(tenants, seed, policy, quota, chaos))
}

fn render_cells(cells: &[ScaleCell]) -> String {
    cells
        .iter()
        .map(scale::cell_json)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Three coupled-by-nothing scalebench cells.
fn three_cells(
    tenants: u32,
    seed: u64,
    policy: ArbiterPolicy,
    quota: Option<u64>,
    chaos_seed: Option<u64>,
) -> Vec<CellParams> {
    vec![
        (tenants, seed, policy, quota, chaos_seed),
        (tenants, seed.wrapping_add(1), policy, quota, chaos_seed),
        (tenants + 1, seed, policy, quota, chaos_seed),
    ]
}

/// Runs `cells` through one pool at `workers` under `armed`.
fn run_flat(workers: usize, armed: Armed, cells: &[CellParams]) -> Capture {
    capture(armed, || {
        let tasks = cells.iter().copied().map(cell_task).collect();
        render_cells(&shard::run_isolated(tasks, workers, spec()))
    })
}

/// Asserts byte-identity of every export at 1 vs 2 vs 8 workers.
fn assert_worker_invariant(
    tenants: u32,
    seed: u64,
    policy: ArbiterPolicy,
    quota: Option<u64>,
    chaos_seed: Option<u64>,
    watchdog: bool,
) -> Result<(), TestCaseError> {
    let armed = Armed {
        chaos_seed,
        watchdog,
    };
    let cells = three_cells(tenants, seed, policy, quota, chaos_seed);
    let base = run_flat(1, armed, &cells);
    for workers in [2usize, 8] {
        let got = run_flat(workers, armed, &cells);
        let diverged = divergence(&base, &got);
        prop_assert!(
            diverged.is_none(),
            "diverged at {workers} workers vs 1 ({armed:?}, cells {cells:?}): {}",
            diverged.unwrap_or_default()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn plain_runs_are_byte_identical_across_worker_counts(
        tenants in 2u32..5,
        seed in 1u64..1000,
        policy_idx in 0usize..3,
        quota_raw in 0u64..32,
    ) {
        // The shim has no `prop::option`; 0 stands in for "no quota".
        let quota = (quota_raw >= 4).then_some(quota_raw);
        assert_worker_invariant(tenants, seed, POLICIES[policy_idx], quota, None, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn chaos_runs_are_byte_identical_across_worker_counts(
        tenants in 2u32..5,
        seed in 1u64..1000,
        chaos_seed in 1u64..1000,
        policy_idx in 0usize..3,
    ) {
        assert_worker_invariant(
            tenants, seed, POLICIES[policy_idx], Some(16), Some(chaos_seed), false,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn chaos_watchdog_runs_are_byte_identical_across_worker_counts(
        tenants in 2u32..5,
        seed in 1u64..1000,
        chaos_seed in 1u64..1000,
    ) {
        assert_worker_invariant(
            tenants, seed, ArbiterPolicy::WeightedFair, Some(16), Some(chaos_seed), true,
        )?;
    }
}

#[test]
fn nested_pools_are_byte_identical_and_keep_every_fault() {
    // Two outer tasks, each fanning two cells over a pool nested in it
    // — the shape of a bench binary's experiment point whose figure
    // fans out its testbeds.
    let armed = Armed {
        chaos_seed: Some(7),
        watchdog: false,
    };
    let cells = |i: u64| three_cells(2, 40 + i, ArbiterPolicy::WeightedFair, Some(16), Some(7));
    let nested = |workers| {
        capture(armed, || {
            let outer: Vec<Task<'_, String>> = (0..2)
                .map(|i| {
                    task(move || {
                        let inner = cells(i).into_iter().map(cell_task).collect();
                        render_cells(&shard::run_isolated(inner, workers, spec()))
                    })
                })
                .collect();
            shard::run_isolated(outer, workers, spec()).join("\n")
        })
    };
    let serial = nested(1);
    for workers in [2, 8] {
        assert_eq!(
            divergence(&serial, &nested(workers)),
            None,
            "nested pools at {workers} workers vs 1"
        );
    }
    // The same six cells through one flat pool reach the same tallies:
    // absorbing nested checkers loses no pending fault to an id
    // collision.
    let flat_cells: Vec<CellParams> = (0..2).flat_map(cells).collect();
    let flat = run_flat(1, armed, &flat_cells);
    assert_eq!(serial.results, flat.results);
    assert_eq!(serial.chaos, flat.chaos);
}

#[test]
fn jobs_1_and_4_render_identical_256_tenant_artifacts() {
    let sweep = |workers| {
        let tasks = [1, 2, 3, 4]
            .into_iter()
            .map(|seed| {
                task(move || scale::run_cell(256, seed, ArbiterPolicy::WeightedFair, Some(16)))
            })
            .collect();
        let cells = shard::run_isolated(tasks, workers, IsolationSpec::none());
        // Zero wall_ms placeholders: timings are informational and must
        // never reach the compared cell lines anyway.
        scale::render_json(
            ArbiterPolicy::WeightedFair,
            Some(16),
            &cells,
            &vec![0; cells.len()],
        )
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        serial, parallel,
        "the scale artifact must be byte-identical at every --jobs value"
    );
    assert!(serial.contains("\"tenants\": 256"), "{serial}");
}
