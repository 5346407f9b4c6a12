//! End-to-end and per-layer benchmark of the NPF simulator.
//!
//! One workload runs in one process on one thread. The benchmark drives
//! the simulator only through its public entry points, times those calls
//! from outside, and reads each layer's public counters after the run:
//!
//! 1. One untimed warm-up repeat runs.
//! 2. Untraced repeats — each builds a fresh scenario, preloads or warms
//!    it, and runs a fixed amount of simulated work — go on until the
//!    run's `--seconds` are spent. A host calibration kernel is timed
//!    before the first and after each (`host.calib_ms`), and each
//!    repeat's host times are scaled by it to a nominal host speed
//!    before the medians are taken. Every repeat must reproduce the
//!    first one's simulated results.
//! 3. With tracing on, one more repeat runs with the program's
//!    `simcore::trace` and `simcore::journal` recorders installed and
//!    with benchmark spans around every call. It gives the per-layer
//!    counts that only the registry carries and the per-phase
//!    attribution, and it too must reproduce the untraced results.
//!
//! See `README.md` in this directory for why each workload exists and
//! which end-to-end metric each per-layer metric should move.

mod eth;
mod rdma;
pub mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use simcore::journal::{self, JournalRecorder, Phase};
use simcore::stats::DurationHistogram;
use simcore::time::SimDuration;
use simcore::trace::{self, TraceRecorder};
use simcore::units::ByteSize;

use spans::Spans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4(a)'s Backup-mode memcached testbed, preloaded.
    EthMemcached,
    /// Two memcached instances overcommitting one memory cgroup.
    EthOvercommit,
    /// A 3→1 RC incast over IRN selective repeat at 1% loss.
    RdmaLossyIncast,
    /// RC sends between ODP regions larger than physical memory.
    RdmaOdpPressure,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EthMemcached,
        Workload::EthOvercommit,
        Workload::RdmaLossyIncast,
        Workload::RdmaOdpPressure,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EthMemcached => "eth_memcached",
            Workload::EthOvercommit => "eth_overcommit",
            Workload::RdmaLossyIncast => "rdma_lossy_incast",
            Workload::RdmaOdpPressure => "rdma_odp_pressure",
        }
    }

    /// Resolves a `--workload` name.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the valid workloads.
    pub fn parse(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (one of {})", names.join(", "))
            })
    }

    fn repeat(self, size: Size, seed: u64, spans: &mut Spans) -> Result<Repeat, String> {
        let smoke = size == Size::Smoke;
        match self {
            Workload::EthMemcached => eth::repeat(
                &eth::EthSpec {
                    instances: 1,
                    conns_per_instance: 16,
                    value_size: 1024,
                    keys: if smoke { 20_000 } else { 1_800_000 },
                    max_bytes: ByteSize::gib(3),
                    cgroup: None,
                    horizon: SimDuration::from_millis(if smoke { 50 } else { 1_000 }),
                    slice: SimDuration::from_millis(10),
                },
                seed,
                spans,
            ),
            Workload::EthOvercommit => eth::repeat(
                &eth::EthSpec {
                    instances: 2,
                    conns_per_instance: 8,
                    value_size: 20 * 1024,
                    // 850 MiB of 20 KiB values per instance.
                    keys: if smoke { 2_000 } else { 43_520 },
                    max_bytes: ByteSize::gib(1),
                    cgroup: Some(if smoke {
                        ByteSize::mib(48)
                    } else {
                        ByteSize::gib(1)
                    }),
                    horizon: SimDuration::from_millis(if smoke { 50 } else { 1_000 }),
                    slice: SimDuration::from_millis(10),
                },
                seed,
                spans,
            ),
            Workload::RdmaLossyIncast => rdma::incast_repeat(
                &rdma::IncastSpec {
                    rounds: if smoke { 2 } else { 200 },
                },
                seed,
                spans,
            ),
            Workload::RdmaOdpPressure => rdma::odp_repeat(
                &rdma::OdpSpec {
                    messages: if smoke { 300 } else { 20_000 },
                    node_memory: if smoke {
                        ByteSize::mib(12)
                    } else {
                        ByteSize::mib(192)
                    },
                    region: if smoke {
                        ByteSize::mib(16)
                    } else {
                        ByteSize::mib(256)
                    },
                    window: 8,
                },
                seed,
                spans,
            ),
        }
    }
}

/// How much simulated work one repeat does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Reduced sizes for the smoke test; same code paths.
    Smoke,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Host seconds to spend on untraced repeats.
    pub seconds: f64,
    /// Add the traced repeat and report per-layer metrics.
    pub trace: bool,
    /// Repeat size.
    pub size: Size,
    /// Where the traced repeat writes its spans and per-layer numbers.
    pub out_dir: PathBuf,
}

/// Simulated results of one repeat: everything here is deterministic in
/// the workload and seed, so repeats (traced or not) must agree exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Completed memcached operations, or delivered RDMA messages.
    pub ops: u64,
    /// Failed connections, or completions with an error status.
    pub failed: u64,
    /// Simulated length of the timed phase.
    pub sim_ns: u64,
    /// Request or message latency, post to completion.
    pub latency: Latency,
    /// Public per-layer counters read after the run (setup included).
    pub counts: BTreeMap<&'static str, u64>,
}

impl SimOutcome {
    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Summary of the simulated post-to-completion latencies of a repeat.
///
/// Besides the median and 99th percentile it keeps the mean and the mean
/// of the slowest 1%. The model's latencies are quantised (interrupt
/// holdoff, RNR timer steps), so its percentiles can read the same for
/// every seed; the two means depend on every sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Latency {
    /// Samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum_ns: u64,
    /// Samples in the slowest 1% (at least one).
    pub tail_count: u64,
    /// Sum of the slowest 1%.
    pub tail_sum_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

impl Latency {
    pub(crate) fn of(h: &mut DurationHistogram) -> Self {
        let n = h.count();
        if n == 0 {
            return Latency::default();
        }
        // The histogram keeps every sample but hands them out by rank:
        // its nearest-rank percentile at (i + 0.5) / n is exactly the
        // i-th smallest sample.
        let sorted: Vec<u64> = (0..n)
            .map(|i| h.percentile((i as f64 + 0.5) / n as f64).as_nanos())
            .collect();
        let tail = &sorted[n - n.div_ceil(100)..];
        Latency {
            count: n as u64,
            sum_ns: sorted.iter().sum(),
            tail_count: tail.len() as u64,
            tail_sum_ns: tail.iter().sum(),
            p50_ns: h.percentile(0.50).as_nanos(),
            p99_ns: h.percentile(0.99).as_nanos(),
        }
    }

    fn mean_us(&self) -> f64 {
        self.sum_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    fn tail_us(&self) -> f64 {
        self.tail_sum_ns as f64 / self.tail_count.max(1) as f64 / 1e3
    }
}

/// Host timings and simulated results of one repeat.
#[derive(Debug, Clone)]
pub(crate) struct Repeat {
    pub build_ns: u64,
    pub preload_ns: u64,
    pub wall_ns: u64,
    /// Host time inside `post_send`/`post_recv` (RDMA only).
    pub post_ns: u64,
    /// Host time per fixed simulated slice of the timed phase (kept for
    /// the first pass over the scenarios only).
    pub slices_ns: Vec<u64>,
    pub sim: SimOutcome,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// For a median over repeats: the values it was taken from.
    pub samples: Vec<f64>,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: Vec::new(),
        }
    }

    fn median_of(name: &str, samples: Vec<f64>, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value: median(&samples),
            unit,
            samples,
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted across all repeats.
    pub attempted: u64,
    /// Failed operations plus failed checks.
    pub failed: u64,
    /// Why checks failed, one line each.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (complete only with tracing on).
    pub per_layer: Vec<Metric>,
    /// Simulated results of each scenario.
    pub scenarios: Vec<SimOutcome>,
}

/// Scenarios one run measures. Each is the workload with its own seed,
/// drawn from `--seed`; the simulated end-to-end metrics pool all of
/// them. The workloads' simulated latencies vary from one input to the
/// next (on `eth_overcommit`, the mean by over 10% between seeds), and
/// pooling several inputs narrows that spread as fast as a run that
/// long would, while keeping repeats short enough for host-time medians.
fn scenarios(size: Size) -> u64 {
    match size {
        Size::Full => 8,
        Size::Smoke => 2,
    }
}

/// The seed of scenario `k` of a run with seed `seed`.
fn scenario_seed(seed: u64, size: Size, k: u64) -> u64 {
    seed.wrapping_mul(scenarios(size)).wrapping_add(k)
}

/// Deep spans kept in memory by the traced repeat (the per-name totals
/// cover all of them).
const SPAN_CAP: usize = 50_000;

/// Records kept by the program's trace ring in the traced repeat.
const TRACE_RING: usize = 1 << 16;

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when a scenario fails to build, the simulation
/// stalls, or the trace files cannot be written.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    // One untimed repeat first, so the timed ones start with a grown
    // heap and warm caches.
    opts.workload.repeat(
        opts.size,
        scenario_seed(opts.seed, opts.size, 0),
        &mut Spans::off(),
    )?;
    // The calibration kernel is timed before the first repeat and after
    // every one, so each repeat has a host-speed reading on both sides.
    let mut calib = vec![calibrate()];
    let mut speed = Vec::new();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let count = scenarios(opts.size);
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut sims: Vec<SimOutcome> = Vec::new();
    let mut failures = Vec::new();
    // Cycle through the scenarios, at least once each, until the time
    // is spent; a scenario's later repeats must match its first.
    for i in 0.. {
        if i >= count && started.elapsed() >= budget {
            break;
        }
        let k = i % count;
        let seed = scenario_seed(opts.seed, opts.size, k);
        let mut r = opts.workload.repeat(opts.size, seed, &mut Spans::off())?;
        if i >= count {
            // Slice times of the first pass are enough for their
            // percentiles; keeping every repeat's would make the peak
            // memory grow with the run's length.
            r.slices_ns = Vec::new();
        }
        calib.push(calibrate());
        let around = (calib[calib.len() - 2] + calib[calib.len() - 1]) / 2.0;
        speed.push(CALIB_NOMINAL_MS / around);
        match sims.get(k as usize) {
            None => sims.push(r.sim.clone()),
            Some(first) if *first != r.sim => failures.push(format!(
                "scenario {k} (seed {seed}) differs between repeats: {first:?} vs {:?}",
                r.sim
            )),
            Some(_) => {}
        }
        repeats.push(r);
    }
    let traced = if opts.trace {
        Some(traced_repeat(opts, &sims[0], &mut failures)?)
    } else {
        None
    };

    for (k, sim) in sims.iter().enumerate() {
        if sim.ops == 0 {
            failures.push(format!("scenario {k}: no operation completed"));
        }
    }
    let sim_failed: u64 = repeats.iter().map(|r| r.sim.failed).sum();
    let attempted: u64 = repeats.iter().map(|r| r.sim.ops + r.sim.failed).sum();
    // Each failed check counts as one failed operation on top of the
    // operations the simulation itself reported as failed.
    let failed = sim_failed + failures.len() as u64;
    if sim_failed > 0 {
        failures.push(format!("{sim_failed} failed operations"));
    }

    let end_to_end = end_to_end_metrics(&repeats, &speed, &sims)?;
    let mut per_layer = vec![
        Metric::median_of("host.calib_ms", calib, "ms"),
        Metric::median_of("host.wall_raw_s", secs_of(&repeats, |r| r.wall_ns), "s"),
        Metric::median_of(
            "host.setup_raw_s",
            secs_of(&repeats, |r| r.build_ns + r.preload_ns),
            "s",
        ),
        Metric::new(
            "fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    if let Some(t) = traced {
        let scenario0: Vec<&Repeat> = repeats.iter().step_by(count as usize).collect();
        per_layer.extend(per_layer_metrics(&repeats, &scenario0, &t));
        write_trace_files(&opts.out_dir, opts, &t, &per_layer)?;
    }
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: attempted.max(1),
        failed,
        failures,
        end_to_end,
        per_layer,
        scenarios: sims,
    })
}

/// What the traced repeat recorded.
struct Traced {
    repeat: Repeat,
    recorder: TraceRecorder,
    /// The registry's NPF latency histogram.
    fault_latency: DurationHistogram,
    journal: JournalRecorder,
    spans: Spans,
}

/// Runs scenario 0 once more with every recorder installed.
fn traced_repeat(
    opts: &Options,
    sim: &SimOutcome,
    failures: &mut Vec<String>,
) -> Result<Traced, String> {
    let previous = (
        trace::install(TraceRecorder::new(TRACE_RING)),
        journal::install(JournalRecorder::new()),
    );
    debug_assert!(previous.0.is_none() && previous.1.is_none());
    let mut spans = Spans::on(SPAN_CAP);
    spans.begin(opts.workload.name());
    let seed = scenario_seed(opts.seed, opts.size, 0);
    let result = opts.workload.repeat(opts.size, seed, &mut spans);
    spans.end();
    let mut recorder = trace::uninstall().expect("trace recorder installed above");
    let fault_latency = recorder.metrics_mut().histogram_mut("npf.latency").clone();
    let journal = journal::uninstall().expect("journal recorder installed above");
    let repeat = result?;
    if repeat.sim != *sim {
        failures.push(format!(
            "traced repeat differs from untraced: {sim:?} vs {:?}",
            repeat.sim
        ));
    }
    let unbalanced = journal.unbalanced_faults();
    if unbalanced > 0 {
        failures.push(format!(
            "{unbalanced} journalled faults whose phases do not sum to their latency"
        ));
    }
    Ok(Traced {
        repeat,
        recorder,
        fault_latency,
        journal,
        spans,
    })
}

/// Host times are medians over repeats, each scaled to the nominal host
/// speed by `speed` (see [`CALIB_NOMINAL_MS`]); simulated metrics pool
/// every scenario.
fn end_to_end_metrics(
    repeats: &[Repeat],
    speed: &[f64],
    sims: &[SimOutcome],
) -> Result<Vec<Metric>, String> {
    let scaled = |f: fn(&Repeat) -> u64| -> Vec<f64> {
        secs_of(repeats, f)
            .into_iter()
            .zip(speed)
            .map(|(s, k)| s * k)
            .collect()
    };
    let sum = |f: fn(&SimOutcome) -> u64| -> u64 { sims.iter().map(f).sum() };
    let pooled = Latency {
        count: sum(|s| s.latency.count),
        sum_ns: sum(|s| s.latency.sum_ns),
        tail_count: sum(|s| s.latency.tail_count),
        tail_sum_ns: sum(|s| s.latency.tail_sum_ns),
        ..Latency::default()
    };
    Ok(vec![
        Metric::median_of("wall_s", scaled(|r| r.wall_ns), "s"),
        Metric::median_of("setup_s", scaled(|r| r.build_ns + r.preload_ns), "s"),
        Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
        Metric::new(
            "sim_ops_per_s",
            sum(|s| s.ops) as f64 / (sum(|s| s.sim_ns) as f64 / 1e9),
            "1/s",
        ),
        Metric::new("sim_mean_us", pooled.mean_us(), "us"),
        Metric::new("sim_tail_us", pooled.tail_us(), "us"),
    ])
}

/// Counts describe scenario 0, the traced one; host times are medians
/// over every untraced repeat.
fn per_layer_metrics(repeats: &[Repeat], scenario0: &[&Repeat], t: &Traced) -> Vec<Metric> {
    let sim = &t.repeat.sim;
    let c = |name: &str| sim.count(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let reg = t.recorder.metrics();
    let r = |name: &str| reg.counter(name) as f64;
    let mut slices: Vec<f64> = repeats
        .iter()
        .flat_map(|r| r.slices_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    slices.sort_by(f64::total_cmp);
    let mut fault_latency = t.fault_latency.clone();

    let events = c("simcore.events");
    let data_packets = c("rdmasim.data_packets");
    let first_time = data_packets - c("rdmasim.retransmits") - c("rdmasim.rnr_retransmits");
    let stored = c("nicsim.rx_stored");
    let backup = c("nicsim.rx_backup_stored");
    let mut m = vec![
        Metric::new("simcore.events", events, "count"),
        Metric::new(
            "simcore.ns_per_event",
            median(
                &repeats
                    .iter()
                    .map(|r| ratio(r.wall_ns as f64, r.sim.count("simcore.events") as f64))
                    .collect::<Vec<_>>(),
            ),
            "ns",
        ),
        Metric::new(
            "simcore.cancel_ratio",
            ratio(c("simcore.cancelled"), c("simcore.scheduled")),
            "ratio",
        ),
        Metric::new(
            "testbed.events_per_op",
            ratio(events, sim.ops as f64),
            "events/op",
        ),
        Metric::new(
            "testbed.latency_p50_us",
            sim.latency.p50_ns as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "testbed.latency_p99_us",
            sim.latency.p99_ns as f64 / 1e3,
            "us",
        ),
        Metric::new("testbed.slice_ms_p50", percentile(&slices, 0.50), "ms"),
        Metric::new("testbed.slice_ms_p99", percentile(&slices, 0.99), "ms"),
        Metric::median_of("testbed.build_s", secs_of(repeats, |r| r.build_ns), "s"),
        Metric::median_of("testbed.preload_s", secs_of(repeats, |r| r.preload_ns), "s"),
        Metric::new("tcpsim.retransmits", r("tcpsim.retransmits"), "count"),
        Metric::new("tcpsim.rto_expiries", r("tcpsim.rto_expiries"), "count"),
        Metric::new(
            "tcpsim.fast_retransmits",
            r("tcpsim.fast_retransmits"),
            "count",
        ),
        Metric::new("nicsim.rx_stored", stored, "count"),
        Metric::new("nicsim.rx_backup_stored", backup, "count"),
        Metric::new(
            "nicsim.rx_dropped_fault",
            c("nicsim.rx_dropped_fault"),
            "count",
        ),
        Metric::new(
            "nicsim.backup_share",
            ratio(backup, stored + backup),
            "ratio",
        ),
        Metric::new("backup_driver.parked", r("backup_driver.parked"), "count"),
        Metric::new("backup_driver.merged", r("backup_driver.merged"), "count"),
        Metric::new("rdmasim.data_packets", data_packets, "count"),
        Metric::new("rdmasim.retransmits", c("rdmasim.retransmits"), "count"),
        Metric::new(
            "rdmasim.rnr_retransmits",
            c("rdmasim.rnr_retransmits"),
            "count",
        ),
        Metric::new("rdmasim.timeouts", c("rdmasim.timeouts"), "count"),
        Metric::new(
            "rdmasim.useful_ratio",
            ratio(first_time, data_packets),
            "ratio",
        ),
        Metric::median_of("rdmasim.post_s", secs_of(repeats, |r| r.post_ns), "s"),
        Metric::new("netsim.packets", c("netsim.packets"), "count"),
        Metric::new("netsim.drops", c("netsim.drops"), "count"),
        Metric::new("netsim.ecn_marks", c("netsim.ecn_marks"), "count"),
        Metric::new("npf.events", c("npf.events"), "count"),
        Metric::new("npf.pages", c("npf.pages"), "count"),
        Metric::new(
            "npf.pages_per_event",
            ratio(c("npf.pages"), c("npf.events")),
            "pages/event",
        ),
        Metric::new("npf.major", c("npf.major"), "count"),
        Metric::new("npf.invalidations", c("npf.invalidations"), "count"),
        Metric::new(
            "npf.fault_p50_us",
            fault_latency.percentile(0.50).as_micros_f64(),
            "us",
        ),
        Metric::new(
            "npf.fault_p99_us",
            fault_latency.percentile(0.99).as_micros_f64(),
            "us",
        ),
        Metric::new("iommu.invalidations", r("iommu.invalidations"), "count"),
        Metric::new("iommu.page_requests", r("iommu.page_requests"), "count"),
        Metric::new("iommu.iotlb_hits", c("iommu.iotlb_hits"), "count"),
        Metric::new("iommu.iotlb_misses", c("iommu.iotlb_misses"), "count"),
        Metric::new("memsim.minor_faults", c("memsim.minor_faults"), "count"),
        Metric::new("memsim.major_faults", c("memsim.major_faults"), "count"),
        Metric::new("memsim.evictions", c("memsim.evictions"), "count"),
        Metric::new("memsim.swap_outs", c("memsim.swap_outs"), "count"),
        Metric::new(
            "memcached.hit_ratio",
            ratio(c("memcached.hits"), c("memcached.ops")),
            "ratio",
        ),
    ];
    for phase in Phase::ALL {
        let total = t
            .journal
            .faults()
            .iter()
            .fold(SimDuration::ZERO, |acc, f| acc + f.phase_total(phase));
        m.push(Metric::new(
            format!("npf.phase.{}_us", phase.name()),
            total.as_micros_f64(),
            "us",
        ));
    }
    let untraced_wall = median(
        &scenario0
            .iter()
            .map(|r| r.wall_ns as f64)
            .collect::<Vec<_>>(),
    );
    m.extend([
        Metric::new(
            "trace.overhead_ratio",
            ratio(t.repeat.wall_ns as f64, untraced_wall),
            "ratio",
        ),
        Metric::new(
            "trace.records",
            (t.recorder.len() as u64 + t.recorder.dropped() + span_count(&t.spans)) as f64,
            "count",
        ),
        Metric::new(
            "trace.dropped",
            (t.recorder.dropped() + t.spans.dropped()) as f64,
            "count",
        ),
    ]);
    m
}

fn span_count(spans: &Spans) -> u64 {
    spans.totals().values().map(|t| t.count).sum()
}

fn secs_of(repeats: &[Repeat], f: fn(&Repeat) -> u64) -> Vec<f64> {
    repeats.iter().map(|r| f(r) as f64 / 1e9).collect()
}

fn write_trace_files(
    dir: &std::path::Path,
    opts: &Options,
    t: &Traced,
    per_layer: &[Metric],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", opts.workload.name(), opts.seed);
    let mut layers = String::from("{");
    for (i, m) in per_layer.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            layers,
            "{sep}\n  \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    layers.push_str("\n}\n");
    for (name, body) in [
        (format!("{stem}.spans.json"), t.spans.chrome_json()),
        (format!("{stem}.layers.json"), layers),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The calibration kernel's time on the host the benchmark was
/// developed on (2-core x86-64 VM), in milliseconds.
///
/// The host is shared, and how fast it runs the simulator drifts by 20%
/// or more over tens of minutes. The end-to-end host times are therefore
/// scaled to this nominal speed: a repeat's time is multiplied by this
/// value over the kernel's time measured around that repeat. The kernel
/// does the kind of work the simulator does — hashing, ordered maps and
/// small allocations — so it slows down with it; the raw times are
/// reported per layer as `host.wall_raw_s` and `host.setup_raw_s`.
const CALIB_NOMINAL_MS: f64 = 30.0;

/// Times a fixed kernel of hash-map, ordered-map and allocation work
/// once, in milliseconds. It uses only the standard library and none of
/// the simulator's code, so a change to the simulator leaves its speed
/// alone.
fn calibrate() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    let t = Instant::now();
    let mut hashed: HashMap<u64, u64> = HashMap::new();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 50_000;
        *hashed.entry(k).or_insert(0) += i;
        *ordered.entry(k ^ 0x55).or_insert(0) += i;
        if i % 3 == 0 {
            hashed.remove(&(k / 2));
            ordered.remove(&(k / 3));
        }
        let small: Vec<u64> = (0..k % 16).map(|j| j * k).collect();
        std::hint::black_box(&small);
    }
    std::hint::black_box((hashed.len(), ordered.len()));
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median of unsorted samples (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Nearest-rank percentile of sorted samples (0 when empty); the median
/// of an even count averages the two middle values.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if q == 0.5 && n % 2 == 0 => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(n=4)`
/// computes them (the "exclusive" method).
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |j: usize| {
        let m = (n + 1) as f64 * j as f64 / 4.0;
        let lo = (m.floor() as usize).clamp(1, n - 1);
        let frac = m - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0).
#[must_use]
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope").is_err());
    }
}
