//! The executor: independent simulations fanned over a worker pool,
//! with output byte-identical at every worker count.
//!
//! Every evaluation artifact fans out over independent testbeds (a
//! figure's load points, a table's rows, a scalebench cell, a bench
//! binary's experiment points). Each such task is one **coupling
//! group**: everything inside it (host memory pool, fault arbiter,
//! backup rings, link queues) interacts within a single event dispatch
//! and runs on one thread, while tasks exchange no events at all.
//! [`run_isolated`] runs them on `workers` threads and returns their
//! results in task order.
//!
//! # Determinism contract
//!
//! * **Fresh instruments per task.** Every task runs under fresh
//!   thread-local instruments ([`trace`]/[`journal`]/[`invariant`])
//!   built from an [`IsolationSpec`] — at every worker count, including
//!   1 — and the collected state is absorbed into the caller's
//!   installed instruments strictly in task order after all tasks
//!   finish. Per-task recorder clocks, journal cause state and checker
//!   timelines therefore never leak between tasks on any path.
//! * **Namespaces per task.** Task `i` draws its invariant-note
//!   namespaces (the salts of fault/frame/domain ids) from a range
//!   derived from `i`, never from the process-global counter. A pool
//!   nested inside another pool's task carves its tasks' ranges out of
//!   the enclosing task's, so ids stay distinct across every level
//!   absorbed into one checker.
//! * **At most `workers` threads.** A pool of `w` spawned workers,
//!   asked for `workers`, gives each worker a share of `workers / w`.
//!   A pool reached from inside a worker (a figure's testbeds inside a
//!   bench binary's experiment point) uses at most that share, and
//!   runs its tasks inline when the share is one, so nested fan-out
//!   keeps the live simulations at `workers`, not `workers²`. Inline
//!   execution is the same code path, so the bytes do not change.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::chaos::{invariant, InvariantChecker};
use crate::journal::{self, JournalRecorder, JournalWatchdog};
use crate::trace::{self, TraceRecorder};

/// What instrumentation each task runs under.
///
/// Mirrors the caller's own environment: a bench binary running with
/// `--trace --chaos-seed 7` hands its pool the same spec so every task
/// records into a private recorder/checker that is later absorbed.
#[derive(Debug, Clone, Copy, Default)]
pub struct IsolationSpec {
    /// Give each task a fresh [`TraceRecorder`] (absorbed in task order).
    pub record: bool,
    /// Ring capacity for per-task recorders.
    pub ring_capacity: usize,
    /// Give each task a fresh [`InvariantChecker`] with this seed.
    pub chaos_seed: Option<u64>,
    /// Give each task a fresh [`JournalRecorder`].
    pub journal: bool,
    /// Watchdog armed on each per-task journal.
    pub watchdog: Option<JournalWatchdog>,
}

impl IsolationSpec {
    /// A spec that installs nothing (pure compute fan-out).
    #[must_use]
    pub fn none() -> Self {
        IsolationSpec::default()
    }
}

/// One task's instruments: installed around its body, then absorbed
/// into the caller's.
#[derive(Debug, Default)]
struct Instruments {
    recorder: Option<TraceRecorder>,
    checker: Option<InvariantChecker>,
    journal: Option<JournalRecorder>,
}

impl Instruments {
    fn fresh(spec: IsolationSpec) -> Self {
        Instruments {
            recorder: spec.record.then(|| TraceRecorder::new(spec.ring_capacity)),
            checker: spec.chaos_seed.map(InvariantChecker::new),
            journal: spec.journal.then(|| {
                let mut j = JournalRecorder::new();
                if let Some(w) = spec.watchdog {
                    j.set_watchdog(w);
                }
                j
            }),
        }
    }

    /// Runs `body` with these instruments installed on the current
    /// thread, then takes them back off and restores whatever they
    /// displaced (the caller's own instruments when running inline;
    /// nothing on a fresh worker).
    fn around<R>(&mut self, spec: IsolationSpec, body: impl FnOnce() -> R) -> R {
        let recorder = self.recorder.take().and_then(trace::install);
        let checker = self.checker.take().and_then(invariant::install);
        let journal = self.journal.take().and_then(journal::install);
        let out = body();
        if spec.journal {
            self.journal = Some(journal::uninstall().expect("journal installed"));
        }
        if spec.chaos_seed.is_some() {
            self.checker = Some(invariant::uninstall().expect("checker installed"));
        }
        if spec.record {
            self.recorder = Some(trace::uninstall().expect("recorder installed"));
        }
        if let Some(r) = recorder {
            trace::install(r);
        }
        if let Some(c) = checker {
            invariant::install(c);
        }
        if let Some(j) = journal {
            journal::install(j);
        }
        out
    }

    /// Folds this task's collected state into the caller's installed
    /// instruments. Call in task order from the caller's thread.
    fn absorb_into_caller(self) {
        if let Some(rec) = self.recorder {
            trace::with(|mine| mine.absorb(rec));
        }
        if let Some(j) = self.journal {
            journal::with(|mine| mine.absorb(&j));
        }
        if let Some(c) = self.checker {
            invariant::with(|mine| mine.absorb(c));
        }
    }
}

/// Namespaces each task of a top-level pool may draw: task `i` owns
/// `[(i + 1) << 20, (i + 2) << 20)`.
const TOP_LEVEL_NAMESPACES: u64 = 1 << 20;

/// Namespaces each task of a nested pool may draw, carved out of the
/// enclosing task's range — far more than one testbed constructs.
const NESTED_NAMESPACES: u64 = 1 << 12;

/// The first namespace of task 0 and the span each task owns, for a
/// pool of `n` tasks started on the current thread.
fn namespace_layout(n: usize) -> (u64, u64) {
    match invariant::reserve_namespaces(n as u64 * NESTED_NAMESPACES) {
        Some(first) => (first, NESTED_NAMESPACES),
        None => (TOP_LEVEL_NAMESPACES, TOP_LEVEL_NAMESPACES),
    }
}

thread_local! {
    /// On a thread spawned by [`run_isolated`]: its share of the
    /// workers its pool was asked for, the most a pool nested in its
    /// tasks may use.
    static WORKER_SHARE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A boxed task, as [`run_isolated`] consumes them.
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Boxes a closure into a [`Task`].
#[must_use]
pub fn task<'a, T>(f: impl FnOnce() -> T + Send + 'a) -> Task<'a, T> {
    Box::new(f)
}

/// Hardware threads available to this process (1 when unknown).
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The worker count a pool actually uses for `requested` workers over
/// `tasks` tasks on a host with `host` hardware threads: `requested`
/// clamped to `[1, tasks]`, and always 1 on a single-hardware-thread
/// host, where spawned workers would only time-slice the one core the
/// caller already owns.
#[must_use]
pub fn effective_workers(requested: usize, tasks: usize, host: usize) -> usize {
    if host <= 1 {
        return 1;
    }
    requested.clamp(1, tasks.max(1))
}

/// Runs independent tasks on a pool of `workers` threads and returns
/// their results in task order.
///
/// Called from a pool worker, the pool uses at most that worker's
/// share of its own pool's request. One worker runs the tasks on the
/// caller's thread without spawning. See the module docs for the
/// determinism contract.
pub fn run_isolated<T: Send>(
    tasks: Vec<Task<'_, T>>,
    workers: usize,
    spec: IsolationSpec,
) -> Vec<T> {
    let n = tasks.len();
    let requested = WORKER_SHARE
        .with(Cell::get)
        .map_or(workers, |share| workers.min(share));
    let workers = effective_workers(requested, n, host_parallelism());
    let share = (requested / workers).max(1);
    let (first_ns, ns_span) = namespace_layout(n);
    let inputs: Vec<Mutex<Option<Task<'_, T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<(T, Instruments)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let task = inputs[i]
            .lock()
            .expect("task slot poisoned")
            .take()
            .expect("claimed exactly once");
        let base = first_ns + i as u64 * ns_span;
        let mut instruments = Instruments::fresh(spec);
        let result = instruments.around(spec, || {
            invariant::with_namespaces(base..base + ns_span, task)
        });
        *outputs[i].lock().expect("result slot poisoned") = Some((result, instruments));
    };
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    WORKER_SHARE.with(|w| w.set(Some(share)));
                    worker();
                });
            }
        });
    }
    outputs
        .into_iter()
        .map(|slot| {
            let (result, instruments) = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker loop fills every slot");
            instruments.absorb_into_caller();
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn single_core_hosts_always_run_inline() {
        // `--jobs 4` on a 1-core runner must not spawn contending
        // workers.
        assert_eq!(effective_workers(4, 16, 1), 1);
        assert_eq!(effective_workers(0, 16, 1), 1);
        // Multi-core hosts keep the requested count, clamped to the
        // task count.
        assert_eq!(effective_workers(4, 16, 8), 4);
        assert_eq!(effective_workers(8, 3, 8), 3);
        assert_eq!(effective_workers(0, 3, 8), 1);
        assert_eq!(effective_workers(2, 0, 8), 1);
    }

    #[test]
    fn run_isolated_returns_results_in_task_order() {
        let tasks: Vec<Task<'_, u64>> = (0..16u64).map(|i| task(move || i * i)).collect();
        let out = run_isolated(tasks, 4, IsolationSpec::none());
        assert_eq!(out, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_isolated_single_worker_runs_inline() {
        // At one worker the caller's thread identity is preserved: the
        // serial path, byte for byte.
        let caller = std::thread::current().id();
        let tasks: Vec<Task<'_, std::thread::ThreadId>> = (0..3)
            .map(|_| task(|| std::thread::current().id()))
            .collect();
        let out = run_isolated(tasks, 1, IsolationSpec::none());
        assert!(out.iter().all(|&id| id == caller));
    }

    /// Runs an outer pool of `outer` tasks at `workers`; each task
    /// fans 8 tasks over a nested pool asked for `workers` and reports
    /// `(its own thread, the threads its nested pool ran on)`.
    fn nested_threads(
        outer: usize,
        workers: usize,
    ) -> Vec<(std::thread::ThreadId, Vec<std::thread::ThreadId>)> {
        let tasks: Vec<Task<'_, _>> = (0..outer)
            .map(|_| {
                task(move || {
                    let inner: Vec<Task<'_, std::thread::ThreadId>> = (0..8)
                        .map(|_| task(|| std::thread::current().id()))
                        .collect();
                    let mut ids = run_isolated(inner, workers, IsolationSpec::none());
                    ids.sort_unstable_by_key(|id| format!("{id:?}"));
                    ids.dedup();
                    (std::thread::current().id(), ids)
                })
            })
            .collect();
        run_isolated(tasks, workers, IsolationSpec::none())
    }

    #[test]
    fn nested_pools_stay_within_their_worker_share() {
        // A saturated outer pool leaves each worker a share of one: the
        // nested pools run inline on the worker's own thread.
        for (me, inner) in nested_threads(4, 2) {
            assert_eq!(inner, vec![me], "nested pool spawned");
        }
        // Two outer tasks on a request of 4 leave each worker a share
        // of two threads for its nested pool.
        for (_, inner) in nested_threads(2, 4) {
            assert!(inner.len() <= 2, "nested pool exceeded its share");
        }
    }

    #[test]
    fn nested_namespace_bases_never_collide() {
        // An outer pool of 2 tasks; each draws namespaces directly
        // (before and after its inner pool) and from an inner pool of
        // 2. Everything lands in one checker after absorption, so every
        // drawn id must be distinct.
        for workers in [1, 2] {
            let outer: Vec<Task<'_, Vec<u64>>> = (0..2)
                .map(|_| {
                    task(move || {
                        let mut ids = vec![invariant::fresh_namespace()];
                        let inner: Vec<Task<'_, Vec<u64>>> = (0..2)
                            .map(|_| {
                                task(|| {
                                    vec![invariant::fresh_namespace(), invariant::fresh_namespace()]
                                })
                            })
                            .collect();
                        ids.extend(
                            run_isolated(inner, workers, IsolationSpec::none())
                                .into_iter()
                                .flatten(),
                        );
                        ids.push(invariant::fresh_namespace());
                        ids
                    })
                })
                .collect();
            let ids: Vec<u64> = run_isolated(outer, workers, IsolationSpec::none())
                .into_iter()
                .flatten()
                .collect();
            let mut unique = ids.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), ids.len(), "colliding namespaces: {ids:?}");
        }
    }

    #[test]
    fn run_isolated_absorbs_traces_in_task_order() {
        // Caller runs with a recorder installed; the pool gives each
        // task its own and absorbs them back in task order.
        assert!(trace::install(TraceRecorder::new(1 << 10)).is_none());
        let spec = IsolationSpec {
            record: true,
            ring_capacity: 1 << 10,
            ..IsolationSpec::default()
        };
        let tasks: Vec<Task<'_, ()>> = (0..6u64)
            .map(|i| {
                task(move || {
                    trace::span(
                        SimTime::from_micros(i),
                        SimDuration::from_micros(1),
                        "shard",
                        "task",
                        vec![("i", crate::trace::ArgValue::U64(i))],
                    );
                    trace::metrics(|m| m.counter_add("shard.tasks", 1));
                })
            })
            .collect();
        run_isolated(tasks, 3, spec);
        let rec = trace::uninstall().expect("still installed");
        assert_eq!(rec.metrics().counter("shard.tasks"), 6);
        // Spans appear in task order after the ordered absorb.
        let starts: Vec<SimTime> = rec
            .spans()
            .filter_map(|r| match r {
                crate::trace::TraceRecord::Span { start, .. } => Some(*start),
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            (0..6u64).map(SimTime::from_micros).collect::<Vec<_>>(),
            "absorb preserved task order"
        );
    }

    #[test]
    fn chaos_checkers_are_per_task_and_absorbed() {
        // Each task steps its own checker's clock backwards once: one
        // violation per task, all absorbed into the caller's checker.
        assert!(invariant::install(InvariantChecker::new(5)).is_none());
        let spec = IsolationSpec {
            chaos_seed: Some(5),
            ..IsolationSpec::default()
        };
        let tasks: Vec<Task<'_, ()>> = (0..4)
            .map(|_| {
                task(|| {
                    invariant::note_event_time(SimTime::from_micros(1));
                    invariant::note_event_time(SimTime::ZERO);
                })
            })
            .collect();
        run_isolated(tasks, 2, spec);
        let checker = invariant::uninstall().expect("still installed");
        assert_eq!(checker.violations().len(), 4);
        assert!(checker.checks() >= 8);
    }
}
