//! Host-time spans recorded by the benchmark around its own calls into
//! the simulator (build, preload, run slice, post, step, drain).
//!
//! Spans nest strictly: `begin` pushes, `end` pops. Each carries its
//! parent's id, so every span of a run hangs under the workload span.
//! Per-name totals (count, total and self time) cover every span; the
//! span records themselves stay in memory up to a cap and are written
//! out once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the benchmark was calling.
    pub name: &'static str,
    /// Unique id within the run (1-based; 0 means "no parent").
    pub id: u32,
    /// Id of the enclosing span.
    pub parent: u32,
    /// Start, in host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, in host nanoseconds since the recorder started.
    pub end_ns: u64,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

struct Recorder {
    origin: Instant,
    stack: Vec<Open>,
    next_id: u32,
    kept: Vec<Span>,
    /// Spans deeper than `ALWAYS_KEPT_DEPTH` are kept up to this many.
    deep_cap: usize,
    deep_kept: usize,
    dropped: u64,
    totals: BTreeMap<&'static str, SpanTotal>,
}

/// Depth up to which spans are always kept: the workload and its build /
/// preload / run phases. Deeper spans (slice, round, post, step, drain)
/// come by the million on the RDMA workloads and are capped.
const ALWAYS_KEPT_DEPTH: usize = 1;

/// A span recorder that is either on or off; when off every call is a
/// single branch.
pub struct Spans(Option<Box<Recorder>>);

impl Spans {
    /// A recorder that records nothing.
    #[must_use]
    pub fn off() -> Self {
        Spans(None)
    }

    /// A recorder that keeps at most `deep_cap` spans below the phase
    /// level (totals still cover all of them).
    #[must_use]
    pub fn on(deep_cap: usize) -> Self {
        Spans(Some(Box::new(Recorder {
            origin: Instant::now(),
            stack: Vec::new(),
            next_id: 1,
            kept: Vec::new(),
            deep_cap,
            deep_kept: 0,
            dropped: 0,
            totals: BTreeMap::new(),
        })))
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if let Some(r) = self.0.as_mut() {
            let start_ns = r.now_ns();
            let id = r.next_id;
            r.next_id += 1;
            r.stack.push(Open {
                name,
                id,
                start_ns,
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — a pairing bug in the benchmark.
    #[inline]
    pub fn end(&mut self) {
        if let Some(r) = self.0.as_mut() {
            let end_ns = r.now_ns();
            let open = r.stack.pop().expect("end() without a matching begin()");
            let dur = end_ns - open.start_ns;
            let parent = r.stack.last_mut().map_or(0, |p| {
                p.child_ns += dur;
                p.id
            });
            let t = r.totals.entry(open.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - open.child_ns.min(dur);
            let always = r.stack.len() <= ALWAYS_KEPT_DEPTH;
            if always || r.deep_kept < r.deep_cap {
                r.deep_kept += usize::from(!always);
                r.kept.push(Span {
                    name: open.name,
                    id: open.id,
                    parent,
                    start_ns: open.start_ns,
                    end_ns,
                });
            } else {
                r.dropped += 1;
            }
        }
    }

    /// Spans kept in memory.
    #[must_use]
    pub fn kept(&self) -> &[Span] {
        self.0.as_ref().map_or(&[], |r| &r.kept)
    }

    /// Spans recorded in the totals but not kept.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |r| r.dropped)
    }

    /// Per-name totals over every span.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        self.0
            .as_ref()
            .map(|r| r.totals.clone())
            .unwrap_or_default()
    }

    /// The kept spans as Chrome trace-event JSON (loadable in Perfetto),
    /// with the per-name totals under `perfbench_totals`.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.kept().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        let _ = write!(
            out,
            "\n],\"perfbench_dropped\":{},\"perfbench_totals\":{{",
            self.dropped()
        );
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("}}\n");
        out
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut s = Spans::on(1);
        s.begin("workload");
        s.begin("run");
        s.begin("round");
        s.begin("step");
        s.end();
        s.begin("step");
        s.end();
        s.end();
        s.end();
        s.end();
        let kept = s.kept();
        // The first step fills the cap of one; the second step and the
        // round are dropped from the record but not from the totals.
        assert_eq!(kept.len(), 3);
        assert_eq!(s.dropped(), 2);
        let by_name = |n: &str| kept.iter().find(|k| k.name == n).unwrap();
        assert_eq!(by_name("workload").parent, 0);
        assert_eq!(by_name("run").parent, by_name("workload").id);
        assert_ne!(by_name("step").parent, by_name("run").id);
        let totals = s.totals();
        assert_eq!(totals["step"].count, 2);
        assert_eq!(totals["round"].count, 1);
        let run = totals["run"];
        assert!(run.self_ns <= run.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::off();
        s.begin("x");
        s.end();
        assert!(s.kept().is_empty());
        assert!(s.totals().is_empty());
    }
}
