//! The two RDMA workloads: RC sends on an `IbCluster`, one on a lossy
//! fabric (IRN selective repeat), one under ODP memory pressure (the §4
//! NPF path with RNR).

use std::collections::BTreeMap;
use std::time::Instant;

use memsim::swap::DiskConfig;
use memsim::types::VirtAddr;
use netsim::profile::{FabricProfile, TransportConfig};
use rdmasim::types::{QpId, SendOp, WcOpcode, WcStatus};
use simcore::rng::SimRng;
use simcore::stats::DurationHistogram;
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;
use testbed::ib::IbCluster;

use crate::spans::Spans;
use crate::{elapsed_ns, Latency, Repeat, SimOutcome};

/// Message payload of both workloads: 16 packets at the 4 KiB MTU.
const MESSAGE_BYTES: u64 = 64 * 1024;

/// Simulated length of one timed slice.
const SLICE: SimDuration = SimDuration::from_micros(100);

/// Senders of the incast, all into node `INCAST_SENDERS`.
const INCAST_SENDERS: u32 = 3;

/// Messages each incast sender posts per round (lossybench's depth).
const INCAST_MESSAGES_PER_ROUND: u64 = 48;

/// The lossy-fabric incast at one size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IncastSpec {
    pub rounds: u64,
}

/// The ODP memory-pressure stream at one size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OdpSpec {
    /// Messages sent in the timed phase.
    pub messages: u64,
    /// Physical memory of each node.
    pub node_memory: ByteSize,
    /// ODP region of each node; larger than `node_memory`.
    pub region: ByteSize,
    /// Messages in flight (closed loop).
    pub window: u64,
}

/// One RC connection the workload sends over.
#[derive(Debug, Clone, Copy)]
struct Flow {
    sender: u32,
    qs: QpId,
    receiver: u32,
    qr: QpId,
}

/// Posts messages, steps the cluster, and checks every completion.
struct Driver {
    nodes: u32,
    posted_at: Vec<SimTime>,
    outstanding: u64,
    delivered: u64,
    failed: u64,
    steps: u64,
    post_ns: u64,
    latency: DurationHistogram,
    slice_end: SimTime,
    slice_start: Instant,
    slices_ns: Vec<u64>,
}

impl Driver {
    fn new(nodes: u32) -> Self {
        Driver {
            nodes,
            posted_at: Vec::new(),
            outstanding: 0,
            delivered: 0,
            failed: 0,
            steps: 0,
            post_ns: 0,
            latency: DurationHistogram::new(),
            slice_end: SimTime::ZERO.saturating_add(SLICE),
            slice_start: Instant::now(),
            slices_ns: Vec::new(),
        }
    }

    /// Posts one message: a receive at the responder, then the send.
    fn post(
        &mut self,
        c: &mut IbCluster,
        spans: &mut Spans,
        f: Flow,
        local: VirtAddr,
        remote: VirtAddr,
    ) {
        spans.begin("post");
        let t = Instant::now();
        let wr = self.posted_at.len() as u64;
        c.post_recv(f.receiver, f.qr, wr, remote, MESSAGE_BYTES);
        c.post_send(
            f.sender,
            f.qs,
            wr,
            SendOp::Send {
                local,
                len: MESSAGE_BYTES,
            },
        );
        self.post_ns += elapsed_ns(t);
        spans.end();
        self.posted_at.push(c.now());
        // A send completion at the requester and a receive completion
        // at the responder.
        self.outstanding += 2;
    }

    /// Dispatches one event and collects its completions. Returns the
    /// number of sends that completed.
    fn step(&mut self, c: &mut IbCluster, spans: &mut Spans) -> Result<u64, String> {
        spans.begin("step");
        let more = c.step();
        spans.end();
        if !more {
            return Err(format!(
                "event queue ran dry with {} completions outstanding",
                self.outstanding
            ));
        }
        self.steps += 1;
        let now = c.now();
        if now >= self.slice_end {
            self.slices_ns.push(elapsed_ns(self.slice_start));
            self.slice_start = Instant::now();
            while self.slice_end <= now {
                self.slice_end = self.slice_end.saturating_add(SLICE);
            }
        }
        let mut sends = 0;
        for n in 0..self.nodes {
            if c.completions(n).is_empty() {
                continue;
            }
            spans.begin("drain");
            let completions = c.drain_completions(n);
            spans.end();
            for comp in completions {
                self.outstanding -= 1;
                let ok = comp.status == WcStatus::Success && comp.len == MESSAGE_BYTES;
                if !ok {
                    self.failed += 1;
                }
                match comp.opcode {
                    WcOpcode::Send => {
                        sends += 1;
                        let posted = self.posted_at[comp.wr_id as usize];
                        self.latency.record(now.saturating_since(posted));
                    }
                    WcOpcode::Recv => self.delivered += u64::from(ok),
                    other => return Err(format!("unexpected completion {other:?}")),
                }
            }
        }
        Ok(sends)
    }

    /// Steps until every posted message has completed on both sides.
    fn settle(&mut self, c: &mut IbCluster, spans: &mut Spans) -> Result<(), String> {
        while self.outstanding > 0 {
            self.step(c, spans)?;
        }
        Ok(())
    }

    fn finish(mut self, c: &IbCluster, flows: &[Flow], build_ns: u64, wall_ns: u64) -> Repeat {
        let mut counts = BTreeMap::from([
            ("simcore.events", self.steps),
            ("netsim.packets", c.fabric().total_sent()),
            ("netsim.drops", c.fabric().total_drops()),
            ("netsim.ecn_marks", c.fabric().total_marked()),
        ]);
        let mut add = |k: &'static str, v: u64| *counts.entry(k).or_insert(0) += v;
        for f in flows {
            let st = c.node(f.sender).qp_stats(f.qs);
            add("rdmasim.data_packets", st.data_packets_sent);
            add("rdmasim.retransmits", st.retransmits);
            add("rdmasim.rnr_retransmits", st.rnr_retransmits);
            add("rdmasim.timeouts", st.timeouts);
        }
        for n in 0..self.nodes {
            let engine = c.node(n).engine();
            let npf = engine.counters();
            let mem = engine.memory().counters();
            let tlb = engine.iommu().tlb();
            add("npf.events", npf.get("npf_events"));
            add("npf.pages", npf.get("npf_pages"));
            add("npf.major", npf.get("npf_major"));
            add("npf.invalidations", npf.get("invalidations"));
            add("iommu.iotlb_hits", tlb.hits());
            add("iommu.iotlb_misses", tlb.misses());
            add("memsim.minor_faults", mem.get("minor_faults"));
            add("memsim.major_faults", mem.get("major_faults"));
            add("memsim.evictions", mem.get("evictions"));
            add("memsim.swap_outs", mem.get("swap_outs"));
        }
        Repeat {
            build_ns,
            preload_ns: 0,
            wall_ns,
            post_ns: self.post_ns,
            slices_ns: self.slices_ns,
            sim: SimOutcome {
                ops: self.delivered,
                failed: self.failed,
                sim_ns: c.now().as_nanos(),
                latency: Latency::of(&mut self.latency),
                counts,
            },
        }
    }
}

/// `rdma_lossy_incast`: three senders into one receiver over IRN
/// selective repeat at 1% random loss with ECN marking, round after
/// round. Receive buffers are cold only in the first round.
pub(crate) fn incast_repeat(
    spec: &IncastSpec,
    seed: u64,
    spans: &mut Spans,
) -> Result<Repeat, String> {
    spans.begin("build");
    let t = Instant::now();
    let receiver = INCAST_SENDERS;
    let built = ScenarioBuilder::infiniband()
        .nodes(INCAST_SENDERS + 1)
        .node_memory(ByteSize::mib(512))
        .profile(FabricProfile::lossy(0.01).with_ecn(Some(SimDuration::from_micros(20))))
        .transport(TransportConfig::irn())
        .seed(seed)
        .build();
    let mut c = built.map_err(|e| format!("cluster failed to build: {e}"))?;
    let mut flows = Vec::new();
    for s in 0..INCAST_SENDERS {
        let (qs, qr) = c.connect(s, receiver);
        let src = c.alloc_buffers(s, ByteSize::mib(1));
        let dst = c.alloc_buffers(receiver, ByteSize::mib(1));
        flows.push((
            Flow {
                sender: s,
                qs,
                receiver,
                qr,
            },
            src,
            dst,
        ));
    }
    let build_ns = elapsed_ns(t);
    spans.end();

    spans.begin("run");
    let t = Instant::now();
    let mut d = Driver::new(INCAST_SENDERS + 1);
    for _ in 0..spec.rounds {
        spans.begin("round");
        for &(f, src, dst) in &flows {
            for _ in 0..INCAST_MESSAGES_PER_ROUND {
                d.post(&mut c, spans, f, src, dst);
            }
        }
        d.settle(&mut c, spans)?;
        spans.end();
    }
    let wall_ns = elapsed_ns(t);
    spans.end();
    let flows: Vec<Flow> = flows.iter().map(|&(f, _, _)| f).collect();
    Ok(d.finish(&c, &flows, build_ns, wall_ns))
}

/// `rdma_odp_pressure`: one RC connection between two nodes whose ODP
/// regions exceed physical memory; each message goes from a random slot
/// of the sender's region into a random slot of the receiver's.
pub(crate) fn odp_repeat(spec: &OdpSpec, seed: u64, spans: &mut Spans) -> Result<Repeat, String> {
    spans.begin("build");
    let t = Instant::now();
    let built = ScenarioBuilder::infiniband()
        .nodes(2)
        .node_memory(spec.node_memory)
        .disk(DiskConfig::nvm())
        .seed(seed)
        .build();
    let mut c = built.map_err(|e| format!("cluster failed to build: {e}"))?;
    let (qs, qr) = c.connect(0, 1);
    let src = c.alloc_buffers(0, spec.region);
    let dst = c.alloc_buffers(1, spec.region);
    let flow = Flow {
        sender: 0,
        qs,
        receiver: 1,
        qr,
    };
    let build_ns = elapsed_ns(t);
    spans.end();

    let slots = spec.region.bytes() / MESSAGE_BYTES;
    let mut rng = SimRng::new(seed).fork(0x0d9);
    let slot =
        |base: VirtAddr, rng: &mut SimRng| VirtAddr(base.0 + rng.below(slots) * MESSAGE_BYTES);

    spans.begin("run");
    let t = Instant::now();
    let mut d = Driver::new(2);
    // Closed loop: each completed send frees a slot in the window.
    let (mut free, mut posted) = (spec.window, 0);
    loop {
        while free > 0 && posted < spec.messages {
            let (l, r) = (slot(src, &mut rng), slot(dst, &mut rng));
            d.post(&mut c, spans, flow, l, r);
            (free, posted) = (free - 1, posted + 1);
        }
        if d.outstanding == 0 {
            break;
        }
        free += d.step(&mut c, spans)?;
    }
    let wall_ns = elapsed_ns(t);
    spans.end();
    Ok(d.finish(&c, &[flow], build_ns, wall_ns))
}
