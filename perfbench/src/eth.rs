//! The two Ethernet workloads: memcached over TCP into a NIC with the
//! §5 backup ring, driven through `ScenarioBuilder` and `EthTestbed`.

use std::collections::BTreeMap;
use std::time::Instant;

use simcore::stats::DurationHistogram;
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;
use testbed::builder::ScenarioBuilder;
use testbed::eth::RxMode;
use workloads::memcached::MemcachedConfig;

use crate::spans::Spans;
use crate::{elapsed_ns, Latency, Repeat, SimOutcome};

/// One Ethernet workload at one size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EthSpec {
    pub instances: u32,
    pub conns_per_instance: u32,
    pub value_size: u64,
    /// Keys preloaded into, and requested from, each instance.
    pub keys: u64,
    /// memcached's `-m`: the cache capacity of each instance.
    pub max_bytes: ByteSize,
    /// One memory cgroup shared by every instance, if any.
    pub cgroup: Option<ByteSize>,
    /// Simulated length of the timed phase.
    pub horizon: SimDuration,
    /// Simulated length of one timed slice.
    pub slice: SimDuration,
}

/// Builds, preloads and runs one repeat of `spec`.
pub(crate) fn repeat(spec: &EthSpec, seed: u64, spans: &mut Spans) -> Result<Repeat, String> {
    spans.begin("build");
    let t = Instant::now();
    let mut scenario = ScenarioBuilder::ethernet()
        .mode(RxMode::Backup)
        .instances(spec.instances)
        .conns_per_instance(spec.conns_per_instance)
        .ring_entries(64)
        .host_memory(ByteSize::gib(8))
        .memcached(MemcachedConfig {
            max_bytes: spec.max_bytes,
            value_size: spec.value_size,
            ..MemcachedConfig::default()
        })
        .working_set_keys(spec.keys)
        .preload(false)
        .seed(seed);
    if let Some(limit) = spec.cgroup {
        scenario = scenario.cgroup_limit(limit);
    }
    let built = scenario.build();
    let build_ns = elapsed_ns(t);
    spans.end();
    let mut bed = built.map_err(|e| format!("scenario failed to build: {e}"))?;

    spans.begin("preload");
    let t = Instant::now();
    for i in 0..spec.instances {
        bed.preload_instance(i, spec.keys);
    }
    let preload_ns = elapsed_ns(t);
    spans.end();

    spans.begin("run");
    let t = Instant::now();
    let mut slices_ns = Vec::new();
    let horizon = SimTime::ZERO.saturating_add(spec.horizon);
    let mut at = SimTime::ZERO;
    while at < horizon {
        at = at.saturating_add(spec.slice);
        spans.begin("slice");
        let s = Instant::now();
        bed.run_until(at);
        slices_ns.push(elapsed_ns(s));
        spans.end();
    }
    let wall_ns = elapsed_ns(t);
    spans.end();

    let mut latency = DurationHistogram::new();
    for m in bed.metrics() {
        latency.merge_from(&m.latency);
    }
    let (hits, ops) = (0..spec.instances)
        .map(|i| bed.tenant_report(i))
        .fold((0, 0), |(h, o), r| (h + r.hits, o + r.ops));
    let (scheduled, popped, cancelled, _) = bed.queue_stats();
    let npf = bed.engine().counters();
    let mem = bed.engine().memory().counters();
    let tlb = bed.engine().iommu().tlb();
    let rx = bed.rx_counters();
    let counts = BTreeMap::from([
        ("simcore.events", popped),
        ("simcore.scheduled", scheduled),
        ("simcore.cancelled", cancelled),
        ("memcached.ops", ops),
        ("memcached.hits", hits),
        ("nicsim.rx_stored", rx.get("stored")),
        ("nicsim.rx_backup_stored", rx.get("backup_stored")),
        ("nicsim.rx_dropped_fault", rx.get("dropped_fault")),
        ("npf.events", npf.get("npf_events")),
        ("npf.pages", npf.get("npf_pages")),
        ("npf.major", npf.get("npf_major")),
        ("npf.invalidations", npf.get("invalidations")),
        ("iommu.iotlb_hits", tlb.hits()),
        ("iommu.iotlb_misses", tlb.misses()),
        ("memsim.minor_faults", mem.get("minor_faults")),
        ("memsim.major_faults", mem.get("major_faults")),
        ("memsim.evictions", mem.get("evictions")),
        ("memsim.swap_outs", mem.get("swap_outs")),
    ]);
    let failed = u64::from(bed.total_failed_conns());
    Ok(Repeat {
        build_ns,
        preload_ns,
        wall_ns,
        post_ns: 0,
        slices_ns,
        sim: SimOutcome {
            ops: bed.total_ops(),
            failed,
            sim_ns: spec.horizon.as_nanos(),
            latency: Latency::of(&mut latency),
            counts,
        },
    })
}
