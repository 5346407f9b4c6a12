//! A memcached-like key-value cache and its memaslap-like load
//! generator (§5's running example; §6.1's memory-utilization
//! experiments).
//!
//! The server is an LRU cache bounded by `max_bytes`, exactly like
//! memcached: when the working set exceeds the configured capacity,
//! hit rate drops proportionally. Item values live at deterministic
//! addresses in the server's address space, so GET/SET translate into
//! page touches that the testbed charges against the host memory
//! subsystem (faults, swapping, cgroup pressure — the Figure 7
//! dynamics).
//!
//! Keys are dense: the generator draws them from `0..working_set_keys`
//! (see [`KvOp`]). The item table is therefore a flat array indexed by
//! key, not a hash map. Each entry holds the item's value slot and the
//! two links of an intrusive doubly-linked LRU list that threads every
//! cached key, least recently used at the head. A GET hit or a SET
//! moves its key to the tail, and an eviction pops the head, so every
//! operation is O(1). Slots are handed out in order until the cache is
//! full; after that a new key takes the slot of the key it evicts.

use memsim::types::VirtAddr;
use simcore::rng::SimRng;
use simcore::time::SimDuration;
use simcore::units::ByteSize;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemcachedConfig {
    /// Cache capacity (`-m` in memcached).
    pub max_bytes: ByteSize,
    /// Value size of every item (memaslap uses fixed-size items).
    pub value_size: u64,
    /// Base address of the item slab in the server's address space.
    pub slab_base: VirtAddr,
    /// CPU time to parse + hash + respond to one request, excluding
    /// memory-touch costs.
    pub cpu_per_op: SimDuration,
}

impl Default for MemcachedConfig {
    fn default() -> Self {
        MemcachedConfig {
            max_bytes: ByteSize::gib(1),
            value_size: 1024,
            slab_base: VirtAddr(0x1_0000_0000),
            // Calibrated: ~8 us of parse+hash+respond per operation
            // saturates four 3.1 GHz cores near the paper's aggregate
            // throughput (Table 5).
            cpu_per_op: SimDuration::from_micros(8),
        }
    }
}

/// A request the client sends.
///
/// Keys are dense small integers, as [`Memaslap`] draws them from
/// `0..working_set_keys`: the server's item table is indexed by key and
/// grows to the largest key SET so far. A SET of a key at or above
/// `u32::MAX` panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get {
        /// Key.
        key: u64,
    },
    /// Write a key.
    Set {
        /// Key.
        key: u64,
    },
}

/// Outcome of processing one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOutcome {
    /// `true` for a GET that found the item.
    pub hit: bool,
    /// Memory range the server touched (value bytes), if any.
    pub touch: Option<(VirtAddr, u64, bool)>, // (addr, len, write)
    /// CPU cost excluding memory touches.
    pub cpu: SimDuration,
    /// Response payload size in bytes.
    pub response_bytes: u64,
}

/// "No key" in the LRU links, and "not cached" in [`Entry::slot`].
const NIL: u32 = u32::MAX;

/// One key's row in the item table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Value slot of the cached item, or [`NIL`] when the key is absent.
    slot: u32,
    /// Next less recently used cached key, or [`NIL`] at the head.
    prev: u32,
    /// Next more recently used cached key, or [`NIL`] at the tail.
    next: u32,
}

impl Entry {
    const VACANT: Entry = Entry {
        slot: NIL,
        prev: NIL,
        next: NIL,
    };
}

/// Converts a table index (key or slot) to its `u32` form; [`NIL`] is
/// reserved.
fn index(v: u64) -> u32 {
    u32::try_from(v)
        .ok()
        .filter(|&i| i != NIL)
        .expect("memcached keys and slots must be below u32::MAX")
}

/// The server.
#[derive(Debug)]
pub struct Memcached {
    config: MemcachedConfig,
    /// Key -> entry, for every key up to the largest one SET.
    entries: Vec<Entry>,
    /// Least recently used cached key (the next victim), or [`NIL`].
    head: u32,
    /// Most recently used cached key, or [`NIL`].
    tail: u32,
    /// Slots handed out so far. Each holds exactly one cached item, so
    /// this is also the item count.
    next_slot: u64,
    max_items: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Memcached {
    /// Creates a server with `config`.
    #[must_use]
    pub fn new(config: MemcachedConfig) -> Self {
        let max_items = (config.max_bytes.bytes() / config.value_size).max(1);
        Memcached {
            config,
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
            next_slot: 0,
            max_items,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemcachedConfig {
        &self.config
    }

    /// Items currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.next_slot).expect("item count fits usize")
    }

    /// `true` when the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_slot == 0
    }

    /// GET hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// GET misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// LRU evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit ratio in `[0, 1]`.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Size of the virtual slab region the server needs mapped
    /// (`max_items * value_size`, page aligned).
    #[must_use]
    pub fn slab_bytes(&self) -> ByteSize {
        ByteSize::bytes_exact(self.max_items * self.config.value_size)
    }

    fn slot_addr(&self, slot: u32) -> VirtAddr {
        VirtAddr(self.config.slab_base.0 + u64::from(slot) * self.config.value_size)
    }

    /// The slot of `key` if it is cached.
    fn cached_slot(&self, key: u64) -> Option<u32> {
        let entry = self.entries.get(usize::try_from(key).ok()?)?;
        (entry.slot != NIL).then_some(entry.slot)
    }

    /// Removes cached key `k` from the LRU list.
    fn unlink(&mut self, k: u32) {
        let Entry { prev, next, .. } = self.entries[k as usize];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    /// Appends `k` at the most recently used end of the LRU list.
    fn push_tail(&mut self, k: u32) {
        let e = &mut self.entries[k as usize];
        e.prev = self.tail;
        e.next = NIL;
        match self.tail {
            NIL => self.head = k,
            t => self.entries[t as usize].next = k,
        }
        self.tail = k;
    }

    /// Marks cached key `k` most recently used.
    fn promote(&mut self, k: u32) {
        if self.tail != k {
            self.unlink(k);
            self.push_tail(k);
        }
    }

    /// Caches absent key `k` and returns its slot: a fresh slot while
    /// the cache has room, else the slot of the least recently used
    /// key, which is evicted.
    fn insert(&mut self, k: u32) -> u32 {
        let slot = if self.next_slot < self.max_items {
            let s = index(self.next_slot);
            self.next_slot += 1;
            s
        } else {
            let victim = self.head;
            assert_ne!(victim, NIL, "cache full implies nonempty");
            self.unlink(victim);
            self.evictions += 1;
            std::mem::replace(&mut self.entries[victim as usize], Entry::VACANT).slot
        };
        let i = k as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, Entry::VACANT);
        }
        self.entries[i].slot = slot;
        self.push_tail(k);
        slot
    }

    /// Processes one operation, returning what to touch and charge.
    pub fn process(&mut self, op: KvOp) -> KvOutcome {
        match op {
            KvOp::Get { key } => match self.cached_slot(key) {
                Some(slot) => {
                    self.promote(index(key));
                    self.hits += 1;
                    KvOutcome {
                        hit: true,
                        touch: Some((self.slot_addr(slot), self.config.value_size, false)),
                        cpu: self.config.cpu_per_op,
                        response_bytes: self.config.value_size + 48,
                    }
                }
                None => {
                    self.misses += 1;
                    KvOutcome {
                        hit: false,
                        touch: None,
                        cpu: self.config.cpu_per_op,
                        response_bytes: 32,
                    }
                }
            },
            KvOp::Set { key } => {
                let k = index(key);
                let slot = match self.cached_slot(key) {
                    Some(slot) => {
                        self.promote(k);
                        slot
                    }
                    None => self.insert(k),
                };
                KvOutcome {
                    hit: false,
                    touch: Some((self.slot_addr(slot), self.config.value_size, true)),
                    cpu: self.config.cpu_per_op,
                    response_bytes: 16,
                }
            }
        }
    }
}

/// Key popularity of the generated load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely (memaslap's default; what the paper's
    /// experiments use).
    Uniform,
    /// Zipf-like skew with the given exponent (realistic cache traffic;
    /// useful for sensitivity studies).
    Zipf(f64),
}

/// memaslap-like closed-loop load generator: 90 % GET / 10 % SET over
/// the keys `0..working_set_keys` (the "working set").
#[derive(Debug)]
pub struct Memaslap {
    /// Number of distinct keys in the working set.
    working_set_keys: u64,
    /// Probability of GET (the rest are SETs).
    get_fraction: f64,
    value_size: u64,
    distribution: KeyDistribution,
    rng: SimRng,
    issued: u64,
}

impl Memaslap {
    /// Creates a generator over `working_set_keys` keys with the
    /// canonical 90/10 GET/SET mix and uniform key popularity.
    #[must_use]
    pub fn new(working_set_keys: u64, value_size: u64, rng: SimRng) -> Self {
        Memaslap {
            working_set_keys: working_set_keys.max(1),
            get_fraction: 0.9,
            value_size,
            distribution: KeyDistribution::Uniform,
            rng,
            issued: 0,
        }
    }

    /// Switches the key popularity model.
    pub fn set_distribution(&mut self, distribution: KeyDistribution) {
        self.distribution = distribution;
    }

    /// Operations issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Current working-set size in keys.
    #[must_use]
    pub fn working_set_keys(&self) -> u64 {
        self.working_set_keys
    }

    /// Resizes the working set (Figure 7's 100 MB↔900 MB shift). The
    /// set stays anchored at key 0: growing keeps the old items hot,
    /// shrinking keeps a hot subset — "the set increases by a factor of
    /// nine".
    pub fn resize_working_set(&mut self, keys: u64) {
        self.working_set_keys = keys.max(1);
    }

    /// Draws the next operation and its request size in bytes.
    pub fn next_op(&mut self) -> (KvOp, u64) {
        self.issued += 1;
        let key = match self.distribution {
            KeyDistribution::Uniform => self.rng.below(self.working_set_keys),
            KeyDistribution::Zipf(s) => self.rng.zipf(self.working_set_keys, s),
        };
        if self.rng.unit() < self.get_fraction {
            (KvOp::Get { key }, 40)
        } else {
            (KvOp::Set { key }, self.value_size + 40)
        }
    }
}

/// Tenant popularity for multi-tenant scale-out: how client load is
/// split across memcached instances sharing one NIC.
///
/// A Zipf exponent of 0 (or [`TenantPopularity::uniform`]) spreads load
/// evenly; larger exponents concentrate it on low-numbered tenants the
/// way real multi-tenant hosts see a few hot customers and a long cold
/// tail.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantPopularity {
    /// Unnormalized per-tenant weights, indexed by tenant.
    weights: Vec<f64>,
}

impl TenantPopularity {
    /// Every tenant equally popular.
    #[must_use]
    pub fn uniform(tenants: u32) -> Self {
        TenantPopularity {
            weights: vec![1.0; tenants.max(1) as usize],
        }
    }

    /// Zipf popularity: tenant `i` gets weight `1 / (i + 1)^s`.
    #[must_use]
    pub fn zipf(tenants: u32, s: f64) -> Self {
        let weights = (0..tenants.max(1))
            .map(|i| 1.0 / f64::from(i + 1).powf(s))
            .collect();
        TenantPopularity { weights }
    }

    /// Number of tenants.
    #[must_use]
    pub fn tenants(&self) -> u32 {
        u32::try_from(self.weights.len()).unwrap_or(u32::MAX)
    }

    /// Tenant `i`'s share of the total load in `[0, 1]`.
    #[must_use]
    pub fn share(&self, i: u32) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights.get(i as usize).copied().unwrap_or(0.0) / total
    }

    /// Splits `total` connections across tenants proportionally to
    /// their weights, deterministically (largest-remainder rounding,
    /// ties to the lower tenant id). When `total >= tenants`, every
    /// tenant keeps at least one connection so nobody is starved out of
    /// the closed loop entirely.
    #[must_use]
    pub fn allocate(&self, total: u32) -> Vec<u32> {
        let n = self.weights.len();
        let mut conns = vec![0u32; n];
        if total == 0 {
            return conns;
        }
        let floor = u32::from(total as usize >= n);
        let mut remaining = total - floor * u32::try_from(n).unwrap_or(total);
        conns.fill(floor);
        let weight_sum: f64 = self.weights.iter().sum();
        // Ideal fractional shares of the remainder, floored; then hand
        // out the leftover one-by-one to the largest fractional parts.
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(n);
        let mut assigned = 0u32;
        let pool = f64::from(remaining);
        for (i, w) in self.weights.iter().enumerate() {
            let ideal = pool * w / weight_sum;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let whole = ideal.floor() as u32;
            conns[i] += whole;
            assigned += whole;
            fracs.push((i, ideal - ideal.floor()));
        }
        remaining -= assigned;
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in fracs.into_iter().take(remaining as usize) {
            conns[i] += 1;
            remaining -= 1;
        }
        // Floating-point slack can leave a connection unassigned; give
        // any leftovers to the most popular tenants.
        let mut i = 0;
        while remaining > 0 {
            conns[i % n] += 1;
            remaining -= 1;
            i += 1;
        }
        conns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(max_items: u64) -> Memcached {
        Memcached::new(MemcachedConfig {
            max_bytes: ByteSize::bytes_exact(max_items * 1024),
            value_size: 1024,
            ..MemcachedConfig::default()
        })
    }

    #[test]
    fn get_miss_then_set_then_hit() {
        let mut s = server(10);
        let miss = s.process(KvOp::Get { key: 5 });
        assert!(!miss.hit);
        assert!(miss.touch.is_none());
        let set = s.process(KvOp::Set { key: 5 });
        let (_, len, write) = set.touch.expect("set touches the value");
        assert_eq!(len, 1024);
        assert!(write);
        let hit = s.process(KvOp::Get { key: 5 });
        assert!(hit.hit);
        let (_, _, write) = hit.touch.expect("hit touches the value");
        assert!(!write);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let mut s = server(2);
        s.process(KvOp::Set { key: 1 });
        s.process(KvOp::Set { key: 2 });
        s.process(KvOp::Get { key: 1 }); // promote 1
        s.process(KvOp::Set { key: 3 }); // evicts 2
        assert_eq!(s.evictions(), 1);
        assert!(s.process(KvOp::Get { key: 1 }).hit);
        assert!(!s.process(KvOp::Get { key: 2 }).hit);
        assert!(s.process(KvOp::Get { key: 3 }).hit);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn items_reuse_slot_addresses() {
        let mut s = server(4);
        let a = s.process(KvOp::Set { key: 1 }).touch.expect("touch").0;
        let b = s.process(KvOp::Set { key: 1 }).touch.expect("touch").0;
        assert_eq!(a, b, "same key keeps its slot");
        let c = s.process(KvOp::Set { key: 2 }).touch.expect("touch").0;
        assert_ne!(a, c);
    }

    #[test]
    fn hit_ratio_tracks_capacity_pressure() {
        // Working set double the capacity: steady-state hit rate falls
        // well below 1.
        let mut s = server(100);
        let mut gen = Memaslap::new(200, 1024, SimRng::new(5));
        for _ in 0..20_000 {
            let (op, _) = gen.next_op();
            s.process(op);
        }
        assert!(
            s.hit_ratio() < 0.75,
            "over-capacity working set must miss: {}",
            s.hit_ratio()
        );
        assert!(s.evictions() > 0);
    }

    #[test]
    fn full_capacity_working_set_hits() {
        let mut s = server(256);
        let mut gen = Memaslap::new(200, 1024, SimRng::new(5));
        for _ in 0..20_000 {
            let (op, _) = gen.next_op();
            s.process(op);
        }
        assert!(
            s.hit_ratio() > 0.85,
            "in-capacity working set should mostly hit: {}",
            s.hit_ratio()
        );
    }

    #[test]
    fn resize_keeps_window_anchored() {
        let mut gen = Memaslap::new(100, 1024, SimRng::new(6));
        let (KvOp::Get { key } | KvOp::Set { key }, _) = gen.next_op();
        assert!(key < 100);
        gen.resize_working_set(900);
        assert_eq!(gen.working_set_keys(), 900);
        let mut saw_old = false;
        for _ in 0..200 {
            let (KvOp::Get { key } | KvOp::Set { key }, _) = gen.next_op();
            assert!(key < 900, "anchored window: {key}");
            saw_old |= key < 100;
        }
        assert!(saw_old, "old keys stay in the set");
    }

    #[test]
    fn request_sizes_differ_by_op() {
        let mut gen = Memaslap::new(10, 2048, SimRng::new(7));
        let mut get_size = 0;
        let mut set_size = 0;
        for _ in 0..200 {
            let (op, bytes) = gen.next_op();
            match op {
                KvOp::Get { .. } => get_size = bytes,
                KvOp::Set { .. } => set_size = bytes,
            }
        }
        assert_eq!(get_size, 40);
        assert_eq!(set_size, 2088);
    }
}

#[cfg(test)]
mod differential_tests {
    use super::*;
    use simcore::fxhash::FxHashMap;

    /// The hash-map store the key-indexed table replaced: key -> (slot,
    /// last-use tick), evicting the item with the smallest tick by a
    /// full scan. Ticks are unique per operation, so the victim is
    /// unambiguous.
    struct Reference {
        config: MemcachedConfig,
        items: FxHashMap<u64, (u64, u64)>,
        next_slot: u64,
        max_items: u64,
        tick: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Reference {
        fn new(config: MemcachedConfig) -> Self {
            Reference {
                config,
                items: FxHashMap::default(),
                next_slot: 0,
                max_items: (config.max_bytes.bytes() / config.value_size).max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn addr(&self, slot: u64) -> VirtAddr {
            VirtAddr(self.config.slab_base.0 + slot * self.config.value_size)
        }

        fn process(&mut self, op: KvOp) -> KvOutcome {
            self.tick += 1;
            let (cpu, value) = (self.config.cpu_per_op, self.config.value_size);
            match op {
                KvOp::Get { key } => match self.items.get_mut(&key) {
                    Some((slot, tick)) => {
                        *tick = self.tick;
                        let slot = *slot;
                        self.hits += 1;
                        KvOutcome {
                            hit: true,
                            touch: Some((self.addr(slot), value, false)),
                            cpu,
                            response_bytes: value + 48,
                        }
                    }
                    None => {
                        self.misses += 1;
                        KvOutcome {
                            hit: false,
                            touch: None,
                            cpu,
                            response_bytes: 32,
                        }
                    }
                },
                KvOp::Set { key } => {
                    let slot = if let Some(entry) = self.items.get_mut(&key) {
                        entry.1 = self.tick;
                        entry.0
                    } else {
                        let slot = if self.next_slot < self.max_items {
                            self.next_slot += 1;
                            self.next_slot - 1
                        } else {
                            let (&victim, &(slot, _)) = self
                                .items
                                .iter()
                                .min_by_key(|(_, &(_, t))| t)
                                .expect("cache full implies nonempty");
                            self.items.remove(&victim);
                            self.evictions += 1;
                            slot
                        };
                        self.items.insert(key, (slot, self.tick));
                        slot
                    };
                    KvOutcome {
                        hit: false,
                        touch: Some((self.addr(slot), value, true)),
                        cpu,
                        response_bytes: 16,
                    }
                }
            }
        }
    }

    /// Drives both stores with one seeded GET/SET mix and compares
    /// every outcome and counter after every operation.
    fn check(seed: u64, capacity: u64, working_set: u64, ops: u32) {
        let config = MemcachedConfig {
            max_bytes: ByteSize::bytes_exact(capacity * 512),
            value_size: 512,
            ..MemcachedConfig::default()
        };
        let mut store = Memcached::new(config);
        let mut reference = Reference::new(config);
        let mut rng = SimRng::new(seed);
        // A SET share that varies by seed, from read-mostly to
        // write-heavy.
        let set_share = 0.1 + 0.8 * rng.unit();
        for i in 0..ops {
            let key = rng.below(working_set);
            let op = if rng.chance(set_share) {
                KvOp::Set { key }
            } else {
                KvOp::Get { key }
            };
            let ctx = format!(
                "seed {seed}, capacity {capacity}, working set {working_set}, op {i} {op:?}"
            );
            assert_eq!(store.process(op), reference.process(op), "{ctx}");
            assert_eq!(store.hits(), reference.hits, "{ctx}");
            assert_eq!(store.misses(), reference.misses, "{ctx}");
            assert_eq!(store.evictions(), reference.evictions, "{ctx}");
            assert_eq!(store.len(), reference.items.len(), "{ctx}");
        }
    }

    #[test]
    fn key_indexed_lru_matches_the_hash_map_store() {
        for seed in 0..24u64 {
            for capacity in [1, 2, 3, 7, 64] {
                // Working sets of 0.5x to 4x the capacity.
                for ws_x2 in [1, 2, 3, 5, 8] {
                    let working_set = (capacity * ws_x2 / 2).max(1);
                    check(seed, capacity, working_set, 2_000);
                }
            }
        }
    }

    #[test]
    fn memaslap_load_matches_the_hash_map_store() {
        // The generator's own mix (90/10, uniform and Zipf) over a cache
        // a quarter to four times its working set.
        for seed in 0..16u64 {
            for (capacity, working_set) in [(100, 400), (256, 200), (300, 1_200)] {
                let config = MemcachedConfig {
                    max_bytes: ByteSize::bytes_exact(capacity * 1024),
                    ..MemcachedConfig::default()
                };
                let mut store = Memcached::new(config);
                let mut reference = Reference::new(config);
                let mut gen = Memaslap::new(working_set, 1024, SimRng::new(seed));
                if seed % 2 == 1 {
                    gen.set_distribution(KeyDistribution::Zipf(0.99));
                }
                for _ in 0..5_000 {
                    let (op, _) = gen.next_op();
                    assert_eq!(
                        store.process(op),
                        reference.process(op),
                        "seed {seed} {op:?}"
                    );
                }
                assert_eq!(store.hits(), reference.hits);
                assert_eq!(store.misses(), reference.misses);
                assert_eq!(store.evictions(), reference.evictions);
                assert_eq!(store.len(), reference.items.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "below u32::MAX")]
    fn set_of_a_key_beyond_the_index_range_panics() {
        let mut store = Memcached::new(MemcachedConfig::default());
        store.process(KvOp::Set {
            key: u64::from(u32::MAX),
        });
    }

    #[test]
    fn get_of_an_unseen_large_key_misses() {
        let mut store = Memcached::new(MemcachedConfig::default());
        store.process(KvOp::Set { key: 3 });
        assert!(!store.process(KvOp::Get { key: u64::MAX }).hit);
        assert!(!store.process(KvOp::Get { key: 1_000 }).hit);
        assert_eq!(store.misses(), 2);
    }
}

#[cfg(test)]
mod distribution_tests {
    use super::*;

    #[test]
    fn zipf_load_concentrates_on_hot_keys() {
        let mut s = Memcached::new(MemcachedConfig {
            max_bytes: ByteSize::bytes_exact(100 * 1024),
            value_size: 1024,
            ..MemcachedConfig::default()
        });
        // Working set 10x the capacity: uniform traffic would miss a lot;
        // Zipf traffic concentrates on the cached head.
        let mut uniform = Memaslap::new(1000, 1024, SimRng::new(1));
        for _ in 0..20_000 {
            let (op, _) = uniform.next_op();
            s.process(op);
        }
        let uniform_hits = s.hit_ratio();

        let mut s2 = Memcached::new(MemcachedConfig {
            max_bytes: ByteSize::bytes_exact(100 * 1024),
            value_size: 1024,
            ..MemcachedConfig::default()
        });
        let mut zipf = Memaslap::new(1000, 1024, SimRng::new(1));
        zipf.set_distribution(KeyDistribution::Zipf(0.99));
        for _ in 0..20_000 {
            let (op, _) = zipf.next_op();
            s2.process(op);
        }
        assert!(
            s2.hit_ratio() > uniform_hits + 0.15,
            "zipf {:.2} vs uniform {:.2}",
            s2.hit_ratio(),
            uniform_hits
        );
    }
}

#[cfg(test)]
mod tenant_tests {
    use super::*;

    #[test]
    fn uniform_allocation_is_even() {
        let pop = TenantPopularity::uniform(8);
        let conns = pop.allocate(64);
        assert_eq!(conns, vec![8; 8]);
        assert_eq!(conns.iter().sum::<u32>(), 64);
    }

    #[test]
    fn zipf_allocation_is_skewed_but_complete() {
        let pop = TenantPopularity::zipf(16, 1.0);
        let conns = pop.allocate(160);
        assert_eq!(conns.iter().sum::<u32>(), 160, "every connection lands");
        assert!(conns[0] > conns[15] * 3, "head tenant dominates: {conns:?}");
        assert!(
            conns.iter().all(|&c| c >= 1),
            "no tenant starved: {conns:?}"
        );
        // Monotone non-increasing by construction.
        for w in conns.windows(2) {
            assert!(w[0] >= w[1], "monotone: {conns:?}");
        }
    }

    #[test]
    fn zipf_zero_matches_uniform() {
        let z = TenantPopularity::zipf(10, 0.0);
        let u = TenantPopularity::uniform(10);
        assert_eq!(z.allocate(100), u.allocate(100));
    }

    #[test]
    fn allocation_smaller_than_tenant_count() {
        let pop = TenantPopularity::zipf(8, 1.0);
        let conns = pop.allocate(3);
        assert_eq!(conns.iter().sum::<u32>(), 3);
    }

    #[test]
    fn shares_sum_to_one() {
        let pop = TenantPopularity::zipf(32, 0.9);
        let total: f64 = (0..32).map(|i| pop.share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }
}
