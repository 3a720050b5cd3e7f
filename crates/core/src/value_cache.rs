//! The Plutus value cache: recently seen 32-bit values used to verify
//! integrity without MAC fetches (paper Section IV-C).
//!
//! A small, fully associative structure per memory partition. Values match
//! on their upper 28 bits (the 4 least-significant bits are masked to
//! capture nearby values). Entries carry a 4-bit use counter; entries whose
//! counter reaches the promotion threshold move to a *pinned* region
//! (default: a quarter of the capacity) and are never evicted afterwards —
//! pinned hits are what let a *write* guarantee it will pass value
//! verification on its next read, so its MAC update can be skipped
//! entirely.

use gpu_sim::AddrMap;
use plutus_telemetry::{Counter, Event, Telemetry};

/// Value-cache configuration (paper Table II: 1 kB, fully associative,
/// 25% pinned, 256 entries of 28-bit value + 4-bit counter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueCacheConfig {
    /// Total entries (pinned + transient).
    pub entries: usize,
    /// Fraction of entries reserved for pinned values.
    pub pinned_fraction: f64,
    /// Use-counter value at which a transient entry is promoted.
    pub promote_threshold: u8,
    /// Low bits of each 32-bit value masked before matching.
    pub masked_bits: u32,
}

impl Default for ValueCacheConfig {
    fn default() -> Self {
        Self {
            entries: 256,
            pinned_fraction: 0.25,
            promote_threshold: 8,
            masked_bits: 4,
        }
    }
}

impl ValueCacheConfig {
    /// Effective matched bits per 32-bit value.
    pub fn effective_bits(&self) -> u32 {
        32 - self.masked_bits
    }

    /// Pinned-region capacity in entries: `entries × pinned_fraction`
    /// rounded half-up, clamped to `[0, entries]`. Truncation instead
    /// of rounding would under-provision the pinned region — down to
    /// zero on small caches, where a fraction like 0.25 of 2 entries
    /// must still pin one — silently disabling the skip-MAC write path.
    pub fn pinned_capacity(&self) -> usize {
        let exact = self.entries as f64 * self.pinned_fraction;
        (((exact + 0.5).floor()) as usize).min(self.entries)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries == 0 {
            return Err("value cache must have entries".into());
        }
        if !(0.0..1.0).contains(&self.pinned_fraction) {
            return Err("pinned_fraction must be in [0, 1)".into());
        }
        if self.masked_bits >= 32 {
            return Err("masked_bits must be < 32".into());
        }
        if self.promote_threshold == 0 || self.promote_threshold > 15 {
            return Err("promote_threshold must fit the 4-bit use counter (1..=15)".into());
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u32,
    uses: u8,
    last_used: u64,
}

/// Where a key's entries sit: its position in `pinned` and in
/// `transient`. A key is in both only after [`ValueCache::graft_pinned`]
/// pins a key that is also transient; the pinned entry then shadows the
/// transient one until LRU eviction removes it.
#[derive(Debug, Clone, Copy, Default)]
struct Slots {
    pinned: Option<usize>,
    transient: Option<usize>,
}

/// How a probe resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// Matched a pinned entry.
    HitPinned,
    /// Matched a transient entry.
    HitTransient,
    /// No match.
    Miss,
}

impl ProbeResult {
    /// Any kind of hit.
    pub fn is_hit(self) -> bool {
        !matches!(self, ProbeResult::Miss)
    }
}

/// The fully associative value cache.
#[derive(Debug, Clone)]
pub struct ValueCache {
    cfg: ValueCacheConfig,
    pinned: Vec<Entry>,
    transient: Vec<Entry>,
    /// Key → positions in `pinned` and `transient`, kept in step with
    /// every push and `swap_remove`, so lookups take constant time while
    /// the vectors keep the order LRU tie-breaks depend on.
    index: AddrMap<Slots>,
    tick: u64,
    hits: u64,
    misses: u64,
    promotions: u64,
    tel: Telemetry,
    tel_hits: Counter,
    tel_misses: Counter,
    tel_promotions: Counter,
}

impl ValueCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: ValueCacheConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid ValueCacheConfig: {e}"));
        Self {
            cfg,
            pinned: Vec::with_capacity(cfg.pinned_capacity()),
            transient: Vec::new(),
            index: AddrMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            promotions: 0,
            tel: Telemetry::disabled(),
            tel_hits: Counter::disabled(),
            tel_misses: Counter::disabled(),
            tel_promotions: Counter::disabled(),
        }
    }

    /// Mirrors probe outcomes into `tel` (`value_cache.hits`/`.misses`/
    /// `.promotions`) and emits typed probe events.
    pub fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.tel_hits = tel.counter("value_cache.hits");
        self.tel_misses = tel.counter("value_cache.misses");
        self.tel_promotions = tel.counter("value_cache.promotions");
        self.tel = tel.clone();
    }

    /// The configuration in use.
    pub fn config(&self) -> &ValueCacheConfig {
        &self.cfg
    }

    fn key_of(&self, value: u32) -> u32 {
        value >> self.cfg.masked_bits
    }

    fn slots(&self, key: u32) -> Slots {
        self.index.get(&u64::from(key)).copied().unwrap_or_default()
    }

    fn slots_mut(&mut self, key: u32) -> &mut Slots {
        self.index.entry(u64::from(key)).or_default()
    }

    /// Removes the transient entry at `pos` (`swap_remove`, so the last
    /// entry moves into `pos`) and updates the index for both keys.
    fn remove_transient(&mut self, pos: usize) -> Entry {
        let e = self.transient.swap_remove(pos);
        if let Some(moved) = self.transient.get(pos) {
            let key = moved.key;
            self.slots_mut(key).transient = Some(pos);
        }
        let slots = self.slots_mut(e.key);
        slots.transient = None;
        if slots.pinned.is_none() {
            self.index.remove(&u64::from(e.key));
        }
        e
    }

    /// Probes for `value` without inserting, updating recency and use
    /// counters on a hit.
    pub fn probe(&mut self, value: u32) -> ProbeResult {
        let result = self.probe_inner(value);
        match result {
            ProbeResult::Miss => self.tel_misses.inc(),
            ProbeResult::HitPinned | ProbeResult::HitTransient => self.tel_hits.inc(),
        }
        if self.tel.enabled() {
            self.tel.event(match result {
                ProbeResult::Miss => Event::ValueCacheMiss,
                hit => Event::ValueCacheHit {
                    pinned: hit == ProbeResult::HitPinned,
                },
            });
        }
        result
    }

    fn probe_inner(&mut self, value: u32) -> ProbeResult {
        self.tick += 1;
        let key = self.key_of(value);
        let slots = self.slots(key);
        if let Some(p) = slots.pinned {
            self.pinned[p].last_used = self.tick;
            self.hits += 1;
            return ProbeResult::HitPinned;
        }
        if let Some(pos) = slots.transient {
            self.transient[pos].last_used = self.tick;
            self.transient[pos].uses = (self.transient[pos].uses + 1).min(15);
            self.hits += 1;
            if self.transient[pos].uses >= self.cfg.promote_threshold
                && self.pinned.len() < self.cfg.pinned_capacity()
            {
                let e = self.remove_transient(pos);
                self.pinned.push(e);
                self.slots_mut(key).pinned = Some(self.pinned.len() - 1);
                self.promotions += 1;
                self.tel_promotions.inc();
                if self.tel.enabled() {
                    self.tel.event(Event::ValueCachePromotion);
                }
                return ProbeResult::HitPinned;
            }
            return ProbeResult::HitTransient;
        }
        self.misses += 1;
        ProbeResult::Miss
    }

    /// Inserts `value` if absent (recently seen). Present values only have
    /// their recency refreshed: the use counter that drives promotion is
    /// advanced by *probe hits* alone, so that the counted uses, the hits
    /// reported by [`ValueCache::stats`], and the pinning decision all
    /// measure the same thing. (The usual probe-miss-then-insert sequence
    /// also advances the recency clock exactly once, in the probe.)
    pub fn insert(&mut self, value: u32) {
        let key = self.key_of(value);
        let slots = self.slots(key);
        if let Some(p) = slots.pinned {
            self.pinned[p].last_used = self.tick;
            return;
        }
        if let Some(t) = slots.transient {
            self.transient[t].last_used = self.tick;
            return;
        }
        self.tick += 1;
        let capacity = self.cfg.entries - self.pinned.len();
        if self.transient.len() >= capacity {
            // Evict the least recently used transient entry.
            if let Some(pos) = self
                .transient
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.remove_transient(pos);
            }
        }
        self.transient.push(Entry {
            key,
            uses: 1,
            last_used: self.tick,
        });
        self.slots_mut(key).transient = Some(self.transient.len() - 1);
    }

    /// True if `value` currently matches a pinned entry (no state change).
    pub fn is_pinned(&self, value: u32) -> bool {
        self.slots(self.key_of(value)).pinned.is_some()
    }

    /// Raw keys (already shifted by `masked_bits`) of every pinned entry.
    /// The pinned set is the only value-cache state that must survive a
    /// crash: skip-MAC writes rely on it, so it is modeled as flushed to
    /// persistent storage on each promotion (tens of bytes, append-only).
    pub fn pinned_keys(&self) -> Vec<u32> {
        self.pinned.iter().map(|e| e.key).collect()
    }

    /// Crash-recovery hook: re-pins raw `keys` previously captured with
    /// [`ValueCache::pinned_keys`], up to the pinned capacity; keys already
    /// pinned are skipped.
    pub fn graft_pinned(&mut self, keys: &[u32]) {
        for &key in keys {
            if self.slots(key).pinned.is_some() {
                continue;
            }
            if self.pinned.len() >= self.cfg.pinned_capacity() {
                break;
            }
            self.tick += 1;
            self.pinned.push(Entry {
                key,
                uses: self.cfg.promote_threshold,
                last_used: self.tick,
            });
            self.slots_mut(key).pinned = Some(self.pinned.len() - 1);
        }
    }

    /// Occupancy `(pinned, transient)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.pinned.len(), self.transient.len())
    }

    /// Lifetime statistics `(hits, misses, promotions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.promotions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ValueCache {
        ValueCache::new(ValueCacheConfig::default())
    }

    #[test]
    fn pinned_capacity_rounds_half_up() {
        let cap = |entries, pinned_fraction| {
            ValueCacheConfig {
                entries,
                pinned_fraction,
                ..Default::default()
            }
            .pinned_capacity()
        };
        // The paper configuration is exact and must not drift.
        assert_eq!(cap(256, 0.25), 64);
        // Regression: truncation pinned 2 of 15 at fraction 0.2.
        assert_eq!(cap(15, 0.2), 3);
        // Fractions that land just below an integer round up…
        assert_eq!(cap(29, 0.1), 3, "2.9 rounds to 3, not truncates to 2");
        assert_eq!(cap(7, 0.5), 4, "3.5 rounds half-up");
        // …and small caches never round their pinned region to zero
        // for a meaningful fraction.
        assert_eq!(cap(2, 0.25), 1);
        assert_eq!(cap(3, 0.25), 1);
        // Boundary fractions stay within [0, entries].
        assert_eq!(cap(16, 0.0), 0);
        assert_eq!(cap(2, 0.99), 2, "clamped to the cache size");
        assert_eq!(cap(1, 0.4), 0, "0.4 still rounds down");
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = cache();
        assert_eq!(c.probe(0x1234_5670), ProbeResult::Miss);
        c.insert(0x1234_5670);
        assert!(c.probe(0x1234_5670).is_hit());
    }

    #[test]
    fn masked_bits_capture_nearby_values() {
        let mut c = cache();
        c.insert(0x1234_5670);
        // Same upper 28 bits, different low nibble → hit.
        assert!(c.probe(0x1234_567f).is_hit());
        // Different upper bits → miss.
        assert_eq!(c.probe(0x1234_5680), ProbeResult::Miss);
    }

    #[test]
    fn promotion_after_threshold_hits() {
        let mut c = cache();
        c.insert(42 << 4);
        for _ in 0..ValueCacheConfig::default().promote_threshold {
            c.probe(42 << 4);
        }
        assert!(c.is_pinned(42 << 4));
        let (_, _, promotions) = c.stats();
        assert_eq!(promotions, 1);
    }

    #[test]
    fn pinned_entries_survive_capacity_churn() {
        let mut c = cache();
        c.insert(7 << 4);
        for _ in 0..15 {
            c.probe(7 << 4); // promote
        }
        assert!(c.is_pinned(7 << 4));
        // Flood with 10× capacity of distinct values.
        for i in 0..2560u32 {
            c.insert((1000 + i) << 4);
        }
        assert!(c.is_pinned(7 << 4), "pinned values must never be evicted");
        assert!(c.probe(7 << 4).is_hit());
    }

    #[test]
    fn transient_lru_eviction() {
        let cfg = ValueCacheConfig {
            entries: 4,
            pinned_fraction: 0.25,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        // Transient capacity = 4 (pinned region empty so far).
        for i in 0..4u32 {
            c.insert(i << 4);
        }
        c.probe(0); // refresh value 0
        c.insert(100 << 4); // evicts LRU = value 1
        assert!(c.probe(0).is_hit());
        assert_eq!(c.probe(1 << 4), ProbeResult::Miss);
    }

    #[test]
    fn pinned_region_bounded() {
        let cfg = ValueCacheConfig {
            entries: 8,
            pinned_fraction: 0.25,
            promote_threshold: 1,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        // Try to promote many values; only 2 slots exist.
        for i in 0..8u32 {
            c.insert(i << 4);
            c.probe(i << 4);
            c.probe(i << 4);
        }
        let (pinned, _) = c.occupancy();
        assert!(pinned <= 2, "pinned occupancy {pinned} exceeds capacity");
    }

    #[test]
    fn total_occupancy_never_exceeds_entries() {
        let mut c = cache();
        for i in 0..10_000u32 {
            c.insert(i);
            if i % 3 == 0 {
                c.probe(i);
            }
            let (p, t) = c.occupancy();
            assert!(p + t <= 256);
        }
    }

    #[test]
    fn insert_is_idempotent_for_present_values() {
        let mut c = cache();
        c.insert(5 << 4);
        c.insert(5 << 4);
        let (_, t) = c.occupancy();
        assert_eq!(t, 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = cache();
        c.probe(1 << 4);
        c.insert(1 << 4);
        c.probe(1 << 4);
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    #[should_panic(expected = "invalid ValueCacheConfig")]
    fn invalid_config_rejected() {
        ValueCache::new(ValueCacheConfig {
            entries: 0,
            ..Default::default()
        });
    }

    #[test]
    fn pinned_keys_roundtrip_through_graft() {
        let mut c = cache();
        c.insert(7 << 4);
        for _ in 0..15 {
            c.probe(7 << 4); // promote
        }
        let keys = c.pinned_keys();
        assert_eq!(keys, vec![7]);
        // Graft into a fresh cache: the value is pinned without any probes.
        let mut fresh = cache();
        fresh.graft_pinned(&keys);
        assert!(fresh.is_pinned(7 << 4));
        // Grafting again does not duplicate.
        fresh.graft_pinned(&keys);
        assert_eq!(fresh.pinned_keys(), vec![7]);
    }

    /// Regression: re-inserting a present value used to bump its use
    /// counter, so repeated *writes* of a value could pin it without a
    /// single probe hit — promotion must be earned by probe hits alone.
    #[test]
    fn insert_refreshes_do_not_count_toward_promotion() {
        let cfg = ValueCacheConfig {
            promote_threshold: 3,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        for _ in 0..20 {
            c.insert(9 << 4);
        }
        assert!(!c.is_pinned(9 << 4), "inserts alone must never pin");
        // One probe hit is still below the threshold of 3.
        assert!(c.probe(9 << 4).is_hit());
        assert!(!c.is_pinned(9 << 4));
        let (h, _, _) = c.stats();
        assert_eq!(h, 1, "only the probe counts as a hit");
    }

    /// An insert refresh must still update recency, or hot written values
    /// would be evicted as stale.
    #[test]
    fn insert_refresh_updates_recency() {
        let cfg = ValueCacheConfig {
            entries: 4,
            pinned_fraction: 0.25,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        for i in 0..4u32 {
            c.insert(i << 4);
        }
        c.insert(0); // refresh value 0 (oldest) via insert, not probe
        c.insert(100 << 4); // evicts LRU, which must now be value 1
        assert!(c.probe(0).is_hit(), "refreshed entry was evicted");
        assert_eq!(c.probe(1 << 4), ProbeResult::Miss);
    }

    /// The linear-scan value cache the key index replaced, kept verbatim
    /// (minus telemetry) as the oracle for the indexed implementation.
    struct LinearScan {
        cfg: ValueCacheConfig,
        pinned: Vec<Entry>,
        transient: Vec<Entry>,
        tick: u64,
        hits: u64,
        misses: u64,
        promotions: u64,
    }

    impl LinearScan {
        fn new(cfg: ValueCacheConfig) -> Self {
            Self {
                cfg,
                pinned: Vec::new(),
                transient: Vec::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                promotions: 0,
            }
        }

        fn key_of(&self, value: u32) -> u32 {
            value >> self.cfg.masked_bits
        }

        fn probe(&mut self, value: u32) -> ProbeResult {
            self.tick += 1;
            let key = self.key_of(value);
            if let Some(e) = self.pinned.iter_mut().find(|e| e.key == key) {
                e.last_used = self.tick;
                self.hits += 1;
                return ProbeResult::HitPinned;
            }
            if let Some(pos) = self.transient.iter().position(|e| e.key == key) {
                self.transient[pos].last_used = self.tick;
                self.transient[pos].uses = (self.transient[pos].uses + 1).min(15);
                self.hits += 1;
                if self.transient[pos].uses >= self.cfg.promote_threshold
                    && self.pinned.len() < self.cfg.pinned_capacity()
                {
                    let e = self.transient.swap_remove(pos);
                    self.pinned.push(e);
                    self.promotions += 1;
                    return ProbeResult::HitPinned;
                }
                return ProbeResult::HitTransient;
            }
            self.misses += 1;
            ProbeResult::Miss
        }

        fn insert(&mut self, value: u32) {
            let key = self.key_of(value);
            if let Some(e) = self.pinned.iter_mut().find(|e| e.key == key) {
                e.last_used = self.tick;
                return;
            }
            if let Some(e) = self.transient.iter_mut().find(|e| e.key == key) {
                e.last_used = self.tick;
                return;
            }
            self.tick += 1;
            let capacity = self.cfg.entries - self.pinned.len();
            if self.transient.len() >= capacity {
                if let Some(pos) = self
                    .transient
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                {
                    self.transient.swap_remove(pos);
                }
            }
            self.transient.push(Entry {
                key,
                uses: 1,
                last_used: self.tick,
            });
        }

        fn is_pinned(&self, value: u32) -> bool {
            let key = self.key_of(value);
            self.pinned.iter().any(|e| e.key == key)
        }

        fn graft_pinned(&mut self, keys: &[u32]) {
            for &key in keys {
                if self.pinned.iter().any(|e| e.key == key) {
                    continue;
                }
                if self.pinned.len() >= self.cfg.pinned_capacity() {
                    break;
                }
                self.tick += 1;
                self.pinned.push(Entry {
                    key,
                    uses: self.cfg.promote_threshold,
                    last_used: self.tick,
                });
            }
        }
    }

    fn entries(v: &[Entry]) -> Vec<(u32, u8, u64)> {
        v.iter().map(|e| (e.key, e.uses, e.last_used)).collect()
    }

    /// The key index changes no observable behaviour: for seeded random
    /// streams of probes, inserts, `is_pinned` checks and grafts (including
    /// grafts of keys that are also transient) over small caches that churn,
    /// every result, statistic and the full entry state (order, use
    /// counters, recency) match the linear-scan oracle, and the index
    /// points at exactly the live entries.
    #[test]
    fn index_matches_linear_scan_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fractions = [0.0, 0.25, 0.5, 0.9];
            let cfg = ValueCacheConfig {
                entries: rng.gen_range(1usize..24),
                pinned_fraction: fractions[rng.gen_range(0usize..fractions.len())],
                promote_threshold: rng.gen_range(1u8..6),
                masked_bits: rng.gen_range(0u32..4),
            };
            let mut fast = ValueCache::new(cfg);
            let mut oracle = LinearScan::new(cfg);
            let domain = rng.gen_range(2u32..160);
            for step in 0..1500 {
                let v = rng.gen_range(0..domain);
                match rng.gen_range(0u32..20) {
                    0..=7 => assert_eq!(fast.probe(v), oracle.probe(v), "seed {seed} step {step}"),
                    8..=15 => {
                        fast.insert(v);
                        oracle.insert(v);
                    }
                    16..=18 => assert_eq!(fast.is_pinned(v), oracle.is_pinned(v)),
                    _ => {
                        // Graft a mix of transient keys and fresh ones.
                        let mut keys: Vec<u32> = oracle.transient.iter().map(|e| e.key).collect();
                        keys.truncate(rng.gen_range(0usize..4));
                        keys.push(oracle.key_of(v));
                        fast.graft_pinned(&keys);
                        oracle.graft_pinned(&keys);
                    }
                }
                assert_eq!(
                    fast.stats(),
                    (oracle.hits, oracle.misses, oracle.promotions)
                );
                assert_eq!(
                    fast.occupancy(),
                    (oracle.pinned.len(), oracle.transient.len())
                );
                assert_eq!(
                    fast.pinned_keys(),
                    oracle.pinned.iter().map(|e| e.key).collect::<Vec<_>>()
                );
                assert_eq!(entries(&fast.pinned), entries(&oracle.pinned));
                assert_eq!(entries(&fast.transient), entries(&oracle.transient));
                assert_eq!(fast.tick, oracle.tick);
                let live = fast.pinned.len() + fast.transient.len();
                let indexed: usize = fast
                    .index
                    .iter()
                    .map(|(&k, s)| {
                        let k = k as u32;
                        assert!(s.pinned.is_some() || s.transient.is_some());
                        assert!(s.pinned.is_none_or(|p| fast.pinned[p].key == k));
                        assert!(s.transient.is_none_or(|t| fast.transient[t].key == k));
                        usize::from(s.pinned.is_some()) + usize::from(s.transient.is_some())
                    })
                    .sum();
                assert_eq!(indexed, live, "index must cover exactly the live entries");
            }
        }
    }

    /// A grafted key that is also transient: the pinned copy shadows the
    /// transient one, which stays until LRU eviction.
    #[test]
    fn graft_of_transient_key_shadows_it() {
        let mut c = cache();
        c.insert(3 << 4);
        c.graft_pinned(&[3]);
        assert_eq!(c.occupancy(), (1, 1));
        assert_eq!(c.probe(3 << 4), ProbeResult::HitPinned);
        assert_eq!(c.stats().2, 0, "the transient copy is never promoted");
    }
}
