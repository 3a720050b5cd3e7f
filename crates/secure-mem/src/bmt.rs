//! Bonsai Merkle Tree over the encryption counters.
//!
//! The tree's *functional* truth lives in an authoritative leaf-hash table
//! (the paper's root-anchored chain of custody collapses to "the processor
//! knows the correct leaf hashes"; upper levels carry no extra information
//! once leaves are trusted, so only leaves are materialized). What the
//! simulator needs from the upper levels is their *timing*: which node
//! fetches a counter miss triggers, and how lazy updates propagate through
//! the node cache — both are modeled exactly, with configurable node size
//! (16-ary 128 B or 4-ary 32 B, paper Fig. 14).
//!
//! Verification stops at the first cached node ("already verified"), and
//! updates propagate upward only when dirty nodes are evicted from the node
//! cache (the paper's lazy-update scheme).

use crate::config::{CounterOrg, SecureMemConfig};
use crate::counter_store::CounterStore;
use crate::layout::Layout;
use gpu_sim::cache::SectoredCache;
use gpu_sim::{AddrMap, DramReq, SectorAddr, TrafficClass, Violation, SECTOR_SIZE};
use plutus_crypto::Cmac;
use plutus_telemetry::{Event, Histogram, Telemetry};

/// Timing and verification products of a BMT operation.
#[derive(Debug, Clone, Default)]
pub struct Walk {
    /// Critical-path node fetches (sequential, appended to the counter
    /// chain).
    pub chain: Vec<DramReq>,
    /// Non-critical fetches (lazy-update read-modify-write of nodes).
    pub async_reads: Vec<DramReq>,
    /// Dirty node/counter writebacks.
    pub writes: Vec<DramReq>,
    /// Set when the leaf hash check failed (replayed/tampered counters).
    pub violation: Option<Violation>,
}

impl Walk {
    /// Merges `other` into `self`, keeping the first violation.
    pub fn merge(&mut self, other: Walk) {
        self.chain.extend(other.chain);
        self.async_reads.extend(other.async_reads);
        self.writes.extend(other.writes);
        if self.violation.is_none() {
            self.violation = other.violation;
        }
    }
}

/// The integrity tree with its node cache.
#[derive(Debug, Clone)]
pub struct Bmt {
    layout: Layout,
    cache: SectoredCache,
    cmac: Cmac,
    leaf_hashes: AddrMap<u64>,
    /// Counter organization of the store the leaves cover: an untouched
    /// leaf hashes the zero counters of *this* organization.
    org: CounterOrg,
    disabled: bool,
    node_fetches: u64,
    node_hits: u64,
    traffic_class: TrafficClass,
    tel: Telemetry,
    walk_depth: Histogram,
}

impl Bmt {
    /// Builds the tree and its node cache from the configuration.
    pub fn new(cfg: &SecureMemConfig, layout: Layout) -> Self {
        Self::with_class(cfg, layout, TrafficClass::BmtNode)
    }

    /// Like [`Bmt::new`] but tagging node traffic with `class` (used by the
    /// compact-counter tree, which reports as [`TrafficClass::CompactBmt`]).
    pub fn with_class(cfg: &SecureMemConfig, layout: Layout, class: TrafficClass) -> Self {
        let cache = SectoredCache::new(
            cfg.meta_cache_bytes,
            cfg.meta_cache_ways,
            cfg.bmt_cache_line(),
            false,
        );
        Self {
            layout,
            cache,
            cmac: Cmac::new(cfg.bmt_key),
            leaf_hashes: AddrMap::default(),
            org: cfg.counter_org,
            disabled: cfg.disable_tree,
            node_fetches: 0,
            node_hits: 0,
            traffic_class: class,
            tel: Telemetry::disabled(),
            walk_depth: Histogram::disabled(),
        }
    }

    /// Mirrors the node cache into `tel` (`<prefix>.cache.hits`/`.misses`),
    /// records every verification walk's depth into the
    /// `<prefix>.walk_depth` histogram, and emits [`Event::BmtWalk`].
    pub fn attach_telemetry(&mut self, tel: &Telemetry, prefix: &str) {
        self.cache.attach_telemetry(tel, &format!("{prefix}.cache"));
        self.walk_depth = tel.histogram(&format!("{prefix}.walk_depth"));
        self.tel = tel.clone();
    }

    /// Recomputes the hash of `leaf` from live counter state.
    pub fn recompute_leaf(&self, leaf: u64, store: &CounterStore) -> u64 {
        let (first, count) = self.layout.groups_of_leaf(leaf);
        let mut buf = Vec::with_capacity(8 + 36 * count as usize);
        buf.extend_from_slice(&leaf.to_le_bytes());
        for g in first..first + count {
            store.serialize_group_into(g, &mut buf);
        }
        u64::from_le_bytes(self.cmac.mac(&buf)[..8].try_into().unwrap())
    }

    fn zero_leaf_hash(&self, leaf: u64) -> u64 {
        self.recompute_leaf(leaf, &CounterStore::with_org(self.org))
    }

    /// Records `leaf`'s authoritative hash after a legitimate counter
    /// update.
    pub fn set_leaf(&mut self, leaf: u64, hash: u64) {
        self.leaf_hashes.insert(leaf, hash);
    }

    /// Attack hook: corrupts the stored hash of `leaf`, modeling tampering
    /// with the BMT node in DRAM. The next [`Bmt::verify`] covering the
    /// leaf recomputes an honest hash from live counters and must reject
    /// the corrupted record.
    pub fn tamper_leaf(&mut self, leaf: u64) {
        let current = match self.leaf_hashes.get(&leaf) {
            Some(h) => *h,
            None => self.zero_leaf_hash(leaf),
        };
        self.leaf_hashes
            .insert(leaf, current ^ 0xdead_beef_0bad_f00d);
    }

    /// Verifies the counters under `leaf` and walks the tree path until a
    /// cached (already-verified) node or the on-chip root.
    pub fn verify(&mut self, leaf: u64, store: &CounterStore, data_sector: SectorAddr) -> Walk {
        let mut walk = Walk::default();
        let recomputed = self.recompute_leaf(leaf, store);
        let expected = match self.leaf_hashes.get(&leaf) {
            Some(h) => *h,
            None => self.zero_leaf_hash(leaf),
        };
        if recomputed != expected {
            walk.violation = Some(Violation::TreeMismatch {
                addr: data_sector,
                level: 0,
            });
        }
        if self.disabled {
            return walk;
        }
        // Timing walks use the partition-local tree geometry; functional
        // hashes above are keyed by the global leaf id.
        let mut level = 1u32;
        let mut idx = self.layout.parent_index(self.layout.local_leaf(leaf));
        loop {
            if self.layout.is_root_level(level) {
                break; // verified against the on-chip root
            }
            let addr = self.layout.node_addr(level, idx);
            if self.cache.probe(addr) {
                self.node_hits += 1;
                self.cache.access(addr, false, None);
                break; // verified at a cached ancestor
            }
            self.node_fetches += 1;
            walk.chain.push(
                DramReq::new(addr, self.layout.node_bytes() as u32, self.traffic_class)
                    .at_level(level),
            );
            self.fill_node(addr, false, &mut walk);
            level += 1;
            idx = self.layout.parent_index(idx);
        }
        let depth = level - 1; // levels fetched before a cached node / root
        self.walk_depth.record(u64::from(depth));
        if self.tel.enabled() {
            self.tel.event(Event::BmtWalk { depth });
        }
        walk
    }

    /// Lazy-update entry point: the counter sector under `leaf` was evicted
    /// dirty, so its parent node must be dirtied in the node cache
    /// (fetching it first if absent).
    pub fn touch_leaf_parent(&mut self, leaf: u64) -> Walk {
        let mut walk = Walk::default();
        if self.disabled {
            return walk;
        }
        let local = self.layout.local_leaf(leaf);
        self.touch_dirty(1, self.layout.parent_index(local), &mut walk);
        walk
    }

    fn touch_dirty(&mut self, level: u32, idx: u64, walk: &mut Walk) {
        if self.layout.is_root_level(level) {
            return; // root lives on-chip; update absorbed
        }
        let addr = self.layout.node_addr(level, idx);
        if !self.cache.probe(addr) {
            // Read-modify-write fetch, off the critical path.
            self.node_fetches += 1;
            walk.async_reads.push(
                DramReq::new(addr, self.layout.node_bytes() as u32, self.traffic_class)
                    .at_level(level),
            );
        } else {
            self.node_hits += 1;
        }
        self.fill_node(addr, true, walk);
    }

    /// Touches every 32 B piece of the node at `addr` in the cache,
    /// processing any dirty evictions (write them back and propagate the
    /// update to their parents).
    fn fill_node(&mut self, addr: u64, write: bool, walk: &mut Walk) {
        let pieces = (self.layout.node_bytes() / SECTOR_SIZE).max(1);
        for p in 0..pieces {
            let outcome = self.cache.access(addr + p * SECTOR_SIZE, write, None);
            for ev in outcome.evicted {
                let node = self.layout.node_of_addr(ev.addr);
                walk.writes.push(
                    DramReq::new(ev.addr, SECTOR_SIZE as u32, self.traffic_class)
                        .at_level(node.map_or(0, |(l, _)| l)),
                );
                if let Some((ev_level, ev_idx)) = node {
                    self.touch_dirty(ev_level + 1, self.layout.parent_index(ev_idx), walk);
                }
            }
        }
    }

    /// (node fetches, node-cache hits) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.node_fetches, self.node_hits)
    }

    /// True when tree traffic is disabled (Fig. 20 mode).
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Bmt, CounterStore, Layout) {
        let cfg = SecureMemConfig::test_small();
        let layout = Layout::new(&cfg);
        (Bmt::new(&cfg, layout.clone()), CounterStore::new(), layout)
    }

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn pristine_leaf_verifies_clean() {
        let (mut bmt, store, _) = setup();
        let w = bmt.verify(0, &store, sector(0));
        assert!(w.violation.is_none());
        // First walk fetches the level-1 node (level 2 is the root).
        assert_eq!(w.chain.len(), 1);
    }

    #[test]
    fn cached_node_short_circuits_walk() {
        let (mut bmt, store, _) = setup();
        bmt.verify(0, &store, sector(0));
        let w = bmt.verify(0, &store, sector(0));
        assert!(w.chain.is_empty(), "second walk should hit the node cache");
    }

    #[test]
    fn updated_leaf_verifies_after_set() {
        let (mut bmt, mut store, layout) = setup();
        store.increment(sector(0));
        let leaf = layout.leaf_of(layout.ctr_fetch_addr(sector(0)));
        let h = bmt.recompute_leaf(leaf, &store);
        bmt.set_leaf(leaf, h);
        assert!(bmt.verify(leaf, &store, sector(0)).violation.is_none());
    }

    #[test]
    fn counter_tamper_detected() {
        let (mut bmt, mut store, layout) = setup();
        let leaf = layout.leaf_of(layout.ctr_fetch_addr(sector(0)));
        // Legitimate write.
        store.increment(sector(0));
        bmt.set_leaf(leaf, bmt.recompute_leaf(leaf, &store));
        // Attack: roll the counter back (replay).
        store.tamper_minor(sector(0), 0);
        let w = bmt.verify(leaf, &store, sector(0));
        assert!(matches!(
            w.violation,
            Some(Violation::TreeMismatch { level: 0, .. })
        ));
    }

    #[test]
    fn counter_tamper_detected_even_before_first_write() {
        let (mut bmt, mut store, layout) = setup();
        store.tamper_minor(sector(3), 7);
        let leaf = layout.leaf_of(layout.ctr_fetch_addr(sector(3)));
        let w = bmt.verify(leaf, &store, sector(3));
        assert!(
            w.violation.is_some(),
            "zero-default leaves must still be protected"
        );
    }

    #[test]
    fn disabled_tree_produces_no_traffic_but_still_verifies() {
        let cfg = SecureMemConfig {
            disable_tree: true,
            ..SecureMemConfig::test_small()
        };
        let layout = Layout::new(&cfg);
        let mut bmt = Bmt::new(&cfg, layout.clone());
        let mut store = CounterStore::new();
        let w = bmt.verify(0, &store, sector(0));
        assert!(w.chain.is_empty() && w.violation.is_none());
        store.tamper_minor(sector(0), 3);
        assert!(bmt.verify(0, &store, sector(0)).violation.is_some());
        assert!(bmt.touch_leaf_parent(0).async_reads.is_empty());
    }

    #[test]
    fn touch_leaf_parent_fetches_missing_node() {
        let (mut bmt, _, _) = setup();
        let w = bmt.touch_leaf_parent(0);
        assert_eq!(w.async_reads.len(), 1);
        // Touch again: now cached, no fetch.
        let w2 = bmt.touch_leaf_parent(0);
        assert!(w2.async_reads.is_empty());
    }

    #[test]
    fn dirty_node_evictions_write_back() {
        // Tiny node cache to force evictions: 256 B, 2-way, 128 B lines →
        // 1 set × 2 ways.
        let cfg = SecureMemConfig {
            meta_cache_bytes: 256,
            meta_cache_ways: 2,
            protected_bytes: 64 << 20, // enough leaves for many L1 nodes
            ..SecureMemConfig::test_small()
        };
        let layout = Layout::new(&cfg);
        let mut bmt = Bmt::new(&cfg, layout.clone());
        let mut total_writes = 0;
        // Dirty many distinct level-1 nodes.
        let arity = layout.arity();
        for i in 0..64 {
            let w = bmt.touch_leaf_parent(i * arity);
            total_writes += w.writes.len();
        }
        assert!(
            total_writes > 0,
            "dirty node evictions must produce writebacks"
        );
    }

    #[test]
    fn recompute_differs_across_leaves() {
        let (bmt, store, _) = setup();
        assert_ne!(bmt.recompute_leaf(0, &store), bmt.recompute_leaf(1, &store));
    }
}
