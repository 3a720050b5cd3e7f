//! The Common Counters baseline (Na et al., as characterized in the
//! paper's Sections I/III-C): a coarse-grain on-chip read-only tracker.
//!
//! Device memory is divided into 16 KiB regions. While a region has never
//! been written, every sector in it provably has counter value zero, so
//! reads need **no counter fetch and no BMT traversal** — the counter is
//! known on-chip. The first write to a region permanently demotes it to the
//! normal PSSM path. This captures the scheme's first-order behavior (and
//! its weakness the paper exploits: one write poisons a whole 16 KiB
//! region, and MAC traffic is never optimized).

use crate::config::SecureMemConfig;
use crate::pssm::PssmEngine;
use gpu_sim::{
    BackingMemory, EngineFactory, FillPlan, MetaFault, RecoveryError, RecoveryReport, SectorAddr,
    SecurityEngine, WritePlan,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Region granularity tracked on-chip.
pub const REGION_BYTES: u64 = 16 * 1024;

/// Common-Counters engine: PSSM plus the clean-region shortcut.
///
/// The dirty-region table is a single *GPU-level* on-chip structure: a
/// write arriving at any memory partition demotes the region for every
/// partition, so the table is shared between the per-partition engine
/// instances built by one [`CommonCountersFactory`].
#[derive(Debug, Clone)]
pub struct CommonCountersEngine {
    inner: PssmEngine,
    dirty_regions: Arc<Mutex<HashSet<u64>>>,
    clean_hits: u64,
}

impl CommonCountersEngine {
    /// Builds a standalone engine from `cfg` (its region table is private;
    /// use [`CommonCountersEngine::factory`] for a multi-partition
    /// simulator so the table is shared).
    pub fn new(cfg: SecureMemConfig) -> Self {
        Self::with_shared_table(cfg, Arc::new(Mutex::new(HashSet::new())))
    }

    fn with_shared_table(cfg: SecureMemConfig, table: Arc<Mutex<HashSet<u64>>>) -> Self {
        Self {
            inner: PssmEngine::new(cfg),
            dirty_regions: table,
            clean_hits: 0,
        }
    }

    /// An [`EngineFactory`] producing one engine per partition, all sharing
    /// one dirty-region table.
    pub fn factory(cfg: SecureMemConfig) -> CommonCountersFactory {
        CommonCountersFactory {
            cfg,
            table: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    fn region_of(addr: SectorAddr) -> u64 {
        addr.raw() / REGION_BYTES
    }

    /// True if `addr`'s region has never been written.
    pub fn is_clean(&self, addr: SectorAddr) -> bool {
        !self
            .dirty_regions
            .lock()
            .unwrap()
            .contains(&Self::region_of(addr))
    }
}

impl SecurityEngine for CommonCountersEngine {
    fn name(&self) -> &'static str {
        "common_counters"
    }

    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory) {
        self.install_many(&[(addr, *plaintext)], mem);
    }

    fn install_many(&mut self, sectors: &[(SectorAddr, [u8; 32])], mem: &mut BackingMemory) {
        // Install is the pre-kernel image, not a kernel write: the region
        // stays clean (counters stay zero).
        self.inner.install_many(sectors, mem);
    }

    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan {
        if self.is_clean(addr) {
            // Counter is zero by construction: skip the counter/BMT path
            // entirely; only the MAC is fetched and checked.
            self.clean_hits += 1;
            let mut plan = self.inner.fill_with_known_counter(addr, 0, mem);
            debug_assert!(plan
                .pre_chains
                .iter()
                .flatten()
                .all(|r| r.class == gpu_sim::TrafficClass::Mac));
            plan.crypto_latency = self.inner.latencies().mac_latency;
            return plan;
        }
        self.inner.on_fill(addr, mem)
    }

    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan {
        self.dirty_regions
            .lock()
            .unwrap()
            .insert(Self::region_of(addr));
        self.inner.on_writeback(addr, plaintext, mem)
    }

    fn extra_stats(&self) -> Vec<(String, u64)> {
        let mut stats = self.inner.extra_stats();
        stats.push(("clean_region_fills".into(), self.clean_hits));
        stats.push((
            "dirty_regions".into(),
            self.dirty_regions.lock().unwrap().len() as u64,
        ));
        stats
    }

    fn attach_telemetry(&mut self, tel: &plutus_telemetry::Telemetry) {
        self.inner.attach_telemetry(tel);
    }

    fn start_key_rotation(&mut self, tenant: u32) -> bool {
        self.inner.start_key_rotation(tenant)
    }

    fn rotation_active(&self) -> bool {
        self.inner.rotation_active()
    }

    fn inject_fault(&mut self, addr: SectorAddr, fault: MetaFault) -> bool {
        match fault {
            // Clean regions never consult per-sector counters or the BMT
            // (the counter is known to be zero on-chip), so counter/BMT
            // faults there have no observable target.
            MetaFault::RollbackCounter { .. } | MetaFault::TamperBmtNode if self.is_clean(addr) => {
                false
            }
            _ => self.inner.inject_fault(addr, fault),
        }
    }

    fn checkpoint(&self) -> Option<Box<dyn SecurityEngine>> {
        // The dirty-region table is shared between partitions through one
        // Arc; a checkpoint must deep-copy its contents so later writes
        // don't bleed into the saved state.
        let snapshot = self.dirty_regions.lock().unwrap().clone();
        let mut ck = self.clone();
        ck.dirty_regions = Arc::new(Mutex::new(snapshot));
        Some(Box::new(ck))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn crash_revert(&mut self, checkpoint: &dyn SecurityEngine) -> bool {
        let Some(ck) = checkpoint
            .as_any()
            .and_then(|a| a.downcast_ref::<CommonCountersEngine>())
        else {
            return false;
        };
        self.inner.revert_keeping_macs(&ck.inner);
        self.clean_hits = ck.clean_hits;
        // Replace the shared table's *contents* in place so every partition
        // keeps pointing at the one GPU-level table.
        let snapshot = ck.dirty_regions.lock().unwrap().clone();
        *self.dirty_regions.lock().unwrap() = snapshot;
        true
    }

    fn recover(
        &mut self,
        mem: &BackingMemory,
        sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        let report = self.inner.recover(mem, sectors)?;
        // A region is clean only while every counter in it is provably
        // zero: re-dirty any region whose recovered counter says otherwise,
        // so post-recovery fills take the full verified path.
        for &s in sectors {
            if self.inner.counters().peek_value(s) > 0 {
                self.dirty_regions
                    .lock()
                    .unwrap()
                    .insert(Self::region_of(s));
            }
        }
        Ok(report)
    }

    fn peek_plaintext(&self, addr: SectorAddr, mem: &BackingMemory) -> Option<[u8; 32]> {
        self.inner.peek_plaintext(addr, mem)
    }
}

/// Factory building [`CommonCountersEngine`] instances per partition, all
/// sharing one GPU-level dirty-region table.
#[derive(Debug, Clone)]
pub struct CommonCountersFactory {
    cfg: SecureMemConfig,
    table: Arc<Mutex<HashSet<u64>>>,
}

impl EngineFactory for CommonCountersFactory {
    fn build(&self, _partition: usize) -> Box<dyn SecurityEngine> {
        Box::new(CommonCountersEngine::with_shared_table(
            self.cfg.clone(),
            self.table.clone(),
        ))
    }

    fn scheme_name(&self) -> &'static str {
        "common_counters"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TrafficClass;

    fn engine() -> (CommonCountersEngine, BackingMemory) {
        (
            CommonCountersEngine::new(SecureMemConfig::test_small()),
            BackingMemory::new(),
        )
    }

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn clean_region_reads_skip_counter_traffic() {
        let (mut e, mut mem) = engine();
        e.install(sector(0), &[5; 32], &mut mem);
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [5; 32]);
        assert!(fill.violation.is_none());
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(!classes.contains(&TrafficClass::Counter));
        assert!(!classes.contains(&TrafficClass::BmtNode));
        assert!(classes.contains(&TrafficClass::Mac), "MAC is still fetched");
    }

    #[test]
    fn first_write_dirties_the_whole_region() {
        let (mut e, mut mem) = engine();
        assert!(e.is_clean(sector(0)));
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        assert!(!e.is_clean(sector(0)));
        // A *different* sector in the same 16 KiB region is also dirty now.
        assert!(!e.is_clean(sector(511)));
        // But the next region is clean.
        assert!(e.is_clean(sector(512)));
    }

    #[test]
    fn dirty_region_reads_take_the_full_path() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        let fill = e.on_fill(sector(4 * 32), &mut mem); // same region, different group
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::Counter));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(9), &[0x77; 32], &mut mem);
        let fill = e.on_fill(sector(9), &mut mem);
        assert_eq!(fill.plaintext, [0x77; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn tamper_in_clean_region_still_detected() {
        let (mut e, mut mem) = engine();
        e.install(sector(0), &[5; 32], &mut mem);
        let mut mask = [0u8; 32];
        mask[10] = 4;
        mem.corrupt(sector(0), &mask);
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(fill.violation.is_some(), "MAC still protects clean regions");
    }

    #[test]
    fn checkpoint_deep_copies_dirty_table() {
        let (mut e, mut mem) = engine();
        let ck = e.checkpoint().expect("common counters checkpoints");
        // Dirtying a region after the checkpoint must not leak into it.
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        assert!(!e.is_clean(sector(0)));
        assert!(e.crash_revert(ck.as_ref()));
        assert!(e.is_clean(sector(0)), "reverted table is clean again");
    }

    #[test]
    fn crash_recovery_redirties_written_regions() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        let ck = e.checkpoint().unwrap();
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        e.on_writeback(sector(512), &[3; 32], &mut mem); // new region
        assert!(e.crash_revert(ck.as_ref()));
        // The post-checkpoint region went clean with the reverted table…
        assert!(e.is_clean(sector(512)));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty());
        // …and recovery re-dirties it from the recovered counters.
        assert!(!e.is_clean(sector(512)));
        let f0 = e.on_fill(sector(0), &mut mem);
        assert_eq!(f0.plaintext, [2; 32]);
        assert!(f0.violation.is_none());
        let f512 = e.on_fill(sector(512), &mut mem);
        assert_eq!(f512.plaintext, [3; 32]);
        assert!(f512.violation.is_none());
    }

    #[test]
    fn stats_count_clean_fills() {
        let (mut e, mut mem) = engine();
        e.on_fill(sector(0), &mut mem);
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        e.on_fill(sector(1), &mut mem);
        let stats = e.extra_stats();
        let clean = stats
            .iter()
            .find(|(n, _)| n == "clean_region_fills")
            .unwrap()
            .1;
        assert_eq!(clean, 1);
        let dirty = stats.iter().find(|(n, _)| n == "dirty_regions").unwrap().1;
        assert_eq!(dirty, 1);
    }
}
