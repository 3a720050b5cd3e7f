//! The PSSM baseline engine (Yuan et al., the paper's Section II-B
//! baseline): partitioned, sectored security metadata with counter-mode
//! encryption, per-sector MACs, and a Bonsai Merkle Tree over the counters.
//!
//! The same engine also realizes the paper's Fig. 14/16 metadata-granularity
//! design points (via [`SecureMemConfig::fine_leaf_coarse_tree`] /
//! [`SecureMemConfig::all_32`]) and the Fig. 20 no-tree mode
//! (`disable_tree`), since those vary only the configuration.

use crate::config::SecureMemConfig;
use crate::counter_system::CounterSystem;
use crate::error::SecureMemError;
use crate::mac_system::MacSystem;
use crate::plane::{DataPlane, Settled, RECOVERY_PROBE_BOUND};
use gpu_sim::{
    BackingMemory, EngineFactory, FillPlan, MetaFault, RecoveryError, RecoveryReport, SectorAddr,
    SecurityEngine, Violation, WritePlan,
};

/// The PSSM secure-memory engine (one per partition).
#[derive(Debug, Clone)]
pub struct PssmEngine {
    cfg: SecureMemConfig,
    /// Cipher, MACs, and (multi-tenant operation only) the per-tenant key
    /// table, rotation walk, and storm gate.
    plane: DataPlane,
    counters: CounterSystem,
    fills: u64,
    writebacks: u64,
    overflows: u64,
}

impl PssmEngine {
    /// Builds an engine from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: SecureMemConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an engine from `cfg`, returning a typed error instead of
    /// panicking when the configuration is invalid (the CLI path).
    pub fn try_new(cfg: SecureMemConfig) -> Result<Self, SecureMemError> {
        cfg.validate()
            .map_err(|reason| SecureMemError::InvalidConfig { reason })?;
        Ok(Self {
            plane: DataPlane::new(&cfg),
            counters: CounterSystem::new(&cfg),
            cfg,
            fills: 0,
            writebacks: 0,
            overflows: 0,
        })
    }

    /// An [`EngineFactory`] producing one engine per partition.
    pub fn factory(cfg: SecureMemConfig) -> PssmFactory {
        PssmFactory { cfg }
    }

    /// The counter subsystem, read-only.
    pub fn counters(&self) -> &CounterSystem {
        &self.counters
    }

    /// The counter subsystem (attack hooks and stats live here).
    pub fn counters_mut(&mut self) -> &mut CounterSystem {
        &mut self.counters
    }

    /// The MAC subsystem.
    pub fn macs_mut(&mut self) -> &mut MacSystem {
        self.plane.macs_mut()
    }

    /// The configured crypto latencies.
    pub fn latencies(&self) -> gpu_sim::SecurityLatencies {
        self.cfg.latencies
    }

    /// Serves a fill whose counter value is already known on-chip (used by
    /// Common Counters for clean regions and by Plutus for unsaturated
    /// compact counters): no counter fetch, no BMT walk — only the MAC path.
    pub fn fill_with_known_counter(
        &mut self,
        addr: SectorAddr,
        ctr: u64,
        mem: &mut BackingMemory,
    ) -> FillPlan {
        self.fills += 1;
        let mut plan = FillPlan::default();
        let ma = self.plane.macs_mut().read(addr);
        if !ma.chain.is_empty() {
            plan.pre_chains.push(ma.chain);
        }
        plan.writes.extend(ma.writes);
        let plaintext = self.plane.read_plaintext(addr, ctr, mem);
        if !self.plane.macs().verify(addr, &plaintext, ctr) {
            plan.violation = Some(Violation::MacMismatch { addr });
        }
        plan.plaintext = plaintext;
        let lat = self.cfg.latencies;
        plan.crypto_latency = lat.mac_latency
            + if self.plane.overlaps_fetch() {
                0
            } else {
                lat.aes_latency
            };
        plan
    }

    /// Crash-revert core, shared with wrapper engines: adopt the
    /// checkpoint's volatile metadata (counters, BMT, caches) while keeping
    /// this crashed engine's persistent MAC store.
    pub(crate) fn revert_keeping_macs(&mut self, checkpoint: &PssmEngine) {
        let crashed = std::mem::replace(self, checkpoint.clone());
        self.plane.keep_macs(crashed.plane);
    }
}

impl SecurityEngine for PssmEngine {
    fn name(&self) -> &'static str {
        "pssm"
    }

    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory) {
        self.install_many(&[(addr, *plaintext)], mem);
    }

    fn install_many(&mut self, sectors: &[(SectorAddr, [u8; 32])], mem: &mut BackingMemory) {
        let counters = &self.counters;
        self.plane
            .install_many(sectors, |a| counters.peek_value(a), mem);
    }

    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan {
        self.fills += 1;
        let mut plan = FillPlan::default();

        // Counter (+ BMT verification) chain.
        let ca = self.counters.read(addr);
        if !ca.chain.is_empty() {
            plan.pre_chains.push(ca.chain);
        }
        plan.async_reads.extend(ca.async_reads);
        plan.writes.extend(ca.writes);
        plan.violation = ca.violation;

        // MAC fetch, in parallel with the counter chain.
        let ma = self.plane.macs_mut().read(addr);
        if !ma.chain.is_empty() {
            plan.pre_chains.push(ma.chain);
        }
        plan.writes.extend(ma.writes);

        // Functional decrypt + verify.
        let plaintext = self.plane.read_plaintext(addr, ca.value, mem);
        if !self.plane.macs().verify(addr, &plaintext, ca.value) && plan.violation.is_none() {
            plan.violation = Some(Violation::MacMismatch { addr });
        }
        plan.plaintext = plaintext;

        // Latency: CME overlaps pad generation with the data fetch (pay AES
        // only when the counter had to be fetched first); XTS decrypts
        // after the data arrives. MAC verification is always charged.
        let lat = self.cfg.latencies;
        plan.crypto_latency = lat.mac_latency
            + if self.plane.overlaps_fetch() && ca.hit {
                0
            } else {
                lat.aes_latency
            };

        let counters = &self.counters;
        self.plane.background(
            addr,
            |a| counters.peek_value(a),
            mem,
            &mut plan.async_reads,
            &mut plan.writes,
        );
        plan
    }

    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan {
        self.writebacks += 1;
        let mut plan = WritePlan::default();
        self.plane.storm_tick(addr);

        let ca = self.counters.increment(addr);
        if !ca.chain.is_empty() {
            plan.pre_chains.push(ca.chain);
        }
        plan.async_reads.extend(ca.async_reads);
        plan.writes.extend(ca.writes);
        plan.violation = ca.violation;

        if let Some(old_values) = &ca.overflow_old_values {
            self.overflows += 1;
            self.plane.reencrypt_overflow(
                self.counters.layout(),
                addr,
                old_values,
                ca.value,
                |_| false,
                mem,
                &mut plan.async_reads,
                &mut plan.writes,
            );
        }

        self.plane.write_data(addr, plaintext, ca.value, mem);
        // Fresh MAC (write-allocate in the MAC cache).
        let ma = self.plane.macs_mut().write(addr, plaintext, ca.value);
        plan.writes.extend(ma.writes);

        plan.crypto_latency = self.cfg.latencies.aes_latency + self.cfg.latencies.mac_latency;
        let counters = &self.counters;
        self.plane.background(
            addr,
            |a| counters.peek_value(a),
            mem,
            &mut plan.async_reads,
            &mut plan.writes,
        );
        plan
    }

    fn extra_stats(&self) -> Vec<(String, u64)> {
        let (ch, cm, bf, bh) = self.counters.stats();
        let (mh, mm) = self.plane.macs().stats();
        let mut stats = vec![
            ("fills".into(), self.fills),
            ("writebacks".into(), self.writebacks),
            ("ctr_cache_hits".into(), ch),
            ("ctr_cache_misses".into(), cm),
            ("bmt_node_fetches".into(), bf),
            ("bmt_node_hits".into(), bh),
            ("mac_cache_hits".into(), mh),
            ("mac_cache_misses".into(), mm),
            ("ctr_group_overflows".into(), self.overflows),
        ];
        stats.extend(self.plane.tenancy_stats());
        stats
    }

    fn start_key_rotation(&mut self, tenant: u32) -> bool {
        self.plane.start_key_rotation(tenant)
    }

    fn rotation_active(&self) -> bool {
        self.plane.rotation_active()
    }

    fn attach_telemetry(&mut self, tel: &plutus_telemetry::Telemetry) {
        self.counters.attach_telemetry(tel);
        self.plane.macs_mut().attach_telemetry(tel);
    }

    fn inject_fault(&mut self, addr: SectorAddr, fault: MetaFault) -> bool {
        match fault {
            MetaFault::RollbackCounter { value } => self.counters.tamper_minor(addr, value),
            MetaFault::TamperMac => {
                self.plane.macs_mut().tamper(addr);
                true
            }
            MetaFault::TamperBmtNode => {
                self.counters.tamper_bmt(addr);
                true
            }
            // PSSM keeps no compact counters.
            MetaFault::RollbackCompact { .. } => false,
        }
    }

    fn checkpoint(&self) -> Option<Box<dyn SecurityEngine>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn crash_revert(&mut self, checkpoint: &dyn SecurityEngine) -> bool {
        let Some(ck) = checkpoint
            .as_any()
            .and_then(|a| a.downcast_ref::<PssmEngine>())
        else {
            return false;
        };
        self.revert_keeping_macs(ck);
        true
    }

    fn recover(
        &mut self,
        mem: &BackingMemory,
        sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        // Phoenix-style: the checkpoint-reverted value first, then upward
        // from the recovery floor, each proven by the persistent MAC.
        let counters = &mut self.counters;
        Ok(self.plane.recover(sectors, |plane, addr| {
            let floor = counters.recovery_floor(addr);
            let settled = plane.settle(
                addr,
                mem,
                counters.peek_value(addr),
                floor..floor.saturating_add(RECOVERY_PROBE_BOUND),
                |_| false,
            )?;
            if let Settled::Probed(value, _) = settled {
                counters.restore_value(addr, value);
            }
            Some(settled)
        }))
    }

    fn peek_plaintext(&self, addr: SectorAddr, mem: &BackingMemory) -> Option<[u8; 32]> {
        Some(
            self.plane
                .read_plaintext(addr, self.counters.peek_value(addr), mem),
        )
    }
}

/// Factory building [`PssmEngine`] instances per partition.
#[derive(Debug, Clone)]
pub struct PssmFactory {
    cfg: SecureMemConfig,
}

impl EngineFactory for PssmFactory {
    fn build(&self, _partition: usize) -> Box<dyn SecurityEngine> {
        Box::new(PssmEngine::new(self.cfg.clone()))
    }

    fn scheme_name(&self) -> &'static str {
        "pssm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TrafficClass;

    fn engine() -> (PssmEngine, BackingMemory) {
        (
            PssmEngine::new(SecureMemConfig::test_small()),
            BackingMemory::new(),
        )
    }

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[0x42; 32], &mut mem);
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [0x42; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn ciphertext_in_memory_differs_from_plaintext() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[0x42; 32], &mut mem);
        assert_ne!(mem.read(sector(0)).unwrap(), [0x42; 32]);
    }

    #[test]
    fn install_then_read_roundtrips() {
        let (mut e, mut mem) = engine();
        e.install(sector(3), &[7; 32], &mut mem);
        let fill = e.on_fill(sector(3), &mut mem);
        assert_eq!(fill.plaintext, [7; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn unwritten_memory_reads_zero_clean() {
        let (mut e, mut mem) = engine();
        let fill = e.on_fill(sector(100), &mut mem);
        assert_eq!(fill.plaintext, [0; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn first_fill_fetches_counter_bmt_and_mac() {
        let (mut e, mut mem) = engine();
        let fill = e.on_fill(sector(0), &mut mem);
        // Two parallel chains: [counter, bmt...] and [mac].
        assert_eq!(fill.pre_chains.len(), 2);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::Counter));
        assert!(classes.contains(&TrafficClass::Mac));
        assert!(classes.contains(&TrafficClass::BmtNode));
    }

    #[test]
    fn cached_metadata_makes_fills_free() {
        let (mut e, mut mem) = engine();
        e.on_fill(sector(0), &mut mem);
        let fill = e.on_fill(sector(1), &mut mem); // same group, same MAC line
        assert!(fill.pre_chains.is_empty(), "all metadata should be cached");
    }

    #[test]
    fn data_tamper_detected_via_mac() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[0x42; 32], &mut mem);
        let mut mask = [0u8; 32];
        mask[0] = 0x80;
        assert!(mem.corrupt(sector(0), &mask));
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(matches!(
            fill.violation,
            Some(Violation::MacMismatch { .. })
        ));
    }

    #[test]
    fn data_replay_detected_via_counter_binding() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        let old = mem.snapshot(sector(0)).unwrap();
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        assert!(mem.replay(sector(0), old));
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(
            matches!(fill.violation, Some(Violation::MacMismatch { .. })),
            "replayed data must fail the stateful MAC"
        );
    }

    #[test]
    fn counter_rollback_detected_via_tree() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        // Evict the counter by touching many distinct groups' fetch units.
        for i in 1..64 {
            e.on_fill(sector(i * 128), &mut mem);
        }
        e.counters_mut().tamper_minor(sector(0), 1);
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(matches!(
            fill.violation,
            Some(Violation::TreeMismatch { .. })
        ));
    }

    #[test]
    fn cme_fill_latency_depends_on_counter_hit() {
        let (mut e, mut mem) = engine();
        let lat = e.cfg.latencies;
        let first = e.on_fill(sector(0), &mut mem);
        assert_eq!(first.crypto_latency, lat.mac_latency + lat.aes_latency);
        let second = e.on_fill(sector(1), &mut mem);
        assert_eq!(second.crypto_latency, lat.mac_latency);
    }

    #[test]
    fn xts_fill_always_pays_aes() {
        let cfg = SecureMemConfig {
            cipher: crate::config::CipherKind::Xts,
            ..SecureMemConfig::test_small()
        };
        let lat = cfg.latencies;
        let mut e = PssmEngine::new(cfg);
        let mut mem = BackingMemory::new();
        e.on_fill(sector(0), &mut mem);
        let second = e.on_fill(sector(1), &mut mem);
        assert_eq!(second.crypto_latency, lat.mac_latency + lat.aes_latency);
    }

    #[test]
    fn group_overflow_reencrypts_residents() {
        let (mut e, mut mem) = engine();
        // Make two sectors of group 0 resident.
        e.on_writeback(sector(1), &[0xaa; 32], &mut mem);
        // Drive sector 0 to overflow (128 writes).
        for _ in 0..128 {
            e.on_writeback(sector(0), &[0xbb; 32], &mut mem);
        }
        // Both sectors must still decrypt + verify after re-encryption.
        let f1 = e.on_fill(sector(1), &mut mem);
        assert_eq!(f1.plaintext, [0xaa; 32]);
        assert!(f1.violation.is_none());
        let f0 = e.on_fill(sector(0), &mut mem);
        assert_eq!(f0.plaintext, [0xbb; 32]);
        assert!(f0.violation.is_none());
        assert!(e.overflows >= 1);
    }

    #[test]
    fn disable_tree_removes_bmt_chain() {
        let cfg = SecureMemConfig {
            disable_tree: true,
            ..SecureMemConfig::test_small()
        };
        let mut e = PssmEngine::new(cfg);
        let mut mem = BackingMemory::new();
        let fill = e.on_fill(sector(0), &mut mem);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(!classes.contains(&TrafficClass::BmtNode));
        assert!(classes.contains(&TrafficClass::Counter));
    }

    #[test]
    fn monolithic_variant_roundtrips_and_detects() {
        let cfg = SecureMemConfig {
            counter_org: crate::config::CounterOrg::Monolithic,
            ..SecureMemConfig::test_small()
        };
        let mut e = PssmEngine::new(cfg);
        let mut mem = BackingMemory::new();
        for i in 0..8u64 {
            e.on_writeback(sector(i), &[i as u8; 32], &mut mem);
        }
        for i in 0..8u64 {
            let f = e.on_fill(sector(i), &mut mem);
            assert_eq!(f.plaintext, [i as u8; 32]);
            assert!(f.violation.is_none());
        }
        // Monolithic counter sectors cover only 4 data sectors: sector 4
        // needs a different counter fetch unit than sector 0... but both
        // land in one 128B fetch; sector 16 does not.
        let mut mask = [0u8; 32];
        mask[3] = 1;
        mem.corrupt(sector(0), &mask);
        assert!(e.on_fill(sector(0), &mut mem).violation.is_some());
    }

    #[test]
    fn monolithic_untouched_sector_fills_clean() {
        // The first fill of a never-written leaf checks the counters
        // against the zero-leaf hash, which must be built from the
        // monolithic organization (32 B groups), not the split one.
        let cfg = SecureMemConfig {
            counter_org: crate::config::CounterOrg::Monolithic,
            ..SecureMemConfig::test_small()
        };
        let mut e = PssmEngine::new(cfg);
        let mut mem = BackingMemory::new();
        let f = e.on_fill(sector(0), &mut mem);
        assert_eq!(f.plaintext, [0; 32]);
        assert_eq!(f.violation, None);
    }

    #[test]
    fn monolithic_replay_detected_via_tree() {
        let cfg = SecureMemConfig {
            counter_org: crate::config::CounterOrg::Monolithic,
            ..SecureMemConfig::test_small()
        };
        let mut e = PssmEngine::new(cfg);
        let mut mem = BackingMemory::new();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        for i in 1..80 {
            e.on_fill(sector(i * 128), &mut mem);
        }
        e.counters_mut().tamper_minor(sector(0), 1);
        let f = e.on_fill(sector(0), &mut mem);
        assert!(matches!(f.violation, Some(Violation::TreeMismatch { .. })));
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let cfg = SecureMemConfig {
            ctr_fetch_bytes: 48,
            ..SecureMemConfig::test_small()
        };
        let err = PssmEngine::try_new(cfg).unwrap_err();
        assert!(matches!(
            err,
            crate::error::SecureMemError::InvalidConfig { .. }
        ));
        assert!(err.to_string().contains("ctr_fetch_bytes"));
    }

    #[test]
    fn crash_recovery_restores_counters_from_macs() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        let ck = e.checkpoint().expect("pssm supports checkpointing");
        // Post-checkpoint writes advance counters the crash will lose.
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        e.on_writeback(sector(0), &[3; 32], &mut mem);
        e.on_writeback(sector(7), &[9; 32], &mut mem);
        assert!(e.crash_revert(ck.as_ref()));
        let sectors = mem.resident_addrs();
        let report = e.recover(&mem, &sectors).unwrap();
        assert!(report.failed.is_empty(), "every sector must recover");
        assert!(report.recovered_by_mac >= 2, "stale counters re-proven");
        let f0 = e.on_fill(sector(0), &mut mem);
        assert_eq!(f0.plaintext, [3; 32], "last pre-crash write survives");
        assert!(f0.violation.is_none());
        let f7 = e.on_fill(sector(7), &mut mem);
        assert_eq!(f7.plaintext, [9; 32]);
        assert!(f7.violation.is_none());
    }

    #[test]
    fn crash_recovery_spans_group_overflow() {
        let (mut e, mut mem) = engine();
        // A neighbour resident in group 0 with a small minor.
        e.on_writeback(sector(1), &[0xaa; 32], &mut mem);
        for _ in 0..100 {
            e.on_writeback(sector(0), &[0xbb; 32], &mut mem);
        }
        let ck = e.checkpoint().unwrap();
        // Cross the 7-bit minor overflow after the checkpoint: the group
        // major bumps and every minor resets, so the reverted neighbour's
        // combined value can exceed its true post-overflow value.
        for _ in 0..40 {
            e.on_writeback(sector(0), &[0xcc; 32], &mut mem);
        }
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty());
        let f1 = e.on_fill(sector(1), &mut mem);
        assert_eq!(f1.plaintext, [0xaa; 32]);
        assert!(f1.violation.is_none());
        let f0 = e.on_fill(sector(0), &mut mem);
        assert_eq!(f0.plaintext, [0xcc; 32]);
        assert!(f0.violation.is_none());
    }

    #[test]
    fn peek_plaintext_matches_fill_without_traffic() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(5), &[0x33; 32], &mut mem);
        assert_eq!(e.peek_plaintext(sector(5), &mem), Some([0x33; 32]));
        // Unwritten sectors peek as zero (zero-initialized device memory).
        assert_eq!(e.peek_plaintext(sector(6), &mem), Some([0; 32]));
    }

    #[test]
    fn monolithic_crash_recovery_roundtrips() {
        let cfg = SecureMemConfig {
            counter_org: crate::config::CounterOrg::Monolithic,
            ..SecureMemConfig::test_small()
        };
        let mut e = PssmEngine::new(cfg);
        let mut mem = BackingMemory::new();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        let ck = e.checkpoint().unwrap();
        for i in 0..10u8 {
            e.on_writeback(sector(0), &[i; 32], &mut mem);
        }
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty());
        let f = e.on_fill(sector(0), &mut mem);
        assert_eq!(f.plaintext, [9; 32]);
        assert!(f.violation.is_none());
    }

    #[test]
    fn factory_reports_scheme() {
        let f = PssmEngine::factory(SecureMemConfig::test_small());
        assert_eq!(f.scheme_name(), "pssm");
        assert_eq!(f.build(0).name(), "pssm");
    }

    fn tenant_cfg() -> SecureMemConfig {
        use crate::tenant::TenancyConfig;
        use gpu_sim::TenantMap;
        let mut map = TenantMap::new();
        map.add_range(0, 0x10000, 1);
        map.add_range(0x10000, 0x20000, 2);
        SecureMemConfig {
            tenancy: Some(TenancyConfig::new(map, 7)),
            ..SecureMemConfig::test_small()
        }
    }

    #[test]
    fn tenant_engine_roundtrips_both_tenants() {
        let mut e = PssmEngine::new(tenant_cfg());
        let mut mem = BackingMemory::new();
        let a1 = SectorAddr::new(0x100);
        let a2 = SectorAddr::new(0x10100);
        e.on_writeback(a1, &[1; 32], &mut mem);
        e.on_writeback(a2, &[2; 32], &mut mem);
        assert!(e.on_fill(a1, &mut mem).violation.is_none());
        assert!(e.on_fill(a2, &mut mem).violation.is_none());
        assert_eq!(e.peek_plaintext(a1, &mem), Some([1; 32]));
        assert_eq!(e.peek_plaintext(a2, &mem), Some([2; 32]));
    }

    #[test]
    fn key_rotation_completes_and_preserves_plaintext() {
        let mut e = PssmEngine::new(tenant_cfg());
        let mut mem = BackingMemory::new();
        for i in 0..40u64 {
            e.on_writeback(sector(i), &[i as u8; 32], &mut mem);
        }
        let before = mem.read(sector(0)).unwrap();
        assert!(e.start_key_rotation(1));
        assert!(e.rotation_active());
        // Accesses to the *other* tenant drive the walk forward.
        let other = SectorAddr::new(0x10000);
        let mut guard = 0;
        while e.rotation_active() {
            e.on_fill(other, &mut mem);
            guard += 1;
            assert!(guard < 100, "rotation walk must terminate");
        }
        // Ciphertext changed, plaintext identical, MACs still verify.
        assert_ne!(mem.read(sector(0)).unwrap(), before);
        for i in 0..40u64 {
            let f = e.on_fill(sector(i), &mut mem);
            assert_eq!(f.plaintext, [i as u8; 32]);
            assert!(
                f.violation.is_none(),
                "sector {i} must verify post-rotation"
            );
        }
    }

    #[test]
    fn crash_mid_rotation_recovers_bit_identical() {
        let mut e = PssmEngine::new(tenant_cfg());
        let mut mem = BackingMemory::new();
        for i in 0..32u64 {
            e.on_writeback(sector(i), &[i as u8; 32], &mut mem);
        }
        // Rotation starts BEFORE the covering checkpoint (the documented
        // ordering constraint), then advances past a few sectors.
        assert!(e.start_key_rotation(1));
        let ck = e.checkpoint().unwrap();
        let other = SectorAddr::new(0x10000);
        for _ in 0..3 {
            e.on_fill(other, &mut mem);
        }
        // Crash: volatile state reverts (walk frontier included); memory
        // keeps the partially rotated ciphertext.
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty(), "recovery must succeed mid-walk");
        // Finish the walk post-recovery and check every sector.
        let mut guard = 0;
        while e.rotation_active() {
            e.on_fill(other, &mut mem);
            guard += 1;
            assert!(guard < 100);
        }
        for i in 0..32u64 {
            let f = e.on_fill(sector(i), &mut mem);
            assert_eq!(f.plaintext, [i as u8; 32], "sector {i} bit-identical");
            assert!(f.violation.is_none());
        }
    }

    #[test]
    fn storm_gate_defers_overflow_traffic_past_burst() {
        use crate::tenant::TenancyConfig;
        use gpu_sim::TenantMap;
        let mut map = TenantMap::new();
        map.add_range(0, 0x10000, 1);
        let mut ten = TenancyConfig::new(map, 7);
        ten.storm_burst = 1;
        ten.storm_window = 10_000; // never rolls over inside this test
        let cfg = SecureMemConfig {
            tenancy: Some(ten),
            ..SecureMemConfig::test_small()
        };
        let mut e = PssmEngine::new(cfg);
        let mut mem = BackingMemory::new();
        // Residents so group re-encryption has traffic to emit.
        e.on_writeback(sector(1), &[0xaa; 32], &mut mem);
        e.on_writeback(sector(33), &[0xcc; 32], &mut mem);
        // First overflow (group 0): admitted inline.
        for _ in 0..128 {
            e.on_writeback(sector(0), &[0xbb; 32], &mut mem);
        }
        // Second overflow (group 1): past the burst budget → deferred.
        for _ in 0..128 {
            e.on_writeback(sector(32), &[0xdd; 32], &mut mem);
        }
        let stats: std::collections::HashMap<String, u64> = e.extra_stats().into_iter().collect();
        assert!(stats["storm_suppressed_overflows"] >= 1);
        assert!(stats["storm_deferred_reqs"] >= 1);
        // Functional state is untouched by the deferral.
        assert!(e.on_fill(sector(1), &mut mem).violation.is_none());
        assert!(e.on_fill(sector(33), &mut mem).violation.is_none());
        assert_eq!(e.on_fill(sector(33), &mut mem).plaintext, [0xcc; 32]);
    }
}
