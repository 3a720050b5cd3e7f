//! The Plutus security engine: the paper's three techniques composed
//! behind the simulator's [`SecurityEngine`] interface.
//!
//! Per L2 read miss (paper Fig. 11, left):
//!
//! 1. **Counter** — the compact layer resolves the write counter on-chip
//!    cheaply when enabled; saturated/disabled sectors fall back to the
//!    original split counters + BMT (charged as a *second*, sequential
//!    access, exactly the double-lookup cost the adaptive variant avoids).
//! 2. **Decrypt** — AES-XTS after the data arrives (GPU warps hide the
//!    serialization).
//! 3. **Verify** — the decrypted values probe the value cache; a sector
//!    scoring ≥ 3 hits per 128-bit half is *verified without its MAC*.
//!    Otherwise the MAC is fetched **after** decryption (`post_chain`) and
//!    checked — the deferred-MAC serialization the paper accepts in
//!    exchange for eliminating most MAC traffic.
//!
//! Per writeback (paper Fig. 11, right): the compact counter advances (or
//! propagates into the original on saturation); the sector's values are
//! screened against the *pinned* region — hits there guarantee the next
//! read passes value verification, so the MAC update itself is skipped.

use crate::compact::CompactCounters;
use crate::config::PlutusConfig;
use crate::verify::{ValueVerifier, Verdict, WriteScreen};
use gpu_sim::{
    BackingMemory, DramReq, EngineFactory, FillPlan, MetaFault, RecoveryError, RecoveryReport,
    SectorAddr, SecurityEngine, TrafficClass, Violation, WritePlan,
};
use plutus_telemetry::{Counter, Event, Histogram, Span, Telemetry, TraceId, Tracer};
use secure_mem::{
    plane, CounterAccess, CounterSystem, DataCipher, MacSystem, SecureMemError, TenantCrypto,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Fill failures (retries or escalations) before the value-cache fast path
/// is frozen and every read pays full MAC verification.
const VERIFIER_FREEZE_FAILURES: u64 = 4;

/// Fill failures attributed to one compact-counter block before the block
/// is frozen onto the split-counter path.
const BLOCK_FREEZE_FAILURES: u32 = 8;

/// Upper bound on split-counter candidates probed per sector during
/// Phoenix-style crash recovery.
const RECOVERY_PROBE_BOUND: u64 = 1 << 14;

/// How one sector's counter was settled during crash recovery.
enum RecoverKind {
    /// The reverted state already verifies.
    Consistent,
    /// A probed candidate was proven by the persistent MAC.
    Mac,
    /// The pinned-value screen vouched for a sector whose MAC update was
    /// legitimately skipped; the MAC was repaired in place.
    Value,
}

/// A counter candidate that checked out during crash recovery.
#[derive(Clone, Copy)]
struct Candidate {
    /// Proven by the persistent MAC (vs vouched by the pinned screen).
    by_mac: bool,
    /// Verified under the pending new-generation cipher of a mid-flight
    /// key-rotation walk (the crash reverted the walk frontier).
    new_gen: bool,
}

/// The Plutus engine (one per memory partition).
#[derive(Debug, Clone)]
pub struct PlutusEngine {
    cfg: PlutusConfig,
    cipher: DataCipher,
    counters: CounterSystem,
    macs: MacSystem,
    verifier: Option<ValueVerifier>,
    compact: Option<CompactCounters>,
    /// Per-tenant key table, rotation walk, and storm gate (multi-tenant
    /// operation only).
    tenancy: Option<TenantCrypto>,
    fills: u64,
    writebacks: u64,
    mac_fetches_avoided: u64,
    mac_updates_skipped: u64,
    compact_fallbacks: u64,
    fill_failures: u64,
    verifier_frozen: bool,
    /// Per-tenant ladder state (tenancy only): an attacked tenant's
    /// value-cache freeze never widens to other tenants.
    tenant_fill_failures: BTreeMap<u32, u64>,
    frozen_tenants: BTreeSet<u32>,
    block_failures: HashMap<u64, u32>,
    blocks_frozen: u64,
    tel: Telemetry,
    tel_mac_avoided: Counter,
    tel_mac_skipped: Counter,
    tel_compact_fallbacks: Counter,
    /// `span.engine.{fill,writeback}.ns` handles, fetched on the first
    /// fill/writeback after telemetry is attached (see [`cached_span`]).
    span_fill: Option<Histogram>,
    span_writeback: Option<Histogram>,
    tracer: Tracer,
    /// Trace root of the demand access currently being served (set by
    /// the simulator via `begin_access_trace`), so engine-internal
    /// causal marks attribute to the right access.
    cur_trace: TraceId,
}

/// A wall-clock span into histogram `name`, fetched into `slot` on the
/// first call. The histogram registers at that first call, as under
/// [`Telemetry::span`], but later calls skip its `format!`, registry lock
/// and name scan.
fn cached_span(tel: &Telemetry, slot: &mut Option<Histogram>, name: &str) -> Span {
    Span::enter(tel, slot.get_or_insert_with(|| tel.histogram(name)))
}

impl PlutusEngine {
    /// Builds an engine from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: PlutusConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an engine from `cfg`, returning a typed error instead of
    /// panicking when the configuration is invalid (the CLI path).
    pub fn try_new(cfg: PlutusConfig) -> Result<Self, SecureMemError> {
        cfg.validate()
            .map_err(|reason| SecureMemError::InvalidConfig { reason })?;
        Ok(Self {
            cipher: DataCipher::new(&cfg.mem),
            counters: CounterSystem::new(&cfg.mem),
            macs: MacSystem::new(&cfg.mem),
            verifier: cfg
                .value_verify
                .then(|| ValueVerifier::new(cfg.value_cache)),
            compact: cfg.compact.map(|cc| {
                CompactCounters::with_tree_disabled(
                    cc,
                    cfg.mem.protected_bytes,
                    cfg.mem.partitions,
                    cfg.mem.bmt_key,
                    cfg.mem.disable_tree,
                )
            }),
            tenancy: cfg
                .mem
                .tenancy
                .clone()
                .map(|t| TenantCrypto::new(cfg.mem.cipher, t)),
            cfg,
            fills: 0,
            writebacks: 0,
            mac_fetches_avoided: 0,
            mac_updates_skipped: 0,
            compact_fallbacks: 0,
            fill_failures: 0,
            verifier_frozen: false,
            tenant_fill_failures: BTreeMap::new(),
            frozen_tenants: BTreeSet::new(),
            block_failures: HashMap::new(),
            blocks_frozen: 0,
            tel: Telemetry::disabled(),
            tel_mac_avoided: Counter::disabled(),
            tel_mac_skipped: Counter::disabled(),
            tel_compact_fallbacks: Counter::disabled(),
            span_fill: None,
            span_writeback: None,
            tracer: Tracer::disabled(),
            cur_trace: TraceId::NONE,
        })
    }

    /// An [`EngineFactory`] producing one engine per partition.
    pub fn factory(cfg: PlutusConfig) -> PlutusFactory {
        PlutusFactory { cfg }
    }

    /// The counter subsystem (attack hooks and stats).
    pub fn counters_mut(&mut self) -> &mut CounterSystem {
        &mut self.counters
    }

    /// The MAC subsystem (attack hooks and stats).
    pub fn macs_mut(&mut self) -> &mut MacSystem {
        &mut self.macs
    }

    /// The compact layer, if enabled.
    pub fn compact_mut(&mut self) -> Option<&mut CompactCounters> {
        self.compact.as_mut()
    }

    /// The value verifier, if enabled.
    pub fn verifier(&self) -> Option<&ValueVerifier> {
        self.verifier.as_ref()
    }

    /// The effective cipher for `sector`: the single shared cipher, or —
    /// under tenancy — the owning tenant's current generation (old
    /// generation past a live rotation-walk frontier).
    fn cipher_for(&self, sector: SectorAddr) -> &DataCipher {
        plane::cipher_for(&self.cipher, self.tenancy.as_ref(), sector)
    }

    fn read_plaintext(&self, sector: SectorAddr, ctr: u64, mem: &BackingMemory) -> [u8; 32] {
        self.read_plaintext_with(self.cipher_for(sector), sector, ctr, mem)
    }

    fn read_plaintext_with(
        &self,
        cipher: &DataCipher,
        sector: SectorAddr,
        ctr: u64,
        mem: &BackingMemory,
    ) -> [u8; 32] {
        match mem.read(sector) {
            Some(mut ct) => {
                cipher.decrypt(&mut ct, sector, ctr);
                ct
            }
            None => [0; 32],
        }
    }

    /// Advances a live key-rotation walk by a bounded number of sectors
    /// (see the PSSM engine for the walk invariant; mechanics are
    /// identical, except the live counter may come from the compact
    /// layer).
    fn rotation_step(
        &mut self,
        mem: &mut BackingMemory,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
    ) {
        let Some(tc) = &self.tenancy else {
            return;
        };
        let Some((frontier, end, step)) = tc.walk_window() else {
            return;
        };
        let step = step as usize;
        // The work list is the ownership registry, not the MAC tag
        // table: MAC-skip sectors carry ciphertext but no stored tag.
        let addrs = tc.owned_in_range(frontier, end, step);
        let done = addrs.len() < step;
        // One batched decrypt + encrypt + MAC pass over the whole step
        // instead of sector-at-a-time (the counter may come from the
        // compact layer, hence the live_counter pre-pass).
        let items: Vec<(SectorAddr, u64)> = addrs
            .iter()
            .map(|&addr| (addr, self.live_counter(addr)))
            .collect();
        let last = items.last().map_or(frontier, |&(addr, _)| addr.raw());
        let Some(tc) = &mut self.tenancy else {
            return;
        };
        for (&(addr, _), changed) in items.iter().zip(tc.rotate_sectors(&items, mem)) {
            if changed {
                reads.push(DramReq::new(addr.raw(), 32, TrafficClass::Data));
                writes.push(DramReq::new(addr.raw(), 32, TrafficClass::Data));
            }
        }
        if done {
            tc.finish_walk();
        } else {
            tc.advance_frontier(last + 32);
        }
    }

    /// Drains a little of `addr`'s tenant's deferred storm traffic into
    /// the current plan.
    fn drain_storm(
        &mut self,
        addr: SectorAddr,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
    ) {
        if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(addr);
            tc.storm_drain_into(t, reads, writes);
        }
    }

    /// Books an overflow re-encryption's traffic: inline within the
    /// tenant's storm burst budget, deferred to the offender's own later
    /// accesses past it.
    fn book_overflow(
        &mut self,
        addr: SectorAddr,
        old_values: &[u64],
        new_value: u64,
        mem: &mut BackingMemory,
        plan: &mut WritePlan,
    ) {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        self.reencrypt_group(addr, old_values, new_value, mem, &mut reads, &mut writes);
        let admit = match &mut self.tenancy {
            Some(tc) => {
                let t = tc.tenant_of(addr);
                tc.storm_admit(t)
            }
            None => true,
        };
        if admit {
            plan.async_reads.extend(reads);
            plan.writes.extend(writes);
        } else if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(addr);
            tc.storm_defer(t, reads, writes);
        }
    }

    /// Resolves the read counter: compact layer first, original on
    /// fallback. Returns `(value, chain, hit)` with auxiliary traffic
    /// merged into the plan buffers.
    fn resolve_read_counter(
        &mut self,
        addr: SectorAddr,
        chain: &mut Vec<gpu_sim::DramReq>,
        async_reads: &mut Vec<gpu_sim::DramReq>,
        writes: &mut Vec<gpu_sim::DramReq>,
        violation: &mut Option<Violation>,
    ) -> (u64, bool) {
        if let Some(compact) = self.compact.as_mut() {
            let ca = compact.read(addr);
            chain.extend(ca.chain);
            writes.extend(ca.writes);
            if violation.is_none() {
                *violation = ca.violation;
            }
            if let Some(v) = ca.counter {
                return (v, ca.hit);
            }
            // Saturated or disabled: the original counter path follows,
            // sequentially (the paper's two-access cost).
            self.compact_fallbacks += 1;
            self.tel_compact_fallbacks.inc();
            if self.tel.enabled() {
                self.tel.event(Event::CompactFallback);
            }
            self.tracer
                .mark(self.cur_trace, "compact_fallback", addr.raw(), 0);
        }
        let oa = self.counters.read(addr);
        let hit = oa.hit;
        Self::merge_counter(oa, chain, async_reads, writes, violation);
        (self.counters.peek_value(addr), hit)
    }

    fn merge_counter(
        oa: CounterAccess,
        chain: &mut Vec<gpu_sim::DramReq>,
        async_reads: &mut Vec<gpu_sim::DramReq>,
        writes: &mut Vec<gpu_sim::DramReq>,
        violation: &mut Option<Violation>,
    ) {
        chain.extend(oa.chain);
        async_reads.extend(oa.async_reads);
        writes.extend(oa.writes);
        if violation.is_none() {
            *violation = oa.violation;
        }
    }

    /// Re-encrypts an overflowed counter group (same mechanics as the PSSM
    /// baseline). Traffic is emitted into `reads`/`writes` so the caller
    /// can book it inline or route it through the storm gate.
    fn reencrypt_group(
        &mut self,
        written: SectorAddr,
        old_values: &[u64],
        new_value: u64,
        mem: &mut BackingMemory,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
    ) {
        self.tracer.mark(
            self.cur_trace,
            "counter_overflow_spill",
            written.raw(),
            old_values.len() as u64,
        );
        let group = self.counters.layout().group_of(written);
        let first = self.counters.layout().group_first_sector(group);
        // Gather the group's affected resident sectors, then run the
        // old-counter decrypts, new-counter encrypts, and MAC refreshes
        // as three batches instead of sector-at-a-time.
        let mut data: Vec<[u8; 32]> = Vec::with_capacity(old_values.len());
        let mut old_at: Vec<(SectorAddr, u64)> = Vec::with_capacity(old_values.len());
        for (i, old) in old_values.iter().enumerate() {
            let sector = SectorAddr::new(first.raw() + (i as u64) * 32);
            if sector == written {
                continue;
            }
            // Sectors still in the compact regime are encrypted under
            // their compact counter; the original-counter reset does not
            // affect them.
            if let Some(compact) = &self.compact {
                if !compact.uses_original(sector) {
                    continue;
                }
            }
            let Some(ct) = mem.read(sector) else {
                continue;
            };
            data.push(ct);
            old_at.push((sector, *old));
        }
        let tenancy = self.tenancy.as_ref();
        plane::decrypt_many_effective(&self.cipher, tenancy, &mut data, &old_at);
        let plaintexts = data.clone();
        let new_at: Vec<(SectorAddr, u64)> = old_at.iter().map(|&(s, _)| (s, new_value)).collect();
        plane::encrypt_many_effective(&self.cipher, tenancy, &mut data, &new_at);
        for (ct, &(sector, _)) in data.iter().zip(new_at.iter()) {
            mem.write(sector, *ct);
            reads.push(DramReq::new(sector.raw(), 32, TrafficClass::Data));
            writes.push(DramReq::new(sector.raw(), 32, TrafficClass::Data));
        }
        self.macs.update_silently_many(&plaintexts, &new_at);
    }

    /// True while the value-verification fast path is in use (configured
    /// and not frozen by the degradation ladder). Under tenancy this is
    /// the any-tenant view; per-address scoping is
    /// [`Self::verifier_frozen_for`].
    pub fn verifier_active(&self) -> bool {
        self.verifier.is_some() && !self.verifier_frozen
    }

    /// True when `tenant`'s value-verification fast path is still live
    /// (tenancy only; single-tenant callers use
    /// [`Self::verifier_active`]).
    pub fn verifier_active_for(&self, tenant: u32) -> bool {
        self.verifier.is_some() && !self.verifier_frozen && !self.frozen_tenants.contains(&tenant)
    }

    /// Whether the degradation ladder has frozen the fast path for reads
    /// of `addr`: per-tenant under tenancy, global otherwise.
    fn verifier_frozen_for(&self, addr: SectorAddr) -> bool {
        if self.verifier_frozen {
            return true;
        }
        match &self.tenancy {
            Some(tc) => self.frozen_tenants.contains(&tc.tenant_of(addr)),
            None => false,
        }
    }

    /// The counter a read of `addr` would decrypt with right now, without
    /// generating traffic: the compact value while that layer serves the
    /// sector, the original split value otherwise.
    fn live_counter(&self, addr: SectorAddr) -> u64 {
        if let Some(c) = &self.compact {
            if let Some(v) = c.peek_live(addr) {
                return v;
            }
        }
        self.counters.peek_value(addr)
    }

    /// Checks one counter candidate during crash recovery: the persistent
    /// MAC first (under the effective cipher, then — mid-rotation — the
    /// pending new generation), then the pinned-value screen the same
    /// way.
    fn candidate_ok(&self, addr: SectorAddr, v: u64, mem: &BackingMemory) -> Option<Candidate> {
        let pending = self
            .tenancy
            .as_ref()
            .and_then(|tc| tc.pending_new_gen(addr));
        let pt = self.read_plaintext(addr, v, mem);
        if self.macs.verify(addr, &pt, v) {
            return Some(Candidate {
                by_mac: true,
                new_gen: false,
            });
        }
        if let Some(cipher) = pending {
            let npt = self.read_plaintext_with(cipher, addr, v, mem);
            if self.macs.verify(addr, &npt, v) {
                return Some(Candidate {
                    by_mac: true,
                    new_gen: true,
                });
            }
        }
        if self
            .verifier
            .as_ref()
            .is_some_and(|ver| ver.screen_pinned(&pt))
        {
            return Some(Candidate {
                by_mac: false,
                new_gen: false,
            });
        }
        if let Some(cipher) = pending {
            let npt = self.read_plaintext_with(cipher, addr, v, mem);
            if self
                .verifier
                .as_ref()
                .is_some_and(|ver| ver.screen_pinned(&npt))
            {
                return Some(Candidate {
                    by_mac: false,
                    new_gen: true,
                });
            }
        }
        None
    }

    /// Scans candidate counters in order, returning the first that
    /// verifies. Semantically identical to calling
    /// [`Self::candidate_ok`] per candidate, but the decrypts and MAC
    /// probes run as batched cipher calls over chunks of the scan: the
    /// per-candidate check order (effective-generation MAC, pending MAC,
    /// effective value screen, pending value screen) is preserved by
    /// walking each chunk's verdicts in candidate order.
    fn scan_candidates(
        &self,
        addr: SectorAddr,
        vs: &[u64],
        mem: &BackingMemory,
    ) -> Option<(u64, Candidate)> {
        let pending = self
            .tenancy
            .as_ref()
            .and_then(|tc| tc.pending_new_gen(addr));
        let effective = self.cipher_for(addr);
        let ct = mem.read(addr);
        const SCAN_CHUNK: usize = 16;
        for chunk in vs.chunks(SCAN_CHUNK) {
            let at: Vec<(SectorAddr, u64)> = chunk.iter().map(|&v| (addr, v)).collect();
            let eff_pts = Self::decrypt_candidates(effective, ct, &at);
            let eff_mac = self.macs.verify_many(&eff_pts, &at);
            let (pend_pts, pend_mac) = match pending {
                Some(cipher) => {
                    let pts = Self::decrypt_candidates(cipher, ct, &at);
                    let ok = self.macs.verify_many(&pts, &at);
                    (Some(pts), Some(ok))
                }
                None => (None, None),
            };
            for (i, &v) in chunk.iter().enumerate() {
                if eff_mac[i] {
                    return Some((
                        v,
                        Candidate {
                            by_mac: true,
                            new_gen: false,
                        },
                    ));
                }
                if pend_mac.as_ref().is_some_and(|m| m[i]) {
                    return Some((
                        v,
                        Candidate {
                            by_mac: true,
                            new_gen: true,
                        },
                    ));
                }
                if self
                    .verifier
                    .as_ref()
                    .is_some_and(|ver| ver.screen_pinned(&eff_pts[i]))
                {
                    return Some((
                        v,
                        Candidate {
                            by_mac: false,
                            new_gen: false,
                        },
                    ));
                }
                if let Some(pts) = &pend_pts {
                    if self
                        .verifier
                        .as_ref()
                        .is_some_and(|ver| ver.screen_pinned(&pts[i]))
                    {
                        return Some((
                            v,
                            Candidate {
                                by_mac: false,
                                new_gen: true,
                            },
                        ));
                    }
                }
            }
        }
        None
    }

    /// Decrypts the (single) resident ciphertext under every candidate
    /// counter in one batched call; a non-resident sector reads as zeros
    /// under any counter, matching [`Self::read_plaintext_with`].
    fn decrypt_candidates(
        cipher: &DataCipher,
        ct: Option<[u8; 32]>,
        at: &[(SectorAddr, u64)],
    ) -> Vec<[u8; 32]> {
        let mut pts = vec![ct.unwrap_or([0; 32]); at.len()];
        if ct.is_some() {
            cipher.decrypt_many(&mut pts, at);
        }
        pts
    }

    /// Repairs the MAC of a value-vouched sector in place, decrypting
    /// under the generation the candidate verified with.
    fn repair_mac(&mut self, addr: SectorAddr, v: u64, new_gen: bool, mem: &BackingMemory) {
        let pt = if new_gen {
            match self
                .tenancy
                .as_ref()
                .and_then(|tc| tc.pending_new_gen(addr))
            {
                Some(cipher) => self.read_plaintext_with(cipher, addr, v, mem),
                None => return,
            }
        } else {
            self.read_plaintext(addr, v, mem)
        };
        self.macs.update_silently(addr, &pt, v);
    }

    /// Accepts candidate `v` for `addr`: places the value in the layer that
    /// serves the sector and repairs the MAC if it was vouched by value.
    fn accept_candidate(&mut self, addr: SectorAddr, v: u64, cand: Candidate, mem: &BackingMemory) {
        let compact_live = match &self.compact {
            Some(c) if !c.is_disabled(addr) => v < u64::from(c.kind().saturation()),
            _ => false,
        };
        if compact_live {
            self.compact
                .as_mut()
                .expect("checked above")
                .restore_value(addr, v as u8);
        } else {
            self.counters.restore_value(addr, v);
            // A sector recovered past the compact range must read as
            // saturated so the original path serves it.
            if let Some(c) = self.compact.as_mut() {
                if !c.is_disabled(addr) {
                    let sat = c.kind().saturation();
                    c.restore_value(addr, sat);
                }
            }
        }
        if !cand.by_mac {
            self.repair_mac(addr, v, cand.new_gen, mem);
        }
    }

    /// Phoenix-style recovery of one sector: current value first, then the
    /// compact range, then the split range from the recovery floor.
    /// Returns the kind and whether the sector verified under the pending
    /// new generation.
    fn recover_sector(
        &mut self,
        addr: SectorAddr,
        mem: &BackingMemory,
    ) -> Option<(RecoverKind, bool)> {
        let live = self.live_counter(addr);
        if let Some(cand) = self.candidate_ok(addr, live, mem) {
            if !cand.by_mac {
                self.repair_mac(addr, live, cand.new_gen, mem);
                return Some((RecoverKind::Value, cand.new_gen));
            }
            return Some((RecoverKind::Consistent, cand.new_gen));
        }
        if let Some(c) = &self.compact {
            if !c.is_disabled(addr) {
                let vs: Vec<u64> = (0..u64::from(c.kind().saturation()))
                    .filter(|&v| v != live)
                    .collect();
                if let Some((v, cand)) = self.scan_candidates(addr, &vs, mem) {
                    self.accept_candidate(addr, v, cand, mem);
                    return Some((
                        if cand.by_mac {
                            RecoverKind::Mac
                        } else {
                            RecoverKind::Value
                        },
                        cand.new_gen,
                    ));
                }
            }
        }
        let base = self.counters.recovery_floor(addr);
        let vs: Vec<u64> = (base..base.saturating_add(RECOVERY_PROBE_BOUND))
            .filter(|&v| v != live)
            .collect();
        if let Some((v, cand)) = self.scan_candidates(addr, &vs, mem) {
            self.accept_candidate(addr, v, cand, mem);
            return Some((
                if cand.by_mac {
                    RecoverKind::Mac
                } else {
                    RecoverKind::Value
                },
                cand.new_gen,
            ));
        }
        None
    }
}

impl SecurityEngine for PlutusEngine {
    fn name(&self) -> &'static str {
        "plutus"
    }

    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory) {
        self.install_many(&[(addr, *plaintext)], mem);
    }

    fn install_many(&mut self, sectors: &[(SectorAddr, [u8; 32])], mem: &mut BackingMemory) {
        // Counter 0 in both the compact and original layers.
        plane::install_many(
            &self.cipher,
            &mut self.tenancy,
            &mut self.macs,
            sectors,
            |_| 0,
            mem,
        );
    }

    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan {
        self.fills += 1;
        let _span = cached_span(&self.tel, &mut self.span_fill, "span.engine.fill.ns");
        let mut plan = FillPlan::default();
        let mut chain = Vec::new();
        let (ctr, ctr_hit) = self.resolve_read_counter(
            addr,
            &mut chain,
            &mut plan.async_reads,
            &mut plan.writes,
            &mut plan.violation,
        );
        if !chain.is_empty() {
            plan.pre_chains.push(chain);
        }

        let plaintext = self.read_plaintext(addr, ctr, mem);
        plan.plaintext = plaintext;

        let lat = self.cfg.mem.latencies;
        // Decrypt: XTS serializes after data; CME (compact-only ablations)
        // overlaps unless the counter had to be fetched.
        plan.crypto_latency = if self.cipher.overlaps_fetch() {
            if ctr_hit {
                0
            } else {
                lat.aes_latency
            }
        } else {
            lat.aes_latency
        };

        let frozen = self.verifier_frozen_for(addr);
        let verdict = if frozen {
            // Degraded mode (global, or this address's tenant): the fast
            // path is frozen; every read takes the conventional
            // parallel-MAC branch below.
            None
        } else {
            self.verifier.as_mut().map(|v| v.verify_read(&plaintext))
        };
        match verdict {
            Some(Verdict::Verified) => {
                // Integrity assured by value locality: no MAC at all.
                plan.verified_by_value = true;
                self.mac_fetches_avoided += 1;
                self.tel_mac_avoided.inc();
                if self.tel.enabled() {
                    self.tel.event(Event::ValueVerified);
                    self.tel.event(Event::MacFetchAvoided);
                }
                self.tracer
                    .mark(self.cur_trace, "value_vouch", addr.raw(), 0);
            }
            Some(Verdict::NeedMac) => {
                // Deferred MAC: fetched only now, after decryption. A
                // mismatch here means the value screen rejected the sector
                // and the deferred MAC confirmed it (Fig. 11 read flow) —
                // attributed to the value-verification layer.
                let ma = self.macs.read(addr);
                plan.post_chain = ma.chain;
                plan.writes.extend(ma.writes);
                plan.post_latency = lat.mac_latency;
                if !self.macs.verify(addr, &plaintext, ctr) && plan.violation.is_none() {
                    plan.violation = Some(Violation::ValueMismatch { addr });
                }
            }
            None => {
                // Value verification disabled or frozen: conventional
                // parallel MAC.
                let ma = self.macs.read(addr);
                if !ma.chain.is_empty() {
                    plan.pre_chains.push(ma.chain);
                }
                plan.writes.extend(ma.writes);
                plan.crypto_latency += lat.mac_latency;
                if !self.macs.verify(addr, &plaintext, ctr) && plan.violation.is_none() {
                    // A sector whose MAC update was legitimately skipped
                    // before the freeze has no fresh MAC; the pinned-value
                    // screen (the guarantee skip-MAC relied on) still
                    // vouches for it. Repair the MAC so the fallback is
                    // one-time.
                    let vouched = frozen
                        && self
                            .verifier
                            .as_ref()
                            .is_some_and(|v| v.screen_pinned(&plaintext));
                    if vouched {
                        self.macs.update_silently(addr, &plaintext, ctr);
                    } else {
                        plan.violation = Some(Violation::MacMismatch { addr });
                    }
                }
            }
        }
        // Background tenancy work rides on the fill's plan.
        self.rotation_step(mem, &mut plan.async_reads, &mut plan.writes);
        self.drain_storm(addr, &mut plan.async_reads, &mut plan.writes);
        plan
    }

    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan {
        self.writebacks += 1;
        let _span = cached_span(
            &self.tel,
            &mut self.span_writeback,
            "span.engine.writeback.ns",
        );
        let mut plan = WritePlan::default();
        let mut chain = Vec::new();
        if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(addr);
            tc.storm_tick(t);
        }

        // Advance the counter through the compact layer when present.
        let ctr = if let Some(compact) = self.compact.as_mut() {
            let ca = compact.increment(addr);
            chain.extend(ca.chain);
            plan.writes.extend(ca.writes);
            if plan.violation.is_none() {
                plan.violation = ca.violation;
            }
            let propagate = ca.propagate;
            let block_disable = ca.block_disable.clone();
            let value = match ca.counter {
                Some(v) => v,
                None => {
                    let oa = if let Some(sat) = propagate {
                        // Saturating write: copy the compact value into the
                        // original split counter.
                        self.counters.raise_to(addr, sat)
                    } else {
                        self.compact_fallbacks += 1;
                        self.tel_compact_fallbacks.inc();
                        if self.tel.enabled() {
                            self.tel.event(Event::CompactFallback);
                        }
                        self.tracer
                            .mark(self.cur_trace, "compact_fallback", addr.raw(), 0);
                        self.counters.increment(addr)
                    };
                    let value = oa.value;
                    if let Some(old) = oa.overflow_old_values.clone() {
                        Self::merge_counter(
                            oa,
                            &mut chain,
                            &mut plan.async_reads,
                            &mut plan.writes,
                            &mut plan.violation,
                        );
                        self.book_overflow(addr, &old, value, mem, &mut plan);
                    } else {
                        Self::merge_counter(
                            oa,
                            &mut chain,
                            &mut plan.async_reads,
                            &mut plan.writes,
                            &mut plan.violation,
                        );
                    }
                    value
                }
            };
            // Adaptive block disable: copy every unsaturated compact value
            // into the original counters (no re-encryption needed).
            if let Some(copies) = block_disable {
                for (s, v) in copies {
                    let oa = self.counters.raise_to(s, v);
                    Self::merge_counter(
                        oa,
                        &mut chain,
                        &mut plan.async_reads,
                        &mut plan.writes,
                        &mut plan.violation,
                    );
                }
            }
            value
        } else {
            let oa = self.counters.increment(addr);
            let value = oa.value;
            if let Some(old) = oa.overflow_old_values.clone() {
                Self::merge_counter(
                    oa,
                    &mut chain,
                    &mut plan.async_reads,
                    &mut plan.writes,
                    &mut plan.violation,
                );
                self.book_overflow(addr, &old, value, mem, &mut plan);
            } else {
                Self::merge_counter(
                    oa,
                    &mut chain,
                    &mut plan.async_reads,
                    &mut plan.writes,
                    &mut plan.violation,
                );
            }
            value
        };
        if !chain.is_empty() {
            plan.pre_chains.push(chain);
        }

        // Encrypt and store.
        let mut ct = *plaintext;
        self.cipher_for(addr).encrypt(&mut ct, addr, ctr);
        mem.write(addr, ct);
        if let Some(tc) = &mut self.tenancy {
            tc.note_owned(addr);
        }

        // MAC update, unless the pinned value screen guarantees the next
        // read verifies by value.
        let lat = self.cfg.mem.latencies;
        let screen = if self.verifier_frozen_for(addr) {
            None // degraded mode: never skip MAC updates
        } else {
            self.verifier.as_mut().map(|v| v.screen_write(plaintext))
        };
        let skip = match screen {
            Some(WriteScreen::SkipMac) => {
                self.mac_updates_skipped += 1;
                self.tel_mac_skipped.inc();
                if self.tel.enabled() {
                    self.tel.event(Event::MacUpdateSkipped);
                }
                self.tracer.mark(self.cur_trace, "mac_skip", addr.raw(), 0);
                true
            }
            _ => false,
        };
        if skip {
            plan.crypto_latency = lat.aes_latency;
        } else {
            let ma = self.macs.write(addr, plaintext, ctr);
            plan.writes.extend(ma.writes);
            plan.crypto_latency = lat.aes_latency + lat.mac_latency;
        }
        self.rotation_step(mem, &mut plan.async_reads, &mut plan.writes);
        self.drain_storm(addr, &mut plan.async_reads, &mut plan.writes);
        plan
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.counters.attach_telemetry(tel);
        self.macs.attach_telemetry(tel);
        if let Some(v) = self.verifier.as_mut() {
            v.attach_telemetry(tel);
        }
        if let Some(c) = self.compact.as_mut() {
            c.attach_telemetry(tel);
        }
        self.tel_mac_avoided = tel.counter("engine.mac_fetches_avoided");
        self.tel_mac_skipped = tel.counter("engine.mac_updates_skipped");
        self.tel_compact_fallbacks = tel.counter("engine.compact_fallbacks");
        self.span_fill = None;
        self.span_writeback = None;
        self.tracer = tel.tracer();
        self.tel = tel.clone();
    }

    fn begin_access_trace(&mut self, id: TraceId) {
        self.cur_trace = id;
    }

    fn extra_stats(&self) -> Vec<(String, u64)> {
        let (ch, cm, bf, bh) = self.counters.stats();
        let (mh, mm) = self.macs.stats();
        let mut out = vec![
            ("fills".into(), self.fills),
            ("writebacks".into(), self.writebacks),
            ("ctr_cache_hits".into(), ch),
            ("ctr_cache_misses".into(), cm),
            ("bmt_node_fetches".into(), bf),
            ("bmt_node_hits".into(), bh),
            ("mac_cache_hits".into(), mh),
            ("mac_cache_misses".into(), mm),
            ("mac_fetches_avoided".into(), self.mac_fetches_avoided),
            ("mac_updates_skipped".into(), self.mac_updates_skipped),
            ("compact_fallbacks".into(), self.compact_fallbacks),
        ];
        if let Some(v) = &self.verifier {
            let (ok, need, wskip, wmac) = v.stats();
            let (vh, vm, promo) = v.cache().stats();
            out.push(("vv_reads_verified".into(), ok));
            out.push(("vv_reads_need_mac".into(), need));
            out.push(("vv_writes_skipped".into(), wskip));
            out.push(("vv_writes_with_mac".into(), wmac));
            out.push(("value_cache_hits".into(), vh));
            out.push(("value_cache_misses".into(), vm));
            out.push(("value_cache_promotions".into(), promo));
        }
        if let Some(c) = &self.compact {
            let (h, m, sat, dis, tf) = c.stats();
            out.push(("compact_cache_hits".into(), h));
            out.push(("compact_cache_misses".into(), m));
            out.push(("compact_saturations".into(), sat));
            out.push(("compact_block_disables".into(), dis));
            out.push(("compact_tree_fetches".into(), tf));
        }
        out.push(("fill_failures".into(), self.fill_failures));
        out.push((
            "degraded_verifier_frozen".into(),
            u64::from(self.verifier_frozen),
        ));
        out.push(("degraded_blocks_frozen".into(), self.blocks_frozen));
        if let Some(tc) = &self.tenancy {
            out.extend(tc.extra_stats());
            for (&t, &n) in &self.tenant_fill_failures {
                out.push((format!("ladder_fill_failures_t{t}"), n));
            }
            for &t in &self.frozen_tenants {
                out.push((format!("ladder_frozen_t{t}"), 1));
            }
        }
        out
    }

    fn start_key_rotation(&mut self, tenant: u32) -> bool {
        match &mut self.tenancy {
            Some(tc) => tc.start_rotation(tenant),
            None => false,
        }
    }

    fn rotation_active(&self) -> bool {
        self.tenancy.as_ref().is_some_and(|tc| tc.rotation_active())
    }

    fn inject_fault(&mut self, addr: SectorAddr, fault: MetaFault) -> bool {
        // While a sector's live counter is served by the compact layer, the
        // original split counter (and the main BMT protecting it) are never
        // consulted on its read path — faults against them are not applied,
        // so campaigns don't count honest-data reads as escapes.
        let original_live = self.compact.as_ref().is_none_or(|c| c.uses_original(addr));
        match fault {
            MetaFault::RollbackCounter { value } => {
                original_live && self.counters.tamper_minor(addr, value)
            }
            MetaFault::TamperMac => {
                self.macs.tamper(addr);
                true
            }
            MetaFault::TamperBmtNode => {
                if original_live {
                    self.counters.tamper_bmt(addr);
                }
                original_live
            }
            MetaFault::RollbackCompact { value } => match self.compact.as_mut() {
                Some(c) if !c.uses_original(addr) => c.tamper(addr, value),
                _ => false,
            },
        }
    }

    fn note_fill_failure(&mut self, addr: SectorAddr, _recovered: bool) {
        self.fill_failures += 1;
        if let Some(tc) = &self.tenancy {
            // Tenancy: the ladder is scoped to the failing address's
            // tenant — an attacked tenant's freeze never widens.
            let tenant = tc.tenant_of(addr);
            let n = self.tenant_fill_failures.entry(tenant).or_insert(0);
            *n += 1;
            if *n >= VERIFIER_FREEZE_FAILURES
                && self.verifier.is_some()
                && self.frozen_tenants.insert(tenant)
            {
                if self.tel.enabled() {
                    self.tel.event(Event::Degraded {
                        mode: format!("value_cache_disabled_t{tenant}"),
                        addr: addr.raw(),
                    });
                }
                self.tracer.mark(self.cur_trace, "degrade", addr.raw(), 1);
            }
        } else if !self.verifier_frozen
            && self.verifier.is_some()
            && self.fill_failures >= VERIFIER_FREEZE_FAILURES
        {
            self.verifier_frozen = true;
            if self.tel.enabled() {
                self.tel.event(Event::Degraded {
                    mode: "value_cache_disabled".into(),
                    addr: addr.raw(),
                });
            }
            self.tracer.mark(self.cur_trace, "degrade", addr.raw(), 1);
        }
        if let Some(compact) = self.compact.as_mut() {
            let block = compact.block_index(addr);
            let n = self.block_failures.entry(block).or_insert(0);
            *n += 1;
            if *n >= BLOCK_FREEZE_FAILURES && !compact.is_disabled(addr) {
                // Freeze the failing block onto the split-counter path.
                // The transition is out-of-band (no DRAM traffic charged):
                // it is rare and its copies move counter state only.
                let copies = compact.freeze_block(addr);
                for (s, v) in copies {
                    let _ = self.counters.raise_to(s, v);
                }
                self.blocks_frozen += 1;
                if self.tel.enabled() {
                    self.tel.event(Event::Degraded {
                        mode: "compact_block_frozen".into(),
                        addr: addr.raw(),
                    });
                }
                self.tracer.mark(self.cur_trace, "degrade", addr.raw(), 2);
            }
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
            .and_then(|a| a.downcast_ref::<PlutusEngine>())
        else {
            return false;
        };
        // MACs are write-through persistent; the pinned value set is tiny,
        // monotone, and flushed on promotion — both survive the crash.
        let persistent_macs = self.macs.clone();
        let persistent_pinned = self.verifier.as_ref().map(|v| v.pinned_keys());
        *self = ck.clone();
        self.macs = persistent_macs;
        if let (Some(v), Some(keys)) = (self.verifier.as_mut(), persistent_pinned) {
            v.graft_pinned(&keys);
        }
        true
    }

    fn recover(
        &mut self,
        mem: &BackingMemory,
        sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport::default();
        // Highest sector proven to already carry a mid-rotation new
        // generation (the walk is address-ordered, so everything up to it
        // is done; see the PSSM engine).
        let mut max_new_gen: Option<u64> = None;
        for &addr in sectors {
            match self.recover_sector(addr, mem) {
                Some((kind, new_gen)) => {
                    if new_gen {
                        max_new_gen = Some(max_new_gen.map_or(addr.raw(), |m| m.max(addr.raw())));
                    }
                    match kind {
                        RecoverKind::Consistent => report.already_consistent += 1,
                        RecoverKind::Mac => report.recovered_by_mac += 1,
                        RecoverKind::Value => report.recovered_by_value += 1,
                    }
                    // Re-note ownership: the revert may have rolled the
                    // registry back past sectors that verifiably hold
                    // our ciphertext; a rotation walk must not skip them.
                    if let Some(tc) = &mut self.tenancy {
                        tc.note_owned(addr);
                    }
                }
                None => report.failed.push(addr.raw()),
            }
        }
        if let Some(tc) = &mut self.tenancy {
            tc.reconcile_frontier(max_new_gen);
        }
        Ok(report)
    }

    fn peek_plaintext(&self, addr: SectorAddr, mem: &BackingMemory) -> Option<[u8; 32]> {
        Some(self.read_plaintext(addr, self.live_counter(addr), mem))
    }
}

/// Factory building [`PlutusEngine`] instances per partition.
#[derive(Debug, Clone)]
pub struct PlutusFactory {
    cfg: PlutusConfig,
}

impl EngineFactory for PlutusFactory {
    fn build(&self, _partition: usize) -> Box<dyn SecurityEngine> {
        Box::new(PlutusEngine::new(self.cfg.clone()))
    }

    fn scheme_name(&self) -> &'static str {
        "plutus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::CompactKind;
    use gpu_sim::TrafficClass;

    fn engine() -> (PlutusEngine, BackingMemory) {
        (
            PlutusEngine::new(PlutusConfig::test_small()),
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
    fn install_then_read_roundtrips() {
        let (mut e, mut mem) = engine();
        e.install(sector(5), &[9; 32], &mut mem);
        let fill = e.on_fill(sector(5), &mut mem);
        assert_eq!(fill.plaintext, [9; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn first_fill_uses_compact_not_original_counters() {
        let (mut e, mut mem) = engine();
        let fill = e.on_fill(sector(0), &mut mem);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::CompactCounter));
        assert!(
            !classes.contains(&TrafficClass::Counter),
            "unsaturated sectors must not touch original counters"
        );
        assert!(!classes.contains(&TrafficClass::BmtNode));
    }

    #[test]
    fn repeated_value_reads_avoid_mac_entirely() {
        let (mut e, mut mem) = engine();
        // Two sectors with the same hot values in the same MAC unit region.
        e.install(sector(0), &[0x11; 32], &mut mem);
        e.install(sector(100), &[0x11; 32], &mut mem);
        let first = e.on_fill(sector(0), &mut mem);
        // Cold value cache: MAC deferred-fetched.
        assert!(!first.post_chain.is_empty() || first.post_latency > 0);
        let second = e.on_fill(sector(100), &mut mem);
        // Values now cached: no MAC fetch, no MAC latency.
        assert!(second.post_chain.is_empty());
        assert_eq!(second.post_latency, 0);
        assert!(second.violation.is_none());
        assert!(e.mac_fetches_avoided >= 1);
    }

    #[test]
    fn hot_writes_skip_mac_updates() {
        let (mut e, mut mem) = engine();
        for i in 0..30u64 {
            e.on_writeback(sector(i), &[0x77; 32], &mut mem);
        }
        assert!(
            e.mac_updates_skipped > 0,
            "hot constant writes must skip MAC updates"
        );
        // And the skipped sectors still read back clean (value-verified).
        for i in 0..30u64 {
            let fill = e.on_fill(sector(i), &mut mem);
            assert_eq!(fill.plaintext, [0x77; 32]);
            assert!(
                fill.violation.is_none(),
                "skip-MAC sector must verify by value"
            );
        }
    }

    #[test]
    fn data_tamper_detected() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[0x42; 32], &mut mem);
        let mut mask = [0u8; 32];
        mask[7] = 0x20;
        mem.corrupt(sector(0), &mask);
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(
            fill.violation.is_some(),
            "tampered data must fail value verification and then the MAC"
        );
    }

    #[test]
    fn replay_detected() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        let old = mem.snapshot(sector(0)).unwrap();
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        assert!(mem.replay(sector(0), old));
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(
            fill.violation.is_some(),
            "replayed ciphertext must be detected"
        );
    }

    #[test]
    fn compact_saturation_falls_back_to_original() {
        let (mut e, mut mem) = engine();
        // 3-bit compact saturates on the 7th write.
        for _ in 0..7 {
            e.on_writeback(sector(0), &[5; 32], &mut mem);
        }
        // Counter continuity across the handoff.
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [5; 32]);
        assert!(fill.violation.is_none());
        // Further writes use the original path.
        e.on_writeback(sector(0), &[6; 32], &mut mem);
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [6; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn adaptive_disable_keeps_all_sectors_readable() {
        let (mut e, mut mem) = engine();
        // Partially write one sector, then saturate 8 others to trigger the
        // block disable with a pending unsaturated copy.
        e.on_writeback(sector(60), &[0xee; 32], &mut mem);
        for s in 0..8u64 {
            for _ in 0..7 {
                e.on_writeback(sector(s), &[s as u8; 32], &mut mem);
            }
        }
        let (.., disables, _) = e.compact_mut().unwrap().stats();
        assert!(
            disables >= 1,
            "threshold saturations must disable the block"
        );
        // Every sector still decrypts and verifies.
        let fill = e.on_fill(sector(60), &mut mem);
        assert_eq!(fill.plaintext, [0xee; 32]);
        assert!(fill.violation.is_none());
        for s in 0..8u64 {
            let fill = e.on_fill(sector(s), &mut mem);
            assert_eq!(fill.plaintext, [s as u8; 32]);
            assert!(fill.violation.is_none());
        }
    }

    #[test]
    fn value_only_config_uses_original_counters() {
        let mut cfg = PlutusConfig::value_verify_only();
        cfg.mem.protected_bytes = 1 << 20;
        let mut e = PlutusEngine::new(cfg);
        let mut mem = BackingMemory::new();
        let fill = e.on_fill(sector(0), &mut mem);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::Counter));
        assert!(!classes.contains(&TrafficClass::CompactCounter));
    }

    #[test]
    fn compact_only_config_fetches_mac_in_parallel() {
        let mut cfg = PlutusConfig::compact_only(CompactKind::Adaptive3);
        cfg.mem.protected_bytes = 1 << 20;
        let mut e = PlutusEngine::new(cfg);
        let mut mem = BackingMemory::new();
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(
            fill.post_chain.is_empty(),
            "no deferred MAC without value verification"
        );
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::Mac));
    }

    #[test]
    fn no_tree_mode_removes_tree_traffic() {
        let mut cfg = PlutusConfig::full_no_tree();
        cfg.mem.protected_bytes = 1 << 20;
        let mut e = PlutusEngine::new(cfg);
        let mut mem = BackingMemory::new();
        // Saturate a sector so the original counter path is exercised too.
        for _ in 0..8 {
            e.on_writeback(sector(0), &[1; 32], &mut mem);
        }
        let fill = e.on_fill(sector(0), &mut mem);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(!classes.contains(&TrafficClass::BmtNode));
        assert!(fill.violation.is_none());
    }

    #[test]
    fn frozen_verifier_keeps_skip_mac_sectors_readable() {
        let (mut e, mut mem) = engine();
        for i in 0..30u64 {
            e.on_writeback(sector(i), &[0x77; 32], &mut mem);
        }
        assert!(e.mac_updates_skipped > 0, "test needs skip-MAC sectors");
        for _ in 0..VERIFIER_FREEZE_FAILURES {
            e.note_fill_failure(sector(0), true);
        }
        assert!(!e.verifier_active(), "ladder must freeze the fast path");
        // Sectors with no fresh MAC are vouched by the pinned screen.
        for i in 0..30u64 {
            let fill = e.on_fill(sector(i), &mut mem);
            assert_eq!(fill.plaintext, [0x77; 32]);
            assert!(fill.violation.is_none(), "sector {i} spuriously flagged");
        }
        // Degraded mode still detects real tampering.
        let mut mask = [0u8; 32];
        mask[3] = 9;
        mem.corrupt(sector(0), &mask);
        assert!(e.on_fill(sector(0), &mut mem).violation.is_some());
    }

    #[test]
    fn degraded_engine_still_detects_replay() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        for _ in 0..VERIFIER_FREEZE_FAILURES {
            e.note_fill_failure(sector(9), true);
        }
        let old = mem.snapshot(sector(0)).unwrap();
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        assert!(mem.replay(sector(0), old));
        assert!(e.on_fill(sector(0), &mut mem).violation.is_some());
    }

    #[test]
    fn repeated_block_failures_freeze_compact_block() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem); // compact value 1
        for _ in 0..BLOCK_FREEZE_FAILURES {
            e.note_fill_failure(sector(0), true);
        }
        assert!(e.compact_mut().unwrap().uses_original(sector(0)));
        // The copied counter keeps the sector decryptable on the new path.
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [1; 32]);
        assert!(fill.violation.is_none());
        let stats = e.extra_stats();
        let frozen = stats
            .iter()
            .find(|(n, _)| n == "degraded_blocks_frozen")
            .unwrap()
            .1;
        assert_eq!(frozen, 1);
    }

    #[test]
    fn crash_recovery_restores_compact_and_split_state() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem); // compact regime
        for _ in 0..9 {
            e.on_writeback(sector(1), &[2; 32], &mut mem); // saturates → split
        }
        let ck = e.checkpoint().expect("plutus supports checkpointing");
        e.on_writeback(sector(0), &[3; 32], &mut mem);
        e.on_writeback(sector(1), &[4; 32], &mut mem);
        e.on_writeback(sector(5), &[5; 32], &mut mem); // first write post-ck
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty(), "failed: {:?}", report.failed);
        for (s, want) in [(0u64, [3u8; 32]), (1, [4; 32]), (5, [5; 32])] {
            let f = e.on_fill(sector(s), &mut mem);
            assert_eq!(f.plaintext, want, "sector {s} diverged after recovery");
            assert!(f.violation.is_none(), "sector {s} spuriously flagged");
        }
    }

    #[test]
    fn crash_recovery_vouches_skip_mac_sectors_by_pinned_values() {
        let (mut e, mut mem) = engine();
        // Pin a hot pattern; later writes of it skip their MAC updates.
        for i in 0..30u64 {
            e.on_writeback(sector(i), &[0x77; 32], &mut mem);
        }
        assert!(e.mac_updates_skipped > 0);
        let ck = e.checkpoint().unwrap();
        e.on_writeback(sector(40), &[0x77; 32], &mut mem); // skip-MAC, post-ck
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty(), "failed: {:?}", report.failed);
        assert!(
            report.recovered_by_value >= 1,
            "pinned screen must vouch for MAC-skipped sectors"
        );
        let f = e.on_fill(sector(40), &mut mem);
        assert_eq!(f.plaintext, [0x77; 32]);
        assert!(f.violation.is_none());
    }

    #[test]
    fn peek_plaintext_tracks_live_counter_across_layers() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[8; 32], &mut mem); // compact regime
        assert_eq!(e.peek_plaintext(sector(0), &mem), Some([8; 32]));
        for _ in 0..9 {
            e.on_writeback(sector(1), &[6; 32], &mut mem); // split regime
        }
        assert_eq!(e.peek_plaintext(sector(1), &mem), Some([6; 32]));
    }

    #[test]
    fn stats_expose_technique_counters() {
        let (mut e, mut mem) = engine();
        e.on_fill(sector(0), &mut mem);
        let stats = e.extra_stats();
        for key in [
            "mac_fetches_avoided",
            "compact_cache_misses",
            "vv_reads_need_mac",
        ] {
            assert!(stats.iter().any(|(n, _)| n == key), "missing stat {key}");
        }
    }

    fn tenant_engine() -> (PlutusEngine, BackingMemory) {
        use gpu_sim::TenantMap;
        use secure_mem::TenancyConfig;
        let mut map = TenantMap::new();
        map.add_range(0, 0x10000, 1);
        map.add_range(0x10000, 0x20000, 2);
        let mut cfg = PlutusConfig::test_small();
        cfg.mem.tenancy = Some(TenancyConfig::new(map, 11));
        (PlutusEngine::new(cfg), BackingMemory::new())
    }

    #[test]
    fn ladder_freeze_is_scoped_to_the_failing_tenant() {
        let (mut e, mut mem) = tenant_engine();
        let victim = SectorAddr::new(0x10040); // tenant 2
        e.on_writeback(victim, &[7; 32], &mut mem);
        // Attack tenant 1 past the freeze threshold.
        for _ in 0..VERIFIER_FREEZE_FAILURES {
            e.note_fill_failure(sector(0), true);
        }
        assert!(!e.verifier_active_for(1), "attacked tenant must freeze");
        assert!(e.verifier_active_for(2), "victim tenant must stay live");
        // Victim reads still use the value-verification fast path.
        let f = e.on_fill(victim, &mut mem);
        assert_eq!(f.plaintext, [7; 32]);
        assert!(f.violation.is_none());
        let stats = e.extra_stats();
        assert!(stats
            .iter()
            .any(|(n, v)| n == "ladder_frozen_t1" && *v == 1));
        assert!(!stats.iter().any(|(n, _)| n == "ladder_frozen_t2"));
    }

    #[test]
    fn tenant_rotation_preserves_plaintext_and_macs() {
        let (mut e, mut mem) = tenant_engine();
        for i in 0..20u64 {
            e.on_writeback(sector(i), &[i as u8; 32], &mut mem);
        }
        let before = mem.read(sector(0)).unwrap();
        assert!(e.start_key_rotation(1));
        let other = SectorAddr::new(0x10000);
        let mut guard = 0;
        while e.rotation_active() {
            e.on_fill(other, &mut mem);
            guard += 1;
            assert!(guard < 100, "rotation walk must terminate");
        }
        assert_ne!(mem.read(sector(0)).unwrap(), before, "ciphertext rotated");
        for i in 0..20u64 {
            let f = e.on_fill(sector(i), &mut mem);
            assert_eq!(f.plaintext, [i as u8; 32]);
            assert!(
                f.violation.is_none(),
                "sector {i} must verify post-rotation"
            );
        }
    }
}
