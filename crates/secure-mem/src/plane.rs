//! The protected-data plane shared by every secure engine.
//!
//! The engines differ only in where a sector's counter comes from (split
//! counters, the clean-region table, the compact layer). What happens to
//! ciphertext and tags once the counter is known lives here once, in
//! [`DataPlane`]: effective-cipher selection under tenancy, the
//! initial-image install, encrypt-and-store, overflow group
//! re-encryption behind the storm gate, the key-rotation walk, and
//! Phoenix-style crash recovery (the candidate scan and its
//! bookkeeping). Each engine hands the plane its live counter as a
//! closure.

use crate::cipher::DataCipher;
use crate::config::SecureMemConfig;
use crate::layout::Layout;
use crate::mac_system::MacSystem;
use crate::tenant::TenantCrypto;
use gpu_sim::{BackingMemory, DramReq, RecoveryReport, SectorAddr, TrafficClass};
use std::ops::Range;

/// Upper bound on split-counter candidates probed per sector during
/// Phoenix-style crash recovery (128 group overflows past the floor).
pub const RECOVERY_PROBE_BOUND: u64 = 1 << 14;

/// Candidates decrypted and MAC-verified per batched cipher call while
/// scanning.
const SCAN_CHUNK: usize = 16;

/// A recovery candidate that checked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Proven by the persistent MAC (vs vouched by the value screen).
    pub by_mac: bool,
    /// Verified under the pending new-generation cipher of a mid-flight
    /// key-rotation walk (the crash reverted the walk frontier).
    pub new_gen: bool,
}

/// How one sector's counter was settled during crash recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settled {
    /// The live (checkpoint-reverted) counter already checks out.
    Live(Candidate),
    /// A probed candidate checked out; carries the proven value.
    Probed(u64, Candidate),
}

impl Settled {
    fn candidate(self) -> Candidate {
        match self {
            Settled::Live(c) | Settled::Probed(_, c) => c,
        }
    }
}

/// The data cipher, the MAC subsystem and — under tenancy — the
/// per-tenant key table with its rotation walk and storm gate.
#[derive(Debug, Clone)]
pub struct DataPlane {
    cipher: DataCipher,
    macs: MacSystem,
    tenancy: Option<TenantCrypto>,
}

/// Decrypts what memory holds for `sector` under `ctr` and `cipher`;
/// unwritten device memory reads as zeros.
fn read_with(cipher: &DataCipher, sector: SectorAddr, ctr: u64, mem: &BackingMemory) -> [u8; 32] {
    match mem.read(sector) {
        Some(mut ct) => {
            cipher.decrypt(&mut ct, sector, ctr);
            ct
        }
        None => [0; 32],
    }
}

/// Decrypts the (single) resident ciphertext `ct` under every candidate
/// in one batched call; a non-resident sector reads as zeros under any
/// counter, matching [`read_with`].
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

impl DataPlane {
    /// Builds the plane from `cfg` (tenancy included when configured).
    pub fn new(cfg: &SecureMemConfig) -> Self {
        Self {
            cipher: DataCipher::new(cfg),
            macs: MacSystem::new(cfg),
            tenancy: cfg
                .tenancy
                .clone()
                .map(|t| TenantCrypto::new(cfg.cipher, t)),
        }
    }

    /// The MAC subsystem.
    pub fn macs(&self) -> &MacSystem {
        &self.macs
    }

    /// The MAC subsystem (attack hooks, telemetry, MAC reads and writes).
    pub fn macs_mut(&mut self) -> &mut MacSystem {
        &mut self.macs
    }

    /// Whether the data cipher overlaps pad generation with the data
    /// fetch (CME) rather than decrypting after it (XTS).
    pub fn overlaps_fetch(&self) -> bool {
        self.cipher.overlaps_fetch()
    }

    /// The tenant owning `addr` (tenancy only).
    pub fn tenant_of(&self, addr: SectorAddr) -> Option<u32> {
        self.tenancy.as_ref().map(|tc| tc.tenant_of(addr))
    }

    /// The effective cipher for `sector`: the single shared cipher, or —
    /// under tenancy — the owning tenant's current generation (old
    /// generation past a live rotation-walk frontier).
    fn cipher_for(&self, sector: SectorAddr) -> &DataCipher {
        match &self.tenancy {
            Some(tc) => tc.cipher_for(sector),
            None => &self.cipher,
        }
    }

    /// Decrypts (functionally) what memory holds for `sector` under
    /// counter `ctr` and the effective cipher.
    pub fn read_plaintext(&self, sector: SectorAddr, ctr: u64, mem: &BackingMemory) -> [u8; 32] {
        read_with(self.cipher_for(sector), sector, ctr, mem)
    }

    /// Calls `run` once per maximal run of consecutive `at` entries sharing
    /// one effective cipher — the overwhelmingly common case, since tenant
    /// boundaries are slab-aligned, is a single run.
    fn for_each_cipher_run(
        &self,
        at: &[(SectorAddr, u64)],
        mut run: impl FnMut(&DataCipher, Range<usize>),
    ) {
        let mut start = 0;
        while start < at.len() {
            let c = self.cipher_for(at[start].0);
            let mut end = start + 1;
            while end < at.len() && std::ptr::eq(c, self.cipher_for(at[end].0)) {
                end += 1;
            }
            run(c, start..end);
            start = end;
        }
    }

    /// Installs sectors of the initial (pre-kernel) memory image: each one
    /// is encrypted under `counter(addr)` and its effective cipher, written
    /// to `mem`, registered as owned by its tenant, and tagged — one cipher
    /// batch per cipher run and one CMAC batch for the lot. Sectors are
    /// applied in slice order, so a repeated address ends up holding its
    /// last image, exactly as sector-at-a-time installs would leave it.
    pub fn install_many(
        &mut self,
        sectors: &[(SectorAddr, [u8; 32])],
        counter: impl Fn(SectorAddr) -> u64,
        mem: &mut BackingMemory,
    ) {
        let at: Vec<(SectorAddr, u64)> = sectors.iter().map(|&(a, _)| (a, counter(a))).collect();
        let plaintexts: Vec<[u8; 32]> = sectors.iter().map(|&(_, pt)| pt).collect();
        let mut data = plaintexts.clone();
        self.for_each_cipher_run(&at, |c, r| c.encrypt_many(&mut data[r.clone()], &at[r]));
        for (ct, &(addr, _)) in data.iter().zip(&at) {
            mem.write(addr, *ct);
            if let Some(tc) = self.tenancy.as_mut() {
                tc.note_owned(addr);
            }
        }
        self.macs.update_silently_many(&plaintexts, &at);
    }

    /// Encrypts `plaintext` under `ctr` and the effective cipher, stores
    /// it, and registers the sector as owned by its tenant. The MAC is
    /// the engine's call (Plutus may skip it).
    pub fn write_data(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        ctr: u64,
        mem: &mut BackingMemory,
    ) {
        let mut ct = *plaintext;
        self.cipher_for(addr).encrypt(&mut ct, addr, ctr);
        mem.write(addr, ct);
        if let Some(tc) = &mut self.tenancy {
            tc.note_owned(addr);
        }
    }

    /// Storm-gate prologue of a writeback: counts it in `addr`'s tenant's
    /// storm window.
    pub fn storm_tick(&mut self, addr: SectorAddr) {
        if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(addr);
            tc.storm_tick(t);
        }
    }

    /// Re-encrypts every resident sector of `written`'s overflowed counter
    /// group from its `old_values` entry to the shared `new_value`,
    /// refreshing MACs; `written` itself is re-encrypted by the caller,
    /// and sectors for which `keep` holds are left alone (Plutus: still in
    /// the compact regime). The functional re-encryption is unconditional;
    /// its DRAM traffic goes through the storm gate — into
    /// `reads`/`writes` within the tenant's burst budget, deferred to the
    /// offender's own later accesses past it.
    #[allow(clippy::too_many_arguments)]
    pub fn reencrypt_overflow(
        &mut self,
        layout: &Layout,
        written: SectorAddr,
        old_values: &[u64],
        new_value: u64,
        keep: impl Fn(SectorAddr) -> bool,
        mem: &mut BackingMemory,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
    ) {
        let first = layout.group_first_sector(layout.group_of(written));
        // Gather the group's resident sectors, then run the old-counter
        // decrypts, new-counter encrypts, and MAC refreshes as three
        // batches instead of sector-at-a-time.
        let mut data: Vec<[u8; 32]> = Vec::with_capacity(old_values.len());
        let mut old_at: Vec<(SectorAddr, u64)> = Vec::with_capacity(old_values.len());
        for (i, &old) in old_values.iter().enumerate() {
            let sector = SectorAddr::new(first.raw() + (i as u64) * 32);
            if sector == written || keep(sector) {
                continue;
            }
            let Some(ct) = mem.read(sector) else {
                continue;
            };
            data.push(ct);
            old_at.push((sector, old));
        }
        self.for_each_cipher_run(&old_at, |c, r| {
            c.decrypt_many(&mut data[r.clone()], &old_at[r])
        });
        let plaintexts = data.clone();
        let new_at: Vec<(SectorAddr, u64)> = old_at.iter().map(|&(s, _)| (s, new_value)).collect();
        self.for_each_cipher_run(&new_at, |c, r| {
            c.encrypt_many(&mut data[r.clone()], &new_at[r])
        });
        let mut group_reads = Vec::with_capacity(new_at.len());
        let mut group_writes = Vec::with_capacity(new_at.len());
        for (ct, &(sector, _)) in data.iter().zip(&new_at) {
            mem.write(sector, *ct);
            group_reads.push(DramReq::new(sector.raw(), 32, TrafficClass::Data));
            group_writes.push(DramReq::new(sector.raw(), 32, TrafficClass::Data));
        }
        self.macs.update_silently_many(&plaintexts, &new_at);
        if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(written);
            if !tc.storm_admit(t) {
                tc.storm_defer(t, group_reads, group_writes);
                return;
            }
        }
        reads.extend(group_reads);
        writes.extend(group_writes);
    }

    /// Background tenancy work riding on every plan (fill or writeback):
    /// one rotation-walk step, then a drain of `addr`'s tenant's deferred
    /// storm backlog (the offender pays, victims do not). `live` gives the
    /// counter each walked sector is encrypted under. Returns at once
    /// without tenancy.
    pub fn background(
        &mut self,
        addr: SectorAddr,
        live: impl Fn(SectorAddr) -> u64,
        mem: &mut BackingMemory,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
    ) {
        let Some(tc) = &mut self.tenancy else {
            return;
        };
        if let Some((frontier, end, step)) = tc.walk_window() {
            // Advance the walk by at most `step` sectors, charging each
            // re-encryption as a Data-class read + write. The work list is
            // the ownership registry, not the MAC tag table: MAC-skip
            // sectors carry ciphertext but no stored tag. The frontier
            // moves only after the batch, so in-batch decrypts still see
            // the old generation.
            let step = step as usize;
            let items: Vec<(SectorAddr, u64)> = tc
                .owned_in_range(frontier, end, step)
                .into_iter()
                .map(|a| (a, live(a)))
                .collect();
            for (&(a, _), changed) in items.iter().zip(tc.rotate_sectors(&items, mem)) {
                if changed {
                    reads.push(DramReq::new(a.raw(), 32, TrafficClass::Data));
                    writes.push(DramReq::new(a.raw(), 32, TrafficClass::Data));
                }
            }
            if items.len() < step {
                tc.finish_walk();
            } else {
                let last = items.last().map_or(frontier, |&(a, _)| a.raw());
                tc.advance_frontier(last + 32);
            }
        }
        let t = tc.tenant_of(addr);
        tc.storm_drain_into(t, reads, writes);
    }

    /// Begins a key-rotation walk for `tenant` (tenancy only).
    pub fn start_key_rotation(&mut self, tenant: u32) -> bool {
        self.tenancy
            .as_mut()
            .is_some_and(|tc| tc.start_rotation(tenant))
    }

    /// True while a rotation walk is live.
    pub fn rotation_active(&self) -> bool {
        self.tenancy.as_ref().is_some_and(|tc| tc.rotation_active())
    }

    /// Rotation and storm counters for the engine's `extra_stats` (none
    /// without tenancy).
    pub fn tenancy_stats(&self) -> Vec<(String, u64)> {
        self.tenancy
            .as_ref()
            .map_or_else(Vec::new, |tc| tc.extra_stats())
    }

    /// Crash-revert core: `self` has just been reset to the checkpoint's
    /// plane; keep the `crashed` plane's MAC store — MACs are modeled
    /// write-through persistent, so they survive the crash and anchor
    /// Phoenix recovery.
    pub fn keep_macs(&mut self, crashed: DataPlane) {
        self.macs = crashed.macs;
    }

    /// Phoenix-style recovery pass over `sectors`: `settle` proves each
    /// sector's counter (typically through [`Self::settle`]) and writes
    /// it back into the engine's counter source. The plane tallies the
    /// report, re-notes ownership of every settled sector (the revert may
    /// have rolled the registry back past sectors that verifiably hold
    /// this engine's ciphertext, and a rotation walk must not skip them),
    /// and resumes an interrupted walk just past the highest sector proven
    /// to carry the new generation (the walk is address-ordered, so
    /// everything below it is done).
    pub fn recover(
        &mut self,
        sectors: &[SectorAddr],
        mut settle: impl FnMut(&mut Self, SectorAddr) -> Option<Settled>,
    ) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut max_new_gen: Option<u64> = None;
        for &addr in sectors {
            let Some(settled) = settle(self, addr) else {
                report.failed.push(addr.raw());
                continue;
            };
            let cand = settled.candidate();
            match settled {
                _ if !cand.by_mac => report.recovered_by_value += 1,
                Settled::Live(_) => report.already_consistent += 1,
                Settled::Probed(..) => report.recovered_by_mac += 1,
            }
            if cand.new_gen {
                max_new_gen = Some(max_new_gen.map_or(addr.raw(), |m| m.max(addr.raw())));
            }
            if let Some(tc) = &mut self.tenancy {
                tc.note_owned(addr);
            }
        }
        if let Some(tc) = &mut self.tenancy {
            tc.reconcile_frontier(max_new_gen);
        }
        report
    }

    /// Settles one sector's counter: the `live` value first, then every
    /// value of `probes` in order (skipping `live`). A group overflow since
    /// the checkpoint zeroes every minor, so the true value can sit below
    /// `live`; split-counter probes start from a floor that clears it.
    /// Each candidate is checked in this order: the persistent MAC under
    /// the effective generation; the MAC under the pending new generation
    /// of a mid-flight rotation walk (MAC keys are generation-stable, so
    /// the tag arbitrates); `screen` under the effective generation;
    /// `screen` under the pending one. The first candidate that checks
    /// out wins.
    pub fn settle(
        &self,
        addr: SectorAddr,
        mem: &BackingMemory,
        live: u64,
        probes: impl IntoIterator<Item = u64>,
        screen: impl Fn(&[u8; 32]) -> bool,
    ) -> Option<Settled> {
        if let Some((_, c)) = self.scan(addr, mem, [live], &screen) {
            return Some(Settled::Live(c));
        }
        let probes = probes.into_iter().filter(|&v| v != live);
        self.scan(addr, mem, probes, &screen)
            .map(|(v, c)| Settled::Probed(v, c))
    }

    /// Returns the first of `candidates` that checks out for `addr`, in
    /// the check order of [`Self::settle`]. Decrypts and MAC checks run as
    /// batched cipher calls over chunks of candidates, and each chunk's
    /// verdicts are walked in candidate order, so chunking never changes
    /// the result.
    fn scan(
        &self,
        addr: SectorAddr,
        mem: &BackingMemory,
        candidates: impl IntoIterator<Item = u64>,
        screen: &impl Fn(&[u8; 32]) -> bool,
    ) -> Option<(u64, Candidate)> {
        let effective = self.cipher_for(addr);
        let pending = self
            .tenancy
            .as_ref()
            .and_then(|tc| tc.pending_new_gen(addr));
        let ct = mem.read(addr);
        let mut candidates = candidates.into_iter();
        loop {
            let at: Vec<(SectorAddr, u64)> = candidates
                .by_ref()
                .take(SCAN_CHUNK)
                .map(|v| (addr, v))
                .collect();
            if at.is_empty() {
                return None;
            }
            let eff = decrypt_candidates(effective, ct, &at);
            let eff_mac = self.macs.verify_many(&eff, &at);
            let pend = pending.map(|cipher| {
                let pts = decrypt_candidates(cipher, ct, &at);
                let ok = self.macs.verify_many(&pts, &at);
                (pts, ok)
            });
            for (i, &(_, v)) in at.iter().enumerate() {
                let verdict = if eff_mac[i] {
                    Some((true, false))
                } else if pend.as_ref().is_some_and(|(_, ok)| ok[i]) {
                    Some((true, true))
                } else if screen(&eff[i]) {
                    Some((false, false))
                } else if pend.as_ref().is_some_and(|(pts, _)| screen(&pts[i])) {
                    Some((false, true))
                } else {
                    None
                };
                if let Some((by_mac, new_gen)) = verdict {
                    return Some((v, Candidate { by_mac, new_gen }));
                }
            }
        }
    }

    /// Re-tags a sector vouched for by value rather than by its MAC,
    /// decrypting under counter `v` and the generation it verified with.
    pub fn repair_mac(&mut self, addr: SectorAddr, v: u64, new_gen: bool, mem: &BackingMemory) {
        let cipher = if new_gen {
            match self
                .tenancy
                .as_ref()
                .and_then(|tc| tc.pending_new_gen(addr))
            {
                Some(c) => c,
                None => return,
            }
        } else {
            self.cipher_for(addr)
        };
        let pt = read_with(cipher, addr, v, mem);
        self.macs.update_silently(addr, &pt, v);
    }
}
