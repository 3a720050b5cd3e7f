//! Protected-data plumbing shared by every secure engine: picking each
//! sector's effective cipher under tenancy, running cipher work as
//! per-cipher batches, and installing the initial memory image.
//!
//! The engines differ in where a sector's counter comes from (split
//! counters, the clean-region table, the compact layer); what they do
//! with ciphertext and tags once the counter is known lives here once.

use crate::cipher::DataCipher;
use crate::mac_system::MacSystem;
use crate::tenant::TenantCrypto;
use gpu_sim::{BackingMemory, SectorAddr};
use std::ops::Range;

/// The effective cipher for `sector`: the single shared `cipher`, or —
/// under tenancy — the owning tenant's current generation (old
/// generation past a live rotation-walk frontier).
pub fn cipher_for<'a>(
    cipher: &'a DataCipher,
    tenancy: Option<&'a TenantCrypto>,
    sector: SectorAddr,
) -> &'a DataCipher {
    match tenancy {
        Some(tc) => tc.cipher_for(sector),
        None => cipher,
    }
}

/// Calls `run` once per maximal run of consecutive `at` entries sharing
/// one effective cipher — the overwhelmingly common case, since tenant
/// boundaries are slab-aligned, is a single run.
fn for_each_cipher_run(
    cipher: &DataCipher,
    tenancy: Option<&TenantCrypto>,
    at: &[(SectorAddr, u64)],
    mut run: impl FnMut(&DataCipher, Range<usize>),
) {
    let mut start = 0;
    while start < at.len() {
        let c = cipher_for(cipher, tenancy, at[start].0);
        let mut end = start + 1;
        while end < at.len() && std::ptr::eq(c, cipher_for(cipher, tenancy, at[end].0)) {
            end += 1;
        }
        run(c, start..end);
        start = end;
    }
}

/// Batched encrypt of `data[i]` under `at[i]` and that sector's effective
/// cipher, one backend batch per cipher run.
pub fn encrypt_many_effective(
    cipher: &DataCipher,
    tenancy: Option<&TenantCrypto>,
    data: &mut [[u8; 32]],
    at: &[(SectorAddr, u64)],
) {
    for_each_cipher_run(cipher, tenancy, at, |c, r| {
        c.encrypt_many(&mut data[r.clone()], &at[r]);
    });
}

/// Batched decrypt (see [`encrypt_many_effective`]).
pub fn decrypt_many_effective(
    cipher: &DataCipher,
    tenancy: Option<&TenantCrypto>,
    data: &mut [[u8; 32]],
    at: &[(SectorAddr, u64)],
) {
    for_each_cipher_run(cipher, tenancy, at, |c, r| {
        c.decrypt_many(&mut data[r.clone()], &at[r]);
    });
}

/// Installs sectors of the initial (pre-kernel) memory image: each one is
/// encrypted under `counter(addr)` and its effective cipher, written to
/// `mem`, registered as owned by its tenant, and tagged — one cipher
/// batch per cipher run and one CMAC batch for the lot. Sectors are
/// applied in slice order, so a repeated address ends up holding its last
/// image, exactly as sector-at-a-time installs would leave it.
pub fn install_many(
    cipher: &DataCipher,
    tenancy: &mut Option<TenantCrypto>,
    macs: &mut MacSystem,
    sectors: &[(SectorAddr, [u8; 32])],
    counter: impl Fn(SectorAddr) -> u64,
    mem: &mut BackingMemory,
) {
    let at: Vec<(SectorAddr, u64)> = sectors.iter().map(|&(a, _)| (a, counter(a))).collect();
    let plaintexts: Vec<[u8; 32]> = sectors.iter().map(|&(_, pt)| pt).collect();
    let mut data = plaintexts.clone();
    encrypt_many_effective(cipher, tenancy.as_ref(), &mut data, &at);
    for (ct, &(addr, _)) in data.iter().zip(&at) {
        mem.write(addr, *ct);
        if let Some(tc) = tenancy.as_mut() {
            tc.note_owned(addr);
        }
    }
    macs.update_silently_many(&plaintexts, &at);
}
