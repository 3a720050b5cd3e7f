//! Functional backing store for simulated device memory.
//!
//! The store holds whatever bytes the active security engine writes —
//! ciphertext for encrypting engines, plaintext for the no-security
//! baseline. Sectors never written read back as `None`; engines interpret
//! that as an all-zero plaintext sector with a zero write counter, matching
//! zero-initialized device memory.
//!
//! The store doubles as the *attack surface*: [`BackingMemory::corrupt`]
//! and [`BackingMemory::replay`] model the physical attacker of the paper's
//! threat model, and integration tests drive detection through them.

use crate::address::{SectorAddr, SECTOR_SIZE};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by a simulated address or sector index, hashed with
/// [`AddrHasher`]. Every per-access functional table (memory contents,
/// MAC tags, counters, leaf hashes) uses it.
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// A set of simulated addresses or indices, hashed with [`AddrHasher`].
pub type AddrSet = HashSet<u64, BuildHasherDefault<AddrHasher>>;

/// A fixed, cheap hasher for `u64` addresses: one folded 64×64→128-bit
/// multiply, whose high and low halves are XORed so every key bit reaches
/// both the bucket-index (low) and control (high) bits of the hash.
///
/// Keys are addresses the simulator itself generates, so the flood
/// resistance of the default SipHash buys nothing here. No output depends
/// on the hasher: ordered walks over these maps sort first.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher {
    hash: u64,
}

impl AddrHasher {
    /// Odd multiplier (the 64-bit golden ratio).
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let full = u128::from(self.hash ^ n) * u128::from(Self::K);
        self.hash = (full as u64) ^ ((full >> 64) as u64);
    }
}

/// Sparse functional memory, sector granularity.
#[derive(Debug, Default, Clone)]
pub struct BackingMemory {
    sectors: AddrMap<[u8; SECTOR_SIZE as usize]>,
}

impl BackingMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty memory with room for `sectors` sectors, so
    /// installing an image of that size never rehashes.
    pub fn with_capacity(sectors: usize) -> Self {
        Self {
            sectors: AddrMap::with_capacity_and_hasher(sectors, Default::default()),
        }
    }

    /// Reads a sector, or `None` if it was never written.
    pub fn read(&self, addr: SectorAddr) -> Option<[u8; 32]> {
        self.sectors.get(&addr.raw()).copied()
    }

    /// Writes a sector.
    pub fn write(&mut self, addr: SectorAddr, data: [u8; 32]) {
        self.sectors.insert(addr.raw(), data);
    }

    /// Number of distinct sectors ever written.
    pub fn resident_sectors(&self) -> usize {
        self.sectors.len()
    }

    /// Addresses of every resident sector, sorted for deterministic
    /// iteration (the map itself is unordered). Crash recovery walks this
    /// to rebuild metadata for exactly the data that reached DRAM.
    pub fn resident_addrs(&self) -> Vec<SectorAddr> {
        let mut addrs: Vec<SectorAddr> = self.sectors.keys().map(|&a| SectorAddr::new(a)).collect();
        addrs.sort_by_key(|a| a.raw());
        addrs
    }

    /// Physical attack: XORs `mask` into the stored bytes of `addr`.
    ///
    /// Returns `false` (and does nothing) if the sector is not resident —
    /// an attacker can only flip bits in bytes that exist.
    pub fn corrupt(&mut self, addr: SectorAddr, mask: &[u8; 32]) -> bool {
        match self.sectors.get_mut(&addr.raw()) {
            Some(data) => {
                for (b, m) in data.iter_mut().zip(mask.iter()) {
                    *b ^= m;
                }
                true
            }
            None => false,
        }
    }

    /// Physical attack: captures the current bytes of `addr` for later
    /// replay. Returns `None` if not resident.
    pub fn snapshot(&self, addr: SectorAddr) -> Option<[u8; 32]> {
        self.read(addr)
    }

    /// Physical attack: restores previously captured bytes (a replay).
    ///
    /// Returns `false` (and does nothing) if the sector is not resident —
    /// like [`BackingMemory::corrupt`], a physical attacker can overwrite
    /// bytes that exist but cannot materialize sectors the program never
    /// wrote.
    pub fn replay(&mut self, addr: SectorAddr, old: [u8; 32]) -> bool {
        match self.sectors.get_mut(&addr.raw()) {
            Some(data) => {
                *data = old;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let mut m = BackingMemory::new();
        let a = SectorAddr::new(0x40);
        assert_eq!(m.read(a), None);
        m.write(a, [9; 32]);
        assert_eq!(m.read(a), Some([9; 32]));
        assert_eq!(m.resident_sectors(), 1);
    }

    #[test]
    fn corrupt_flips_exactly_masked_bits() {
        let mut m = BackingMemory::new();
        let a = SectorAddr::new(0x40);
        m.write(a, [0xff; 32]);
        let mut mask = [0u8; 32];
        mask[5] = 0x0f;
        assert!(m.corrupt(a, &mask));
        let got = m.read(a).unwrap();
        assert_eq!(got[5], 0xf0);
        assert_eq!(got[4], 0xff);
    }

    #[test]
    fn resident_addrs_are_sorted() {
        let mut m = BackingMemory::new();
        m.write(SectorAddr::new(0xc0), [1; 32]);
        m.write(SectorAddr::new(0x40), [2; 32]);
        m.write(SectorAddr::new(0x80), [3; 32]);
        let addrs: Vec<u64> = m.resident_addrs().iter().map(|a| a.raw()).collect();
        assert_eq!(addrs, vec![0x40, 0x80, 0xc0]);
    }

    #[test]
    fn corrupt_missing_sector_is_noop() {
        let mut m = BackingMemory::new();
        assert!(!m.corrupt(SectorAddr::new(0), &[1; 32]));
    }

    #[test]
    fn snapshot_replay_roundtrip() {
        let mut m = BackingMemory::new();
        let a = SectorAddr::new(0x80);
        m.write(a, [1; 32]);
        let old = m.snapshot(a).unwrap();
        m.write(a, [2; 32]);
        assert!(m.replay(a, old));
        assert_eq!(m.read(a), Some([1; 32]));
    }

    #[test]
    fn replay_missing_sector_is_rejected() {
        // Regression: replay used to call `write` unconditionally, letting
        // an "attacker" materialize sectors the program never wrote.
        let mut m = BackingMemory::new();
        assert!(!m.replay(SectorAddr::new(0x100), [7; 32]));
        assert_eq!(m.read(SectorAddr::new(0x100)), None);
        assert_eq!(m.resident_sectors(), 0);
    }
}
