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

/// A map keyed by a simulated address, block, page or group index, hashed
/// with [`AddrHasher`]. The functional metadata tables (counters, MAC tags
/// by block, leaf hashes) and the page directory of [`BackingMemory`] use
/// it.
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

/// Sectors per page of [`BackingMemory`]: 4 KiB of sector data, small
/// enough that a sparse write pattern wastes little, large enough that a
/// dense image needs one directory entry per 128 sectors.
const PAGE_SECTORS: usize = 128;

/// One page of sectors: a presence bitmap and a dense slot array. A slot
/// whose bit is clear was never written, whatever bytes it holds.
#[derive(Debug, Clone)]
struct Page {
    present: [u64; PAGE_SECTORS / 64],
    slots: [[u8; SECTOR_SIZE as usize]; PAGE_SECTORS],
}

impl Page {
    fn empty() -> Box<Self> {
        Box::new(Self {
            present: [0; PAGE_SECTORS / 64],
            slots: [[0; SECTOR_SIZE as usize]; PAGE_SECTORS],
        })
    }

    fn has(&self, slot: usize) -> bool {
        self.present[slot / 64] >> (slot % 64) & 1 == 1
    }
}

/// Page-directory key and slot of `addr`.
fn locate(addr: SectorAddr) -> (u64, usize) {
    let index = addr.index();
    (
        index / PAGE_SECTORS as u64,
        (index % PAGE_SECTORS as u64) as usize,
    )
}

/// Sparse functional memory, sector granularity, stored in pages of
/// [`PAGE_SECTORS`] sectors keyed by `sector index / PAGE_SECTORS`.
#[derive(Debug, Default, Clone)]
pub struct BackingMemory {
    pages: AddrMap<Box<Page>>,
    resident: usize,
}

impl BackingMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty memory with directory room for `sectors` densely
    /// placed sectors, so installing an image of that size never rehashes.
    pub fn with_capacity(sectors: usize) -> Self {
        Self {
            pages: AddrMap::with_capacity_and_hasher(
                sectors.div_ceil(PAGE_SECTORS),
                Default::default(),
            ),
            resident: 0,
        }
    }

    fn resident_mut(&mut self, addr: SectorAddr) -> Option<&mut [u8; 32]> {
        let (page, slot) = locate(addr);
        let page = self.pages.get_mut(&page)?;
        page.has(slot).then(move || &mut page.slots[slot])
    }

    /// Reads a sector, or `None` if it was never written.
    pub fn read(&self, addr: SectorAddr) -> Option<[u8; 32]> {
        let (page, slot) = locate(addr);
        let page = self.pages.get(&page)?;
        page.has(slot).then(|| page.slots[slot])
    }

    /// Writes a sector.
    pub fn write(&mut self, addr: SectorAddr, data: [u8; 32]) {
        let (page, slot) = locate(addr);
        let page = self.pages.entry(page).or_insert_with(Page::empty);
        let word = &mut page.present[slot / 64];
        let bit = 1u64 << (slot % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.resident += 1;
        }
        page.slots[slot] = data;
    }

    /// Number of distinct sectors ever written.
    pub fn resident_sectors(&self) -> usize {
        self.resident
    }

    /// Addresses of every resident sector, sorted for deterministic
    /// iteration: pages in key order, slots in address order. Crash recovery
    /// walks this to rebuild metadata for exactly the data that reached
    /// DRAM.
    pub fn resident_addrs(&self) -> Vec<SectorAddr> {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        let mut addrs = Vec::with_capacity(self.resident);
        for key in keys {
            let page = &self.pages[&key];
            let first = key * PAGE_SECTORS as u64;
            addrs.extend(
                (0..PAGE_SECTORS)
                    .filter(|&slot| page.has(slot))
                    .map(|slot| SectorAddr::new((first + slot as u64) * SECTOR_SIZE)),
            );
        }
        addrs
    }

    /// Physical attack: XORs `mask` into the stored bytes of `addr`.
    ///
    /// Returns `false` (and does nothing) if the sector is not resident —
    /// an attacker can only flip bits in bytes that exist.
    pub fn corrupt(&mut self, addr: SectorAddr, mask: &[u8; 32]) -> bool {
        match self.resident_mut(addr) {
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
        match self.resident_mut(addr) {
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

    /// Sector indices around page boundaries, inside one page, and far
    /// apart (up to the last sector of the address space).
    fn index_pool() -> Vec<u64> {
        let mut pool: Vec<u64> = (0..6).collect();
        for page in [1u64, 2, 3, 1 << 20, 1 << 40] {
            let edge = page * PAGE_SECTORS as u64;
            pool.extend(edge - 3..edge + 3);
        }
        pool.extend([1 << 33, (1 << 33) + 64, u64::MAX / SECTOR_SIZE]);
        pool
    }

    fn assert_matches(m: &BackingMemory, model: &HashMap<u64, [u8; 32]>, pool: &[u64]) {
        for &i in pool {
            let a = SectorAddr::new(i * SECTOR_SIZE);
            assert_eq!(m.read(a), model.get(&i).copied(), "sector index {i}");
            assert_eq!(m.snapshot(a), model.get(&i).copied(), "sector index {i}");
        }
        assert_eq!(m.resident_sectors(), model.len());
        let mut want: Vec<u64> = model.keys().copied().collect();
        want.sort_unstable();
        let got: Vec<u64> = m.resident_addrs().iter().map(|a| a.index()).collect();
        assert_eq!(
            got, want,
            "resident_addrs must be every written sector, sorted"
        );
    }

    /// Seeded random writes and attacks against a `HashMap` model of the
    /// per-sector semantics; a clone taken midway must not see later
    /// changes to the original, nor leak its own changes back.
    #[test]
    fn pages_match_a_hash_map_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pool = index_pool();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = if seed % 2 == 0 {
                BackingMemory::new()
            } else {
                BackingMemory::with_capacity(64)
            };
            let mut model: HashMap<u64, [u8; 32]> = HashMap::new();
            let mut frozen = None;
            for step in 0..2000 {
                let i = pool[rng.gen_range(0..pool.len())];
                let a = SectorAddr::new(i * SECTOR_SIZE);
                let mut bytes = [0u8; 32];
                rng.fill(&mut bytes[..]);
                match rng.gen_range(0u32..4) {
                    0 => {
                        m.write(a, bytes);
                        model.insert(i, bytes);
                    }
                    1 => {
                        let hit = model
                            .get_mut(&i)
                            .map(|d| d.iter_mut().zip(bytes.iter()).for_each(|(b, k)| *b ^= k));
                        assert_eq!(m.corrupt(a, &bytes), hit.is_some());
                    }
                    2 => {
                        let hit = model.get_mut(&i).map(|d| *d = bytes);
                        assert_eq!(m.replay(a, bytes), hit.is_some());
                    }
                    _ => assert_eq!(m.read(a), model.get(&i).copied()),
                }
                if step == 1000 {
                    frozen = Some((m.clone(), model.clone()));
                }
            }
            assert_matches(&m, &model, &pool);
            let (mut copy, copy_model) = frozen.unwrap();
            assert_matches(&copy, &copy_model, &pool);
            copy.write(SectorAddr::new(0x7777 * SECTOR_SIZE), [1; 32]);
            assert_matches(&m, &model, &pool);
        }
    }

    #[test]
    fn unwritten_slot_of_a_resident_page_stays_absent() {
        let mut m = BackingMemory::new();
        let written = SectorAddr::new(2 * SECTOR_SIZE);
        let neighbour = SectorAddr::new(3 * SECTOR_SIZE);
        let last_of_page = SectorAddr::new((PAGE_SECTORS as u64 - 1) * SECTOR_SIZE);
        m.write(written, [5; 32]);
        for a in [neighbour, last_of_page] {
            assert_eq!(m.read(a), None);
            assert!(!m.corrupt(a, &[1; 32]));
            assert!(!m.replay(a, [7; 32]));
            assert_eq!(m.read(a), None);
        }
        assert_eq!(m.resident_sectors(), 1);
        assert_eq!(m.resident_addrs(), vec![written]);
        // Writing zeros still makes a sector resident.
        m.write(neighbour, [0; 32]);
        assert_eq!(m.read(neighbour), Some([0; 32]));
        assert_eq!(m.resident_addrs(), vec![written, neighbour]);
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
