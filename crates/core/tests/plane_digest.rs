//! Golden digests of the protected-data plane shared by every secure
//! engine.
//!
//! One seeded script drives PSSM, common-counters and Plutus, each
//! single-tenant and with two tenants under a one-overflow storm burst:
//! an initial image, a random mix of fills and writebacks, a burst of
//! simultaneous counter-group overflows (inline and deferred storm
//! traffic), a complete key-rotation walk, then two crash/recover rounds
//! — the second one in the middle of a rotation walk. Every plan, recovery
//! report, `extra_stats` and the final resident memory are folded into an
//! FNV-1a digest of their `Debug` text. The constants were captured before
//! the engines' shared plane was merged into one `DataPlane`, so any change
//! that moves a single request, counter or ciphertext byte fails here.

use gpu_sim::{BackingMemory, SectorAddr, SecurityEngine, TenantMap};
use plutus_core::{PlutusConfig, PlutusEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_mem::{CommonCountersEngine, PssmEngine, SecureMemConfig, TenancyConfig};

/// 64-bit FNV-1a, stable across platforms and toolchains (unlike
/// `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, x: &impl std::fmt::Debug) {
        for b in format!("{x:?}\n").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Tenant 1 owns `[0, 0x10000)`, tenant 2 owns `[0x10000, 0x20000)`.
const SLAB: u64 = 0x10000;

fn tenancy() -> TenancyConfig {
    let mut map = TenantMap::new();
    map.add_range(0, SLAB, 1);
    map.add_range(SLAB, 2 * SLAB, 2);
    let mut t = TenancyConfig::new(map, 0x7e57);
    t.storm_burst = 1;
    t
}

/// Sector `i` of tenant `t`'s slab (tenant 1 or 2).
fn sector(t: u64, i: u64) -> SectorAddr {
    SectorAddr::new((t - 1) * SLAB + i * 32)
}

/// Plaintext drawn mostly from a few recurring words, so Plutus's value
/// cache verifies reads and pins values that skip MAC updates.
fn plaintext(rng: &mut StdRng) -> [u8; 32] {
    let mut pt = [0u8; 32];
    for w in pt.chunks_mut(4) {
        let v: u32 = match rng.gen_range(0u32..8) {
            0..=3 => 0,
            4 | 5 => 7,
            6 => 0x1234,
            _ => rng.gen(),
        };
        w.copy_from_slice(&v.to_le_bytes());
    }
    pt
}

/// One random access in the first 128 sectors of either slab.
fn random_op(e: &mut dyn SecurityEngine, mem: &mut BackingMemory, rng: &mut StdRng, h: &mut Fnv) {
    let t = rng.gen_range(1u64..=2);
    let addr = sector(t, rng.gen_range(0u64..128));
    if rng.gen_range(0u32..10) < 4 {
        let pt = plaintext(rng);
        h.add(&e.on_writeback(addr, &pt, mem));
    } else {
        h.add(&e.on_fill(addr, mem));
    }
}

fn crash_and_recover(
    e: &mut dyn SecurityEngine,
    mem: &BackingMemory,
    ck: &dyn SecurityEngine,
    h: &mut Fnv,
) {
    assert!(e.crash_revert(ck));
    let report = e.recover(mem, &mem.resident_addrs());
    h.add(&report);
    assert!(report.unwrap().failed.is_empty(), "every sector recovers");
}

fn script(e: &mut dyn SecurityEngine) -> u64 {
    let mut h = Fnv::new();
    let mut mem = BackingMemory::new();
    let mut rng = StdRng::seed_from_u64(0x91a7e);

    // Initial image: the first 96 sectors of each slab.
    let image: Vec<(SectorAddr, [u8; 32])> = (1..=2u64)
        .flat_map(|t| (0..96u64).map(move |i| sector(t, i)))
        .map(|a| (a, plaintext(&mut rng)))
        .collect();
    e.install_many(&image, &mut mem);

    for _ in 0..1500 {
        random_op(e, &mut mem, &mut rng, &mut h);
    }

    // Overflow burst: four fresh sectors in four resident counter groups
    // of tenant 1 (and two of tenant 2) are written in lockstep, so their
    // groups overflow within a few writebacks of each other — past a
    // one-overflow burst budget, the rest defer to the storm backlog.
    let hot: Vec<SectorAddr> = [(1, 8), (1, 40), (1, 72), (1, 104), (2, 9), (2, 41)]
        .iter()
        .map(|&(t, i)| sector(t, i))
        .collect();
    // Half the blocks of those groups are written past the compact
    // range first, so Plutus re-encrypts them on overflow too.
    for i in (0..128u64).filter(|i| (i / 4) % 2 == 0) {
        for _ in 0..8 {
            let pt = plaintext(&mut rng);
            h.add(&e.on_writeback(sector(1, i), &pt, &mut mem));
        }
    }
    // Each round ends with a tenant-1 fill, which drains some of the
    // deferred traffic the round's writebacks left behind.
    for r in 0..140 {
        for &a in &hot {
            let pt = plaintext(&mut rng);
            h.add(&e.on_writeback(a, &pt, &mut mem));
        }
        h.add(&e.on_fill(sector(1, r % 128), &mut mem));
    }

    // A complete rotation walk over tenant 1's slab.
    h.add(&e.start_key_rotation(1));
    for _ in 0..200 {
        random_op(e, &mut mem, &mut rng, &mut h);
    }
    h.add(&e.rotation_active());

    // Crash round 1: writes since the checkpoint (one hot sector crossing
    // another group overflow) are lost from the volatile metadata.
    let ck = e.checkpoint().expect("engine checkpoints");
    for _ in 0..300 {
        random_op(e, &mut mem, &mut rng, &mut h);
    }
    for _ in 0..130 {
        let pt = plaintext(&mut rng);
        h.add(&e.on_writeback(hot[0], &pt, &mut mem));
    }
    crash_and_recover(e, &mem, ck.as_ref(), &mut h);
    for a in mem.resident_addrs() {
        h.add(&e.on_fill(a, &mut mem));
    }

    // Crash round 2, in the middle of tenant 2's rotation walk: the walk
    // starts before the covering checkpoint and advances after it.
    h.add(&e.start_key_rotation(2));
    let ck = e.checkpoint().expect("engine checkpoints");
    for i in 0..4 {
        h.add(&e.on_fill(sector(1, i), &mut mem));
        let pt = plaintext(&mut rng);
        h.add(&e.on_writeback(sector(2, 100 + i), &pt, &mut mem));
    }
    crash_and_recover(e, &mem, ck.as_ref(), &mut h);
    h.add(&e.rotation_active());
    for _ in 0..200 {
        random_op(e, &mut mem, &mut rng, &mut h);
    }
    for a in mem.resident_addrs() {
        h.add(&e.on_fill(a, &mut mem));
        h.add(&(a, mem.read(a)));
    }
    h.add(&e.rotation_active());
    h.add(&e.extra_stats());
    h.0
}

fn mem_cfg(tenants: bool) -> SecureMemConfig {
    SecureMemConfig {
        tenancy: tenants.then(tenancy),
        ..SecureMemConfig::test_small()
    }
}

fn plutus_cfg(tenants: bool) -> PlutusConfig {
    let mut cfg = PlutusConfig::test_small();
    cfg.mem.tenancy = tenants.then(tenancy);
    cfg
}

fn digests() -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for tenants in [false, true] {
        let label = |s: &'static str, l: &'static str| if tenants { l } else { s };
        out.push((
            label("pssm", "pssm/2t"),
            script(&mut PssmEngine::new(mem_cfg(tenants))),
        ));
        out.push((
            label("common-counters", "common-counters/2t"),
            script(&mut CommonCountersEngine::new(mem_cfg(tenants))),
        ));
        out.push((
            label("plutus", "plutus/2t"),
            script(&mut PlutusEngine::new(plutus_cfg(tenants))),
        ));
    }
    out
}

#[test]
fn plane_outputs_match_pinned_digests() {
    let got = digests();
    for ((name, d), (pname, pd)) in got.iter().zip(PINNED.iter()) {
        assert_eq!(name, pname);
        assert_eq!(*d, *pd, "{name}: digest {d:#018x} moved");
    }
}

/// Captured from the per-engine copies of the plane, before the merge.
const PINNED: [(&str, u64); 6] = [
    ("pssm", 0x1af0_3eb4_f8be_6a02),
    ("common-counters", 0xcb1c_67f2_e483_47d9),
    ("plutus", 0x52f9_6a6b_86df_744a),
    ("pssm/2t", 0x1b18_d4b1_75df_5e34),
    ("common-counters/2t", 0x1344_1618_30b3_752f),
    ("plutus/2t", 0x3c19_4ce8_5f00_005d),
];
