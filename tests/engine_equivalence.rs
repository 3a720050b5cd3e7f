//! Functional equivalence: every security engine must behave as a plain
//! memory — whatever is written is read back, byte for byte, regardless of
//! eviction order, counter overflows, compact-counter saturation, or
//! adaptive block disables. The reference model is a `HashMap`. Batched
//! install must also leave every engine exactly as per-sector install
//! does.

use gpu_sim::sim::{install_image, INSTALL_BATCH};
use gpu_sim::{
    partition_of, BackingMemory, EngineFactory, NoSecurityEngine, SectorAddr, SecurityEngine,
    TenantMap,
};
use plutus_core::{CompactKind, PlutusConfig, PlutusEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_mem::{CommonCountersEngine, PssmEngine, SecureMemConfig, TenancyConfig};
use std::collections::{BTreeMap, HashMap};

fn engines() -> Vec<(String, Box<dyn SecurityEngine>)> {
    let mem = SecureMemConfig::test_small();
    let mut list: Vec<(String, Box<dyn SecurityEngine>)> = vec![
        ("pssm".into(), Box::new(PssmEngine::new(mem.clone()))),
        (
            "pssm-mac4".into(),
            Box::new(PssmEngine::new(SecureMemConfig {
                mac_bytes: 4,
                ..mem.clone()
            })),
        ),
        (
            "pssm-all32".into(),
            Box::new(PssmEngine::new(SecureMemConfig {
                ctr_fetch_bytes: 32,
                bmt_node_bytes: 32,
                ..mem.clone()
            })),
        ),
        (
            "common-counters".into(),
            Box::new(CommonCountersEngine::new(mem.clone())),
        ),
        (
            "plutus".into(),
            Box::new(PlutusEngine::new(PlutusConfig::test_small())),
        ),
    ];
    for kind in [
        CompactKind::TwoBit,
        CompactKind::ThreeBit,
        CompactKind::Adaptive3,
    ] {
        let mut cfg = PlutusConfig::compact_only(kind);
        cfg.mem = SecureMemConfig::test_small();
        list.push((
            format!("compact-{}", kind.label()),
            Box::new(PlutusEngine::new(cfg)),
        ));
    }
    let mut no_tree = PlutusConfig::test_small();
    no_tree.mem.disable_tree = true;
    list.push((
        "plutus-no-tree".into(),
        Box::new(PlutusEngine::new(no_tree)),
    ));
    list
}

/// Drives `ops` random write/read operations against one engine and the
/// reference model.
fn fuzz_engine(name: &str, engine: &mut dyn SecurityEngine, seed: u64, ops: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mem = BackingMemory::new();
    let mut reference: HashMap<u64, [u8; 32]> = HashMap::new();

    // Pre-install an initial image over part of the space.
    for i in 0..64u64 {
        let addr = SectorAddr::new(i * 32);
        let data = [i as u8; 32];
        engine.install(addr, &data, &mut mem);
        reference.insert(addr.raw(), data);
    }

    // Cluster writes on a small set of sectors so compact counters
    // saturate and split-counter groups overflow during the run.
    let hot_sectors = 48u64;
    let cold_sectors = 1024u64;
    for op in 0..ops {
        let sector = if rng.gen_bool(0.7) {
            SectorAddr::new(rng.gen_range(0..hot_sectors) * 32)
        } else {
            SectorAddr::new(rng.gen_range(0..cold_sectors) * 32)
        };
        if rng.gen_bool(0.5) {
            let mut data = [0u8; 32];
            rng.fill(&mut data[..]);
            // Bias toward repeated values so the value cache sees reuse.
            if rng.gen_bool(0.5) {
                data = [rng.gen_range(0..4u8); 32];
            }
            engine.on_writeback(sector, &data, &mut mem);
            reference.insert(sector.raw(), data);
        } else {
            let fill = engine.on_fill(sector, &mut mem);
            let expected = reference.get(&sector.raw()).copied().unwrap_or([0; 32]);
            assert_eq!(
                fill.plaintext, expected,
                "{name}: wrong plaintext at {sector} on op {op}"
            );
            assert!(
                fill.violation.is_none(),
                "{name}: false violation at {sector} on op {op}: {:?}",
                fill.violation
            );
        }
    }

    // Final sweep: every recorded sector reads back.
    for (&addr, &expected) in &reference {
        let fill = engine.on_fill(SectorAddr::new(addr), &mut mem);
        assert_eq!(
            fill.plaintext, expected,
            "{name}: final sweep mismatch at {addr:#x}"
        );
        assert!(
            fill.violation.is_none(),
            "{name}: false violation in final sweep"
        );
    }
}

#[test]
fn all_engines_match_reference_memory() {
    for (name, mut engine) in engines() {
        fuzz_engine(&name, engine.as_mut(), 0xfeed, 4_000);
    }
}

#[test]
fn heavy_write_clustering_exercises_overflow_paths() {
    // 4000+ writes over 48 hot sectors ≈ 40+ writes per sector: compact
    // counters saturate (3rd/7th write) and some groups overflow the 7-bit
    // minor. A second seed shifts the interleaving.
    for (name, mut engine) in engines() {
        fuzz_engine(&name, engine.as_mut(), 0xbeef, 6_000);
    }
}

#[test]
fn split_counter_group_overflow_preserves_group_contents() {
    // Direct, deterministic overflow: 130 writes to one sector forces the
    // shared major counter to bump and every group member to re-encrypt.
    for (name, mut engine) in engines() {
        let mut mem = BackingMemory::new();
        let neighbor = SectorAddr::new(3 * 32);
        let victim = SectorAddr::new(0);
        engine.on_writeback(neighbor, &[0xaa; 32], &mut mem);
        for i in 0..130u32 {
            engine.on_writeback(victim, &[(i % 251) as u8; 32], &mut mem);
        }
        let f = engine.on_fill(neighbor, &mut mem);
        assert_eq!(
            f.plaintext, [0xaa; 32],
            "{name}: neighbor corrupted by overflow"
        );
        assert!(
            f.violation.is_none(),
            "{name}: overflow raised a false violation"
        );
        let f = engine.on_fill(victim, &mut mem);
        assert_eq!(f.plaintext, [129u8; 32], "{name}: victim lost last write");
        assert!(f.violation.is_none());
    }
}

/// Every engine kind, plus multi-tenant PSSM and Plutus, built for a
/// `partitions`-way simulator.
fn install_factories(partitions: usize) -> Vec<(&'static str, Box<dyn EngineFactory>)> {
    let mem = SecureMemConfig {
        partitions,
        ..SecureMemConfig::test_small()
    };
    let mut plutus = PlutusConfig::test_small();
    plutus.mem.partitions = partitions;
    let mut map = TenantMap::new();
    map.add_range(0, 0x8000, 1);
    map.add_range(0x8000, 0x2_0000, 2);
    let tenancy = Some(TenancyConfig::new(map, 5));
    let mut plutus_mt = plutus.clone();
    plutus_mt.mem.tenancy = tenancy.clone();
    vec![
        ("no-security", Box::new(NoSecurityEngine::factory())),
        ("pssm", Box::new(PssmEngine::factory(mem.clone()))),
        (
            "common-counters",
            Box::new(CommonCountersEngine::factory(mem.clone())),
        ),
        ("plutus", Box::new(PlutusEngine::factory(plutus))),
        (
            "pssm-multi-tenant",
            Box::new(PssmEngine::factory(SecureMemConfig { tenancy, ..mem })),
        ),
        (
            "plutus-multi-tenant",
            Box::new(PlutusEngine::factory(plutus_mt)),
        ),
    ]
}

#[test]
fn batched_install_matches_serial_install() {
    const PARTITIONS: usize = 4;
    // Non-contiguous addresses (gaps every fifth sector) spanning both
    // tenants, with one sector installed twice inside the same batch.
    let mut image: Vec<(SectorAddr, [u8; 32])> = (0..1_100u64)
        .map(|i| {
            let mut data = [0u8; 32];
            for (j, b) in data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31) ^ j as u8;
            }
            (SectorAddr::new((i * 3 + i / 5) * 32), data)
        })
        .collect();
    image.insert(12, (image[10].0, [0xa5; 32]));
    assert_ne!(image.len() % INSTALL_BATCH, 0);
    let mut touched = [false; PARTITIONS];
    for (addr, _) in &image {
        touched[partition_of(addr.block(), PARTITIONS)] = true;
    }
    assert!(
        touched.iter().all(|&t| t),
        "image must touch every partition"
    );
    // Last write wins.
    let expected: BTreeMap<u64, [u8; 32]> = image.iter().map(|&(a, d)| (a.raw(), d)).collect();
    assert_eq!(expected.len() + 1, image.len());

    for (name, factory) in install_factories(PARTITIONS) {
        let mut batched: Vec<Box<dyn SecurityEngine>> =
            (0..PARTITIONS).map(|p| factory.build(p)).collect();
        let mut serial: Vec<Box<dyn SecurityEngine>> =
            (0..PARTITIONS).map(|p| factory.build(p)).collect();
        let mut mem_b = BackingMemory::new();
        let mut mem_s = BackingMemory::new();
        let mut refs: Vec<&mut dyn SecurityEngine> = batched
            .iter_mut()
            .map(|e| e.as_mut() as &mut dyn SecurityEngine)
            .collect();
        install_image(&mut refs, &image, &mut mem_b);
        for (addr, data) in &image {
            serial[partition_of(addr.block(), PARTITIONS)].install(*addr, data, &mut mem_s);
        }

        let addrs = mem_s.resident_addrs();
        assert_eq!(
            mem_b.resident_addrs(),
            addrs,
            "{name}: resident sets differ"
        );
        assert_eq!(addrs.len(), expected.len(), "{name}");
        for &addr in &addrs {
            assert_eq!(
                mem_b.read(addr),
                mem_s.read(addr),
                "{name}: bytes at {addr}"
            );
            let p = partition_of(addr.block(), PARTITIONS);
            let peek = batched[p].peek_plaintext(addr, &mem_b);
            assert_eq!(peek, serial[p].peek_plaintext(addr, &mem_s), "{name}");
            assert_eq!(peek, Some(expected[&addr.raw()]), "{name}: peek at {addr}");
        }
        for &addr in &addrs {
            let p = partition_of(addr.block(), PARTITIONS);
            let fb = batched[p].on_fill(addr, &mut mem_b);
            let fs = serial[p].on_fill(addr, &mut mem_s);
            assert!(fb.violation.is_none(), "{name}: violation at {addr}");
            assert_eq!(
                fb.plaintext,
                expected[&addr.raw()],
                "{name}: fill at {addr}"
            );
            assert_eq!(format!("{fb:?}"), format!("{fs:?}"), "{name}: plans differ");
        }
    }
}
