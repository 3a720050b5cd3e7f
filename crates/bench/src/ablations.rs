//! Ablation studies for the design choices DESIGN.md calls out: the knobs
//! the paper fixes, swept so the fixed points can be justified.

use crate::runner::{geomean, run_one, run_with_factory, Scheme};
use gpu_sim::{EngineFactory, GpuConfig};
use plutus_core::{CompactConfig, PlutusConfig, PlutusEngine};
use secure_mem::{CipherKind, PssmEngine, SecureMemConfig};
use workloads::{Scale, WorkloadSpec};

/// One ablation row: a labeled configuration's geomean normalized IPC over
/// the chosen workloads.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Geomean IPC normalized to no security.
    pub norm_ipc: f64,
    /// Metadata bytes summed over the workloads.
    pub metadata_bytes: u64,
    /// Integrity violations summed over the configuration's runs. Every
    /// run is honest (no attack), so anything but 0 is a false positive.
    pub violations: u64,
}

fn measure(
    label: &str,
    factory: &dyn EngineFactory,
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> AblationRow {
    let mut ratios = Vec::new();
    let mut meta = 0u64;
    let mut violations = 0u64;
    for w in workloads {
        let base = run_one(w, Scheme::None, scale, cfg);
        let r = run_with_factory(w, factory, scale, cfg);
        if base.ipc() > 0.0 {
            ratios.push(r.ipc() / base.ipc());
        }
        meta += r.stats.metadata_bytes();
        violations += r.stats.violations;
    }
    AblationRow {
        label: label.into(),
        norm_ipc: geomean(ratios),
        metadata_bytes: meta,
        violations,
    }
}

/// Fails if any honest ablation row raised an integrity violation: such a
/// configuration mis-verifies its own writes, so its IPC and traffic are
/// not a measurement of the design it names.
pub fn violation_gate(rows: &[AblationRow]) -> Result<(), String> {
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| r.violations > 0)
        .map(|r| format!("{}: {} violation(s)", r.label, r.violations))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "honest ablation runs raised integrity violations: {}",
            bad.join("; ")
        ))
    }
}

fn print_rows(title: &str, rows: &[AblationRow]) {
    println!("\n--- {title} ---");
    println!(
        "{:<28}{:>12}{:>18}{:>12}",
        "config", "norm. IPC", "metadata bytes", "violations"
    );
    for r in rows {
        println!(
            "{:<28}{:>12.4}{:>18}{:>12}",
            r.label, r.norm_ipc, r.metadata_bytes, r.violations
        );
    }
}

/// MAC size: the PSSM paper's 4 B tag vs the 8 B tag Plutus adopts.
pub fn mac_size(workloads: &[WorkloadSpec], scale: Scale, cfg: &GpuConfig) -> Vec<AblationRow> {
    let rows = vec![
        measure(
            "pssm-mac4",
            &PssmEngine::factory(SecureMemConfig::pssm_mac4()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "pssm-mac8",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
    ];
    print_rows("MAC size (4B halves storage, 8B halves collisions)", &rows);
    rows
}

/// Counter organization: state-of-the-art split counters vs SGX-style
/// monolithic counters (one 64-bit counter per sector, 8× the counter
/// footprint — the paper's Section II contrast).
pub fn counter_organization(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let rows = vec![
        measure(
            "pssm-split",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "pssm-monolithic",
            &PssmEngine::factory(SecureMemConfig::pssm_monolithic()),
            workloads,
            scale,
            cfg,
        ),
    ];
    print_rows("counter organization: split vs SGX-style monolithic", &rows);
    rows
}

/// Data-path cipher under PSSM: CME (overlapped pads) vs XTS (serialized
/// decrypt, diffusing) — the latency cost Plutus pays for soundness.
pub fn cipher_choice(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let xts = SecureMemConfig {
        cipher: CipherKind::Xts,
        ..SecureMemConfig::pssm()
    };
    let rows = vec![
        measure(
            "pssm-cme",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
        measure("pssm-xts", &PssmEngine::factory(xts), workloads, scale, cfg),
    ];
    print_rows("cipher: CME vs AES-XTS on the PSSM baseline", &rows);
    rows
}

/// Value-cache pinned fraction (paper fixes 25%).
pub fn pinned_fraction(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for frac in [0.0, 0.125, 0.25, 0.5] {
        let mut pc = PlutusConfig::full();
        pc.value_cache.pinned_fraction = frac;
        rows.push(measure(
            &format!("pinned-{:.0}%", frac * 100.0),
            &PlutusEngine::factory(pc),
            workloads,
            scale,
            cfg,
        ));
    }
    print_rows("value-cache pinned fraction", &rows);
    rows
}

/// Promotion threshold for pinning (use-counter value).
pub fn promote_threshold(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for thr in [2u8, 8, 15] {
        let mut pc = PlutusConfig::full();
        pc.value_cache.promote_threshold = thr;
        rows.push(measure(
            &format!("promote-at-{thr}"),
            &PlutusEngine::factory(pc),
            workloads,
            scale,
            cfg,
        ));
    }
    print_rows("value-cache promotion threshold", &rows);
    rows
}

/// Adaptive compact-counter disable threshold (paper fixes 8 saturated
/// counters per 64-counter block).
pub fn disable_threshold(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for thr in [4u8, 8, 16, 32] {
        let mut pc = PlutusConfig::full();
        pc.compact = Some(CompactConfig {
            disable_threshold: thr,
            ..CompactConfig::default()
        });
        rows.push(measure(
            &format!("disable-at-{thr}"),
            &PlutusEngine::factory(pc),
            workloads,
            scale,
            cfg,
        ));
    }
    print_rows("adaptive compact-counter disable threshold", &rows);
    rows
}

/// Serialized vs parallel integrity-tree fetches (the modeling switch).
pub fn chain_serialization(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut serial_cfg = cfg.clone();
    serial_cfg.serial_metadata_chains = true;
    let rows = vec![
        measure(
            "plutus-parallel-walk",
            &PlutusEngine::factory(PlutusConfig::full()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "plutus-serial-walk",
            &PlutusEngine::factory(PlutusConfig::full()),
            workloads,
            scale,
            &serial_cfg,
        ),
        measure(
            "pssm-parallel-walk",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "pssm-serial-walk",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            &serial_cfg,
        ),
    ];
    print_rows("tree-walk fetch serialization", &rows);
    rows
}

/// Warp-pool size (latency-hiding capacity).
pub fn warp_sensitivity(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for warps in [512usize, 2048, 4096] {
        let mut c = cfg.clone();
        c.warps = warps;
        rows.push(measure(
            &format!("plutus-{warps}-warps"),
            &PlutusEngine::factory(PlutusConfig::full()),
            workloads,
            scale,
            &c,
        ));
    }
    print_rows("warp-pool size (Plutus tolerates latency via TLP)", &rows);
    rows
}

/// Runs every ablation and returns all rows.
pub fn run_all(workloads: &[WorkloadSpec], scale: Scale, cfg: &GpuConfig) -> Vec<AblationRow> {
    let mut all = Vec::new();
    all.extend(mac_size(workloads, scale, cfg));
    all.extend(counter_organization(workloads, scale, cfg));
    all.extend(cipher_choice(workloads, scale, cfg));
    all.extend(pinned_fraction(workloads, scale, cfg));
    all.extend(promote_threshold(workloads, scale, cfg));
    all.extend(disable_threshold(workloads, scale, cfg));
    all.extend(chain_serialization(workloads, scale, cfg));
    all.extend(warp_sensitivity(workloads, scale, cfg));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::by_name;

    fn setup() -> (Vec<WorkloadSpec>, GpuConfig) {
        (vec![by_name("histo").unwrap()], GpuConfig::test_small())
    }

    #[test]
    fn mac4_matches_mac8_traffic_within_tolerance() {
        // 4 B tags halve MAC *storage*, but the fetch unit (32 B) is
        // unchanged, so DRAM metadata traffic must stay within a few
        // percent — the schemes trade collision rate, not bandwidth.
        let (w, cfg) = setup();
        let rows = mac_size(&w, Scale::Test, &cfg);
        let (mac4, mac8) = (rows[0].metadata_bytes as f64, rows[1].metadata_bytes as f64);
        assert!(mac4 <= mac8 * 1.05, "mac4 metadata {mac4} vs mac8 {mac8}");
        assert!(mac8 <= mac4 * 1.05, "mac8 metadata {mac8} vs mac4 {mac4}");
    }

    #[test]
    fn serial_walks_never_beat_parallel() {
        let (w, cfg) = setup();
        let rows = chain_serialization(&w, Scale::Test, &cfg);
        let get = |l: &str| rows.iter().find(|r| r.label == l).unwrap().norm_ipc;
        assert!(get("plutus-serial-walk") <= get("plutus-parallel-walk") + 1e-9);
        assert!(get("pssm-serial-walk") <= get("pssm-parallel-walk") + 1e-9);
    }

    #[test]
    fn pinned_fraction_rows_complete() {
        let (w, cfg) = setup();
        let rows = pinned_fraction(&w, Scale::Test, &cfg);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.norm_ipc > 0.0));
        assert!(violation_gate(&rows).is_ok(), "honest runs verify clean");
    }

    #[test]
    fn a_row_with_violations_trips_the_gate() {
        let row = |label: &str, violations| AblationRow {
            label: label.into(),
            norm_ipc: 0.9,
            metadata_bytes: 1,
            violations,
        };
        assert!(violation_gate(&[row("clean", 0), row("also-clean", 0)]).is_ok());
        let err = violation_gate(&[row("clean", 0), row("pssm-monolithic", 27_385)])
            .expect_err("a nonzero row must fail the gate");
        assert!(err.contains("pssm-monolithic: 27385"), "{err}");
        assert!(!err.contains("clean"), "{err}");
    }
}
