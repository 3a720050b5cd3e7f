//! Metrics derived from rounds: end to end from untraced rounds, per
//! layer from one traced round.

use crate::harness::{Round, SimRecord};
use crate::Scheme;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a non-empty sample.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 1) of `sorted`; 0 when empty.
fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sum(sims: &[SimRecord], f: impl Fn(&SimRecord) -> f64) -> f64 {
    sims.iter().map(f).sum()
}

/// Sum of `f` over `scheme`'s simulations.
fn scheme_sum(sims: &[SimRecord], scheme: Scheme, f: impl Fn(&SimRecord) -> f64) -> f64 {
    sims.iter().filter(|s| s.scheme == scheme).map(f).sum()
}

/// Simulated accesses per host second inside `Simulator::run`.
fn accesses_per_s(round: &Round) -> f64 {
    ratio(
        sum(&round.sims, |s| s.trace_len as f64),
        sum(&round.sims, |s| s.run_s),
    )
}

/// The end-to-end metrics: medians over the untraced rounds, plus the
/// process's peak resident memory.
pub fn end_to_end(rounds: &[Round], peak_rss_mib: f64) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    vec![
        metric("wall_s", per_round(&|r| r.wall_s), "s"),
        metric("setup_s", per_round(&|r| sum(&r.sims, |s| s.setup_s)), "s"),
        metric("sim_accesses_per_s", per_round(&accesses_per_s), "1/s"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Engine call times of one scheme's simulations in a traced round.
#[derive(Default)]
struct SchemeTimes {
    install_s: f64,
    installs: u64,
    fill_ns: Vec<u32>,
    writeback_ns: Vec<u32>,
}

impl SchemeTimes {
    fn of(round: &Round, scheme: Scheme) -> Self {
        let mut out = SchemeTimes::default();
        for sim in round.sims.iter().filter(|s| s.scheme == scheme) {
            let t = sim
                .times
                .as_ref()
                .expect("per-layer metrics need a traced round");
            out.install_s += t.install_ns as f64 * 1e-9;
            out.installs += t.installs;
            out.fill_ns.extend_from_slice(&t.fill_ns);
            out.writeback_ns.extend_from_slice(&t.writeback_ns);
        }
        out.fill_ns.sort_unstable();
        out.writeback_ns.sort_unstable();
        out
    }
}

fn total_s(ns: &[u32]) -> f64 {
    ns.iter().map(|&n| f64::from(n)).sum::<f64>() * 1e-9
}

/// Sum of engine counter `name` over `scheme`'s simulations.
fn engine_counter(round: &Round, scheme: Scheme, name: &str) -> f64 {
    scheme_sum(&round.sims, scheme, |s| {
        s.stats.engine_counter(name).unwrap_or(0) as f64
    })
}

fn hit_rate(round: &Round, scheme: Scheme, cache: &str) -> f64 {
    let hits = engine_counter(round, scheme, &format!("{cache}_hits"));
    let misses = engine_counter(round, scheme, &format!("{cache}_misses"));
    ratio(hits, hits + misses)
}

/// The per-layer metrics of `traced`, with `plain` the untraced round
/// of the same workload and seed that the tracing overhead is taken
/// against. Schemes a workload does not simulate report zeros.
pub fn per_layer(plain: &Round, traced: &Round) -> Vec<Metric> {
    let sims = &traced.sims;
    let accesses = sum(sims, |s| s.trace_len as f64);
    let gen_s = sum(sims, |s| s.gen_s);
    let setup_s = sum(sims, |s| s.setup_s);
    let run_s = sum(sims, |s| s.run_s);

    let mut out = vec![
        metric("workloads.trace_gen_s", gen_s, "s"),
        metric("workloads.trace_accesses", accesses, "count"),
        metric(
            "workloads.image_sectors",
            sum(sims, |s| s.image_sectors as f64),
            "count",
        ),
    ];
    let mut install_s = 0.0;
    let mut engine_call_s = 0.0;
    let mut per_scheme = Vec::new();
    for scheme in Scheme::ALL {
        let t = SchemeTimes::of(traced, scheme);
        let label = scheme.label();
        let (fill_s, writeback_s) = (total_s(&t.fill_ns), total_s(&t.writeback_ns));
        install_s += t.install_s;
        engine_call_s += fill_s + writeback_s;
        per_scheme.extend([
            metric(format!("engine.{label}.install_s"), t.install_s, "s"),
            metric(
                format!("engine.{label}.install_ns_per_sector"),
                ratio(t.install_s * 1e9, t.installs as f64),
                "ns",
            ),
            metric(format!("engine.{label}.fill_s"), fill_s, "s"),
            metric(
                format!("engine.{label}.fill_calls"),
                t.fill_ns.len() as f64,
                "count",
            ),
            metric(
                format!("engine.{label}.fill_ns_p50"),
                percentile(&t.fill_ns, 0.50),
                "ns",
            ),
            metric(
                format!("engine.{label}.fill_ns_p99"),
                percentile(&t.fill_ns, 0.99),
                "ns",
            ),
            metric(format!("engine.{label}.writeback_s"), writeback_s, "s"),
            metric(
                format!("engine.{label}.writeback_calls"),
                t.writeback_ns.len() as f64,
                "count",
            ),
            metric(
                format!("engine.{label}.writeback_ns_p50"),
                percentile(&t.writeback_ns, 0.50),
                "ns",
            ),
            metric(
                format!("engine.{label}.writeback_ns_p99"),
                percentile(&t.writeback_ns, 0.99),
                "ns",
            ),
            metric(
                format!("sim.{label}.cycles"),
                scheme_sum(sims, scheme, |s| s.stats.cycles as f64),
                "cycles",
            ),
            metric(
                format!("sim.{label}.metadata_bytes"),
                scheme_sum(sims, scheme, |s| s.stats.metadata_bytes() as f64),
                "bytes",
            ),
        ]);
    }
    out.push(metric("gpu_sim.setup_self_s", setup_s - install_s, "s"));
    out.extend(per_scheme);

    let loop_self_s = run_s - engine_call_s;
    let dram_reqs = sum(sims, |s| {
        s.stats
            .traffic
            .iter()
            .map(|t| (t.read_reqs + t.write_reqs) as f64)
            .sum()
    });
    let l2_hits = sum(sims, |s| s.l2_hits as f64);
    let l2_misses = sum(sims, |s| s.l2_misses as f64);
    let job_s = sum(sims, |s| s.job_s);
    out.extend([
        metric("gpu_sim.run_s", run_s, "s"),
        metric("gpu_sim.loop_self_s", loop_self_s, "s"),
        metric(
            "gpu_sim.loop_ns_per_access",
            ratio(loop_self_s * 1e9, accesses),
            "ns",
        ),
        metric("gpu_sim.dram_reqs", dram_reqs, "count"),
        metric(
            "gpu_sim.loop_ns_per_dram_req",
            ratio(loop_self_s * 1e9, dram_reqs),
            "ns",
        ),
        metric(
            "gpu_sim.l2_hit_rate",
            ratio(l2_hits, l2_hits + l2_misses),
            "ratio",
        ),
        metric(
            "engine.pssm.ctr_cache_hit_rate",
            hit_rate(traced, Scheme::Pssm, "ctr_cache"),
            "ratio",
        ),
        metric(
            "engine.plutus.value_cache_hit_rate",
            hit_rate(traced, Scheme::Plutus, "value_cache"),
            "ratio",
        ),
        metric(
            "engine.plutus.compact_cache_hit_rate",
            hit_rate(traced, Scheme::Plutus, "compact_cache"),
            "ratio",
        ),
        metric(
            "engine.plutus.mac_fetches_avoided",
            engine_counter(traced, Scheme::Plutus, "mac_fetches_avoided"),
            "count",
        ),
        metric("exec.queue_wait_s", sum(sims, |s| s.queue_wait_s), "s"),
        metric(
            "exec.busy_frac",
            ratio(job_s, traced.workers as f64 * traced.wall_s),
            "ratio",
        ),
        metric("telemetry.epochs", traced.epochs as f64, "count"),
        metric(
            "telemetry.events_dropped",
            traced.events_dropped as f64,
            "count",
        ),
        metric("telemetry.report_s", traced.report_s, "s"),
        metric("trace.wall_s", traced.wall_s, "s"),
        metric(
            "trace.accounted_pct",
            // Job seconds, not wall: parallel jobs overlap in wall time.
            ratio((gen_s + setup_s + run_s) * 100.0, job_s),
            "%",
        ),
        metric(
            "trace.overhead_pct",
            (ratio(traced.wall_s, plain.wall_s) - 1.0) * 100.0,
            "%",
        ),
    ]);
    out
}

/// Plutus against PSSM on `round`'s workloads, beside the paper's
/// headline numbers; `None` when the round lacks either scheme.
pub fn paper_comparison(round: &Round) -> Option<String> {
    let of = |w: &str, scheme: Scheme| {
        round
            .sims
            .iter()
            .find(|s| s.workload == w && s.scheme == scheme)
    };
    let mut names: Vec<&str> = round.sims.iter().map(|s| s.workload).collect();
    names.dedup();
    let mut ipc_log = 0.0;
    let mut meta_log = 0.0;
    for w in &names {
        let (pssm, plutus) = (of(w, Scheme::Pssm)?, of(w, Scheme::Plutus)?);
        ipc_log += (plutus.stats.steady_ipc() / pssm.stats.steady_ipc()).ln();
        meta_log +=
            (plutus.stats.metadata_bytes() as f64 / pssm.stats.metadata_bytes() as f64).ln();
    }
    let n = names.len() as f64;
    let ipc_gain = ((ipc_log / n).exp() - 1.0) * 100.0;
    let meta_cut = ((meta_log / n).exp() - 1.0) * 100.0;
    Some(format!(
        "paper comparison (information only): Plutus vs PSSM, geomean over {}: \
         steady IPC {ipc_gain:+.2}% (paper +16.86% avg), metadata traffic {meta_cut:+.2}% \
         (paper -48.14% avg). The timing model is unvalidated against hardware, and a \
         {}-workload subset is not the paper's 19-workload suite.",
        names.join("/"),
        names.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
