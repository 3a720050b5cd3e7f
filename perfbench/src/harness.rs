//! The benchmark's workloads and the rounds that run them.
//!
//! A round runs every simulation of a workload once, in a closed loop:
//! each worker starts its next simulation only when the previous one
//! returns. Modelled caches start empty in every simulation.

use crate::timed::{EngineTimes, TimedFactory};
use crate::Scheme;
use gpu_sim::{EngineFactory, GpuConfig, SimStats, Simulator};
use plutus_exec::{Executor, Job};
use plutus_telemetry::{CycleClock, Event, Telemetry};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use workloads::{by_name, Scale, ScaleKnobs};

/// Trace knobs of the long workloads: `Scale::Test` stretched to 1.2 M
/// accesses over 16 MiB, about 2.7x the modelled 6 MiB L2.
pub const LONG_KNOBS: ScaleKnobs = ScaleKnobs {
    length_mul: 200,
    footprint_mul: 64,
};

/// Simulated cycles between telemetry epochs on `long-read`, as
/// `experiments --metrics-out --epoch-cycles 1000` closes them.
pub const EPOCH_CYCLES: u64 = 1_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// {bfs, histo, mriq} x all four schemes at `Scale::Small`, one
    /// worker, telemetry off: the irregular-graph, read-modify-write and
    /// read-only-stream corners of the CI `figrepro` matrix. Set-up
    /// (engine install) dominates.
    Figrepro,
    /// {bfs, mriq} x {pssm, plutus} on long traces, one worker,
    /// telemetry on: bound by engine fills and the event loop.
    LongRead,
    /// histo x {pssm, plutus} on long traces, one job per scheme on a
    /// two-worker pool, telemetry off: bound by engine writebacks.
    LongWrite,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Figrepro, Workload::LongRead, Workload::LongWrite];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figrepro => "figrepro",
            Workload::LongRead => "long-read",
            Workload::LongWrite => "long-write",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self) -> (Scale, ScaleKnobs) {
        match self {
            Workload::Figrepro => (Scale::Small, ScaleKnobs::default()),
            Workload::LongRead | Workload::LongWrite => (Scale::Test, LONG_KNOBS),
        }
    }

    /// The round's simulations as `(trace workload, scheme)`, in run
    /// order.
    pub fn sims(self) -> Vec<(&'static str, Scheme)> {
        let (names, schemes): (&[&'static str], &[Scheme]) = match self {
            Workload::Figrepro => (&["bfs", "histo", "mriq"], &Scheme::ALL),
            Workload::LongRead => (&["bfs", "mriq"], &[Scheme::Pssm, Scheme::Plutus]),
            Workload::LongWrite => (&["histo"], &[Scheme::Pssm, Scheme::Plutus]),
        };
        names
            .iter()
            .flat_map(|&n| schemes.iter().map(move |&s| (n, s)))
            .collect()
    }

    /// Pool workers the round runs on; 1 runs on the calling thread.
    pub fn workers(self) -> usize {
        match self {
            Workload::LongWrite => 2,
            Workload::Figrepro | Workload::LongRead => 1,
        }
    }

    fn telemetry(self) -> bool {
        self == Workload::LongRead
    }
}

/// The seed `WorkloadSpec::trace` derives from a workload's name: the
/// FNV-1a hash `workloads::spec` uses.
fn stock_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The trace seed of workload `name` under benchmark seed `seed`.
/// Seed 0 gives the stock traces `figrepro` simulates.
pub fn trace_seed(name: &str, seed: u64) -> u64 {
    stock_seed(name).wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The configuration `experiments` simulates: the default GPU with
/// steady IPC measured past the warp-launch ramp.
pub fn gpu_config() -> GpuConfig {
    let mut cfg = GpuConfig::default();
    cfg.warmup_cycles = cfg.warps as u64 / 2;
    cfg
}

/// One simulation's host timings and simulated results.
#[derive(Debug, Clone)]
pub struct SimRecord {
    /// Trace workload name.
    pub workload: &'static str,
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Accesses in the trace.
    pub trace_len: u64,
    /// Sectors of the initial memory image the engines installed.
    pub image_sectors: u64,
    /// Seconds generating the trace.
    pub gen_s: f64,
    /// Seconds inside `Simulator::with_telemetry`.
    pub setup_s: f64,
    /// Seconds inside `Simulator::run`.
    pub run_s: f64,
    /// Seconds from pool submission to job start (0 off the pool).
    pub queue_wait_s: f64,
    /// Seconds from job start to its result.
    pub job_s: f64,
    /// The simulated statistics.
    pub stats: SimStats,
    /// L2 hits over all banks.
    pub l2_hits: u64,
    /// L2 misses over all banks.
    pub l2_misses: u64,
    /// Engine call times, on traced rounds only.
    pub times: Option<EngineTimes>,
}

/// One round of a workload.
#[derive(Debug, Clone)]
pub struct Round {
    /// Seconds from the first trace generation to the last result.
    pub wall_s: f64,
    /// Workers the simulations ran on.
    pub workers: usize,
    /// The simulations, in run order.
    pub sims: Vec<SimRecord>,
    /// Seconds rendering the telemetry report (0 with telemetry off).
    pub report_s: f64,
    /// Telemetry epochs closed.
    pub epochs: u64,
    /// Telemetry events dropped.
    pub events_dropped: u64,
}

/// Runs one simulation: trace, set-up, run. With `traced`, every
/// engine is wrapped in a timing [`crate::timed::TimedEngine`].
pub fn simulate(
    name: &'static str,
    scheme: Scheme,
    (scale, knobs): (Scale, ScaleKnobs),
    seed: u64,
    tel: &Telemetry,
    traced: bool,
) -> SimRecord {
    let start = Instant::now();
    let spec = by_name(name).expect("benchmark workloads are in the suite");
    let trace = spec.trace_knobbed_seeded(scale, knobs, trace_seed(name, seed));
    let gen_s = start.elapsed().as_secs_f64();
    let trace_len = trace.len() as u64;
    let image_sectors = trace.initial_image.len() as u64;

    let factory = scheme.factory();
    let times = Rc::new(RefCell::new(EngineTimes::default()));
    let timed = TimedFactory::new(factory.as_ref(), times.clone());
    let engines: &dyn EngineFactory = if traced { &timed } else { factory.as_ref() };
    let t = Instant::now();
    let mut sim = Simulator::with_telemetry(gpu_config(), trace, engines, tel.clone());
    let setup_s = t.elapsed().as_secs_f64();

    if tel.enabled() {
        sim.set_epoch_interval(EPOCH_CYCLES);
        tel.event(Event::RunStart {
            workload: name.to_string(),
            scheme: scheme.label().to_string(),
        });
    }
    let t = Instant::now();
    let result = sim.run();
    let run_s = t.elapsed().as_secs_f64();
    if tel.enabled() {
        tel.event(Event::RunEnd {
            workload: name.to_string(),
            scheme: scheme.label().to_string(),
        });
        tel.end_epoch(&format!("{name}/{}", scheme.label()));
    }
    let (l2_hits, l2_misses) = sim.l2_hit_stats();
    drop(sim);
    let times = traced.then(|| std::mem::take(&mut *times.borrow_mut()));
    SimRecord {
        workload: name,
        scheme,
        trace_len,
        image_sectors,
        gen_s,
        setup_s,
        run_s,
        queue_wait_s: 0.0,
        job_s: start.elapsed().as_secs_f64(),
        stats: result.stats,
        l2_hits,
        l2_misses,
        times,
    }
}

/// Runs every simulation of `workload` once under benchmark `seed`.
pub fn run_round(workload: Workload, seed: u64, traced: bool) -> Round {
    let start = Instant::now();
    let workers = workload.workers();
    let sims = workload.sims();
    let scale = workload.scale();
    let mut round = Round {
        wall_s: 0.0,
        workers: workers.min(sims.len()),
        sims: Vec::new(),
        report_s: 0.0,
        epochs: 0,
        events_dropped: 0,
    };
    if workers == 1 {
        let tel = if workload.telemetry() {
            Telemetry::with_clock(Arc::new(CycleClock::new()))
        } else {
            Telemetry::disabled()
        };
        for &(name, scheme) in &sims {
            round
                .sims
                .push(simulate(name, scheme, scale, seed, &tel, traced));
        }
        if tel.enabled() {
            // What `--metrics-out` renders once the matrix is done.
            let t = Instant::now();
            let report = tel.report();
            black_box(report.to_json().to_string_pretty().len());
            round.report_s = t.elapsed().as_secs_f64();
            round.epochs = report.epochs.len() as u64;
            round.events_dropped = report.events_dropped;
        }
    } else {
        let exec = Executor::new(Some(workers));
        let submitted = Instant::now();
        let jobs: Vec<Job<'_, SimRecord>> = sims
            .iter()
            .map(|&(name, scheme)| {
                Job::new(format!("{name}/{}", scheme.label()), move || {
                    let queue_wait_s = submitted.elapsed().as_secs_f64();
                    let tel = Telemetry::disabled();
                    let record = simulate(name, scheme, scale, seed, &tel, traced);
                    SimRecord {
                        queue_wait_s,
                        ..record
                    }
                })
            })
            .collect();
        for r in exec.run(jobs) {
            round
                .sims
                .push(r.unwrap_or_else(|p| panic!("{}: {}", p.label, p.message)));
        }
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::digest;

    #[test]
    fn seed_zero_is_the_stock_trace() {
        for name in ["bfs", "histo", "mriq"] {
            let spec = by_name(name).unwrap();
            let stock = spec.trace_knobbed(Scale::Test, LONG_KNOBS);
            let ours = spec.trace_knobbed_seeded(Scale::Test, LONG_KNOBS, trace_seed(name, 0));
            assert_eq!(stock.accesses, ours.accesses, "{name}");
            assert_eq!(stock.initial_image, ours.initial_image, "{name}");
        }
    }

    #[test]
    fn workloads_round_trip_their_names() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig7"), None);
    }

    /// The timing wrapper must not change what is simulated: digests and
    /// telemetry counter totals match with and without it.
    #[test]
    fn timing_wrapper_is_transparent() {
        let run = |scheme: Scheme, traced: bool| {
            let tel = Telemetry::with_clock(Arc::new(CycleClock::new()));
            let scale = (Scale::Test, ScaleKnobs::default());
            let sim = simulate("histo", scheme, scale, 0, &tel, traced);
            let timed_calls = sim.times.map_or(0, |t| t.installs + t.fill_ns.len() as u64);
            assert_eq!(timed_calls > 0, traced);
            (digest(&sim.stats), tel.snapshot().counters)
        };
        for scheme in Scheme::ALL {
            let (plain_digest, plain_counters) = run(scheme, false);
            let (timed_digest, timed_counters) = run(scheme, true);
            assert_eq!(plain_digest, timed_digest, "{}", scheme.label());
            assert!(!plain_counters.is_empty());
            assert_eq!(plain_counters, timed_counters, "{}", scheme.label());
        }
    }
}
