//! Runs one benchmark workload and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <figrepro|long-read|long-write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs untraced rounds until `--seconds` have
//! passed (at least one) and reports the end-to-end metrics as medians
//! over rounds. With `--trace 1` it runs one untraced and one traced
//! round and reports the per-layer metrics. Every simulation passes
//! through the correctness check; informational lines go to stderr.

use perfbench::check::{check, Expect};
use perfbench::harness::{run_round, Round, Workload};
use perfbench::metrics::{end_to_end, paper_comparison, per_layer, Metric};
use perfbench::Scheme;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <figrepro|long-read|long-write> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} requires an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks every simulation; a repetition of a simulation must
/// reproduce the digest of its first run.
#[derive(Default)]
struct Tally {
    digests: HashMap<(&'static str, Scheme), u64>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, round: &Round) {
        for sim in &round.sims {
            let key = (sim.workload, sim.scheme);
            let expect = Expect {
                trace_len: sim.trace_len,
                secure: sim.scheme.is_secure(),
                digest: self.digests.get(&key).copied(),
            };
            self.attempted += 1;
            let s = &sim.stats;
            let verdict = match check(&expect, s) {
                Ok(d) => {
                    self.digests.insert(key, d);
                    format!("ok digest={d:016x}")
                }
                Err(e) => {
                    self.failed += 1;
                    format!("FAILED: {e}")
                }
            };
            let classes: Vec<String> = gpu_sim::TrafficClass::ALL
                .iter()
                .map(|c| format!("{}:{}", c.label(), s.class_bytes(*c)))
                .collect();
            eprintln!(
                "sim {}/{} cycles={} total_bytes={} metadata_bytes={} class_bytes={} \
                 gen_s={:.3} setup_s={:.3} run_s={:.3} {verdict}",
                sim.workload,
                sim.scheme.label(),
                s.cycles,
                s.total_bytes(),
                s.metadata_bytes(),
                classes.join(","),
                sim.gen_s,
                sim.setup_s,
                sim.run_s,
            );
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let (first, metrics) = if args.trace {
        let plain = run_round(args.workload, args.seed, false);
        tally.add(&plain);
        let traced = run_round(args.workload, args.seed, true);
        tally.add(&traced);
        let metrics = per_layer(&plain, &traced);
        (plain, metrics)
    } else {
        let budget = Duration::from_secs(args.seconds);
        let start = Instant::now();
        let mut rounds = Vec::new();
        loop {
            let round = run_round(args.workload, args.seed, false);
            tally.add(&round);
            rounds.push(round);
            if start.elapsed() >= budget {
                break;
            }
        }
        eprintln!(
            "{} rounds in {:.1} s",
            rounds.len(),
            start.elapsed().as_secs_f64()
        );
        let rss = match peak_rss_mib() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let metrics = end_to_end(&rounds, rss);
        (rounds.swap_remove(0), metrics)
    };
    if args.workload == Workload::Figrepro {
        if let Some(line) = paper_comparison(&first) {
            eprintln!("{line}");
        }
    }
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}
