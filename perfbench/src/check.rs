//! The per-simulation correctness check. A simulation that fails it
//! counts as a failed operation.

use gpu_sim::SimStats;
use std::fmt;

/// What a correct simulation must show.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Accesses in the trace the simulation ran.
    pub trace_len: u64,
    /// Whether the scheme protects memory (and so moves metadata).
    pub secure: bool,
    /// Digest of an earlier repetition of the same simulation, if any.
    pub digest: Option<u64>,
}

/// The clause a simulation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// `stats.accesses` differs from the trace length.
    Accesses { simulated: u64, trace: u64 },
    /// An honest run raised violations.
    Violations(u64),
    /// An honest run left fault records.
    FaultRecords(usize),
    /// A partition's cycle ledger does not sum to the run's cycles.
    LedgerNotConserved,
    /// No-security moved metadata, or a secure scheme moved none.
    MetadataBytes { secure: bool, bytes: u64 },
    /// The simulated statistics differ from an earlier repetition.
    Digest { expected: u64, got: u64 },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Accesses { simulated, trace } => {
                write!(
                    f,
                    "simulated {simulated} accesses of a {trace}-access trace"
                )
            }
            Failure::Violations(n) => write!(f, "{n} violations on an honest run"),
            Failure::FaultRecords(n) => write!(f, "{n} fault records on an honest run"),
            Failure::LedgerNotConserved => write!(f, "cycle ledger not conserved"),
            Failure::MetadataBytes { secure, bytes } => {
                let kind = if *secure { "secure" } else { "no-security" };
                write!(f, "{kind} scheme moved {bytes} metadata bytes")
            }
            Failure::Digest { expected, got } => {
                write!(
                    f,
                    "stats digest {got:016x} differs from repetition {expected:016x}"
                )
            }
        }
    }
}

/// FNV-1a over the simulated statistics a pure host-side speed-up must
/// leave unchanged: cycles, instructions, per-class traffic and the
/// engine counters.
pub fn digest(stats: &SimStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&stats.cycles.to_le_bytes());
    eat(&stats.instructions.to_le_bytes());
    for t in &stats.traffic {
        for v in [t.read_bytes, t.write_bytes, t.read_reqs, t.write_reqs] {
            eat(&v.to_le_bytes());
        }
    }
    for (name, value) in &stats.engine {
        eat(name.as_bytes());
        eat(&value.to_le_bytes());
    }
    h
}

/// Checks one simulation's statistics, returning their digest.
pub fn check(expect: &Expect, stats: &SimStats) -> Result<u64, Failure> {
    if stats.accesses != expect.trace_len {
        return Err(Failure::Accesses {
            simulated: stats.accesses,
            trace: expect.trace_len,
        });
    }
    if stats.violations != 0 {
        return Err(Failure::Violations(stats.violations));
    }
    if !stats.fault_records.is_empty() {
        return Err(Failure::FaultRecords(stats.fault_records.len()));
    }
    if !stats.ledger_conserved() {
        return Err(Failure::LedgerNotConserved);
    }
    let bytes = stats.metadata_bytes();
    if expect.secure != (bytes > 0) {
        return Err(Failure::MetadataBytes {
            secure: expect.secure,
            bytes,
        });
    }
    let got = digest(stats);
    match expect.digest {
        Some(expected) if expected != got => Err(Failure::Digest { expected, got }),
        _ => Ok(got),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use gpu_sim::{FaultOutcome, FaultRecord, GpuConfig, Simulator, TrafficClass};
    use workloads::{by_name, Scale};

    fn run(scheme: Scheme) -> (Expect, SimStats) {
        let trace = by_name("histo").unwrap().trace(Scale::Test);
        let expect = Expect {
            trace_len: trace.len() as u64,
            secure: scheme.is_secure(),
            digest: None,
        };
        let factory = scheme.factory();
        let stats = Simulator::new(GpuConfig::test_small(), trace, factory.as_ref())
            .run()
            .stats;
        (expect, stats)
    }

    #[test]
    fn honest_runs_pass() {
        for scheme in Scheme::ALL {
            let (expect, stats) = run(scheme);
            let d = check(&expect, &stats).unwrap_or_else(|e| panic!("{}: {e}", scheme.label()));
            let again = Expect {
                digest: Some(d),
                ..expect
            };
            assert_eq!(check(&again, &stats), Ok(d));
        }
    }

    #[test]
    fn each_clause_fails_on_its_corruption() {
        let (expect, good) = run(Scheme::Pssm);
        let d = check(&expect, &good).unwrap();

        let mut s = good.clone();
        s.accesses -= 1;
        assert!(matches!(check(&expect, &s), Err(Failure::Accesses { .. })));

        let mut s = good.clone();
        s.violations = 1;
        assert_eq!(check(&expect, &s), Err(Failure::Violations(1)));

        let mut s = good.clone();
        s.fault_records.push(FaultRecord {
            addr: 0,
            tenant: 0,
            kind: "data",
            injected_cycle: 0,
            outcome: FaultOutcome::Unobserved,
        });
        assert_eq!(check(&expect, &s), Err(Failure::FaultRecords(1)));

        let mut s = good.clone();
        s.ledgers[0].buckets[0] += 1;
        assert_eq!(check(&expect, &s), Err(Failure::LedgerNotConserved));

        // A secure scheme that moved no metadata.
        let mut s = good.clone();
        for c in TrafficClass::ALL.iter().filter(|c| c.is_metadata()) {
            s.traffic[c.idx()] = Default::default();
        }
        assert_eq!(
            check(&expect, &s),
            Err(Failure::MetadataBytes {
                secure: true,
                bytes: 0
            })
        );

        // No-security that moved metadata.
        let (plain, mut s) = run(Scheme::None);
        s.record_traffic(TrafficClass::Mac, 8, false);
        assert_eq!(
            check(&plain, &s),
            Err(Failure::MetadataBytes {
                secure: false,
                bytes: 8
            })
        );

        // A repetition whose stats drifted by one cycle.
        let mut s = good.clone();
        s.cycles += 1;
        for l in &mut s.ledgers {
            l.buckets[0] += 1;
        }
        let repeat = Expect {
            digest: Some(d),
            ..expect
        };
        assert!(matches!(check(&repeat, &s), Err(Failure::Digest { .. })));
    }
}
