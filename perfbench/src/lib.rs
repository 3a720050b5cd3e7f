//! Host-time benchmark of the Plutus simulator.
//!
//! The harness drives the simulator only through public layer calls, in
//! the order `plutus_bench::run_one` makes them: trace generation
//! ([`workloads::WorkloadSpec::trace_knobbed_seeded`]), set-up
//! ([`gpu_sim::Simulator::with_telemetry`], which installs the memory
//! image through the engines) and the event loop
//! ([`gpu_sim::Simulator::run`]). End-to-end metrics come from untimed
//! engines; the traced run wraps every engine in a
//! [`timed::TimedEngine`] and splits the layers by subtraction.

pub mod check;
pub mod harness;
pub mod metrics;
pub mod timed;

use gpu_sim::{EngineFactory, NoSecurityEngine};
use plutus_core::{PlutusConfig, PlutusEngine};
use secure_mem::{CommonCountersEngine, PssmEngine, SecureMemConfig};

/// The four schemes of the `figrepro` matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No memory security.
    None,
    /// The PSSM baseline.
    Pssm,
    /// Common counters layered on PSSM.
    CommonCounters,
    /// Full Plutus.
    Plutus,
}

impl Scheme {
    /// Every scheme, in `figrepro` column order.
    pub const ALL: [Scheme; 4] = [
        Scheme::None,
        Scheme::Pssm,
        Scheme::CommonCounters,
        Scheme::Plutus,
    ];

    /// The label `figrepro` prints.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::None => "no-security",
            Scheme::Pssm => "pssm",
            Scheme::CommonCounters => "common-counters",
            Scheme::Plutus => "plutus",
        }
    }

    /// Whether the scheme protects memory.
    pub fn is_secure(self) -> bool {
        self != Scheme::None
    }

    /// A fresh engine factory, built with the constructors
    /// `plutus_bench::Scheme::factory` uses. Common counters share a
    /// region table across partitions, so every simulation needs its
    /// own factory.
    pub fn factory(self) -> Box<dyn EngineFactory> {
        match self {
            Scheme::None => Box::new(NoSecurityEngine::factory()),
            Scheme::Pssm => Box::new(PssmEngine::factory(SecureMemConfig::pssm())),
            Scheme::CommonCounters => {
                Box::new(CommonCountersEngine::factory(SecureMemConfig::pssm()))
            }
            Scheme::Plutus => Box::new(PlutusEngine::factory(PlutusConfig::full())),
        }
    }
}
