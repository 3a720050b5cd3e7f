//! Secure-memory machinery for GPUs: the metadata systems and baseline
//! engines on top of which Plutus (HPCA 2023) is built.
//!
//! # Components
//!
//! - [`config::SecureMemConfig`] — metadata sizes, fetch granularities
//!   (the paper's Fig. 14 design space), cipher selection, cache geometry.
//! - [`layout::Layout`] — where counters, MACs, and BMT levels live in
//!   device memory.
//! - [`counter_system::CounterSystem`] — sectored split counters
//!   (PSSM organization) + counter cache + Bonsai Merkle Tree with lazy
//!   updates.
//! - [`mac_system::MacSystem`] — per-sector stateful MACs + sectored MAC
//!   cache.
//! - [`pssm::PssmEngine`] — the paper's baseline engine (also realizes the
//!   Fig. 16 granularity design points and the Fig. 20 no-tree mode).
//! - [`common_counters::CommonCountersEngine`] — the Common Counters
//!   comparison point (clean-region counter elision).
//! - [`plane::DataPlane`] — the protected-data plane every secure engine
//!   shares: cipher selection, install, overflow re-encryption behind the
//!   storm gate, the key-rotation walk, and Phoenix crash recovery.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{BackingMemory, SectorAddr, SecurityEngine};
//! use secure_mem::{PssmEngine, SecureMemConfig};
//!
//! let mut engine = PssmEngine::new(SecureMemConfig::test_small());
//! let mut mem = BackingMemory::new();
//! let addr = SectorAddr::new(0x1000);
//! engine.on_writeback(addr, &[42; 32], &mut mem);
//! let fill = engine.on_fill(addr, &mut mem);
//! assert_eq!(fill.plaintext, [42; 32]);
//! assert!(fill.violation.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bmt;
pub mod cipher;
pub mod common_counters;
pub mod config;
pub mod counter_store;
pub mod counter_system;
pub mod error;
pub mod layout;
pub mod mac_store;
pub mod mac_system;
pub mod plane;
pub mod pssm;
pub mod tenant;

pub use cipher::DataCipher;
pub use common_counters::{CommonCountersEngine, CommonCountersFactory};
pub use config::{CipherKind, CounterOrg, SecureMemConfig};
pub use counter_store::{CounterStore, IncrementOutcome};
pub use counter_system::{CounterAccess, CounterSystem};
pub use error::SecureMemError;
pub use layout::Layout;
pub use mac_store::MacStore;
pub use mac_system::{MacAccess, MacSystem};
pub use pssm::{PssmEngine, PssmFactory};
pub use tenant::{TenancyConfig, TenantCrypto};
