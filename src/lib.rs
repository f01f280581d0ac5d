//! Facade crate for the Secure Data Replication workspace.
//!
//! Re-exports every subsystem so examples, integration tests, and downstream
//! users can depend on a single crate:
//!
//! * [`crypto`] — hashes, hash-based signatures, certificates.
//! * [`sim`] — deterministic discrete-event simulator (network, CPU, faults).
//! * [`store`] — the replicated data content: documents, indexes, queries.
//! * [`broadcast`] — reliable total-order broadcast for the master set.
//! * [`core`] — the paper's system: masters, slaves, clients, auditor.
//! * [`baselines`] — state-signing and state-machine-replication comparators.
//!
//! See `README.md` for a tour of the system and its measurements.

#![forbid(unsafe_code)]

pub use sdr_baselines as baselines;
pub use sdr_broadcast as broadcast;
pub use sdr_core as core;
pub use sdr_crypto as crypto;
pub use sdr_sim as sim;
pub use sdr_store as store;
