//! # wsm-check — deterministic concurrency model checker + repo-law lint
//!
//! The verification layer under the workspace's concurrent core.  Two tools
//! share this crate:
//!
//! * **The model checker** ([`model`], [`sync`], [`thread`]): loom/CHESS-style
//!   stateless exploration.  Production crates (`wsm-sync`, `wsm-core`,
//!   `wsm-pool`) build their delicate protocols on the shim types of
//!   [`sync`]; in normal builds those shims are one-branch delegations to
//!   `std`/`parking_lot`, and inside [`model::Model::check`] they route every
//!   load/store/lock/park through a cooperative scheduler that enumerates
//!   thread interleavings (DFS with CHESS preemption bounding, sleep-set
//!   pruning, an optional TSO store-buffer mode, and replayable failing
//!   schedules).  The protocol harnesses live in this crate's `tests/`
//!   directory — cargo permits the dev-dependency cycle — and run under plain
//!   `cargo test -p wsm-check`.
//! * **The lint** ([`lint`], binary `wsm-lint`): a token-level structural
//!   analyzer enforcing repo law — `unsafe` confined to `crates/pool`,
//!   `#![forbid(unsafe_code)]` headers elsewhere, a `// ord:` justification
//!   on every non-`SeqCst` atomic-ordering site in the concurrent crates, no
//!   sleep-based synchronization, and `cost::touch` metering on the public
//!   working-set map operations.
//!
//! [`fixtures`] holds intentionally buggy protocol variants (a resurrected
//! missed-wakeup doorbell, a racy MPSC slot claim, an under-synchronized
//! Dekker handshake) whose failing schedules the self-tests assert the
//! checker finds and replays — the checker's own regression teeth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod fixtures;
pub mod lint;
pub mod model;
pub mod sync;
pub mod thread;

pub use model::{Failure, Model, Report};
