//! # wsm-check — model-checking tooling + repo-law lint
//!
//! The verification layer under the workspace's concurrent core.  No serving
//! crate depends on it.  Two tools share this crate:
//!
//! * **The model-checking tooling**: the scheduler and the shim types it
//!   explores live in `wsm-sync` (`wsm_sync::Model`), where the production
//!   crate `wsm-core` builds its delicate protocols on them.  This crate
//!   holds what drives it: the protocol harnesses in its `tests/` directory
//!   (run under plain `cargo test -p wsm-check`) and the seeded-bug
//!   [`fixtures`].
//! * **The lint** ([`lint`], binary `wsm-lint`): a token-level structural
//!   analyzer enforcing repo law — no `unsafe` anywhere, a
//!   `#![forbid(unsafe_code)]` header on every crate root, a `// ord:`
//!   justification on every non-`SeqCst` atomic-ordering site in the
//!   concurrent crates, no sleep-based synchronization, `cost::touch`
//!   metering on the public working-set map operations, and no unused
//!   `[dependencies]` entry.
//!
//! [`fixtures`] holds intentionally buggy protocol variants (a resurrected
//! missed-wakeup doorbell, a racy MPSC slot claim, an under-synchronized
//! Dekker handshake) whose failing schedules the self-tests assert the
//! checker finds and replays — the checker's own regression teeth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixtures;
pub mod lint;
