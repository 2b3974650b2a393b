//! Cycada's diplomat machinery and thread impersonation.
//!
//! A **diplomat** (diplomatic function) "temporarily switches the persona
//! of a calling thread to execute domestic code from within a foreign app"
//! (§1). This crate implements the paper's extended diplomat construction:
//!
//! * the complete 11-step call procedure of §3 — lazy symbol resolution
//!   through the dynamic linker, **prelude** in the foreign persona,
//!   argument save, `set_persona` syscall, domestic invocation, return-value
//!   save, `set_persona` back, errno translation into the foreign TLS,
//!   **postlude**, return — with virtual-time costs calibrated to Table 3
//!   (816 ns bare, 828 ns with empty prelude/postlude, 933 ns with the GLES
//!   prelude/postlude);
//! * the four **diplomat usage patterns** of §4.1 (direct, indirect,
//!   data-dependent, multi) as a typed classification carried by every
//!   [`DiplomatEntry`];
//! * **graphics TLS discovery**: the libc `pthread_key_create` /
//!   `pthread_key_delete` hooks, gated open inside graphics diplomats'
//!   preludes/postludes so only graphics-related slots are tracked (§7.1);
//! * **thread impersonation** (§7.1): a running thread temporarily assumes
//!   the graphics TLS of a target thread across *both* personas, with
//!   updates reflected back on return.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod error;
mod impersonation;
mod tls;

pub use engine::{DiplomatEngine, DiplomatEntry, DiplomatPattern, HookKind, StatsScopeGuard};
pub use error::DiplomatError;
pub use impersonation::ImpersonationGuard;
pub use tls::GraphicsTls;

// Re-exported so bridge crates can name ids without a direct cycada-sim
// import (and so `cycada_sim::fn_id!` composes with their entry tables).
pub use cycada_sim::intern::FnId;

/// Convenient result alias for diplomat operations.
pub type Result<T> = std::result::Result<T, DiplomatError>;
