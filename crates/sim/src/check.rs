//! Opt-in schedule points for the deterministic model checker.
//!
//! This module is the `cycada_sim`-facing wrapper over
//! [`parking_lot::schedule`] (the vendored shim is the leaf crate of the
//! workspace, so the hook primitive lives there and everything — including
//! this crate — can call it without a dependency cycle). The lock-free
//! structures in this crate mark their racy steps with [`schedule_point`]
//! (or the [`crate::schedule_point!`] macro), which is a single relaxed
//! atomic load when no `cycada_check` exploration is active — the same
//! disabled-cost contract as the trace gate in [`crate::trace`].
//!
//! Instrumented seams in this crate and its dependents:
//!
//! * the trace seqlock ring ([`crate::trace`]): writer publish steps and
//!   snapshot read/verify steps;
//! * [`crate::slots::SlotTable`] chunk publication;
//! * [`crate::intern`] `FnId` interning and `FnDense` write-once slot
//!   initialisation;
//! * [`crate::VirtualClock::charge_ns`] — the charge ledger, the hottest
//!   path in the simulator;
//! * `cycada_diplomat`'s `ImpersonationGuard` begin/end persona walks;
//! * every `parking_lot` `Mutex`/`RwLock` acquire and release (modeled
//!   directly by the shim).

pub use parking_lot::schedule::{
    activate, enabled, install, managed, point, Access, ActiveGuard, Event, Hook,
};

/// Marks a schedule point: a named, explorable step in a concurrency
/// protocol. No-op (one relaxed load) unless a `cycada_check` exploration
/// is active and the calling thread is managed by it.
#[inline]
pub fn schedule_point(label: &'static str, obj: usize, access: Access) {
    point(label, obj, access);
}

/// Macro form of [`check::schedule_point`](schedule_point) for call sites
/// outside `cycada_sim` that want the gate inlined without importing the
/// module.
///
/// # Examples
///
/// ```
/// use cycada_sim::check::Access;
///
/// let obj = 0x1000usize;
/// cycada_sim::schedule_point!("example.step", obj, Access::Write);
/// ```
#[macro_export]
macro_rules! schedule_point {
    ($label:expr, $obj:expr, $access:expr) => {
        $crate::check::schedule_point($label, $obj, $access)
    };
}
