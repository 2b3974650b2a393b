//! Schedule points: the instrumentation seam the deterministic model
//! checker (`cycada_check`) drives.
//!
//! Every synchronization-relevant operation in the workspace funnels
//! through [`point`]: lock acquire/release in this shim, plus the explicit
//! `schedule_point()` calls `cycada_sim` sprinkles over its lock-free
//! structures (trace seqlock, `SlotTable` chunk publication, `FnId`
//! interning, the `VirtualClock` charge ledger) and `cycada_diplomat`'s
//! impersonation begin/end.
//!
//! The contract mirrors the trace gate in `cycada_sim::trace`:
//!
//! * **Checker not driving** (every normal build and test run): [`point`]
//!   is one relaxed atomic load and a predicted branch — sub-nanosecond,
//!   no allocation, no syscalls. The hook lives in this leaf crate so the
//!   instrumented code needs no dependency on the checker.
//! * **Checker driving** (an exploration is active *and* the calling
//!   thread is managed by it): [`point`] yields to the installed [`Hook`],
//!   which parks the thread until the explorer schedules it. Threads the
//!   explorer does not manage — including unrelated tests in the same
//!   process — fall through untouched.
//!
//! Lock modeling: when a managed thread takes a [`crate::Mutex`] or
//! [`crate::RwLock`], the shim switches to a non-blocking `try_lock` loop
//! (yield with [`Access::Acquire`], attempt, on contention yield with
//! [`Access::Blocked`] until a matching [`Access::Release`] arrives). The
//! explorer therefore always stays in control: a managed thread never
//! blocks inside the OS, so every interleaving — including ones where the
//! lock holder is suspended indefinitely — is explorable, and deadlocks
//! are detected rather than hung on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// What kind of synchronization step a schedule point describes. The
/// explorer uses the pair `(obj, access)` for its independence relation:
/// two events commute unless they touch the same `obj` and at least one
/// of them is a write-like access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// About to attempt a lock acquisition on `obj`.
    Acquire,
    /// The acquisition attempt on `obj` failed; the thread is not runnable
    /// until another thread releases `obj`.
    Blocked,
    /// The lock on `obj` has just been released (the real unlock has
    /// already happened when this point fires).
    Release,
    /// A read-like racy access to `obj` (commutes with other reads).
    Read,
    /// A write-like racy access to `obj`.
    Write,
    /// A pure yield — no memory effect, commutes with everything.
    Yield,
}

impl Access {
    /// Whether two accesses to the *same* object are dependent (reordering
    /// them can change the outcome).
    pub fn conflicts_with(self, other: Access) -> bool {
        !matches!(
            (self, other),
            (Access::Yield, _) | (_, Access::Yield) | (Access::Read, Access::Read)
        )
    }
}

/// One schedule point: a static label (for replay diagnostics), the
/// identity of the object touched, and the access kind.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Static description of the call site (e.g. `"mutex"`,
    /// `"trace.push"`).
    pub label: &'static str,
    /// Identity of the touched object — typically its address. Only
    /// compared for equality, and only against events from the same
    /// execution, so address reuse across executions is harmless.
    pub obj: usize,
    /// The access kind.
    pub access: Access,
}

/// The checker side of the seam. Installed once per process by
/// `cycada_check`; the implementation decides per-thread (via its own
/// thread-local state) whether the calling thread is managed.
pub trait Hook: Sync {
    /// Whether the *calling thread* belongs to a live exploration.
    fn is_managed(&self) -> bool;
    /// Called at every schedule point on a managed thread. Typically parks
    /// the thread until the explorer schedules it.
    fn point(&self, event: Event);
}

/// Number of live explorations in the process. Zero (the overwhelmingly
/// common case) short-circuits [`point`] to a single relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
static HOOK: OnceLock<&'static dyn Hook> = OnceLock::new();

/// Installs the process-wide hook. The first installation wins; later
/// calls with a different hook return `false`. Installing does not
/// activate anything — only [`activate`] makes [`point`] consult the hook.
pub fn install(hook: &'static dyn Hook) -> bool {
    HOOK.set(hook).is_ok()
}

/// Returns `true` while at least one exploration is active.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Whether the calling thread is currently managed by the checker. The
/// fast path (no active exploration) is one relaxed load.
#[inline]
pub fn managed() -> bool {
    if !enabled() {
        return false;
    }
    matches!(HOOK.get(), Some(h) if h.is_managed())
}

/// A schedule point. No-op unless an exploration is active *and* the
/// calling thread is managed by it, in which case it yields to the
/// explorer.
#[inline]
pub fn point(label: &'static str, obj: usize, access: Access) {
    if !enabled() {
        return;
    }
    point_slow(label, obj, access);
}

#[cold]
fn point_slow(label: &'static str, obj: usize, access: Access) {
    if let Some(hook) = HOOK.get() {
        if hook.is_managed() {
            hook.point(Event { label, obj, access });
        }
    }
}

/// RAII marker for one live exploration; created by [`activate`].
#[derive(Debug)]
pub struct ActiveGuard(());

/// Marks an exploration as active for the guard's lifetime. While any
/// guard is alive, [`point`] consults the installed hook (managed threads
/// only; everything else still falls through).
pub fn activate() -> ActiveGuard {
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    ActiveGuard(())
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        assert!(!managed());
        // A point with no active exploration must be a no-op.
        point("test", 1, Access::Write);
    }

    #[test]
    fn activation_is_refcounted() {
        let a = activate();
        assert!(enabled());
        let b = activate();
        drop(a);
        assert!(enabled(), "second guard keeps the gate open");
        drop(b);
        assert!(!enabled());
    }

    #[test]
    fn conflict_relation() {
        assert!(Access::Write.conflicts_with(Access::Read));
        assert!(Access::Acquire.conflicts_with(Access::Release));
        assert!(!Access::Read.conflicts_with(Access::Read));
        assert!(!Access::Yield.conflicts_with(Access::Write));
    }
}
