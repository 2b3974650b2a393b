//! Function-name interning and dense, lock-free function-keyed tables.
//!
//! The paper's diplomat dispatch path (§4.1, Table 3) resolves every bridged
//! iOS function through a per-process symbol cache — "the address is cached
//! in a locally-scoped static variable" — so the steady-state cost of a
//! diplomatic call is a handful of loads, not a string lookup. The
//! reproduction's original dispatch plane strayed from that: every bridged
//! call hashed a `&'static str` into a mutex-guarded `HashMap` twice (once
//! for the diplomat entry, once for stats accounting).
//!
//! This module restores the paper's shape. [`FnId`] interns a function name
//! into a small dense integer (a `u32` index into a global append-only
//! table); [`FnDense`] is the chunked, lock-free table keyed by that
//! integer. Steady-state dispatch becomes: load a cached [`FnId`],
//! index a dense slot table, bump atomic counters. Locks are taken only at
//! registration (first intern of a name) and snapshot time.
//!
//! # Examples
//!
//! ```
//! use cycada_sim::intern::FnId;
//!
//! let a = FnId::intern("glDrawArrays");
//! let b = FnId::intern("glDrawArrays");
//! assert_eq!(a, b);                       // idempotent
//! assert_eq!(a.name(), "glDrawArrays");   // round-trips to the name
//! assert_eq!(FnId::lookup("glDrawArrays"), Some(a));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use parking_lot::RwLock;

/// Slots per lazily-allocated chunk of a dense table.
const CHUNK: usize = 256;
/// Maximum number of chunks; `CHUNK * MAX_CHUNKS` bounds the id space.
const MAX_CHUNKS: usize = 256;

/// Maximum number of distinct interned function names (65 536 — two orders
/// of magnitude above the 344 iOS GLES entry points of Table 2).
pub const MAX_FN_IDS: usize = CHUNK * MAX_CHUNKS;

/// A small dense identifier for an interned function name.
///
/// Ids are assigned in interning order starting from 0 and are stable for
/// the life of the process: the same sequence of first-time interns always
/// yields the same ids, and a name, once interned, keeps its id forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(u32);

struct InternTable {
    /// Name → id. Locked only on intern/lookup-by-name, never on dispatch.
    by_name: RwLock<HashMap<&'static str, FnId>>,
    /// Id → name. Lock-free reads for snapshot-time name re-attachment.
    names: FnDense<OnceLock<&'static str>>,
    /// Number of ids assigned so far (lock-free mirror of `by_name.len()`).
    len: AtomicU32,
}

fn intern_table() -> &'static InternTable {
    static TABLE: OnceLock<InternTable> = OnceLock::new();
    TABLE.get_or_init(|| InternTable {
        by_name: RwLock::new(HashMap::new()),
        names: FnDense::new(),
        len: AtomicU32::new(0),
    })
}

impl FnId {
    /// Interns `name`, returning its id. The first intern of a name appends
    /// it to the global table (taking a lock); later interns of the same
    /// name return the same id.
    pub fn intern(name: &str) -> FnId {
        let table = intern_table();
        // The read-check / write-recheck dance below is a racy protocol;
        // mark its entry so the model checker can interleave competitors.
        crate::check::schedule_point(
            "intern.fn_id",
            std::ptr::from_ref(table) as usize,
            crate::check::Access::Write,
        );
        if let Some(&id) = table.by_name.read().get(name) {
            return id;
        }
        let mut map = table.by_name.write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = map.get(name) {
            return id;
        }
        let id = FnId(map.len() as u32);
        assert!(
            (id.0 as usize) < MAX_FN_IDS,
            "interned function-name table overflow ({MAX_FN_IDS} names)"
        );
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        table.names.get_or_init(id, || leaked);
        map.insert(leaked, id);
        table.len.store(map.len() as u32, Ordering::Release);
        id
    }

    /// Returns the id for `name` if it has already been interned.
    pub fn lookup(name: &str) -> Option<FnId> {
        intern_table().by_name.read().get(name).copied()
    }

    /// The interned name this id stands for.
    pub fn name(self) -> &'static str {
        intern_table()
            .names
            .get(self)
            .copied()
            .expect("FnId not produced by FnId::intern")
    }

    /// Number of names interned so far. Ids `0..count()` are all valid.
    pub fn count() -> usize {
        intern_table().len.load(Ordering::Acquire) as usize
    }

    /// Every id assigned so far, in interning order.
    pub fn all() -> impl Iterator<Item = FnId> {
        (0..Self::count() as u32).map(FnId)
    }

    /// The raw index value.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A chunked table of default-initialized values keyed by [`FnId`].
///
/// Chunks of [`CHUNK`] slots are heap-allocated on first touch, so an empty
/// table stays small; every slot in a touched chunk exists immediately with
/// `T::default()`, and [`FnDense::slot`] therefore always returns a
/// reference. Reads on the dispatch fast path are two pointer loads and an
/// index — no locks, no hashing.
///
/// Two shapes use it: slots of atomic counters that any thread bumps
/// without an init handshake (the sharded stats accumulator), and
/// write-once `FnDense<OnceLock<T>>` slots (the intern name table, the
/// bridges' diplomat entries), which get [`FnDense::get`] and
/// [`FnDense::get_or_init`].
///
/// # Examples
///
/// ```
/// use std::sync::OnceLock;
/// use cycada_sim::intern::{FnDense, FnId};
///
/// let table: FnDense<OnceLock<&'static str>> = FnDense::new();
/// let id = FnId::intern("glFlush");
/// assert!(table.get(id).is_none());
/// assert_eq!(*table.get_or_init(id, || "libGLESv2_tegra.so"), "libGLESv2_tegra.so");
/// assert_eq!(table.get(id), Some(&"libGLESv2_tegra.so"));
/// ```
pub struct FnDense<T: Default> {
    chunks: [OnceLock<Box<Chunk<T>>>; MAX_CHUNKS],
}

struct Chunk<T> {
    slots: [T; CHUNK],
}

impl<T: Default> FnDense<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        FnDense {
            chunks: [const { OnceLock::new() }; MAX_CHUNKS],
        }
    }

    /// Returns the slot for `id`, allocating its chunk on first touch.
    pub fn slot(&self, id: FnId) -> &T {
        let i = id.index();
        let chunk = self.chunks[i / CHUNK].get_or_init(|| {
            Box::new(Chunk {
                slots: std::array::from_fn(|_| T::default()),
            })
        });
        &chunk.slots[i % CHUNK]
    }

    /// Returns the slot for `id` only if its chunk is already allocated —
    /// snapshot reads use this to skip untouched regions without allocating.
    pub fn peek(&self, id: FnId) -> Option<&T> {
        let i = id.index();
        Some(&self.chunks.get(i / CHUNK)?.get()?.slots[i % CHUNK])
    }
}

impl<T> FnDense<OnceLock<T>> {
    /// Returns the value for `id` if its slot has been initialized.
    pub fn get(&self, id: FnId) -> Option<&T> {
        self.peek(id)?.get()
    }

    /// Returns the value for `id`, initializing the slot with `init` if it
    /// is empty. Concurrent initializers race benignly; one wins.
    pub fn get_or_init(&self, id: FnId, init: impl FnOnce() -> T) -> &T {
        crate::check::schedule_point(
            "intern.table",
            std::ptr::from_ref(self) as usize + id.index(),
            crate::check::Access::Read,
        );
        self.slot(id).get_or_init(init)
    }
}

impl<T: Default> Default for FnDense<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> std::fmt::Debug for FnDense<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let populated = self.chunks.iter().filter(|c| c.get().is_some()).count();
        f.debug_struct("FnDense")
            .field("chunks", &populated)
            .finish()
    }
}

/// Pads and aligns `T` to a 64-byte cache line so per-shard counters do not
/// false-share (the role crossbeam's `CachePadded` plays upstream).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Caches a [`FnId`] in a call-site-local static, mirroring the paper's
/// "locally-scoped static variable" symbol cache: the intern lock is taken
/// at most once per call site, after which dispatch reads a plain static.
///
/// # Examples
///
/// ```
/// use cycada_sim::fn_id;
/// let id = fn_id!("glBindTexture");
/// assert_eq!(id.name(), "glBindTexture");
/// ```
#[macro_export]
macro_rules! fn_id {
    ($name:expr) => {{
        static __CYCADA_FN_ID: ::std::sync::OnceLock<$crate::intern::FnId> =
            ::std::sync::OnceLock::new();
        *__CYCADA_FN_ID.get_or_init(|| $crate::intern::FnId::intern($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_round_trips() {
        let a = FnId::intern("intern_test_fn_a");
        let b = FnId::intern("intern_test_fn_a");
        assert_eq!(a, b);
        assert_eq!(a.name(), "intern_test_fn_a");
        assert_eq!(FnId::lookup("intern_test_fn_a"), Some(a));
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = FnId::intern("intern_test_fn_b");
        let b = FnId::intern("intern_test_fn_c");
        assert_ne!(a, b);
        assert!(FnId::count() >= 2);
    }

    #[test]
    fn lookup_of_unknown_name_is_none() {
        assert_eq!(FnId::lookup("intern_test_never_interned"), None);
    }

    #[test]
    fn fn_table_get_or_init_races_to_one_value() {
        let table: FnDense<OnceLock<u64>> = FnDense::new();
        let id = FnId::intern("intern_test_fn_table");
        assert!(table.get(id).is_none());
        assert_eq!(*table.get_or_init(id, || 7), 7);
        assert_eq!(*table.get_or_init(id, || 9), 7);
        assert_eq!(table.get(id), Some(&7));
    }

    #[test]
    fn fn_dense_slots_default_and_persist() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let table: FnDense<AtomicU64> = FnDense::new();
        let id = FnId::intern("intern_test_fn_dense");
        assert!(table.peek(id).is_none());
        table.slot(id).fetch_add(3, Ordering::Relaxed);
        table.slot(id).fetch_add(4, Ordering::Relaxed);
        assert_eq!(table.peek(id).unwrap().load(Ordering::Relaxed), 7);
    }

    #[test]
    fn fn_id_macro_caches_per_site() {
        fn site() -> FnId {
            crate::fn_id!("intern_test_macro_site")
        }
        assert_eq!(site(), site());
        assert_eq!(site().name(), "intern_test_macro_site");
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
    }
}
