//! Loaded library instances.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crate::image::{LibraryImage, LibraryState};

/// Identity of one loaded instance. Two replicas of the same image have
/// different instance IDs (and different base addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub(crate) u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// The resolved address of a symbol in a particular loaded instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolAddr {
    /// Virtual address of the symbol.
    pub va: u64,
    /// The instance the symbol was resolved in.
    pub instance: InstanceId,
}

/// One loaded instance of a library image.
///
/// Shares its image's symbol table with every other instance of that image;
/// it owns only its unique base virtual address, the per-instance state
/// produced by the constructor, and strong references to the dependency
/// instances it was linked against — an isolated tree under DLR.
pub struct LoadedLibrary {
    image: LibraryImage,
    instance: InstanceId,
    base_va: u64,
    state: LibraryState,
    deps: Vec<Arc<LoadedLibrary>>,
}

impl LoadedLibrary {
    pub(crate) fn new(
        image: LibraryImage,
        instance: InstanceId,
        base_va: u64,
        deps: Vec<Arc<LoadedLibrary>>,
    ) -> Self {
        let state = image.run_constructor();
        LoadedLibrary {
            image,
            instance,
            base_va,
            state,
            deps,
        }
    }

    /// The image name (e.g. `"libEGL.so"`).
    pub fn name(&self) -> &str {
        self.image.name()
    }

    /// This instance's identity.
    pub fn instance_id(&self) -> InstanceId {
        self.instance
    }

    /// The base virtual address of this instance's mapping.
    pub fn base_va(&self) -> u64 {
        self.base_va
    }

    /// The dependency instances this instance was linked against.
    pub fn deps(&self) -> &[Arc<LoadedLibrary>] {
        &self.deps
    }

    /// The per-instance state, downcast to its concrete type.
    ///
    /// Returns `None` if `T` is not the type the constructor produced.
    pub fn state<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.state.clone().downcast::<T>().ok()
    }

    /// Looks up a symbol in this instance only (no dependency search). The
    /// `i`-th exported symbol lives at `base_va + 0x10 * (i + 1)`.
    pub fn local_symbol(&self, symbol: &str) -> Option<SymbolAddr> {
        self.image.symbol_index(symbol).map(|i| SymbolAddr {
            va: self.base_va + 0x10 * (i as u64 + 1),
            instance: self.instance,
        })
    }

    /// Looks up a symbol in this instance and then breadth-first through
    /// its dependency tree — `dlsym` semantics on a tree handle.
    pub fn symbol(&self, symbol: &str) -> Option<SymbolAddr> {
        if let Some(addr) = self.local_symbol(symbol) {
            return Some(addr);
        }
        let mut queue: Vec<&Arc<LoadedLibrary>> = self.deps.iter().collect();
        let mut i = 0;
        while i < queue.len() {
            let lib = queue[i];
            if let Some(addr) = lib.local_symbol(symbol) {
                return Some(addr);
            }
            queue.extend(lib.deps.iter());
            i += 1;
        }
        None
    }

    /// All library instances in this tree (self first, then dependencies,
    /// breadth-first, deduplicated).
    pub fn tree(self: &Arc<Self>) -> Vec<Arc<LoadedLibrary>> {
        let mut out: Vec<Arc<LoadedLibrary>> = vec![self.clone()];
        let mut seen = vec![self.instance];
        let mut i = 0;
        while i < out.len() {
            for dep in out[i].deps.clone() {
                if !seen.contains(&dep.instance) {
                    seen.push(dep.instance);
                    out.push(dep);
                }
            }
            i += 1;
        }
        out
    }
}

impl fmt::Debug for LoadedLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadedLibrary")
            .field("name", &self.name())
            .field("instance", &self.instance)
            .field("base_va", &format_args!("{:#x}", self.base_va))
            .field("deps", &self.deps.iter().map(|d| d.name()).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::LibraryImage;

    fn leaf(name: &str, symbols: &[&str], base: u64, id: u64) -> Arc<LoadedLibrary> {
        Arc::new(LoadedLibrary::new(
            LibraryImage::builder(name)
                .symbols(symbols.iter().copied())
                .build(),
            InstanceId(id),
            base,
            Vec::new(),
        ))
    }

    #[test]
    fn symbols_get_distinct_vas_from_base() {
        let lib = leaf("liba.so", &["f", "g"], 0x1000, 1);
        let f = lib.local_symbol("f").unwrap();
        let g = lib.local_symbol("g").unwrap();
        assert_ne!(f.va, g.va);
        assert!(f.va >= 0x1000 && g.va >= 0x1000);
        assert!(lib.local_symbol("h").is_none());
    }

    #[test]
    fn symbol_searches_dependency_tree() {
        let nvos = leaf("libnvos.so", &["NvOsAlloc"], 0x1000, 1);
        let nvrm = Arc::new(LoadedLibrary::new(
            LibraryImage::builder("libnvrm.so").symbols(["NvRmOpen"]).build(),
            InstanceId(2),
            0x2000,
            vec![nvos],
        ));
        let gles = Arc::new(LoadedLibrary::new(
            LibraryImage::builder("libGLESv2_tegra.so")
                .symbols(["glDrawArrays"])
                .build(),
            InstanceId(3),
            0x3000,
            vec![nvrm],
        ));
        assert!(gles.symbol("glDrawArrays").is_some());
        let addr = gles.symbol("NvOsAlloc").unwrap();
        assert_eq!(addr.instance, InstanceId(1));
        assert!(gles.symbol("missing").is_none());
        assert!(gles.local_symbol("NvOsAlloc").is_none());
    }

    #[test]
    fn tree_enumerates_all_instances_once() {
        let shared = leaf("libc.so", &[], 0x100, 1);
        let a = Arc::new(LoadedLibrary::new(
            LibraryImage::builder("liba.so").build(),
            InstanceId(2),
            0x200,
            vec![shared.clone()],
        ));
        let b = Arc::new(LoadedLibrary::new(
            LibraryImage::builder("libb.so").build(),
            InstanceId(3),
            0x300,
            vec![shared, a.clone()],
        ));
        let tree = b.tree();
        let names: Vec<&str> = tree.iter().map(|l| l.name()).collect();
        assert_eq!(names, ["libb.so", "libc.so", "liba.so"]);
    }

    #[test]
    fn instances_and_replicas_share_one_symbol_table() {
        let image = LibraryImage::builder("libs.so").symbols(["f", "g"]).build();
        let a = LoadedLibrary::new(image.clone(), InstanceId(1), 0x1000, Vec::new());
        let b = LoadedLibrary::new(image, InstanceId(2), 0x2000, Vec::new());
        assert!(std::ptr::eq(a.image.symbols().as_ptr(), b.image.symbols().as_ptr()));
        assert_ne!(a.local_symbol("g").unwrap().va, b.local_symbol("g").unwrap().va);

        let linker = crate::DynamicLinker::new(cycada_sim::VirtualClock::new());
        linker.register_image(LibraryImage::builder("libr.so").symbols(["h"]).build());
        let r1 = linker.dlforce("libr.so").unwrap();
        let r2 = linker.dlforce("libr.so").unwrap();
        assert!(std::ptr::eq(
            r1.root().image.symbols().as_ptr(),
            r2.root().image.symbols().as_ptr(),
        ));
        assert_ne!(r1.root().instance_id(), r2.root().instance_id());
    }

    #[test]
    fn typed_state_downcast() {
        let lib = Arc::new(LoadedLibrary::new(
            LibraryImage::builder("libx.so")
                .constructor(|| Arc::new(String::from("hello")))
                .build(),
            InstanceId(5),
            0x5000,
            Vec::new(),
        ));
        assert_eq!(*lib.state::<String>().unwrap(), "hello");
        assert!(lib.state::<u32>().is_none());
    }
}
