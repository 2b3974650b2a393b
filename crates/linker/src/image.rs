//! Library images: the on-disk description of a `.so`.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Per-instance library state — the library's global/initialization data,
/// created afresh by the constructor on every load (and on every replica).
pub type LibraryState = Arc<dyn Any + Send + Sync>;

/// The constructor run when an instance of the library is loaded.
pub type Constructor = Arc<dyn Fn() -> LibraryState + Send + Sync>;

/// A registered library image: what the linker knows about a `.so` file
/// before any instance is loaded.
///
/// The image is immutable and shared: cloning it clones a pointer, so every
/// instance and every replica of one image reads the same name, dependency
/// list and symbol table — the same file mapped again (§8.1).
///
/// Use [`LibraryImage::builder`] to construct one.
#[derive(Clone)]
pub struct LibraryImage(Arc<Image>);

struct Image {
    name: String,
    deps: Vec<String>,
    symbols: Vec<String>,
    /// Symbol name -> its last position in `symbols`.
    symbol_index: HashMap<String, usize>,
    constructor: Constructor,
    replicable: bool,
}

impl LibraryImage {
    /// Starts building an image with the given name.
    pub fn builder(name: impl Into<String>) -> LibraryImageBuilder {
        LibraryImageBuilder {
            name: name.into(),
            deps: Vec::new(),
            symbols: Vec::new(),
            constructor: None,
            replicable: true,
        }
    }

    /// The image (file) name, e.g. `"libGLESv2_tegra.so"`.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Names of libraries this one depends on (DT_NEEDED entries).
    pub fn deps(&self) -> &[String] {
        &self.0.deps
    }

    /// Exported symbol names.
    pub fn symbols(&self) -> &[String] {
        &self.0.symbols
    }

    /// Position of `symbol` in [`LibraryImage::symbols`]; a repeated name
    /// resolves to its last position.
    pub(crate) fn symbol_index(&self, symbol: &str) -> Option<usize> {
        self.0.symbol_index.get(symbol).copied()
    }

    /// Whether `dlforce` may create fresh instances of this library.
    /// libc is marked non-replicable: "We do not reload libc; all
    /// lib\[rary\] instances use a single, shared libc instance."
    pub fn replicable(&self) -> bool {
        self.0.replicable
    }

    pub(crate) fn run_constructor(&self) -> LibraryState {
        (self.0.constructor)()
    }
}

impl fmt::Debug for LibraryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LibraryImage")
            .field("name", &self.0.name)
            .field("deps", &self.0.deps)
            .field("symbols", &self.0.symbols.len())
            .field("replicable", &self.0.replicable)
            .finish()
    }
}

/// Builder for [`LibraryImage`].
pub struct LibraryImageBuilder {
    name: String,
    deps: Vec<String>,
    symbols: Vec<String>,
    constructor: Option<Constructor>,
    replicable: bool,
}

impl LibraryImageBuilder {
    /// Adds dependencies (by image name).
    pub fn deps<I, S>(mut self, deps: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.deps.extend(deps.into_iter().map(Into::into));
        self
    }

    /// Adds exported symbols.
    pub fn symbols<I, S>(mut self, symbols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.symbols.extend(symbols.into_iter().map(Into::into));
        self
    }

    /// Sets the constructor creating per-instance state. The value returned
    /// becomes the instance's [`LibraryState`], retrievable (typed) via
    /// [`crate::LoadedLibrary::state`].
    pub fn constructor<T, F>(mut self, f: F) -> Self
    where
        T: Any + Send + Sync,
        F: Fn() -> Arc<T> + Send + Sync + 'static,
    {
        self.constructor = Some(Arc::new(move || f() as LibraryState));
        self
    }

    /// Marks the image non-replicable (libc).
    pub fn non_replicable(mut self) -> Self {
        self.replicable = false;
        self
    }

    /// Finishes the image. Images without an explicit constructor get unit
    /// state.
    pub fn build(self) -> LibraryImage {
        // Insert in order so a repeated name keeps its last position.
        let symbol_index = self
            .symbols
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i))
            .collect();
        LibraryImage(Arc::new(Image {
            name: self.name,
            deps: self.deps,
            symbols: self.symbols,
            symbol_index,
            constructor: self
                .constructor
                .unwrap_or_else(|| Arc::new(|| Arc::new(()) as LibraryState)),
            replicable: self.replicable,
        }))
    }
}

impl fmt::Debug for LibraryImageBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LibraryImageBuilder")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_image() {
        let img = LibraryImage::builder("libnvrm.so")
            .deps(["libnvos.so"])
            .symbols(["NvRmOpen", "NvRmClose"])
            .build();
        assert_eq!(img.name(), "libnvrm.so");
        assert_eq!(img.deps(), ["libnvos.so"]);
        assert_eq!(img.symbols(), ["NvRmOpen", "NvRmClose"]);
        assert!(img.replicable());
    }

    #[test]
    fn non_replicable_flag() {
        let img = LibraryImage::builder("libc.so").non_replicable().build();
        assert!(!img.replicable());
    }

    #[test]
    fn constructor_produces_typed_state() {
        let img = LibraryImage::builder("libx.so")
            .constructor(|| Arc::new(41_u32))
            .build();
        let state = img.run_constructor();
        assert_eq!(*state.downcast::<u32>().unwrap(), 41);
    }

    #[test]
    fn default_constructor_gives_unit() {
        let img = LibraryImage::builder("liby.so").build();
        assert!(img.run_constructor().downcast::<()>().is_ok());
    }
}
