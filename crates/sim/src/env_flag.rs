//! Lazy process-wide on/off switches backed by an environment variable.
//!
//! The trace gate (`CYCADA_TRACE`) and the replay master switch
//! (`CYCADA_RECORD`) are both an [`EnvFlag`]: the variable is read once,
//! on the first check, and every later check is one relaxed atomic load.
//!
//! # Examples
//!
//! ```
//! use cycada_sim::env_flag::EnvFlag;
//!
//! static FLAG: EnvFlag = EnvFlag::new("CYCADA_DOC_EXAMPLE_FLAG", true);
//! assert!(FLAG.get()); // unset → the default
//! FLAG.set(Some(false));
//! assert!(!FLAG.get());
//! FLAG.set(None); // re-arms the lazy lookup
//! assert!(FLAG.get());
//! ```

use std::sync::atomic::{AtomicU8, Ordering};

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// A boolean switch read lazily from an environment variable.
///
/// The value is trimmed and compared case-insensitively: `1`, `on` and
/// `true` turn the flag on; `0`, `off` and `false` turn it off; an unset
/// variable or any other value leaves the default.
#[derive(Debug)]
pub struct EnvFlag {
    var: &'static str,
    default: bool,
    state: AtomicU8,
}

impl EnvFlag {
    /// A flag read from `var`, falling back to `default`.
    pub const fn new(var: &'static str, default: bool) -> Self {
        EnvFlag {
            var,
            default,
            state: AtomicU8::new(UNINIT),
        }
    }

    /// Whether the flag is on. One relaxed atomic load once initialised.
    #[inline]
    pub fn get(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            ON => true,
            OFF => false,
            _ => self.init(),
        }
    }

    #[cold]
    fn init(&self) -> bool {
        let on = parse(std::env::var(self.var).ok().as_deref()).unwrap_or(self.default);
        // Only transition out of UNINIT: an explicit `set` racing the
        // first check must win.
        let _ = self.state.compare_exchange(
            UNINIT,
            if on { ON } else { OFF },
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.state.load(Ordering::Relaxed) == ON
    }

    /// Overrides the flag process-wide. `None` re-arms the lazy lookup of
    /// the environment variable.
    pub fn set(&self, on: Option<bool>) {
        let state = match on {
            Some(true) => ON,
            Some(false) => OFF,
            None => UNINIT,
        };
        self.state.store(state, Ordering::Relaxed);
    }
}

/// The flag value `value` spells, if it spells one.
fn parse(value: Option<&str>) -> Option<bool> {
    let v = value?.trim().to_ascii_lowercase();
    match v.as_str() {
        "1" | "on" | "true" => Some(true),
        "0" | "off" | "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_trimmed_and_case_insensitive() {
        for on in ["1", "on", "true", " TRUE ", "On\n"] {
            assert_eq!(parse(Some(on)), Some(true), "{on:?}");
        }
        for off in ["0", "off", "false", " 0 ", "FALSE", "Off"] {
            assert_eq!(parse(Some(off)), Some(false), "{off:?}");
        }
        for other in ["", "2", "yes", "enabled"] {
            assert_eq!(parse(Some(other)), None, "{other:?}");
        }
        assert_eq!(parse(None), None);
    }

    #[test]
    fn unset_variable_reads_the_default_and_set_overrides() {
        static FLAG: EnvFlag = EnvFlag::new("CYCADA_ENV_FLAG_TEST_NEVER_SET", false);
        assert!(!FLAG.get());
        FLAG.set(Some(true));
        assert!(FLAG.get());
        FLAG.set(None);
        assert!(!FLAG.get());
    }
}
