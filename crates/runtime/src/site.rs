//! Acquisition sites — how the real-thread runtime names program locations.
//!
//! Rust has no `dvmGetCallStack`: a library cannot cheaply capture the
//! caller's call stack at run time. The paper itself points out the fix (§4):
//! the *compiler* can hand Dimmunix a constant identifier per
//! synchronization statement, bound to the program location, and skip stack
//! retrieval entirely. Two surfaces provide that identifier:
//!
//! * **Implicit** (the drop-in path): every acquisition method of the
//!   `Immune*` lock types is `#[track_caller]`, so plain `mutex.lock()`
//!   derives its site from [`std::panic::Location::caller()`] —
//!   [`AcquisitionSite::here`]. File and line are `&'static str` / `u32`
//!   compile-time constants, exactly what [`AcquisitionSite`] holds; no
//!   macro, no argument.
//! * **Explicit** (the deterministic-test path): the
//!   [`acquire_site!`](crate::acquire_site) macro, or
//!   [`AcquisitionSite::new`] with a hand-chosen scope, passed to the
//!   `*_at` acquisition variants. Paper experiments and schedule-replay
//!   tests use this so the same site identity can be pinned across runs and
//!   files.
//!
//! The two surfaces are equivalent by construction: `acquire_site!()`
//! expands to [`AcquisitionSite::here`], so an antibody learned through one
//! is matched by the other (asserted by the site-equivalence tests).

use dimmunix_core::{CallStack, Frame, SiteId};
use std::fmt;

/// Scope recorded by implicitly captured sites ([`AcquisitionSite::here`]
/// and the zero-argument [`acquire_site!`](crate::acquire_site)).
/// [`std::panic::Location`] carries no module path, so all implicit sites
/// share this constant scope; site identity is carried entirely by `file` +
/// `line`.
pub const CALLER_SCOPE: &str = "caller";

/// A static synchronization site: the program location of a lock statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcquisitionSite {
    /// Enclosing module or function (used as the frame's method name).
    pub scope: &'static str,
    /// Source file.
    pub file: &'static str,
    /// Source line.
    pub line: u32,
}

impl AcquisitionSite {
    /// Creates a site from its components (prefer
    /// [`acquire_site!`](crate::acquire_site) or [`here`](Self::here)).
    pub const fn new(scope: &'static str, file: &'static str, line: u32) -> Self {
        AcquisitionSite { scope, file, line }
    }

    /// Captures the caller's source location as a site. This is the
    /// implicit-site path: the `#[track_caller]` attribute propagates
    /// through the `Immune*` lock methods, so `mutex.lock()` records the
    /// file and line of the `lock()` call itself — the paper's
    /// compiler-provided static identifier, with `rustc` as the compiler.
    #[must_use]
    #[track_caller]
    pub fn here() -> Self {
        let loc = std::panic::Location::caller();
        AcquisitionSite::new(CALLER_SCOPE, loc.file(), loc.line())
    }

    /// Converts the site into the depth-1 call stack the engine interns.
    pub fn to_call_stack(self) -> CallStack {
        CallStack::single(Frame::new(self.scope, self.file, self.line))
    }

    /// Derives a stable numeric id for the site: deliberate API, the bridge
    /// from a source location to the paper's compiler-id optimization (§4).
    /// A substrate that keys acquisitions by id passes
    /// `CallStack::from_site(site.to_site_id())` instead of a captured
    /// stack. The runtime itself interns the site's depth-1 stack.
    pub fn to_site_id(self) -> SiteId {
        // FNV-1a over the textual location; stable across runs because it
        // depends only on the source location.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self
            .scope
            .as_bytes()
            .iter()
            .chain(self.file.as_bytes())
            .chain(self.line.to_le_bytes().iter())
        {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SiteId::new(hash)
    }
}

impl fmt::Display for AcquisitionSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}:{})", self.scope, self.file, self.line)
    }
}

/// Captures the current source location as an [`AcquisitionSite`].
///
/// The zero-argument form is byte-for-byte equivalent to the implicit site
/// a `#[track_caller]` acquisition (`lock()`, `read()`, …) captures on the
/// same line — it expands to [`AcquisitionSite::here`]. The one-argument
/// form pins an explicit scope name, which deterministic tests use to keep
/// site identity stable across refactors.
///
/// ```
/// use dimmunix_rt::acquire_site;
/// let site = acquire_site!();
/// assert!(site.file.ends_with(".rs"));
/// let named = acquire_site!("StatusBarService.expand");
/// assert_eq!(named.scope, "StatusBarService.expand");
/// ```
#[macro_export]
macro_rules! acquire_site {
    () => {
        $crate::AcquisitionSite::here()
    };
    ($scope:expr) => {
        $crate::AcquisitionSite::new($scope, file!(), line!())
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_captures_location() {
        let a = acquire_site!();
        let b = acquire_site!();
        assert_eq!(a.file, b.file);
        assert_ne!(a.line, b.line);
        assert!(a.to_string().contains(".rs"));
    }

    #[test]
    fn named_scope_overrides_module_path() {
        let s = acquire_site!("StatusBarService.expand");
        assert_eq!(s.scope, "StatusBarService.expand");
    }

    #[test]
    fn call_stack_is_depth_one_and_stable() {
        let s = AcquisitionSite::new("scope", "file.rs", 10);
        let cs = s.to_call_stack();
        assert_eq!(cs.depth(), 1);
        assert_eq!(
            cs,
            AcquisitionSite::new("scope", "file.rs", 10).to_call_stack()
        );
    }

    #[test]
    fn here_and_zero_arg_macro_are_byte_identical_on_one_line() {
        // Both captures sit on the same source line, so the equivalence of
        // the implicit (`here()`) and explicit (`acquire_site!()`) surfaces
        // is observable as plain equality — scope, file, and line all match.
        #[rustfmt::skip]
        let (implicit, explicit) = (AcquisitionSite::here(), acquire_site!());
        assert_eq!(implicit, explicit);
        assert_eq!(implicit.scope, CALLER_SCOPE);
        assert_eq!(implicit.to_call_stack(), explicit.to_call_stack());
        assert_eq!(implicit.to_site_id(), explicit.to_site_id());
    }

    #[test]
    fn track_caller_propagates_through_helpers() {
        #[track_caller]
        fn capture() -> AcquisitionSite {
            AcquisitionSite::here()
        }
        #[rustfmt::skip]
        let (through_helper, direct) = (capture(), AcquisitionSite::here());
        assert_eq!(through_helper, direct);
    }

    #[test]
    fn site_ids_are_stable_and_distinct() {
        let a = AcquisitionSite::new("scope", "file.rs", 10);
        let b = AcquisitionSite::new("scope", "file.rs", 11);
        assert_eq!(a.to_site_id(), a.to_site_id());
        assert_ne!(a.to_site_id(), b.to_site_id());
    }
}
