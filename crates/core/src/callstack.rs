//! Call stacks and stack frames.
//!
//! A deadlock signature is built from call stacks: the *outer* call stack a
//! thread had when it acquired a lock involved in the deadlock, and the
//! *inner* call stack it had at the moment of the deadlock (§2.1). A frame is
//! a program location; the top frame of an outer (inner) stack is the outer
//! (inner) *position*. Android Dimmunix truncates outer stacks to depth 1 to
//! keep `dvmGetCallStack` cheap (§3.2).

use crate::SiteId;
use std::fmt;

/// The FNV-1a offset basis: the state [`fnv1a`] folds start from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a state. FNV is used (rather than
/// `DefaultHasher`) because site keys are *persisted* and exchanged between
/// processes, so the hash must be stable across builds and platforms.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Stable, content-derived identity of an acquisition site.
///
/// A `SiteKey` is an FNV-1a hash over the *normalized* content of a
/// (truncated) call stack: each frame contributes its method name and file
/// verbatim, but its line number only as the offset relative to the stack's
/// **top frame** line. Absolute line numbers never enter the key, so
/// recompiling the program with code moved up or down a file (a uniform
/// line shift — the usual effect of an unrelated edit above the site)
/// yields the *same* key. That is what lets persisted antibodies outlive
/// refactors and lets antibody packs exchanged between fleets match across
/// different binaries of the same program.
///
/// The key coarsens identity exactly where absolute lines were
/// load-bearing: two depth-1 sites in the same file sharing a method name
/// collapse to one key. This is the same flavour of trade-off as the
/// paper's depth-1 stack truncation (§3.2) — coarser matching bought for
/// robustness — and it is why foreign signatures are only *screened* by
/// key and then re-anchored to a concrete local stack before activation.
///
/// ```
/// use dimmunix_core::{CallStack, Frame};
/// let v1 = CallStack::single(Frame::new("Svc.lock", "svc.rs", 100));
/// let v2 = CallStack::single(Frame::new("Svc.lock", "svc.rs", 137)); // code moved
/// assert_eq!(v1.site_key(), v2.site_key());
/// assert_ne!(
///     v1.site_key(),
///     CallStack::single(Frame::new("Other.lock", "svc.rs", 100)).site_key(),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteKey(u64);

impl SiteKey {
    /// Creates a key from its raw hash (codecs and tests).
    pub const fn new(raw: u64) -> Self {
        SiteKey(raw)
    }

    /// The raw 64-bit hash.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SiteKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{:016x}", self.0)
    }
}

/// One program location: a method plus a source position.
///
/// The Dalvik implementation stores the method and bytecode pc of the frame;
/// for the Rust substrates we keep a method (or function) name, a file and a
/// line, which is exactly the information the `acquire_site!()` macro in
/// `dimmunix-rt` and the simulated frames of the `dalvik` model can provide.
///
/// ```
/// use dimmunix_core::Frame;
/// let f = Frame::new("NotificationManagerService.enqueueNotificationWithTag", "nms.java", 310);
/// assert_eq!(f.line(), 310);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frame {
    method: String,
    file: String,
    line: u32,
}

impl Frame {
    /// Creates a frame from a method name, file and line.
    pub fn new(method: impl Into<String>, file: impl Into<String>, line: u32) -> Self {
        Frame {
            method: method.into(),
            file: file.into(),
            line,
        }
    }

    /// Creates a frame from a statically assigned synchronization-site id
    /// (the compiler-id optimization proposed in §4).
    pub fn from_site(site: SiteId) -> Self {
        Frame {
            method: format!("site#{}", site.index()),
            file: String::from("<static-site>"),
            line: 0,
        }
    }

    /// The method (or function) name of this frame.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The source file of this frame.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// The source line of this frame.
    pub fn line(&self) -> u32 {
        self.line
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}:{})", self.method, self.file, self.line)
    }
}

/// A captured call stack, top frame first.
///
/// Equality and hashing are structural, so two acquisitions from the same
/// program location produce equal call stacks and therefore the same interned
/// [`PositionId`](crate::position::PositionId).
///
/// ```
/// use dimmunix_core::{CallStack, Frame};
/// let cs = CallStack::from_frames(vec![
///     Frame::new("Service.lock", "service.rs", 10),
///     Frame::new("Service.handle", "service.rs", 55),
/// ]);
/// assert_eq!(cs.depth(), 2);
/// assert_eq!(cs.truncated(1).depth(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CallStack {
    frames: Vec<Frame>,
}

impl CallStack {
    /// Creates an empty call stack (used for threads with no frames yet).
    pub fn new() -> Self {
        CallStack { frames: Vec::new() }
    }

    /// Creates a call stack from frames (top frame first).
    pub fn from_frames(frames: Vec<Frame>) -> Self {
        CallStack { frames }
    }

    /// Creates a depth-1 stack from a single frame.
    pub fn single(frame: Frame) -> Self {
        CallStack {
            frames: vec![frame],
        }
    }

    /// Creates a depth-1 stack for a static synchronization-site id.
    pub fn from_site(site: SiteId) -> Self {
        CallStack::single(Frame::from_site(site))
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// True if the stack has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The top (innermost) frame, i.e. the paper's *position*.
    pub fn top(&self) -> Option<&Frame> {
        self.frames.first()
    }

    /// All frames, top first.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Returns a copy truncated to at most `depth` frames (top frames kept).
    ///
    /// This is what Android Dimmunix does with depth 1 before interning the
    /// stack as a position.
    #[must_use]
    pub fn truncated(&self, depth: usize) -> CallStack {
        CallStack {
            frames: self.frames.iter().take(depth.max(1)).cloned().collect(),
        }
    }

    /// Pushes a frame on top of the stack (used by simulated interpreters).
    pub fn push(&mut self, frame: Frame) {
        self.frames.insert(0, frame);
    }

    /// Pops the top frame.
    pub fn pop(&mut self) -> Option<Frame> {
        if self.frames.is_empty() {
            None
        } else {
            Some(self.frames.remove(0))
        }
    }

    /// The stable content-hash identity of this stack (see [`SiteKey`]).
    ///
    /// Computed over the stack as-is; callers wanting position semantics
    /// truncate first (interning tables do this before calling). The empty
    /// stack hashes to the FNV offset basis.
    pub fn site_key(&self) -> SiteKey {
        let base = self.frames.first().map_or(0, |f| i64::from(f.line));
        let mut hash = FNV_OFFSET;
        for f in &self.frames {
            hash = fnv1a(hash, f.method.as_bytes());
            hash = fnv1a(hash, &[0]);
            hash = fnv1a(hash, f.file.as_bytes());
            hash = fnv1a(hash, &[0]);
            hash = fnv1a(hash, &(i64::from(f.line) - base).to_le_bytes());
        }
        SiteKey(hash)
    }

    /// Serializes the stack into the compact one-line textual form used by
    /// the persistent history file: `method@file:line;method@file:line;...`.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(&format!("{}@{}:{}", f.method, f.file, f.line));
        }
        out
    }

    /// Parses the compact textual form produced by [`to_compact`].
    ///
    /// # Errors
    /// Returns a human-readable message for malformed input.
    ///
    /// [`to_compact`]: CallStack::to_compact
    pub fn parse_compact(s: &str) -> std::result::Result<CallStack, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(CallStack::new());
        }
        let mut frames = Vec::new();
        for part in s.split(';') {
            let (method, rest) = part
                .rsplit_once('@')
                .ok_or_else(|| format!("frame `{part}` is missing `@`"))?;
            let (file, line) = rest
                .rsplit_once(':')
                .ok_or_else(|| format!("frame `{part}` is missing `:line`"))?;
            let line: u32 = line
                .parse()
                .map_err(|_| format!("frame `{part}` has a non-numeric line"))?;
            frames.push(Frame::new(method, file, line));
        }
        Ok(CallStack { frames })
    }
}

impl fmt::Display for CallStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.frames.is_empty() {
            return write!(f, "<empty stack>");
        }
        for (i, frame) in self.frames.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "  at {frame}")?;
        }
        Ok(())
    }
}

impl FromIterator<Frame> for CallStack {
    fn from_iter<T: IntoIterator<Item = Frame>>(iter: T) -> Self {
        CallStack {
            frames: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CallStack {
        CallStack::from_frames(vec![
            Frame::new("A.lock", "a.rs", 10),
            Frame::new("A.outer", "a.rs", 42),
            Frame::new("main", "main.rs", 3),
        ])
    }

    #[test]
    fn truncation_keeps_top_frames() {
        let cs = sample();
        let t = cs.truncated(1);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.top().unwrap().method(), "A.lock");
        // truncation never drops below one frame
        assert_eq!(cs.truncated(0).depth(), 1);
    }

    #[test]
    fn equal_locations_are_equal_stacks() {
        let a = CallStack::single(Frame::new("f", "x.rs", 1));
        let b = CallStack::single(Frame::new("f", "x.rs", 1));
        assert_eq!(a, b);
        let c = CallStack::single(Frame::new("f", "x.rs", 2));
        assert_ne!(a, c);
    }

    #[test]
    fn compact_roundtrip() {
        let cs = sample();
        let text = cs.to_compact();
        let parsed = CallStack::parse_compact(&text).unwrap();
        assert_eq!(cs, parsed);
    }

    #[test]
    fn compact_roundtrip_empty() {
        let cs = CallStack::new();
        assert_eq!(CallStack::parse_compact(&cs.to_compact()).unwrap(), cs);
    }

    #[test]
    fn parse_compact_rejects_garbage() {
        assert!(CallStack::parse_compact("no-at-sign").is_err());
        assert!(CallStack::parse_compact("m@file").is_err());
        assert!(CallStack::parse_compact("m@file:abc").is_err());
    }

    #[test]
    fn push_pop_behaves_like_a_stack() {
        let mut cs = CallStack::new();
        cs.push(Frame::new("outer", "x.rs", 1));
        cs.push(Frame::new("inner", "x.rs", 2));
        assert_eq!(cs.top().unwrap().method(), "inner");
        assert_eq!(cs.pop().unwrap().method(), "inner");
        assert_eq!(cs.pop().unwrap().method(), "outer");
        assert!(cs.pop().is_none());
    }

    #[test]
    fn site_id_stacks_are_stable() {
        let a = CallStack::from_site(SiteId::new(17));
        let b = CallStack::from_site(SiteId::new(17));
        assert_eq!(a, b);
        assert_eq!(a.depth(), 1);
    }

    #[test]
    fn display_is_never_empty() {
        assert!(!format!("{}", CallStack::new()).is_empty());
        assert!(!format!("{}", sample()).is_empty());
        assert!(format!("{}", sample()).contains("A.lock"));
    }

    /// The recompilation-survival contract: re-rendering the same stacks at
    /// uniformly shifted line numbers (what an edit above the site does to
    /// every frame in the file) must not change the site key.
    #[test]
    fn site_key_survives_uniform_line_shift() {
        let shifted = |delta: u32| {
            CallStack::from_frames(vec![
                Frame::new("A.lock", "a.rs", 10 + delta),
                Frame::new("A.outer", "a.rs", 42 + delta),
                Frame::new("main", "main.rs", 3 + delta),
            ])
        };
        let key = shifted(0).site_key();
        for delta in [1, 7, 100, 4096] {
            assert_eq!(shifted(delta).site_key(), key, "shift {delta}");
        }
        // A *relative* move of one frame is a different site.
        let skewed = CallStack::from_frames(vec![
            Frame::new("A.lock", "a.rs", 10),
            Frame::new("A.outer", "a.rs", 43),
            Frame::new("main", "main.rs", 3),
        ]);
        assert_ne!(skewed.site_key(), key);
    }

    #[test]
    fn site_key_distinguishes_method_and_file() {
        let base = CallStack::single(Frame::new("f", "x.rs", 1));
        assert_eq!(
            base.site_key(),
            CallStack::single(Frame::new("f", "x.rs", 99)).site_key(),
            "depth-1 keys ignore the absolute line"
        );
        assert_ne!(
            base.site_key(),
            CallStack::single(Frame::new("g", "x.rs", 1)).site_key()
        );
        assert_ne!(
            base.site_key(),
            CallStack::single(Frame::new("f", "y.rs", 1)).site_key()
        );
        // Depth matters: the truncated stack has its own key.
        let deep = CallStack::from_frames(vec![
            Frame::new("f", "x.rs", 1),
            Frame::new("caller", "x.rs", 50),
        ]);
        assert_ne!(deep.site_key(), base.site_key());
        assert_eq!(deep.truncated(1).site_key(), base.site_key());
    }

    #[test]
    fn site_key_is_deterministic_and_displayable() {
        let cs = sample();
        assert_eq!(cs.site_key(), cs.clone().site_key());
        let shown = cs.site_key().to_string();
        assert!(shown.starts_with('K') && shown.len() == 17, "{shown}");
        assert_eq!(SiteKey::new(7).raw(), 7);
        // The empty stack has a well-defined key too.
        assert_eq!(CallStack::new().site_key(), CallStack::new().site_key());
    }

    #[test]
    fn method_names_with_at_and_colon_roundtrip() {
        // rsplit-based parsing keeps methods containing '@' or ':' intact.
        let cs = CallStack::single(Frame::new("weird@method:name", "f.rs", 9));
        let parsed = CallStack::parse_compact(&cs.to_compact()).unwrap();
        assert_eq!(parsed, cs);
    }
}
