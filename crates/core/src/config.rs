//! Engine configuration.
//!
//! The defaults mirror the choices made for Android Dimmunix in §3.2/§4 of
//! the paper: outer call stacks of depth 1, detection and avoidance both
//! enabled, and an optional persistent history file.

use std::path::PathBuf;

/// How many stack frames are kept when interning an acquisition position.
///
/// The paper uses depth 1 on the phone (cheap, but coarser matching, §3.2);
/// the depth-ablation experiment (`A1`; see `reproduce --help`) sweeps this value.
pub const DEFAULT_STACK_DEPTH: usize = 1;

/// Upper bound on signatures kept in memory; old histories on real phones are
/// small (one entry per distinct deadlock bug), so this is simply a safety
/// valve for synthetic-history experiments.
pub const DEFAULT_MAX_SIGNATURES: usize = 4096;

/// Default generation window for eviction at capacity: a signature that
/// matched no avoidance check (and was not re-detected) within this many
/// snapshot epochs is considered stale and may be retired to make room.
pub const DEFAULT_EVICTION_WINDOW: u64 = 16;

/// Record count per history-log segment before an engine append rolls to a
/// fresh `<path>.segN` file. Detections are rare, so a segment this size
/// represents a long deployment; compaction coalesces the chain.
pub const DEFAULT_LOG_SEGMENT_RECORDS: usize = 1024;

/// Configuration of a [`Dimmunix`](crate::engine::Dimmunix) engine instance.
///
/// ```
/// use dimmunix_core::Config;
/// let cfg = Config::builder().stack_depth(2).starvation_handling(false).build();
/// assert_eq!(cfg.stack_depth, 2);
/// assert!(!cfg.is_disabled() && Config::disabled().is_disabled());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Number of call-stack frames retained per acquisition position.
    pub stack_depth: usize,
    /// Whether the engine runs at all: the detection module (RAG cycle
    /// search on every request) and the avoidance module
    /// (signature-instantiation check) go together. `false` is
    /// [`Config::disabled`], the vanilla platform.
    pub enabled: bool,
    /// Whether avoidance-induced starvation is detected and converted into
    /// starvation signatures (§2.2).
    pub starvation_handling: bool,
    /// Optional path of the persistent deadlock history — an append-only
    /// signature log (see [`HistoryLog`](crate::HistoryLog)). The engine
    /// replays (and tail-repairs) the log at construction and appends one
    /// record per newly detected signature.
    pub history_path: Option<PathBuf>,
    /// Whether each history-log append fsyncs the file (default `true`):
    /// an antibody is durable the moment its detection returns, which is
    /// the paper-faithful choice — the whole point of the history is to
    /// survive the reboot that follows a freeze. Disable to trade that
    /// durability for cheaper appends.
    pub log_sync: bool,
    /// Maximum number of signatures retained in the in-memory history; at
    /// this size a new antibody evicts generation-stale ones (see
    /// [`eviction_window`](Config::eviction_window)).
    pub max_signatures: usize,
    /// Generation window for eviction at capacity: a live signature is
    /// eviction-eligible only if it matched nothing within this many
    /// snapshot epochs. Signatures matched more recently are never evicted
    /// (a soft overflow is preferred), so immunity against active bugs is
    /// retained. Each retirement is recorded in
    /// [`Stats::signatures_evicted`](crate::Stats).
    pub eviction_window: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            stack_depth: DEFAULT_STACK_DEPTH,
            enabled: true,
            starvation_handling: true,
            history_path: None,
            log_sync: true,
            max_signatures: DEFAULT_MAX_SIGNATURES,
            eviction_window: DEFAULT_EVICTION_WINDOW,
        }
    }
}

impl Config {
    /// Creates the default configuration (paper defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a builder for incremental configuration.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Configuration equivalent to running the vanilla platform: Dimmunix is
    /// a pure pass-through (used for overhead baselines).
    pub fn disabled() -> Self {
        Config {
            enabled: false,
            starvation_handling: false,
            ..Self::default()
        }
    }

    /// Returns true if neither detection nor avoidance is active.
    pub fn is_disabled(&self) -> bool {
        !self.enabled
    }
}

/// Builder for [`Config`].
#[derive(Debug, Clone, Default)]
pub struct ConfigBuilder {
    config: Config,
}

impl ConfigBuilder {
    /// Sets the retained call-stack depth (clamped to at least 1).
    pub fn stack_depth(mut self, depth: usize) -> Self {
        self.config.stack_depth = depth.max(1);
        self
    }

    /// Enables or disables starvation (avoidance-induced deadlock) handling.
    pub fn starvation_handling(mut self, enabled: bool) -> Self {
        self.config.starvation_handling = enabled;
        self
    }

    /// Sets the path of the persistent history (an append-only signature
    /// log; see [`HistoryLog`](crate::HistoryLog)).
    pub fn history_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.history_path = Some(path.into());
        self
    }

    /// Enables or disables the per-append fsync of the history log.
    pub fn log_sync(mut self, enabled: bool) -> Self {
        self.config.log_sync = enabled;
        self
    }

    /// Sets the maximum number of in-memory signatures.
    pub fn max_signatures(mut self, max: usize) -> Self {
        self.config.max_signatures = max;
        self
    }

    /// Sets the generation window for eviction at capacity (epochs a
    /// signature may go unmatched before it becomes eviction-eligible).
    pub fn eviction_window(mut self, window: u64) -> Self {
        self.config.eviction_window = window;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Config {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let cfg = Config::default();
        assert_eq!(cfg.stack_depth, 1);
        assert!(cfg.enabled);
        assert!(cfg.starvation_handling);
        assert!(cfg.history_path.is_none());
        assert!(cfg.log_sync);
        assert_eq!(cfg.eviction_window, DEFAULT_EVICTION_WINDOW);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = Config::builder()
            .stack_depth(3)
            .starvation_handling(false)
            .history_path("/tmp/h.dimmu")
            .log_sync(false)
            .max_signatures(12)
            .eviction_window(4)
            .build();
        assert_eq!(cfg.stack_depth, 3);
        assert!(!cfg.starvation_handling);
        assert_eq!(cfg.max_signatures, 12);
        assert!(cfg.history_path.is_some());
        assert!(!cfg.log_sync);
        assert_eq!(cfg.eviction_window, 4);
    }

    #[test]
    fn stack_depth_is_clamped_to_one() {
        let cfg = Config::builder().stack_depth(0).build();
        assert_eq!(cfg.stack_depth, 1);
    }

    #[test]
    fn disabled_config_is_pass_through() {
        assert!(Config::disabled().is_disabled());
        assert!(!Config::default().is_disabled());
    }
}
