//! The persistent deadlock history.
//!
//! The history is the set of antibodies a process has developed: every
//! signature that was ever detected (deadlock or starvation). It is persisted
//! across process restarts — on the phone, across reboots — which is what
//! turns a one-time hang into permanent immunity (§2.1, §5 case study).
//!
//! A signature has **one** serialised form, the fingerprinted single-line
//! JSON record of [`signature_to_log_record`]; [`signature_from_json_value`]
//! is its only decoder. Every surface is that record:
//! * the **append-only log** ([`HistoryLog`]): one record per detected
//!   signature, appended as the engine runs and replayed at start-up.
//!   Appending a ~200-byte record is what a detection costs on disk,
//!   instead of rewriting the whole store; a crash can at worst leave a
//!   partial final record, which replay detects and
//!   [`recover`](HistoryLog::recover) truncates away;
//! * the **text dump** ([`History::to_text`] / [`History::from_text`]): one
//!   record per line, so a dump is byte-for-byte a valid log segment, read
//!   back strictly (no torn tail is tolerated);
//! * the entries of a `dimmunix-exchange` antibody pack.
//!
//! Position-indexed queries over the history (the avoidance and release hot
//! paths) live in [`SignatureIndex`](crate::SignatureIndex), which lives
//! once per process inside the shared
//! [`HistorySnapshot`](crate::HistorySnapshot); `History` itself stays a
//! plain signature store.

use crate::callstack::CallStack;
use crate::error::{DimmunixError, Result};
use crate::json::{self, JsonValue};
use crate::pvec::{PersistentMap, PersistentVec};
use crate::signature::{Signature, SignatureKind, SignaturePair};
use crate::SignatureId;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A persistent collection of deadlock/starvation signatures.
///
/// ```
/// use dimmunix_core::{CallStack, Frame, History, Signature, SignatureKind, SignaturePair};
/// let mut h = History::new();
/// let sig = Signature::new(SignatureKind::Deadlock, vec![SignaturePair::new(
///     CallStack::single(Frame::new("a", "a.rs", 1)),
///     CallStack::single(Frame::new("b", "b.rs", 2)),
/// )]);
/// let (id, added) = h.add(sig.clone());
/// assert!(added);
/// let (id2, added2) = h.add(sig);
/// assert_eq!(id, id2);
/// assert!(!added2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct History {
    /// One slot per id ever assigned, in id order. Retired (evicted)
    /// signatures stay in place as dead slots so ids never shift; every
    /// reader filters on [`Slot::live`]. Backed by a structurally-shared
    /// persistent vector so cloning the history for the next
    /// [`HistorySnapshot`](crate::HistorySnapshot) is O(1), adding a
    /// signature to such a clone path-copies O(log₃₂ n) nodes instead of
    /// the whole store, and adding to a history nothing shares (log replay)
    /// copies nothing.
    slots: PersistentVec<Slot>,
    /// Dedup index: signature fingerprint -> indices of signatures with
    /// that fingerprint. `add`/`find` hash the candidate and compare
    /// (`same_bug`) only within its bucket, so bulk log replay of `n`
    /// records costs O(n) signature comparisons instead of the O(n²) a
    /// linear scan per record used to cost. Buckets keep retired ids (the
    /// liveness check happens per hit); a re-detected evicted bug gets a
    /// fresh id in the same bucket.
    by_fingerprint: PersistentMap<u64, Vec<u32>>,
    /// Live (non-retired) slot count; `len()` reports this.
    live: usize,
}

/// One id's worth of history: the signature, whether it is still live, and
/// the epoch it last matched (for generation-based eviction).
#[derive(Debug, Clone)]
struct Slot {
    sig: Arc<Signature>,
    live: bool,
    /// Snapshot epoch at which this signature last matched an avoidance
    /// check (or was born / re-detected). Shared via `Arc` across every
    /// snapshot generation that contains the slot, so a match observed
    /// through one snapshot is visible to eviction decisions taken on a
    /// later one without rebuilding anything.
    last_matched: Arc<AtomicU64>,
}

/// Deterministic fingerprint of a signature, collision-safe for dedup use:
/// `same_bug` compares the kind and the canonically ordered pair list, and
/// the fingerprint hashes exactly those, so equal bugs always share a
/// fingerprint (collisions between different bugs only cost an extra
/// `same_bug` comparison).
fn fingerprint(sig: &Signature) -> u64 {
    // `DefaultHasher::new()` is keyed with fixed constants, so the
    // fingerprint is stable within a process run (it is never persisted).
    let mut h = DefaultHasher::new();
    sig.kind().hash(&mut h);
    for pair in sig.pairs() {
        pair.hash(&mut h);
    }
    h.finish()
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Number of live (non-retired) signatures.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the history holds no live signatures.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Adds a signature unless an identical one (same bug) is already live.
    /// Returns the signature's id and whether it was newly inserted.
    pub fn add(&mut self, sig: Signature) -> (SignatureId, bool) {
        let fp = fingerprint(&sig);
        // One traversal serves both the duplicate check and the bucket
        // fetch — `append` runs on every detection, so the map walk is the
        // hot part of this path.
        let mut bucket = match self.by_fingerprint.get(&fp) {
            Some(bucket) => {
                if let Some(existing) = self.find_in_bucket(bucket, &sig) {
                    return (existing, false);
                }
                bucket.clone()
            }
            None => Vec::new(),
        };
        let id = SignatureId::new(self.slots.len());
        bucket.push(id.index() as u32);
        self.by_fingerprint.insert(fp, bucket);
        self.slots.push(Slot {
            sig: Arc::new(sig),
            live: true,
            last_matched: Arc::new(AtomicU64::new(0)),
        });
        self.live += 1;
        (id, true)
    }

    /// Finds the id of a live signature describing the same bug, if present.
    pub fn find(&self, sig: &Signature) -> Option<SignatureId> {
        self.find_by_fingerprint(fingerprint(sig), sig)
    }

    fn find_by_fingerprint(&self, fp: u64, sig: &Signature) -> Option<SignatureId> {
        self.by_fingerprint
            .get(&fp)
            .and_then(|bucket| self.find_in_bucket(bucket, sig))
    }

    fn find_in_bucket(&self, bucket: &[u32], sig: &Signature) -> Option<SignatureId> {
        bucket
            .iter()
            .find(|idx| {
                let slot = self
                    .slots
                    .get(**idx as usize)
                    .expect("fingerprint buckets only hold assigned ids");
                slot.live && slot.sig.same_bug(sig)
            })
            .map(|idx| SignatureId::new(*idx as usize))
    }

    /// Retires the signature with the given id (generation-based eviction).
    /// The id slot stays allocated — ids are never reused — but every query
    /// (`len`, `get`, `find`, `iter`, the codecs) stops seeing it. Returns
    /// whether the id was live.
    pub fn retire(&mut self, id: SignatureId) -> bool {
        match self.slots.get(id.index()) {
            Some(slot) if slot.live => {
                let retired = Slot {
                    live: false,
                    ..slot.clone()
                };
                self.slots.set(id.index(), retired);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// True if `id` names a live (non-retired) signature.
    pub fn is_live(&self, id: SignatureId) -> bool {
        self.slots.get(id.index()).is_some_and(|s| s.live)
    }

    /// Records that the signature matched (was instantiated against, found
    /// as a duplicate, or born) at the given snapshot epoch. Works through
    /// a shared interior-mutable cell, so it is callable on the immutable
    /// Arc-shared snapshot from the avoidance hot path; monotonic
    /// (`fetch_max`), so concurrent shards cannot move activity backwards.
    pub fn note_matched(&self, id: SignatureId, epoch: u64) {
        if let Some(slot) = self.slots.get(id.index()) {
            slot.last_matched.fetch_max(epoch, Ordering::Relaxed);
        }
    }

    /// The epoch at which the live signature `id` last matched, if any.
    pub fn last_matched(&self, id: SignatureId) -> Option<u64> {
        self.slots
            .get(id.index())
            .filter(|s| s.live)
            .map(|s| s.last_matched.load(Ordering::Relaxed))
    }

    /// Iterates `(id, last-matched epoch)` over live signatures — the
    /// input to generation-based eviction candidate selection.
    pub fn activity_iter(&self) -> impl Iterator<Item = (SignatureId, u64)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, s)| (SignatureId::new(i), s.last_matched.load(Ordering::Relaxed)))
    }

    /// Returns the live signature with the given id (retired ids read as
    /// absent).
    pub fn get(&self, id: SignatureId) -> Option<&Signature> {
        self.slots
            .get(id.index())
            .filter(|s| s.live)
            .map(|s| &*s.sig)
    }

    /// Iterates over live `(id, signature)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SignatureId, &Signature)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, s)| (SignatureId::new(i), &*s.sig))
    }

    /// Merges another history into this one, deduplicating; returns the
    /// number of newly added signatures. Useful when a vendor ships
    /// pre-seeded antibodies with an application update.
    pub fn merge(&mut self, other: &History) -> usize {
        let mut added = 0;
        for (_, sig) in other.iter() {
            if self.add(sig.clone()).1 {
                added += 1;
            }
        }
        added
    }

    /// Estimated resident memory of the history in bytes (memory-overhead
    /// accounting for Table 1).
    pub fn memory_footprint_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        total += self.by_fingerprint.len()
            * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<u32>>());
        total += self
            .by_fingerprint
            .values()
            .map(|b| b.capacity() * std::mem::size_of::<u32>())
            .sum::<usize>();
        for slot in self.slots.iter() {
            total += std::mem::size_of::<Slot>();
            if !slot.live {
                continue;
            }
            let sig = &*slot.sig;
            total += std::mem::size_of::<Signature>();
            for p in sig.pairs() {
                for s in [&p.outer, &p.inner] {
                    total += std::mem::size_of::<CallStack>();
                    for f in s.frames() {
                        total += std::mem::size_of_val(f) + f.method().len() + f.file().len();
                    }
                }
            }
        }
        total
    }

    // ------------------------------------------------------------------
    // Record codec: text dump and log replay
    // ------------------------------------------------------------------

    /// Serializes the history as one [`signature_to_log_record`] line per
    /// live signature, in id order. The dump is byte-for-byte a valid
    /// [`HistoryLog`] segment.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (_, sig) in self.iter() {
            out.push_str(&signature_to_log_record(sig));
            out.push('\n');
        }
        out
    }

    /// Parses a dump produced by [`to_text`]: the strict variant of
    /// [`replay_log_text`], for text that is not a live log — every
    /// non-empty line must be a complete, newline-terminated record.
    ///
    /// ```
    /// use dimmunix_core::History;
    /// let text = concat!(
    ///     r#"{"kind": "deadlock", "pairs": ["#,
    ///     r#"{"outer": "Nms.enqueue@nms.java:310", "inner": "Nms.cancel@nms.java:402"}, "#,
    ///     r#"{"outer": "SbS.handleMessage@sbs.java:120", "inner": "SbS.expand@sbs.java:88"}"#,
    ///     r#"], "fp": "413f80c380492393"}"#,
    ///     "\n",
    /// );
    /// let history = History::from_text(text)?;
    /// assert_eq!(history.len(), 1);
    /// assert_eq!(history.to_text(), text);
    /// // Without its terminating newline the record is not complete.
    /// assert!(History::from_text(text.trim_end()).is_err());
    /// # Ok::<(), dimmunix_core::DimmunixError>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`DimmunixError::Parse`] for any malformed or unterminated
    /// line.
    ///
    /// [`to_text`]: History::to_text
    /// [`replay_log_text`]: History::replay_log_text
    pub fn from_text(text: &str) -> Result<History> {
        Ok(Self::decode_records(text, false)?.history)
    }

    /// Replays an append-only signature log (the format written by
    /// [`HistoryLog`]): one single-line JSON record per signature, in
    /// detection order. A record counts as committed only once its
    /// terminating newline is on disk; a partial final record — what a
    /// crash in the middle of an append leaves behind — is tolerated and
    /// reported through [`LogReplay::truncated_tail`]. A malformed record
    /// anywhere *before* the tail is genuine corruption and is an error.
    ///
    /// ```
    /// use dimmunix_core::History;
    /// let log = concat!(
    ///     r#"{"kind": "deadlock", "pairs": [{"outer": "a@a.rs:1", "inner": "b@b.rs:2"}],"#,
    ///     r#" "fp": "5171ef7fde149826"}"#,
    ///     "\n",
    ///     r#"{"kind": "starva"#, // the crash ate the rest of this record
    /// );
    /// let replay = History::replay_log_text(log)?;
    /// assert_eq!(replay.history.len(), 1);
    /// assert_eq!(replay.records, 1);
    /// assert!(replay.truncated_tail);
    /// # Ok::<(), dimmunix_core::DimmunixError>(())
    /// ```
    ///
    /// # Errors
    /// Returns [`DimmunixError::Parse`] for a malformed non-tail record.
    pub fn replay_log_text(text: &str) -> Result<LogReplay> {
        Self::decode_records(text, true)
    }

    /// The one record-stream reader. `torn_tail_ok` is the only difference
    /// between a live log (an interrupted append may have left a partial
    /// final record) and a dump (which must be whole).
    fn decode_records(text: &str, torn_tail_ok: bool) -> Result<LogReplay> {
        let mut replay = LogReplay::default();
        // Byte offset of the end of the current line, so the valid prefix
        // length can be reported for tail repair.
        let mut end = 0usize;
        for (i, line) in text.split_inclusive('\n').enumerate() {
            end += line.len();
            let trimmed = line.trim();
            if trimmed.is_empty() {
                replay.valid_len = end;
                continue;
            }
            let corrupt = |message: String| DimmunixError::Parse {
                line: i + 1,
                message: format!("corrupt record: {message}"),
            };
            match signature_from_log_record(trimmed) {
                // A record is committed once its terminating newline is on
                // disk (appends write record + newline in one call). A
                // complete-looking record without the terminator is treated
                // exactly like a partial one, so replay and tail repair
                // always agree on the committed prefix.
                Ok(sig) if line.ends_with('\n') => {
                    replay.history.add(sig);
                    replay.records += 1;
                    replay.valid_len = end;
                }
                Ok(_) if torn_tail_ok => replay.truncated_tail = true,
                Ok(_) => return Err(corrupt("unterminated final record".into())),
                // Partial final record (nothing but blank space follows):
                // the append was interrupted.
                Err(_) if torn_tail_ok && text[end..].trim().is_empty() => {
                    replay.truncated_tail = true;
                    break;
                }
                Err(e) => return Err(corrupt(e.to_string())),
            }
        }
        Ok(replay)
    }
}

/// Outcome of replaying an append-only signature log (see
/// [`History::replay_log_text`] and [`HistoryLog::replay`]).
#[derive(Debug, Clone, Default)]
pub struct LogReplay {
    /// The signatures reconstructed from the well-formed prefix of the log
    /// (duplicates are merged, exactly as live detections are).
    pub history: History,
    /// Number of well-formed records applied.
    pub records: usize,
    /// True if the log ended in a partial record (a crash interrupted an
    /// append) that was discarded. [`HistoryLog::recover`] truncates the
    /// file back to the well-formed prefix in that case.
    pub truncated_tail: bool,
    /// Byte length of the well-formed, newline-terminated prefix; the file
    /// length appends may safely resume from.
    pub valid_len: usize,
}

/// Diagnostics of the history-log recovery an engine performed at
/// construction (see [`Dimmunix::recovery_report`]). Before this report
/// existed, a truncated or quarantined log made the engine start silently
/// empty — operationally indistinguishable from a phone that had simply
/// never deadlocked. Substrates surface the report so operators can tell
/// "no antibodies" apart from "antibodies lost to corruption".
///
/// [`Dimmunix::recovery_report`]: crate::Dimmunix::recovery_report
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Well-formed log records replayed into the starting history.
    pub replayed: usize,
    /// True if the log ended in a crash-partial record that recovery
    /// truncated away (the record's detection never committed).
    pub truncated_tail: bool,
    /// Raw records abandoned because the log was interior-corrupt and had
    /// to be quarantined (counted best-effort from the quarantined file;
    /// some of them may themselves be the corruption).
    pub quarantined_records: usize,
    /// Where the corrupt log was moved, if a quarantine happened.
    pub quarantine_path: Option<std::path::PathBuf>,
}

impl RecoveryReport {
    /// True if recovery was entirely clean: every record replayed, no tail
    /// repair, no quarantine.
    pub fn is_clean(&self) -> bool {
        !self.truncated_tail && self.quarantined_records == 0 && self.quarantine_path.is_none()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replayed {} record(s)", self.replayed)?;
        if self.truncated_tail {
            write!(f, ", truncated a crash-partial tail record")?;
        }
        // Report dropped records even when the quarantine rename itself
        // failed — that is the worst case to stay silent about.
        if self.quarantined_records > 0 || self.quarantine_path.is_some() {
            write!(
                f,
                ", abandoned {} unreadable record(s)",
                self.quarantined_records
            )?;
            match &self.quarantine_path {
                Some(path) => write!(f, " (quarantined to {})", path.display())?,
                None => write!(f, " (quarantine failed; corrupt log left in place)")?,
            }
        }
        Ok(())
    }
}

/// Encodes one signature as a single-line, self-delimiting JSON record —
/// the only serialised form of a signature.
///
/// `{"kind": …, "pairs": [{"outer": …, "inner": …}, …], "fp": …}` on one
/// line: JSON strings escape raw newlines, so a newline always terminates a
/// record and a stream of records is self-delimiting. Stacks use the
/// compact `method@file:line;…` form.
///
/// `fp` is the signature's stable content fingerprint
/// ([`Signature::stable_fingerprint`]): 16 lowercase hex digits derived
/// from normalized site keys, not absolute lines. The decoder requires it
/// and checks it against a recomputation from the stacks, which makes a
/// tampered or bit-rotted record detectable instead of silently importing a
/// wrong antibody.
pub fn signature_to_log_record(sig: &Signature) -> String {
    let mut out = String::from("{\"kind\": ");
    json::write_escaped(&mut out, &sig.kind().to_string());
    out.push_str(", \"pairs\": [");
    for (j, pair) in sig.pairs().iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"outer\": ");
        json::write_escaped(&mut out, &pair.outer.to_compact());
        out.push_str(", \"inner\": ");
        json::write_escaped(&mut out, &pair.inner.to_compact());
        out.push('}');
    }
    out.push_str("], \"fp\": ");
    json::write_escaped(&mut out, &format!("{:016x}", sig.stable_fingerprint()));
    out.push('}');
    out
}

/// Parses one log record produced by [`signature_to_log_record`].
///
/// # Errors
/// Returns [`DimmunixError::Parse`] for malformed records.
pub fn signature_from_log_record(line: &str) -> Result<Signature> {
    let parse_err = |message: String| DimmunixError::Parse { line: 0, message };
    let value = json::parse(line).map_err(parse_err)?;
    signature_from_json_value(&value)
}

/// Decodes one signature object (`{"kind": …, "pairs": […], "fp": …}`) —
/// the only signature decoder, shared by the log, the text dump, and the
/// antibody-pack codec in `dimmunix-exchange`.
///
/// # Errors
/// Returns [`DimmunixError::Parse`] for malformed objects, records without
/// an `fp` member, and records whose declared `fp` disagrees with the
/// recomputed fingerprint.
pub fn signature_from_json_value(sig: &JsonValue) -> Result<Signature> {
    let parse_err = |message: String| DimmunixError::Parse { line: 0, message };
    let kind = match sig.get("kind").and_then(JsonValue::as_str) {
        Some("deadlock") => SignatureKind::Deadlock,
        Some("starvation") => SignatureKind::Starvation,
        other => return Err(parse_err(format!("unknown signature kind {other:?}"))),
    };
    let raw_pairs = sig
        .get("pairs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| parse_err("missing `pairs` array".into()))?;
    let mut pairs = Vec::with_capacity(raw_pairs.len());
    for p in raw_pairs {
        let stack = |key: &str| -> Result<CallStack> {
            let compact = p
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| parse_err(format!("pair is missing `{key}`")))?;
            CallStack::parse_compact(compact).map_err(parse_err)
        };
        pairs.push(SignaturePair::new(stack("outer")?, stack("inner")?));
    }
    let parsed = Signature::new(kind, pairs);
    // The declared fingerprint must be present and match the recomputation
    // from the stacks, so a record whose content and declared identity
    // disagree — or whose identity was stripped — is rejected as corrupt
    // rather than replayed into the history unverified.
    let declared = sig
        .get("fp")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| parse_err("record is missing `fp`".into()))?;
    let declared =
        u64::from_str_radix(declared, 16).map_err(|_| parse_err("non-hex `fp` field".into()))?;
    let actual = parsed.stable_fingerprint();
    if declared != actual {
        return Err(parse_err(format!(
            "fingerprint mismatch: record declares {declared:016x}, content hashes to {actual:016x}"
        )));
    }
    Ok(parsed)
}

/// Handle on an append-only signature log file — the engine's persistent
/// antibody store.
///
/// A detection appends **one record** ([`append`](HistoryLog::append));
/// start-up replays the whole file ([`recover`](HistoryLog::recover),
/// which also truncates a crash-partial tail so later appends land on a
/// clean record boundary). [`compact`](HistoryLog::compact) is the offline
/// maintenance entry point: it deduplicates and rewrites the log
/// atomically.
///
/// ```
/// use dimmunix_core::{CallStack, Frame, HistoryLog, Signature, SignatureKind, SignaturePair};
/// let path = std::env::temp_dir().join(format!("dimmunix-doc-{}.log", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
/// let log = HistoryLog::new(&path);
/// let sig = Signature::new(SignatureKind::Deadlock, vec![SignaturePair::new(
///     CallStack::single(Frame::new("a", "a.rs", 1)),
///     CallStack::single(Frame::new("b", "b.rs", 2)),
/// )]);
/// log.append(&sig)?;
/// log.append(&sig)?; // the log itself is dumb — duplicates merge on replay
/// let replay = log.replay()?;
/// assert_eq!(replay.records, 2);
/// assert_eq!(replay.history.len(), 1);
/// assert!(!replay.truncated_tail);
/// assert_eq!(log.compact()?.history.len(), 1); // rewrites 1 deduped record
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), dimmunix_core::DimmunixError>(())
/// ```
///
/// ## Segmentation
///
/// With [`with_segment_records`](HistoryLog::with_segment_records) the log
/// rolls to a new fixed-size segment once the active one reaches the
/// configured record count: segment 0 is `<path>` itself (so an unsegmented
/// log is just a one-segment log, byte-for-byte) and segment *N* is
/// `<path>.segN`. Appends only ever touch the last segment; replay walks the
/// segments in order and merges them through the fingerprint dedup, so a
/// crash-partial tail is only legal in the **last** segment — a mid-chain
/// torn record means interior corruption and quarantines the whole chain,
/// exactly as a torn interior record did in the single-file case.
#[derive(Debug, Clone)]
pub struct HistoryLog {
    path: std::path::PathBuf,
    sync: bool,
    /// Records per segment before appends roll to the next one;
    /// `usize::MAX` (the constructor default) keeps the log single-file.
    segment_records: usize,
}

impl HistoryLog {
    /// Creates a handle on the log at `path` (the file need not exist yet).
    /// Appends are fsynced by default; see [`with_sync`](HistoryLog::with_sync).
    /// The log is unsegmented until
    /// [`with_segment_records`](HistoryLog::with_segment_records) caps the
    /// segment size.
    pub fn new(path: impl Into<std::path::PathBuf>) -> Self {
        HistoryLog {
            path: path.into(),
            sync: true,
            segment_records: usize::MAX,
        }
    }

    /// Caps each segment at `records` log records; appends roll to a fresh
    /// `<path>.segN` file past that. `0` is treated as unlimited
    /// (single-file). Replay and recovery do not depend on this setting —
    /// they always walk whatever segment chain exists on disk.
    pub fn with_segment_records(mut self, records: usize) -> Self {
        self.segment_records = if records == 0 { usize::MAX } else { records };
        self
    }

    /// Sets whether each append fsyncs the file. `true` (the default) makes
    /// an antibody durable the moment the detection returns — the
    /// paper-faithful choice, since the whole point is surviving the reboot
    /// that follows a freeze. `false` trades that durability for cheaper
    /// appends (the OS flushes eventually).
    pub fn with_sync(mut self, sync: bool) -> Self {
        self.sync = sync;
        self
    }

    /// The log's base path (segment 0).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of segment `i`: the base path for segment 0, `<path>.segN`
    /// otherwise. The suffix is appended to the full file name (not swapped
    /// in with `set_extension`) so sibling logs sharing a stem cannot
    /// collide.
    fn segment_path(&self, i: usize) -> PathBuf {
        if i == 0 {
            return self.path.clone();
        }
        let mut name = self.path.clone().into_os_string();
        name.push(format!(".seg{i}"));
        PathBuf::from(name)
    }

    /// The contiguous chain of segment files present on disk, in replay
    /// order. An absent base file means an empty chain (stray higher
    /// segments without their predecessors are ignored, as replaying them
    /// out of context would resurrect records with no provenance).
    fn segments(&self) -> Vec<PathBuf> {
        let mut segs = Vec::new();
        loop {
            let seg = self.segment_path(segs.len());
            if !seg.exists() {
                break;
            }
            segs.push(seg);
        }
        segs
    }

    /// Raw (newline-separated, non-empty) record count of one segment file;
    /// 0 if unreadable.
    fn raw_records_in(path: &Path) -> usize {
        fs::read_to_string(path)
            .map(|text| text.lines().filter(|l| !l.trim().is_empty()).count())
            .unwrap_or(0)
    }

    /// The segment the next append should land in: the last existing
    /// segment, or the one after it if that segment is already at the
    /// configured capacity.
    fn active_segment(&self) -> PathBuf {
        let segs = self.segments();
        match segs.last() {
            None => self.path.clone(),
            Some(last) if Self::raw_records_in(last) >= self.segment_records => {
                self.segment_path(segs.len())
            }
            Some(last) => last.clone(),
        }
    }

    /// Appends one signature record (creating the file and its parent
    /// directories on first use, and rolling to a fresh segment when the
    /// active one is at capacity). This is the per-detection disk cost: one
    /// small record, not a rewrite of the store.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn append(&self, sig: &Signature) -> Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let target = self.active_segment();
        let created = !target.exists();
        let mut record = signature_to_log_record(sig);
        record.push('\n');
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&target)?;
        f.write_all(record.as_bytes())?;
        if self.sync {
            f.sync_all()?;
            if created {
                // A new file's directory entry is not durable until the
                // directory itself is synced; without this, the very first
                // antibody could vanish in the reboot that follows the
                // freeze — the one write the log exists for.
                self.sync_parent_dir()?;
            }
        }
        Ok(())
    }

    /// Fsyncs the log's parent directory so a freshly created or renamed
    /// directory entry survives a crash. POSIX-only; a no-op elsewhere
    /// (directories cannot be opened for syncing on other platforms).
    fn sync_parent_dir(&self) -> Result<()> {
        #[cfg(unix)]
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::File::open(parent)?.sync_all()?;
            }
        }
        Ok(())
    }

    /// Replays the log — every segment in order — without modifying it. A
    /// missing file is an empty history (a phone that has not deadlocked
    /// yet). Records deduplicate across segment boundaries through the same
    /// fingerprint index live detections use; `valid_len` and
    /// `truncated_tail` describe the **last** segment, the only one appends
    /// resume into.
    ///
    /// # Errors
    /// Propagates filesystem errors (other than "not found"), reports
    /// corrupt non-tail records as parse errors, and treats a torn tail in
    /// any segment but the last as interior corruption (nothing may
    /// legally be appended after it).
    pub fn replay(&self) -> Result<LogReplay> {
        let segs = self.segments();
        let mut total = LogReplay::default();
        for (i, seg) in segs.iter().enumerate() {
            let text = fs::read_to_string(seg)?;
            let replay = History::replay_log_text(&text)?;
            let last = i + 1 == segs.len();
            if replay.truncated_tail && !last {
                return Err(DimmunixError::Parse {
                    line: 0,
                    message: format!(
                        "segment {} ends in a partial record but is not the last segment",
                        seg.display()
                    ),
                });
            }
            total.records += replay.records;
            if i == 0 {
                // Nothing precedes the first segment to dedup against, so
                // its history is taken as replayed instead of re-added.
                total.history = replay.history;
            } else {
                total.history.merge(&replay.history);
            }
            if last {
                total.truncated_tail = replay.truncated_tail;
                total.valid_len = replay.valid_len;
            }
        }
        Ok(total)
    }

    /// Replays the log and, if it ends in a crash-partial record, truncates
    /// the file back to the well-formed prefix so the next append lands on
    /// a record boundary. This is the engine's start-up path.
    ///
    /// # Errors
    /// Propagates filesystem and parse errors as in [`replay`](HistoryLog::replay).
    pub fn recover(&self) -> Result<LogReplay> {
        let replay = self.replay()?;
        if replay.truncated_tail {
            // Only the last segment can legally carry a torn tail (replay
            // rejects interior ones), so that is the file to repair.
            let last = self
                .segments()
                .last()
                .cloned()
                .unwrap_or_else(|| self.path.clone());
            let f = fs::OpenOptions::new().write(true).open(last)?;
            f.set_len(replay.valid_len as u64)?;
            if self.sync {
                f.sync_all()?;
            }
        }
        Ok(replay)
    }

    /// Best-effort count of raw (newline-separated, non-empty) records
    /// across all segments, regardless of whether they parse — used to size
    /// [`RecoveryReport::quarantined_records`] when a corrupt log is set
    /// aside. Returns 0 if nothing can be read.
    pub fn raw_record_count(&self) -> usize {
        self.segments()
            .iter()
            .map(|seg| Self::raw_records_in(seg))
            .sum()
    }

    /// Moves a log that failed to replay aside (segment 0 to
    /// `<path>.corrupt`, segment *N* to `<path>.corrupt.segN`, replacing any
    /// previous quarantine) so the engine can start a fresh, replayable log
    /// while preserving the bytes for diagnosis. Without this, appends after
    /// interior corruption would land behind records that every future
    /// replay rejects — antibodies written but never readable again. The
    /// whole chain moves together: leaving higher segments behind would
    /// splice their records onto the fresh log with no provenance. Returns
    /// the quarantine base path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn quarantine(&self) -> Result<std::path::PathBuf> {
        let segs = self.segments();
        let target = self.path.with_extension("corrupt");
        for (i, seg) in segs.iter().enumerate() {
            let dest = if i == 0 {
                target.clone()
            } else {
                let mut name = target.clone().into_os_string();
                name.push(format!(".seg{i}"));
                PathBuf::from(name)
            };
            fs::rename(seg, &dest)?;
        }
        if segs.is_empty() {
            // Preserve the single-file contract: quarantining a missing log
            // is a filesystem error, not a silent success.
            fs::rename(&self.path, &target)?;
        }
        Ok(target)
    }

    /// Rewrites the log to contain exactly `history`, one record per
    /// signature, atomically (write-then-rename). Used by compaction and by
    /// [`Dimmunix::save_history`](crate::Dimmunix::save_history).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn rewrite(&self, history: &History) -> Result<()> {
        // Record the chain before the rename below extends or shrinks it.
        let old_segments = self.segments();
        let tmp = self.path.with_extension("tmp");
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(history.to_text().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        // The rename changed the directory entry; make that durable too.
        self.sync_parent_dir()?;
        // The rewrite coalesced every record into segment 0; higher
        // segments are now stale duplicates and must not replay twice.
        for seg in old_segments.iter().skip(1) {
            fs::remove_file(seg)?;
        }
        Ok(())
    }

    /// Offline compaction: replays the segment chain (tolerating a partial
    /// tail in the last segment), deduplicates, and rewrites everything into
    /// a single fresh segment atomically. Returns the replay the compacted
    /// log was built from.
    ///
    /// # Errors
    /// Propagates filesystem and parse errors.
    pub fn compact(&self) -> Result<LogReplay> {
        let replay = self.replay()?;
        self.rewrite(&replay.history)?;
        Ok(replay)
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "history with {} signature(s)", self.len())?;
        for (id, sig) in self.iter() {
            write!(f, "\n[{id}] {sig}")?;
        }
        Ok(())
    }
}

impl FromIterator<Signature> for History {
    fn from_iter<T: IntoIterator<Item = Signature>>(iter: T) -> Self {
        let mut h = History::new();
        for sig in iter {
            h.add(sig);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frame;

    /// Dedup-index diagnostics: `(bucket count, largest bucket)`. The
    /// largest bucket bounds the `same_bug` comparisons one `add`/`find`
    /// performs; replay-cost tests assert it stays O(1) for histories of
    /// distinct bugs.
    fn dedup_buckets(h: &History) -> (usize, usize) {
        let largest = h.by_fingerprint.values().map(Vec::len).max();
        (h.by_fingerprint.len(), largest.unwrap_or(0))
    }

    fn sig(kind: SignatureKind, a: u32, b: u32) -> Signature {
        Signature::new(
            kind,
            vec![
                SignaturePair::new(
                    CallStack::single(Frame::new("m1", "f1.rs", a)),
                    CallStack::single(Frame::new("m2", "f2.rs", a + 1)),
                ),
                SignaturePair::new(
                    CallStack::single(Frame::new("m3", "f3.rs", b)),
                    CallStack::single(Frame::new("m4", "f4.rs", b + 1)),
                ),
            ],
        )
    }

    #[test]
    fn add_deduplicates_same_bug() {
        let mut h = History::new();
        let (id1, added1) = h.add(sig(SignatureKind::Deadlock, 1, 2));
        let (id2, added2) = h.add(sig(SignatureKind::Deadlock, 1, 2));
        assert!(added1);
        assert!(!added2);
        assert_eq!(id1, id2);
        assert_eq!(h.len(), 1);
        let (_, added3) = h.add(sig(SignatureKind::Deadlock, 1, 3));
        assert!(added3);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn text_roundtrip_preserves_signatures() {
        let mut h = History::new();
        h.add(sig(SignatureKind::Deadlock, 1, 2));
        h.add(sig(SignatureKind::Starvation, 5, 9));
        let text = h.to_text();
        let parsed = History::from_text(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        for (id, s) in h.iter() {
            assert!(parsed.get(id).unwrap().same_bug(s));
        }
    }

    /// A `to_text()` dump is a log segment: written to a fresh file it
    /// replays through `HistoryLog` record for record and dumps back to the
    /// same bytes.
    #[test]
    fn text_dump_is_a_log_segment() {
        let mut h = History::new();
        h.add(sig(SignatureKind::Deadlock, 1, 2));
        h.add(sig(SignatureKind::Starvation, 5, 9));
        h.add(sig(SignatureKind::Deadlock, 7, 8));
        let path =
            std::env::temp_dir().join(format!("dimmunix-text-dump-{}.log", std::process::id()));
        fs::write(&path, h.to_text()).unwrap();
        let replay = HistoryLog::new(&path).replay().unwrap();
        assert_eq!(replay.records, h.len());
        assert!(!replay.truncated_tail);
        assert_eq!(replay.history.to_text(), h.to_text());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn from_text_rejects_garbage() {
        let good = signature_to_log_record(&sig(SignatureKind::Deadlock, 1, 2));
        assert!(History::from_text(&format!("{good}\n")).is_ok());
        assert!(History::from_text("nonsense\n").is_err());
        // Strict: what log replay tolerates as a torn tail is an error here,
        // whether the final record is partial or merely unterminated.
        assert!(History::from_text(&format!("{good}\n{{\"kind\": \"dead")).is_err());
        let err = History::from_text(&good).unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
    }

    #[test]
    fn empty_text_is_empty_history() {
        assert!(History::from_text("").unwrap().is_empty());
        assert!(History::from_text("\n\n").unwrap().is_empty());
    }

    #[test]
    fn merge_deduplicates() {
        let mut a = History::new();
        a.add(sig(SignatureKind::Deadlock, 1, 2));
        let mut b = History::new();
        b.add(sig(SignatureKind::Deadlock, 1, 2));
        b.add(sig(SignatureKind::Deadlock, 7, 8));
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn memory_footprint_is_positive_and_grows() {
        let mut h = History::new();
        let base = h.memory_footprint_bytes();
        h.add(sig(SignatureKind::Deadlock, 1, 2));
        assert!(h.memory_footprint_bytes() > base);
    }

    #[test]
    fn log_record_roundtrip() {
        let original = sig(SignatureKind::Starvation, 3, 4);
        let record = signature_to_log_record(&original);
        assert!(!record.contains('\n'), "records must be single-line");
        let parsed = signature_from_log_record(&record).unwrap();
        assert!(parsed.same_bug(&original));
    }

    /// A record whose `fp` member was stripped carries no verifiable
    /// identity and must be refused on every path — it used to replay
    /// unverified. In a log it is interior corruption, so engine start-up
    /// takes the quarantine + `RecoveryReport` path rather than trusting it.
    #[test]
    fn stripped_fingerprint_is_rejected() {
        let good = signature_to_log_record(&sig(SignatureKind::Deadlock, 1, 2));
        let fp_at = good.find(", \"fp\": ").expect("record carries fp");
        let stripped = format!("{}}}", &good[..fp_at]);
        assert!(json::parse(&stripped).is_ok(), "still well-formed JSON");
        let names_the_field = |err: DimmunixError| {
            assert!(matches!(err, DimmunixError::Parse { .. }), "{err:?}");
            assert!(err.to_string().contains("missing `fp`"), "{err}");
        };
        names_the_field(signature_from_log_record(&stripped).unwrap_err());
        names_the_field(History::from_text(&format!("{stripped}\n")).unwrap_err());

        let dir = std::env::temp_dir().join(format!("dimmunix-log-nofp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.log");
        fs::write(&path, format!("{stripped}\n{good}\n")).unwrap();
        names_the_field(HistoryLog::new(&path).replay().unwrap_err());
        // Reported, not silent: the engine quarantines the log and says so.
        let engine = crate::Dimmunix::new(crate::Config::builder().history_path(&path).build());
        assert!(engine.history().is_empty());
        let report = engine.recovery_report().expect("a log was configured");
        assert_eq!(report.quarantined_records, 2);
        assert_eq!(report.quarantine_path, Some(dir.join("history.corrupt")));
        fs::remove_dir_all(&dir).ok();
    }

    /// A record whose declared fingerprint disagrees with its content is
    /// corruption (or tampering) and must be rejected, not replayed.
    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let good = signature_to_log_record(&sig(SignatureKind::Deadlock, 1, 2));
        let tampered = {
            let fp_at = good.find("\"fp\": ").expect("record carries fp") + 8;
            let mut t = good.clone();
            // Flip one hex digit of the declared fingerprint.
            let old = t.as_bytes()[fp_at];
            t.replace_range(fp_at..fp_at + 1, if old == b'0' { "1" } else { "0" });
            t
        };
        assert!(signature_from_log_record(&good).is_ok());
        let err = signature_from_log_record(&tampered).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        assert!(signature_from_log_record(
            r#"{"kind": "deadlock", "pairs": [], "fp": "zznothex"}"#
        )
        .is_err());
    }

    #[test]
    fn log_append_replay_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"));
        // Missing file: empty history, clean tail.
        let replay = log.replay().unwrap();
        assert!(replay.history.is_empty());
        assert!(!replay.truncated_tail);
        for i in 0..4 {
            log.append(&sig(SignatureKind::Deadlock, i * 10, i * 10 + 1))
                .unwrap();
        }
        let replay = log.replay().unwrap();
        assert_eq!(replay.records, 4);
        assert_eq!(replay.history.len(), 4);
        assert!(!replay.truncated_tail);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_is_dropped_and_recovery_repairs_the_file() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"));
        for i in 0..3 {
            log.append(&sig(SignatureKind::Deadlock, i * 10, i * 10 + 1))
                .unwrap();
        }
        // Simulate a crash mid-append: chop the file in the middle of the
        // final record.
        let full = fs::read(log.path()).unwrap();
        fs::write(log.path(), &full[..full.len() - 17]).unwrap();

        let replay = log.recover().unwrap();
        assert_eq!(replay.records, 2, "the partial record must be dropped");
        assert!(replay.truncated_tail);
        // Recovery truncated the partial record away, so the next append
        // lands on a record boundary and a fresh replay is clean.
        log.append(&sig(SignatureKind::Starvation, 90, 91)).unwrap();
        let replay = log.replay().unwrap();
        assert_eq!(replay.records, 3);
        assert!(!replay.truncated_tail);
        assert_eq!(replay.history.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unterminated_final_record_is_not_committed() {
        // Appends write record + newline in one call; if the crash lands
        // exactly between record and terminator, the record is *not*
        // replayed (commit == durable newline), and recovery truncates it.
        let mut text = String::new();
        text.push_str(&signature_to_log_record(&sig(
            SignatureKind::Deadlock,
            1,
            2,
        )));
        text.push('\n');
        let clean_len = text.len();
        text.push_str(&signature_to_log_record(&sig(
            SignatureKind::Deadlock,
            5,
            6,
        )));
        let replay = History::replay_log_text(&text).unwrap();
        assert_eq!(replay.records, 1);
        assert!(replay.truncated_tail);
        assert_eq!(replay.valid_len, clean_len);
    }

    #[test]
    fn corrupt_interior_record_is_an_error() {
        let good = signature_to_log_record(&sig(SignatureKind::Deadlock, 1, 2));
        let text = format!("not json at all\n{good}\n");
        assert!(History::replay_log_text(&text).is_err());
        // ...but garbage only in the tail is tolerated.
        let text = format!("{good}\n{{\"kind\": \"dead");
        let replay = History::replay_log_text(&text).unwrap();
        assert_eq!(replay.records, 1);
        assert!(replay.truncated_tail);
    }

    #[test]
    fn compaction_deduplicates_and_rewrites_atomically() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-compact-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log")).with_sync(false);
        for _ in 0..5 {
            log.append(&sig(SignatureKind::Deadlock, 1, 2)).unwrap();
        }
        log.append(&sig(SignatureKind::Deadlock, 7, 8)).unwrap();
        let replay = log.compact().unwrap();
        assert_eq!(replay.records, 6);
        assert_eq!(replay.history.len(), 2);
        // The rewritten log holds exactly the deduplicated records.
        let after = log.replay().unwrap();
        assert_eq!(after.records, 2);
        assert_eq!(after.history.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_appends_roll_and_replay_across_segments() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-seg-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"))
            .with_sync(false)
            .with_segment_records(2);
        for i in 0..5 {
            log.append(&sig(SignatureKind::Deadlock, i * 10, i * 10 + 1))
                .unwrap();
        }
        // 5 records at 2 per segment: seg0 full, seg1 full, seg2 holds one.
        assert!(dir.join("history.log").exists());
        assert!(dir.join("history.log.seg1").exists());
        assert!(dir.join("history.log.seg2").exists());
        assert!(!dir.join("history.log.seg3").exists());
        let replay = log.replay().unwrap();
        assert_eq!(replay.records, 5);
        assert_eq!(replay.history.len(), 5);
        assert!(!replay.truncated_tail);
        assert_eq!(log.raw_record_count(), 5);
        // A handle without the segment setting replays the same chain: the
        // on-disk layout, not the writer configuration, is authoritative.
        let reader = HistoryLog::new(dir.join("history.log"));
        assert_eq!(reader.replay().unwrap().history.len(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_dedup_spans_segment_boundaries() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-segdup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"))
            .with_sync(false)
            .with_segment_records(2);
        // The same bug recorded in three different segments plus one
        // distinct bug: replay must merge through the fingerprint index.
        for _ in 0..5 {
            log.append(&sig(SignatureKind::Deadlock, 1, 2)).unwrap();
        }
        log.append(&sig(SignatureKind::Deadlock, 7, 8)).unwrap();
        let replay = log.replay().unwrap();
        assert_eq!(replay.records, 6);
        assert_eq!(replay.history.len(), 2, "dedup must span segments");
        fs::remove_dir_all(&dir).ok();
    }

    /// Replay takes the first segment's history as decoded and merges the
    /// later ones into it. That must give exactly the history of adding
    /// every record in log order: the same ids, the same order, the same
    /// bytes, with duplicates inside a segment and across segments.
    #[test]
    fn segmented_replay_equals_adding_every_record_in_order() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-segord-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"))
            .with_sync(false)
            .with_segment_records(3);
        let records: Vec<Signature> = [1, 2, 1, 3, 2, 4, 1, 5]
            .into_iter()
            .map(|a| sig(SignatureKind::Deadlock, a, a + 100))
            .collect();
        let mut expected = History::new();
        for record in &records {
            log.append(record).unwrap();
            expected.add(record.clone());
        }
        assert!(dir.join("history.log.seg2").exists(), "three segments");
        let replay = log.replay().unwrap();
        assert_eq!(replay.records, records.len());
        assert_eq!(replay.history.to_text(), expected.to_text());
        let ids = |h: &History| h.iter().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(&replay.history), ids(&expected));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_torn_tail_in_last_segment_recovers() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-segtail-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"))
            .with_sync(false)
            .with_segment_records(2);
        for i in 0..3 {
            log.append(&sig(SignatureKind::Deadlock, i * 10, i * 10 + 1))
                .unwrap();
        }
        // Crash mid-append in the active (last) segment.
        let seg1 = dir.join("history.log.seg1");
        let full = fs::read(&seg1).unwrap();
        fs::write(&seg1, &full[..full.len() - 17]).unwrap();

        let replay = log.recover().unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.records, 2, "the torn record must be dropped");
        // Recovery repaired *the last segment*; the next append lands on a
        // record boundary there and the chain replays clean.
        log.append(&sig(SignatureKind::Starvation, 90, 91)).unwrap();
        let replay = log.replay().unwrap();
        assert!(!replay.truncated_tail);
        assert_eq!(replay.records, 3);
        assert_eq!(replay.history.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    /// A crash can stop an append after any byte of its record. Cut a log
    /// of `K` records at every offset from the end of record `K - 1` to
    /// the end of record `K` — once as a single file, once as the last
    /// segment of a two-segment chain — and recover: no committed record
    /// is lost, the torn one is dropped and reported exactly when some of
    /// it reached the file, the file ends at the last whole record, a
    /// second recovery changes nothing, and the next append replays as
    /// record `K`.
    #[test]
    fn recovery_at_every_byte_of_the_last_record() {
        const K: usize = 4;
        let dir = std::env::temp_dir().join(format!("dimmunix-log-cut-{}", std::process::id()));
        let records: Vec<Signature> = (0..K as u32)
            .map(|i| sig(SignatureKind::Deadlock, i * 10, i * 10 + 1))
            .collect();
        // (segment size, the last file): one file holds all K records; two
        // records per segment put records K-1 and K in `.seg1`.
        for (segment_records, last) in [(usize::MAX, "history.log"), (2, "history.log.seg1")] {
            let _ = fs::remove_dir_all(&dir);
            let log = HistoryLog::new(dir.join("history.log"))
                .with_sync(false)
                .with_segment_records(segment_records);
            for record in &records {
                log.append(record).unwrap();
            }
            let last = dir.join(last);
            let full = fs::read(&last).unwrap();
            // Record K is the file's last line; record K-1 ends before it.
            let start = full[..full.len() - 1]
                .iter()
                .rposition(|b| *b == b'\n')
                .map_or(0, |newline| newline + 1);
            for cut in start..=full.len() {
                fs::write(&last, &full[..cut]).unwrap();
                let whole = cut == full.len();
                let replay = log.recover().unwrap();
                let committed = if whole { K } else { K - 1 };
                assert_eq!(replay.records, committed, "cut at {cut}");
                assert_eq!(replay.truncated_tail, cut > start && !whole, "cut at {cut}");
                let expected_len = if whole { full.len() } else { start };
                assert_eq!(fs::read(&last).unwrap().len(), expected_len, "cut at {cut}");
                let again = log.recover().unwrap();
                assert_eq!(again.records, committed, "cut at {cut}");
                assert!(!again.truncated_tail, "cut at {cut}");
                assert_eq!(fs::read(&last).unwrap().len(), expected_len, "cut at {cut}");
                if !whole {
                    log.append(&records[K - 1]).unwrap();
                    let replay = log.replay().unwrap();
                    assert_eq!(replay.records, K, "cut at {cut}");
                    assert_eq!(replay.history.len(), K, "cut at {cut}");
                    assert!(!replay.truncated_tail, "cut at {cut}");
                    assert_eq!(fs::read(&last).unwrap(), full, "cut at {cut}");
                }
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_in_interior_segment_is_interior_corruption() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-segmid-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"))
            .with_sync(false)
            .with_segment_records(2);
        for i in 0..4 {
            log.append(&sig(SignatureKind::Deadlock, i * 10, i * 10 + 1))
                .unwrap();
        }
        // Tear the tail of segment 0 while segment 1 exists after it:
        // nothing may legally be appended after a torn record, so this is
        // interior corruption, not a crash tail.
        let seg0 = dir.join("history.log");
        let full = fs::read(&seg0).unwrap();
        fs::write(&seg0, &full[..full.len() - 17]).unwrap();
        assert!(matches!(log.replay(), Err(DimmunixError::Parse { .. })));
        assert!(matches!(log.recover(), Err(DimmunixError::Parse { .. })));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_quarantine_moves_the_whole_chain() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-segquar-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"))
            .with_sync(false)
            .with_segment_records(2);
        for i in 0..5 {
            log.append(&sig(SignatureKind::Deadlock, i * 10, i * 10 + 1))
                .unwrap();
        }
        let target = log.quarantine().unwrap();
        assert_eq!(target, dir.join("history.corrupt"));
        // Every segment moved; none left to splice onto a fresh log.
        assert!(dir.join("history.corrupt").exists());
        assert!(dir.join("history.corrupt.seg1").exists());
        assert!(dir.join("history.corrupt.seg2").exists());
        assert!(!dir.join("history.log").exists());
        assert!(!dir.join("history.log.seg1").exists());
        assert!(!dir.join("history.log.seg2").exists());
        // The fresh chain is empty and replays clean.
        let replay = log.replay().unwrap();
        assert!(replay.history.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_compaction_coalesces_into_a_single_segment() {
        let dir = std::env::temp_dir().join(format!("dimmunix-log-segcmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let log = HistoryLog::new(dir.join("history.log"))
            .with_sync(false)
            .with_segment_records(2);
        for _ in 0..5 {
            log.append(&sig(SignatureKind::Deadlock, 1, 2)).unwrap();
        }
        log.append(&sig(SignatureKind::Deadlock, 7, 8)).unwrap();
        let replay = log.compact().unwrap();
        assert_eq!(replay.records, 6);
        assert_eq!(replay.history.len(), 2);
        // The chain collapsed to segment 0; stale segments are gone so no
        // record can replay twice.
        assert!(dir.join("history.log").exists());
        assert!(!dir.join("history.log.seg1").exists());
        assert!(!dir.join("history.log.seg2").exists());
        let after = log.replay().unwrap();
        assert_eq!(after.records, 2);
        assert_eq!(after.history.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    /// Bulk replay of a ~2k-record synthetic log must cost O(n): the
    /// fingerprint index keeps `add`'s dedup probe at O(largest bucket),
    /// which for distinct bugs stays a small constant instead of scanning
    /// the whole history per record (the old O(n²) behaviour).
    #[test]
    fn bulk_replay_of_2k_record_log_costs_linear_dedup_work() {
        const RECORDS: u32 = 2000;
        let mut text = String::new();
        for i in 0..RECORDS {
            // Distinct bugs, plus every 10th record duplicated (a log that
            // recorded a bug twice pre-dedup) so the dedup path is real.
            text.push_str(&signature_to_log_record(&sig(
                SignatureKind::Deadlock,
                i,
                10_000 + i,
            )));
            text.push('\n');
            if i % 10 == 0 {
                text.push_str(&signature_to_log_record(&sig(
                    SignatureKind::Deadlock,
                    i,
                    10_000 + i,
                )));
                text.push('\n');
            }
        }
        let started = std::time::Instant::now();
        let replay = History::replay_log_text(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(replay.records as u32, RECORDS + RECORDS / 10);
        assert_eq!(replay.history.len() as u32, RECORDS, "duplicates merged");
        let (buckets, largest) = dedup_buckets(&replay.history);
        assert_eq!(buckets as u32, RECORDS, "one bucket per distinct bug");
        assert!(
            largest <= 2,
            "a distinct-bug history must not pile up in one bucket \
             (largest bucket: {largest} -> dedup would degrade towards O(n²))"
        );
        // Generous wall-clock guard (the structural assertion above is the
        // real one): the old linear-scan dedup took seconds at this size.
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "2k-record replay took {elapsed:?}"
        );
        // The index answers point lookups too.
        assert!(replay
            .history
            .find(&sig(SignatureKind::Deadlock, 55, 10_055))
            .is_some());
        assert!(replay
            .history
            .find(&sig(SignatureKind::Starvation, 55, 10_055))
            .is_none());
    }

    #[test]
    fn collect_from_iterator() {
        let h: History = vec![
            sig(SignatureKind::Deadlock, 1, 2),
            sig(SignatureKind::Deadlock, 1, 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(h.len(), 1);
    }
}
