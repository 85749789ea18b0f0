//! The `dimmunix-pack v1` antibody-pack codec and its CRDT-style merge.
//!
//! A pack is a single JSON document carrying a set of deadlock/starvation
//! signatures together with lineage metadata: the id of the process that
//! exported it, the epoch range the signatures were collected over, per-entry
//! detection counts, and a whole-pack fingerprint. Entries are keyed by the
//! [stable fingerprint](Signature::stable_fingerprint) of their signature, so
//! the same bug exported by two differently compiled binaries of the same
//! program occupies one slot.
//!
//! [`Pack::merge`] is a join in the CRDT sense — idempotent, commutative and
//! associative over entry sets (union by fingerprint, detection counts joined
//! by max, epoch ranges by interval union) — which is what lets a fleet gossip
//! packs in any order and still converge.
//!
//! Integrity is all-or-nothing: a document whose declared `signature_count`
//! or `fingerprint` disagrees with its contents, or any of whose entries
//! carries a signature record (the history log's record format,
//! [`signature_to_log_record`]) whose `fp` is missing or disagrees with a
//! recomputation from its stacks, is rejected **whole**. A malicious or
//! corrupt pack must not be able to slip even one bogus antibody into a
//! local history, because an antibody is a standing instruction to park
//! threads.

use dimmunix_core::json::{self, JsonValue};
use dimmunix_core::{
    fnv1a, signature_from_json_value, signature_to_log_record, HistorySnapshot, Signature,
    FNV_OFFSET,
};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic `format` string of every pack document.
pub const PACK_FORMAT: &str = "dimmunix-pack";
/// The only pack version this build reads and writes.
pub const PACK_VERSION: u64 = 1;

/// An error produced by the pack codec.
#[derive(Debug)]
pub enum PackError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The document is not a well-formed, integrity-consistent pack. The
    /// message says which check failed; the pack as a whole was rejected.
    Malformed(String),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Io(e) => write!(f, "pack io error: {e}"),
            PackError::Malformed(m) => write!(f, "malformed pack: {m}"),
        }
    }
}

impl std::error::Error for PackError {}

impl From<std::io::Error> for PackError {
    fn from(e: std::io::Error) -> Self {
        PackError::Io(e)
    }
}

fn malformed(message: impl Into<String>) -> PackError {
    PackError::Malformed(message.into())
}

/// One antibody carried by a pack: a signature plus how many times its bug
/// has been detected across the processes the pack has passed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackEntry {
    /// The signature itself.
    pub signature: Signature,
    /// Join-by-max detection count (lineage metadata, not load-bearing).
    pub detections: u64,
}

/// A versioned, single-file set of antibodies with lineage metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Pack {
    origin: String,
    epoch_min: u64,
    epoch_max: u64,
    /// Entries keyed by stable signature fingerprint.
    entries: BTreeMap<u64, PackEntry>,
}

impl Pack {
    /// Creates an empty pack attributed to `origin` (a free-form process or
    /// host identifier).
    pub fn new(origin: impl Into<String>) -> Self {
        Pack {
            origin: origin.into(),
            epoch_min: 0,
            epoch_max: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Builds a pack from every live signature of a history snapshot,
    /// stamping the snapshot's current epoch as the upper end of the range
    /// and one detection per signature.
    pub fn from_snapshot(origin: impl Into<String>, snapshot: &HistorySnapshot) -> Self {
        let mut pack = Pack::new(origin);
        pack.epoch_max = snapshot.epoch();
        for (_, sig) in snapshot.history().iter() {
            pack.add(sig.clone(), 1);
        }
        pack
    }

    /// The origin identifier the pack was exported under.
    pub fn origin(&self) -> &str {
        &self.origin
    }

    /// Number of antibodies in the pack.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the pack carries no antibodies.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in ascending stable-fingerprint order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &PackEntry)> {
        self.entries.iter().map(|(fp, e)| (*fp, e))
    }

    /// True if the pack carries an antibody with stable fingerprint `fp`.
    pub fn contains(&self, fp: u64) -> bool {
        self.entries.contains_key(&fp)
    }

    /// Adds one antibody, joining with any existing entry for the same bug
    /// (detection counts join by max). Returns true if the bug was new to
    /// the pack.
    pub fn add(&mut self, signature: Signature, detections: u64) -> bool {
        let fp = signature.stable_fingerprint();
        match self.entries.get_mut(&fp) {
            Some(existing) => {
                existing.detections = existing.detections.max(detections);
                false
            }
            None => {
                self.entries.insert(
                    fp,
                    PackEntry {
                        signature,
                        detections,
                    },
                );
                true
            }
        }
    }

    /// Joins `other` into `self`: union of entries by stable fingerprint,
    /// detection counts by max, epoch ranges by interval union. Returns the
    /// number of bugs that were new to `self`.
    ///
    /// This is a CRDT join: merging is idempotent, commutative and
    /// associative over the entry sets, so packs can be gossiped between
    /// processes in any order and every process converges to the same set.
    pub fn merge(&mut self, other: &Pack) -> usize {
        let mut fresh = 0;
        for entry in other.entries.values() {
            if self.add(entry.signature.clone(), entry.detections) {
                fresh += 1;
            }
        }
        self.epoch_min = self.epoch_min.min(other.epoch_min);
        self.epoch_max = self.epoch_max.max(other.epoch_max);
        fresh
    }

    /// The whole-pack fingerprint: FNV-1a over the sorted entry fingerprints.
    /// Recomputed and checked against the declared value on every parse.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        // BTreeMap iterates in ascending key order, which is the canonical
        // entry order of the serialized document.
        for fp in self.entries.keys() {
            hash = fnv1a(hash, &fp.to_le_bytes());
        }
        hash
    }

    /// Serializes the pack as a `dimmunix-pack v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"format\": ");
        json::write_escaped(&mut out, PACK_FORMAT);
        out.push_str(&format!(", \"version\": {PACK_VERSION}, \"origin\": "));
        json::write_escaped(&mut out, &self.origin);
        out.push_str(&format!(
            ", \"epoch_min\": {}, \"epoch_max\": {}, \"signature_count\": {}, \"fingerprint\": ",
            self.epoch_min,
            self.epoch_max,
            self.entries.len()
        ));
        json::write_escaped(&mut out, &format!("{:016x}", self.fingerprint()));
        out.push_str(", \"signatures\": [");
        for (i, entry) in self.entries.values().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"detections\": {}, \"signature\": {}}}",
                entry.detections,
                signature_to_log_record(&entry.signature)
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Parses and integrity-checks a pack document.
    ///
    /// # Errors
    /// Returns [`PackError::Malformed`] — rejecting the pack **whole** — if
    /// the document is not JSON, is not a `dimmunix-pack` of a supported
    /// version, declares a `signature_count` or `fingerprint` that disagrees
    /// with its contents, carries duplicate entries for one bug, or carries
    /// any record whose per-signature `fp` is missing or fails recomputation.
    pub fn from_json(text: &str) -> Result<Pack, PackError> {
        let doc = json::parse(text).map_err(malformed)?;
        match doc.get("format").and_then(JsonValue::as_str) {
            Some(PACK_FORMAT) => {}
            other => return Err(malformed(format!("unknown format {other:?}"))),
        }
        match doc.get("version").and_then(JsonValue::as_u64) {
            Some(PACK_VERSION) => {}
            other => return Err(malformed(format!("unsupported version {other:?}"))),
        }
        let origin = doc
            .get("origin")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| malformed("missing `origin`"))?;
        let epoch_min = doc
            .get("epoch_min")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| malformed("missing `epoch_min`"))?;
        let epoch_max = doc
            .get("epoch_max")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| malformed("missing `epoch_max`"))?;
        let declared_count = doc
            .get("signature_count")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| malformed("missing `signature_count`"))?;
        let declared_fp = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| malformed("missing `fingerprint`"))?;
        let declared_fp =
            u64::from_str_radix(declared_fp, 16).map_err(|_| malformed("non-hex `fingerprint`"))?;
        let raw = doc
            .get("signatures")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing `signatures` array"))?;

        let mut pack = Pack::new(origin);
        pack.epoch_min = epoch_min;
        pack.epoch_max = epoch_max;
        for item in raw {
            let detections = item
                .get("detections")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| malformed("entry is missing `detections`"))?;
            let sig_value = item
                .get("signature")
                .ok_or_else(|| malformed("entry is missing `signature`"))?;
            // Requires the per-record `fp` and re-verifies it against the stacks.
            let signature =
                signature_from_json_value(sig_value).map_err(|e| malformed(e.to_string()))?;
            if !pack.add(signature, detections) {
                return Err(malformed("duplicate entry for one bug"));
            }
        }
        // A count or whole-pack fingerprint that disagrees with the decoded
        // contents means records were dropped, injected, or reshuffled
        // between export and import: quarantine territory, not merge input.
        if pack.entries.len() as u64 != declared_count {
            return Err(malformed(format!(
                "signature_count declares {declared_count} records, document carries {}",
                pack.entries.len()
            )));
        }
        let actual_fp = pack.fingerprint();
        if actual_fp != declared_fp {
            return Err(malformed(format!(
                "fingerprint mismatch: declared {declared_fp:016x}, contents hash to {actual_fp:016x}"
            )));
        }
        Ok(pack)
    }

    /// Writes the pack to `path` atomically (temp file + rename), so a
    /// reader never observes a half-written pack.
    ///
    /// # Errors
    /// Returns [`PackError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PackError> {
        let path = path.as_ref();
        let tmp = path.with_extension("pack.tmp");
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and integrity-checks the pack at `path`.
    ///
    /// # Errors
    /// Returns [`PackError::Io`] if the file cannot be read and
    /// [`PackError::Malformed`] if it fails any integrity check.
    pub fn load(path: impl AsRef<Path>) -> Result<Pack, PackError> {
        let text = std::fs::read_to_string(path)?;
        Pack::from_json(&text)
    }

    /// Reads the pack at `path`; on an integrity failure the file is moved
    /// aside to `<path>.corrupt` — the same quarantine discipline the
    /// history log applies to corrupt segments — and the error is returned
    /// with the quarantine destination.
    ///
    /// # Errors
    /// Propagates [`Pack::load`] errors; quarantining never masks them.
    pub fn load_or_quarantine(
        path: impl AsRef<Path>,
    ) -> Result<Pack, (PackError, Option<PathBuf>)> {
        let path = path.as_ref();
        match Pack::load(path) {
            Ok(pack) => Ok(pack),
            Err(err @ PackError::Io(_)) => Err((err, None)),
            Err(err) => {
                let mut quarantine = path.as_os_str().to_owned();
                quarantine.push(".corrupt");
                let quarantine = PathBuf::from(quarantine);
                match std::fs::rename(path, &quarantine) {
                    Ok(()) => Err((err, Some(quarantine))),
                    Err(_) => Err((err, None)),
                }
            }
        }
    }
}

/// The epoch lineage, which the codec and merge carry and tests check.
#[cfg(test)]
impl Pack {
    /// The epoch range `(min, max)` the entries were collected over.
    pub(crate) fn epoch_range(&self) -> (u64, u64) {
        (self.epoch_min, self.epoch_max)
    }

    /// Extends the epoch range to cover `epoch`.
    pub(crate) fn observe_epoch(&mut self, epoch: u64) {
        self.epoch_min = self.epoch_min.min(epoch);
        self.epoch_max = self.epoch_max.max(epoch);
    }
}
