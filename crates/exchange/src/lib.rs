//! Collaborative immunity for Dimmunix: antibody packs, fleet merge, and
//! trust gating.
//!
//! The paper's immunity model is per-process: each process pays the
//! first-occurrence cost of a deadlock once, records the signature, and
//! avoids it forever after. This crate makes immunity *transferable*. A
//! process exports its signatures as a [`Pack`] — a versioned single-file
//! document keyed by [stable fingerprints](dimmunix_core::Signature::stable_fingerprint)
//! that survive recompilation — and any other process running the same
//! program can import that pack behind the trust gate below, so only one
//! member of a fleet ever pays the first-occurrence cost of each bug.
//!
//! Two layers:
//!
//! - **Packs** ([`pack`]): the `dimmunix-pack v1` codec with lineage
//!   metadata, a CRDT-style join ([`Pack::merge`]: idempotent, commutative,
//!   associative), and all-or-nothing integrity checking (a pack failing any
//!   check is rejected whole and can be quarantined like a corrupt log
//!   segment).
//! - **Trust gating** ([`pending`]): foreign signatures are screened against
//!   locally interned positions before activation. An antibody naming sites
//!   this process has never executed sits inert in a [`PendingSet`], so a
//!   bad pack cannot park threads at arbitrary sites (antibodies are
//!   standing yield instructions — trusting them blindly would be a
//!   denial-of-service vector). The gate is the only way a pack's
//!   antibodies reach a history.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pack;
pub mod pending;

pub use pack::{Pack, PackEntry, PackError, PACK_FORMAT, PACK_VERSION};
pub use pending::{ActivatedAntibody, PendingSet};

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_core::{CallStack, Frame, Signature, SignatureKind, SignaturePair};
    use dimmunix_testkit::Gen;

    fn sig(outer_m: &str, line: u32, delta: u32) -> Signature {
        Signature::new(
            SignatureKind::Deadlock,
            vec![
                SignaturePair::new(
                    CallStack::single(Frame::new(outer_m, "a.rs", line + delta)),
                    CallStack::single(Frame::new("inner.a", "a.rs", line + 1 + delta)),
                ),
                SignaturePair::new(
                    CallStack::single(Frame::new("outer.b", "b.rs", 50 + delta)),
                    CallStack::single(Frame::new("inner.b", "b.rs", 51 + delta)),
                ),
            ],
        )
    }

    /// A random signature drawn from small pools so distinct draws often
    /// collide on the same bug — exactly the regime where join laws matter.
    fn random_sig(gen: &mut Gen) -> Signature {
        let methods = ["svc.lock", "pool.get", "cache.put", "log.flush"];
        let files = ["svc.rs", "pool.rs"];
        let arity = gen.range(1, 4);
        let pairs = (0..arity)
            .map(|_| {
                let m = methods[gen.range(0, methods.len())];
                let f = files[gen.range(0, files.len())];
                let line = gen.range(1, 40) as u32;
                SignaturePair::new(
                    CallStack::single(Frame::new(m, f, line)),
                    CallStack::single(Frame::new("inner", f, line + 1)),
                )
            })
            .collect();
        let kind = if gen.flip() {
            SignatureKind::Deadlock
        } else {
            SignatureKind::Starvation
        };
        Signature::new(kind, pairs)
    }

    fn random_pack(gen: &mut Gen, origin: &str) -> Pack {
        let mut pack = Pack::new(origin);
        for _ in 0..gen.range(0, 8) {
            let detections = gen.range(1, 9) as u64;
            pack.add(random_sig(gen), detections);
        }
        pack.observe_epoch(gen.range(0, 100) as u64);
        pack
    }

    fn canonical(pack: &Pack) -> Vec<(u64, u64)> {
        pack.entries().map(|(fp, e)| (fp, e.detections)).collect()
    }

    #[test]
    fn pack_roundtrips_through_json() {
        let mut pack = Pack::new("proc-a");
        pack.add(sig("outer.a", 10, 0), 3);
        pack.add(sig("outer.c", 30, 0), 1);
        pack.observe_epoch(7);
        let text = pack.to_json();
        let parsed = Pack::from_json(&text).unwrap();
        assert_eq!(parsed, pack);
        assert_eq!(parsed.origin(), "proc-a");
        assert_eq!(parsed.epoch_range(), (0, 7));
        assert_eq!(parsed.fingerprint(), pack.fingerprint());
        // An empty pack is legal too.
        let empty = Pack::new("proc-b");
        assert_eq!(Pack::from_json(&empty.to_json()).unwrap(), empty);
    }

    /// Satellite: bad-antibody DoS hardening. A pack whose record count or
    /// whole-pack fingerprint disagrees with its declared values must be
    /// rejected whole — no partial import — and the import helper must
    /// quarantine the file like a corrupt log segment.
    #[test]
    fn tampered_packs_are_rejected_whole_and_quarantined() {
        let mut pack = Pack::new("proc-a");
        pack.add(sig("outer.a", 10, 0), 1);
        pack.add(sig("outer.c", 30, 0), 1);
        let good = pack.to_json();

        // Record dropped but count/fingerprint left as declared: the comma
        // positions make dropping the first entry easy to simulate by
        // rebuilding the array with one entry.
        let dropped = {
            let start = good.find("{\"detections\"").unwrap();
            let mid = good[start..].find(", {\"detections\"").unwrap() + start;
            let end = good.rfind("]}").unwrap();
            format!("{}{}{}", &good[..start], &good[mid + 2..end], &good[end..])
        };
        let err = Pack::from_json(&dropped).unwrap_err();
        assert!(err.to_string().contains("signature_count"), "got: {err}");

        // Declared fingerprint flipped: rejected whole even though every
        // individual record is intact.
        let fp_at = good.find("\"fingerprint\": \"").unwrap() + "\"fingerprint\": \"".len();
        let mut tampered = good.clone();
        let flipped = if &good[fp_at..=fp_at] == "0" {
            "1"
        } else {
            "0"
        };
        tampered.replace_range(fp_at..=fp_at, flipped);
        let err = Pack::from_json(&tampered).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "got: {err}");

        // A count that disagrees is equally fatal.
        let count_tampered = good.replace("\"signature_count\": 2", "\"signature_count\": 3");
        assert!(Pack::from_json(&count_tampered).is_err());

        // An entry whose per-record `fp` was stripped has no verifiable
        // identity: count and whole-pack fingerprint still agree, yet the
        // pack is rejected whole (it used to import unverified).
        let fp_member = good.find(", \"fp\": \"").unwrap();
        let mut stripped = good.clone();
        stripped.replace_range(
            fp_member..fp_member + ", \"fp\": \"0123456789abcdef\"".len(),
            "",
        );
        let err = Pack::from_json(&stripped).unwrap_err();
        assert!(err.to_string().contains("missing `fp`"), "got: {err}");

        // The import helper moves the bad file aside.
        let dir = std::env::temp_dir().join(format!("dimmunix-pack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pack");
        std::fs::write(&path, &tampered).unwrap();
        let (err, quarantine) = Pack::load_or_quarantine(&path).unwrap_err();
        assert!(matches!(err, PackError::Malformed(_)));
        let quarantine = quarantine.unwrap();
        assert!(quarantine.ends_with("bad.pack.corrupt"));
        assert!(!path.exists());
        assert!(quarantine.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_and_format_are_enforced() {
        let pack = Pack::new("proc-a");
        let good = pack.to_json();
        let wrong_version = good.replace("\"version\": 1", "\"version\": 2");
        assert!(Pack::from_json(&wrong_version).is_err());
        let wrong_format = good.replace("dimmunix-pack", "dimmunix-pancake");
        assert!(Pack::from_json(&wrong_format).is_err());
        assert!(Pack::from_json("not json").is_err());
    }

    /// Satellite: merge-algebra proptests. The join must be idempotent,
    /// commutative and associative over random signature sets, or fleet
    /// gossip order would change what a process believes.
    #[test]
    fn merge_is_idempotent() {
        for seed in 0..200u64 {
            let mut gen = Gen::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let a = random_pack(&mut gen, "a");
            let mut twice = a.clone();
            assert_eq!(twice.merge(&a), 0, "self-merge must add nothing");
            assert_eq!(canonical(&twice), canonical(&a), "seed {seed}");
            assert_eq!(twice.epoch_range(), a.epoch_range());
        }
    }

    #[test]
    fn merge_is_commutative() {
        for seed in 0..200u64 {
            let mut gen = Gen::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
            let a = random_pack(&mut gen, "a");
            let b = random_pack(&mut gen, "b");
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(canonical(&ab), canonical(&ba), "seed {seed}");
            assert_eq!(ab.fingerprint(), ba.fingerprint(), "seed {seed}");
            assert_eq!(ab.epoch_range(), ba.epoch_range(), "seed {seed}");
        }
    }

    #[test]
    fn merge_is_associative() {
        for seed in 0..200u64 {
            let mut gen = Gen::new(seed.wrapping_mul(0xda94_2042_e4dd_58b5) | 1);
            let a = random_pack(&mut gen, "a");
            let b = random_pack(&mut gen, "b");
            let c = random_pack(&mut gen, "c");
            let mut left = a.clone(); // (a ∨ b) ∨ c
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone(); // a ∨ (b ∨ c)
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(canonical(&left), canonical(&right), "seed {seed}");
            assert_eq!(left.epoch_range(), right.epoch_range(), "seed {seed}");
        }
    }

    /// Satellite: the pending-activation path. A foreign antibody imports
    /// into quarantine, stays inert, and activates — re-anchored to local
    /// stacks — only once every outer site it names has been interned
    /// locally.
    #[test]
    fn pending_antibody_activates_when_positions_intern() {
        let foreign = sig("outer.a", 10, 500); // outer sites a.rs:510, b.rs:550
        let mut pending = PendingSet::new();
        pending.admit(foreign.clone(), 3);
        assert_eq!(pending.len(), 1);

        // Local positions intern with *different* absolute lines.
        let local_a = CallStack::single(Frame::new("outer.a", "a.rs", 12));
        let local_b = CallStack::single(Frame::new("outer.b", "b.rs", 52));
        let unrelated = CallStack::single(Frame::new("other.site", "c.rs", 1));

        assert!(pending.needs(local_a.site_key()));
        assert!(!pending.needs(unrelated.site_key()));
        assert!(pending.observe_position(&unrelated).is_empty());
        assert!(pending.observe_position(&local_a).is_empty());
        assert_eq!(pending.len(), 1, "one outer site is still unproven");

        let activated = pending.observe_position(&local_b);
        assert_eq!(activated.len(), 1);
        assert!(pending.is_empty());
        assert_eq!(pending.activated_total(), 1);
        let antibody = &activated[0];
        assert_eq!(antibody.detections, 3);
        // Re-anchored to the local stacks...
        let outers: Vec<String> = antibody
            .signature
            .outer_stacks()
            .map(CallStack::to_compact)
            .collect();
        assert!(outers.contains(&local_a.to_compact()), "outers: {outers:?}");
        assert!(outers.contains(&local_b.to_compact()), "outers: {outers:?}");
        // ...while keeping the bug's identity.
        assert_eq!(
            antibody.signature.stable_fingerprint(),
            foreign.stable_fingerprint()
        );
        // Re-observing resolved sites after activation is a no-op.
        assert!(pending.observe_position(&local_a).is_empty());
    }

    #[test]
    fn partial_evidence_activates_only_ready_antibodies() {
        let mut pending = PendingSet::new();
        pending.admit(sig("outer.a", 10, 0), 1); // needs a.rs:10, b.rs:50
        pending.admit(
            Signature::new(
                SignatureKind::Deadlock,
                vec![SignaturePair::new(
                    CallStack::single(Frame::new("outer.b", "b.rs", 50)),
                    CallStack::single(Frame::new("inner.b", "b.rs", 51)),
                )],
            ),
            1,
        ); // needs only b.rs:50
        let local_b = CallStack::single(Frame::new("outer.b", "b.rs", 777));
        let activated = pending.observe_position(&local_b);
        assert_eq!(activated.len(), 1, "only the single-site antibody is ready");
        assert_eq!(pending.len(), 1);
        let local_a = CallStack::single(Frame::new("outer.a", "a.rs", 888));
        assert_eq!(pending.observe_position(&local_a).len(), 1);
        assert!(pending.is_empty());
    }
}
