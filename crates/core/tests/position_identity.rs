//! `PositionTable::intern` finds a stack the table stores by its address
//! and any other stack by its contents. The address is a sound key because
//! the table holds an `Arc` to every stack it keys: no live stack can share
//! a keyed address, however often fresh stacks are allocated and freed
//! around it. Here a table probed with a random mix of its own stacks, a
//! shared interner's copies (what the runtime's site cache passes), fresh
//! copies and deeper stacks must give exactly the ids a table probed with
//! fresh copies only — a content-only table — gives.

use dimmunix_core::{CallStack, Frame, PositionTable, StackInterner};
use dimmunix_testkit::Gen;
use std::sync::Arc;

/// A stack of `depth` frames from a small universe, so equal stacks recur.
fn stack(g: &mut Gen, depth: usize) -> CallStack {
    (0..depth)
        .map(|_| {
            Frame::new(
                format!("m{}", g.range(0, 3)),
                "app.rs",
                g.range(0, 3) as u32,
            )
        })
        .collect()
}

#[test]
fn identity_keys_give_the_ids_content_gives() {
    for depth in 1..=2 {
        let mut g = Gen::new(depth as u64 + 40);
        let interner = Arc::new(StackInterner::new());
        let mut mixed = PositionTable::with_interner(depth, Arc::clone(&interner));
        let mut content_only = PositionTable::new(depth);
        let (mut by_identity, mut cases) = (0, 0);
        for case in 0..2000 {
            let s = stack(&mut g, 1 + case % 3);
            let expected = content_only.intern(&s.clone());
            let truncated = s.truncated(depth);
            let got = match g.range(0, 4) {
                // The table's own stack for this position, if it has one.
                0 => match mixed.lookup(&truncated) {
                    Some(id) => {
                        let stored = Arc::clone(mixed.get(id).unwrap().stack_shared());
                        by_identity += 1;
                        mixed.intern(&stored)
                    }
                    None => mixed.intern(&s),
                },
                // The shared interner's copy (one allocation per stack).
                1 => {
                    let shared = interner.intern(&truncated);
                    by_identity += usize::from(mixed.lookup(&truncated).is_some());
                    mixed.intern(&shared)
                }
                // A fresh allocation, freed right after: its address is
                // often reused by the next fresh stack.
                2 => mixed.intern(&truncated.clone()),
                // Deeper than the table: coarsened before any lookup.
                _ => mixed.intern(&s),
            };
            assert_eq!(got, expected, "case {case}: {s}");
            cases += 1;
        }
        assert_eq!(mixed.len(), content_only.len());
        for (a, b) in mixed.iter().zip(content_only.iter()) {
            assert_eq!((a.id(), a.stack()), (b.id(), b.stack()));
        }
        assert!(
            by_identity > 400,
            "identity lookups exercised: {by_identity}"
        );
        assert_eq!(
            mixed.content_probes() + by_identity as u64,
            cases,
            "every identity probe skipped hashing, every other probe hashed"
        );
    }
}

#[test]
fn an_equal_stack_in_another_allocation_gets_the_same_id() {
    let mut table = PositionTable::new(1);
    let site = CallStack::single(Frame::new("worker", "app.rs", 7));
    let id = table.intern(&site);
    let copies: Vec<CallStack> = (0..8).map(|_| site.clone()).collect();
    for copy in &copies {
        assert_eq!(table.intern(copy), id);
        assert_eq!(table.lookup(copy), Some(id));
    }
    assert_eq!(table.len(), 1);
    assert_eq!(table.content_probes(), 9);
}

#[test]
fn cloned_and_repointed_tables_answer_the_same_ids() {
    let mut g = Gen::new(7);
    let first = Arc::new(StackInterner::new());
    let mut table = PositionTable::with_interner(1, Arc::clone(&first));
    let stacks: Vec<Arc<CallStack>> = (0..64).map(|_| first.intern(&stack(&mut g, 1))).collect();
    let ids: Vec<_> = stacks.iter().map(|s| table.intern(s)).collect();
    let mut clone = table.clone();
    let second = Arc::new(StackInterner::new());
    table.set_interner(Arc::clone(&second));
    for (s, id) in stacks.iter().zip(&ids) {
        assert_eq!(clone.intern(s), *id, "the clone keys the same stacks");
        assert_eq!(table.intern(s), *id, "re-pointing keeps the stored keys");
        assert_eq!(
            table.intern(&second.intern(s)),
            *id,
            "new interner, same id"
        );
    }
    assert_eq!(table.len(), clone.len());
}
