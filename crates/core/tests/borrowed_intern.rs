//! `PositionTable::{intern, lookup}` probe with the caller's own stack when
//! it is no deeper than the table, and with a truncated copy otherwise. Both
//! must name the position the truncated stack names: a stack deeper than the
//! table still has to coarsen.

use dimmunix_core::{CallStack, Frame, PositionTable};
use dimmunix_testkit::Gen;

/// A stack of `depth` frames drawn from a small universe, so that distinct
/// stacks often share their top frames.
fn stack(g: &mut Gen, depth: usize) -> CallStack {
    (0..depth)
        .map(|_| {
            Frame::new(
                format!("m{}", g.range(0, 3)),
                "app.rs",
                g.range(0, 2) as u32,
            )
        })
        .collect()
}

#[test]
fn intern_and_lookup_agree_with_the_truncated_stack() {
    for table_depth in 1..=3 {
        let mut g = Gen::new(table_depth as u64);
        let mut table = PositionTable::new(table_depth);
        let mut deeper_seen = 0;
        for case in 0..400 {
            let s = stack(&mut g, 1 + case % 5);
            let coarse = s.truncated(table_depth);
            let known = table.lookup(&coarse);
            assert_eq!(table.lookup(&s), known, "lookup must coarsen {s}");
            let id = table.intern(&s);
            assert_eq!(id, table.intern(&coarse), "intern must coarsen {s}");
            assert_eq!(table.lookup(&s), Some(id));
            assert!(known.is_none() || known == Some(id));
            assert_eq!(table.get(id).unwrap().stack(), &coarse);
            deeper_seen += usize::from(s.depth() > table_depth);
        }
        assert!(deeper_seen > 0 && deeper_seen < 400);
        // 3 methods x 2 lines per frame, at every depth up to the table's:
        // the deeper stacks added no position of their own.
        let distinct: usize = (1..=table_depth as u32).map(|d| 6usize.pow(d)).sum();
        assert!(table.len() <= distinct);
    }
}
