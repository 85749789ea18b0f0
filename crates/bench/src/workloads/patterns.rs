//! Classic lock-pattern workloads on the simulated VM.
//!
//! These feed the ablation experiments and the examples: dining
//! philosophers (a canonical multi-way deadlock), the `MyLock` wrapper
//! pathology of §3.2 (why depth-1 outer stacks can over-serialize custom
//! synchronization wrappers), and a forced avoidance-starvation scenario.

use crate::dalvik::{MethodId, ObjRef, Program, ProgramBuilder};

/// Builds a dining-philosophers program: `n` philosopher threads, each
/// grabbing its left then right fork inside nested `synchronized` blocks,
/// `rounds` times. With n >= 2 some interleavings deadlock (an n-way cycle).
pub fn dining_philosophers(n: u32, rounds: u32) -> (Program, MethodId) {
    let n = n.max(2);
    let mut pb = ProgramBuilder::new("philosophers.java");
    let mut phil_methods = Vec::new();
    for p in 0..n {
        let left = ObjRef(100 + p);
        let right = ObjRef(100 + (p + 1) % n);
        // One round lives in its own method, called `rounds` times: like a
        // real Java loop body, every iteration then reuses the *same*
        // acquisition positions, so an antibody learned in any round shields
        // all the others. (Unrolling the rounds inline would give each one
        // distinct positions and make every round a distinct "bug".)
        let round = pb
            .method(format!("Philosopher{p}.round"))
            .compute(1)
            .sync(left, |body| {
                body.compute(2).sync(right, |inner| {
                    inner.compute(3);
                });
            })
            .compute(1)
            .finish();
        let mut m = pb.method(format!("Philosopher{p}.dine"));
        for _ in 0..rounds {
            m = m.call(round);
        }
        phil_methods.push(m.finish());
    }
    let mut main = pb.method("Table.main");
    for (p, m) in phil_methods.iter().enumerate() {
        main = main.spawn(*m, format!("philosopher-{p}"));
    }
    let main = main.finish();
    (pb.build(), main)
}

/// Builds the §3.2 "MyLock wrapper" workload: every thread synchronizes
/// through the *same* wrapper method (one program location), then performs
/// nested application-level synchronization that can deadlock. With depth-1
/// outer stacks, once any deadlock is recorded all wrapper acquisitions map
/// to one position and get serialized; with deeper stacks the callers stay
/// distinguishable.
pub fn wrapper_workload(worker_pairs: u32, rounds: u32) -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new("mylock.java");
    // The wrapper exposes explicit lock()/unlock() entry points: the
    // monitorenter lives in `MyLock.lock` and the matching monitorexit in
    // `MyLock.unlock`, i.e. the acquisition is *not* intra-procedural — the
    // exact pattern §3.2 warns about, because every acquisition in the whole
    // program then shares the single `MyLock.lock` location.
    let mut lock_methods = Vec::new();
    let mut unlock_methods = Vec::new();
    for obj in 0..(worker_pairs * 2) {
        let guarded = ObjRef(500 + obj);
        lock_methods.push(
            pb.method("MyLock.lock") // same name/location for every instance
                .enter(guarded)
                .finish(),
        );
        unlock_methods.push(pb.method("MyLock.unlock").exit(guarded).finish());
    }
    // Worker pairs acquire two wrapped locks in opposite order via the
    // wrapper (the deadlock the wrapper's author did not anticipate).
    let mut workers = Vec::new();
    for pair in 0..worker_pairs {
        let (xi, yi) = ((pair * 2) as usize, (pair * 2 + 1) as usize);
        let mut a = pb.method(format!("Client{pair}A.run"));
        for _ in 0..rounds {
            a = a
                .call(lock_methods[xi])
                .compute(2)
                .call(lock_methods[yi])
                .compute(1)
                .call(unlock_methods[yi])
                .call(unlock_methods[xi]);
        }
        workers.push(a.finish());
        let mut b = pb.method(format!("Client{pair}B.run"));
        for _ in 0..rounds {
            b = b
                .call(lock_methods[yi])
                .compute(2)
                .call(lock_methods[xi])
                .compute(1)
                .call(unlock_methods[xi])
                .call(unlock_methods[yi]);
        }
        workers.push(b.finish());
    }
    let mut main = pb.method("Main.main");
    for (i, w) in workers.iter().enumerate() {
        main = main.spawn(*w, format!("client-{i}"));
    }
    let main = main.finish();
    (pb.build(), main)
}

/// Builds a scenario that forces an avoidance-induced starvation once the
/// AB/BA signature is known: a third lock C couples the two threads so that
/// parking the second thread would block the first forever (§2.2).
pub(crate) fn starvation_workload() -> (Program, MethodId) {
    let a = ObjRef(1);
    let b = ObjRef(2);
    let c = ObjRef(3);
    let mut pb = ProgramBuilder::new("starvation.java");
    let t1 = pb
        .method("T1.run")
        .sync(a, |body| {
            body.compute(2).sync(c, |inner| {
                inner.compute(2);
            });
            body.sync(b, |inner| {
                inner.compute(1);
            });
        })
        .finish();
    let t2 = pb
        .method("T2.run")
        .sync(c, |body| {
            body.compute(4).sync(b, |inner| {
                inner.compute(1);
            });
        })
        .sync(b, |body| {
            body.compute(1).sync(a, |inner| {
                inner.compute(1);
            });
        })
        .finish();
    let main = pb
        .method("Main.main")
        .spawn(t1, "t1")
        .spawn(t2, "t2")
        .finish();
    (pb.build(), main)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dalvik::{ProcessBuilder, RunOutcome};
    use dimmunix_core::Config;

    #[test]
    fn philosophers_can_deadlock_and_then_become_immune() {
        // Find a deadlocking seed.
        let mut trained = None;
        for seed in 0..300u64 {
            let (program, main) = dining_philosophers(3, 2);
            let mut p = ProcessBuilder::new("philosophers", program)
                .seed(seed)
                .spawn_main(main);
            let _ = p.run(200_000);
            if p.stats().deadlocks_detected > 0 {
                trained = Some((seed, p.engine().history().clone()));
                break;
            }
        }
        let (seed, history) = trained.expect("philosophers must be able to deadlock");
        // Replay with the antibody.
        let (program, main) = dining_philosophers(3, 2);
        let mut p = ProcessBuilder::new("philosophers", program)
            .seed(seed)
            .history(history)
            .spawn_main(main);
        let outcome = p.run(2_000_000);
        assert_eq!(outcome, RunOutcome::Completed, "stats: {:?}", p.stats());
        assert_eq!(p.stats().deadlocks_detected, 0);
    }

    #[test]
    fn wrapper_workload_is_deadlock_prone_and_depth1_serializes() {
        // Find a deadlocking seed with depth-1 positions.
        let mut found = None;
        for seed in 0..300u64 {
            let (program, main) = wrapper_workload(2, 2);
            let mut p = ProcessBuilder::new("wrapper", program)
                .seed(seed)
                .config(Config::builder().stack_depth(1).build())
                .spawn_main(main);
            let _ = p.run(300_000);
            if p.stats().deadlocks_detected > 0 {
                found = Some((seed, p.engine().history().clone()));
                break;
            }
        }
        let (seed, history) = found.expect("wrapper clients must be able to deadlock");
        // With depth 1, every wrapper call shares one position, so replays
        // yield much more often than with depth 2 (the §3.2 warning).
        let run = |depth: usize| {
            let (program, main) = wrapper_workload(2, 2);
            let mut p = ProcessBuilder::new("wrapper", program)
                .seed(seed)
                .config(Config::builder().stack_depth(depth).build())
                .history(history.clone())
                .spawn_main(main);
            let _ = p.run(2_000_000);
            p.stats()
        };
        let shallow = run(1);
        let deep = run(2);
        assert!(
            shallow.yields >= deep.yields,
            "depth-1 must serialize at least as much as depth-2 (shallow {} vs deep {})",
            shallow.yields,
            deep.yields
        );
    }

    #[test]
    fn starvation_workload_completes_with_starvation_handling() {
        // Train the AB/BA part first by finding a deadlocking seed.
        let mut trained = None;
        for seed in 0..400u64 {
            let (program, main) = starvation_workload();
            let mut p = ProcessBuilder::new("starvation", program)
                .seed(seed)
                .spawn_main(main);
            let _ = p.run(300_000);
            if p.stats().deadlocks_detected > 0 {
                trained = Some(p.engine().history().clone());
                break;
            }
        }
        let Some(history) = trained else {
            // The coupling lock may prevent the deadlock entirely under the
            // bounded seed search; nothing to assert in that case.
            return;
        };
        // With the antibody loaded, every seed must terminate (possibly via
        // the starvation-resolution path) — never hang.
        for seed in 0..30u64 {
            let (program, main) = starvation_workload();
            let mut p = ProcessBuilder::new("starvation", program)
                .seed(seed)
                .history(history.clone())
                .spawn_main(main);
            let outcome = p.run(2_000_000);
            assert_eq!(
                outcome,
                RunOutcome::Completed,
                "seed {seed}: {:?}",
                p.stats()
            );
        }
    }
}
