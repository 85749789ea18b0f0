//! Property-based tests for the core data structures and the engine.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these properties run on a self-contained deterministic harness: the
//! shared SplitMix64 generator from `dimmunix-testkit` drives several
//! hundred random cases per property and every failure message carries the
//! case seed, so a reported failure is reproducible by construction. The
//! oracle schedules themselves (release/acquire/skip slots, pre-trained
//! histories, the site universe) also come from the testkit, which freezes
//! their draw order so the pinned seeds keep meaning what they always did.

use dimmunix_core::{
    find_instantiation, json, AccessMode, CallStack, Config, Dimmunix, Frame, History,
    Instantiation, LockId, OwnerId, OwnerQueue, PersistentMap, PersistentVec, PositionId,
    PositionTable, RequestOutcome, ShardedDimmunix, Signature, SignatureId, SignatureIndex,
    SignatureKind, SignaturePair, Stats, ThreadId,
};
use dimmunix_testkit::schedule::{
    plan_mixed_step, plan_mutex_step, pretrain_history, universe_site, PlannedStep,
};
use dimmunix_testkit::Gen;

/// Number of random cases per property.
const CASES: u64 = 250;

/// A sharded engine's counters as the monolithic oracle keeps them: every
/// request was decided on tier 2 or on tier 3, and that split, which the
/// oracle has no tiers for, is set aside.
fn untiered(stats: Stats, seed: u64) -> Stats {
    assert_eq!(
        stats.local_decisions + stats.cross_decisions,
        stats.requests,
        "seed {seed}: a request decided on neither tier"
    );
    Stats {
        local_decisions: 0,
        cross_decisions: 0,
        ..stats
    }
}

fn frame(g: &mut Gen) -> Frame {
    // Names include characters the codecs must escape or split around.
    let methods = ["lock", "Service.enqueue", "weird@m:ethod", "wait_päth", "m"];
    let files = ["a.rs", "svc.java", "deep/dir/f.rs"];
    Frame::new(
        methods[g.range(0, methods.len())],
        files[g.range(0, files.len())],
        g.range(0, 5000) as u32,
    )
}

fn stack(g: &mut Gen, max_depth: usize) -> CallStack {
    let depth = g.range(1, max_depth + 1);
    CallStack::from_frames((0..depth).map(|_| frame(g)).collect())
}

fn signature(g: &mut Gen) -> Signature {
    let kind = if g.flip() {
        SignatureKind::Starvation
    } else {
        SignatureKind::Deadlock
    };
    let arity = g.range(1, 4);
    Signature::new(
        kind,
        (0..arity)
            .map(|_| SignaturePair::new(stack(g, 3), stack(g, 3)))
            .collect(),
    )
}

#[test]
fn prop_callstack_compact_roundtrip() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let cs = stack(&mut g, 5);
        let parsed = CallStack::parse_compact(&cs.to_compact())
            .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}"));
        assert_eq!(parsed, cs, "seed {seed}");
    }
}

#[test]
fn prop_history_text_roundtrip() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let mut h = History::new();
        for _ in 0..g.range(0, 8) {
            h.add(signature(&mut g));
        }
        let reparsed = History::from_text(&h.to_text())
            .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}"));
        assert_eq!(reparsed.len(), h.len(), "seed {seed}");
        for (id, s) in h.iter() {
            assert!(reparsed.get(id).unwrap().same_bug(s), "seed {seed}");
        }
    }
}

#[test]
fn prop_position_interning_is_consistent() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let depth = g.range(1, 4);
        let stacks: Vec<CallStack> = (0..g.range(1, 40)).map(|_| stack(&mut g, 4)).collect();
        let mut table = PositionTable::new(depth);
        let ids: Vec<_> = stacks.iter().map(|s| table.intern(s)).collect();
        let distinct: std::collections::HashSet<_> =
            stacks.iter().map(|s| s.truncated(depth)).collect();
        assert_eq!(table.len(), distinct.len(), "seed {seed}");
        for (s, id) in stacks.iter().zip(&ids) {
            assert_eq!(table.lookup(s), Some(*id), "seed {seed}");
            assert_eq!(
                table.get(*id).unwrap().stack(),
                &s.truncated(depth),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn prop_thread_queue_multiset_semantics() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let mut q = OwnerQueue::new();
        let mut model: Vec<u64> = Vec::new();
        let mut high_water = 0usize;
        for _ in 0..g.range(1, 200) {
            let tid = g.range(0, 6) as u64;
            let t = ThreadId::new(tid);
            if g.flip() {
                q.push(t);
                model.push(tid);
            } else {
                let removed = q.remove_one(t);
                let model_had = model
                    .iter()
                    .position(|x| *x == tid)
                    .map(|i| {
                        model.remove(i);
                    })
                    .is_some();
                assert_eq!(removed, model_had, "seed {seed}");
            }
            high_water = high_water.max(model.len());
            assert_eq!(q.len(), model.len(), "seed {seed}");
            for id in 0u64..6 {
                assert_eq!(
                    q.count(ThreadId::new(id)),
                    model.iter().filter(|x| **x == id).count(),
                    "seed {seed}"
                );
            }
        }
        assert!(q.capacity() <= high_water, "seed {seed}");
    }
}

/// **Live avoidance check ≡ linear scan.** Random histories (arity ≤ 6,
/// duplicate outer positions) over a small site universe, random interning
/// depth, random holds and releases on fresh locks (so detection is
/// vacuous) with starvation handling off: every request's answer from
/// [`Dimmunix`] and from [`ShardedDimmunix`] at 1 and 3 shards — the `Yield`
/// signature and the yield record's blockers — must be exactly what the
/// linear-scan reference oracle finds in a model of the position queues.
/// Random lock ids spread a site's occupants over the three shards (many
/// slots are occupied on one shard only), and owners that hold at a site
/// before requesting at another leave slots occupied by the requester alone.
/// The reference and the live check share one matching routine, so the
/// reference's verdict is itself checked against an exhaustive search that
/// shares nothing with it.
#[test]
fn prop_indexed_find_instantiation_equals_linear_scan() {
    /// Whether distinct owners can cover every slot but `pre`, each from its
    /// own candidates (raw thread ids < 32): every reachable set of used
    /// owners, slot by slot.
    fn coverable(slots: &[Vec<u64>], pre: usize) -> bool {
        let mut used = vec![0u32];
        for (_, cands) in slots.iter().enumerate().filter(|(k, _)| *k != pre) {
            let mut next = Vec::new();
            for m in &used {
                next.extend(
                    cands
                        .iter()
                        .filter(|c| m >> **c & 1 == 0)
                        .map(|c| m | 1 << *c),
                );
            }
            next.sort_unstable();
            next.dedup();
            used = next;
        }
        !used.is_empty()
    }

    /// The engines under test behind one interface.
    enum Engine {
        Mono(Box<Dimmunix>),
        Sharded(ShardedDimmunix),
    }
    impl Engine {
        /// One request; on a yield, the matched signature and its blockers.
        fn request(&mut self, t: ThreadId, l: LockId, site: &CallStack) -> Option<Instantiation> {
            let (outcome, rag) = match self {
                Engine::Mono(e) => (e.request(t, l, site), e.rag()),
                Engine::Sharded(e) => (e.request(t, l, site), e.shard(e.shard_of(l)).rag()),
            };
            match outcome {
                RequestOutcome::Granted => None,
                RequestOutcome::Yield { signature } => Some(Instantiation {
                    signature,
                    blockers: rag.yielding(t.into()).expect("parked").blockers.clone(),
                }),
                other => panic!("fresh locks cannot be owned or close a cycle: {other:?}"),
            }
        }
        fn settle(&mut self, t: ThreadId, l: LockId, granted: bool) {
            match (self, granted) {
                (Engine::Mono(e), true) => e.acquired(t, l),
                (Engine::Mono(e), false) => e.cancel_request(t, l),
                (Engine::Sharded(e), true) => e.acquired(t, l),
                (Engine::Sharded(e), false) => e.cancel_request(t, l),
            }
        }
        fn released(&mut self, t: ThreadId, l: LockId) {
            match self {
                Engine::Mono(e) => drop(e.released(t, l)),
                Engine::Sharded(e) => drop(e.released(t, l)),
            }
        }
    }

    let (mut yields, mut screened, mut self_covered, mut one_shard) = (0u32, 0u32, 0u32, 0u32);
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let depth = g.range(1, 3);

        // A compact universe of sites so outer positions collide often and
        // queue coverage actually triggers matches.
        let universe: Vec<CallStack> = (0..8)
            .map(|i| CallStack::single(Frame::new(format!("site{i}"), "univ.rs", i as u32)))
            .collect();
        let mut history = History::new();
        for _ in 0..g.range(0, 6) {
            let arity = g.range(1, 7);
            // A narrow window of the universe repeats outer positions.
            let (base, width) = (g.range(0, universe.len()), g.range(1, universe.len()));
            let pairs = (0..arity)
                .map(|_| {
                    SignaturePair::new(
                        universe[(base + g.range(0, width)) % universe.len()].clone(),
                        universe[g.range(0, universe.len())].clone(),
                    )
                })
                .collect();
            history.add(Signature::new(SignatureKind::Deadlock, pairs));
        }

        let cfg = Config::builder()
            .stack_depth(depth)
            .starvation_handling(false)
            .build();
        let mut engines = [
            Engine::Mono(Box::new(Dimmunix::with_history(
                cfg.clone(),
                history.clone(),
            ))),
            Engine::Sharded(ShardedDimmunix::with_history(
                cfg.clone(),
                1,
                history.clone(),
            )),
            Engine::Sharded(ShardedDimmunix::with_history(
                cfg.clone(),
                3,
                history.clone(),
            )),
        ];
        // The oracle's view: one monolithic table of position queues.
        let mut model = PositionTable::new(depth);
        let mut held: Vec<(ThreadId, LockId, PositionId)> = Vec::new();

        for step in 0..g.range(20, 60) {
            if !held.is_empty() && g.range(0, 4) == 0 {
                let (t, l, pid) = held.swap_remove(g.range(0, held.len()));
                engines.iter_mut().for_each(|e| e.released(t, l));
                assert!(model.get_mut(pid).unwrap().queue_mut().remove_one(t));
                continue;
            }
            let t = ThreadId::new(g.range(1, 8) as u64);
            // Fresh, scattered lock ids: no owner, no cycle, random home shard.
            let l = LockId::new(step as u64 * 1000 + g.range(0, 1000) as u64);
            let site = &universe[g.range(0, universe.len())];
            let pid = model.intern(site);
            let linear = find_instantiation(&history, &model, t, pid);
            for (e, engine) in engines.iter_mut().enumerate() {
                let live = engine.request(t, l, site);
                assert_eq!(
                    live, linear,
                    "seed {seed} step {step} engine {e}: {t:?} at {pid}"
                );
            }
            // The reference against the exhaustive search: the oldest
            // signature whose slots are coverable with `t` pre-assigned to an
            // occurrence of `pid`, and blockers that do cover it.
            let slots_of = |sig: &Signature, keep: &dyn Fn(u64) -> bool| {
                let slot = |o| {
                    let queue = model.get(model.lookup(o)?)?.queue();
                    let others = queue.iter().map(|c| c.index()).filter(|c| *c != t.index());
                    Some((
                        model.lookup(o)?,
                        others.filter(|c| keep(*c)).collect::<Vec<_>>(),
                    ))
                };
                sig.outer_stacks().map(slot).collect::<Option<Vec<_>>>()
            };
            let instantiable = |slots: &[(PositionId, Vec<u64>)]| {
                let cands: Vec<_> = slots.iter().map(|(_, c)| c.clone()).collect();
                (0..slots.len()).any(|pre| slots[pre].0 == pid && coverable(&cands, pre))
            };
            let exhaustive = history
                .iter()
                .find(|(_, sig)| slots_of(sig, &|_| true).is_some_and(|s| instantiable(&s)))
                .map(|(id, _)| id);
            assert_eq!(
                linear.as_ref().map(|i| i.signature),
                exhaustive,
                "seed {seed} step {step}"
            );
            if let Some(inst) = &linear {
                let sig = history.get(inst.signature).unwrap();
                let by = |c| inst.blockers.contains(&ThreadId::new(c).into());
                assert_eq!(
                    inst.blockers.len(),
                    sig.arity() - 1,
                    "seed {seed} step {step}"
                );
                assert!(
                    instantiable(&slots_of(sig, &by).unwrap()),
                    "seed {seed} step {step}"
                );
            }

            // A probe (undone) or, if granted, sometimes a lasting hold.
            let hold = linear.is_none() && g.range(0, 3) > 0;
            engines.iter_mut().for_each(|e| e.settle(t, l, hold));
            if hold {
                model.get_mut(pid).unwrap().queue_mut().push(t);
                held.push((t, l, pid));
            }

            // What this request exercised, from the model.
            yields += u32::from(linear.is_some());
            let queue_at = |o| model.lookup(o).map(|p| model.get(p).unwrap().queue());
            let Engine::Sharded(three) = &engines[2] else {
                unreachable!()
            };
            let shards_occupied = |o: &CallStack| {
                let occupied = |s: &Dimmunix| {
                    let local = s.positions().lookup(o).and_then(|p| s.positions().get(p));
                    local.is_some_and(|p| !p.queue().is_empty())
                };
                (0..3).filter(|i| occupied(three.shard(*i))).count()
            };
            for (_, sig) in history.iter() {
                let mentions = sig.outer_stacks().any(|o| model.lookup(o) == Some(pid));
                let others = || sig.outer_stacks().filter(|o| model.lookup(o) != Some(pid));
                screened += u32::from(
                    mentions && others().any(|o| queue_at(o).map_or(true, |q| q.is_empty())),
                );
                self_covered += u32::from(
                    mentions
                        && others().any(|o| {
                            queue_at(o).is_some_and(|q| !q.is_empty() && q.len() == q.count(t))
                        }),
                );
                one_shard += u32::from(mentions && others().any(|o| shards_occupied(o) == 1));
            }
        }

        // The index must also be structurally consistent: a signature is
        // listed exactly at its resolved outer positions.
        let Engine::Mono(engine) = &engines[0] else {
            unreachable!()
        };
        let index = engine.signature_index();
        for (id, sig) in history.iter() {
            let outs = index.outer_positions_of(id);
            assert_eq!(outs.len(), sig.arity(), "seed {seed}");
            for pid in outs {
                assert!(index.signatures_at(*pid).contains(&id), "seed {seed}");
            }
        }
    }
    // The generator reaches what it is there to reach.
    assert!(yields > 300, "matches: {yields}");
    assert!(screened > 1500, "signatures with a cold slot: {screened}");
    assert!(
        self_covered > 150,
        "slots held by the requester alone: {self_covered}"
    );
    assert!(
        one_shard > 1500,
        "slots occupied on one shard only: {one_shard}"
    );
}

#[test]
fn prop_engine_consistent_on_ordered_workloads() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let depth = g.range(1, 3);
        let cfg = Config::builder().stack_depth(depth).build();
        let mut engine = Dimmunix::new(cfg);
        let plan: Vec<Vec<u64>> = (0..g.range(1, 6))
            .map(|_| (0..g.range(1, 5)).map(|_| g.range(0, 8) as u64).collect())
            .collect();
        for (tidx, locks) in plan.iter().enumerate() {
            let t = ThreadId::new(tidx as u64);
            // Deduplicate and sort: a global acquisition order prevents deadlock.
            let mut locks = locks.clone();
            locks.sort_unstable();
            locks.dedup();
            for (k, lraw) in locks.iter().enumerate() {
                let l = LockId::new(*lraw);
                let site = CallStack::single(Frame::new(
                    format!("worker{tidx}.step{k}"),
                    "workload.rs",
                    *lraw as u32,
                ));
                let outcome = engine.request(t, l, &site);
                assert!(outcome.is_granted(), "seed {seed}: {outcome:?}");
                engine.acquired(t, l);
            }
            for lraw in locks.iter().rev() {
                engine.released(t, LockId::new(*lraw));
            }
        }
        assert_eq!(engine.stats().deadlocks_detected, 0, "seed {seed}");
        assert_eq!(engine.stats().yields, 0, "seed {seed}");
        // An empty history means the index examined no signature at all.
        assert_eq!(engine.stats().signatures_examined, 0, "seed {seed}");
        for lraw in 0u64..8 {
            assert_eq!(engine.rag().owner(LockId::new(lraw)), None, "seed {seed}");
        }
        for p in engine.positions().iter() {
            assert!(p.queue().is_empty(), "seed {seed}");
        }
        assert_eq!(
            engine.stats().acquisitions,
            engine.stats().releases,
            "seed {seed}"
        );
    }
}

/// The admission summary the locked ladder's tier-2 gate trusts, checked
/// against the RAGs it summarises on every sharded engine: `parked_total`
/// counts exactly the live yield records across the shards, and every owner
/// some shard's RAG lists as a yield blocker reads `is_blocker` — the
/// direction tiers 1–2 rely on (the converse may fail on a stripe
/// collision, which only costs a slower tier).
fn assert_summaries_cover_rags(sharded: &[ShardedDimmunix], owners: u64, seed: u64, step: usize) {
    let ctx = format!("seed {seed} step {step}");
    for s in sharded {
        let n = s.shard_count();
        let summary = s
            .shard(0)
            .admission_summary()
            .expect("a summary is attached");
        let records: usize = (0..n).map(|i| s.shard(i).rag().yield_count()).sum();
        assert_eq!(summary.parked_total(), records as u64, "{ctx} (shards {n})");
        for t in (0..owners).map(OwnerId::thread) {
            if (0..n).any(|i| s.shard(i).rag().lists_yield_blocker(t)) {
                assert!(summary.is_blocker(t), "{ctx} (shards {n}): {t} unflagged");
            }
        }
    }
}

/// **Sharded engine ≡ monolithic engine.** Drives the same randomly
/// scheduled lock workload — random nesting, contention, deadlock cycles,
/// yield/park/retry, pre-trained histories — through a monolithic
/// [`Dimmunix`] (the oracle) and through [`ShardedDimmunix`] instances with
/// several shard counts (including the `shards = 1` reference
/// configuration). Every hook call must produce the identical outcome, the
/// rolled-up per-shard counters must equal the oracle's, and the history
/// replicas must record the same antibodies. This pins the scoped
/// (blocker-based) degradation predicate of the sharded fast path: it may
/// never diverge from the monolithic oracle by a single decision.
#[test]
fn prop_sharded_engine_equals_monolithic_oracle() {
    /// What the simulated substrate is doing with one logical thread.
    #[derive(Clone, Copy, PartialEq)]
    enum ThreadMode {
        Running,
        /// Granted by the engine but the lock's owner has not released yet
        /// (a real substrate would be blocked on the lock itself).
        WaitingAcquire(u64),
        /// Parked by avoidance; retries on the next schedule slot.
        Parked(u64),
    }

    const THREADS: u64 = 4;
    const LOCKS: u64 = 10;
    // Salt so this property explores different schedules than its siblings.
    const SEED_SALT: u64 = 0x5eed_5a17;

    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        // Optionally pre-train a history over the site universe so the
        // avoidance and starvation machinery is exercised.
        let history = pretrain_history(&mut g, 6);

        let cfg = Config::default();
        let mut oracle = Dimmunix::with_history(cfg.clone(), history.clone());
        let shard_counts = [1usize, 2, 3, 8];
        let mut sharded: Vec<ShardedDimmunix> = shard_counts
            .iter()
            .map(|&n| ShardedDimmunix::with_history(cfg.clone(), n, history.clone()))
            .collect();

        let mut mode = [ThreadMode::Running; THREADS as usize];
        // Locks each thread currently holds (tracked substrate-side), most
        // recent last.
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); THREADS as usize];

        for step in 0..g.range(40, 120) {
            let tid = g.range(0, THREADS as usize);
            let t = ThreadId::new(tid as u64);
            match mode[tid] {
                ThreadMode::WaitingAcquire(lraw) => {
                    // Complete the acquisition once the lock is free.
                    let l = LockId::new(lraw);
                    if oracle.rag().owner(l).is_none() {
                        oracle.acquired(t, l);
                        for s in &mut sharded {
                            s.acquired(t, l);
                        }
                        assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                        held[tid].push(lraw);
                        mode[tid] = ThreadMode::Running;
                    }
                }
                ThreadMode::Parked(_) | ThreadMode::Running => {
                    let retry = match mode[tid] {
                        ThreadMode::Parked(lr) => Some(lr),
                        _ => None,
                    };
                    let (lraw, site) =
                        match plan_mutex_step(&mut g, LOCKS as usize, 6, &held[tid], retry) {
                            PlannedStep::Release => {
                                let lraw = held[tid].pop().unwrap();
                                let l = LockId::new(lraw);
                                let oracle_wake = oracle.released(t, l);
                                for (s, &n) in sharded.iter_mut().zip(&shard_counts) {
                                    let wake = s.released(t, l);
                                    assert_eq!(
                                        wake, oracle_wake,
                                        "seed {seed} step {step}: release wake-ups diverge \
                                         (shards {n})"
                                    );
                                }
                                assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                                continue;
                            }
                            // No reentrant acquisitions except through random
                            // collision — the generator skips them.
                            PlannedStep::Skip => continue,
                            PlannedStep::Acquire { lock, site, .. } => (lock, site),
                        };
                    let l = LockId::new(lraw);
                    let site = universe_site(site);
                    let outcome = oracle.request(t, l, &site);
                    for (s, &n) in sharded.iter_mut().zip(&shard_counts) {
                        let sharded_outcome = s.request(t, l, &site);
                        assert_eq!(
                            sharded_outcome, outcome,
                            "seed {seed} step {step}: outcome diverges (shards {n}, t{tid}, l{lraw})"
                        );
                    }
                    assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                    match outcome {
                        RequestOutcome::Granted => {
                            if oracle.rag().owner(l).is_none() {
                                oracle.acquired(t, l);
                                for s in &mut sharded {
                                    s.acquired(t, l);
                                }
                                assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                                held[tid].push(lraw);
                                mode[tid] = ThreadMode::Running;
                            } else {
                                mode[tid] = ThreadMode::WaitingAcquire(lraw);
                            }
                        }
                        RequestOutcome::GrantedReentrant => {
                            oracle.acquired(t, l);
                            for s in &mut sharded {
                                s.acquired(t, l);
                            }
                            assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                            held[tid].push(lraw);
                            mode[tid] = ThreadMode::Running;
                        }
                        RequestOutcome::Yield { .. } => {
                            mode[tid] = ThreadMode::Parked(lraw);
                        }
                        RequestOutcome::DeadlockDetected { .. } => {
                            // Substrate refuses the acquisition (error
                            // policy) and backs out.
                            oracle.cancel_request(t, l);
                            for s in &mut sharded {
                                s.cancel_request(t, l);
                            }
                            assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                            mode[tid] = ThreadMode::Running;
                        }
                    }
                    let mut oracle_pending = oracle.take_pending_wakeups();
                    oracle_pending.sort_unstable_by_key(|s| s.index());
                    for (s, &n) in sharded.iter_mut().zip(&shard_counts) {
                        let mut pending = s.take_pending_wakeups();
                        pending.sort_unstable_by_key(|s| s.index());
                        assert_eq!(
                            pending, oracle_pending,
                            "seed {seed} step {step}: pending wake-ups diverge (shards {n})"
                        );
                    }
                }
            }
        }

        // Rolled-up counters must equal the oracle's.
        for (s, &n) in sharded.iter().zip(&shard_counts) {
            assert_eq!(
                untiered(s.stats(), seed),
                *oracle.stats(),
                "seed {seed}: rolled-up stats diverge (shards {n})"
            );
            // Identical histories, signature for signature.
            assert_eq!(s.history().len(), oracle.history().len(), "seed {seed}");
            for (id, sig) in oracle.history().iter() {
                assert!(
                    s.history().get(id).unwrap().same_bug(sig),
                    "seed {seed}: history diverges at {id} (shards {n})"
                );
            }
            // The history is shared, not replicated: every shard must hold
            // the *same* snapshot allocation, and the snapshot must have
            // advanced exactly as often as the oracle's.
            for i in 0..s.shard_count() {
                assert!(
                    std::sync::Arc::ptr_eq(s.history_snapshot(), s.shard(i).history_snapshot()),
                    "seed {seed}: shard {i} holds a private snapshot (shards {n})"
                );
            }
            assert_eq!(
                s.history_snapshot().epoch(),
                oracle.history_snapshot().epoch(),
                "seed {seed}: snapshot epochs diverge (shards {n})"
            );
        }
    }
}

/// **Sharded engine ≡ monolithic engine, with read/write schedules.** The
/// rwlock extension of `prop_sharded_engine_equals_monolithic_oracle`:
/// random schedules now mix exclusive (mutex-style) and shared
/// (rwlock-read-style) acquisitions, including reader crowds, reentrant
/// re-acquisitions, writers blocked behind crowds, deadlock cycles through
/// non-first readers, parking/retry, and pre-trained histories. Every hook
/// call must produce the identical outcome on the monolithic oracle and on
/// sharded engines with shards ∈ {1, 2, 3, 8}, with identical rolled-up
/// stats, histories, and shared-snapshot epochs — so the multi-owner
/// detection/avoidance paths cannot drift between the two implementations.
#[test]
fn prop_sharded_engine_equals_monolithic_oracle_mixed_rwlock() {
    /// What the simulated substrate is doing with one logical thread.
    #[derive(Clone, Copy, PartialEq)]
    enum ThreadMode {
        Running,
        /// Granted by the engine but the real lock is not yet available
        /// (incompatible owners still hold it).
        WaitingAcquire(u64, AccessMode),
        /// Parked by avoidance; retries on the next schedule slot.
        Parked(u64, AccessMode),
    }

    const THREADS: u64 = 4;
    const LOCKS: u64 = 8;
    /// ≥ 150 seeds (satellite requirement); salted so this property
    /// explores different schedules than its mutex-only sibling.
    const MIXED_CASES: u64 = 160;
    const SEED_SALT: u64 = 0x0a11_0c8e_5eed;

    for seed in 0..MIXED_CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        // Optionally pre-train a history over the site universe so the
        // avoidance machinery (including the crowd-mate carve-out) runs.
        let history = pretrain_history(&mut g, 6);

        let cfg = Config::default();
        let mut oracle = Dimmunix::with_history(cfg.clone(), history.clone());
        let shard_counts = [1usize, 2, 3, 8];
        let mut sharded: Vec<ShardedDimmunix> = shard_counts
            .iter()
            .map(|&n| ShardedDimmunix::with_history(cfg.clone(), n, history.clone()))
            .collect();

        let mut mode = [ThreadMode::Running; THREADS as usize];
        // Locks each thread currently holds with their modes (tracked
        // substrate-side), most recent last; reentrant acquisitions appear
        // once per level.
        let mut held: Vec<Vec<(u64, AccessMode)>> = vec![Vec::new(); THREADS as usize];

        // Real-lock availability derived from the substrate-side model:
        // `mode` is compatible iff no *other* thread holds `lraw` in a
        // conflicting mode.
        let compatible = |held: &[Vec<(u64, AccessMode)>], tid: usize, lraw: u64, m: AccessMode| {
            held.iter().enumerate().all(|(u, hs)| {
                u == tid
                    || hs
                        .iter()
                        .all(|(l2, m2)| *l2 != lraw || !m.conflicts_with(*m2))
            })
        };

        for step in 0..g.range(40, 120) {
            let tid = g.range(0, THREADS as usize);
            let t = ThreadId::new(tid as u64);
            match mode[tid] {
                ThreadMode::WaitingAcquire(lraw, m) => {
                    // Complete the acquisition once the lock is compatible.
                    if compatible(&held, tid, lraw, m) {
                        let l = LockId::new(lraw);
                        oracle.acquired(t, l);
                        for s in &mut sharded {
                            s.acquired(t, l);
                        }
                        assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                        held[tid].push((lraw, m));
                        mode[tid] = ThreadMode::Running;
                    }
                }
                ThreadMode::Parked(_, _) | ThreadMode::Running => {
                    let retry = match mode[tid] {
                        ThreadMode::Parked(lr, pm) => Some((lr, pm)),
                        _ => None,
                    };
                    let planned =
                        plan_mixed_step(&mut g, LOCKS as usize, 6, !held[tid].is_empty(), retry);
                    let (lraw, m, site) = match planned {
                        PlannedStep::Release => {
                            let (lraw, _) = held[tid].pop().unwrap();
                            let l = LockId::new(lraw);
                            let oracle_wake = oracle.released(t, l);
                            for (s, &n) in sharded.iter_mut().zip(&shard_counts) {
                                let wake = s.released(t, l);
                                assert_eq!(
                                    wake, oracle_wake,
                                    "seed {seed} step {step}: release wake-ups diverge (shards {n})"
                                );
                            }
                            assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                            continue;
                        }
                        PlannedStep::Skip => unreachable!("mixed schedules never skip"),
                        PlannedStep::Acquire { lock, mode, site } => (lock, mode, site),
                    };
                    let l = LockId::new(lraw);
                    let site = universe_site(site);
                    let outcome = oracle.request_mode(t, l, &site, m);
                    for (s, &n) in sharded.iter_mut().zip(&shard_counts) {
                        let sharded_outcome = s.request_mode(t, l, &site, m);
                        assert_eq!(
                            sharded_outcome, outcome,
                            "seed {seed} step {step}: outcome diverges \
                             (shards {n}, t{tid}, l{lraw}, {m:?})"
                        );
                    }
                    assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                    match outcome {
                        RequestOutcome::Granted => {
                            if compatible(&held, tid, lraw, m) {
                                oracle.acquired(t, l);
                                for s in &mut sharded {
                                    s.acquired(t, l);
                                }
                                assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                                held[tid].push((lraw, m));
                                mode[tid] = ThreadMode::Running;
                            } else {
                                mode[tid] = ThreadMode::WaitingAcquire(lraw, m);
                            }
                        }
                        RequestOutcome::GrantedReentrant => {
                            // The engine bumps the existing owner entry's
                            // recursion; mirror its mode, not the requested
                            // one, so the availability model matches.
                            let existing = held[tid]
                                .iter()
                                .find(|(l2, _)| *l2 == lraw)
                                .map(|(_, m2)| *m2)
                                .expect("reentrant grant without a hold");
                            oracle.acquired(t, l);
                            for s in &mut sharded {
                                s.acquired(t, l);
                            }
                            assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                            held[tid].push((lraw, existing));
                            mode[tid] = ThreadMode::Running;
                        }
                        RequestOutcome::Yield { .. } => {
                            mode[tid] = ThreadMode::Parked(lraw, m);
                        }
                        RequestOutcome::DeadlockDetected { .. } => {
                            oracle.cancel_request(t, l);
                            for s in &mut sharded {
                                s.cancel_request(t, l);
                            }
                            assert_summaries_cover_rags(&sharded, THREADS, seed, step);
                            mode[tid] = ThreadMode::Running;
                        }
                    }
                    let mut oracle_pending = oracle.take_pending_wakeups();
                    oracle_pending.sort_unstable_by_key(|s| s.index());
                    for (s, &n) in sharded.iter_mut().zip(&shard_counts) {
                        let mut pending = s.take_pending_wakeups();
                        pending.sort_unstable_by_key(|s| s.index());
                        assert_eq!(
                            pending, oracle_pending,
                            "seed {seed} step {step}: pending wake-ups diverge (shards {n})"
                        );
                    }
                }
            }
        }

        for (s, &n) in sharded.iter().zip(&shard_counts) {
            assert_eq!(
                untiered(s.stats(), seed),
                *oracle.stats(),
                "seed {seed}: rolled-up stats diverge (shards {n})"
            );
            assert_eq!(s.history().len(), oracle.history().len(), "seed {seed}");
            for (id, sig) in oracle.history().iter() {
                assert!(
                    s.history().get(id).unwrap().same_bug(sig),
                    "seed {seed}: history diverges at {id} (shards {n})"
                );
            }
            for i in 0..s.shard_count() {
                assert!(
                    std::sync::Arc::ptr_eq(s.history_snapshot(), s.shard(i).history_snapshot()),
                    "seed {seed}: shard {i} holds a private snapshot (shards {n})"
                );
            }
            assert_eq!(
                s.history_snapshot().epoch(),
                oracle.history_snapshot().epoch(),
                "seed {seed}: snapshot epochs diverge (shards {n})"
            );
        }
    }
}

/// One random push or set on `pv` and on its oracle `model`, followed by the
/// length check, random point reads and an out-of-range probe.
fn vec_step(g: &mut Gen, pv: &mut PersistentVec<u64>, model: &mut Vec<u64>, seed: u64) {
    if model.is_empty() || g.range(0, 10) < 7 {
        let v = g.next_u64();
        pv.push(v);
        model.push(v);
    } else {
        let i = g.range(0, model.len());
        let v = g.next_u64();
        pv.set(i, v);
        model[i] = v;
    }
    assert_eq!(pv.len(), model.len(), "seed {seed}");
    assert_eq!(pv.is_empty(), model.is_empty(), "seed {seed}");
    for _ in 0..3 {
        let i = g.range(0, model.len());
        assert_eq!(pv.get(i), Some(&model[i]), "seed {seed}: get({i})");
    }
    assert_eq!(pv.get(model.len()), None, "seed {seed}: past-end get");
}

/// **Persistent vector ≡ `Vec` oracle.** Random push/set sequences checked
/// element-for-element against a plain `Vec`, with random point reads,
/// out-of-range probes, and full iteration. At one random point in every
/// sequence a clone is taken, and from then on both the original and the
/// clone keep mutating, each checked against its own oracle: a write
/// through either must never show through the other (the structural-sharing
/// contract the history snapshots rely on, which in-place updates of
/// unshared nodes must keep in both directions).
#[test]
fn prop_persistent_vec_matches_vec_oracle() {
    const SEED_SALT: u64 = 0x0bad_5eed_0001;
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        let mut pv: PersistentVec<u64> = PersistentVec::new();
        let mut model: Vec<u64> = Vec::new();
        let mut frozen: Option<(PersistentVec<u64>, Vec<u64>)> = None;
        // Long enough that many sequences cross the 32-element tail boundary
        // and some push the root a level deeper.
        let ops = g.range(1, 140);
        let freeze_at = g.range(0, ops);
        for op in 0..ops {
            if op == freeze_at {
                frozen = Some((pv.clone(), model.clone()));
            }
            vec_step(&mut g, &mut pv, &mut model, seed);
            if let Some((old, old_model)) = frozen.as_mut() {
                if g.flip() {
                    vec_step(&mut g, old, old_model, seed);
                }
            }
        }
        let collected: Vec<u64> = pv.iter().copied().collect();
        assert_eq!(collected, model, "seed {seed}: iteration diverges");
        let (old, old_model) = frozen.expect("freeze point always within ops");
        assert_eq!(old.len(), old_model.len(), "seed {seed}");
        let old_collected: Vec<u64> = old.iter().copied().collect();
        assert_eq!(
            old_collected, old_model,
            "seed {seed}: mid-sequence clone diverged from its snapshot"
        );
    }
}

/// One random insert or replace on `pm` and on its oracle `model` over a
/// 40-key universe, checking the `added` contract, the length and a random
/// probe.
fn map_step(
    g: &mut Gen,
    pm: &mut PersistentMap<u64, u64>,
    model: &mut std::collections::HashMap<u64, u64>,
    seed: u64,
) {
    let k = g.range(0, 40) as u64;
    let v = g.next_u64();
    let added = pm.insert(k, v);
    assert_eq!(added, !model.contains_key(&k), "seed {seed}: insert({k})");
    model.insert(k, v);
    assert_eq!(pm.len(), model.len(), "seed {seed}");
    let probe = g.range(0, 40) as u64;
    assert_eq!(
        pm.get(&probe),
        model.get(&probe),
        "seed {seed}: get({probe})"
    );
    assert_eq!(
        pm.contains_key(&probe),
        model.contains_key(&probe),
        "seed {seed}"
    );
}

/// The entries of a map oracle, sorted.
fn sorted_entries(model: &std::collections::HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable();
    entries
}

/// **Persistent map ≡ `HashMap` oracle.** Random insert/replace sequences
/// over a small key universe (so hash-fragment collisions and replacement
/// both happen) checked against `std::collections::HashMap`, including the
/// `added` insert contract, random probes and full iteration. A clone taken
/// mid-sequence then keeps mutating beside the original, each against its
/// own oracle, so a write leaking either way is caught.
type FrozenMap = (PersistentMap<u64, u64>, std::collections::HashMap<u64, u64>);

#[test]
fn prop_persistent_map_matches_hashmap_oracle() {
    const SEED_SALT: u64 = 0x0bad_5eed_0002;
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        let mut pm: PersistentMap<u64, u64> = PersistentMap::new();
        let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut frozen: Option<FrozenMap> = None;
        let ops = g.range(1, 150);
        let freeze_at = g.range(0, ops);
        for op in 0..ops {
            if op == freeze_at {
                frozen = Some((pm.clone(), model.clone()));
            }
            map_step(&mut g, &mut pm, &mut model, seed);
            if let Some((old, old_model)) = frozen.as_mut() {
                if g.flip() {
                    map_step(&mut g, old, old_model, seed);
                }
            }
        }
        let mut collected: Vec<(u64, u64)> = pm.iter().map(|(k, v)| (*k, *v)).collect();
        collected.sort_unstable();
        assert_eq!(
            collected,
            sorted_entries(&model),
            "seed {seed}: iteration diverges"
        );
        let (old, old_model) = frozen.expect("freeze point always within ops");
        let mut old_collected: Vec<(u64, u64)> = old.iter().map(|(k, v)| (*k, *v)).collect();
        old_collected.sort_unstable();
        assert_eq!(
            old_collected,
            sorted_entries(&old_model),
            "seed {seed}: mid-sequence clone diverged from its snapshot"
        );
    }
}

/// A random character for the JSON string properties: mostly ASCII, with
/// the two characters that end an unescaped run, control characters, and
/// two-, three- and four-byte UTF-8.
fn json_char(g: &mut Gen) -> char {
    const SPECIAL: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
    ];
    const WIDE: &[char] = &['é', 'ß', 'Ж', '€', '中', '\u{ffff}', '😀', '\u{10ffff}'];
    match g.range(0, 4) {
        0 => SPECIAL[g.range(0, SPECIAL.len())],
        1 => WIDE[g.range(0, WIDE.len())],
        _ => char::from(b' ' + g.range(0, 95) as u8),
    }
}

/// **JSON strings round-trip.** `json::parse` decodes what
/// `json::write_escaped` writes, for random strings of every character
/// class; and a literal assembled piece by piece from raw characters, every
/// short escape, `\u` escapes in the BMP (either hex case) and surrogate
/// pairs decodes to the characters the pieces stand for.
#[test]
fn prop_json_strings_decode_what_was_encoded() {
    const SEED_SALT: u64 = 0x0bad_5eed_0003;
    const SHORT: &[(&str, char)] = &[
        ("\\\"", '"'),
        ("\\\\", '\\'),
        ("\\/", '/'),
        ("\\b", '\u{8}'),
        ("\\f", '\u{c}'),
        ("\\n", '\n'),
        ("\\r", '\r'),
        ("\\t", '\t'),
    ];
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        let len = g.range(0, 40);
        let original: String = (0..len).map(|_| json_char(&mut g)).collect();
        let mut doc = String::new();
        json::write_escaped(&mut doc, &original);
        assert_eq!(
            json::parse(&doc).map(|v| v.as_str().map(str::to_owned)),
            Ok(Some(original.clone())),
            "seed {seed}: {doc}"
        );

        let (mut literal, mut expected) = (String::from("\""), String::new());
        for _ in 0..g.range(0, 40) {
            match g.range(0, 4) {
                0 => {
                    let (escape, c) = SHORT[g.range(0, SHORT.len())];
                    literal.push_str(escape);
                    expected.push(c);
                }
                1 => {
                    // A BMP scalar value: below the surrogates or above them.
                    let code = if g.flip() {
                        g.range(0, 0xD800)
                    } else {
                        g.range(0xE000, 0x1_0000)
                    } as u32;
                    literal.push_str(&if g.flip() {
                        format!("\\u{code:04x}")
                    } else {
                        format!("\\u{code:04X}")
                    });
                    expected.push(char::from_u32(code).expect("not a surrogate"));
                }
                2 => {
                    let code = g.range(0x1_0000, 0x11_0000) as u32;
                    let c = char::from_u32(code).expect("astral scalar value");
                    let mut units = [0u16; 2];
                    c.encode_utf16(&mut units);
                    literal.push_str(&format!("\\u{:04x}\\u{:04X}", units[0], units[1]));
                    expected.push(c);
                }
                _ => {
                    let c = json_char(&mut g);
                    if c == '"' || c == '\\' {
                        continue;
                    }
                    literal.push(c);
                    expected.push(c);
                }
            }
        }
        literal.push('"');
        assert_eq!(
            json::parse(&literal).map(|v| v.as_str().map(str::to_owned)),
            Ok(Some(expected)),
            "seed {seed}: {literal}"
        );
    }
}

/// **JSON string errors stay errors.** After a random valid prefix, an
/// unterminated string, an unterminated escape, an invalid escape, a lone
/// or badly paired surrogate, and truncated or non-hex `\u` digits are all
/// rejected — never a panic, never a wrong string.
#[test]
fn prop_json_string_errors_are_rejected() {
    const SEED_SALT: u64 = 0x0bad_5eed_0004;
    const BROKEN: &[&str] = &[
        "",                 // unterminated string
        "\\\"",             // the closing quote is escaped: unterminated
        "\\",               // unterminated escape
        "\\x\"",            // invalid escape
        "\\é\"",            // invalid escape starting a multi-byte character
        "\\uD83D\"",        // lone high surrogate
        "\\uD83Dx\"",       // high surrogate followed by a raw character
        "\\ud83d\\u0041\"", // high surrogate followed by a non-low escape
        "\\uDC00\"",        // lone low surrogate
        "\\u12G4\"",        // bad hex digit
        "\\u12\"",          // truncated \u escape
        "\\u€\"",           // non-ASCII in place of hex digits
    ];
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        let prefix: String = (0..g.range(0, 20))
            .map(|_| json_char(&mut g))
            .filter(|c| *c != '"' && *c != '\\')
            .collect();
        for broken in BROKEN {
            let doc = format!("\"{prefix}{broken}");
            assert!(json::parse(&doc).is_err(), "seed {seed}: {doc:?} parsed");
        }
    }
}

/// **Eviction soundness.** Under random `max_signatures`/`eviction_window`
/// configurations and random streams of new and duplicate antibodies
/// (duplicates refresh the matched generation), a signature matched within
/// the last `eviction_window` epochs is never evicted: any signature that
/// goes from live to retired across one insert must already have been
/// window-stale at the post-insert epoch (staleness only grows with the
/// epoch, so this bounds every intermediate eviction decision too).
#[test]
fn prop_eviction_never_retires_recently_matched() {
    const SEED_SALT: u64 = 0x0e51_c7ed;
    let mut total_evictions = 0u64;
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        let cap = g.range(2, 6);
        let window = g.range(1, 5) as u64;
        let mut e = Dimmunix::new(
            Config::builder()
                .max_signatures(cap)
                .eviction_window(window)
                .build(),
        );
        let pool: Vec<Signature> = (0..12u32)
            .map(|i| {
                Signature::new(
                    SignatureKind::Deadlock,
                    vec![SignaturePair::new(
                        CallStack::single(Frame::new("ev.outer", "ev.rs", i * 10)),
                        CallStack::single(Frame::new("ev.inner", "ev.rs", i * 10 + 1)),
                    )],
                )
            })
            .collect();
        for _ in 0..g.range(10, 60) {
            let sig = pool[g.range(0, pool.len())].clone();
            let before: Vec<(SignatureId, u64)> = e.history().activity_iter().collect();
            e.add_signature(sig);
            let post_epoch = e.history_snapshot().epoch();
            for (id, last) in before {
                if !e.history().is_live(id) {
                    assert!(
                        post_epoch.saturating_sub(last) >= window,
                        "seed {seed}: evicted {id} last matched at epoch {last}, \
                         inside the window at post-insert epoch {post_epoch}"
                    );
                }
            }
        }
        total_evictions += e.stats().signatures_evicted;
    }
    // The property must not hold vacuously: across the seed sweep the
    // small capacities force real evictions.
    assert!(total_evictions > 0, "no seed ever exercised eviction");
}

/// **Compaction ≡ fresh bulk rebuild (gap-tolerance oracle).** Random
/// insert/remove/compact sequences over a sparse id space leave the
/// [`SignatureIndex`] with id gaps and tombstoned positions; after every
/// compaction (and at the end) its lookups must agree position-for-position
/// and signature-for-signature with an index rebuilt from scratch from the
/// surviving entries.
#[test]
fn prop_index_compaction_agrees_with_fresh_rebuild() {
    const SEED_SALT: u64 = 0x00c0_53ac;
    const MAX_ID: usize = 20;
    const MAX_POS: usize = 12;

    fn check(
        index: &SignatureIndex,
        model: &std::collections::HashMap<usize, Vec<PositionId>>,
        seed: u64,
    ) {
        let mut fresh = SignatureIndex::new();
        let mut ids: Vec<usize> = model.keys().copied().collect();
        ids.sort_unstable();
        for raw in &ids {
            fresh.insert(SignatureId::new(*raw), model[raw].clone());
        }
        assert_eq!(index.len(), fresh.len(), "seed {seed}");
        for p in 0..MAX_POS {
            let pid = PositionId::new(p as u32);
            assert_eq!(
                index.signatures_at(pid),
                fresh.signatures_at(pid),
                "seed {seed}: position {p} diverges from fresh rebuild"
            );
        }
        for raw in 0..MAX_ID {
            let id = SignatureId::new(raw);
            assert_eq!(
                index.outer_positions_of(id),
                fresh.outer_positions_of(id),
                "seed {seed}: outer positions of {raw} diverge"
            );
            if !model.contains_key(&raw) {
                assert!(index.outer_positions_of(id).is_empty(), "seed {seed}");
            }
        }
    }

    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ SEED_SALT);
        let mut index = SignatureIndex::new();
        let mut model: std::collections::HashMap<usize, Vec<PositionId>> =
            std::collections::HashMap::new();
        for _ in 0..g.range(5, 80) {
            let raw = g.range(0, MAX_ID);
            let id = SignatureId::new(raw);
            match g.range(0, 10) {
                0..=5 => {
                    if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(raw) {
                        let outer: Vec<PositionId> = (0..g.range(1, 4))
                            .map(|_| PositionId::new(g.range(0, MAX_POS) as u32))
                            .collect();
                        index.insert(id, outer.clone());
                        slot.insert(outer);
                    }
                }
                6..=8 => {
                    let removed = index.remove(id);
                    assert_eq!(removed, model.remove(&raw).is_some(), "seed {seed}");
                }
                _ => {
                    index.compact();
                    check(&index, &model, seed);
                }
            }
            assert_eq!(index.len(), model.len(), "seed {seed}");
        }
        index.compact();
        check(&index, &model, seed);
    }
}

#[test]
fn prop_trained_engine_never_deadlocks_on_ab_ba() {
    for first_is_t1 in [false, true] {
        // Train.
        let mut trainer = Dimmunix::default();
        let site = |m: &str, line| CallStack::single(Frame::new(m, "app.rs", line));
        let (t1, t2) = (ThreadId::new(1), ThreadId::new(2));
        let (la, lb) = (LockId::new(1), LockId::new(2));
        assert!(trainer.request(t1, la, &site("t1.outer", 10)).is_granted());
        trainer.acquired(t1, la);
        assert!(trainer.request(t2, lb, &site("t2.outer", 20)).is_granted());
        trainer.acquired(t2, lb);
        assert!(trainer.request(t1, lb, &site("t1.inner", 11)).is_granted());
        assert!(matches!(
            trainer.request(t2, la, &site("t2.inner", 21)),
            RequestOutcome::DeadlockDetected { .. }
        ));
        // The trained engine's index covers exactly the recorded signature.
        assert_eq!(trainer.signature_index().len(), 1);
        assert_eq!(
            trainer
                .signature_index()
                .outer_positions_of(SignatureId::new(0))
                .len(),
            2
        );

        // Replay with the antibody, varying which thread starts first.
        let mut e = Dimmunix::with_history(Config::default(), trainer.history().clone());
        let (first, second) = if first_is_t1 { (t1, t2) } else { (t2, t1) };
        let (first_lock, second_lock) = if first_is_t1 { (la, lb) } else { (lb, la) };
        let (first_site, second_site) = if first_is_t1 { (10, 20) } else { (20, 10) };

        assert!(e
            .request(first, first_lock, &site("outer", first_site))
            .is_granted());
        e.acquired(first, first_lock);
        let outcome = e.request(second, second_lock, &site("outer", second_site));
        // The second thread must never be allowed into the deadlock pattern:
        // it either yields (signature instantiation) or the engine grants it
        // because the interleaving cannot deadlock; in both cases no
        // deadlock is detected afterwards.
        match outcome {
            RequestOutcome::Yield { .. } | RequestOutcome::Granted => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(e.stats().deadlocks_detected, 0);
    }
}
