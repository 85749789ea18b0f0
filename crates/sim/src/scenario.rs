//! The declarative scenario DSL.
//!
//! A [`Scenario`] is a deadlock-prone concurrent program described as data:
//! a set of locks, a set of tasks, and per-task scripts of
//! acquire/release/work (and monitor wait/notify, spawn, one-core compute)
//! ops annotated with static acquisition sites. The
//! simulator ([`crate::sim`]) executes scenarios against the real engine in
//! virtual time; the fuzzer ([`crate::fuzz()`]) explores their interleavings.
//!
//! The classic workloads this repository previously expressed only as
//! real-thread examples — dining philosophers, bank transfers, the
//! async-server lock-order bug — are provided here as builders, plus the
//! [`writer_preference_gap`] scenario that pins the PR 5 known gap as an
//! executable spec. [`catalog`] lists the canonical instances the fuzzer,
//! regression corpus, and benches refer to by name.
//!
//! Sites are whole [`CallStack`]s. The hand-written builders below use
//! [`site`]: one `(static scope, unique line)` frame in a single virtual
//! source file ([`SITE_FILE`]), which the asyncio substrate can also show
//! as an `AcquisitionSite` — the same frame either way, so histories
//! learned on one substrate are textually comparable with the other's.
//! Front ends that lower a program model into a scenario (`dalvik-sim`)
//! supply the full inlined frame chain of each synchronization statement
//! instead.

use dimmunix_core::{AccessMode, CallStack, Frame};
use dimmunix_testkit::Gen;

/// The virtual source file every hand-written scenario site lives in.
pub const SITE_FILE: &str = "sim_scenario.rs";

/// A one-frame site in [`SITE_FILE`]. `scope` is the enclosing code path
/// (shared across tasks that run it — every bank teller transfers through
/// the same two sites, exactly like the real workload); lines are unique
/// within a scenario, so two sites never intern to the same engine
/// position.
pub fn site(scope: &str, line: u32) -> CallStack {
    CallStack::single(Frame::new(scope, SITE_FILE, line))
}

/// One step of a task script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOp {
    /// Request lock `lock` in `mode` from scenario site `site` (an index
    /// into [`Scenario::sites`]), then hold it.
    Acquire {
        /// Scenario lock index.
        lock: usize,
        /// Exclusive (mutex / rwlock-write) or shared (rwlock-read).
        mode: AccessMode,
        /// Index into [`Scenario::sites`].
        site: usize,
    },
    /// Release a held lock.
    Release {
        /// Scenario lock index (must be held).
        lock: usize,
    },
    /// Compute for `cost` virtual time units — an explicit blocking point
    /// at which the scheduler may interleave other tasks. A *parallel*
    /// sleep: every other runnable task runs before the clock moves.
    Work {
        /// Virtual duration (≥ 1).
        cost: u64,
    },
    /// Busy work on a single simulated core: the clock advances by `cost`
    /// *serially* (nobody else runs meanwhile) and the task stays runnable,
    /// so this is a pure preemption point — the scheduler may pick any
    /// runnable task next, this one included. The Dalvik front end lowers
    /// `Compute(cycles)` to it.
    Compute {
        /// Virtual duration (may be 0: a bare yield).
        cost: u64,
    },
    /// `Object.wait()`: release every (reentrant) hold on `lock` through
    /// the `released` hook, join the lock's wait set, and — once notified
    /// or past the optional deadline — *re-request* the lock through the
    /// engine from `site` and restore the recursion depth. Skipped when
    /// the task does not own `lock` (Java's `IllegalMonitorStateException`).
    Wait {
        /// Scenario lock index.
        lock: usize,
        /// Virtual time units after which the wait times out, if any.
        timeout: Option<u64>,
        /// Index into [`Scenario::sites`] the reacquisition is shown at.
        site: usize,
    },
    /// `Object.notify()` / `notifyAll()`: wake the longest waiter (or every
    /// waiter) of `lock`. Skipped when the task does not own `lock`.
    Notify {
        /// Scenario lock index.
        lock: usize,
        /// Wake the whole wait set instead of its front.
        all: bool,
    },
    /// Start task `task`. A task that is the target of some `Spawn` starts
    /// dormant and takes no part in scheduling until the op executes.
    Spawn {
        /// Index into [`Scenario::tasks`].
        task: usize,
    },
}

/// One simulated task: a name (for diagnostics) and its op script.
#[derive(Clone, Debug)]
pub struct TaskScript {
    /// Diagnostic name ("philosopher-2", "teller-0", …).
    pub name: String,
    /// The ops, executed in order; the task finishes after the last.
    pub ops: Vec<SimOp>,
}

/// A declarative concurrency scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name; [`by_name`] resolves the canonical instances in
    /// [`catalog`] (the regression corpus stores this name).
    pub name: String,
    /// Number of locks, indexed `0..locks`.
    pub locks: usize,
    /// The static acquisition sites scripts refer to by index, as the call
    /// stacks the engine is shown.
    pub sites: Vec<CallStack>,
    /// The tasks.
    pub tasks: Vec<TaskScript>,
    /// Model OS-level writer preference in the simulated locks: a shared
    /// request must queue behind an already-waiting exclusive request even
    /// when the current owners are all readers. The engine does not model
    /// this queuing policy (see ARCHITECTURE.md, "`ImmuneRwLock` and the
    /// multi-owner RAG"), which is exactly what [`writer_preference_gap`]
    /// demonstrates.
    pub writer_preference: bool,
    /// Per-task fail-safe budget: when the schedule stalls with no runnable
    /// or sleeping task, the lowest-indexed blocked task may back out
    /// (cancel its request, release everything, restart its script) up to
    /// this many times — the simulator's analogue of a timeout-driven
    /// retry. `0` disables the fail-safe, turning every stall into
    /// [`crate::sim::RunOutcome::Stalled`].
    pub failsafe_budget: u32,
}

impl Scenario {
    /// Total ops across all task scripts (a lower bound on the fuel one
    /// full execution needs).
    pub fn total_ops(&self) -> usize {
        self.tasks.iter().map(|t| t.ops.len()).sum()
    }
}

/// `n` dining philosophers (ISSUE 7 / paper §2): philosopher `p` grabs fork
/// `p` then fork `(p+1) % n`, eats, and puts both down, `rounds` times.
/// Every round of one philosopher runs through the same two sites (the
/// loop body is one code path), so a learned signature covers all rounds.
pub fn dining_philosophers(n: usize, rounds: usize) -> Scenario {
    assert!(n >= 2, "philosophers need at least two forks");
    let mut sites = Vec::new();
    let mut tasks = Vec::new();
    for p in 0..n {
        let left = sites.len();
        sites.push(site("philosopher.left_fork", (2 * p + 1) as u32));
        let right = sites.len();
        sites.push(site("philosopher.right_fork", (2 * p + 2) as u32));
        let mut ops = Vec::new();
        for _ in 0..rounds {
            ops.push(SimOp::Acquire {
                lock: p,
                mode: AccessMode::Exclusive,
                site: left,
            });
            // Thinking with one fork in hand: the window in which the
            // neighbour can grab the shared fork — the interleaving that
            // closes the cycle.
            ops.push(SimOp::Work { cost: 1 });
            ops.push(SimOp::Acquire {
                lock: (p + 1) % n,
                mode: AccessMode::Exclusive,
                site: right,
            });
            ops.push(SimOp::Work { cost: 1 }); // eat
            ops.push(SimOp::Release { lock: (p + 1) % n });
            ops.push(SimOp::Release { lock: p });
        }
        tasks.push(TaskScript {
            name: format!("philosopher-{p}"),
            ops,
        });
    }
    Scenario {
        name: format!("philosophers-{n}x{rounds}"),
        locks: n,
        sites,
        tasks,
        writer_preference: false,
        failsafe_budget: 0,
    }
}

/// `tellers` bank tellers moving money between `accounts` account locks,
/// `transfers` times each, with seeded random (from, to) pairs. All tellers
/// share the same two sites — the single `transfer()` code path — so one
/// learned signature immunizes every teller pair.
pub fn bank_transfer(tellers: usize, accounts: usize, transfers: usize, seed: u64) -> Scenario {
    assert!(accounts >= 2, "transfers need two distinct accounts");
    let sites = vec![
        site("transfer.from_account", 1),
        site("transfer.to_account", 2),
    ];
    let mut g = Gen::new(seed);
    let tasks = (0..tellers)
        .map(|t| {
            let mut ops = Vec::new();
            for _ in 0..transfers {
                let from = g.range(0, accounts);
                let mut to = g.range(0, accounts);
                if to == from {
                    to = (to + 1) % accounts;
                }
                ops.push(SimOp::Acquire {
                    lock: from,
                    mode: AccessMode::Exclusive,
                    site: 0,
                });
                ops.push(SimOp::Work { cost: 1 });
                ops.push(SimOp::Acquire {
                    lock: to,
                    mode: AccessMode::Exclusive,
                    site: 1,
                });
                ops.push(SimOp::Work { cost: 1 });
                ops.push(SimOp::Release { lock: to });
                ops.push(SimOp::Release { lock: from });
            }
            TaskScript {
                name: format!("teller-{t}"),
                ops,
            }
        })
        .collect();
    Scenario {
        name: format!("bank-{tellers}x{accounts}x{transfers}-{seed:x}"),
        locks: accounts,
        sites,
        tasks,
        writer_preference: false,
        failsafe_budget: 0,
    }
}

/// The async-server lock-order bug as a scenario: `tasks` request handlers
/// each lock a seeded pair of `resources` in ascending order — except every
/// `invert_every`-th handler, which takes the same pair through an inverted
/// code path (descending order, distinct sites). This is the declarative
/// form of the `workloads::async_server` workload's `plan_requests`.
pub fn async_server(tasks: usize, resources: usize, invert_every: usize, seed: u64) -> Scenario {
    assert!(resources >= 2, "handlers lock two distinct resources");
    assert!(invert_every >= 1);
    let sites = vec![
        site("handle_request.first", 1),
        site("handle_request.second", 2),
        site("handle_request.inverted_first", 3),
        site("handle_request.inverted_second", 4),
    ];
    let mut g = Gen::new(seed);
    let scripts = (0..tasks)
        .map(|i| {
            let a = g.range(0, resources);
            let mut b = g.range(0, resources);
            if b == a {
                b = (b + 1) % resources;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            let inverted = (i + 1) % invert_every == 0;
            let ((first, first_site), (second, second_site)) = if inverted {
                ((hi, 2), (lo, 3))
            } else {
                ((lo, 0), (hi, 1))
            };
            let ops = vec![
                SimOp::Acquire {
                    lock: first,
                    mode: AccessMode::Exclusive,
                    site: first_site,
                },
                SimOp::Work { cost: 1 },
                SimOp::Acquire {
                    lock: second,
                    mode: AccessMode::Exclusive,
                    site: second_site,
                },
                SimOp::Work { cost: 1 },
                SimOp::Release { lock: second },
                SimOp::Release { lock: first },
            ];
            TaskScript {
                name: format!("handler-{i}{}", if inverted { "-inv" } else { "" }),
                ops,
            }
        })
        .collect();
    Scenario {
        name: format!("async-server-{tasks}x{resources}i{invert_every}-{seed:x}"),
        locks: resources,
        sites,
        tasks: scripts,
        writer_preference: false,
        failsafe_budget: 0,
    }
}

/// Executable spec of the **writer-preference gap** (see ARCHITECTURE.md,
/// "`ImmuneRwLock` and the multi-owner RAG"): a cycle that exists only in
/// the lock *queuing policy*, never in the engine's wait-for graph.
///
/// Lock 0 is a rwlock, lock 1 a mutex. The deadlocking schedule: `reader`
/// takes 0 shared; `b-holder` takes 1; `writer` requests 0 exclusive and
/// queues behind the reader; `b-holder` requests 0 *shared* — the engine
/// grants it (shared/shared never conflicts, and there is no reader→writer
/// wait-for edge), but a writer-preferring lock parks it behind the waiting
/// writer; `reader` requests 1 and blocks on `b-holder`. Every task is now
/// queued, yet the engine's RAG is acyclic — detection stays silent and the
/// stall can only resolve through the fail-safe retry (budgeted here), which
/// is exactly the behaviour the known-gap entry documents.
pub fn writer_preference_gap() -> Scenario {
    let sites = vec![
        site("gap.reader_takes_rw", 1),
        site("gap.reader_takes_mutex", 2),
        site("gap.writer_takes_rw", 3),
        site("gap.holder_takes_mutex", 4),
        site("gap.holder_reads_rw", 5),
    ];
    let tasks = vec![
        TaskScript {
            name: "reader".into(),
            ops: vec![
                SimOp::Acquire {
                    lock: 0,
                    mode: AccessMode::Shared,
                    site: 0,
                },
                SimOp::Work { cost: 2 },
                SimOp::Acquire {
                    lock: 1,
                    mode: AccessMode::Exclusive,
                    site: 1,
                },
                SimOp::Release { lock: 1 },
                SimOp::Release { lock: 0 },
            ],
        },
        TaskScript {
            name: "writer".into(),
            ops: vec![
                SimOp::Work { cost: 1 },
                SimOp::Acquire {
                    lock: 0,
                    mode: AccessMode::Exclusive,
                    site: 2,
                },
                SimOp::Release { lock: 0 },
            ],
        },
        TaskScript {
            name: "b-holder".into(),
            ops: vec![
                SimOp::Acquire {
                    lock: 1,
                    mode: AccessMode::Exclusive,
                    site: 3,
                },
                SimOp::Work { cost: 2 },
                SimOp::Acquire {
                    lock: 0,
                    mode: AccessMode::Shared,
                    site: 4,
                },
                SimOp::Release { lock: 0 },
                SimOp::Release { lock: 1 },
            ],
        },
    ];
    Scenario {
        name: "writer-preference-gap".into(),
        locks: 2,
        sites,
        tasks,
        writer_preference: true,
        failsafe_budget: 1,
    }
}

/// A detection-heavy workload for the history's eviction machinery:
/// `gadgets` *independent* two-task lock-order inversions, each through its
/// own locks and its own four sites (same four scopes, unique lines — a
/// frame's identity includes its line, so the signatures stay distinct).
/// Every gadget that deadlocks teaches the
/// engine a *distinct* antibody (distinct sites ⇒ distinct signature), so a
/// single run under [`crate::sim::OnDeadlock::Refuse`] can learn up to
/// `gadgets` signatures back to back — exactly the pressure that pushes a
/// capped history (`max_signatures` below `gadgets`) into generation-based
/// eviction, since a gadget's antibody is never matched again after its
/// tasks die on the refusal path.
pub fn signature_storm(gadgets: usize) -> Scenario {
    assert!(gadgets >= 1);
    let mut sites = Vec::new();
    let mut tasks = Vec::new();
    for g in 0..gadgets {
        let (a, b) = (2 * g, 2 * g + 1);
        let base = sites.len();
        for (i, scope) in [
            "storm.a_first",
            "storm.a_second",
            "storm.b_first",
            "storm.b_second",
        ]
        .into_iter()
        .enumerate()
        {
            sites.push(site(scope, (base + i + 1) as u32));
        }
        // Task A takes the gadget's locks in (a, b) order, task B in
        // (b, a) order — the canonical inversion; the Work between the
        // two acquires is the window in which the partner closes the
        // cycle.
        for (who, first, second, s0, s1) in
            [("a", a, b, base, base + 1), ("b", b, a, base + 2, base + 3)]
        {
            tasks.push(TaskScript {
                name: format!("storm-{g}{who}"),
                ops: vec![
                    SimOp::Acquire {
                        lock: first,
                        mode: AccessMode::Exclusive,
                        site: s0,
                    },
                    SimOp::Work { cost: 1 },
                    SimOp::Acquire {
                        lock: second,
                        mode: AccessMode::Exclusive,
                        site: s1,
                    },
                    SimOp::Work { cost: 1 },
                    SimOp::Release { lock: second },
                    SimOp::Release { lock: first },
                ],
            });
        }
    }
    Scenario {
        name: format!("signature-storm-{gadgets}"),
        locks: 2 * gadgets,
        sites,
        tasks,
        writer_preference: false,
        failsafe_budget: 0,
    }
}

/// The collaborative-immunity workload: one two-task lock-order inversion
/// whose four sites sit at lines `shift+1..=shift+4`. The `shift` models an
/// *independent compilation of the same program* — each fleet member runs
/// the identical code at different absolute line numbers, which is exactly
/// the situation stable site keys exist for. [`crate::fleet`] builds one
/// instance per simulated process and exchanges antibody packs between
/// them; `fleet_inversion(0)` is the canonical catalog member.
pub fn fleet_inversion(shift: u32) -> Scenario {
    let sites: Vec<CallStack> = [
        "fleet.a_first",
        "fleet.a_second",
        "fleet.b_first",
        "fleet.b_second",
    ]
    .into_iter()
    .enumerate()
    .map(|(i, scope)| site(scope, shift + i as u32 + 1))
    .collect();
    let tasks = ["a", "b"]
        .into_iter()
        .enumerate()
        .map(|(t, who)| {
            // Task a takes (0, 1) through its two sites, task b takes
            // (1, 0) through its own — the canonical inversion.
            let (first, second) = if t == 0 { (0, 1) } else { (1, 0) };
            TaskScript {
                name: format!("fleet-{who}"),
                ops: vec![
                    SimOp::Acquire {
                        lock: first,
                        mode: AccessMode::Exclusive,
                        site: 2 * t,
                    },
                    SimOp::Work { cost: 1 },
                    SimOp::Acquire {
                        lock: second,
                        mode: AccessMode::Exclusive,
                        site: 2 * t + 1,
                    },
                    SimOp::Work { cost: 1 },
                    SimOp::Release { lock: second },
                    SimOp::Release { lock: first },
                ],
            }
        })
        .collect();
    Scenario {
        name: format!("fleet-inversion-s{shift}"),
        locks: 2,
        sites,
        tasks,
        writer_preference: false,
        failsafe_budget: 0,
    }
}

/// The canonical scenario instances the fuzzer, benches, and regression
/// corpus refer to by name.
pub fn catalog() -> Vec<Scenario> {
    vec![
        dining_philosophers(2, 1),
        dining_philosophers(3, 1),
        dining_philosophers(3, 2),
        dining_philosophers(5, 1),
        bank_transfer(3, 4, 3, 0xb0ba),
        async_server(6, 3, 3, 0xa51c),
        writer_preference_gap(),
        signature_storm(3),
        fleet_inversion(0),
    ]
}

/// Resolves a canonical scenario by its [`catalog`] name (how the
/// regression corpus reconstructs a trace's scenario).
pub fn by_name(name: &str) -> Option<Scenario> {
    catalog().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every catalog scenario is internally consistent: ops reference valid
    /// locks/sites, releases match holds, site lines are unique.
    #[test]
    fn catalog_scenarios_are_well_formed() {
        let scenarios = catalog();
        assert!(!scenarios.is_empty());
        for s in &scenarios {
            assert!(by_name(&s.name).is_some(), "{}: not resolvable", s.name);
            let mut lines = std::collections::HashSet::new();
            for site in &s.sites {
                let line = site.top().expect("one frame").line();
                assert!(lines.insert(line), "{}: duplicate site line", s.name);
            }
            for task in &s.tasks {
                let mut held: Vec<usize> = Vec::new();
                for op in &task.ops {
                    match *op {
                        SimOp::Acquire { lock, site, .. } => {
                            assert!(lock < s.locks, "{}", s.name);
                            assert!(site < s.sites.len(), "{}", s.name);
                            held.push(lock);
                        }
                        SimOp::Release { lock } => {
                            let i = held.iter().rposition(|&h| h == lock);
                            assert!(i.is_some(), "{}: release of unheld lock", s.name);
                            held.remove(i.unwrap());
                        }
                        SimOp::Work { cost } => assert!(cost >= 1, "{}", s.name),
                        SimOp::Compute { .. } => {}
                        SimOp::Wait { lock, site, .. } => {
                            assert!(held.contains(&lock), "{}: wait on unheld lock", s.name);
                            assert!(site < s.sites.len(), "{}", s.name);
                        }
                        SimOp::Notify { lock, .. } => assert!(lock < s.locks, "{}", s.name),
                        SimOp::Spawn { task } => assert!(task < s.tasks.len(), "{}", s.name),
                    }
                }
                assert!(held.is_empty(), "{}: {} leaks holds", s.name, task.name);
            }
        }
    }

    #[test]
    fn builders_are_deterministic() {
        let a = bank_transfer(3, 4, 3, 42);
        let b = bank_transfer(3, 4, 3, 42);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.ops, y.ops);
        }
        let a = async_server(8, 4, 3, 7);
        let b = async_server(8, 4, 3, 7);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.ops, y.ops);
        }
    }

    #[test]
    fn async_server_inverts_every_kth_handler() {
        let s = async_server(6, 3, 3, 1);
        let inverted: Vec<bool> = s.tasks.iter().map(|t| t.name.ends_with("-inv")).collect();
        assert_eq!(inverted, vec![false, false, true, false, false, true]);
        // Inverted handlers descend, canonical ones ascend.
        for task in &s.tasks {
            let locks: Vec<usize> = task
                .ops
                .iter()
                .filter_map(|op| match op {
                    SimOp::Acquire { lock, .. } => Some(*lock),
                    _ => None,
                })
                .collect();
            assert_eq!(locks.len(), 2);
            if task.name.ends_with("-inv") {
                assert!(locks[0] > locks[1], "{}", task.name);
            } else {
                assert!(locks[0] < locks[1], "{}", task.name);
            }
        }
    }
}
