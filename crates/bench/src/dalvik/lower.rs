//! Lowering a [`Program`] to a `dimmunix-sim` [`Scenario`].
//!
//! Programs are finite and loop-free, so a process is fully described by
//! straight-line task scripts: `Call`s are inlined, the static `Spawn` tree
//! is enumerated into tasks (task 0 is the main thread; every other task is
//! the target of exactly one `Spawn` op and starts dormant), each
//! [`ObjRef`] becomes a dense lock index, and every `MonitorEnter` / `Wait`
//! statement gets a site whose call stack is the full inlined frame chain —
//! innermost frame first, the frame "line" being the pc of the statement
//! (of the call's return address, for caller frames), which gives every
//! static site a stable position (§4's compiler-id observation). Statements
//! reached through the same chain share one site.
//!
//! Three rules settle where the two models differ:
//!
//! * **Clock.** The Dalvik model is one simulated core: `Compute(cycles)`
//!   lowers to the serial `SimOp::Compute`, never to the parallel sleep
//!   `SimOp::Work`, so a seed really chooses among interleavings (under
//!   `Work` every symmetric program would meet in lock-step and deadlock on
//!   every schedule). Only `Wait` deadlines live on the explorer's heap.
//! * **Preemption grain.** The scheduler may switch threads at `Compute`s
//!   and at blocking points, not between any two ops; no extra points are
//!   added.
//! * **Detection.** Runs use `OnDeadlock::Stop`: the first detection ends
//!   the run (the process is frozen).

use crate::program::{MethodId, ObjRef, Op, Program};
use dimmunix_core::{AccessMode, CallStack, Frame};
use dimmunix_sim::{Scenario, SimOp, TaskScript};
use std::collections::HashMap;
use std::fmt;

/// Why a program has no finite lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LowerError {
    /// A method id that is not part of the program.
    UnknownMethod(MethodId),
    /// A `Call` chain re-enters the named method: inlining would not end.
    RecursiveCall(String),
    /// A thread (transitively) spawns a thread with the named entry method
    /// of one of its ancestors: the spawn tree would not end.
    RecursiveSpawn(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownMethod(m) => write!(f, "unknown method id {}", m.0),
            LowerError::RecursiveCall(m) => write!(f, "recursive call chain through {m}"),
            LowerError::RecursiveSpawn(m) => write!(f, "recursive spawn chain through {m}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// A thread waiting to be lowered: its script slot, its entry method, and
/// the entry methods of the threads that (transitively) spawned it.
struct PendingThread {
    task: usize,
    entry: MethodId,
    ancestors: Vec<MethodId>,
}

struct Lowering<'p> {
    program: &'p Program,
    locks: HashMap<ObjRef, usize>,
    sites: Vec<CallStack>,
    site_index: HashMap<CallStack, usize>,
    tasks: Vec<TaskScript>,
    queue: Vec<PendingThread>,
}

/// Lowers `program`, started at `entry`, to a scenario named `name`.
pub(crate) fn lower(
    name: &str,
    program: &Program,
    entry: MethodId,
) -> Result<Scenario, LowerError> {
    let mut l = Lowering {
        program,
        locks: HashMap::new(),
        sites: Vec::new(),
        site_index: HashMap::new(),
        tasks: vec![TaskScript {
            name: "main".into(),
            ops: Vec::new(),
        }],
        queue: vec![PendingThread {
            task: 0,
            entry,
            ancestors: Vec::new(),
        }],
    };
    while let Some(thread) = l.queue.pop() {
        let mut ancestors = thread.ancestors;
        ancestors.push(thread.entry);
        let mut ops = Vec::new();
        l.inline(thread.entry, &mut Vec::new(), &ancestors, &mut ops)?;
        l.tasks[thread.task].ops = ops;
    }
    Ok(Scenario {
        name: name.to_string(),
        locks: l.locks.len(),
        sites: l.sites,
        tasks: l.tasks,
        writer_preference: false,
        failsafe_budget: 0,
    })
}

impl Lowering<'_> {
    fn lock(&mut self, obj: ObjRef) -> usize {
        let next = self.locks.len();
        *self.locks.entry(obj).or_insert(next)
    }

    /// The site of the statement at `pc` of `method`, reached through
    /// `callers` (outermost first, each with its return pc).
    fn site(&mut self, callers: &[(MethodId, usize)], method: MethodId, pc: usize) -> usize {
        let frame = |&(m, pc): &(MethodId, usize)| {
            let m = self.program.method(m).expect("caller was resolved");
            Frame::new(m.name.clone(), m.file.clone(), pc as u32)
        };
        let mut frames = vec![frame(&(method, pc))];
        frames.extend(callers.iter().rev().map(frame));
        let stack = CallStack::from_frames(frames);
        if let Some(&i) = self.site_index.get(&stack) {
            return i;
        }
        self.sites.push(stack.clone());
        self.site_index.insert(stack, self.sites.len() - 1);
        self.sites.len() - 1
    }

    fn inline(
        &mut self,
        method: MethodId,
        callers: &mut Vec<(MethodId, usize)>,
        ancestors: &[MethodId],
        out: &mut Vec<SimOp>,
    ) -> Result<(), LowerError> {
        let program = self.program;
        let m = program
            .method(method)
            .ok_or(LowerError::UnknownMethod(method))?;
        if callers.iter().any(|&(c, _)| c == method) {
            return Err(LowerError::RecursiveCall(m.name.clone()));
        }
        for (pc, op) in m.ops.iter().enumerate() {
            match op {
                Op::MonitorEnter(obj) => out.push(SimOp::Acquire {
                    lock: self.lock(*obj),
                    mode: AccessMode::Exclusive,
                    site: self.site(callers, method, pc),
                }),
                Op::MonitorExit(obj) => out.push(SimOp::Release {
                    lock: self.lock(*obj),
                }),
                Op::Wait { obj, timeout } => out.push(SimOp::Wait {
                    lock: self.lock(*obj),
                    timeout: *timeout,
                    site: self.site(callers, method, pc),
                }),
                Op::Notify(obj) | Op::NotifyAll(obj) => out.push(SimOp::Notify {
                    lock: self.lock(*obj),
                    all: matches!(op, Op::NotifyAll(_)),
                }),
                Op::Compute(cycles) => out.push(SimOp::Compute { cost: *cycles }),
                Op::Call(callee) => {
                    // The caller's frame shows its return address.
                    callers.push((method, pc + 1));
                    self.inline(*callee, callers, ancestors, out)?;
                    callers.pop();
                }
                Op::Spawn {
                    method: entry,
                    name,
                } => {
                    if ancestors.contains(entry) {
                        let name = program.method(*entry).map(|m| m.name.clone());
                        return Err(LowerError::RecursiveSpawn(name.unwrap_or_default()));
                    }
                    let task = self.tasks.len();
                    self.tasks.push(TaskScript {
                        name: name.clone(),
                        ops: Vec::new(),
                    });
                    self.queue.push(PendingThread {
                        task,
                        entry: *entry,
                        ancestors: ancestors.to_vec(),
                    });
                    out.push(SimOp::Spawn { task });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Method, ProgramBuilder};

    #[test]
    fn calls_are_inlined_with_the_full_frame_chain() {
        let mut pb = ProgramBuilder::new("w.java");
        let lock = pb.method("MyLock.lock").enter(ObjRef(7)).finish();
        let unlock = pb.method("MyLock.unlock").exit(ObjRef(7)).finish();
        let main = pb
            .method("Main.main")
            .compute(2)
            .call(lock)
            .call(unlock)
            .call(lock)
            .call(unlock)
            .finish();
        let s = lower("w", &pb.build(), main).unwrap();
        assert_eq!(s.tasks.len(), 1);
        assert_eq!(s.locks, 1);
        // Same statement, two call sites: two distinct stacks, both two
        // frames deep, innermost first, caller frames at the return pc.
        assert_eq!(s.sites.len(), 2);
        let frames: Vec<_> = s.sites[0]
            .frames()
            .iter()
            .map(|f| (f.method().to_string(), f.line()))
            .collect();
        assert_eq!(
            frames,
            vec![("MyLock.lock".to_string(), 0), ("Main.main".to_string(), 2)]
        );
        assert_eq!(s.sites[1].frames()[1].line(), 4);
        assert_eq!(
            s.tasks[0].ops,
            vec![
                SimOp::Compute { cost: 2 },
                SimOp::Acquire {
                    lock: 0,
                    mode: AccessMode::Exclusive,
                    site: 0
                },
                SimOp::Release { lock: 0 },
                SimOp::Acquire {
                    lock: 0,
                    mode: AccessMode::Exclusive,
                    site: 1
                },
                SimOp::Release { lock: 0 },
            ]
        );
    }

    #[test]
    fn the_spawn_tree_becomes_dormant_tasks_and_shared_code_shares_sites() {
        let mut pb = ProgramBuilder::new("s.java");
        let worker = pb
            .method("Worker.run")
            .sync(ObjRef(1), |b| {
                b.wait(ObjRef(1), Some(5)).notify_all(ObjRef(1));
            })
            .finish();
        let main = pb
            .method("Main.main")
            .spawn(worker, "w1")
            .spawn(worker, "w2")
            .finish();
        let s = lower("s", &pb.build(), main).unwrap();
        let names: Vec<_> = s.tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["main", "w1", "w2"]);
        assert_eq!(
            s.tasks[0].ops,
            vec![SimOp::Spawn { task: 1 }, SimOp::Spawn { task: 2 }]
        );
        // Both workers run the same code: one enter site, one wait site.
        assert_eq!(s.sites.len(), 2);
        assert_eq!(s.tasks[1].ops, s.tasks[2].ops);
        assert_eq!(
            s.tasks[1].ops[1],
            SimOp::Wait {
                lock: 0,
                timeout: Some(5),
                site: 1
            }
        );
        assert_eq!(s.tasks[1].ops[2], SimOp::Notify { lock: 0, all: true });
    }

    /// A recursive `Call` chain is a lowering error, not a stack overflow.
    #[test]
    fn recursion_is_a_lowering_error() {
        let mut program = Program::new();
        // a calls b, b calls a.
        let a = program.add_method(Method {
            name: "A.run".into(),
            file: "r.java".into(),
            ops: vec![Op::Call(MethodId(1))],
        });
        program.add_method(Method {
            name: "B.run".into(),
            file: "r.java".into(),
            ops: vec![Op::Call(a)],
        });
        assert_eq!(
            lower("r", &program, a).err(),
            Some(LowerError::RecursiveCall("A.run".into()))
        );

        let mut program = Program::new();
        let t = program.add_method(Method {
            name: "T.run".into(),
            file: "r.java".into(),
            ops: vec![Op::Spawn {
                method: MethodId(0),
                name: "again".into(),
            }],
        });
        assert_eq!(
            lower("r", &program, t).err(),
            Some(LowerError::RecursiveSpawn("T.run".into()))
        );
        assert_eq!(
            lower("r", &program, MethodId(9)).err(),
            Some(LowerError::UnknownMethod(MethodId(9)))
        );
    }
}
