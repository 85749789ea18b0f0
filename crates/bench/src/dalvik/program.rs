//! Mini "bytecode" programs for the simulated VM.
//!
//! Android applications synchronize through `monitorenter` / `monitorexit`
//! bytecodes, `Object.wait()` / `notify()` native methods, busy computation
//! and thread spawning. The simulator does not need a general-purpose
//! interpreter, only enough structure to express realistic synchronization
//! behaviour — which is exactly what this module provides: methods are flat
//! lists of [`Op`]s, programs are collections of methods, and
//! [`ProgramBuilder`] offers `synchronized`-block sugar.

use std::fmt;

/// Reference to a heap object used as a monitor.
///
/// The simulator gives every distinct `ObjRef` in a process its own monitor
/// (thin locks are inflated on first `monitorenter`, as in §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjRef(pub u32);

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Index of a method within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(pub usize);

/// One simulated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `monitorenter` on the given object.
    MonitorEnter(ObjRef),
    /// `monitorexit` on the given object.
    MonitorExit(ObjRef),
    /// `Object.wait()`: releases the monitor, waits to be notified (or for
    /// the optional virtual-time timeout), then *reacquires* the monitor —
    /// the reacquisition goes through Dimmunix, as in the modified
    /// `waitMonitor` routine (§3.2).
    Wait {
        /// The object being waited on (its monitor must be held).
        obj: ObjRef,
        /// Virtual-time units after which the wait times out, if any.
        timeout: Option<u64>,
    },
    /// `Object.notify()`: wakes one waiter (the monitor must be held).
    Notify(ObjRef),
    /// `Object.notifyAll()`: wakes every waiter (the monitor must be held).
    NotifyAll(ObjRef),
    /// Busy computation for the given number of virtual cycles (the paper's
    /// microbenchmark uses busy-waits rather than sleeps, §5).
    Compute(u64),
    /// Invoke another method of the same program.
    Call(MethodId),
    /// Spawn a new thread running the given method.
    Spawn {
        /// The spawned thread's entry method.
        method: MethodId,
        /// Human-readable thread name.
        name: String,
    },
}

/// A method: a name, a source file, and a flat list of operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    /// Fully-qualified method name (e.g. `StatusBarService.handleMessage`).
    pub name: String,
    /// Source file used when building call-stack frames.
    pub file: String,
    /// The method body.
    pub ops: Vec<Op>,
}

/// A whole simulated application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    methods: Vec<Method>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a method and returns its id.
    pub fn add_method(&mut self, method: Method) -> MethodId {
        let id = MethodId(self.methods.len());
        self.methods.push(method);
        id
    }

    /// Looks up a method by id.
    pub fn method(&self, id: MethodId) -> Option<&Method> {
        self.methods.get(id.0)
    }

    /// Looks up a method id by name.
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.methods
            .iter()
            .position(|m| m.name == name)
            .map(MethodId)
    }

    /// Counts synchronization sites (`MonitorEnter` plus `Wait`) across the
    /// whole program — the static statistic the paper reports for Android's
    /// essential applications (§3.2).
    pub fn synchronization_site_count(&self) -> usize {
        self.methods
            .iter()
            .flat_map(|m| m.ops.iter())
            .filter(|op| matches!(op, Op::MonitorEnter(_) | Op::Wait { .. }))
            .count()
    }
}

/// Builder for a [`Program`].
///
/// ```
/// use dimmunix_bench::dalvik::{ObjRef, ProgramBuilder};
/// let mut b = ProgramBuilder::new("demo.java");
/// let worker = b
///     .method("Worker.run")
///     .sync(ObjRef(1), |m| {
///         m.compute(10);
///     })
///     .finish();
/// let main = b.method("Main.main").spawn(worker, "worker-1").finish();
/// let program = b.build();
/// assert!(program.method(worker).is_some());
/// assert!(program.method(main).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    file: String,
    program: Program,
}

impl ProgramBuilder {
    /// Creates a builder; `file` is used as the source file of every method.
    pub fn new(file: impl Into<String>) -> Self {
        ProgramBuilder {
            file: file.into(),
            program: Program::new(),
        }
    }

    /// Starts building a method with the given name.
    pub fn method(&mut self, name: impl Into<String>) -> MethodBuilder<'_> {
        MethodBuilder {
            name: name.into(),
            file: self.file.clone(),
            ops: Vec::new(),
            builder: self,
        }
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        self.program
    }
}

/// Builder for a single method; obtained from [`ProgramBuilder::method`].
#[derive(Debug)]
pub struct MethodBuilder<'a> {
    name: String,
    file: String,
    ops: Vec<Op>,
    builder: &'a mut ProgramBuilder,
}

impl MethodBuilder<'_> {
    /// Appends a raw operation.
    pub fn op(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends a `monitorenter`.
    pub fn enter(self, obj: ObjRef) -> Self {
        self.op(Op::MonitorEnter(obj))
    }

    /// Appends a `monitorexit`.
    pub fn exit(self, obj: ObjRef) -> Self {
        self.op(Op::MonitorExit(obj))
    }

    /// Appends a busy computation.
    pub fn compute(self, cycles: u64) -> Self {
        self.op(Op::Compute(cycles))
    }

    /// Appends an `Object.wait()` with an optional virtual-time timeout.
    pub fn wait(self, obj: ObjRef, timeout: Option<u64>) -> Self {
        self.op(Op::Wait { obj, timeout })
    }

    /// Appends an `Object.notify()`.
    pub fn notify(self, obj: ObjRef) -> Self {
        self.op(Op::Notify(obj))
    }

    /// Appends an `Object.notifyAll()`.
    pub fn notify_all(self, obj: ObjRef) -> Self {
        self.op(Op::NotifyAll(obj))
    }

    /// Appends a call to another method.
    pub fn call(self, method: MethodId) -> Self {
        self.op(Op::Call(method))
    }

    /// Appends a thread spawn.
    pub fn spawn(self, method: MethodId, name: impl Into<String>) -> Self {
        self.op(Op::Spawn {
            method,
            name: name.into(),
        })
    }

    /// Appends a whole `synchronized (obj) { … }` block: the closure builds
    /// the body, the builder emits the surrounding enter/exit pair.
    pub fn sync(mut self, obj: ObjRef, body: impl FnOnce(&mut SyncBody)) -> Self {
        self.ops.push(Op::MonitorEnter(obj));
        let mut b = SyncBody { ops: &mut self.ops };
        body(&mut b);
        self.ops.push(Op::MonitorExit(obj));
        self
    }

    /// Finishes the method and returns its id.
    pub fn finish(self) -> MethodId {
        let MethodBuilder {
            name,
            file,
            ops,
            builder,
        } = self;
        builder.program.add_method(Method { name, file, ops })
    }
}

/// Body of a `synchronized` block inside [`MethodBuilder::sync`].
#[derive(Debug)]
pub struct SyncBody<'a> {
    ops: &'a mut Vec<Op>,
}

impl SyncBody<'_> {
    /// Appends a raw operation.
    pub fn op(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends busy computation.
    pub fn compute(&mut self, cycles: u64) -> &mut Self {
        self.op(Op::Compute(cycles))
    }

    /// Appends a nested `synchronized` block.
    pub fn sync(&mut self, obj: ObjRef, body: impl FnOnce(&mut SyncBody)) -> &mut Self {
        self.ops.push(Op::MonitorEnter(obj));
        {
            let mut inner = SyncBody { ops: self.ops };
            body(&mut inner);
        }
        self.ops.push(Op::MonitorExit(obj));
        self
    }

    /// Appends an `Object.wait()`.
    pub fn wait(&mut self, obj: ObjRef, timeout: Option<u64>) -> &mut Self {
        self.op(Op::Wait { obj, timeout })
    }

    /// Appends an `Object.notify()`.
    pub fn notify(&mut self, obj: ObjRef) -> &mut Self {
        self.op(Op::Notify(obj))
    }

    /// Appends an `Object.notifyAll()`.
    pub fn notify_all(&mut self, obj: ObjRef) -> &mut Self {
        self.op(Op::NotifyAll(obj))
    }

    /// Appends a call to another method.
    pub fn call(&mut self, method: MethodId) -> &mut Self {
        self.op(Op::Call(method))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_emits_balanced_sync_blocks() {
        let mut b = ProgramBuilder::new("test.java");
        let m = b
            .method("A.run")
            .sync(ObjRef(1), |body| {
                body.compute(5).sync(ObjRef(2), |inner| {
                    inner.compute(1);
                });
            })
            .finish();
        let program = b.build();
        let ops = &program.method(m).unwrap().ops;
        let enters = ops
            .iter()
            .filter(|o| matches!(o, Op::MonitorEnter(_)))
            .count();
        let exits = ops
            .iter()
            .filter(|o| matches!(o, Op::MonitorExit(_)))
            .count();
        assert_eq!(enters, 2);
        assert_eq!(exits, 2);
        assert_eq!(ops.first(), Some(&Op::MonitorEnter(ObjRef(1))));
        assert_eq!(ops.last(), Some(&Op::MonitorExit(ObjRef(1))));
    }

    #[test]
    fn method_lookup_by_name_and_id() {
        let mut b = ProgramBuilder::new("test.java");
        let a = b.method("A.run").compute(1).finish();
        let c = b.method("C.run").compute(2).finish();
        let p = b.build();
        assert_eq!(p.method_by_name("A.run"), Some(a));
        assert_eq!(p.method_by_name("C.run"), Some(c));
        assert_eq!(p.method_by_name("missing"), None);
        assert_eq!(p.method(a).unwrap().name, "A.run");
    }

    #[test]
    fn synchronization_site_count_counts_enters_and_waits() {
        let mut b = ProgramBuilder::new("test.java");
        b.method("A.run")
            .sync(ObjRef(1), |body| {
                body.wait(ObjRef(1), None);
            })
            .enter(ObjRef(2))
            .exit(ObjRef(2))
            .finish();
        let p = b.build();
        assert_eq!(p.synchronization_site_count(), 3);
    }

    #[test]
    fn spawn_and_call_ops_are_recorded() {
        let mut b = ProgramBuilder::new("test.java");
        let worker = b.method("Worker.run").compute(1).finish();
        let main = b
            .method("Main.main")
            .spawn(worker, "w")
            .call(worker)
            .finish();
        let p = b.build();
        let ops = &p.method(main).unwrap().ops;
        assert!(matches!(ops[0], Op::Spawn { method, .. } if method == worker));
        assert!(matches!(ops[1], Op::Call(m) if m == worker));
    }

    #[test]
    fn objref_display() {
        assert_eq!(ObjRef(3).to_string(), "obj#3");
    }
}
