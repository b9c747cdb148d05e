//! The bytecode VM: a dispatch loop over [`CompiledProgram`] code.
//!
//! The VM is the oracle's fast path.  It executes the flat instruction
//! streams produced by [`crate::compile`] with contiguous call frames
//! ([`crate::frame::FrameStack`]) and the arena-backed [`Heap`], and it
//! must be *observationally identical* to the tree-walking
//! [`crate::Interpreter`]: same [`ExecOutcome`], same step count, same
//! [`ExecError`] (including which limit a budget exhaustion reports and
//! at which statement it fires).  That guarantee rests on two pillars:
//!
//! * both engines charge the one shared [`StepBudget`]
//!   ([`crate::limits`]), so the accounting arithmetic cannot drift; and
//! * the lowering gives every ticking tree statement exactly one ticking
//!   instruction, and every non-ticking control transfer a non-ticking
//!   one ([`Instr::Jump`], [`Instr::LoopCond`], [`Instr::RetFall`]).
//!
//! `tests/vm_equivalence.rs` enforces the guarantee differentially.

use crate::builtins::BuiltinRegistry;
use crate::compile::{
    CompiledProgram, CompiledWitness, FastArg, FastBinOperand, FastBody, Instr, Reg,
};
use crate::eval::{eval_bin, ExecError, ExecOutcome, Executor};
use crate::frame::FrameStack;
use crate::heap::{Heap, ObjRef};
use crate::limits::{ExecLimits, StepBudget};
use crate::value::Value;
use atlas_ir::{ClassId, Constant, MethodId};

/// Result of dispatching a call: natives produce a value immediately,
/// compiled bodies push a frame — carrying its register base and code
/// slice so the dispatch loop resumes without a second method lookup.
enum Invoked<'p> {
    Value(Value),
    Frame(usize, &'p [Instr]),
}

/// Sentinel method id of the synthetic witness base frame (never used to
/// resolve code: the dispatch loop resolves the witness slice directly).
fn witness_frame_method() -> MethodId {
    MethodId::from_index(u32::MAX)
}

/// Reusable VM state: the arena heap, the register stack, and the
/// call-argument buffer.
///
/// A fresh VM starts from empty arenas and pays their growth in its first
/// executions.  A long-running caller (the oracle, which executes
/// thousands of short unit tests) instead keeps one `VmScratch` alive,
/// builds each per-test [`Vm`] with [`Vm::with_scratch`], and takes the
/// buffers back via [`Vm::into_scratch`]: the state is *cleared* between
/// tests (no values survive — engine equivalence is untouched) but the
/// allocations are kept, so steady-state execution allocates nothing.
#[derive(Debug, Default)]
pub struct VmScratch {
    heap: Heap,
    stack: FrameStack,
    args: Vec<Value>,
    /// Resolved builtin per method (indexed by [`MethodId`]); `None` for
    /// non-native methods and for natives absent from the registry.
    natives: Vec<Option<crate::builtins::BuiltinFn>>,
    /// The `(CompiledProgram::id, BuiltinRegistry::version)` pair the
    /// `natives` table was resolved against.  Unlike the other buffers,
    /// the table is *kept* across executions while this key matches —
    /// both ids are globally unique, so a match proves the resolution is
    /// still exact and native dispatch never re-hashes a method name.
    natives_key: Option<(u64, u64)>,
}

/// The bytecode execution engine.
///
/// A `Vm` borrows its (immutable, shareable) [`CompiledProgram`] and
/// [`BuiltinRegistry`]; all mutable state — heap, budget, frames — is
/// per-execution, so constructing a fresh `Vm` per unit test is cheap
/// and worker threads can share one compiled program behind an `Arc`.
/// Callers that execute many tests back to back should recycle the
/// mutable state through a [`VmScratch`].
#[derive(Debug)]
pub struct Vm<'p> {
    compiled: &'p CompiledProgram,
    heap: Heap,
    budget: StepBudget,
    stack: FrameStack,
    /// Scratch for marshalling call arguments, reused across calls.
    args: Vec<Value>,
    /// Pre-resolved builtin per method (see [`VmScratch`]): native
    /// dispatch indexes this table instead of hashing the method name.
    natives: Vec<Option<crate::builtins::BuiltinFn>>,
    natives_key: Option<(u64, u64)>,
}

impl<'p> Vm<'p> {
    /// Creates a VM over a compiled program with the given builtins and
    /// limits.
    pub fn new(
        compiled: &'p CompiledProgram,
        builtins: &'p BuiltinRegistry,
        limits: ExecLimits,
    ) -> Vm<'p> {
        Vm::with_scratch(compiled, builtins, limits, VmScratch::default())
    }

    /// Creates a VM that reuses the buffers of a previous execution (see
    /// [`VmScratch`]).  The scratch state is cleared; only its capacity
    /// carries over.
    pub fn with_scratch(
        compiled: &'p CompiledProgram,
        builtins: &'p BuiltinRegistry,
        limits: ExecLimits,
        mut scratch: VmScratch,
    ) -> Vm<'p> {
        scratch.heap.clear();
        scratch.stack.clear();
        scratch.args.clear();
        let key = (compiled.id(), builtins.version());
        if scratch.natives_key != Some(key) {
            scratch.natives.clear();
            scratch.natives.extend(
                compiled
                    .methods()
                    .map(|m| m.native().and_then(|n| builtins.lookup(n))),
            );
            scratch.natives_key = Some(key);
        }
        Vm {
            compiled,
            heap: scratch.heap,
            budget: StepBudget::new(limits),
            stack: scratch.stack,
            args: scratch.args,
            natives: scratch.natives,
            natives_key: scratch.natives_key,
        }
    }

    /// Clears the mutable state for a fresh execution — same program and
    /// builtins, new budget — keeping every buffer's capacity.  The
    /// cheapest way to run many unit tests back to back: where
    /// [`Vm::with_scratch`] moves the buffers through a [`VmScratch`] per
    /// execution, `reset` reuses them in place.
    pub fn reset(&mut self, limits: ExecLimits) {
        self.heap.clear();
        self.stack.clear();
        self.args.clear();
        self.budget = StepBudget::new(limits);
    }

    /// Consumes the VM and returns its buffers for reuse by the next one.
    pub fn into_scratch(self) -> VmScratch {
        VmScratch {
            heap: self.heap,
            stack: self.stack,
            args: self.args,
            natives: self.natives,
            natives_key: self.natives_key,
        }
    }

    /// Access to the heap (after execution), e.g. for inspecting effects.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The allocated capacities of every reusable buffer — `(heap
    /// arenas, (regs, frames), call-arg buffer)`.  The zero-allocation
    /// audit snapshots this between rounds: once the buffers reach their
    /// high-water mark, back-to-back rounds must not move any of these.
    pub fn arena_capacities(&self) -> ((usize, usize, usize), (usize, usize), usize) {
        (
            self.heap.capacities(),
            self.stack.capacities(),
            self.args.capacity(),
        )
    }

    /// Allocates a raw object of the given class on the heap without
    /// running a constructor (used by synthesized unit tests).
    pub fn alloc_object(&mut self, class: ClassId) -> ObjRef {
        self.heap.alloc(class)
    }

    /// Number of statements executed so far.
    pub fn steps(&self) -> usize {
        self.budget.steps()
    }

    /// Executes a static entry method with no arguments and returns its
    /// outcome.  Never panics on program errors; all failures are
    /// reported as [`ExecOutcome::Failed`].
    pub fn run_entry(&mut self, method: MethodId) -> ExecOutcome {
        match self.call_method(method, None, &[]) {
            Ok(v) => ExecOutcome::Returned(v),
            Err(e) => ExecOutcome::Failed(e),
        }
    }

    /// Executes a method call with the given receiver and arguments.
    pub fn call_method(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        debug_assert_eq!(self.stack.depth(), 0, "external call on an active VM");
        let result = match self.invoke(method, recv, args, 0, None) {
            Ok(Invoked::Value(v)) => Ok(v),
            Ok(Invoked::Frame(base, code)) => self.run_loop(base, code, None),
            Err(e) => Err(e),
        };
        if result.is_err() {
            // Unwind like the tree-walker: every live frame's depth charge
            // is released; steps already charged stay charged.
            while self.stack.depth() > 0 {
                self.stack.pop();
                self.budget.pop_frame();
            }
        }
        result
    }

    /// Executes a compiled witness to its verdict.
    ///
    /// The witness runs in a synthetic base frame that mirrors the
    /// tree-level harness exactly: the frame charges no call depth and
    /// the witness instructions charge no steps, so only the called
    /// method bodies tick — verdict, step count, and error identity with
    /// `atlas_synth`-level `execute_with` hold by construction.
    /// Between rounds, [`Vm::reset`] restores a fresh budget while
    /// keeping every buffer in place.
    pub fn run_witness(&mut self, witness: &CompiledWitness) -> Result<bool, ExecError> {
        debug_assert_eq!(self.stack.depth(), 0, "witness run on an active VM");
        // No budget.push_frame: the harness level is depth 0.
        self.stack.push_with_args(
            witness_frame_method(),
            witness.num_regs,
            0,
            None,
            None,
            &[],
            0,
        );
        match self.run_loop(0, &witness.code, Some(&witness.code)) {
            Ok(v) => {
                debug_assert_eq!(self.stack.depth(), 1, "witness left frames behind");
                self.stack.pop();
                Ok(v.as_bool().expect("witness verdict is boolean"))
            }
            Err(e) => {
                // Unwind method frames with their depth charges, then the
                // synthetic witness frame without one.
                while self.stack.depth() > 1 {
                    self.stack.pop();
                    self.budget.pop_frame();
                }
                self.stack.pop();
                Err(e)
            }
        }
    }

    /// Dispatches an external call (entry points and the [`Executor`]
    /// bridge): depth check, native dispatch, receiver checks, then frame
    /// setup — in exactly the tree-walker's order, so every error path
    /// reports the same [`ExecError`].
    #[inline]
    fn invoke(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: &[Value],
        ret_ip: usize,
        dst: Option<Reg>,
    ) -> Result<Invoked<'p>, ExecError> {
        self.budget.check_depth()?;
        let compiled = self.compiled;
        let cm = compiled.method(method);
        if let Some(name) = cm.native() {
            let builtin = self.natives[method.index() as usize]
                .ok_or_else(|| ExecError::MissingBuiltin(name.to_string()))?;
            return builtin(&mut self.heap, recv, args).map(Invoked::Value);
        }
        let recv_val = if cm.has_this {
            let v = recv.ok_or_else(|| ExecError::TypeError("missing receiver".into()))?;
            if v.is_null() {
                return Err(ExecError::NullPointer);
            }
            Some(v)
        } else {
            None
        };
        self.budget.push_frame();
        let base = self.stack.push_with_args(
            method,
            cm.num_regs,
            ret_ip,
            dst,
            recv_val,
            args,
            cm.num_params,
        );
        Ok(Invoked::Frame(base, cm.code()))
    }

    /// Dispatches an in-loop call site: the same check order as
    /// [`Vm::invoke`] — depth, native dispatch, receiver checks, frame
    /// setup — but arguments of non-native callees are copied straight
    /// from the caller's register window into the callee's, skipping the
    /// marshalling buffer (one clone per value instead of two).  The
    /// buffer detour survives only for natives, whose ABI takes a value
    /// slice.  Argument reads are pure, so moving them after the depth
    /// check cannot reorder any observable effect.
    ///
    /// Callees classified as a [`FastBody`] execute inline without a
    /// frame push (the dominant javalib callee is one instruction plus a
    /// return); the budget still sees the same depth charge and the same
    /// ticks in the same order.
    #[inline]
    fn invoke_site(
        &mut self,
        site: &crate::compile::CallSite,
        base: usize,
        ret_ip: usize,
    ) -> Result<Invoked<'p>, ExecError> {
        self.budget.check_depth()?;
        let compiled = self.compiled;
        let cm = compiled.method(site.method);
        if let Some(name) = cm.native() {
            let builtin = self.natives[site.method.index() as usize]
                .ok_or_else(|| ExecError::MissingBuiltin(name.to_string()))?;
            let recv = site.recv.map(|r| self.rd(base, r));
            let mut args = std::mem::take(&mut self.args);
            args.clear();
            args.extend(site.args.iter().map(|&a| self.rd(base, a)));
            let out = builtin(&mut self.heap, recv, &args);
            self.args = args;
            return out.map(Invoked::Value);
        }
        let recv = if cm.has_this {
            let r = site
                .recv
                .ok_or_else(|| ExecError::TypeError("missing receiver".into()))?;
            if self.stack.regs[base + r as usize].is_null() {
                return Err(ExecError::NullPointer);
            }
            Some(r)
        } else {
            None
        };
        if let Some(fast) = cm.fast() {
            self.budget.push_frame();
            let out = self.fast_body(fast, site, base, recv);
            self.budget.pop_frame();
            return out.map(Invoked::Value);
        }
        self.budget.push_frame();
        let callee_base = self.stack.push_from_regs(
            site.method,
            cm.num_regs,
            ret_ip,
            site.dst,
            base,
            recv,
            &site.args,
            cm.num_params,
        );
        Ok(Invoked::Frame(callee_base, cm.code()))
    }

    /// The dispatch loop: executes the frame at `(base, code)` — and
    /// every frame it pushes — to completion.  In witness mode
    /// (`witness` is the lowered witness slice), the bottom frame's code
    /// is the witness itself and a [`Instr::WVerdict`] terminates the
    /// run.
    fn run_loop<'w>(
        &mut self,
        base: usize,
        code: &'w [Instr],
        witness: Option<&'w [Instr]>,
    ) -> Result<Value, ExecError>
    where
        'p: 'w,
    {
        let mut base = base;
        let mut code = code;
        let mut ip = 0usize;
        loop {
            match &code[ip] {
                Instr::Move { dst, src } => {
                    self.tick()?;
                    let v = self.rd(base, *src);
                    self.wr(base, *dst, v);
                }
                Instr::Const { dst, value } => {
                    self.tick()?;
                    self.wr(base, *dst, const_value(value));
                }
                Instr::NewObj { dst, class } => {
                    self.tick()?;
                    let r = self.heap.alloc(*class);
                    self.wr(base, *dst, Value::Ref(r));
                }
                Instr::NewArr { dst, len } => {
                    self.tick()?;
                    let len = self
                        .rr(base, *len)
                        .as_int()
                        .ok_or_else(|| ExecError::TypeError("array length must be int".into()))?;
                    if len < 0 {
                        return Err(ExecError::IndexOutOfBounds);
                    }
                    let r = self.heap.alloc_array(len as usize);
                    self.wr(base, *dst, Value::Ref(r));
                }
                Instr::Load { dst, obj, field } => {
                    self.tick()?;
                    let r = self.rr(base, *obj).as_ref().ok_or(ExecError::NullPointer)?;
                    let v = self.heap.read_field(r, *field);
                    self.wr(base, *dst, v);
                }
                Instr::Store { obj, field, src } => {
                    self.tick()?;
                    let r = self.rr(base, *obj).as_ref().ok_or(ExecError::NullPointer)?;
                    let v = self.rd(base, *src);
                    self.heap.write_field(r, *field, v);
                }
                Instr::ArrLoad { dst, arr, index } => {
                    self.tick()?;
                    let r = self.rr(base, *arr).as_ref().ok_or(ExecError::NullPointer)?;
                    let i = self
                        .rr(base, *index)
                        .as_int()
                        .ok_or_else(|| ExecError::TypeError("array index must be int".into()))?;
                    let v = self
                        .heap
                        .read_element(r, i)
                        .ok_or(ExecError::IndexOutOfBounds)?;
                    self.wr(base, *dst, v);
                }
                Instr::ArrStore { arr, index, src } => {
                    self.tick()?;
                    let r = self.rr(base, *arr).as_ref().ok_or(ExecError::NullPointer)?;
                    let i = self
                        .rr(base, *index)
                        .as_int()
                        .ok_or_else(|| ExecError::TypeError("array index must be int".into()))?;
                    let v = self.rd(base, *src);
                    if !self.heap.write_element(r, i, v) {
                        return Err(ExecError::IndexOutOfBounds);
                    }
                }
                Instr::ArrLen { dst, arr } => {
                    self.tick()?;
                    let r = self.rr(base, *arr).as_ref().ok_or(ExecError::NullPointer)?;
                    let len = self
                        .heap
                        .array_len(r)
                        .ok_or_else(|| ExecError::TypeError("length of non-array".into()))?;
                    self.wr(base, *dst, Value::Int(len as i64));
                }
                Instr::Bin { dst, op, a, b } => {
                    self.tick()?;
                    let v = eval_bin(*op, self.rr(base, *a), self.rr(base, *b))?;
                    self.wr(base, *dst, v);
                }
                Instr::RefEq { dst, a, b } => {
                    self.tick()?;
                    let eq = self.rr(base, *a).ref_eq(self.rr(base, *b));
                    self.wr(base, *dst, Value::Bool(eq));
                }
                Instr::IsNull { dst, a } => {
                    self.tick()?;
                    let is_null = self.rr(base, *a).is_null();
                    self.wr(base, *dst, Value::Bool(is_null));
                }
                Instr::Not { dst, a } => {
                    self.tick()?;
                    let v = self
                        .rr(base, *a)
                        .as_bool()
                        .ok_or_else(|| ExecError::TypeError("! of non-boolean".into()))?;
                    self.wr(base, *dst, Value::Bool(!v));
                }
                Instr::Call(site) => {
                    self.tick()?;
                    match self.invoke_site(site, base, ip + 1)? {
                        Invoked::Value(v) => {
                            if let Some(d) = site.dst {
                                self.wr(base, d, v);
                            }
                            ip += 1;
                        }
                        Invoked::Frame(b, c) => {
                            (base, code, ip) = (b, c, 0);
                        }
                    }
                    continue;
                }
                Instr::Branch { cond, else_target } => {
                    self.tick()?;
                    let c = self.rr(base, *cond).as_bool().ok_or_else(|| {
                        ExecError::TypeError("if condition must be boolean".into())
                    })?;
                    ip = if c { ip + 1 } else { *else_target as usize };
                    continue;
                }
                Instr::Jump { target } => {
                    ip = *target as usize;
                    continue;
                }
                Instr::LoopEnter => {
                    self.tick()?;
                }
                Instr::LoopCond { cond, exit_target } => {
                    let c = self.rr(base, *cond).as_bool().ok_or_else(|| {
                        ExecError::TypeError("while condition must be boolean".into())
                    })?;
                    ip = if c { ip + 1 } else { *exit_target as usize };
                    continue;
                }
                Instr::LoopJump { target } => {
                    self.tick()?;
                    ip = *target as usize;
                    continue;
                }
                Instr::Ret { src } => {
                    self.tick()?;
                    let v = self.rd(base, *src);
                    match self.ret(v, witness) {
                        Ok((b, c, i)) => (base, code, ip) = (b, c, i),
                        Err(v) => return Ok(v),
                    }
                    continue;
                }
                Instr::RetVoid => {
                    self.tick()?;
                    match self.ret(Value::Void, witness) {
                        Ok((b, c, i)) => (base, code, ip) = (b, c, i),
                        Err(v) => return Ok(v),
                    }
                    continue;
                }
                Instr::RetFall => {
                    match self.ret(Value::Void, witness) {
                        Ok((b, c, i)) => (base, code, ip) = (b, c, i),
                        Err(v) => return Ok(v),
                    }
                    continue;
                }
                Instr::Throw { message } => {
                    self.tick()?;
                    return Err(ExecError::Thrown(message.clone()));
                }
                Instr::WConst { dst, value } => {
                    self.wr(base, *dst, const_value(value));
                }
                Instr::WAlloc { dst, class } => {
                    let r = self.heap.alloc(*class);
                    self.wr(base, *dst, Value::Ref(r));
                }
                Instr::WCall(site) => {
                    // A top-level witness call: no tick for the call
                    // itself, exactly like the external harness.
                    match self.invoke_site(site, base, ip + 1)? {
                        Invoked::Value(v) => {
                            if let Some(d) = site.dst {
                                self.wr(base, d, v);
                            }
                            ip += 1;
                        }
                        Invoked::Frame(b, c) => {
                            (base, code, ip) = (b, c, 0);
                        }
                    }
                    continue;
                }
                Instr::WVerdict { a, b } => {
                    let av = self.rr(base, *a);
                    let bv = self.rr(base, *b);
                    return Ok(Value::Bool(!av.is_null() && av.ref_eq(bv)));
                }
            }
            ip += 1;
        }
    }

    /// Returns `v` from the top frame.  `Ok((base, code, ip))` resumes
    /// the caller; `Err(v)` means the outermost frame returned `v` and
    /// the dispatch loop is done.  In witness mode, resuming the bottom
    /// frame resolves to the witness slice instead of a compiled method.
    #[allow(clippy::type_complexity)]
    #[inline]
    fn ret<'w>(
        &mut self,
        v: Value,
        witness: Option<&'w [Instr]>,
    ) -> Result<(usize, &'w [Instr], usize), Value>
    where
        'p: 'w,
    {
        let compiled = self.compiled;
        let popped = self.stack.pop();
        self.budget.pop_frame();
        if let Some(top) = self.stack.frames.last() {
            let base = top.base;
            let code = match witness {
                Some(w) if self.stack.frames.len() == 1 => w,
                _ => compiled.method(top.method).code(),
            };
            if let Some(d) = popped.dst {
                self.wr(base, d, v);
            }
            Ok((base, code, popped.ret_ip))
        } else {
            Err(v)
        }
    }

    /// Executes a [`FastBody`] against the caller's frame.  Each arm
    /// replays its instruction sequence's exact tick/check order, so the
    /// step count and every error path are identical to dispatching the
    /// body instruction by instruction in a pushed frame.
    #[inline]
    fn fast_body(
        &mut self,
        fast: &FastBody,
        site: &crate::compile::CallSite,
        base: usize,
        recv: Option<Reg>,
    ) -> Result<Value, ExecError> {
        match fast {
            FastBody::RetArg(src) => {
                self.tick()?; // Ret
                Ok(self.fast_read(site, base, recv, *src).clone())
            }
            FastBody::RetConst(c) => {
                self.tick()?; // Const
                self.tick()?; // Ret
                Ok(const_value(c))
            }
            FastBody::Getter { obj, field } => {
                self.tick()?; // Load
                let r = self
                    .fast_read(site, base, recv, *obj)
                    .as_ref()
                    .ok_or(ExecError::NullPointer)?;
                let v = self.heap.read_field(r, *field);
                self.tick()?; // Ret
                Ok(v)
            }
            FastBody::Setter { obj, field, src } => {
                self.tick()?; // Store
                let r = self
                    .fast_read(site, base, recv, *obj)
                    .as_ref()
                    .ok_or(ExecError::NullPointer)?;
                let v = self.fast_read(site, base, recv, *src).clone();
                self.heap.write_field(r, *field, v);
                Ok(Value::Void) // fall-off return: no tick
            }
            FastBody::RefEq { a, b } => {
                self.tick()?; // RefEq
                let eq = self
                    .fast_read(site, base, recv, *a)
                    .ref_eq(self.fast_read(site, base, recv, *b));
                self.tick()?; // Ret
                Ok(Value::Bool(eq))
            }
            FastBody::NewObjRet(class) => {
                self.tick()?; // NewObj
                let r = self.heap.alloc(*class);
                self.tick()?; // Ret — sees the grown heap, like slow dispatch
                Ok(Value::Ref(r))
            }
            FastBody::ConstBinRet { value, op, a, b } => {
                self.tick()?; // Const
                self.tick()?; // Bin
                let cv = const_value(value);
                let av = match a {
                    FastBinOperand::Lit => &cv,
                    FastBinOperand::Arg(x) => self.fast_read(site, base, recv, *x),
                };
                let bv = match b {
                    FastBinOperand::Lit => &cv,
                    FastBinOperand::Arg(x) => self.fast_read(site, base, recv, *x),
                };
                let v = eval_bin(*op, av, bv)?;
                self.tick()?; // Ret
                Ok(v)
            }
        }
    }

    /// Resolves a [`FastArg`] against the call site: `This` and `Param`
    /// read the caller's registers (exactly the values a pushed frame
    /// would have copied in), `Null` is what a fresh frame holds in
    /// every other slot.
    #[inline]
    fn fast_read(
        &self,
        site: &crate::compile::CallSite,
        base: usize,
        recv: Option<Reg>,
        arg: FastArg,
    ) -> &Value {
        static NULL: Value = Value::Null;
        match arg {
            FastArg::This => {
                let r = recv.expect("fast body reads `this` of a receiverless callee");
                self.rr(base, r)
            }
            FastArg::Param(p) => match site.args.get(p as usize) {
                Some(&r) => self.rr(base, r),
                None => &NULL,
            },
            FastArg::Null => &NULL,
        }
    }

    #[inline]
    fn tick(&mut self) -> Result<(), ExecError> {
        self.budget.tick(self.heap.len())
    }

    #[inline]
    fn rd(&self, base: usize, r: Reg) -> Value {
        self.stack.regs[base + r as usize].clone()
    }

    /// Reads a register in place — the dispatch arms that only inspect a
    /// value (`as_int`, `as_bool`, `as_ref`, equality) borrow it instead
    /// of cloning 24 bytes per operand.
    #[inline]
    fn rr(&self, base: usize, r: Reg) -> &Value {
        &self.stack.regs[base + r as usize]
    }

    #[inline]
    fn wr(&mut self, base: usize, r: Reg, v: Value) {
        self.stack.regs[base + r as usize] = v;
    }
}

impl Executor for Vm<'_> {
    fn alloc_object(&mut self, class: ClassId) -> ObjRef {
        Vm::alloc_object(self, class)
    }

    fn call_method(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        Vm::call_method(self, method, recv, args)
    }

    fn steps(&self) -> usize {
        Vm::steps(self)
    }
}

/// Materializes a constant operand as a runtime value.
fn const_value(c: &Constant) -> Value {
    match c {
        Constant::Null => Value::Null,
        Constant::Int(i) => Value::Int(*i),
        Constant::Bool(b) => Value::Bool(*b),
        Constant::Char(ch) => Value::Char(*ch),
        Constant::Str(s) => Value::Str(s.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Interpreter;
    use atlas_ir::builder::ProgramBuilder;
    use atlas_ir::{BinOp, Program, Type};

    /// Box library + a client test exercising calls, loops, arrays.
    fn box_program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.library(true);
        c.field("f", Type::object());
        let mut set = c.method("set");
        let this = set.this();
        let ob = set.param("ob", Type::object());
        set.store(this, "f", ob);
        set.finish();
        let mut get = c.method("get");
        get.returns(Type::object());
        let this = get.this();
        let r = get.local("r", Type::object());
        get.load(r, this, "f");
        get.ret(Some(r));
        get.finish();
        c.build();
        let mut main = pb.class("Main");
        let mut t = main.static_method("test");
        t.returns(Type::Bool);
        let in_v = t.local("in", Type::object());
        let box_v = t.local("box", Type::class("Box"));
        let out_v = t.local("out", Type::object());
        let eq = t.local("eq", Type::Bool);
        let obj = t.cref("Object");
        let boxc = t.cref("Box");
        t.new_object(in_v, obj);
        t.new_object(box_v, boxc);
        let set = t.mref("Box", "set");
        let get = t.mref("Box", "get");
        t.call(None, set, Some(box_v), &[in_v]);
        t.call(Some(out_v), get, Some(box_v), &[]);
        t.ref_eq(eq, in_v, out_v);
        t.ret(Some(eq));
        t.finish();
        // A looping method: sums 0..n via a while loop.
        let mut s = main.static_method("sum");
        s.returns(Type::Int);
        let i = s.local("i", Type::Int);
        let n = s.local("n", Type::Int);
        let acc = s.local("acc", Type::Int);
        let cond = s.local("cond", Type::Bool);
        let one = s.local("one", Type::Int);
        s.const_int(i, 0);
        s.const_int(n, 5);
        s.const_int(acc, 0);
        s.const_int(one, 1);
        s.while_stmt(
            |m| {
                m.bin(cond, BinOp::Lt, i, n);
                cond
            },
            |m| {
                m.bin(acc, BinOp::Add, acc, i);
                m.bin(i, BinOp::Add, i, one);
            },
        );
        s.ret(Some(acc));
        s.finish();
        main.build();
        pb.build()
    }

    fn both_engines(p: &Program, name: &str) -> (ExecOutcome, usize, ExecOutcome, usize) {
        let m = p.method_qualified(name).unwrap();
        let mut tree = Interpreter::new(p);
        let t_out = tree.run_entry(m);
        let compiled = CompiledProgram::compile(p);
        let builtins = BuiltinRegistry::with_defaults();
        let mut vm = Vm::new(&compiled, &builtins, ExecLimits::default());
        let v_out = vm.run_entry(m);
        (t_out, tree.steps(), v_out, vm.steps())
    }

    #[test]
    fn box_round_trip_matches_tree_walker() {
        let p = box_program();
        let (t_out, t_steps, v_out, v_steps) = both_engines(&p, "Main.test");
        assert!(v_out.is_true(), "{v_out:?}");
        assert_eq!(t_out, v_out);
        assert_eq!(t_steps, v_steps);
    }

    #[test]
    fn loop_steps_match_tree_walker() {
        let p = box_program();
        let (t_out, t_steps, v_out, v_steps) = both_engines(&p, "Main.sum");
        assert_eq!(t_out, ExecOutcome::Returned(Value::Int(10)));
        assert_eq!(t_out, v_out);
        assert_eq!(t_steps, v_steps);
    }

    #[test]
    fn infinite_loop_hits_step_limit_at_same_statement() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut main = pb.class("Main");
        let mut t = main.static_method("spin");
        let c = t.local("c", Type::Bool);
        t.const_bool(c, true);
        t.while_stmt(|_| c, |_| {});
        t.finish();
        main.build();
        let p = pb.build();
        let spin = p.method_qualified("Main.spin").unwrap();
        let limits = ExecLimits {
            max_steps: 100,
            max_call_depth: 8,
            max_heap_objects: 10,
        };
        let mut tree = Interpreter::with_config(&p, BuiltinRegistry::with_defaults(), limits);
        let t_out = tree.run_entry(spin);
        let compiled = CompiledProgram::compile(&p);
        let builtins = BuiltinRegistry::with_defaults();
        let mut vm = Vm::new(&compiled, &builtins, limits);
        let v_out = vm.run_entry(spin);
        assert_eq!(
            t_out,
            ExecOutcome::Failed(ExecError::LimitExceeded("steps"))
        );
        assert_eq!(t_out, v_out);
        // The shared StepBudget exhausts at the same statement.
        assert_eq!(tree.steps(), vm.steps());
        // After unwinding, the VM is reusable state-wise (frames drained).
        assert_eq!(vm.stack.depth(), 0);
    }

    #[test]
    fn null_receiver_and_missing_builtin_errors_match() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.library(true);
        let mut get = c.method("get");
        get.returns(Type::object());
        get.this();
        get.finish();
        c.build();
        let mut nat = pb.class("Nat");
        nat.library(true);
        let mut f = nat.static_method("mystery");
        f.native(true);
        f.finish();
        nat.build();
        let p = pb.build();
        let get = p.method_qualified("Box.get").unwrap();
        let mystery = p.method_qualified("Nat.mystery").unwrap();
        let compiled = CompiledProgram::compile(&p);
        let builtins = BuiltinRegistry::with_defaults();
        let mut vm = Vm::new(&compiled, &builtins, ExecLimits::default());
        assert_eq!(
            vm.call_method(get, Some(Value::Null), &[]),
            Err(ExecError::NullPointer)
        );
        assert_eq!(
            vm.call_method(get, None, &[]),
            Err(ExecError::TypeError("missing receiver".into()))
        );
        assert_eq!(
            vm.call_method(mystery, None, &[]),
            Err(ExecError::MissingBuiltin("Nat.mystery".into()))
        );
        // All three match the tree-walker verbatim.
        let mut tree = Interpreter::new(&p);
        assert_eq!(
            tree.call_method(get, Some(Value::Null), &[]),
            Err(ExecError::NullPointer)
        );
        assert_eq!(
            tree.call_method(get, None, &[]),
            Err(ExecError::TypeError("missing receiver".into()))
        );
        assert_eq!(
            tree.call_method(mystery, None, &[]),
            Err(ExecError::MissingBuiltin("Nat.mystery".into()))
        );
    }

    #[test]
    fn executor_trait_drives_both_engines() {
        let p = box_program();
        let test = p.method_qualified("Main.test").unwrap();
        fn run(e: &mut dyn Executor, m: atlas_ir::MethodId) -> (Result<Value, ExecError>, usize) {
            let r = e.call_method(m, None, &[]);
            (r, e.steps())
        }
        let mut tree = Interpreter::new(&p);
        let compiled = CompiledProgram::compile(&p);
        let builtins = BuiltinRegistry::with_defaults();
        let mut vm = Vm::new(&compiled, &builtins, ExecLimits::default());
        let (tr, ts) = run(&mut tree, test);
        let (vr, vs) = run(&mut vm, test);
        assert_eq!(tr, vr);
        assert_eq!(ts, vs);
        // Raw allocation through the trait works on both engines.
        let class = p.class_named("Object").unwrap();
        let a = Executor::alloc_object(&mut tree, class);
        let b = Executor::alloc_object(&mut vm, class);
        assert_eq!(a.0, b.0);
        assert!(!vm.heap().is_empty());
    }
}
