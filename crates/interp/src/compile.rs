//! One-pass lowering from [`atlas_ir::Stmt`] bodies to flat bytecode.
//!
//! Each method body becomes a single `Vec<Instr>`: nested `If`/`While`
//! blocks are flattened into basic blocks with jump targets resolved to
//! instruction indices, and the `Var`-keyed environment becomes dense
//! register slots (a register window per call frame, see
//! [`crate::frame`]).  The [`CompiledProgram`] is built once per library
//! and shared read-only across every execution — and, behind an `Arc`,
//! across every worker thread of an inference session.
//!
//! The lowering is engineered so the VM charges the step budget at
//! exactly the statements the tree-walking interpreter does (see the
//! module docs of [`crate::vm`] for the tick discipline): every control
//! instruction below documents whether it ticks.

use atlas_ir::{BinOp, ClassId, Constant, FieldId, MethodId, Program, Stmt, Var};

/// A register index within the current call frame's window.
pub type Reg = u32;

/// The callee, operands, and destination of a [`Instr::Call`].
///
/// Boxed behind the instruction to keep the common data-instruction
/// variants small.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// The statically resolved callee.
    pub method: MethodId,
    /// The receiver register, absent for static calls.
    pub recv: Option<Reg>,
    /// Argument registers, in declaration order.
    pub args: Vec<Reg>,
    /// Destination register for the return value, if bound.
    pub dst: Option<Reg>,
}

/// One bytecode instruction.
///
/// Every instruction charges one step on execution ("ticks"), mirroring
/// the tree-walker's per-statement accounting, except the pure
/// control-transfer instructions that have no statement counterpart:
/// [`Instr::Jump`], [`Instr::LoopCond`], and [`Instr::RetFall`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = src`.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = constant`.
    Const {
        /// Destination register.
        dst: Reg,
        /// The literal value.
        value: Constant,
    },
    /// `dst = new C()` (no constructor call).
    NewObj {
        /// Destination register.
        dst: Reg,
        /// Class of the allocated object.
        class: ClassId,
    },
    /// `dst = new T[len]`.
    NewArr {
        /// Destination register.
        dst: Reg,
        /// Register holding the array length.
        len: Reg,
    },
    /// `dst = obj.field`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Register holding the object reference.
        obj: Reg,
        /// The field read.
        field: FieldId,
    },
    /// `obj.field = src`.
    Store {
        /// Register holding the object reference.
        obj: Reg,
        /// The field written.
        field: FieldId,
        /// Register holding the stored value.
        src: Reg,
    },
    /// `dst = arr[index]`.
    ArrLoad {
        /// Destination register.
        dst: Reg,
        /// Register holding the array reference.
        arr: Reg,
        /// Register holding the element index.
        index: Reg,
    },
    /// `arr[index] = src`.
    ArrStore {
        /// Register holding the array reference.
        arr: Reg,
        /// Register holding the element index.
        index: Reg,
        /// Register holding the stored value.
        src: Reg,
    },
    /// `dst = arr.length`.
    ArrLen {
        /// Destination register.
        dst: Reg,
        /// Register holding the array reference.
        arr: Reg,
    },
    /// `dst = a <op> b`.
    Bin {
        /// Destination register.
        dst: Reg,
        /// The operator.
        op: BinOp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `dst = (a == b)` — reference identity.
    RefEq {
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `dst = (a == null)`.
    IsNull {
        /// Destination register.
        dst: Reg,
        /// The register tested.
        a: Reg,
    },
    /// `dst = !a`.
    Not {
        /// Destination register.
        dst: Reg,
        /// The operand register.
        a: Reg,
    },
    /// A statically resolved call (lowered from [`Stmt::Call`]).
    Call(Box<CallSite>),
    /// The ticking conditional of a lowered `If`: falls through into the
    /// then-block when `cond` is true, jumps to `else_target` otherwise.
    Branch {
        /// Register holding the branch condition.
        cond: Reg,
        /// Instruction index of the else-block.
        else_target: u32,
    },
    /// Unconditional jump (end of a then-block).  Does **not** tick: it
    /// has no statement counterpart in the tree.
    Jump {
        /// Destination instruction index.
        target: u32,
    },
    /// Entry marker of a lowered `While`: ticks once, for the `While`
    /// statement's own entry charge, then falls through to the header.
    LoopEnter,
    /// The loop condition test: falls through into the body when `cond`
    /// is true, jumps to `exit_target` otherwise.  Does **not** tick —
    /// the tree-walker reads the condition without charging a step.
    LoopCond {
        /// Register holding the loop condition.
        cond: Reg,
        /// Instruction index just past the loop.
        exit_target: u32,
    },
    /// Back-edge of a lowered `While`: ticks (the tree-walker charges one
    /// step per completed iteration) and jumps to the header.
    LoopJump {
        /// Instruction index of the loop header.
        target: u32,
    },
    /// `return src`.
    Ret {
        /// Register holding the returned value.
        src: Reg,
    },
    /// `return` (void).
    RetVoid,
    /// Implicit return appended at the end of every body: returns `void`
    /// without ticking (falling off the end is not a statement).
    RetFall,
    /// `throw` — aborts the execution with [`crate::ExecError::Thrown`].
    Throw {
        /// The exception message.
        message: String,
    },

    // --- Witness-prologue instructions (see [`CompiledWitness`]). ---
    //
    // These mirror the oracle's *external* test harness, which the
    // tree-walker never charges steps for: marshalling a literal,
    // allocating a receiver without a constructor, and issuing a
    // top-level call are all free; only the statements *inside* called
    // method bodies tick. None of these instructions tick.
    /// `dst = literal` — marshals a witness argument. Does **not** tick.
    WConst {
        /// Destination register.
        dst: Reg,
        /// The literal value.
        value: Constant,
    },
    /// `dst = new C()` — raw receiver allocation, no constructor, no
    /// heap-budget charge (checked at the next ticking statement, exactly
    /// like the tree-level harness). Does **not** tick.
    WAlloc {
        /// Destination register.
        dst: Reg,
        /// Class of the allocated object.
        class: ClassId,
    },
    /// A top-level witness call. Does **not** tick for the call itself
    /// (the external harness never does); the callee's body ticks as
    /// usual and its frame charges call depth as usual.
    WCall(Box<CallSite>),
    /// Terminal verdict extraction: the witness passes iff `a` is
    /// non-null and `a` and `b` are the same reference. Does **not**
    /// tick; ends the witness run.
    WVerdict {
        /// Register holding the tracked input object.
        a: Reg,
        /// Register holding the observed output.
        b: Reg,
    },
}

/// How a [`FastBody`] operand resolves against the *caller's* frame: the
/// callee's argument registers map straight onto the call site's
/// receiver/argument registers, and every other register reads as the
/// `null` a freshly pushed frame would hold in that slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FastArg {
    /// The callee's `this` register — the site's (already checked)
    /// receiver register.
    This,
    /// The callee's n-th parameter register — the site's n-th argument
    /// register, or `null` when the site passes fewer arguments.
    Param(u32),
    /// A slot a fresh frame would initialize to `null`: a parameter
    /// position past the site's arguments or an unwritten local.
    Null,
}

/// A trivial method body the VM executes inline at the call site without
/// pushing a register frame (see `Vm::invoke_site`).
///
/// Every shape reads its operands *before* any write, so the operand
/// values are exactly what a pushed frame would have copied.  Each
/// shape's execution replays the precise tick/check sequence of its
/// instruction sequence — budget charges, step counts, and error identity
/// are the same as dispatching the body, by construction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FastBody {
    /// `[Ret src; RetFall]` — returns an argument (identity methods,
    /// `return this`) or `null`.
    RetArg(FastArg),
    /// `[Const dst v; Ret dst; RetFall]` — returns a literal.
    RetConst(Constant),
    /// `[Load dst obj f; Ret dst; RetFall]` — a getter.
    Getter {
        /// The object operand.
        obj: FastArg,
        /// The field read.
        field: FieldId,
    },
    /// `[Store obj f src; RetFall]` — a setter with a fall-off return.
    Setter {
        /// The object operand.
        obj: FastArg,
        /// The field written.
        field: FieldId,
        /// The stored value.
        src: FastArg,
    },
    /// `[RefEq dst a b; Ret dst; RetFall]` — `equals`-shaped bodies.
    RefEq {
        /// Left operand.
        a: FastArg,
        /// Right operand.
        b: FastArg,
    },
    /// `[NewObj dst C; Ret dst; RetFall]` — factory bodies.
    NewObjRet(ClassId),
    /// `[Const c v; Bin dst op a b; Ret dst; RetFall]` — arithmetic
    /// against a literal (`return x + 1` shapes).
    ConstBinRet {
        /// The literal the leading `Const` wrote.
        value: Constant,
        /// The operator.
        op: BinOp,
        /// Left operand.
        a: FastBinOperand,
        /// Right operand.
        b: FastBinOperand,
    },
}

/// One operand of a [`FastBody::ConstBinRet`]: either the body's literal
/// (the `Const` destination register, which the `Bin` reads *after* the
/// write) or an argument resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FastBinOperand {
    /// The body's literal.
    Lit,
    /// A register untouched by the `Const` — an argument or `null`.
    Arg(FastArg),
}

/// Maps a callee register to its [`FastArg`] resolution given the
/// callee's frame layout (`this` at 0 when present, then parameters).
fn fast_arg(r: Reg, has_this: bool, num_params: usize) -> FastArg {
    if has_this && r == 0 {
        FastArg::This
    } else {
        let p = r - has_this as u32;
        if (p as usize) < num_params {
            FastArg::Param(p)
        } else {
            FastArg::Null
        }
    }
}

/// Classifies a lowered body as a [`FastBody`] if it matches one of the
/// inlinable shapes.  The trailing [`Instr::RetFall`] every compiled body
/// carries is part of each pattern.
fn classify_fast(code: &[Instr], has_this: bool, num_params: usize) -> Option<FastBody> {
    let arg = |r: &Reg| fast_arg(*r, has_this, num_params);
    match code {
        [Instr::Ret { src }, Instr::RetFall] => Some(FastBody::RetArg(arg(src))),
        [Instr::Const { dst, value }, Instr::Ret { src }, Instr::RetFall] if dst == src => {
            Some(FastBody::RetConst(value.clone()))
        }
        [Instr::Load { dst, obj, field }, Instr::Ret { src }, Instr::RetFall] if dst == src => {
            Some(FastBody::Getter {
                obj: arg(obj),
                field: *field,
            })
        }
        [Instr::Store { obj, field, src }, Instr::RetFall] => Some(FastBody::Setter {
            obj: arg(obj),
            field: *field,
            src: arg(src),
        }),
        [Instr::RefEq { dst, a, b }, Instr::Ret { src }, Instr::RetFall] if dst == src => {
            Some(FastBody::RefEq {
                a: arg(a),
                b: arg(b),
            })
        }
        [Instr::NewObj { dst, class }, Instr::Ret { src }, Instr::RetFall] if dst == src => {
            Some(FastBody::NewObjRet(*class))
        }
        [Instr::Const { dst: c, value }, Instr::Bin { dst, op, a, b }, Instr::Ret { src }, Instr::RetFall]
            if dst == src =>
        {
            let operand = |r: &Reg| {
                if r == c {
                    FastBinOperand::Lit
                } else {
                    FastBinOperand::Arg(fast_arg(*r, has_this, num_params))
                }
            };
            Some(FastBody::ConstBinRet {
                value: value.clone(),
                op: *op,
                a: operand(a),
                b: operand(b),
            })
        }
        _ => None,
    }
}

/// A method lowered to bytecode.
#[derive(Debug, Clone)]
pub struct CompiledMethod {
    pub(crate) code: Vec<Instr>,
    pub(crate) num_regs: u32,
    pub(crate) has_this: bool,
    pub(crate) num_params: usize,
    /// For native methods: the qualified `Class.method` name used to look
    /// up the builtin, precomputed so calls skip the per-call `format!`.
    pub(crate) native: Option<String>,
    /// The inline-execution shape, when the body is trivial (see
    /// [`FastBody`]).
    pub(crate) fast: Option<FastBody>,
}

impl CompiledMethod {
    /// The lowered instruction sequence (empty for native methods).
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Size of the register window a frame for this method needs.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// The precomputed qualified name, for native methods.
    pub fn native(&self) -> Option<&str> {
        self.native.as_deref()
    }

    /// The inline-execution shape, when the body is one of the trivial
    /// [`FastBody`] patterns.
    pub(crate) fn fast(&self) -> Option<&FastBody> {
        self.fast.as_ref()
    }
}

/// A whole program lowered to bytecode, indexed by [`MethodId`].
///
/// Built once per library with [`CompiledProgram::compile`]; execution
/// state lives entirely in the VM, so one `CompiledProgram` (behind an
/// `Arc`) serves any number of concurrent executions.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    methods: Vec<CompiledMethod>,
    /// Identity of this compilation: freshly drawn per [`CompiledProgram::compile`],
    /// shared by clones.  Keys the VM's resolved-builtin cache together
    /// with [`crate::BuiltinRegistry`]'s version.
    id: u64,
}

/// Source of unique compilation ids (see [`CompiledProgram::id`]).
static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl CompiledProgram {
    /// Lowers every method body of `program` to bytecode and classifies
    /// the trivial bodies the VM runs inline (see `Vm::invoke_site`).
    pub fn compile(program: &Program) -> CompiledProgram {
        let methods = (0..program.num_methods() as u32)
            .map(|i| compile_method(program, MethodId::from_index(i)))
            .collect();
        CompiledProgram {
            methods,
            id: NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// An identifier for this compilation (clones share it; each
    /// [`CompiledProgram::compile`] draws a fresh one).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Iterates over the compiled methods in [`MethodId`] index order.
    pub(crate) fn methods(&self) -> impl Iterator<Item = &CompiledMethod> {
        self.methods.iter()
    }

    /// The compiled form of a method.
    pub fn method(&self, id: MethodId) -> &CompiledMethod {
        &self.methods[id.index() as usize]
    }

    /// Number of compiled methods.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Total instruction count across all methods.
    pub fn total_instructions(&self) -> usize {
        self.methods.iter().map(|m| m.code.len()).sum()
    }

    /// Number of methods whose body classified as an inline-executable
    /// trivial shape (the VM runs these at the call site without a frame
    /// push; see `Vm::invoke_site`).
    pub fn num_fast_bodies(&self) -> usize {
        self.methods.iter().filter(|m| m.fast.is_some()).count()
    }
}

fn compile_method(program: &Program, id: MethodId) -> CompiledMethod {
    let m = program.method(id);
    if m.is_native() {
        return CompiledMethod {
            code: Vec::new(),
            num_regs: 0,
            has_this: m.has_this(),
            num_params: m.num_params(),
            native: Some(program.qualified_name(id)),
            fast: None,
        };
    }
    // The tree-walker's environment resizes on out-of-range writes and
    // reads missing slots as `null`; sizing the window to the largest
    // register mentioned anywhere in the body reproduces both behaviors
    // with a flat, pre-sized window.
    let mut num_regs = m.num_vars() as u32;
    atlas_ir::visit_block(m.body(), &mut |s| {
        for v in stmt_vars(s) {
            num_regs = num_regs.max(v.index() + 1);
        }
    });
    let mut c = FnCompiler { code: Vec::new() };
    c.block(m.body());
    c.code.push(Instr::RetFall);
    let fast = classify_fast(&c.code, m.has_this(), m.num_params());
    CompiledMethod {
        code: c.code,
        num_regs,
        has_this: m.has_this(),
        num_params: m.num_params(),
        native: None,
        fast,
    }
}

/// Every variable mentioned by one statement (nested blocks excluded;
/// `visit_block` recurses into those).
fn stmt_vars(s: &Stmt) -> Vec<Var> {
    match s {
        Stmt::Assign { dst, src } => vec![*dst, *src],
        Stmt::New { dst, .. } => vec![*dst],
        Stmt::NewArray { dst, len, .. } => vec![*dst, *len],
        Stmt::Store { obj, src, .. } => vec![*obj, *src],
        Stmt::Load { dst, obj, .. } => vec![*dst, *obj],
        Stmt::ArrayStore { arr, index, src } => vec![*arr, *index, *src],
        Stmt::ArrayLoad { dst, arr, index } => vec![*dst, *arr, *index],
        Stmt::Call {
            dst, recv, args, ..
        } => {
            let mut vs: Vec<Var> = args.clone();
            vs.extend(*dst);
            vs.extend(*recv);
            vs
        }
        Stmt::Const { dst, .. } => vec![*dst],
        Stmt::Bin { dst, a, b, .. } => vec![*dst, *a, *b],
        Stmt::RefEq { dst, a, b } => vec![*dst, *a, *b],
        Stmt::IsNull { dst, a } => vec![*dst, *a],
        Stmt::Not { dst, a } => vec![*dst, *a],
        Stmt::ArrayLen { dst, arr } => vec![*dst, *arr],
        Stmt::If { cond, .. } => vec![*cond],
        Stmt::While { cond, .. } => vec![*cond],
        Stmt::Return { var } => var.iter().copied().collect(),
        Stmt::Throw { .. } => Vec::new(),
    }
}

struct FnCompiler {
    code: Vec<Instr>,
}

impl FnCompiler {
    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let r = |v: &Var| v.index();
        match s {
            Stmt::Assign { dst, src } => self.code.push(Instr::Move {
                dst: r(dst),
                src: r(src),
            }),
            Stmt::New { dst, class, .. } => self.code.push(Instr::NewObj {
                dst: r(dst),
                class: *class,
            }),
            Stmt::NewArray { dst, len, .. } => self.code.push(Instr::NewArr {
                dst: r(dst),
                len: r(len),
            }),
            Stmt::Store { obj, field, src } => self.code.push(Instr::Store {
                obj: r(obj),
                field: *field,
                src: r(src),
            }),
            Stmt::Load { dst, obj, field } => self.code.push(Instr::Load {
                dst: r(dst),
                obj: r(obj),
                field: *field,
            }),
            Stmt::ArrayStore { arr, index, src } => self.code.push(Instr::ArrStore {
                arr: r(arr),
                index: r(index),
                src: r(src),
            }),
            Stmt::ArrayLoad { dst, arr, index } => self.code.push(Instr::ArrLoad {
                dst: r(dst),
                arr: r(arr),
                index: r(index),
            }),
            Stmt::Call {
                dst,
                method,
                recv,
                args,
            } => self.code.push(Instr::Call(Box::new(CallSite {
                method: *method,
                recv: recv.as_ref().map(r),
                args: args.iter().map(|v| v.index()).collect(),
                dst: dst.as_ref().map(r),
            }))),
            Stmt::Const { dst, value, .. } => self.code.push(Instr::Const {
                dst: r(dst),
                value: value.clone(),
            }),
            Stmt::Bin { dst, op, a, b } => self.code.push(Instr::Bin {
                dst: r(dst),
                op: *op,
                a: r(a),
                b: r(b),
            }),
            Stmt::RefEq { dst, a, b } => self.code.push(Instr::RefEq {
                dst: r(dst),
                a: r(a),
                b: r(b),
            }),
            Stmt::IsNull { dst, a } => self.code.push(Instr::IsNull {
                dst: r(dst),
                a: r(a),
            }),
            Stmt::Not { dst, a } => self.code.push(Instr::Not {
                dst: r(dst),
                a: r(a),
            }),
            Stmt::ArrayLen { dst, arr } => self.code.push(Instr::ArrLen {
                dst: r(dst),
                arr: r(arr),
            }),
            Stmt::If { cond, then, els } => {
                let branch = self.here();
                self.code.push(Instr::Branch {
                    cond: r(cond),
                    else_target: 0, // patched below
                });
                self.block(then);
                let jump = self.here();
                self.code.push(Instr::Jump { target: 0 }); // patched below
                let else_start = self.here();
                self.patch(branch, else_start);
                self.block(els);
                let join = self.here();
                self.patch(jump, join);
            }
            Stmt::While { header, cond, body } => {
                self.code.push(Instr::LoopEnter);
                let head = self.here();
                self.block(header);
                let test = self.here();
                self.code.push(Instr::LoopCond {
                    cond: r(cond),
                    exit_target: 0, // patched below
                });
                self.block(body);
                self.code.push(Instr::LoopJump { target: head });
                let exit = self.here();
                self.patch(test, exit);
            }
            Stmt::Return { var } => self.code.push(match var {
                Some(v) => Instr::Ret { src: r(v) },
                None => Instr::RetVoid,
            }),
            Stmt::Throw { message } => self.code.push(Instr::Throw {
                message: message.clone(),
            }),
        }
    }

    /// Resolves the pending jump target of the instruction at `at`.
    fn patch(&mut self, at: u32, target: u32) {
        match &mut self.code[at as usize] {
            Instr::Branch { else_target, .. } => *else_target = target,
            Instr::Jump { target: t, .. } | Instr::LoopJump { target: t } => *t = target,
            Instr::LoopCond { exit_target, .. } => *exit_target = target,
            other => unreachable!("patched a non-jump instruction: {other:?}"),
        }
    }
}

/// A synthesized witness lowered to bytecode: the whole oracle query —
/// receiver instantiation, argument marshalling, the call word, and
/// verdict extraction — as one straight-line instruction sequence the VM
/// runs without re-entering the tree-level harness per operation.
///
/// Lifecycle: built once per witness (`atlas-synth`'s
/// `WitnessTest::compile_into`), cached in the caller's scratch so its
/// buffer is recycled across witnesses, and executed any number of times
/// via [`crate::Vm::run_witness`] with a [`crate::Vm::reset`] between
/// rounds.  The witness instructions themselves never tick and the
/// witness frame charges no call depth, so a run is observationally
/// identical — verdict, step count, error — to driving the same ops
/// through the tree-level `execute_with` harness.
#[derive(Debug, Clone, Default)]
pub struct CompiledWitness {
    pub(crate) code: Vec<Instr>,
    pub(crate) num_regs: u32,
}

impl CompiledWitness {
    /// An empty witness buffer, ready to be filled by the emit methods.
    pub fn new() -> CompiledWitness {
        CompiledWitness::default()
    }

    /// Clears the witness for re-lowering, keeping the code buffer's
    /// capacity — the recycling step of the once-per-witness lifecycle.
    pub fn clear(&mut self) {
        self.code.clear();
        self.num_regs = 0;
    }

    /// Number of lowered instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the witness is empty (freshly created or cleared).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Size of the register window the witness frame needs.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    fn track(&mut self, reg: Reg) {
        self.num_regs = self.num_regs.max(reg + 1);
    }

    /// Emits `dst = literal` (argument marshalling).
    pub fn push_const(&mut self, dst: Reg, value: Constant) {
        self.track(dst);
        self.code.push(Instr::WConst { dst, value });
    }

    /// Emits `dst = new class()` (raw receiver allocation).
    pub fn push_alloc(&mut self, dst: Reg, class: ClassId) {
        self.track(dst);
        self.code.push(Instr::WAlloc { dst, class });
    }

    /// Emits a top-level call of the witness word.
    pub fn push_call(
        &mut self,
        method: MethodId,
        recv: Option<Reg>,
        args: &[Reg],
        dst: Option<Reg>,
    ) {
        if let Some(r) = recv {
            self.track(r);
        }
        if let Some(d) = dst {
            self.track(d);
        }
        for &a in args {
            self.track(a);
        }
        self.code.push(Instr::WCall(Box::new(CallSite {
            method,
            recv,
            args: args.to_vec(),
            dst,
        })));
    }

    /// Terminates the witness with its verdict extraction: passes iff
    /// the tracked input `a` is non-null and identical to the observed
    /// output `b`.
    pub fn finish(&mut self, a: Reg, b: Reg) {
        self.track(a);
        self.track(b);
        self.code.push(Instr::WVerdict { a, b });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_ir::builder::ProgramBuilder;
    use atlas_ir::Type;

    #[test]
    fn lowering_resolves_jump_targets() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut main = pb.class("Main");
        let mut t = main.static_method("f");
        let c = t.local("c", Type::Bool);
        let x = t.local("x", Type::Int);
        t.const_bool(c, true);
        t.if_stmt(c, |m| m.const_int(x, 1), |m| m.const_int(x, 2));
        t.while_stmt(|_| c, |m| m.const_bool(c, false));
        t.ret(Some(x));
        t.finish();
        main.build();
        let p = pb.build();
        let compiled = CompiledProgram::compile(&p);
        assert_eq!(compiled.num_methods(), p.num_methods());
        let f = p.method_qualified("Main.f").unwrap();
        let cm = compiled.method(f);
        assert!(cm.num_regs() >= 2);
        assert!(cm.native().is_none());
        // Every jump target lands inside the code, and the lowered body
        // contains the expected control instructions.
        let code = cm.code();
        let n = code.len() as u32;
        let mut saw = (false, false, false, false);
        for instr in code {
            match instr {
                Instr::Branch { else_target, .. } => {
                    assert!(*else_target < n);
                    saw.0 = true;
                }
                Instr::Jump { target } | Instr::LoopJump { target } => {
                    assert!(*target < n);
                    saw.1 = true;
                }
                Instr::LoopCond { exit_target, .. } => {
                    assert!(*exit_target < n);
                    saw.2 = true;
                }
                Instr::LoopEnter => saw.3 = true,
                _ => {}
            }
        }
        assert_eq!(saw, (true, true, true, true));
        // The implicit fall-off return terminates the body.
        assert_eq!(code.last(), Some(&Instr::RetFall));
        assert!(compiled.total_instructions() >= code.len());
    }

    #[test]
    fn native_methods_precompute_their_qualified_name() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut sys = pb.class("System");
        sys.library(true);
        let mut ac = sys.static_method("arraycopy");
        ac.native(true);
        ac.param("src", Type::object_array());
        ac.finish();
        sys.build();
        let p = pb.build();
        let compiled = CompiledProgram::compile(&p);
        let id = p.method_qualified("System.arraycopy").unwrap();
        assert_eq!(compiled.method(id).native(), Some("System.arraycopy"));
        assert!(compiled.method(id).code().is_empty());
    }
}
