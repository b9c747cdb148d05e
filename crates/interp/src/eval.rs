//! The interpreter itself.

use crate::builtins::BuiltinRegistry;
use crate::heap::Heap;
use crate::limits::{ExecLimits, StepBudget};
use crate::value::Value;
use atlas_ir::{BinOp, Constant, MethodId, Program, Stmt, Var};
use std::fmt;

/// Errors raised during execution.  A synthesized unit test that raises any
/// of these is treated as a *failing* potential witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Dereference of `null` (field access, array access, call receiver).
    NullPointer,
    /// Array access out of bounds.
    IndexOutOfBounds,
    /// Integer division or remainder by zero.
    DivideByZero,
    /// An explicit `throw` in library code.
    Thrown(String),
    /// The step / depth / heap budget was exhausted.
    LimitExceeded(&'static str),
    /// A native method without a registered builtin was called.
    MissingBuiltin(String),
    /// A builtin rejected its arguments.
    Builtin(String),
    /// A value of the wrong kind was used (e.g. branching on a non-boolean).
    TypeError(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NullPointer => write!(f, "null pointer dereference"),
            ExecError::IndexOutOfBounds => write!(f, "array index out of bounds"),
            ExecError::DivideByZero => write!(f, "division by zero"),
            ExecError::Thrown(m) => write!(f, "exception thrown: {m}"),
            ExecError::LimitExceeded(what) => write!(f, "execution limit exceeded: {what}"),
            ExecError::MissingBuiltin(m) => write!(f, "native method has no builtin: {m}"),
            ExecError::Builtin(m) => write!(f, "builtin error: {m}"),
            ExecError::TypeError(m) => write!(f, "type error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The outcome of executing an entry method.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// The method returned normally with the given value.
    Returned(Value),
    /// The method failed with an error.
    Failed(ExecError),
}

impl ExecOutcome {
    /// Whether the execution returned the boolean `true` — the success
    /// criterion for potential witnesses.
    pub fn is_true(&self) -> bool {
        matches!(self, ExecOutcome::Returned(Value::Bool(true)))
    }
}

enum Flow {
    Normal,
    Return(Value),
}

/// Blackbox access to a library implementation: allocate raw objects and
/// call methods.  Implemented by both execution engines — the
/// tree-walking [`Interpreter`] and the bytecode [`crate::Vm`] — so
/// callers that drive executions (witness tests, differential harnesses)
/// are engine-agnostic.
pub trait Executor {
    /// Allocates a raw object of `class` without running a constructor.
    fn alloc_object(&mut self, class: atlas_ir::ClassId) -> crate::heap::ObjRef;

    /// Executes a method call with the given receiver and arguments.
    fn call_method(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: &[Value],
    ) -> Result<Value, ExecError>;

    /// Number of statements charged against the step budget so far.
    fn steps(&self) -> usize;
}

/// A tree-walking concrete interpreter over a program.
///
/// This is the reference engine: the bytecode VM ([`crate::Vm`]) must
/// match it bit for bit on outcomes, step counts, and limit errors, and
/// the differential tests in `tests/vm_equivalence.rs` hold it to that.
/// It is not a runtime engine — the oracle always runs the VM — so only
/// tests and benches execute it.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    builtins: BuiltinRegistry,
    heap: Heap,
    budget: StepBudget,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter with the default builtins and limits.
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        Interpreter::with_config(
            program,
            BuiltinRegistry::with_defaults(),
            ExecLimits::default(),
        )
    }

    /// Creates an interpreter with custom builtins and limits.
    pub fn with_config(
        program: &'p Program,
        builtins: BuiltinRegistry,
        limits: ExecLimits,
    ) -> Interpreter<'p> {
        Interpreter {
            program,
            builtins,
            heap: Heap::new(),
            budget: StepBudget::new(limits),
        }
    }

    /// Access to the heap (after execution), e.g. for inspecting effects.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Allocates a raw object of the given class on the heap without running
    /// a constructor.  Used by synthesized unit tests for the `x ← X()`
    /// allocation statements added during hole filling.
    pub fn alloc_object(&mut self, class: atlas_ir::ClassId) -> crate::heap::ObjRef {
        self.heap.alloc(class)
    }

    /// Number of statements executed so far.
    pub fn steps(&self) -> usize {
        self.budget.steps()
    }

    /// Executes a static entry method with no arguments and returns its
    /// outcome.  Never panics on program errors; all failures are reported
    /// as [`ExecOutcome::Failed`].
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
        self.budget.check_depth()?;
        let m = self.program.method(method);
        if m.is_native() {
            let name = self.program.qualified_name(method);
            let builtin = self
                .builtins
                .lookup(&name)
                .ok_or(ExecError::MissingBuiltin(name))?;
            return builtin(&mut self.heap, recv, args);
        }
        // Set up the frame: receiver, parameters, locals default to null/0.
        let mut locals: Vec<Value> = vec![Value::Null; m.num_vars()];
        if m.has_this() {
            locals[0] = recv.ok_or(ExecError::TypeError("missing receiver".into()))?;
            if locals[0].is_null() {
                return Err(ExecError::NullPointer);
            }
        }
        for i in 0..m.num_params() {
            let v = args.get(i).cloned().unwrap_or(Value::Null);
            locals[m.param_var(i).index() as usize] = v;
        }
        self.budget.push_frame();
        let body: Vec<Stmt> = m.body().to_vec();
        let result = self.exec_block(&body, &mut locals, method);
        self.budget.pop_frame();
        match result? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Void),
        }
    }

    fn read(&self, locals: &[Value], v: Var) -> Value {
        locals
            .get(v.index() as usize)
            .cloned()
            .unwrap_or(Value::Null)
    }

    fn write(&self, locals: &mut Vec<Value>, v: Var, value: Value) {
        let idx = v.index() as usize;
        if idx >= locals.len() {
            locals.resize(idx + 1, Value::Null);
        }
        locals[idx] = value;
    }

    fn tick(&mut self) -> Result<(), ExecError> {
        self.budget.tick(self.heap.len())
    }

    fn exec_block(
        &mut self,
        block: &[Stmt],
        locals: &mut Vec<Value>,
        method: MethodId,
    ) -> Result<Flow, ExecError> {
        for stmt in block {
            match self.exec_stmt(stmt, locals, method)? {
                Flow::Normal => {}
                ret @ Flow::Return(_) => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        locals: &mut Vec<Value>,
        method: MethodId,
    ) -> Result<Flow, ExecError> {
        self.tick()?;
        match stmt {
            Stmt::Assign { dst, src } => {
                let v = self.read(locals, *src);
                self.write(locals, *dst, v);
            }
            Stmt::New { dst, class, .. } => {
                let r = self.heap.alloc(*class);
                self.write(locals, *dst, Value::Ref(r));
            }
            Stmt::NewArray { dst, len, .. } => {
                let len = self
                    .read(locals, *len)
                    .as_int()
                    .ok_or_else(|| ExecError::TypeError("array length must be int".into()))?;
                if len < 0 {
                    return Err(ExecError::IndexOutOfBounds);
                }
                let r = self.heap.alloc_array(len as usize);
                self.write(locals, *dst, Value::Ref(r));
            }
            Stmt::Store { obj, field, src } => {
                let r = self
                    .read(locals, *obj)
                    .as_ref()
                    .ok_or(ExecError::NullPointer)?;
                let v = self.read(locals, *src);
                self.heap.write_field(r, *field, v);
            }
            Stmt::Load { dst, obj, field } => {
                let r = self
                    .read(locals, *obj)
                    .as_ref()
                    .ok_or(ExecError::NullPointer)?;
                let v = self.heap.read_field(r, *field);
                self.write(locals, *dst, v);
            }
            Stmt::ArrayStore { arr, index, src } => {
                let r = self
                    .read(locals, *arr)
                    .as_ref()
                    .ok_or(ExecError::NullPointer)?;
                let i = self
                    .read(locals, *index)
                    .as_int()
                    .ok_or_else(|| ExecError::TypeError("array index must be int".into()))?;
                let v = self.read(locals, *src);
                if !self.heap.write_element(r, i, v) {
                    return Err(ExecError::IndexOutOfBounds);
                }
            }
            Stmt::ArrayLoad { dst, arr, index } => {
                let r = self
                    .read(locals, *arr)
                    .as_ref()
                    .ok_or(ExecError::NullPointer)?;
                let i = self
                    .read(locals, *index)
                    .as_int()
                    .ok_or_else(|| ExecError::TypeError("array index must be int".into()))?;
                let v = self
                    .heap
                    .read_element(r, i)
                    .ok_or(ExecError::IndexOutOfBounds)?;
                self.write(locals, *dst, v);
            }
            Stmt::ArrayLen { dst, arr } => {
                let r = self
                    .read(locals, *arr)
                    .as_ref()
                    .ok_or(ExecError::NullPointer)?;
                let len = self
                    .heap
                    .array_len(r)
                    .ok_or_else(|| ExecError::TypeError("length of non-array".into()))?;
                self.write(locals, *dst, Value::Int(len as i64));
            }
            Stmt::Call {
                dst,
                method: target,
                recv,
                args,
            } => {
                let recv_val = recv.map(|r| self.read(locals, r));
                let arg_vals: Vec<Value> = args.iter().map(|&a| self.read(locals, a)).collect();
                let result = self.call_method(*target, recv_val, &arg_vals)?;
                if let Some(d) = dst {
                    self.write(locals, *d, result);
                }
            }
            Stmt::Const { dst, value, .. } => {
                let v = match value {
                    Constant::Null => Value::Null,
                    Constant::Int(i) => Value::Int(*i),
                    Constant::Bool(b) => Value::Bool(*b),
                    Constant::Char(c) => Value::Char(*c),
                    Constant::Str(s) => Value::Str(s.clone()),
                };
                self.write(locals, *dst, v);
            }
            Stmt::Bin { dst, op, a, b } => {
                let v = eval_bin(*op, &self.read(locals, *a), &self.read(locals, *b))?;
                self.write(locals, *dst, v);
            }
            Stmt::RefEq { dst, a, b } => {
                let eq = self.read(locals, *a).ref_eq(&self.read(locals, *b));
                self.write(locals, *dst, Value::Bool(eq));
            }
            Stmt::IsNull { dst, a } => {
                let is_null = self.read(locals, *a).is_null();
                self.write(locals, *dst, Value::Bool(is_null));
            }
            Stmt::Not { dst, a } => {
                let v = self
                    .read(locals, *a)
                    .as_bool()
                    .ok_or_else(|| ExecError::TypeError("! of non-boolean".into()))?;
                self.write(locals, *dst, Value::Bool(!v));
            }
            Stmt::If { cond, then, els } => {
                let c = self
                    .read(locals, *cond)
                    .as_bool()
                    .ok_or_else(|| ExecError::TypeError("if condition must be boolean".into()))?;
                let flow = if c {
                    self.exec_block(then, locals, method)?
                } else {
                    self.exec_block(els, locals, method)?
                };
                if let Flow::Return(v) = flow {
                    return Ok(Flow::Return(v));
                }
            }
            Stmt::While { header, cond, body } => loop {
                if let Flow::Return(v) = self.exec_block(header, locals, method)? {
                    return Ok(Flow::Return(v));
                }
                let c = self.read(locals, *cond).as_bool().ok_or_else(|| {
                    ExecError::TypeError("while condition must be boolean".into())
                })?;
                if !c {
                    break;
                }
                if let Flow::Return(v) = self.exec_block(body, locals, method)? {
                    return Ok(Flow::Return(v));
                }
                self.tick()?;
            },
            Stmt::Return { var } => {
                let v = var.map(|v| self.read(locals, v)).unwrap_or(Value::Void);
                return Ok(Flow::Return(v));
            }
            Stmt::Throw { message } => {
                return Err(ExecError::Thrown(message.clone()));
            }
        }
        Ok(Flow::Normal)
    }
}

impl Executor for Interpreter<'_> {
    fn alloc_object(&mut self, class: atlas_ir::ClassId) -> crate::heap::ObjRef {
        Interpreter::alloc_object(self, class)
    }

    fn call_method(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        Interpreter::call_method(self, method, recv, args)
    }

    fn steps(&self) -> usize {
        Interpreter::steps(self)
    }
}

/// Evaluates a binary operator — the one semantics shared verbatim by the
/// tree-walker and the bytecode VM.
#[inline]
pub(crate) fn eval_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value, ExecError> {
    use BinOp::*;
    match op {
        And | Or => {
            let (x, y) = (
                a.as_bool()
                    .ok_or_else(|| ExecError::TypeError("boolean expected".into()))?,
                b.as_bool()
                    .ok_or_else(|| ExecError::TypeError("boolean expected".into()))?,
            );
            Ok(Value::Bool(if op == And { x && y } else { x || y }))
        }
        _ => {
            let (x, y) = (
                a.as_int()
                    .ok_or_else(|| ExecError::TypeError("int expected".into()))?,
                b.as_int()
                    .ok_or_else(|| ExecError::TypeError("int expected".into()))?,
            );
            Ok(match op {
                Add => Value::Int(x.wrapping_add(y)),
                Sub => Value::Int(x.wrapping_sub(y)),
                Mul => Value::Int(x.wrapping_mul(y)),
                Div => {
                    if y == 0 {
                        return Err(ExecError::DivideByZero);
                    }
                    Value::Int(x / y)
                }
                Rem => {
                    if y == 0 {
                        return Err(ExecError::DivideByZero);
                    }
                    Value::Int(x % y)
                }
                Lt => Value::Bool(x < y),
                Le => Value::Bool(x <= y),
                Gt => Value::Bool(x > y),
                Ge => Value::Bool(x >= y),
                EqInt => Value::Bool(x == y),
                NeInt => Value::Bool(x != y),
                And | Or => unreachable!("handled above"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_ir::builder::ProgramBuilder;
    use atlas_ir::Type;

    /// Box library + a client test that stores `in` and reads it back.
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
        main.build();
        pb.build()
    }

    #[test]
    fn box_round_trip_returns_true() {
        let p = box_program();
        let test = p.method_qualified("Main.test").unwrap();
        let mut interp = Interpreter::new(&p);
        let outcome = interp.run_entry(test);
        assert!(outcome.is_true(), "{outcome:?}");
        assert!(interp.steps() > 5);
        assert_eq!(interp.heap().len(), 2);
    }

    #[test]
    fn null_receiver_fails() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.library(true);
        let mut get = c.method("get");
        get.returns(Type::object());
        get.this();
        get.finish();
        c.build();
        let mut main = pb.class("Main");
        let mut t = main.static_method("test");
        t.returns(Type::Bool);
        let box_v = t.local("box", Type::class("Box"));
        let out_v = t.local("out", Type::object());
        let get = t.mref("Box", "get");
        t.const_null(box_v);
        t.call(Some(out_v), get, Some(box_v), &[]);
        t.finish();
        main.build();
        let p = pb.build();
        let test = p.method_qualified("Main.test").unwrap();
        let outcome = Interpreter::new(&p).run_entry(test);
        assert_eq!(outcome, ExecOutcome::Failed(ExecError::NullPointer));
        assert!(!outcome.is_true());
    }

    #[test]
    fn arithmetic_loops_and_arrays() {
        // Sum the first 5 integers into an array cell and compare.
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut main = pb.class("Main");
        let mut t = main.static_method("test");
        t.returns(Type::Bool);
        let arr = t.local("arr", Type::object_array());
        let i = t.local("i", Type::Int);
        let n = t.local("n", Type::Int);
        let sum = t.local("sum", Type::Int);
        let cond = t.local("cond", Type::Bool);
        let one = t.local("one", Type::Int);
        let len = t.local("len", Type::Int);
        t.const_int(len, 3);
        t.new_array(arr, len);
        t.const_int(i, 0);
        t.const_int(n, 5);
        t.const_int(sum, 0);
        t.const_int(one, 1);
        t.while_stmt(
            |m| {
                m.bin(cond, BinOp::Lt, i, n);
                cond
            },
            |m| {
                m.bin(sum, BinOp::Add, sum, i);
                m.bin(i, BinOp::Add, i, one);
            },
        );
        // arr[1] = sum (as an Int value); read back and compare to 10.
        let idx = t.local("idx", Type::Int);
        t.const_int(idx, 1);
        // store primitive in array for test purposes
        t.array_store(arr, idx, sum);
        let back = t.local("back", Type::Int);
        t.array_load(back, arr, idx);
        let ten = t.local("ten", Type::Int);
        t.const_int(ten, 10);
        let eq = t.local("eq", Type::Bool);
        t.bin(eq, BinOp::EqInt, back, ten);
        let alen = t.local("alen", Type::Int);
        t.array_len(alen, arr);
        let three = t.local("three", Type::Int);
        t.const_int(three, 3);
        let eq2 = t.local("eq2", Type::Bool);
        t.bin(eq2, BinOp::EqInt, alen, three);
        let both = t.local("both", Type::Bool);
        t.bin(both, BinOp::And, eq, eq2);
        t.ret(Some(both));
        t.finish();
        main.build();
        let p = pb.build();
        let test = p.method_qualified("Main.test").unwrap();
        assert!(Interpreter::new(&p).run_entry(test).is_true());
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
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
        let mut interp = Interpreter::with_config(
            &p,
            BuiltinRegistry::with_defaults(),
            ExecLimits {
                max_steps: 100,
                max_call_depth: 8,
                max_heap_objects: 10,
            },
        );
        assert_eq!(
            interp.run_entry(spin),
            ExecOutcome::Failed(ExecError::LimitExceeded("steps"))
        );
    }

    #[test]
    fn native_method_dispatches_to_builtin() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut sys = pb.class("System");
        sys.library(true);
        let mut ac = sys.static_method("arraycopy");
        ac.native(true);
        ac.param("src", Type::object_array());
        ac.param("srcPos", Type::Int);
        ac.param("dest", Type::object_array());
        ac.param("destPos", Type::Int);
        ac.param("length", Type::Int);
        ac.finish();
        sys.build();
        let mut main = pb.class("Main");
        let mut t = main.static_method("test");
        t.returns(Type::Bool);
        let a = t.local("a", Type::object_array());
        let b = t.local("b", Type::object_array());
        let o = t.local("o", Type::object());
        let len = t.local("len", Type::Int);
        let zero = t.local("zero", Type::Int);
        t.const_int(len, 2);
        t.const_int(zero, 0);
        t.new_array(a, len);
        t.new_array(b, len);
        let obj = t.cref("Object");
        t.new_object(o, obj);
        t.array_store(a, zero, o);
        let ac_ref = t.mref("System", "arraycopy");
        t.call(None, ac_ref, None, &[a, zero, b, zero, len]);
        let back = t.local("back", Type::object());
        t.array_load(back, b, zero);
        let eq = t.local("eq", Type::Bool);
        t.ref_eq(eq, back, o);
        t.ret(Some(eq));
        t.finish();
        main.build();
        let p = pb.build();
        let test = p.method_qualified("Main.test").unwrap();
        assert!(Interpreter::new(&p).run_entry(test).is_true());
    }

    #[test]
    fn throw_and_divide_by_zero() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut main = pb.class("Main");
        let mut t = main.static_method("boom");
        t.throw("boom");
        t.finish();
        let mut d = main.static_method("div0");
        let a = d.local("a", Type::Int);
        let b = d.local("b", Type::Int);
        d.const_int(a, 1);
        d.const_int(b, 0);
        d.bin(a, BinOp::Div, a, b);
        d.finish();
        main.build();
        let p = pb.build();
        let boom = p.method_qualified("Main.boom").unwrap();
        let div0 = p.method_qualified("Main.div0").unwrap();
        assert_eq!(
            Interpreter::new(&p).run_entry(boom),
            ExecOutcome::Failed(ExecError::Thrown("boom".into()))
        );
        assert_eq!(
            Interpreter::new(&p).run_entry(div0),
            ExecOutcome::Failed(ExecError::DivideByZero)
        );
    }

    #[test]
    fn error_display() {
        assert!(ExecError::NullPointer.to_string().contains("null"));
        assert!(ExecError::MissingBuiltin("X.y".into())
            .to_string()
            .contains("X.y"));
        assert!(ExecError::LimitExceeded("steps")
            .to_string()
            .contains("steps"));
    }
}
