//! The synthesized unit test (potential witness) and its executor.

use atlas_interp::{CompiledWitness, ExecError, Executor, Value};
use atlas_ir::{ClassId, Constant, MethodId, Program};
use atlas_spec::PathSpec;
use std::fmt::Write as _;

/// A variable of the synthesized test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TestVar(pub u32);

/// An argument of a synthesized call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TestArg {
    /// A previously defined test variable.
    Var(TestVar),
    /// The `null` reference.
    Null,
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// A character literal.
    Char(char),
}

/// One operation of the synthesized test.
#[derive(Debug, Clone, PartialEq)]
pub enum TestOp {
    /// `dst = new <class>()` — raw allocation (no constructor call).
    Alloc {
        /// The test variable bound to the fresh object.
        dst: TestVar,
        /// The class allocated.
        class: ClassId,
    },
    /// `dst = recv.m(args)` — a call to a library method (or constructor).
    Call {
        /// The test variable bound to the return value, if any.
        dst: Option<TestVar>,
        /// The library method called.
        method: MethodId,
        /// The receiver, absent for static calls.
        recv: Option<TestVar>,
        /// The arguments, in declaration order.
        args: Vec<TestArg>,
    },
}

/// Reusable buffers for witness execution and lowering: the variable
/// environment, the call-argument staging area, and the compiled-witness
/// image.
///
/// The oracle lowers millions of witnesses back to back through
/// [`WitnessTest::compile_into`]; reference runs drive them through
/// [`WitnessTest::execute_with`].  Threading one `WitnessScratch` through
/// either keeps the path allocation-free in the steady state.  The
/// buffers are cleared between tests, so reuse can never leak values from
/// one test into the next.
#[derive(Debug, Default)]
pub struct WitnessScratch {
    env: Vec<Value>,
    args: Vec<Value>,
    /// Recycled argument-register staging for witness lowering.
    arg_regs: Vec<u32>,
    /// The compiled-witness buffer: one bytecode image per witness,
    /// relowered in place (capacity kept) by
    /// [`WitnessTest::compile_into`] via [`WitnessScratch::compiled`].
    compiled: CompiledWitness,
}

impl WitnessScratch {
    /// The compiled form of the most recently lowered witness (see
    /// [`WitnessTest::compile_into`]).
    pub fn compiled(&self) -> &CompiledWitness {
        &self.compiled
    }
}

/// A synthesized potential witness for a candidate path specification.
#[derive(Debug, Clone)]
pub struct WitnessTest {
    /// The candidate this test checks.
    pub spec: PathSpec,
    /// The operations, already scheduled.
    pub ops: Vec<TestOp>,
    /// The variable holding the tracked input object (`in`).
    pub tracked_in: TestVar,
    /// The variable holding the observed output (`out`).
    pub observed_out: TestVar,
}

impl WitnessTest {
    /// Number of operations (allocations + calls).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Executes the test against the library implementation contained in
    /// `program`.  Returns `Ok(true)` iff the test passes (i.e. `in == out`
    /// at the end), `Ok(false)` if it returns a different object, and
    /// `Err(_)` if execution raises an exception or exhausts its budget —
    /// both of which the oracle treats as a failing witness.
    ///
    /// Generic over the execution engine: the tree-walking
    /// [`atlas_interp::Interpreter`] and the bytecode [`atlas_interp::Vm`]
    /// both implement [`Executor`] and must agree on the result.
    pub fn execute<E: Executor>(
        &self,
        program: &Program,
        interp: &mut E,
    ) -> Result<bool, ExecError> {
        self.execute_with(program, interp, &mut WitnessScratch::default())
    }

    /// [`WitnessTest::execute`] with caller-provided buffers, for loops
    /// that run many tests back to back: the variable environment and
    /// argument staging area are recycled instead of allocated per test.
    pub fn execute_with<E: Executor>(
        &self,
        program: &Program,
        interp: &mut E,
        scratch: &mut WitnessScratch,
    ) -> Result<bool, ExecError> {
        let max_var = self.max_var();
        let env = &mut scratch.env;
        env.clear();
        env.resize(max_var as usize + 1, Value::Null);
        let arg_vals = &mut scratch.args;
        for op in &self.ops {
            match op {
                TestOp::Alloc { dst, class } => {
                    // Allocation without running a constructor: mirrors the
                    // `x ← X()` statements added by the hole-filling step.
                    let r = alloc_raw(interp, *class);
                    env[dst.0 as usize] = Value::Ref(r);
                }
                TestOp::Call {
                    dst,
                    method,
                    recv,
                    args,
                } => {
                    let recv_val = recv.map(|r| env[r.0 as usize].clone());
                    arg_vals.clear();
                    arg_vals.extend(args.iter().map(|a| arg_value(a, env)));
                    let result = interp.call_method(*method, recv_val, arg_vals)?;
                    if let Some(d) = dst {
                        env[d.0 as usize] = result;
                    }
                }
            }
        }
        let _ = program;
        let a = &env[self.tracked_in.0 as usize];
        let b = &env[self.observed_out.0 as usize];
        Ok(!a.is_null() && a.ref_eq(b))
    }

    /// Lowers the witness to bytecode in `scratch`'s compiled-witness
    /// buffer (capacity recycled across witnesses) and returns it.
    ///
    /// The lowering is a direct transcription of [`WitnessTest::execute_with`]:
    /// every test variable `v` becomes witness register `v`, literal
    /// arguments are marshalled into fresh registers past the variable
    /// range, each op becomes its non-ticking witness instruction, and
    /// the verdict comparison terminates the sequence.  Executing the
    /// result with [`atlas_interp::Vm::run_witness`] is observationally
    /// identical to driving the ops through an [`Executor`] — enforced
    /// differentially in `vm_equivalence.rs`.
    pub fn compile_into<'s>(&self, scratch: &'s mut WitnessScratch) -> &'s CompiledWitness {
        let cw = &mut scratch.compiled;
        cw.clear();
        // Registers 0..=max_var mirror the tree harness's env slots
        // (null-initialized, possibly never written); temporaries for
        // literal arguments live past them.
        let mut next_tmp = self.max_var() + 1;
        for op in &self.ops {
            match op {
                TestOp::Alloc { dst, class } => cw.push_alloc(dst.0, *class),
                TestOp::Call {
                    dst,
                    method,
                    recv,
                    args,
                } => {
                    let arg_regs = &mut scratch.arg_regs;
                    arg_regs.clear();
                    for a in args {
                        match a {
                            TestArg::Var(v) => arg_regs.push(v.0),
                            lit => {
                                let r = next_tmp;
                                next_tmp += 1;
                                cw.push_const(r, lit_constant(lit));
                                arg_regs.push(r);
                            }
                        }
                    }
                    cw.push_call(*method, recv.map(|r| r.0), arg_regs, dst.map(|d| d.0));
                }
            }
        }
        // The verdict registers are tracked even when no op wrote them,
        // mirroring the env sizing of the tree harness.
        cw.finish(self.tracked_in.0, self.observed_out.0);
        cw
    }

    /// [`WitnessTest::compile_into`] with a fresh buffer, for callers
    /// outside the oracle's recycling loop (tests, the bench harness's
    /// once-per-witness setup phase).
    pub fn compile(&self) -> CompiledWitness {
        let mut scratch = WitnessScratch::default();
        self.compile_into(&mut scratch);
        scratch.compiled
    }

    fn max_var(&self) -> u32 {
        let mut max = self.tracked_in.0.max(self.observed_out.0);
        for op in &self.ops {
            match op {
                TestOp::Alloc { dst, .. } => max = max.max(dst.0),
                TestOp::Call {
                    dst, recv, args, ..
                } => {
                    if let Some(d) = dst {
                        max = max.max(d.0);
                    }
                    if let Some(r) = recv {
                        max = max.max(r.0);
                    }
                    for a in args {
                        if let TestArg::Var(v) = a {
                            max = max.max(v.0);
                        }
                    }
                }
            }
        }
        max
    }

    /// Renders the test as Java-like source, in the style of Figure 7.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "boolean test() {{ // witness for candidate");
        for op in &self.ops {
            match op {
                TestOp::Alloc { dst, class } => {
                    let _ = writeln!(
                        out,
                        "    Object v{} = new {}();",
                        dst.0,
                        program.class(*class).name()
                    );
                }
                TestOp::Call {
                    dst,
                    method,
                    recv,
                    args,
                } => {
                    let args: Vec<String> = args
                        .iter()
                        .map(|a| match a {
                            TestArg::Var(v) => format!("v{}", v.0),
                            TestArg::Null => "null".to_string(),
                            TestArg::Int(i) => i.to_string(),
                            TestArg::Bool(b) => b.to_string(),
                            TestArg::Char(c) => format!("'{c}'"),
                        })
                        .collect();
                    let recv = recv.map(|r| format!("v{}.", r.0)).unwrap_or_default();
                    let dst = dst
                        .map(|d| format!("Object v{} = ", d.0))
                        .unwrap_or_default();
                    let _ = writeln!(
                        out,
                        "    {dst}{recv}{}({});",
                        program.qualified_name(*method),
                        args.join(", ")
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "    return v{} == v{};",
            self.tracked_in.0, self.observed_out.0
        );
        let _ = writeln!(out, "}}");
        out
    }
}

/// Maps a literal test argument to its bytecode constant.
fn lit_constant(arg: &TestArg) -> Constant {
    match arg {
        TestArg::Var(_) => unreachable!("variables are not literals"),
        TestArg::Null => Constant::Null,
        TestArg::Int(i) => Constant::Int(*i),
        TestArg::Bool(b) => Constant::Bool(*b),
        TestArg::Char(c) => Constant::Char(*c),
    }
}

fn arg_value(arg: &TestArg, env: &[Value]) -> Value {
    match arg {
        TestArg::Var(v) => env[v.0 as usize].clone(),
        TestArg::Null => Value::Null,
        TestArg::Int(i) => Value::Int(*i),
        TestArg::Bool(b) => Value::Bool(*b),
        TestArg::Char(c) => Value::Char(*c),
    }
}

/// Allocates a raw object on the engine's heap without running any
/// constructor.  Exposed through a tiny shim method-free path: we simply use
/// the engine's public heap access by allocating through a helper.
fn alloc_raw<E: Executor>(interp: &mut E, class: ClassId) -> atlas_interp::ObjRef {
    interp.alloc_object(class)
}
