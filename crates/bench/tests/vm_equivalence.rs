//! Differential property tests: the bytecode VM against the tree-walking
//! interpreter.
//!
//! The VM is only allowed to exist because it is *observationally
//! identical* to the tree-walker (see `atlas_interp::vm`).  These tests
//! enforce the guarantee on generated inputs rather than handpicked ones:
//!
//! * random generated apps run under both engines must produce identical
//!   [`ExecOutcome`]s and identical step counts — at the default limits
//!   *and* at proptest-drawn tight [`ExecLimits`], where the equality
//!   covers which limit exhausts first and at which statement;
//! * random candidate words over the real javalib, synthesized to witness
//!   tests exactly as the oracle does, must produce identical verdicts
//!   (`Result<bool, ExecError>`) and step counts — under the marshalling
//!   [`Executor`] path *and* under the compiled-witness fast path
//!   ([`Vm::run_witness`]), at the oracle's limits and at proptest-drawn
//!   tight ones where errors and their order must also agree;
//! * the same holds over randomly generated synthetic libraries, whose
//!   aliasing patterns and body shapes are drawn independently of
//!   javalib's;
//! * the production oracle path ([`Oracle::check_word`]) agrees with the
//!   tree-walker on every two-step candidate over javalib, and on each of
//!   them the tree-walker, the VM harness and the compiled witness agree
//!   on verdict and step count;
//! * handwritten programs force the hot adjacent instruction pairs
//!   (`Load+Branch`, `Call+RetFall`, `Const+Store`), one field site
//!   shared by receivers of two classes, and every inline fast-body
//!   shape, and sweep the step budget across every statement boundary;
//! * steady-state oracle rounds (reset + compiled witness) perform zero
//!   arena growth after the first pass over the javalib workload.

use atlas_apps::{generate_app, generate_library, SynthLibConfig};
use atlas_bench::fleet::build_library;
use atlas_interp::{
    BuiltinRegistry, CompiledProgram, CompiledWitness, ExecError, ExecLimits, ExecOutcome,
    Interpreter, Vm, VmScratch,
};
use atlas_ir::builder::ProgramBuilder;
use atlas_ir::{BinOp, LibraryInterface, MethodId, ParamSlot, Program, Type};
use atlas_learn::{Oracle, OracleConfig};
use atlas_spec::PathSpec;
use atlas_synth::{
    synthesize_witness, InitStrategy, InstantiationPlanner, WitnessScratch, WitnessTest,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Runs `entry` under both engines and returns `(outcome, steps)` pairs.
fn run_both(program: &Program, entry: MethodId, limits: ExecLimits) -> [(ExecOutcome, usize); 2] {
    let mut tree = Interpreter::with_config(program, BuiltinRegistry::with_defaults(), limits);
    let t_out = tree.run_entry(entry);
    let compiled = CompiledProgram::compile(program);
    let builtins = BuiltinRegistry::with_defaults();
    let mut vm = Vm::new(&compiled, &builtins, limits);
    let v_out = vm.run_entry(entry);
    [(t_out, tree.steps()), (v_out, vm.steps())]
}

/// A library prepared for witness-level differential testing.
struct Fixture {
    program: Program,
    planner: InstantiationPlanner,
    interface: LibraryInterface,
    compiled: CompiledProgram,
    /// `(entry, receiver)` slot pairs usable as the first two symbols of a
    /// two-method candidate word.
    sources: Vec<(ParamSlot, ParamSlot)>,
    /// `(receiver, return)` slot pairs usable as the last two symbols.
    sinks: Vec<(ParamSlot, ParamSlot)>,
}

impl Fixture {
    fn prepare(program: Program) -> Fixture {
        let interface = LibraryInterface::from_program(&program);
        let planner = InstantiationPlanner::new(&program, &interface);
        let compiled = CompiledProgram::compile(&program);
        let sources: Vec<(ParamSlot, ParamSlot)> = interface
            .methods()
            .iter()
            .filter(|sig| !sig.is_constructor && sig.has_this)
            .flat_map(|sig| {
                let recv = ParamSlot::receiver(sig.method);
                sig.reference_slots()
                    .into_iter()
                    .filter(move |s| s.is_input() && *s != recv)
                    .map(move |s| (s, recv))
            })
            .collect();
        let sinks: Vec<(ParamSlot, ParamSlot)> = interface
            .methods()
            .iter()
            .filter(|sig| !sig.is_constructor && sig.has_this && sig.returns_reference())
            .map(|sig| (ParamSlot::receiver(sig.method), ParamSlot::ret(sig.method)))
            .collect();
        Fixture {
            program,
            planner,
            interface,
            compiled,
            sources,
            sinks,
        }
    }

    /// Builds the candidate word picked by the two indices and synthesizes
    /// its witness, if the word is well-formed and synthesizable.
    fn witness(
        &self,
        source: prop::sample::Index,
        sink: prop::sample::Index,
    ) -> Option<WitnessTest> {
        let (entry, mid) = self.sources[source.index(self.sources.len())];
        let (recv, exit) = self.sinks[sink.index(self.sinks.len())];
        let spec = PathSpec::new(vec![entry, mid, recv, exit]).ok()?;
        synthesize_witness(
            &self.program,
            &self.interface,
            &self.planner,
            &spec,
            InitStrategy::Instantiate,
        )
        .ok()
    }

    /// Executes `witness` three ways — the tree-walker, the VM through the
    /// marshalling [`atlas_interp::Executor`] path, and the VM through its
    /// compiled-witness fast path — returning `(verdict, steps)` triples.
    #[allow(clippy::type_complexity)]
    fn execute_all(
        &self,
        witness: &WitnessTest,
        limits: ExecLimits,
    ) -> [(Result<bool, ExecError>, usize); 3] {
        let mut wscratch = WitnessScratch::default();
        let builtins = BuiltinRegistry::with_defaults();
        let mut tree = Interpreter::with_config(&self.program, builtins.clone(), limits);
        let t = witness.execute_with(&self.program, &mut tree, &mut wscratch);
        let mut vm = Vm::with_scratch(&self.compiled, &builtins, limits, VmScratch::default());
        let v = witness.execute_with(&self.program, &mut vm, &mut wscratch);
        let v_steps = vm.steps();
        // The compiled path reuses the first VM's scratch — exactly the
        // oracle's lifecycle (lower once, reset per round).
        let cw = witness.compile_into(&mut wscratch);
        let mut vm = Vm::with_scratch(&self.compiled, &builtins, limits, vm.into_scratch());
        let w = vm.run_witness(cw);
        [(t, tree.steps()), (v, v_steps), (w, vm.steps())]
    }
}

fn javalib() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let lib = build_library("javalib", 0x5EED).expect("javalib is registered");
        Fixture::prepare(lib.program)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_apps_match_under_default_limits(
        index in 0..46usize,
        seed in 0..3u64,
    ) {
        let app = generate_app(index, 0xA71A5 + seed);
        let [(t_out, t_steps), (v_out, v_steps)] =
            run_both(&app.program, app.entry, ExecLimits::default());
        prop_assert_eq!(&t_out, &v_out);
        prop_assert_eq!(t_steps, v_steps);
        // The suite's entries are built to run to completion.
        prop_assert!(matches!(t_out, ExecOutcome::Returned(_)), "{t_out:?}");
    }

    #[test]
    fn tight_limits_exhaust_at_the_same_statement(
        index in 0..46usize,
        max_steps in 1..600usize,
        max_call_depth in 1..12usize,
        max_heap_objects in 1..60usize,
    ) {
        let app = generate_app(index, 0xA71A5);
        let limits = ExecLimits { max_steps, max_call_depth, max_heap_objects };
        let [(t_out, t_steps), (v_out, v_steps)] = run_both(&app.program, app.entry, limits);
        // Identical outcome: if a limit binds, both engines must report the
        // same LimitExceeded kind...
        prop_assert_eq!(&t_out, &v_out);
        // ...after charging the same number of statements.
        prop_assert_eq!(t_steps, v_steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn javalib_witness_verdicts_match(
        source in any::<prop::sample::Index>(),
        sink in any::<prop::sample::Index>(),
    ) {
        let fix = javalib();
        let witness = fix.witness(source, sink);
        prop_assume!(witness.is_some());
        let witness = witness.unwrap();
        let [(t, t_steps), (v, v_steps), (w, w_steps)] =
            fix.execute_all(&witness, ExecLimits::for_unit_tests());
        prop_assert_eq!(&t, &v);
        prop_assert_eq!(&t, &w);
        prop_assert_eq!(t_steps, v_steps);
        prop_assert_eq!(t_steps, w_steps);
    }

    #[test]
    fn javalib_witnesses_exhaust_identically_under_tight_limits(
        source in any::<prop::sample::Index>(),
        sink in any::<prop::sample::Index>(),
        max_steps in 1..200usize,
        max_call_depth in 1..8usize,
        max_heap_objects in 1..24usize,
    ) {
        let fix = javalib();
        let witness = fix.witness(source, sink);
        prop_assume!(witness.is_some());
        let witness = witness.unwrap();
        let limits = ExecLimits { max_steps, max_call_depth, max_heap_objects };
        // Which limit binds first, and at which statement, must agree
        // across all three paths — including inside inline fast bodies
        // and the compiled witness prologue.
        let [(t, t_steps), (v, v_steps), (w, w_steps)] = fix.execute_all(&witness, limits);
        prop_assert_eq!(&t, &v);
        prop_assert_eq!(&t, &w);
        prop_assert_eq!(t_steps, v_steps);
        prop_assert_eq!(t_steps, w_steps);
    }

    #[test]
    fn synthetic_library_witness_verdicts_match(
        seed in 0..1_000u64,
        classes in 2..5usize,
        source in any::<prop::sample::Index>(),
        sink in any::<prop::sample::Index>(),
    ) {
        let lib = generate_library(&SynthLibConfig {
            name: format!("synth-eq-{seed}"),
            seed,
            classes,
            ..SynthLibConfig::default()
        });
        let fix = Fixture::prepare(lib.program);
        prop_assume!(!fix.sources.is_empty() && !fix.sinks.is_empty());
        let witness = fix.witness(source, sink);
        prop_assume!(witness.is_some());
        let witness = witness.unwrap();
        let [(t, t_steps), (v, v_steps), (w, w_steps)] =
            fix.execute_all(&witness, ExecLimits::for_unit_tests());
        prop_assert_eq!(&t, &v);
        prop_assert_eq!(&t, &w);
        prop_assert_eq!(t_steps, v_steps);
        prop_assert_eq!(t_steps, w_steps);
    }
}

/// The production oracle path against the reference engine, over every
/// two-step `in → receiver, receiver → out` candidate of javalib: the
/// degenerate-word filter, [`PathSpec::new`], witness synthesis, witness
/// lowering, and [`Vm::run_witness`] — exactly what [`Oracle::check_word`]
/// runs — must answer what the tree-walker answers when it executes the
/// same synthesized witness.  Every synthesizable witness also runs
/// through [`Fixture::execute_all`]: the tree-walker, the VM harness and
/// the compiled witness must agree on its verdict and its step count.
#[test]
fn oracle_verdicts_match_tree_walker_on_every_two_step_javalib_candidate() {
    let fix = javalib();
    let limits = ExecLimits::for_unit_tests();
    let mut oracle = Oracle::new(
        &fix.program,
        &fix.interface,
        OracleConfig {
            memoize: false,
            ..OracleConfig::default()
        },
    );
    let (mut witnesses, mut positives, mut steps) = (0usize, 0usize, 0usize);
    for &(entry, mid) in &fix.sources {
        for &(recv, exit) in &fix.sinks {
            let word = [entry, mid, recv, exit];
            let reference = PathSpec::new(word.to_vec())
                .ok()
                .and_then(|spec| {
                    synthesize_witness(
                        &fix.program,
                        &fix.interface,
                        &fix.planner,
                        &spec,
                        InitStrategy::Instantiate,
                    )
                    .ok()
                })
                .map(|witness| {
                    witnesses += 1;
                    let [(t, t_steps), (v, v_steps), (w, w_steps)] =
                        fix.execute_all(&witness, limits);
                    assert_eq!(t, v, "{word:?}: VM harness verdict");
                    assert_eq!(t, w, "{word:?}: compiled witness verdict");
                    assert_eq!(t_steps, v_steps, "{word:?}: VM harness steps");
                    assert_eq!(t_steps, w_steps, "{word:?}: compiled witness steps");
                    steps += t_steps;
                    t.unwrap_or(false)
                })
                .unwrap_or(false);
            positives += usize::from(reference);
            assert_eq!(oracle.check_word(&word), reference, "{word:?}");
        }
    }
    // Uncapped: every synthesizable candidate ran, and the sweep saw both
    // verdicts.
    assert_eq!(witnesses, 2_976);
    assert_eq!(steps, 85_929, "tree-walker steps over the whole sweep");
    assert!(positives > 0 && positives < witnesses, "{positives}");
    assert_eq!(oracle.cache_stats().hits, 0, "memoization is off");
}

/// A program whose lowering contains the three most frequent adjacent
/// instruction pairs of the javalib lowering:
///
/// * `Cell.get` loads `flag` straight into an `if` — `Load+Branch`;
/// * `Cell.prime` ends with a `set` call and falls off — `Call+RetFall`;
/// * `Cell.mark` materializes `true` and stores it — `Const+Store`.
///
/// `Main.test` drives all three and returns whether the stored object
/// round-trips, so the whole surface executes on every run.
fn fused_program() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.class("Object").build();
    let mut c = pb.class("Cell");
    c.library(true);
    c.field("flag", Type::Bool);
    c.field("val", Type::object());
    let mut set = c.method("set");
    let this = set.this();
    let v = set.param("v", Type::object());
    set.store(this, "val", v);
    set.finish();
    let mut mark = c.method("mark");
    let this = mark.this();
    let t = mark.local("t", Type::Bool);
    mark.const_bool(t, true);
    mark.store(this, "flag", t);
    mark.finish();
    let mut prime = c.method("prime");
    let this = prime.this();
    let v = prime.param("v", Type::object());
    let set_id = prime.mref("Cell", "set");
    prime.call(None, set_id, Some(this), &[v]);
    prime.finish();
    let mut get = c.method("get");
    get.returns(Type::object());
    let this = get.this();
    let f = get.local("f", Type::Bool);
    let r = get.local("r", Type::object());
    get.load(f, this, "flag");
    get.if_stmt(
        f,
        |m| {
            m.load(r, this, "val");
            m.ret(Some(r));
        },
        |_| {},
    );
    let nil = get.local("nil", Type::object());
    get.ret(Some(nil));
    get.finish();
    c.build();
    let mut main = pb.class("Main");
    let mut t = main.static_method("test");
    t.returns(Type::Bool);
    let cell = t.local("cell", Type::class("Cell"));
    let obj = t.local("obj", Type::object());
    let out = t.local("out", Type::object());
    let eq = t.local("eq", Type::Bool);
    let cellc = t.cref("Cell");
    let objc = t.cref("Object");
    t.new_object(cell, cellc);
    t.new_object(obj, objc);
    let mark = t.mref("Cell", "mark");
    let prime = t.mref("Cell", "prime");
    let get = t.mref("Cell", "get");
    t.call(None, mark, Some(cell), &[]);
    t.call(None, prime, Some(cell), &[obj]);
    t.call(Some(out), get, Some(cell), &[]);
    t.ref_eq(eq, obj, out);
    t.ret(Some(eq));
    t.finish();
    main.build();
    pb.build()
}

/// A program with one field site shared by two classes: `Holder` declares
/// `f` with its accessors, `AHolder`/`BHolder` extend it, and `Main.test`
/// interleaves receivers of both classes through the same `getf` load for
/// twelve loop iterations.
fn flapping_program() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.class("Object").build();
    let mut base = pb.class("Holder");
    base.library(true);
    base.field("f", Type::object());
    let mut getf = base.method("getf");
    getf.returns(Type::object());
    let this = getf.this();
    let r = getf.local("r", Type::object());
    getf.load(r, this, "f");
    getf.ret(Some(r));
    getf.finish();
    let mut setf = base.method("setf");
    let this = setf.this();
    let v = setf.param("v", Type::object());
    setf.store(this, "f", v);
    setf.finish();
    let holder = base.build();
    let mut a = pb.class("AHolder");
    a.library(true).extends(holder);
    a.build();
    let mut b = pb.class("BHolder");
    b.library(true).extends(holder);
    b.build();
    let mut main = pb.class("Main");
    let mut t = main.static_method("test");
    t.returns(Type::Bool);
    let av = t.local("a", Type::class("AHolder"));
    let bv = t.local("b", Type::class("BHolder"));
    let o = t.local("o", Type::object());
    let x = t.local("x", Type::object());
    let y = t.local("y", Type::object());
    let i = t.local("i", Type::Int);
    let n = t.local("n", Type::Int);
    let one = t.local("one", Type::Int);
    let cond = t.local("cond", Type::Bool);
    let eq1 = t.local("eq1", Type::Bool);
    let eq2 = t.local("eq2", Type::Bool);
    let ok = t.local("ok", Type::Bool);
    let ac = t.cref("AHolder");
    let bc = t.cref("BHolder");
    let objc = t.cref("Object");
    t.new_object(av, ac);
    t.new_object(bv, bc);
    t.new_object(o, objc);
    let setf = t.mref("Holder", "setf");
    let getf = t.mref("Holder", "getf");
    t.call(None, setf, Some(av), &[o]);
    t.call(None, setf, Some(bv), &[o]);
    t.const_int(i, 0);
    t.const_int(n, 12);
    t.const_int(one, 1);
    t.while_stmt(
        |m| {
            m.bin(cond, BinOp::Lt, i, n);
            cond
        },
        |m| {
            m.call(Some(x), getf, Some(av), &[]);
            m.call(Some(y), getf, Some(bv), &[]);
            m.bin(i, BinOp::Add, i, one);
        },
    );
    t.ref_eq(eq1, x, o);
    t.ref_eq(eq2, y, o);
    t.bin(ok, BinOp::And, eq1, eq2);
    t.ret(Some(ok));
    t.finish();
    main.build();
    pb.build()
}

#[test]
fn fused_superinstructions_match_tree_walker_at_every_budget() {
    let p = fused_program();
    let entry = p.method_qualified("Main.test").unwrap();
    let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, ExecLimits::default());
    assert!(t_out.is_true(), "{t_out:?}");
    assert_eq!(t_out, v_out);
    assert_eq!(t_steps, v_steps);
    // Sweep the step budget across every statement boundary: each budget
    // value must exhaust both engines at the same statement, including
    // between the two halves of every hot pair.
    for max_steps in 1..=t_steps {
        let limits = ExecLimits {
            max_steps,
            ..ExecLimits::default()
        };
        let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, limits);
        assert_eq!(t_out, v_out, "budget {max_steps}");
        assert_eq!(t_steps, v_steps, "budget {max_steps}");
    }
    // And starved call depth: the tail call checks depth at the same
    // point in both engines.
    for max_call_depth in 1..4 {
        let limits = ExecLimits {
            max_call_depth,
            ..ExecLimits::default()
        };
        let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, limits);
        assert_eq!(t_out, v_out, "depth {max_call_depth}");
        assert_eq!(t_steps, v_steps, "depth {max_call_depth}");
    }
}

#[test]
fn interleaved_receivers_flap_the_inline_cache_identically() {
    let p = flapping_program();
    let entry = p.method_qualified("Main.test").unwrap();
    let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, ExecLimits::default());
    assert!(t_out.is_true(), "{t_out:?}");
    assert_eq!(t_out, v_out);
    assert_eq!(t_steps, v_steps);
    // Budget sweep across the interleaved loop: every budget value must
    // exhaust both engines at the same statement.
    for max_steps in (1..=t_steps).step_by(7) {
        let limits = ExecLimits {
            max_steps,
            ..ExecLimits::default()
        };
        let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, limits);
        assert_eq!(t_out, v_out, "budget {max_steps}");
        assert_eq!(t_steps, v_steps, "budget {max_steps}");
    }
}

/// A library whose every method body is one of the VM's inline
/// fast-body shapes — identity and `this` returns, a constant return, a
/// getter, a setter, reference equality, a factory (`return new C()`),
/// and literal arithmetic (`return x + 1`) — driven end to end by
/// `Main.test`.  `Main.bad` funnels a null argument into the getter
/// shape so the inline `NullPointer` path is exercised too.
fn fast_body_program() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.class("Object").build();
    let mut c = pb.class("Tiny");
    c.library(true);
    c.field("f", Type::object());
    let mut id = c.method("id");
    id.returns(Type::object());
    id.this();
    let v = id.param("v", Type::object());
    id.ret(Some(v));
    id.finish();
    let mut me = c.method("me");
    me.returns(Type::object());
    let this = me.this();
    me.ret(Some(this));
    me.finish();
    let mut seven = c.method("seven");
    seven.returns(Type::Int);
    seven.this();
    let t = seven.local("t", Type::Int);
    seven.const_int(t, 7);
    seven.ret(Some(t));
    seven.finish();
    let mut getf = c.method("getf");
    getf.returns(Type::object());
    let this = getf.this();
    let r = getf.local("r", Type::object());
    getf.load(r, this, "f");
    getf.ret(Some(r));
    getf.finish();
    let mut setf = c.method("setf");
    let this = setf.this();
    let v = setf.param("v", Type::object());
    setf.store(this, "f", v);
    setf.finish();
    let mut same = c.method("same");
    same.returns(Type::Bool);
    let this = same.this();
    let o = same.param("o", Type::object());
    let r = same.local("r", Type::Bool);
    same.ref_eq(r, this, o);
    same.ret(Some(r));
    same.finish();
    let mut peek = c.method("peek");
    peek.returns(Type::object());
    peek.this();
    let o = peek.param("o", Type::class("Tiny"));
    let r = peek.local("r", Type::object());
    peek.load(r, o, "f");
    peek.ret(Some(r));
    peek.finish();
    let mut make = c.method("make");
    make.returns(Type::object());
    make.this();
    let r = make.local("r", Type::object());
    let objc = make.cref("Object");
    make.new_object(r, objc);
    make.ret(Some(r));
    make.finish();
    let mut inc = c.method("inc");
    inc.returns(Type::Int);
    inc.this();
    let x = inc.param("x", Type::Int);
    let one = inc.local("one", Type::Int);
    let r = inc.local("r", Type::Int);
    inc.const_int(one, 1);
    inc.bin(r, BinOp::Add, x, one);
    inc.ret(Some(r));
    inc.finish();
    c.build();
    let mut main = pb.class("Main");
    let mut t = main.static_method("test");
    t.returns(Type::Bool);
    let cell = t.local("cell", Type::class("Tiny"));
    let obj = t.local("obj", Type::object());
    let a = t.local("a", Type::object());
    let b = t.local("b", Type::object());
    let m = t.local("m", Type::object());
    let s = t.local("s", Type::Int);
    let i = t.local("i", Type::Int);
    let p = t.local("p", Type::object());
    let n = t.local("n", Type::object());
    let eight = t.local("eight", Type::Int);
    let e1 = t.local("e1", Type::Bool);
    let e2 = t.local("e2", Type::Bool);
    let e3 = t.local("e3", Type::Bool);
    let e4 = t.local("e4", Type::Bool);
    let e5 = t.local("e5", Type::Bool);
    let ok = t.local("ok", Type::Bool);
    let tinyc = t.cref("Tiny");
    let objc = t.cref("Object");
    t.new_object(cell, tinyc);
    t.new_object(obj, objc);
    let setf_id = t.mref("Tiny", "setf");
    let getf_id = t.mref("Tiny", "getf");
    let id_id = t.mref("Tiny", "id");
    let me_id = t.mref("Tiny", "me");
    let seven_id = t.mref("Tiny", "seven");
    let inc_id = t.mref("Tiny", "inc");
    let same_id = t.mref("Tiny", "same");
    let peek_id = t.mref("Tiny", "peek");
    let make_id = t.mref("Tiny", "make");
    t.call(None, setf_id, Some(cell), &[obj]);
    t.call(Some(a), getf_id, Some(cell), &[]);
    t.call(Some(b), id_id, Some(cell), &[obj]);
    t.call(Some(m), me_id, Some(cell), &[]);
    t.call(Some(s), seven_id, Some(cell), &[]);
    t.call(Some(i), inc_id, Some(cell), &[s]);
    t.call(Some(e1), same_id, Some(cell), &[m]);
    t.call(Some(p), peek_id, Some(cell), &[cell]);
    t.call(Some(n), make_id, Some(cell), &[]);
    t.const_int(eight, 8);
    t.ref_eq(e2, a, obj);
    t.ref_eq(e3, b, obj);
    t.ref_eq(e4, p, obj);
    t.bin(e5, BinOp::EqInt, i, eight);
    t.bin(ok, BinOp::And, e1, e2);
    t.bin(ok, BinOp::And, ok, e3);
    t.bin(ok, BinOp::And, ok, e4);
    t.bin(ok, BinOp::And, ok, e5);
    let null_obj = t.local("null_obj", Type::object());
    t.ref_eq(e1, n, null_obj);
    t.not(e1, e1);
    t.bin(ok, BinOp::And, ok, e1);
    t.ret(Some(ok));
    t.finish();
    let mut bad = main.static_method("bad");
    bad.returns(Type::object());
    let cell = bad.local("cell", Type::class("Tiny"));
    let nil = bad.local("nil", Type::class("Tiny"));
    let out = bad.local("out", Type::object());
    let tinyc = bad.cref("Tiny");
    let peek_id = bad.mref("Tiny", "peek");
    bad.new_object(cell, tinyc);
    bad.call(Some(out), peek_id, Some(cell), &[nil]);
    bad.ret(Some(out));
    bad.finish();
    main.build();
    pb.build()
}

#[test]
fn every_tiny_body_classifies_as_a_fast_shape() {
    let compiled = CompiledProgram::compile(&fast_body_program());
    // The nine Tiny methods inline; Main's bodies stay frame-dispatched.
    assert_eq!(compiled.num_fast_bodies(), 9);
    // The real workload leans on the same shapes: javalib must classify
    // a meaningful share of its methods or the fast path is dead code.
    assert!(
        javalib().compiled.num_fast_bodies() > 0,
        "javalib classified no fast bodies"
    );
}

#[test]
fn fast_bodies_match_tree_walker_at_every_budget() {
    let p = fast_body_program();
    let entry = p.method_qualified("Main.test").unwrap();
    let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, ExecLimits::default());
    assert!(t_out.is_true(), "{t_out:?}");
    assert_eq!(t_out, v_out);
    assert_eq!(t_steps, v_steps);
    // Sweep the step budget across every statement boundary: each inline
    // shape must charge its ticks in the original instruction order, so
    // every budget value exhausts both engines at the same statement.
    for max_steps in 1..=t_steps {
        let limits = ExecLimits {
            max_steps,
            ..ExecLimits::default()
        };
        let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, limits);
        assert_eq!(t_out, v_out, "budget {max_steps}");
        assert_eq!(t_steps, v_steps, "budget {max_steps}");
    }
    // Starve the heap: the factory shape's post-allocation tick must see
    // the grown heap exactly like a framed NewObj would.
    for max_heap_objects in 1..4 {
        let limits = ExecLimits {
            max_heap_objects,
            ..ExecLimits::default()
        };
        let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, limits);
        assert_eq!(t_out, v_out, "heap {max_heap_objects}");
        assert_eq!(t_steps, v_steps, "heap {max_heap_objects}");
    }
    // And call depth: the inline dispatch still charges one frame.
    for max_call_depth in 1..4 {
        let limits = ExecLimits {
            max_call_depth,
            ..ExecLimits::default()
        };
        let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, limits);
        assert_eq!(t_out, v_out, "depth {max_call_depth}");
        assert_eq!(t_steps, v_steps, "depth {max_call_depth}");
    }
}

#[test]
fn fast_body_error_paths_match() {
    let p = fast_body_program();
    let entry = p.method_qualified("Main.bad").unwrap();
    let [(t_out, t_steps), (v_out, v_steps)] = run_both(&p, entry, ExecLimits::default());
    assert!(
        matches!(t_out, ExecOutcome::Failed(ExecError::NullPointer)),
        "{t_out:?}"
    );
    assert_eq!(t_out, v_out);
    assert_eq!(t_steps, v_steps);
}

#[test]
fn steady_state_rounds_do_not_grow_arenas() {
    let fix = javalib();
    let limits = ExecLimits::for_unit_tests();
    let builtins = BuiltinRegistry::with_defaults();
    // The oracle's lifecycle: synthesize the workload, lower each witness
    // once, then reset + run per round off one recycled scratch.
    let mut witnesses: Vec<WitnessTest> = Vec::new();
    'outer: for &(entry, mid) in &fix.sources {
        for &(recv, exit) in &fix.sinks {
            if witnesses.len() >= 8 {
                break 'outer;
            }
            let Ok(spec) = PathSpec::new(vec![entry, mid, recv, exit]) else {
                continue;
            };
            if let Ok(w) = synthesize_witness(
                &fix.program,
                &fix.interface,
                &fix.planner,
                &spec,
                InitStrategy::Instantiate,
            ) {
                witnesses.push(w);
            }
        }
    }
    assert!(!witnesses.is_empty(), "the workload must not be empty");
    let compiled_ws: Vec<CompiledWitness> = witnesses.iter().map(WitnessTest::compile).collect();
    let mut vm = Vm::with_scratch(&fix.compiled, &builtins, limits, VmScratch::default());
    // First pass grows the arenas to their high-water marks...
    let mut first = Vec::new();
    for cw in &compiled_ws {
        vm.reset(limits);
        first.push(vm.run_witness(cw));
    }
    let caps = vm.arena_capacities();
    // ...after which back-to-back rounds must perform zero new growth,
    // and every round must reproduce the first round's verdicts exactly.
    for round in 0..3 {
        let mut verdicts = Vec::new();
        for cw in &compiled_ws {
            vm.reset(limits);
            verdicts.push(vm.run_witness(cw));
        }
        assert_eq!(verdicts, first, "round {round} diverged");
        assert_eq!(
            vm.arena_capacities(),
            caps,
            "round {round} grew an arena in the steady state"
        );
    }
}
