//! The oracle-throughput leg: measure the bytecode VM against the
//! tree-walking interpreter on the oracle's actual inner loop, and verify
//! on the way that the two engines are observationally identical.
//!
//! One [`run_oracle_bench`] call:
//!
//! 1. builds a registered library (same fleet registry as the other legs)
//!    and enumerates a deterministic workload of two-step candidate path
//!    specifications over its interface — the `in → receiver, receiver →
//!    out` shape that dominates phase one — keeping those whose witness
//!    synthesizes;
//! 2. lowers the program to bytecode once ([`CompiledProgram::compile`]),
//!    timing the compilation and counting instructions, and lowers every
//!    witness prologue to a [`CompiledWitness`] once — the per-workload
//!    *setup* cost, timed apart from execution;
//! 3. executes every witness for the configured number of rounds under
//!    each engine — one [`Vm`] [`reset`](Vm::reset) plus
//!    [`run_witness`](Vm::run_witness) per execution (the [`VmScratch`]
//!    carried across slices), versus a fresh reference [`Interpreter`]
//!    per execution —
//!    and records wall-clock, verdicts, and interpreter step counts.  The
//!    rounds are split into interleaved timed slices and each engine is
//!    scored by its fastest slice, so scheduler steal on a shared host
//!    cannot be misattributed to either engine.  Each engine's report
//!    splits `setup_ns` (one-time witness lowering; zero for the
//!    tree-walker, which re-marshals every round by design) from
//!    `exec_ns` (the timed slices), so a lowering win can never be
//!    mistaken for an execution win: the headline `execs_per_sec_best`
//!    is computed from `exec_ns` alone;
//! 4. cross-checks the engines: per-witness verdicts and total step
//!    counts must agree;
//! 5. emits an `atlas-oracle/1` JSON report (executions/sec and steps/sec
//!    per engine, compile cost, speedup) plus a human summary.  Under
//!    `ATLAS_VM_PROFILE` (or [`OracleBenchConfig::profile`]) a dedicated
//!    untimed pass additionally records per-opcode dynamic execution
//!    counts — reported under `profile`, never touching the timed
//!    slices.
//!
//! The `oracle` binary adds `--expect-speedup N`, which turns the
//! performance contract (bytecode at least `N`x the tree-walker's
//! executions/sec) and the equivalence contract into an exit code for CI.

use crate::config::{env_parse, trace_enabled, vm_profile_enabled};
use crate::fleet::{build_library, FleetError};
use crate::json::Json;
use atlas_interp::{
    BuiltinRegistry, CompiledProgram, CompiledWitness, ExecLimits, Interpreter, Vm, VmScratch,
};
use atlas_ir::{LibraryInterface, ParamSlot};
use atlas_obs::{ArgValue, Recorder};
use atlas_spec::PathSpec;
use atlas_synth::{
    synthesize_witness, InitStrategy, InstantiationPlanner, WitnessScratch, WitnessTest,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Configuration of an oracle-throughput run.
#[derive(Debug, Clone)]
pub struct OracleBenchConfig {
    /// Registry name of the library under measurement.
    pub library: String,
    /// Maximum number of distinct witnesses in the workload.
    pub words: usize,
    /// Executions per witness per engine.
    pub rounds: usize,
    /// Record span events (`ATLAS_TRACE`); see `atlas-obs`.  Spans cover
    /// compilation and the timed slices — never the measured inner loop,
    /// and never the results.
    pub trace: bool,
    /// Record per-opcode dynamic execution counts (`ATLAS_VM_PROFILE`).
    /// Off by default; the counts come from a dedicated untimed pass, so
    /// enabling the knob never disturbs the timed slices or the results.
    pub profile: bool,
}

impl OracleBenchConfig {
    /// Reads the configuration from the environment: `ATLAS_ORACLE_WORDS`
    /// and `ATLAS_ORACLE_ROUNDS` size the workload.
    pub fn from_env() -> OracleBenchConfig {
        OracleBenchConfig {
            library: "javalib".to_string(),
            words: env_parse("ATLAS_ORACLE_WORDS").unwrap_or(64),
            rounds: env_parse("ATLAS_ORACLE_ROUNDS").unwrap_or(200),
            trace: trace_enabled(),
            profile: vm_profile_enabled(),
        }
    }

    /// A small configuration suitable for tests.
    pub fn small() -> OracleBenchConfig {
        OracleBenchConfig {
            library: "javalib-lang".to_string(),
            words: 8,
            rounds: 3,
            trace: false,
            profile: false,
        }
    }
}

/// The outcome of an oracle-throughput run: the JSON document plus a human
/// summary.
#[derive(Debug, Clone)]
pub struct OracleBenchReport {
    /// The machine-readable report (schema `atlas-oracle/1`).
    pub json: Json,
    /// A short human-readable summary.
    pub summary: String,
    /// The run's observability session (span events when
    /// [`OracleBenchConfig::trace`] was set) — feed it to
    /// [`atlas_obs::write_chrome_trace`] for the `--trace-out` sink.
    pub recorder: Recorder,
}

/// One engine's aggregate over the workload.
#[derive(Debug, Clone, Default)]
struct EngineRun {
    executions: usize,
    steps: usize,
    positives: usize,
    /// One-time per-workload preparation: witness lowering for the
    /// bytecode engine, zero for the tree-walker (whose marshalling is
    /// inherently per-round — the asymmetry this leg measures).  Never
    /// part of `wall`, so throughput figures are pure execution.
    setup: Duration,
    /// Pure execution time: the sum of the timed slices.
    wall: Duration,
    /// Per-slice throughput samples (executions/sec), one per timed slice.
    slice_rates: Vec<f64>,
}

impl EngineRun {
    fn execs_per_sec(&self) -> f64 {
        per_sec(self.executions, self.wall)
    }

    /// The fastest slice's throughput — the noise-robust figure.  A timed
    /// slice can only ever be *slowed down* by the host (scheduler steal,
    /// cache pollution from neighbors), never sped up, so on a shared
    /// machine the best of several interleaved slices is the measurement
    /// closest to the code's true cost.
    fn best_execs_per_sec(&self) -> f64 {
        self.slice_rates
            .iter()
            .copied()
            .fold(self.execs_per_sec(), f64::max)
    }

    fn json(&self) -> Json {
        Json::obj()
            .set("executions", self.executions)
            .set("steps", self.steps)
            .set("positive_verdicts", self.positives)
            .set("setup_ns", self.setup.as_nanos() as usize)
            .set("exec_ns", self.wall.as_nanos() as usize)
            .set("wall_ms", self.wall.as_secs_f64() * 1e3)
            .set("execs_per_sec", self.execs_per_sec())
            .set("execs_per_sec_best", self.best_execs_per_sec())
            .set("steps_per_sec", per_sec(self.steps, self.wall))
    }
}

fn per_sec(count: usize, wall: Duration) -> f64 {
    if wall.as_secs_f64() > 0.0 {
        count as f64 / wall.as_secs_f64()
    } else {
        f64::INFINITY
    }
}

/// Enumerates the workload: two-step candidates `(entry a → receiver a,
/// receiver b → return b)` over the interface, in canonical slot order,
/// keeping the first `max` whose witness synthesizes.
fn workload(
    program: &atlas_ir::Program,
    interface: &LibraryInterface,
    planner: &InstantiationPlanner,
    max: usize,
) -> Vec<WitnessTest> {
    let mut out = Vec::new();
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
    'outer: for &(entry, mid) in &sources {
        for &(recv, exit) in &sinks {
            if out.len() >= max {
                break 'outer;
            }
            let Ok(spec) = PathSpec::new(vec![entry, mid, recv, exit]) else {
                continue;
            };
            if let Ok(witness) = synthesize_witness(
                program,
                interface,
                planner,
                &spec,
                InitStrategy::Instantiate,
            ) {
                out.push(witness);
            }
        }
    }
    out
}

/// Runs the full oracle-throughput pipeline.  See the [module docs](self).
///
/// # Errors
/// Returns [`FleetError`] on an unknown library name.
pub fn run_oracle_bench(config: &OracleBenchConfig) -> Result<OracleBenchReport, FleetError> {
    let recorder = if config.trace {
        Recorder::tracing()
    } else {
        Recorder::metrics()
    };
    let lib = build_library(&config.library, 0x5EED)?;
    let program = &lib.program;
    let interface = LibraryInterface::from_program(program);
    let planner = InstantiationPlanner::new(program, &interface);
    let witnesses = workload(program, &interface, &planner, config.words);
    let limits = ExecLimits::for_unit_tests();
    let builtins = BuiltinRegistry::with_defaults();

    // 2. One-time lowering, timed.
    let mut obs_lane = recorder.lane(0);
    let compile_span = obs_lane.begin();
    let t = Instant::now();
    let compiled = CompiledProgram::compile(program);
    let compile_time = t.elapsed();
    obs_lane.end(
        compile_span,
        "oracle",
        "compile",
        vec![
            ("methods", ArgValue::from(compiled.num_methods())),
            (
                "instructions",
                ArgValue::from(compiled.total_instructions()),
            ),
        ],
    );

    // 3. The measured loops: the bytecode engine runs each witness as a
    // compiled prologue (lowered once, below — the engine's `setup_ns`),
    // the tree-walker re-marshals per round through the reference
    // harness.  Verdicts and steps are collected for the cross-check.
    let mut vm_run = EngineRun::default();
    let mut vm_verdicts = Vec::with_capacity(witnesses.len() * config.rounds);
    let mut scratch = VmScratch::default();
    let mut wscratch = WitnessScratch::default();

    // One-time witness lowering — the bytecode engine's setup cost,
    // timed apart from execution so the split is visible in the report.
    let t = Instant::now();
    let compiled_witnesses: Vec<CompiledWitness> =
        witnesses.iter().map(WitnessTest::compile).collect();
    vm_run.setup = t.elapsed();

    // Untimed warmup: one pass of the workload under each engine, so
    // first-run effects (allocator arenas, instruction cache, scratch
    // high-water marks, CPU frequency ramp) are paid before either timer
    // starts instead of being charged to whichever engine runs first.
    {
        let mut vm = Vm::with_scratch(&compiled, &builtins, limits, scratch);
        for cw in &compiled_witnesses {
            vm.reset(limits);
            let _ = vm.run_witness(cw);
        }
        scratch = vm.into_scratch();
    }
    for witness in &witnesses {
        let mut interp = Interpreter::with_config(program, builtins.clone(), limits);
        let _ = witness.execute_with(program, &mut interp, &mut wscratch);
    }

    // The rounds are split into interleaved slices (VM, tree, VM, tree,
    // ...), each timed on its own, and every engine is additionally scored
    // by its *fastest* slice.  On a shared single-CPU host a timed region
    // can absorb arbitrary scheduler steal; one engine's bad luck would
    // otherwise masquerade as a speedup (or slowdown) of the other.
    // Interleaving spreads the luck and the best slice strips it.
    let mut tree_run = EngineRun::default();
    let mut tree_verdicts = Vec::with_capacity(witnesses.len() * config.rounds);
    let slices = config.rounds.clamp(1, 8);
    for slice in 0..slices {
        let slice_rounds = config.rounds / slices + usize::from(slice < config.rounds % slices);

        // One span per timed slice — outside the measured region's inner
        // loop, so recording cost never lands on an individual execution.
        let vm_span = obs_lane.begin();
        let t = Instant::now();
        let mut slice_execs = 0usize;
        let mut vm = Vm::with_scratch(&compiled, &builtins, limits, scratch);
        for cw in &compiled_witnesses {
            for _ in 0..slice_rounds {
                vm.reset(limits);
                let verdict = vm.run_witness(cw).unwrap_or(false);
                vm_verdicts.push(verdict);
                slice_execs += 1;
                vm_run.steps += vm.steps();
                vm_run.positives += usize::from(verdict);
            }
        }
        scratch = vm.into_scratch();
        let wall = t.elapsed();
        vm_run.executions += slice_execs;
        vm_run.wall += wall;
        vm_run.slice_rates.push(per_sec(slice_execs, wall));
        obs_lane.end(
            vm_span,
            "oracle",
            "slice.vm",
            vec![
                ("slice", ArgValue::from(slice)),
                ("executions", ArgValue::from(slice_execs)),
            ],
        );

        let tree_span = obs_lane.begin();
        let t = Instant::now();
        let mut slice_execs = 0usize;
        for witness in &witnesses {
            for _ in 0..slice_rounds {
                let mut interp = Interpreter::with_config(program, builtins.clone(), limits);
                let verdict = witness
                    .execute_with(program, &mut interp, &mut wscratch)
                    .unwrap_or(false);
                tree_verdicts.push(verdict);
                slice_execs += 1;
                tree_run.steps += interp.steps();
                tree_run.positives += usize::from(verdict);
            }
        }
        let wall = t.elapsed();
        tree_run.executions += slice_execs;
        tree_run.wall += wall;
        tree_run.slice_rates.push(per_sec(slice_execs, wall));
        obs_lane.end(
            tree_span,
            "oracle",
            "slice.tree",
            vec![
                ("slice", ArgValue::from(slice)),
                ("executions", ArgValue::from(slice_execs)),
            ],
        );
    }
    recorder.count("oracle.vm_executions", vm_run.executions as u64);
    recorder.count("oracle.tree_executions", tree_run.executions as u64);
    drop(obs_lane);

    // Optional profiling pass (`ATLAS_VM_PROFILE`): per-opcode dynamic
    // counts over one full workload pass.  Runs after the timed slices so
    // the counter branch never executes inside a measured region.
    let profile = if config.profile {
        let mut scratch = scratch;
        scratch.enable_profile();
        let mut vm = Vm::with_scratch(&compiled, &builtins, limits, scratch);
        for cw in &compiled_witnesses {
            vm.reset(limits);
            let _ = vm.run_witness(cw);
        }
        let mut scratch = vm.into_scratch();
        let prof = scratch.take_profile().expect("profile was enabled");
        let mut ops = Json::obj();
        for (kind, n) in prof.histogram() {
            ops = ops.set(kind.name(), n as usize);
        }
        Some(
            Json::obj()
                .set("ops", ops)
                .set("dynamic_total", prof.total() as usize),
        )
    } else {
        drop(scratch);
        None
    };

    // 4. Cross-check the engines.
    let verdicts_identical = vm_verdicts == tree_verdicts;
    let steps_identical = vm_run.steps == tree_run.steps;
    // Best slice against best slice: compare the engines at their least
    // host-disturbed, not at their unluckiest.
    let speedup = if tree_run.best_execs_per_sec() > 0.0 {
        vm_run.best_execs_per_sec() / tree_run.best_execs_per_sec()
    } else {
        f64::INFINITY
    };

    // 5. Assemble the report.
    let mut json = Json::obj()
        .set("schema", "atlas-oracle/1")
        .set(
            "config",
            Json::obj()
                .set("library", config.library.as_str())
                .set("words", witnesses.len())
                .set("rounds", config.rounds),
        )
        .set(
            "compile",
            Json::obj()
                .set("methods", compiled.num_methods())
                .set("instructions", compiled.total_instructions())
                .set("compile_ms", compile_time.as_secs_f64() * 1e3),
        )
        .set(
            "engines",
            Json::obj()
                .set("bytecode", vm_run.json())
                .set("tree_walk", tree_run.json()),
        )
        .set("speedup", speedup)
        .set("verdicts_identical", verdicts_identical)
        .set("steps_identical", steps_identical)
        .set("metrics", atlas_obs::metrics_snapshot(&recorder));
    if let Some(profile) = profile {
        json = json.set("profile", profile);
    }

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "workload: {} witnesses x {} rounds over {}",
        witnesses.len(),
        config.rounds,
        config.library,
    );
    let _ = writeln!(
        summary,
        "compile: {} methods -> {} instructions in {:.2?}",
        compiled.num_methods(),
        compiled.total_instructions(),
        compile_time,
    );
    let _ = writeln!(
        summary,
        "setup: {} witness prologues lowered in {:.2?} (excluded from throughput)",
        compiled_witnesses.len(),
        vm_run.setup,
    );
    let _ = writeln!(
        summary,
        "bytecode: {:.0} execs/sec, tree-walk: {:.0} execs/sec ({speedup:.1}x best-slice)",
        vm_run.best_execs_per_sec(),
        tree_run.best_execs_per_sec(),
    );
    let _ = writeln!(
        summary,
        "equivalence: verdicts identical={verdicts_identical}, steps identical={steps_identical}",
    );
    Ok(OracleBenchReport {
        json,
        summary,
        recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_report_shows_equivalent_engines() {
        let report = run_oracle_bench(&OracleBenchConfig::small()).expect("oracle bench");
        let json = &report.json;
        assert_eq!(json.get("schema"), Some(&Json::str("atlas-oracle/1")));
        assert_eq!(json.get("verdicts_identical"), Some(&Json::Bool(true)));
        assert_eq!(json.get("steps_identical"), Some(&Json::Bool(true)));
        let config = json.get("config").expect("config");
        let words = config.get("words").and_then(Json::as_int).unwrap();
        assert!(words > 0, "the workload must not be empty");
        let engines = json.get("engines").expect("engines");
        for engine in ["bytecode", "tree_walk"] {
            let run = engines.get(engine).expect(engine);
            let execs = run.get("executions").and_then(Json::as_int).unwrap();
            assert_eq!(execs, words * 3, "{engine} executes every round");
            assert!(run.get("steps").and_then(Json::as_int).unwrap() > 0);
            assert!(run.get("exec_ns").and_then(Json::as_int).unwrap() > 0);
            assert!(run.get("setup_ns").and_then(Json::as_int).is_some());
        }
        // The tree-walker has no separable setup; the bytecode engine's is
        // the one-time witness lowering.
        let tree_setup = engines
            .get("tree_walk")
            .and_then(|r| r.get("setup_ns"))
            .and_then(Json::as_int)
            .unwrap();
        assert_eq!(tree_setup, 0, "tree-walker setup is per-round by design");
        let compile = json.get("compile").expect("compile");
        assert!(compile.get("instructions").and_then(Json::as_int).unwrap() > 0);
        assert!(
            json.get("profile").is_none(),
            "profiling stays off by default"
        );
        assert!(report
            .summary
            .contains("verdicts identical=true, steps identical=true"));
    }

    #[test]
    fn profiled_report_counts_opcodes() {
        let config = OracleBenchConfig {
            profile: true,
            ..OracleBenchConfig::small()
        };
        let report = run_oracle_bench(&config).expect("oracle bench");
        let profile = report.json.get("profile").expect("profile section");
        let total = profile.get("dynamic_total").and_then(Json::as_int).unwrap();
        assert!(total > 0, "the profiling pass must count executions");
        let ops = profile.get("ops").expect("ops histogram");
        // Every witness prologue issues calls and ends in a verdict.
        assert!(ops.get("WCall").and_then(Json::as_int).unwrap() > 0);
        assert!(ops.get("WVerdict").and_then(Json::as_int).unwrap() > 0);
    }

    #[test]
    fn unknown_library_errors_cleanly() {
        let config = OracleBenchConfig {
            library: "no-such-library".to_string(),
            ..OracleBenchConfig::small()
        };
        assert!(run_oracle_bench(&config).is_err());
    }
}
