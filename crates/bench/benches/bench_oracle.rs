//! Criterion benches for the oracle: witness synthesis and blackbox
//! execution throughput (the inner loop of phase one), with the bytecode
//! VM and the tree-walking interpreter side by side.

use atlas_interp::{BuiltinRegistry, CompiledProgram, ExecLimits, Interpreter, Vm};
use atlas_ir::{LibraryInterface, ParamSlot};
use atlas_learn::{Oracle, OracleConfig};
use atlas_spec::PathSpec;
use atlas_synth::{synthesize_witness, InitStrategy, InstantiationPlanner};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_oracle(c: &mut Criterion) {
    let library = atlas_javalib::library_program();
    let interface = LibraryInterface::from_program(&library);
    let planner = InstantiationPlanner::new(&library, &interface);
    let add = library.method_qualified("ArrayList.add").unwrap();
    let get = library.method_qualified("ArrayList.get").unwrap();
    let spec = PathSpec::new(vec![
        ParamSlot::param(add, 0),
        ParamSlot::receiver(add),
        ParamSlot::receiver(get),
        ParamSlot::ret(get),
    ])
    .unwrap();

    c.bench_function("witness_synthesis_arraylist", |b| {
        b.iter(|| {
            synthesize_witness(
                &library,
                &interface,
                &planner,
                &spec,
                InitStrategy::Instantiate,
            )
            .unwrap()
        })
    });

    let witness = synthesize_witness(
        &library,
        &interface,
        &planner,
        &spec,
        InitStrategy::Instantiate,
    )
    .unwrap();
    c.bench_function("witness_execution_arraylist_treewalk", |b| {
        b.iter(|| {
            let mut interp = Interpreter::new(&library);
            witness.execute(&library, &mut interp).unwrap()
        })
    });

    // The bytecode counterpart: the program is lowered once (as the
    // oracle does it), only the per-execution VM is fresh.
    let compiled = CompiledProgram::compile(&library);
    let builtins = BuiltinRegistry::with_defaults();
    c.bench_function("witness_execution_arraylist_bytecode", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&compiled, &builtins, ExecLimits::default());
            witness.execute(&library, &mut vm).unwrap()
        })
    });

    c.bench_function("program_compilation_javalib", |b| {
        b.iter(|| CompiledProgram::compile(&library))
    });

    c.bench_function("oracle_query_uncached_bytecode", |b| {
        b.iter(|| {
            let mut oracle = Oracle::new(
                &library,
                &interface,
                OracleConfig {
                    memoize: false,
                    ..OracleConfig::default()
                },
            );
            oracle.check(&spec)
        })
    });
}

criterion_group!(benches, bench_oracle);
criterion_main!(benches);
