//! The Atlas end-to-end benchmark.  See `perfbench/README.md` for the
//! workloads, the metrics, and which layer moves which number.
//!
//! ```text
//! perfbench --workload <cold-javalib|warm-restart|serve-edits>
//!           --seed <n> --seconds <s> --trace <0|1> [--toy]
//! ```
//!
//! Every run prints one human-readable `name value unit` line per number
//! it measured, then, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  Untraced
//! runs (`--trace 0`) put the end-to-end metrics in `metrics`; traced
//! runs (`--trace 1`) put the per-layer metrics there, and export a
//! Chrome trace plus a per-layer JSON under `.bench_out/<workload>/`.

mod cold;
mod edits;
mod measure;
mod restart;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The end-to-end metrics every untraced run reports, whatever its
/// workload: `(name, unit)`.  What an "op" is depends on the workload;
/// see the README, which also says why the median op time is printed
/// but not among them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports: `(name, unit)`.  A
/// layer the workload does not exercise reads `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The workload-specific end-to-end numbers, split by op kind.
    ("cold_p50_s", "s"),
    ("restart_p50_ms", "ms"),
    ("restart_tail_ms", "ms"),
    ("edit_p50_ms", "ms"),
    ("edit_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("edits_per_s", "1/s"),
    // cold-javalib
    ("learn.rpni.ms", "ms"),
    ("learn.rpni.max_cluster_ms", "ms"),
    ("learn.sample.ms", "ms"),
    ("learn.rpni.self_ms", "ms"),
    ("learn.sample.self_ms", "ms"),
    ("learn.oracle.ms", "ms"),
    ("learn.oracle.queries", "count"),
    ("learn.oracle.executions", "count"),
    ("learn.cache.hit_rate", "ratio"),
    ("learn.cache.key_ns", "ns"),
    ("synth.witness_us", "us"),
    ("synth.lower_us", "us"),
    ("interp.vm_us", "us"),
    ("interp.compile_ms", "ms"),
    ("store.spec_encode_ms", "ms"),
    // warm-restart
    ("serve.daemon.spawn_ms", "ms"),
    ("serve.proto.first_read_ms", "ms"),
    ("store.cache_decode_ms", "ms"),
    ("store.spec_decode_ms", "ms"),
    ("store.shard_bytes", "bytes"),
    ("apps.build_library_ms", "ms"),
    ("ir.depgraph_ms", "ms"),
    ("serve.shards.loads", "count"),
    ("serve.shards.flushes", "count"),
    ("serve.shards.evictions", "count"),
    // serve-edits
    ("serve.request.edit_p50_ms", "ms"),
    ("serve.request.edit_tail_ms", "ms"),
    ("serve.request.specs_ms", "ms"),
    ("serve.service.handoff_ms", "ms"),
    ("serve.service.queue_wait_ms", "ms"),
    ("core.incremental.ms", "ms"),
    ("learn.cluster_ms", "ms"),
    ("serve.shards.flush_ms", "ms"),
    ("serve.request.unattributed_ms", "ms"),
    ("serve.request.attributed_share", "ratio"),
    ("apps.mutate_ms", "ms"),
    ("serve.edit_growth", "ratio"),
    ("core.incremental.dirty_clusters", "count"),
    ("core.incremental.spliced_verdicts", "count"),
    ("learn.cache.entries", "count"),
    ("serve.proto.render_ms", "ms"),
    // all workloads
    ("obs.trace_overhead_pct", "%"),
    ("host.mem_probe_ms", "ms"),
    ("host.cpu_probe_ms", "ms"),
    ("work.mismatches", "count"),
];

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Seeds the host sentinel.  The workload inputs are pinned (see the
    /// README): the work-count fingerprints and golden hashes must repeat
    /// exactly from run to run.
    pub seed: u64,
    /// How long the measured loop may run; each workload turns it into
    /// a fixed number of ops (see [`Schedule`]).
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes (`javalib-lang`, a 24-edit stream) for the smoke test.
    pub toy: bool,
    /// Where traced runs write their exports and the serve workloads
    /// keep their stores.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        toy: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            args.toy = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Numbers by name: `(value, unit)`.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check of every op passed, and the run-level checks
    /// (final artifact, golden hashes) too.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every number measured.  All of them are printed; the JSON result
    /// holds the ones declared for the mode.
    pub metrics: Metrics,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records one op's output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: op {} failed: {}", self.attempted, what());
        }
    }

    /// Sets the end-to-end metrics from the set-up times (s), the median
    /// and tail op times (ms) and the throughput of the untraced ops.
    pub fn end_to_end(&mut self, setups: &[f64], p50_ms: f64, tail_ms: f64, ops_per_s: f64) {
        self.set("setup_s", measure::median(setups), "s");
        self.set("op_p50_ms", p50_ms, "ms");
        self.set("op_tail_ms", tail_ms, "ms");
        self.set("ops_per_s", ops_per_s, "1/s");
        self.set("peak_rss_mb", measure::peak_rss_mb(), "MB");
    }

    /// Records the work-count fingerprint, `(name, unit, count, recorded
    /// count)`: each deterministic count, and in `work.mismatches` how many
    /// differ from the counts recorded when the benchmark was added.  A
    /// mismatch is flagged, not failed: a change may legitimately alter
    /// the work, and it shows here first.
    pub fn work(&mut self, counts: &[(&'static str, &'static str, f64, f64)]) {
        let mut mismatches = 0;
        for &(name, unit, count, recorded) in counts {
            self.set(name, count, unit);
            if count != recorded {
                mismatches += 1;
                eprintln!(
                    "perfbench: work-count fingerprint differs: {name} {count} (recorded {recorded})"
                );
            }
        }
        self.set("work.mismatches", f64::from(mismatches), "count");
    }
}

/// The measured loop's schedule: a fixed number of ops, `--seconds`
/// over the workload's op time, at least one.  However fast the host
/// is, a run makes the same ops, so every number means the same on every
/// run.  A traced run alternates untraced and traced ops and makes an
/// odd number, at least three, so every traced op sits between untraced
/// ones and the overhead of tracing is measured under the same host
/// conditions.
pub struct Schedule {
    ops: usize,
    trace: bool,
    untraced: usize,
    traced: usize,
}

impl Schedule {
    /// `op_s` is how long one op, with what the loop does between ops,
    /// takes at most on the reference host, so the ops end within
    /// `--seconds` there.
    pub fn new(args: &Args, op_s: f64) -> Schedule {
        let ops = ((args.seconds / op_s) as usize).max(1);
        Schedule {
            ops: if args.trace { (ops | 1).max(3) } else { ops },
            trace: args.trace,
            untraced: 0,
            traced: 0,
        }
    }

    /// Whether to run another op, and if so whether to trace it.
    pub fn next_op(&mut self) -> Option<bool> {
        if self.untraced + self.traced >= self.ops {
            return None;
        }
        let trace = self.trace && self.untraced > self.traced;
        if trace {
            self.traced += 1;
        } else {
            self.untraced += 1;
        }
        Some(trace)
    }
}

/// The daemon both serve workloads run: one engine thread, one worker.
pub fn serve_config(
    library: &str,
    samples: usize,
    store: &Path,
    trace: bool,
) -> atlas_serve::ServeConfig {
    atlas_serve::ServeConfig::new()
        .with_library(library)
        .with_samples(samples)
        .with_threads(1)
        .with_workers(1)
        .with_store(store.to_path_buf())
        .with_trace(trace)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "cold-javalib" => cold::run(&args),
        "warm-restart" => restart::run(&args),
        "serve-edits" => edits::run(&args),
        other => Err(format!(
            "unknown workload '{other}' (cold-javalib, warm-restart, serve-edits)"
        )),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print_outcome(&args, &outcome);
    ExitCode::SUCCESS
}

fn print_outcome(args: &Args, outcome: &Outcome) {
    for (name, (value, unit)) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(&(value, recorded)) => {
                assert_eq!(recorded, *unit, "{name} is recorded in another unit");
                value
            }
            None => {
                println!("{name} 0 {unit}");
                0.0
            }
        };
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct && outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
}

/// Renders a metric value with all its digits; JSON has no NaN.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}
