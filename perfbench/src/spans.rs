//! The traced run's bookkeeping: the benchmark's own spans, the program's
//! recorders, self-time arithmetic over their events, and the exports
//! (one Chrome trace holding both, plus a per-layer JSON).

use crate::{Args, Metrics};
use atlas_obs::{chrome_trace, ArgValue, Event, Lane, Recorder, SpanStart};
use atlas_store::Json;
use std::path::Path;

/// Chrome-trace process ids: the benchmark's spans and the program's.
const BENCH_PID: i64 = 1;
const PROGRAM_PID: i64 = 2;

/// The benchmark's recorder plus every program recorder the run used,
/// each with the offset of its epoch from the benchmark's.
pub struct Tracer {
    bench: Recorder,
    programs: Vec<(Recorder, f64)>,
    next_op: i64,
}

/// One op's span on the benchmark's lane: children are opened with
/// [`OpSpan::child`] and nest inside it by time.
pub struct OpSpan {
    lane: Lane,
    start: SpanStart,
    op: i64,
}

impl Tracer {
    /// A tracer that records (`on`) or only hands out no-op spans.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            bench: if on {
                Recorder::tracing()
            } else {
                Recorder::off()
            },
            programs: Vec::new(),
            next_op: 0,
        }
    }

    /// A fresh tracing recorder for the program, aligned to this
    /// tracer's clock in the export.
    pub fn program_recorder(&mut self) -> Recorder {
        let recorder = Recorder::tracing();
        self.adopt(&recorder);
        recorder
    }

    /// Registers a recorder the program created itself (the daemon's).
    pub fn adopt(&mut self, recorder: &Recorder) {
        let offset_ns = self.bench.now_ns() as f64 - recorder.now_ns() as f64;
        self.programs.push((recorder.clone(), offset_ns));
    }

    /// Opens the span of the next op; every op gets its own id.
    pub fn op(&mut self) -> OpSpan {
        let lane = self.bench.lane(0);
        let start = lane.begin();
        self.next_op += 1;
        OpSpan {
            lane,
            start,
            op: self.next_op,
        }
    }

    /// Writes one Chrome trace holding the benchmark's spans (pid 1) and
    /// the program's (pid 2), on one clock.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut events = Vec::new();
        events.extend(tagged(&self.bench, BENCH_PID, 0.0));
        for (recorder, offset_ns) in &self.programs {
            events.extend(tagged(recorder, PROGRAM_PID, *offset_ns));
        }
        let doc = Json::obj()
            .set("displayTimeUnit", "ms")
            .set("traceEvents", Json::Arr(events));
        write(path, &doc.render())
    }
}

/// A recorder's Chrome events, re-stamped with a pid and shifted onto
/// the benchmark clock.
fn tagged(recorder: &Recorder, pid: i64, offset_ns: f64) -> Vec<Json> {
    let Some(Json::Arr(events)) = chrome_trace(recorder).get("traceEvents").cloned() else {
        return Vec::new();
    };
    events
        .into_iter()
        .map(|event| {
            let ts = event.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
            event
                .set("pid", Json::Int(pid))
                .set("ts", ts + offset_ns / 1e3)
        })
        .collect()
}

impl OpSpan {
    /// Runs `f` inside a child span named `name`.
    pub fn child<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.lane.begin();
        let out = f();
        self.lane
            .end(start, "bench", name, vec![("op", ArgValue::Int(self.op))]);
        out
    }

    /// Closes the op span.
    pub fn end(mut self, name: &'static str) {
        self.lane.end(
            self.start,
            "bench",
            name,
            vec![("op", ArgValue::Int(self.op))],
        );
    }
}

/// The events named `cat.name`.
pub fn named<'e>(events: &'e [Event], cat: &str, name: &str) -> Vec<&'e Event> {
    events
        .iter()
        .filter(|e| e.dur_ns > 0 && e.cat == cat && e.name == name)
        .collect()
}

/// Whether a span carries the text argument `key = value`.
pub fn has_arg(event: &Event, key: &str, value: &str) -> bool {
    event
        .args
        .iter()
        .any(|(k, v)| *k == key && *v == ArgValue::Text(value.to_string()))
}

/// Nanoseconds of `parent` covered by the union of the other spans that
/// overlap it (clipped to it): the part of its time some child span
/// accounts for.  `parent` itself is skipped by identity.
pub fn covered_ns(parent: &Event, spans: &[&Event]) -> u64 {
    let (lo, hi) = (parent.start_ns, parent.start_ns + parent.dur_ns);
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|e| !std::ptr::eq(**e, parent) && e.dur_ns > 0)
        .map(|e| (e.start_ns.max(lo), (e.start_ns + e.dur_ns).min(hi)))
        .filter(|(s, t)| s < t)
        .collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for (s, t) in intervals {
        let s = s.max(reach);
        if t > s {
            covered += t - s;
            reach = t;
        }
    }
    covered
}

/// Writes the traced run's exports under `<out>/<workload>/`: the Chrome
/// trace and the per-layer JSON.
pub fn export(args: &Args, tracer: &Tracer, metrics: &Metrics) -> Result<(), String> {
    let dir = args.out.join(&args.workload);
    tracer
        .write_chrome_trace(&dir.join("trace.json"))
        .map_err(|e| format!("writing the trace: {e}"))?;
    write_layers(&dir.join("layers.json"), &args.workload, metrics)
        .map_err(|e| format!("writing the layers: {e}"))
}

/// Writes the traced run's per-layer metrics as a JSON document.
fn write_layers(path: &Path, workload: &str, metrics: &Metrics) -> std::io::Result<()> {
    let mut layers = Json::obj();
    for (name, unit) in crate::PER_LAYER {
        if let Some(&(value, _)) = metrics.get(name) {
            layers = layers.set(name, Json::obj().set("value", value).set("unit", *unit));
        }
    }
    let doc = Json::obj()
        .set("schema", "atlas-perfbench-layers/1")
        .set("workload", workload)
        .set("metrics", layers);
    write(path, &doc.render())
}

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, dur_ns: u64) -> Event {
        Event {
            lane: 0,
            cat: "t",
            name: "s",
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn coverage_is_the_clipped_union_of_children() {
        let parent = span(100, 100);
        let a = span(90, 30); // 100..120
        let b = span(110, 20); // overlaps a: adds 120..130
        let c = span(180, 50); // clipped to 180..200
        let all = [&parent, &a, &b, &c];
        assert_eq!(covered_ns(&parent, &all), 20 + 10 + 20);
    }
}
