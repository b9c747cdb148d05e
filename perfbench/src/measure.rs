//! Measurement helpers: quantiles, peak memory, output hashing, and the
//! host sentinel.

use crate::Outcome;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the wall time it took, in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that has at least ten samples beyond it: the
/// eleventh-largest sample (p99 at 1000 samples).  With fewer than
/// twenty samples no percentile above the median qualifies, so the tail
/// falls back to the slowest sample.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n < 20 => v[n - 1],
        n => v[n - 11],
    }
}

/// Peak resident memory of this process in MB (10^6 bytes), minus the
/// sentinel's buffer, which is resident for the whole run.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    (kb * 1024.0 - SENTINEL_BYTES as f64) / 1e6
}

/// A 64-bit FNV-1a hash of rendered output, as `0x`-prefixed hex.
pub fn hash_hex(text: &str) -> String {
    let mut h = atlas_ir::hash::Fnv::new(0);
    h.write_str(text);
    format!("{:#018x}", h.finish())
}

/// Size of the memory-bound probe's buffer: far larger than the 4 MiB
/// L2, so every access of its random walk goes to the shared L3 or DRAM.
const SENTINEL_BYTES: usize = 16 << 20;
/// Steps of the memory-bound random walk per probe (≈5 ms).
const MEM_STEPS: usize = 40_000;
/// Iterations of the cache-resident loop per probe (≈1 ms).
const CPU_STEPS: usize = 400_000;

/// The host sentinel: two fixed loops owned by the benchmark, run
/// between the workload's ops, whose times show which speed mode the
/// shared host was in while the run measured.
pub struct Sentinel {
    buf: Vec<u64>,
    small: Vec<u64>,
    state: u64,
    every: Duration,
    last: Option<Instant>,
    mem_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Sentinel {
    /// A sentinel that probes at most once per `every` of workload time.
    /// Touches its whole buffer, so it is resident before any op runs.
    pub fn new(seed: u64, every: Duration) -> Sentinel {
        let mut state = seed | 1;
        let buf = (0..SENTINEL_BYTES / 8)
            .map(|_| xorshift(&mut state))
            .collect();
        let small = (0..2048).map(|_| xorshift(&mut state)).collect();
        Sentinel {
            buf,
            small,
            state,
            every,
            last: None,
            mem_ms: Vec::new(),
            cpu_ms: Vec::new(),
        }
    }

    /// Runs both probes if `every` has passed since the last ones.
    pub fn between_ops(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < self.every) {
            return;
        }
        let mem = timed(|| self.mem_probe()).1;
        let cpu = timed(|| self.cpu_probe()).1;
        self.mem_ms.push(mem);
        self.cpu_ms.push(cpu);
        self.last = Some(Instant::now());
    }

    /// A dependent random read-modify-write walk over the big buffer:
    /// each step's address comes from the value the previous step read,
    /// so the loop runs at memory latency.
    fn mem_probe(&mut self) {
        let mask = self.buf.len() - 1;
        let mut x = xorshift(&mut self.state);
        for _ in 0..MEM_STEPS {
            let i = (x as usize) & mask;
            let v = self.buf[i];
            self.buf[i] = v.wrapping_add(x);
            x = v ^ x.rotate_left(17);
        }
        black_box(x);
    }

    /// The same kind of loop over 16 KiB, which stays in L1.
    fn cpu_probe(&mut self) {
        let mask = self.small.len() - 1;
        let mut x = xorshift(&mut self.state);
        for _ in 0..CPU_STEPS {
            let i = (x as usize) & mask;
            let v = self.small[i];
            self.small[i] = v.wrapping_add(x);
            x = v ^ x.rotate_left(17);
        }
        black_box(x);
    }

    /// Records the median probe times.
    pub fn report(&self, out: &mut Outcome) {
        out.set("host.mem_probe_ms", median(&self.mem_ms), "ms");
        out.set("host.cpu_probe_ms", median(&self.cpu_ms), "ms");
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0, 5.0, 2.0]), 5.0);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Ten samples (991..=1000) lie beyond the tail.
        assert_eq!(tail(&many), 990.0);
    }
}
