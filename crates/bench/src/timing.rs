//! Minimal benchmark harness for the `benches/` targets.
//!
//! The sandbox cannot fetch criterion from the registry, so the bench
//! targets (`harness = false`) drive this instead: warmup, N timed
//! iterations, and a min/median/mean summary line. Timings are wall-clock
//! and meant for relative comparison on one machine.

use std::time::Instant;

/// Timing summary of one benchmark case, in milliseconds.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark case label (`group/name`).
    pub label: String,
    /// Fastest iteration.
    pub min_ms: f64,
    /// Median iteration.
    pub median_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Number of timed iterations.
    pub iters: usize,
}

impl Sample {
    /// One aligned report line.
    pub fn line(&self) -> String {
        format!(
            "{:<44} min {:>9.3} ms   median {:>9.3} ms   mean {:>9.3} ms   ({} iters)",
            self.label, self.min_ms, self.median_ms, self.mean_ms, self.iters
        )
    }
}

/// Time `f` for `iters` iterations (plus one untimed warmup).
pub fn bench(label: &str, iters: usize, mut f: impl FnMut()) -> Sample {
    bench_with_setup(label, iters, || (), |()| f())
}

/// Time `run` for `iters` iterations (plus one untimed warmup), each on a
/// fresh `setup()`. Only `run` is timed: the setup, and the drop of its
/// state (a server and its cache, say), happen outside the timed region.
pub fn bench_with_setup<S>(
    label: &str,
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S),
) -> Sample {
    run(&mut setup()); // warmup
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters.max(1) {
        let mut state = setup();
        let t = Instant::now();
        run(&mut state);
        times.push(t.elapsed().as_secs_f64() * 1000.0);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let sample = Sample {
        label: label.to_string(),
        min_ms: times[0],
        median_ms: times[times.len() / 2],
        mean_ms: times.iter().sum::<f64>() / times.len() as f64,
        iters: times.len(),
    };
    println!("{}", sample.line());
    sample
}

/// Render samples as a JSON snapshot (used by `benches/executor.rs` to
/// emit `BENCH_executor.json` so future changes can track the trajectory).
pub fn to_json(samples: &[Sample]) -> String {
    to_json_with_counters(samples, &[])
}

/// Like [`to_json`], with an extra `"counters"` object of named integers
/// (cache health, degraded-cell counts, …) alongside the timing samples.
pub fn to_json_with_counters(samples: &[Sample], counters: &[(&str, u64)]) -> String {
    let mut out = String::from("{\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"min_ms\": {:.4}, \"median_ms\": {:.4}, \"mean_ms\": {:.4}, \"iters\": {}}}{}\n",
            s.label,
            s.min_ms,
            s.median_ms,
            s.mean_ms,
            s.iters,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]");
    if !counters.is_empty() {
        out.push_str(",\n  \"counters\": {");
        for (i, (name, value)) in counters.iter().enumerate() {
            out.push_str(&format!(
                "\n    \"{name}\": {value}{}",
                if i + 1 == counters.len() { "" } else { "," }
            ));
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_sane_sample() {
        let s = bench("test/noop", 5, || {});
        assert_eq!(s.iters, 5);
        assert!(s.min_ms <= s.median_ms && s.median_ms >= 0.0);
        assert!(s.min_ms <= s.mean_ms + 1e-9);
    }

    #[test]
    fn json_snapshot_shape() {
        let s = vec![bench("a", 1, || {}), bench("b", 1, || {})];
        let j = to_json(&s);
        assert!(j.contains("\"label\": \"a\""));
        assert!(j.contains("\"samples\""));
        assert!(!j.contains("\"counters\""));
        assert!(j.trim_end().ends_with('}'));
    }

    #[test]
    fn json_counters_block() {
        let s = vec![bench("a", 1, || {})];
        let j = to_json_with_counters(&s, &[("degraded_cells", 3), ("verify_failures", 0)]);
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"degraded_cells\": 3"));
        assert!(j.contains("\"verify_failures\": 0"));
        assert!(j.trim_end().ends_with('}'));
    }
}
