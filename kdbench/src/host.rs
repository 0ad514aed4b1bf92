//! Host speed: a fixed CPU probe that puts end-to-end times on one scale.
//!
//! On a shared host the speed of the same CPU-bound work drifts by 20% or
//! more over tens of seconds, for reasons outside the benchmark, so two
//! runs of identical code can disagree by more than any useful regression
//! bound. A run therefore times [`probe`], a fixed piece of CPU work of
//! the kinds a request does (text formatting and tokenizing, hashing, a
//! map, a sort and a bitset propagation), between its units of work, and
//! its times are reported at [`REFERENCE_PROBE_MS`]: measured time ×
//! reference / median probe time, for the share of the time that follows
//! the host's speed ([`crate::workload::Workload::host_share`]).
//! The probe uses only the standard library and code in this file, so no
//! change to the analysis or the daemon can make it faster or slower; a
//! regression there still shows in full.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// The probe time the scaled metrics are reported at: about the probe's
/// median on the 2-CPU host the bounds were calibrated on, in its fastest
/// spells (8–9 ms; 15–17 ms in its slowest).
pub const REFERENCE_PROBE_MS: f64 = 8.0;

/// Probes timed before each set-up.
pub const PROBES_PER_SETUP: usize = 5;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The fixed work, on one thread.
fn work(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut text = String::new();
    for i in 0..6000 {
        let (a, b, c) = (
            xorshift(&mut x) % 997,
            xorshift(&mut x) % 61,
            xorshift(&mut x) % 13,
        );
        let _ = writeln!(text, "  %{i} = load %{a} -> @f{b}({c})");
    }
    let mut uses: HashMap<&str, Vec<u32>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, line) in text.lines().enumerate() {
        for tok in line.split(|c: char| !c.is_ascii_alphanumeric() && c != '%' && c != '@') {
            if !tok.is_empty() {
                uses.entry(tok).or_default().push(i as u32);
            }
        }
    }
    let mut keys: Vec<(&str, usize)> = uses.iter().map(|(k, v)| (*k, v.len())).collect();
    keys.sort_unstable();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_01B3);
    }
    h ^ keys.len() as u64 ^ propagate(&mut x)
}

/// Andersen-style propagation of bitsets along a random graph, with a
/// fixed budget of worklist pops.
fn propagate(x: &mut u64) -> u64 {
    const NODES: usize = 3000;
    const WORDS: usize = NODES / 64 + 1;
    let succ: Vec<[u32; 3]> = (0..NODES)
        .map(|_| std::array::from_fn(|_| (xorshift(x) % NODES as u64) as u32))
        .collect();
    let mut pts = vec![vec![0u64; WORDS]; NODES];
    for set in &mut pts {
        let b = (xorshift(x) % NODES as u64) as usize;
        set[b / 64] |= 1 << (b % 64);
    }
    let mut work: Vec<u32> = (0..NODES as u32).collect();
    let mut pops = 0u64;
    while let Some(v) = work.pop() {
        pops += 1;
        if pops > 40_000 {
            break;
        }
        let src = pts[v as usize].clone();
        for &s in &succ[v as usize] {
            let mut changed = false;
            for (d, w) in pts[s as usize].iter_mut().zip(&src) {
                let next = *d | *w;
                changed |= next != *d;
                *d = next;
            }
            if changed {
                work.push(s);
            }
        }
    }
    pops
}

/// Time one probe, in ms.
pub fn probe() -> f64 {
    let t = Instant::now();
    black_box(work(black_box(7)));
    t.elapsed().as_secs_f64() * 1e3
}

/// The probe times of one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Time `n` probes.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.samples.push(probe());
        }
    }

    /// The median probe time, ms.
    pub fn probe_ms(&self) -> Option<f64> {
        stats::median(&self.samples)
    }

    /// What a time measured in this run is multiplied by to read at
    /// [`REFERENCE_PROBE_MS`], when `share` of it follows the host's speed
    /// and the rest does not (1 without samples).
    pub fn factor(&self, share: f64) -> f64 {
        self.probe_ms()
            .filter(|&p| p > 0.0)
            .map_or(1.0, |p| share * REFERENCE_PROBE_MS / p + (1.0 - share))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        assert_eq!(work(7), work(7));
        assert_ne!(work(7), work(11));
    }

    #[test]
    fn factor_scales_to_the_reference() {
        let mut h = HostSpeed::default();
        assert_eq!(h.factor(1.0), 1.0);
        h.samples = vec![16.0, 15.0, 17.0];
        assert_eq!(h.factor(1.0), REFERENCE_PROBE_MS / 16.0);
        assert_eq!(h.factor(0.5), 0.5 * REFERENCE_PROBE_MS / 16.0 + 0.5);
        assert_eq!(h.factor(0.0), 1.0);
    }
}
