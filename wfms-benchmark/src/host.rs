//! The host's speed, and op times adjusted to a fixed reference speed.
//!
//! The benchmark runs on shared virtual machines whose speed changes
//! while it runs: on the 2-vCPU host it was written on, an `assess-ep` op
//! took 19 ms for some seconds and 31 ms for the next, in no pattern, and
//! the CPU time of an op moved with its wall time, so neither clock alone
//! tells a slower program from a slower host. Reference kernels of the
//! benchmark's own, run next to every timed call, measure how fast the
//! host is at that moment; dividing the call's wall time by it removes
//! the host's swings and keeps the program's.
//!
//! A neighbour does not slow every kind of code alike, so a kernel
//! tracks only the ops that resemble it. A 96 × 96 LU followed by a
//! number codec, which this module once ran for every workload, read up
//! to 30 % apart from the `assess-ep` op from one busy hour to the next,
//! and so did a dense LU shaped like the availability solve. Each kernel
//! here copies a loop of the program as it stood when the benchmark was
//! defined, with the program's allocation pattern, on fixed inputs: the
//! uniformization loop of the turnaround percentile, and the number codec
//! of the spec and protocol layers. A workload's [`Reference`] weighs
//! the two. The weights were chosen over six 30 s phases on the host the
//! benchmark was written on, alone and next to a spinning, a streaming
//! and a random-access neighbour process: among shares in steps of a
//! tenth, the one whose median ratio to the op moved least from phase to
//! phase, rounded towards the layer the op spends its time in (see
//! `README.md`). There the ratio moved by 3 to 5 % while the op's wall
//! time moved by 12 to 66 %. The kernels use only the standard library,
//! so no change to the measured program changes them.

use std::ops::AddAssign;
use std::time::Instant;

use crate::stats;

/// One reference kernel: a fixed piece of work of the benchmark's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Transient distributions of a small absorbing chain by
    /// uniformization: Poisson weights, then one row-vector product into
    /// a fresh vector per term, as the turnaround percentile computes
    /// them (`markov` and `perf`).
    Transient,
    /// Formatting, sorting and parsing numbers in fresh allocations, as
    /// the spec and protocol codecs do.
    Codec,
}

/// A workload's reference: the share of its op's time each kernel
/// stands for. The shares add up to 1.
pub type Reference = &'static [(Kernel, f64)];

impl Kernel {
    /// The kernel's time, ms, at the reference speed: its time on the
    /// host the benchmark was written on (a 2-vCPU x86-64 virtual
    /// machine) in its quick spells. An adjusted time is the time a call
    /// would have taken on a host where every kernel takes this long.
    pub const fn reference_ms(self) -> f64 {
        match self {
            Kernel::Transient => 0.28,
            Kernel::Codec => 0.37,
        }
    }

    /// Runs the kernel once; returns its wall time in ms.
    pub fn run_ms(self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(match self {
            Kernel::Transient => transient(),
            Kernel::Codec => codec(),
        });
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel runs per sample of the host's speed; the sample is their
/// median, so that one interrupted run does not skew it.
const RUNS_PER_SAMPLE: usize = 3;

/// A fixed value in `[0, 1)` for index `i`, so the kernels' inputs are
/// the same on every run without a generator.
fn fixed(i: usize) -> f64 {
    (i.wrapping_mul(2_654_435_761) % 1_000_003) as f64 / 1_000_003.0
}

/// States of the [`Kernel::Transient`] chain; `ep`'s workflow chains
/// have a dozen or two.
const CHAIN: usize = 16;
/// Transient distributions per run, at growing times, as a percentile's
/// bisection asks for them.
const TRANSIENT_CALLS: usize = 10;
/// Expected uniformized steps of the first distribution.
const POISSON_MEAN: f64 = 60.0;

fn transient() -> f64 {
    let n = CHAIN;
    let mut p = vec![0.0; n * n];
    for r in 0..n - 1 {
        let stay = 0.2 + 0.5 * fixed(r);
        p[r * n + r] = stay;
        p[r * n + r + 1] += 0.8 * (1.0 - stay);
        p[r * n + (r + 2).min(n - 1)] += 0.2 * (1.0 - stay);
    }
    p[n * n - 1] = 1.0;
    let mut finished = 0.0;
    for call in 0..TRANSIENT_CALLS {
        let weights = poisson_weights(POISSON_MEAN * (1.0 + call as f64 / 2.0), 1e-12);
        let mut dist = vec![0.0; n];
        dist[0] = 1.0;
        let mut out = vec![0.0; n];
        for (z, &w) in weights.iter().enumerate() {
            if z > 0 {
                dist = vec_mul(&p, n, &dist);
            }
            for (o, &d) in out.iter_mut().zip(&dist) {
                *o += w * d;
            }
        }
        finished += out[n - 1];
    }
    finished
}

/// `v · P` for the `n × n` row-major `p`, into a fresh vector, skipping
/// zero entries of `v`.
fn vec_mul(p: &[f64], n: usize, v: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for (r, &vr) in v.iter().enumerate() {
        if vr == 0.0 {
            continue;
        }
        for (c, &m) in p[r * n..(r + 1) * n].iter().enumerate() {
            out[c] += vr * m;
        }
    }
    out
}

/// Poisson probabilities around the mode, normalised and truncated once
/// the mass reaches `1 − epsilon`.
fn poisson_weights(mean: f64, epsilon: f64) -> Vec<f64> {
    let mode = mean.floor() as usize;
    let hi = mode + (12.0 * mean.sqrt()) as usize + 30;
    let mut w = vec![0.0f64; hi + 1];
    w[mode] = 1.0;
    for z in (0..mode).rev() {
        w[z] = w[z + 1] * (z + 1) as f64 / mean;
    }
    for z in mode + 1..=hi {
        w[z] = w[z - 1] * mean / z as f64;
    }
    let total: f64 = w.iter().sum();
    let mut mass = 0.0;
    let mut keep = w.len();
    for (z, v) in w.iter_mut().enumerate() {
        *v /= total;
        mass += *v;
        if mass >= 1.0 - epsilon {
            keep = keep.min(z + 1);
        }
    }
    w.truncate(keep);
    w
}

/// Numbers the [`Kernel::Codec`] formats, sorts and parses back.
const WORDS: usize = 1500;

fn codec() -> f64 {
    let mut words: Vec<String> = (0..WORDS)
        .map(|i| format!("{:.9}", fixed(i) * 1e6))
        .collect();
    words.sort();
    words.iter().filter_map(|w| w.parse::<f64>().ok()).sum()
}

/// A sample of the host's speed for `reference`: how many times longer
/// than at the reference speed its kernels take, each the median of
/// [`RUNS_PER_SAMPLE`] runs, weighted by its share.
fn sample(reference: Reference) -> f64 {
    reference
        .iter()
        .map(|&(kernel, share)| {
            let runs: Vec<f64> = (0..RUNS_PER_SAMPLE).map(|_| kernel.run_ms()).collect();
            share * stats::median(&runs).unwrap_or(kernel.reference_ms()) / kernel.reference_ms()
        })
        .sum()
}

/// How long something took: on the wall clock, and adjusted to the
/// reference speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Took {
    /// Wall time, ms.
    pub wall_ms: f64,
    /// Wall time at the reference speed, ms.
    pub ms: f64,
}

impl Took {
    /// A time that is not adjusted, because it is not the time of work
    /// on this host's processors.
    pub fn unadjusted(ms: f64) -> Took {
        Took { wall_ms: ms, ms }
    }
}

impl AddAssign for Took {
    fn add_assign(&mut self, other: Took) {
        self.wall_ms += other.wall_ms;
        self.ms += other.ms;
    }
}

/// Times calls between samples of the host's speed. A call is adjusted
/// by the mean of the samples just before and just after it; the sample
/// after one call is the sample before the next.
#[derive(Debug)]
pub struct HostMeter {
    reference: Reference,
    /// The last sample: the host's slowness relative to the reference
    /// speed.
    last: f64,
    /// Whether the meter samples at all.
    sampling: bool,
}

impl HostMeter {
    /// A meter for ops whose time `reference` describes, with its first
    /// sample taken.
    pub fn start(reference: Reference) -> HostMeter {
        HostMeter {
            reference,
            last: sample(reference),
            sampling: true,
        }
    }

    /// A meter that takes no samples and leaves times as measured, for
    /// calls whose time is not reported, such as warm-up ops, which
    /// should cost what they cost a user and no more.
    pub fn idle() -> HostMeter {
        HostMeter {
            reference: &[],
            last: 1.0,
            sampling: false,
        }
    }

    /// Runs `f` and times it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Took) {
        let before = self.last;
        let start = Instant::now();
        let out = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if self.sampling {
            self.last = sample(self.reference);
        }
        let slowness = (before + self.last) / 2.0;
        let took = Took {
            wall_ms,
            ms: wall_ms / slowness,
        };
        (out, took)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_do_the_same_work_every_run() {
        for f in [transient, codec] {
            assert_eq!(f().to_bits(), f().to_bits());
            assert!(f().is_finite());
        }
        // The chain absorbs almost all its mass by the last time asked.
        assert!(transient() > 0.5 && transient() < TRANSIENT_CALLS as f64);
        let w = poisson_weights(POISSON_MEAN, 1e-12);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_call_is_scaled_by_the_samples_around_it() {
        let mut meter = HostMeter::start(&[(Kernel::Codec, 1.0)]);
        let (value, took) = meter.time(|| 7);
        assert_eq!(value, 7);
        assert!(took.wall_ms >= 0.0 && took.ms >= 0.0);
        let mut idle = HostMeter::idle();
        let ((), took) = idle.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(took.ms, took.wall_ms);
        let mut sum = Took::unadjusted(1.0);
        sum += Took {
            wall_ms: 2.0,
            ms: 3.0,
        };
        assert_eq!(
            sum,
            Took {
                wall_ms: 3.0,
                ms: 4.0
            }
        );
    }
}
