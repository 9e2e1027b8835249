//! Host-speed calibration: a frozen BFS kernel and the scaling rule.
//!
//! The machine the benchmark runs on is shared, and its speed drifts by far
//! more than the bounds the benchmark enforces. The closed-loop workloads
//! therefore interleave short slices of a fixed kernel with their
//! iterations, outside the timed samples, and report their times and rates
//! at a fixed reference speed: with `f = measured ÷ reference`, times are
//! multiplied by `f` and rates divided by it.
//!
//! The kernel is frozen: the graph, its size and the traversal must never
//! change, or every calibrated number stops being comparable with the
//! numbers taken before. It is a breadth-first search over a fixed random
//! graph of 2^18 nodes with out-degree 4: 4 MiB of adjacency plus 1 MiB each
//! of visit stamps and queue, twice the per-core L2, so it exercises the
//! pointer-chasing memory traffic the matching engines do.

use std::time::{Duration, Instant};

/// Nodes of the frozen kernel graph.
const KERNEL_NODES: usize = 1 << 18;
/// Out-degree of every kernel node.
const KERNEL_DEGREE: usize = 4;
/// Seed of the kernel graph. Frozen with the rest of the kernel.
const KERNEL_SEED: u64 = 0x6b65_726e_656c_0001;

/// The kernel speed, in million edges scanned per second, that calibrated
/// numbers are reported at. Frozen: it fixes the unit of every scaled
/// metric.
pub const REFERENCE_MEDGES_PER_S: f64 = 100.0;

/// Share of a closed-loop run's wall time spent in kernel slices.
pub const KERNEL_SHARE: f64 = 0.05;

/// The frozen breadth-first-search kernel.
pub struct Kernel {
    /// The children of node `v` are `targets[v * KERNEL_DEGREE..][..KERNEL_DEGREE]`.
    targets: Vec<u32>,
    stamps: Vec<u32>,
    queue: Vec<u32>,
    epoch: u32,
    next_source: u32,
}

impl Kernel {
    /// Builds the fixed kernel graph.
    pub fn new() -> Self {
        let mut state = KERNEL_SEED;
        let targets = (0..KERNEL_NODES * KERNEL_DEGREE)
            .map(|_| (splitmix(&mut state) % KERNEL_NODES as u64) as u32)
            .collect();
        Kernel {
            targets,
            stamps: vec![0; KERNEL_NODES],
            queue: Vec::with_capacity(KERNEL_NODES),
            epoch: 0,
            next_source: 0,
        }
    }

    /// One slice: a full BFS from the next source. Returns the number of
    /// edges scanned.
    pub fn slice(&mut self) -> u64 {
        self.epoch += 1;
        let source = self.next_source;
        self.next_source = (self.next_source + 7919) % KERNEL_NODES as u32;
        self.queue.clear();
        self.queue.push(source);
        self.stamps[source as usize] = self.epoch;
        let mut head = 0;
        let mut scanned = 0u64;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            scanned += KERNEL_DEGREE as u64;
            for &w in &self.targets[v * KERNEL_DEGREE..][..KERNEL_DEGREE] {
                let stamp = &mut self.stamps[w as usize];
                if *stamp != self.epoch {
                    *stamp = self.epoch;
                    self.queue.push(w);
                }
            }
        }
        std::hint::black_box(scanned)
    }
}

/// Runs kernel slices so that they take [`KERNEL_SHARE`] of a run, and
/// keeps the speed of every slice.
pub struct Calibrator {
    kernel: Kernel,
    busy: Duration,
    speeds: Vec<f64>,
}

impl Calibrator {
    /// Builds the kernel (outside any timed phase).
    pub fn new() -> Self {
        Calibrator { kernel: Kernel::new(), busy: Duration::ZERO, speeds: Vec::new() }
    }

    /// Runs slices until the kernel's busy time reaches its share of
    /// `run_elapsed`, the wall time of the run so far.
    pub fn run_due(&mut self, run_elapsed: Duration) {
        while self.busy.as_secs_f64() < KERNEL_SHARE * run_elapsed.as_secs_f64() {
            self.run_slice();
        }
    }

    /// Runs exactly one slice.
    pub fn run_slice(&mut self) {
        let start = Instant::now();
        let edges = self.kernel.slice();
        let took = start.elapsed();
        self.busy += took;
        self.speeds.push(edges as f64 / took.as_secs_f64() / 1e6);
    }

    /// Median slice speed in million edges per second, `None` before the
    /// first slice.
    pub fn medges_per_s(&self) -> Option<f64> {
        crate::stats::median(&self.speeds)
    }

    /// Wall time spent in slices.
    pub fn busy(&self) -> Duration {
        self.busy
    }
}

/// The calibration factor `f = measured ÷ reference`.
pub fn factor(measured_medges_per_s: f64) -> f64 {
    measured_medges_per_s / REFERENCE_MEDGES_PER_S
}

/// A time measured on a host running at factor `f`, expressed at the
/// reference speed.
pub fn scale_time(time: f64, f: f64) -> f64 {
    time * f
}

/// A rate measured on a host running at factor `f`, expressed at the
/// reference speed.
pub fn scale_rate(rate: f64, f: f64) -> f64 {
    rate / f
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fast_host_reports_slower_reference_numbers() {
        // The host runs the kernel 25% faster than the reference: its times
        // are 20% shorter than at reference speed, its rates 25% higher.
        let f = factor(REFERENCE_MEDGES_PER_S * 1.25);
        assert!((f - 1.25).abs() < 1e-12);
        assert!((scale_time(8.0, f) - 10.0).abs() < 1e-12);
        assert!((scale_rate(1250.0, f) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn a_reference_host_is_unscaled() {
        let f = factor(REFERENCE_MEDGES_PER_S);
        assert_eq!(scale_time(3.5, f), 3.5);
        assert_eq!(scale_rate(42.0, f), 42.0);
    }

    #[test]
    fn scaled_rate_times_scaled_time_is_invariant() {
        // updates/s × s/update is 1 at every host speed.
        for speed in [50.0, 100.0, 173.0] {
            let f = factor(speed);
            let (latency, rate) = (0.004, 250.0);
            assert!((scale_time(latency, f) * scale_rate(rate, f) - latency * rate).abs() < 1e-12);
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        let mut a = Kernel::new();
        let mut b = Kernel::new();
        for _ in 0..3 {
            assert_eq!(a.slice(), b.slice());
        }
        assert!(a.slice() > (KERNEL_NODES * KERNEL_DEGREE / 2) as u64);
    }
}
