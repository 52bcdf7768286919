//! Host-speed reference.
//!
//! The benchmark runs on shared two-core hosts whose speed drifts by
//! ±20 % over seconds while inputs stay fixed. Before every query set,
//! update batch and set-up, the benchmark times a fixed kernel of its
//! own — a partial Dijkstra search over a synthetic grid, the same kind
//! of work the shortest-path engines do — and scales the times it
//! measures next by `NOMINAL_MS / kernel time`. Reported times are
//! therefore milliseconds on a host where the kernel takes
//! [`NOMINAL_MS`]. The kernel calls no engine code, so a change to the
//! engine moves the scaled times in full; only the host's speed cancels.
//!
//! The search is the reference, rather than a loop over a small table,
//! because it tracks the engine best: timed beside fixed engine queries
//! on one host, a graph search moved one for one with them, while a
//! cache-resident table walk swung by more or less than they did.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time the scaled clock is normalised to.
const NOMINAL_MS: f64 = 1.0;
/// Side of the square grid the kernel searches (65,536 nodes, about
/// 1.5 MiB of weights and distances).
const SIDE: usize = 256;
/// Nodes settled per kernel run.
const SETTLES: usize = 5_000;
/// Stride between the sources of successive runs, so the runs walk the
/// whole grid rather than one corner of it.
const SOURCE_STRIDE: usize = 7_919;

/// The reference kernel with its buffers allocated once.
pub struct HostClock {
    /// Weight of the edge from node `u` in direction `k` at `4u + k`.
    weights: Vec<u32>,
    dist: Vec<u64>,
    touched: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    source: usize,
}

impl Default for HostClock {
    fn default() -> Self {
        let n = SIDE * SIDE;
        let mut x = 0x1234_5678u32;
        let weights = (0..4 * n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                1 + x % 1000
            })
            .collect();
        HostClock {
            weights,
            dist: vec![u64::MAX; n],
            touched: Vec::with_capacity(4 * SETTLES),
            heap: BinaryHeap::with_capacity(4 * SETTLES),
            source: 0,
        }
    }
}

impl HostClock {
    /// One kernel run: settles [`SETTLES`] nodes from the next source
    /// and returns the sum of their distances, so the work cannot be
    /// elided.
    fn kernel(&mut self) -> u64 {
        let n = SIDE * SIDE;
        self.source = (self.source + SOURCE_STRIDE) % n;
        self.dist[self.source] = 0;
        self.touched.push(self.source);
        self.heap.push(Reverse((0, self.source as u32)));
        let (mut settled, mut acc) = (0, 0u64);
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = u as usize;
            if d > self.dist[u] {
                continue;
            }
            acc = acc.wrapping_add(d);
            settled += 1;
            if settled == SETTLES {
                break;
            }
            let (row, col) = (u / SIDE, u % SIDE);
            let neighbours = [
                (row > 0).then(|| u - SIDE),
                (row + 1 < SIDE).then(|| u + SIDE),
                (col > 0).then(|| u - 1),
                (col + 1 < SIDE).then(|| u + 1),
            ];
            for (k, v) in neighbours.into_iter().enumerate() {
                let Some(v) = v else { continue };
                let nd = d + u64::from(self.weights[4 * u + k]);
                if nd < self.dist[v] {
                    if self.dist[v] == u64::MAX {
                        self.touched.push(v);
                    }
                    self.dist[v] = nd;
                    self.heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        for v in self.touched.drain(..) {
            self.dist[v] = u64::MAX;
        }
        self.heap.clear();
        acc
    }

    /// Times one kernel run and returns the factor that scales a time
    /// measured now to the nominal host.
    pub fn speed(&mut self) -> f64 {
        let started = Instant::now();
        black_box(self.kernel());
        NOMINAL_MS / (started.elapsed().as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_finite_and_positive() {
        let mut clock = HostClock::default();
        let s = clock.speed();
        assert!(s.is_finite() && s > 0.0);
    }

    #[test]
    fn kernel_does_the_same_work_every_run() {
        let mut a = HostClock::default();
        let mut b = HostClock::default();
        let first: Vec<u64> = (0..3).map(|_| a.kernel()).collect();
        let second: Vec<u64> = (0..3).map(|_| b.kernel()).collect();
        assert_eq!(first, second);
        assert!(a.heap.is_empty() && a.touched.is_empty());
        assert!(a.dist.iter().all(|&d| d == u64::MAX));
    }
}
