//! The pre-rewrite `VecDeque` BFS kernel, kept as a bitwise test reference.
//!
//! [`LegacyBfsSpd`] is the queue-based kernel this crate shipped before the
//! frontier-swap rewrite of [`crate::BfsSpd`]: a `VecDeque` BFS with
//! per-pass workspace clearing and a backward accumulation that re-tests
//! `d(s, u) + 1 == d(s, w)` with two distance loads per edge. It is retained
//! only as a test reference: the property tests assert the new kernel
//! reproduces this one's `dist`/`sigma`/`delta` bit-for-bit on random
//! graphs. It is an independent oracle for exactly that reason — it derives
//! σ and sums δ its own way, where [`crate::naive`] takes σ from
//! [`crate::BfsSpd`] itself.
//!
//! The compute/accumulate loops are the historical code verbatim. For the
//! bitwise-equality tests a separate, explicit
//! [`LegacyBfsSpd::canonicalize_order`] step re-sorts the settle order into
//! the *canonical* within-level order (ascending vertex id per BFS level)
//! that every [`crate::KernelMode`] of the direction-optimizing kernel
//! produces, so the backward δ accumulation visits edges in the same order.
//! σ itself still accumulates in queue order (only the recorded order is
//! re-sorted), which equals the canonical ascending-order sum bit for bit
//! **as long as σ stays below 2^53** — integer sums are exact in `f64`, and
//! addition order cannot matter. That covers every graph the bitwise
//! property tests compare on (small random graphs); path-count-explosive
//! structures like large grids (σ up to `C(2k, k)`) can exceed 2^53, where
//! queue-order and canonical-order σ may differ in ulps — so bitwise legacy
//! comparisons must stick to σ-small graphs.
//!
//! Do not use it in samplers; [`crate::BfsSpd`] is strictly faster.

use crate::UNREACHED;
use mhbc_graph::{CsrGraph, Vertex};
use std::collections::VecDeque;

/// The original queue-based BFS shortest-path-DAG kernel (see module docs).
#[derive(Debug, Clone)]
pub struct LegacyBfsSpd {
    /// `dist[v]` = `d(s, v)`, or [`UNREACHED`].
    pub dist: Vec<u32>,
    /// `sigma[v]` = number of shortest `s`–`v` paths.
    pub sigma: Vec<f64>,
    /// Vertices in BFS settle order; only reached ones.
    pub order: Vec<Vertex>,
    queue: VecDeque<Vertex>,
    source: Vertex,
}

impl LegacyBfsSpd {
    /// Workspace for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        LegacyBfsSpd {
            dist: vec![UNREACHED; n],
            sigma: vec![0.0; n],
            order: Vec::with_capacity(n),
            queue: VecDeque::new(),
            source: 0,
        }
    }

    /// Computes the SPD rooted at `s` (the pre-rewrite loop, verbatim).
    pub fn compute(&mut self, g: &CsrGraph, s: Vertex) {
        let n = g.num_vertices();
        assert_eq!(self.dist.len(), n, "workspace sized for a different graph");
        assert!((s as usize) < n, "source {s} out of range");

        for &v in &self.order {
            self.dist[v as usize] = UNREACHED;
            self.sigma[v as usize] = 0.0;
        }
        self.order.clear();
        self.queue.clear();
        self.source = s;

        self.dist[s as usize] = 0;
        self.sigma[s as usize] = 1.0;
        self.queue.push_back(s);
        while let Some(u) = self.queue.pop_front() {
            self.order.push(u);
            let du = self.dist[u as usize];
            let su = self.sigma[u as usize];
            for &v in g.neighbors(u) {
                let dv = &mut self.dist[v as usize];
                if *dv == UNREACHED {
                    *dv = du + 1;
                    self.queue.push_back(v);
                }
                if self.dist[v as usize] == du + 1 {
                    self.sigma[v as usize] += su;
                }
            }
        }
    }

    /// Re-sorts the settle order into the canonical within-level order
    /// (ascending vertex id per BFS level) so a subsequent backward scan
    /// accumulates δ in exactly the order the direction-optimizing kernel
    /// does — see the module docs. Kept **out of** [`LegacyBfsSpd::compute`]
    /// so the `perf` bench times the historical loop untouched; the
    /// bitwise-equality tests call this explicitly after each pass.
    pub fn canonicalize_order(&mut self) {
        // Queue order is already sorted by distance; sort each
        // equal-distance run ascending.
        let mut i = 0;
        while i < self.order.len() {
            let d = self.dist[self.order[i] as usize];
            let mut j = i + 1;
            while j < self.order.len() && self.dist[self.order[j] as usize] == d {
                j += 1;
            }
            self.order[i..j].sort_unstable();
            i = j;
        }
    }

    /// Backward Brandes accumulation (the pre-rewrite edge-retesting scan).
    pub fn accumulate_dependencies(&self, g: &CsrGraph, delta: &mut Vec<f64>) {
        delta.clear();
        delta.resize(self.dist.len(), 0.0);
        for &w in self.order.iter().rev() {
            let coeff = (1.0 + delta[w as usize]) / self.sigma[w as usize];
            let dw = self.dist[w as usize];
            for &u in g.neighbors(w) {
                if self.dist[u as usize] != UNREACHED && self.dist[u as usize] + 1 == dw {
                    delta[u as usize] += self.sigma[u as usize] * coeff;
                }
            }
        }
        delta[self.source as usize] = 0.0;
    }

    /// Pre-rewrite Geisberger–Sanders–Schultes linear-scaling accumulation.
    pub fn accumulate_scaled_dependencies(&self, g: &CsrGraph, scaled: &mut Vec<f64>) {
        scaled.clear();
        scaled.resize(self.dist.len(), 0.0);
        for &w in self.order.iter().rev() {
            let dw = self.dist[w as usize];
            if dw == 0 {
                continue;
            }
            let coeff = (1.0 / dw as f64 + scaled[w as usize]) / self.sigma[w as usize];
            for &u in g.neighbors(w) {
                if self.dist[u as usize] != UNREACHED && self.dist[u as usize] + 1 == dw {
                    scaled[u as usize] += self.sigma[u as usize] * coeff;
                }
            }
        }
        for (v, s) in scaled.iter_mut().enumerate() {
            if self.dist[v] != UNREACHED && self.dist[v] > 0 {
                *s *= self.dist[v] as f64;
            } else {
                *s = 0.0;
            }
        }
        scaled[self.source as usize] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    #[test]
    fn legacy_kernel_still_correct_on_path() {
        let g = generators::path(5);
        let mut spd = LegacyBfsSpd::new(5);
        spd.compute(&g, 0);
        assert_eq!(spd.dist, vec![0, 1, 2, 3, 4]);
        let mut delta = Vec::new();
        spd.accumulate_dependencies(&g, &mut delta);
        assert_eq!(delta, vec![0.0, 3.0, 2.0, 1.0, 0.0]);
    }
}
