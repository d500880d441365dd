//! Memoised dependency-score evaluation.
//!
//! The Metropolis–Hastings chains revisit states: on a graph with `n`
//! vertices, a `T`-step chain proposes at most `T + 1` distinct sources but
//! typically far fewer (the stationary distribution concentrates on
//! high-dependency sources). Each distinct source costs one SPD pass
//! (`O(|E|)`); caching the result turns revisits into hash lookups.
//!
//! For the joint-space sampler the oracle stores the dependency of a source
//! on *all* probe vertices at once — a single backward accumulation already
//! produces `δ_{v•}(x)` for every `x` (Eq 4), so the per-probe marginal cost
//! is zero. The probe scheduler ([`crate::schedule`]) uses the same fact: its
//! single-space chains, one per probe, all read one oracle over the whole
//! probe set, each its own column, so a source any chain visits costs one
//! pass for all of them.
//!
//! The oracle evaluates through an [`SpdView`] — a graph together with
//! (optionally) its reduction from `mhbc_graph::reduce` — and keys its
//! cache by the probe set's [`SpdView::row_keys`] rather than by source
//! vertex: sources with equal keys have bit-identical dependency rows, so a
//! whole class costs one SPD pass instead of one per member.
//!
//! - Through a reduction, the classes are twins of equal pendant weight,
//!   and a pendant vertex shares the row of the vertex its tree hangs from
//!   unless that vertex is a probe. Then pendant vertices of the same
//!   attachment and branch size share one row.
//! - On an unweighted direct view, a pendant-tree vertex shares the row of
//!   the vertex its tree hangs from, unless a probe lies in its branch or
//!   is that vertex. The values are those of one pass per vertex, bit for
//!   bit (`mhbc_spd::reduced`, "Row coalescing").
//! - Weighted direct views key by vertex id.
//!
//! Checkpoints store each row under its key. A restored row keeps the key
//! it was stored under if some source maps to that key today; a row under
//! any other key could never be read, so restoring drops it, and it is
//! neither held nor written into later checkpoints.
//!
//! Rows are never evicted and never computed twice, so on a fresh run the
//! number of cached rows *is* the run's SPD-pass count, whichever thread
//! computed them (see [`ProbeOracle::prefetch`]). A resumed run counts the
//! passes its checkpoint recorded plus the ones computed since.

use crate::checkpoint::{corrupt, Reader, Writer};
use crate::CoreError;
use mhbc_graph::{CsrGraph, Vertex};
use mhbc_spd::{sweep, RowKeys, SpdView, ViewCalculator};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Evaluations answered from the cache.
    pub hits: u64,
    /// Evaluations that required an SPD pass.
    pub misses: u64,
}

impl OracleStats {
    /// Fraction of evaluations served from cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Validates a probe set against a view: non-empty, in range, and (for
/// reduced views) retained — pruned probes have closed-form exact BC and
/// must not reach the samplers.
fn validate_probes(view: &SpdView<'_>, probes: &[Vertex]) {
    assert!(!probes.is_empty(), "probe set must be non-empty");
    let n = view.num_vertices();
    for &p in probes {
        assert!((p as usize) < n, "probe {p} out of range");
        assert!(
            view.is_retained(p),
            "probe {p} was pruned by the reduction; use ReducedGraph::exact_pruned_bc"
        );
    }
}

/// One SPD pass: `δ_{source•}(probes)`.
fn compute_row(calc: &mut ViewCalculator<'_>, probes: &[Vertex], source: Vertex) -> Box<[f64]> {
    let mut row = Vec::with_capacity(probes.len());
    calc.dependency_on_many(source, probes, &mut row);
    row.into_boxed_slice()
}

/// Memoises `δ_{source•}(r)` for a fixed probe set, keyed by the probe
/// set's [`SpdView::row_keys`].
pub struct ProbeOracle<'g> {
    view: SpdView<'g>,
    probes: Vec<Vertex>,
    keys: RowKeys<'g>,
    /// `calcs[0]` serves cache misses; [`ProbeOracle::prefetch`] adds one
    /// workspace per extra thread on first use.
    calcs: Vec<ViewCalculator<'g>>,
    rows: HashMap<u64, Box<[f64]>>,
    stats: OracleStats,
    /// SPD passes the restored checkpoint recorded (0 on a fresh run).
    restored_passes: u64,
}

impl<'g> ProbeOracle<'g> {
    /// Oracle evaluating directly on `graph` (panics on empty probes or
    /// out-of-range ids — the samplers validate beforehand).
    pub fn new(graph: &'g CsrGraph, probes: &[Vertex]) -> Self {
        Self::for_view(SpdView::direct(graph), probes)
    }

    /// Oracle evaluating through `view` (direct or reduced). With a
    /// reduction, every probe must be retained (panics otherwise; the
    /// samplers surface this as a `CoreError` first).
    pub fn for_view(view: SpdView<'g>, probes: &[Vertex]) -> Self {
        validate_probes(&view, probes);
        ProbeOracle {
            view,
            probes: probes.to_vec(),
            keys: view.row_keys(probes),
            calcs: vec![ViewCalculator::new(view)],
            rows: HashMap::new(),
            stats: OracleStats::default(),
            restored_passes: 0,
        }
    }

    /// The probe set.
    pub fn probes(&self) -> &[Vertex] {
        &self.probes
    }

    /// The view this oracle evaluates against.
    pub fn view(&self) -> SpdView<'g> {
        self.view
    }

    fn key(&self, source: Vertex) -> u64 {
        self.keys.key(source)
    }

    /// `δ_{source•}(r)` for every probe `r`, cached.
    pub fn deps(&mut self, source: Vertex) -> &[f64] {
        self.lookup(source).0
    }

    /// [`ProbeOracle::deps`], and whether this call computed the row (a
    /// miss) — what a chain sharing the oracle counts as its own pass.
    pub(crate) fn lookup(&mut self, source: Vertex) -> (&[f64], bool) {
        match self.rows.entry(self.key(source)) {
            Entry::Occupied(e) => {
                self.stats.hits += 1;
                (e.into_mut(), false)
            }
            Entry::Vacant(e) => {
                self.stats.misses += 1;
                (e.insert(compute_row(&mut self.calcs[0], &self.probes, source)), true)
            }
        }
    }

    /// `δ_{source•}(probes[idx])`, cached.
    pub fn dep(&mut self, source: Vertex, idx: usize) -> f64 {
        self.deps(source)[idx]
    }

    /// Caches the rows of `sources` that are not cached yet: the distinct
    /// missing row keys are split by [`mhbc_spd::sweep`] across `threads`
    /// calculators, the calling thread computing the first share. Touches
    /// no hit/miss counter, so warming the cache never changes what a chain
    /// observes — only how long its lookups take. Returns the number of rows
    /// computed.
    pub fn prefetch(&mut self, sources: impl IntoIterator<Item = Vertex>, threads: usize) -> u64 {
        let mut seen = HashSet::new();
        let missing: Vec<(u64, Vertex)> = sources
            .into_iter()
            .map(|v| (self.key(v), v))
            .filter(|&(key, _)| !self.rows.contains_key(&key) && seen.insert(key))
            .collect();
        let threads = threads.clamp(1, missing.len().max(1));
        while self.calcs.len() < threads {
            self.calcs.push(ViewCalculator::new(self.view));
        }
        let probes = &self.probes;
        self.rows.extend(sweep(&mut self.calcs[..threads], &missing, |calc, &(key, v)| {
            (key, compute_row(calc, probes, v))
        }));
        missing.len() as u64
    }

    /// Cache statistics.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// SPD passes spent on this run, counted across checkpoint/resume
    /// boundaries: the passes the restored checkpoint recorded plus
    /// [`ProbeOracle::computed_passes`]. On a fresh run it is the number of
    /// cached rows.
    pub fn spd_passes(&self) -> u64 {
        self.restored_passes + self.computed_passes()
    }

    /// SPD passes this oracle's calculators actually performed (restored
    /// rows excluded). Equals [`ProbeOracle::spd_passes`] on a fresh run at
    /// any thread count: no row is ever computed twice.
    pub fn computed_passes(&self) -> u64 {
        self.calcs.iter().map(ViewCalculator::passes).sum()
    }

    /// Rows held: those computed, and those restored under a key some
    /// source maps to.
    pub fn cached_rows(&self) -> usize {
        self.rows.len()
    }

    /// Writes the cache into a checkpoint: SPD passes, hit/miss counters,
    /// and the rows in key order (a canonical image, whatever order they
    /// were computed in).
    pub(crate) fn save(&self, w: &mut Writer) {
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_unstable_by_key(|&(&key, _)| key);
        w.u64(self.spd_passes());
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(rows.len() as u64);
        for (&key, row) in rows {
            w.u64(key);
            w.f64s(row);
        }
    }

    /// Restores a cache written by [`ProbeOracle::save`] into this fresh
    /// oracle, so `stats()` and [`ProbeOracle::spd_passes`] continue as if
    /// the run had never stopped. Rows stored under a key that no source
    /// maps to under today's [`SpdView::row_keys`] (a file written under an
    /// older key space) are read and dropped.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CoreError> {
        debug_assert!(self.rows.is_empty(), "restore into a fresh oracle");
        self.restored_passes = r.u64()?;
        self.stats = OracleStats { hits: r.u64()?, misses: r.u64()? };
        let n = r.u64()? as usize;
        if n > r.remaining() / 16 {
            return Err(corrupt("row table longer than the checkpoint"));
        }
        let live: HashSet<u64> =
            (0..self.view.num_vertices() as Vertex).map(|v| self.key(v)).collect();
        for _ in 0..n {
            let key = r.u64()?;
            let row = r.f64s()?;
            if row.len() != self.probes.len() {
                return Err(corrupt("dependency row length differs from the probe count"));
            }
            if live.contains(&key) {
                self.rows.insert(key, row.into_boxed_slice());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;
    use mhbc_graph::reduce::{reduce, ReduceLevel};

    #[test]
    fn caches_repeat_evaluations() {
        let g = generators::barbell(4, 2);
        let mut o = ProbeOracle::new(&g, &[4]);
        let first = o.dep(0, 0);
        let second = o.dep(0, 0);
        assert_eq!(first, second);
        assert_eq!(o.stats(), OracleStats { hits: 1, misses: 1 });
        assert_eq!(o.spd_passes(), 1);
    }

    #[test]
    fn values_match_direct_kernel() {
        let g = generators::barbell(4, 2);
        let probes = [0u32, 4, 5, 9];
        let mut o = ProbeOracle::new(&g, &probes);
        let mut calc = ViewCalculator::new(SpdView::direct(&g));
        for src in 0..g.num_vertices() as Vertex {
            let row = o.deps(src).to_vec();
            for (i, &p) in probes.iter().enumerate() {
                assert_eq!(row[i], calc.dependency_on(src, p), "src {src} probe {p}");
            }
        }
    }

    #[test]
    fn reduced_oracle_coalesces_equivalent_sources() {
        // Star: all leaves share a dependency row (one SPD pass covers
        // them), the centre has its own, and the probe leaf is isolated
        // from its twins by the probe exception.
        let g = generators::star(8);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let view = SpdView::preprocessed(&g, &red);
        let probe = 0u32; // the centre (retained; leaves are pruned)
        assert!(red.is_retained(probe));
        let mut o = ProbeOracle::for_view(view, &[probe]);
        let mut reference = ViewCalculator::new(SpdView::direct(&g));
        for v in 0..g.num_vertices() as Vertex {
            let got = o.dep(v, 0);
            let want = reference.dependency_on(v, probe);
            assert!((got - want).abs() < 1e-12, "source {v}: {got} vs {want}");
        }
        // 8 sources evaluated, but leaves coalesce: centre + leaf class.
        assert_eq!(o.spd_passes(), 2);
        assert_eq!(o.stats().misses, 2);
        assert_eq!(o.stats().hits, 6);
    }

    #[test]
    fn pendant_sources_share_their_attachments_row() {
        // `lollipop(6, 5)`: the path 6..=10 hangs off clique vertex 5.
        use rand::{rngs::SmallRng, SeedableRng};
        let g = generators::lollipop(6, 5);
        let weighted =
            generators::assign_uniform_weights(&g, 1.0, 3.0, &mut SmallRng::seed_from_u64(1));
        let sweep = |g: &CsrGraph, probe: Vertex| {
            let mut o = ProbeOracle::new(g, &[probe]);
            let mut reference = ViewCalculator::new(SpdView::direct(g));
            for v in g.vertices() {
                let want = reference.dependency_on(v, probe);
                assert_eq!(o.dep(v, 0).to_bits(), want.to_bits(), "source {v}, probe {probe}");
            }
            o.spd_passes()
        };
        // A clique probe: the path's rows are vertex 5's.
        assert_eq!(sweep(&g, 2), 6);
        // A path probe, or weighted graphs: one row per vertex.
        assert_eq!(sweep(&g, 8), 11);
        assert_eq!(sweep(&weighted, 8), 11);
        assert_eq!(sweep(&weighted, 2), 11);
    }

    #[test]
    fn restore_rejects_rows_whose_length_is_not_the_probe_count() {
        let g = generators::barbell(4, 2);
        for len in [0usize, 1, 2, 3] {
            let mut w = Writer::new();
            for x in [1u64, 0, 1, 1, 0] {
                w.u64(x); // passes, hits, misses, one row, its key
            }
            w.f64s(&vec![0.5; len]);
            let bytes = w.finish();
            let mut r = Reader::new(&bytes[..bytes.len() - 8]);
            let mut o = ProbeOracle::new(&g, &[4, 5]);
            match (len, o.restore(&mut r)) {
                (2, Ok(())) => assert_eq!(o.dep(0, 1), 0.5),
                (2, Err(e)) => panic!("a row of 2 must restore: {e}"),
                (_, Err(CoreError::Checkpoint { .. })) => {}
                (_, other) => panic!("row of {len}: expected a checkpoint error, got {other:?}"),
            }
        }
    }

    #[test]
    fn restore_drops_rows_no_source_maps_to() {
        // `barbell(4, 2)` has no pendant vertices: every source keys by its
        // id, so key 3 is live and key 99 is not.
        let g = generators::barbell(4, 2);
        let mut w = Writer::new();
        for x in [7u64, 2, 5, 2] {
            w.u64(x); // passes, hits, misses, two rows
        }
        w.u64(3);
        w.f64s(&[0.25]);
        w.u64(99);
        w.f64s(&[0.5]);
        let bytes = w.finish();
        let mut o = ProbeOracle::new(&g, &[4]);
        o.restore(&mut Reader::new(&bytes[..bytes.len() - 8])).unwrap();
        assert_eq!((o.cached_rows(), o.spd_passes(), o.computed_passes()), (1, 7, 0));
        assert_eq!(o.dep(3, 0), 0.25, "served from the restored row");
        assert_eq!(o.stats(), OracleStats { hits: 3, misses: 5 });
        // One pass after the resume: the image saved then holds the live
        // rows only, and carries the recorded passes plus that one.
        o.deps(0);
        let mut w = Writer::new();
        o.save(&mut w);
        let bytes = w.finish();
        let mut again = ProbeOracle::new(&g, &[4]);
        again.restore(&mut Reader::new(&bytes[..bytes.len() - 8])).unwrap();
        assert_eq!((again.cached_rows(), again.spd_passes()), (2, 8));
    }

    #[test]
    #[should_panic(expected = "pruned by the reduction")]
    fn pruned_probes_are_rejected_at_construction() {
        let g = generators::lollipop(5, 3);
        let red = reduce(&g, ReduceLevel::Prune).unwrap();
        let _ = ProbeOracle::for_view(SpdView::preprocessed(&g, &red), &[7]);
    }

    #[test]
    fn shared_oracle_matches_direct_kernel() {
        let g = generators::barbell(4, 2);
        let probes = [0u32, 4, 9];
        let n = g.num_vertices() as Vertex;
        let mut reference = ViewCalculator::new(SpdView::direct(&g));
        for threads in [1usize, 2, 4] {
            let mut o = ProbeOracle::new(&g, &probes);
            o.prefetch(0..n, threads);
            for src in 0..n {
                let row = o.deps(src).to_vec();
                for (i, &p) in probes.iter().enumerate() {
                    assert_eq!(row[i], reference.dependency_on(src, p));
                }
            }
            // Prefetched rows are pure cache hits for the reader.
            assert_eq!(o.stats(), OracleStats { hits: n as u64, misses: 0 }, "threads {threads}");
            assert_eq!(o.spd_passes(), n as u64);
        }
    }

    #[test]
    fn shared_reduced_oracle_coalesces_rows() {
        let g = generators::star(8);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let mut o = ProbeOracle::for_view(SpdView::preprocessed(&g, &red), &[0]);
        o.prefetch(0..g.num_vertices() as Vertex, 3);
        assert_eq!(o.spd_passes(), 2, "centre + coalesced leaf class");
        assert_eq!(o.computed_passes(), 2);
    }

    #[test]
    fn shared_oracle_concurrent_consistency() {
        // Four threads share one prefetch over a stream full of repeats:
        // every row is computed exactly once and matches the kernel.
        let g = generators::barbell(6, 2);
        let n = g.num_vertices() as Vertex;
        let mut o = ProbeOracle::new(&g, &[6]);
        o.prefetch((0..4).flat_map(|t| (0..n).map(move |i| (i + t * 3) % n)), 4);
        assert_eq!(o.spd_passes(), n as u64);
        assert_eq!(o.computed_passes(), n as u64);
        let mut reference = ViewCalculator::new(SpdView::direct(&g));
        for v in 0..n {
            assert_eq!(o.dep(v, 0), reference.dependency_on(v, 6));
        }
    }

    #[test]
    fn warm_populates_without_touching_stats() {
        let g = generators::barbell(4, 1);
        let mut o = ProbeOracle::new(&g, &[4]);
        assert_eq!(o.prefetch([0, 0], 2), 1);
        assert_eq!(o.prefetch([0], 2), 0);
        assert_eq!(o.computed_passes(), 1, "second prefetch is a no-op");
        assert_eq!(o.stats(), OracleStats::default());
        // The chain's subsequent read is a hit.
        let _ = o.dep(0, 0);
        assert_eq!(o.stats(), OracleStats { hits: 1, misses: 0 });
    }

    #[test]
    fn hit_rate_reporting() {
        let g = generators::path(5);
        let mut o = ProbeOracle::new(&g, &[2]);
        assert_eq!(o.stats().hit_rate(), 0.0);
        let _ = o.dep(0, 0);
        let _ = o.dep(0, 0);
        let _ = o.dep(0, 0);
        assert!((o.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
