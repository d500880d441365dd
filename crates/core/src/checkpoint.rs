//! Versioned binary checkpoints for the estimation engine.
//!
//! A checkpoint captures the **complete** state of a running
//! [`crate::engine::EstimationEngine`] at a segment boundary — chain RNG
//! streams, estimator accumulators, the streaming diagnostics monitor, the
//! segment counter, and the memoised dependency rows — such that resuming
//! is *bit-identical* to never having stopped: same estimates, same
//! acceptance history, same `spd_passes`, same future stopping decisions,
//! at every thread count and kernel mode.
//!
//! ## File format (version 1)
//!
//! ```text
//! magic    8 bytes  "MHBCCKPT"
//! version  u32      1
//! kind     u8       1 = single, 2 = joint (3, the retired multi-chain
//!                   ensemble, is rejected with a typed error)
//! view     u8 preprocess level (off/prune/full), u8 kernel (advisory),
//!          u64 n, u64 m, u8 weighted, u64 FNV-1a edge hash
//! payload  kind-specific (see the samplers' `save`/`restore_from`)
//! checksum u64      FNV-1a over everything above
//! ```
//!
//! All multi-byte integers are little-endian; floats are stored as raw IEEE
//! bits so restored accumulators continue bit-exactly. The header pins the
//! run to an equivalent evaluation view: the **graph** must match exactly
//! (the edge hash covers endpoints and weights) and the **preprocess
//! level** must match (cached rows are keyed by the reduction's row keys).
//! The **kernel mode is advisory** — every mode produces bit-identical
//! dependency rows (the PR 4 guarantee), so a checkpoint written under
//! `--kernel topdown` may resume under `hybrid` without changing a single
//! output bit; the saved mode is only echoed for reproducibility.

use crate::CoreError;
use mhbc_graph::reduce::ReduceLevel;
use mhbc_graph::CsrGraph;
use mhbc_mcmc::{ChainSnapshot, ChainStats};
use mhbc_spd::{KernelMode, SpdView};

/// Format magic.
pub const MAGIC: &[u8; 8] = b"MHBCCKPT";
/// Current format version.
pub const VERSION: u32 = 1;

/// What kind of run a checkpoint holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A single-space run (`estimate`).
    Single,
    /// A joint-space run (`rank`).
    Joint,
}

impl CheckpointKind {
    pub(crate) fn tag(self) -> u8 {
        match self {
            CheckpointKind::Single => 1,
            CheckpointKind::Joint => 2,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Self, CoreError> {
        match tag {
            1 => Ok(CheckpointKind::Single),
            2 => Ok(CheckpointKind::Joint),
            3 => Err(corrupt("ensemble checkpoints are no longer supported")),
            other => Err(corrupt(format!("unknown checkpoint kind {other}"))),
        }
    }
}

/// Decoded checkpoint header: enough to rebuild the evaluation view before
/// touching the payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointInfo {
    /// Which engine kind wrote the file.
    pub kind: CheckpointKind,
    /// The preprocess level the run evaluated through (must match at
    /// resume: cached rows are keyed in the reduction's key space).
    pub preprocess: ReduceLevel,
    /// The kernel mode at save time (advisory; any mode resumes
    /// bit-identically).
    pub kernel: KernelMode,
    /// Vertex count of the (LCC-reduced) graph.
    pub num_vertices: u64,
    /// Edge count.
    pub num_edges: u64,
    /// Whether the graph is weighted.
    pub weighted: bool,
    /// FNV-1a hash over the edge list (endpoints and weight bits).
    pub graph_hash: u64,
}

pub(crate) fn corrupt(reason: impl Into<String>) -> CoreError {
    CoreError::Checkpoint { reason: reason.into() }
}

/// FNV-1a over the graph's edge list — cheap (`O(m)`), order-sensitive, and
/// covering weights, so "same file, same LCC" collisions are the only way
/// two different graphs pass the header check.
pub fn graph_hash(g: &CsrGraph) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.num_vertices() as u64);
    for (u, v, w) in g.edges() {
        h.u64(u as u64);
        h.u64(v as u64);
        h.u64(w.to_bits());
    }
    h.finish()
}

/// Incremental FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn level_tag(level: Option<ReduceLevel>) -> u8 {
    match level {
        None => 0,
        Some(ReduceLevel::Off) => 0,
        Some(ReduceLevel::Prune) => 1,
        Some(ReduceLevel::Full) => 2,
    }
}

fn level_from_tag(tag: u8) -> Result<ReduceLevel, CoreError> {
    match tag {
        0 => Ok(ReduceLevel::Off),
        1 => Ok(ReduceLevel::Prune),
        2 => Ok(ReduceLevel::Full),
        other => Err(corrupt(format!("unknown preprocess level {other}"))),
    }
}

fn kernel_tag(kernel: KernelMode) -> u8 {
    match kernel {
        KernelMode::Auto => 0,
        KernelMode::TopDown => 1,
        KernelMode::Hybrid => 2,
    }
}

fn kernel_from_tag(tag: u8) -> Result<KernelMode, CoreError> {
    match tag {
        0 => Ok(KernelMode::Auto),
        1 => Ok(KernelMode::TopDown),
        2 => Ok(KernelMode::Hybrid),
        other => Err(corrupt(format!("unknown kernel mode {other}"))),
    }
}

/// Little-endian byte sink for checkpoint payloads (public so the engine's
/// driver trait can name it; construction and reads stay crate-internal).
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::with_capacity(4096) }
    }

    pub(crate) fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    pub(crate) fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub(crate) fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    pub(crate) fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    /// Appends the FNV checksum and returns the finished file bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let mut h = Fnv::new();
        h.bytes(&self.buf);
        let sum = h.finish();
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Little-endian byte source with corruption-as-error reads (public for
/// the same reason as [`Writer`]).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| corrupt("truncated checkpoint"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, CoreError> {
        let n = self.u64()? as usize;
        if n > self.remaining() / 8 {
            return Err(corrupt("float vector longer than the checkpoint"));
        }
        (0..n).map(|_| self.f64()).collect()
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Writes a chain snapshot: the state (through `state`), its cached
/// density, the acceptance counters, and both RNG streams.
pub(crate) fn save_chain<S>(
    w: &mut Writer,
    snap: &ChainSnapshot<S>,
    state: impl FnOnce(&mut Writer, &S),
) {
    state(w, &snap.state);
    w.f64(snap.density);
    w.u64(snap.stats.steps);
    w.u64(snap.stats.accepted);
    for &x in snap.proposal_rng.iter().chain(&snap.accept_rng) {
        w.u64(x);
    }
}

/// Reads a chain snapshot written by [`save_chain`].
pub(crate) fn read_chain<S>(
    r: &mut Reader<'_>,
    state: impl FnOnce(&mut Reader<'_>) -> Result<S, CoreError>,
) -> Result<ChainSnapshot<S>, CoreError> {
    let state = state(r)?;
    let density = r.f64()?;
    let stats = ChainStats { steps: r.u64()?, accepted: r.u64()? };
    let mut words = [0u64; 8];
    for x in &mut words {
        *x = r.u64()?;
    }
    Ok(ChainSnapshot {
        state,
        density,
        stats,
        proposal_rng: words[..4].try_into().expect("4 words"),
        accept_rng: words[4..].try_into().expect("4 words"),
    })
}

/// Writes the common header (magic, version, kind, view identity) into `w`.
pub(crate) fn write_header(w: &mut Writer, kind: CheckpointKind, view: &SpdView<'_>) {
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u8(kind.tag());
    w.u8(level_tag(view.reduced().map(|r| r.level())));
    w.u8(kernel_tag(view.kernel()));
    let g = view.graph();
    w.u64(g.num_vertices() as u64);
    w.u64(g.num_edges() as u64);
    w.u8(g.is_weighted() as u8);
    w.u64(graph_hash(g));
}

/// Verifies the trailing checksum and decodes the header, returning the
/// info block and a reader positioned at the payload.
pub(crate) fn read_header<'a>(bytes: &'a [u8]) -> Result<(CheckpointInfo, Reader<'a>), CoreError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(corrupt("file too short to be a checkpoint"));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    let mut h = Fnv::new();
    h.bytes(body);
    if h.finish() != stored {
        return Err(corrupt("checksum mismatch (file corrupted or truncated)"));
    }
    let mut r = Reader::new(body);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(corrupt("not a mhbc checkpoint (bad magic)"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        )));
    }
    let kind = CheckpointKind::from_tag(r.u8()?)?;
    let preprocess = level_from_tag(r.u8()?)?;
    let kernel = kernel_from_tag(r.u8()?)?;
    let info = CheckpointInfo {
        kind,
        preprocess,
        kernel,
        num_vertices: r.u64()?,
        num_edges: r.u64()?,
        weighted: r.u8()? != 0,
        graph_hash: r.u64()?,
    };
    Ok((info, r))
}

/// Decodes and validates just the header of a checkpoint file — what a CLI
/// needs to rebuild the evaluation view (load the graph, apply the saved
/// preprocess level) before resuming the payload.
pub fn peek(bytes: &[u8]) -> Result<CheckpointInfo, CoreError> {
    read_header(bytes).map(|(info, _)| info)
}

/// Validates that `view` matches a checkpoint's header: same graph (size
/// and edge hash) and same preprocess level. The kernel mode is *not*
/// checked (all modes are bit-identical).
pub(crate) fn validate_view(info: &CheckpointInfo, view: &SpdView<'_>) -> Result<(), CoreError> {
    let g = view.graph();
    if g.num_vertices() as u64 != info.num_vertices
        || g.num_edges() as u64 != info.num_edges
        || g.is_weighted() != info.weighted
        || graph_hash(g) != info.graph_hash
    {
        return Err(corrupt(format!(
            "graph mismatch: checkpoint was written for {} vertices / {} edges (hash {:016x}), \
             resuming against {} vertices / {} edges (hash {:016x})",
            info.num_vertices,
            info.num_edges,
            info.graph_hash,
            g.num_vertices(),
            g.num_edges(),
            graph_hash(g)
        )));
    }
    let level = view.reduced().map(|r| r.level()).unwrap_or(ReduceLevel::Off);
    if level_tag(Some(level)) != level_tag(Some(info.preprocess)) {
        return Err(corrupt(format!(
            "preprocess mismatch: checkpoint used `{}`, resume view uses `{}` (cached rows are \
             keyed in the reduction's key space — rebuild the view at the saved level)",
            info.preprocess.as_str(),
            level.as_str()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhbc_graph::generators;

    #[test]
    fn header_roundtrip_and_checksum() {
        let g = generators::barbell(5, 2);
        let view = SpdView::direct(&g).with_kernel(KernelMode::Hybrid);
        let mut w = Writer::new();
        write_header(&mut w, CheckpointKind::Single, &view);
        w.u64(0xDEAD_BEEF);
        let bytes = w.finish();

        let info = peek(&bytes).expect("valid header");
        assert_eq!(info.kind, CheckpointKind::Single);
        assert_eq!(info.preprocess, ReduceLevel::Off);
        assert_eq!(info.kernel, KernelMode::Hybrid);
        assert_eq!(info.num_vertices, g.num_vertices() as u64);
        assert!(!info.weighted);
        validate_view(&info, &view).expect("same view validates");
        // Any kernel mode validates (rows are mode-invariant).
        validate_view(&info, &SpdView::direct(&g)).expect("other kernel validates");

        let (_, mut r) = read_header(&bytes).expect("valid");
        assert_eq!(r.u64().expect("payload"), 0xDEAD_BEEF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let g = generators::barbell(4, 1);
        let mut w = Writer::new();
        write_header(&mut w, CheckpointKind::Joint, &SpdView::direct(&g));
        let mut bytes = w.finish();
        // Flip one payload byte: checksum must fail.
        bytes[12] ^= 0xFF;
        assert!(matches!(peek(&bytes), Err(CoreError::Checkpoint { .. })));
        // Truncation must fail.
        assert!(peek(&bytes[..10]).is_err());
        assert!(peek(b"not a checkpoint at all").is_err());
    }

    #[test]
    fn mismatched_graphs_are_rejected() {
        let a = generators::barbell(5, 2);
        let b = generators::barbell(5, 3);
        let mut w = Writer::new();
        write_header(&mut w, CheckpointKind::Single, &SpdView::direct(&a));
        let bytes = w.finish();
        let info = peek(&bytes).expect("valid");
        let err = validate_view(&info, &SpdView::direct(&b)).expect_err("different graph");
        assert!(err.to_string().contains("graph mismatch"), "{err}");
    }

    #[test]
    fn mismatched_preprocess_is_rejected() {
        use mhbc_graph::reduce::{reduce, ReduceLevel};
        let g = generators::lollipop(6, 3);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let mut w = Writer::new();
        write_header(&mut w, CheckpointKind::Single, &SpdView::preprocessed(&g, &red));
        let bytes = w.finish();
        let info = peek(&bytes).expect("valid");
        assert_eq!(info.preprocess, ReduceLevel::Full);
        let err = validate_view(&info, &SpdView::direct(&g)).expect_err("level mismatch");
        assert!(err.to_string().contains("preprocess mismatch"), "{err}");
    }

    #[test]
    fn same_graph_same_hash_different_graph_different_hash() {
        let a = generators::grid(4, 5, false);
        let b = generators::grid(4, 5, false);
        assert_eq!(graph_hash(&a), graph_hash(&b));
        let c = generators::grid(5, 4, false);
        assert_ne!(graph_hash(&a), graph_hash(&c));
        // Weights are covered.
        let w = a.map_weights(|_, _| 2.0).unwrap();
        assert_ne!(graph_hash(&a), graph_hash(&w));
    }
}
