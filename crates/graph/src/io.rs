//! Whitespace-separated edge-list reading and writing.
//!
//! Format: one edge per line, `u v` (unweighted) or `u v w` (weighted);
//! blank lines and lines starting with `#` or `%` are ignored (the comment
//! conventions of SNAP and KONECT dumps). Vertex ids are arbitrary
//! non-negative integers; the graph is sized to `max id + 1`.
//!
//! # Parsing
//!
//! [`read_edge_list`] streams: it parses lines straight out of the reader's
//! buffer (`fill_buf`/`consume`) and never holds the whole text in memory.
//! Each refill is cut after its last `\n`; the whole lines before the cut
//! go through one tight loop, and the bytes after it are carried into the
//! next refill (the only line ever copied is one that straddles two
//! refills). The loop's fast path takes the common line — two runs of
//! ASCII digits separated by spaces or tabs, with an optional `\r` before
//! the newline — and skips ASCII comment and blank lines. Every other line
//! (weight columns, signs such as `+7`, ids that do not fit a [`Vertex`],
//! Unicode whitespace, invalid UTF-8, malformed fields) goes to the general
//! per-line parser, which splits on Unicode whitespace exactly as
//! `str::split_whitespace` does. The fast path only accepts lines the
//! general parser reads the same way, so the accepted syntax, the error
//! messages and the reported line numbers are unchanged and do not depend
//! on which path a line took.
//!
//! The parsed edges (8 bytes each, plus 8 per weight) are then handed to
//! [`GraphBuilder::build`], a counting sort that frees them once they are
//! scattered into the CSR.

use crate::{CsrGraph, GraphBuilder, GraphError, Vertex};
use std::io::{BufRead, Write};

/// Reads an edge list from `reader`. Weightedness is inferred from the first
/// data line and must then be consistent on all lines.
///
/// Parse errors come first, at the first bad line; then the first
/// self-loop or invalid weight in file order; then the builder's errors.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut edges = EdgeList::default();
    // Lines completed so far.
    let mut lineno = 0usize;
    // A line that straddles buffer refills, gathered up to its `\n`.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(GraphError::Parse { line: lineno + 1, message: e.to_string() }),
        };
        if buf.is_empty() {
            break;
        }
        let mut rest = buf;
        if !carry.is_empty() {
            let Some(end) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                let len = buf.len();
                reader.consume(len);
                continue;
            };
            carry.extend_from_slice(&rest[..=end]);
            edges.lines(&carry, &mut lineno)?;
            carry.clear();
            rest = &rest[end + 1..];
        }
        let complete = rest.iter().rposition(|&b| b == b'\n').map_or(0, |end| end + 1);
        edges.lines(&rest[..complete], &mut lineno)?;
        carry.extend_from_slice(&rest[complete..]);
        let len = buf.len();
        reader.consume(len);
    }
    if !carry.is_empty() {
        carry.push(b'\n');
        edges.lines(&carry, &mut lineno)?;
    }
    edges.build()
}

/// The edges read so far, normalised to `u < v` in file order, and what
/// the reading has learnt about them.
#[derive(Default)]
struct EdgeList {
    edges: Vec<(Vertex, Vertex)>,
    weights: Vec<f64>,
    weighted: Option<bool>,
    max_v: Vertex,
    /// The first self-loop or invalid weight, in file order. It is
    /// reported only if the whole text parses.
    invalid: Option<GraphError>,
}

impl EdgeList {
    /// Reads `text`, whole lines each ending in `\n`, numbering them from
    /// `*lineno + 1` and counting them into `*lineno`. The fast path runs
    /// line after line over the chunk; a line it does not take goes to
    /// [`EdgeList::general_line`].
    fn lines(&mut self, text: &[u8], lineno: &mut usize) -> Result<(), GraphError> {
        debug_assert!(text.last().is_none_or(|&b| b == b'\n'));
        let mut i = 0;
        while i < text.len() {
            *lineno += 1;
            match fast_line(text, i) {
                Some((Some((u, v)), next)) => {
                    self.push_fast(u, v, *lineno)?;
                    i = next;
                }
                Some((None, next)) => i = next,
                None => {
                    let end = i + newline(&text[i..]);
                    self.general_line(&text[i..end], *lineno)?;
                    i = end + 1;
                }
            }
        }
        Ok(())
    }

    /// The general per-line parser: any line `BufRead::lines` would yield.
    fn general_line(&mut self, line: &[u8], lineno: usize) -> Result<(), GraphError> {
        let line = std::str::from_utf8(line).map_err(|_| GraphError::Parse {
            line: lineno,
            message: "stream did not contain valid UTF-8".into(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            return Ok(());
        }
        let mut parts = trimmed.split_whitespace();
        let u: Vertex = parse_field(parts.next(), lineno, "source vertex")?;
        let v: Vertex = parse_field(parts.next(), lineno, "target vertex")?;
        let w_field = parts.next();
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                message: "too many fields (expected `u v` or `u v w`)".into(),
            });
        }
        self.push(u, v, w_field, lineno)
    }

    /// [`EdgeList::push`] for an unweighted edge of the fast path.
    #[inline]
    fn push_fast(&mut self, u: Vertex, v: Vertex, lineno: usize) -> Result<(), GraphError> {
        if self.weighted != Some(false) || u == v {
            return self.push(u, v, None, lineno);
        }
        self.max_v = self.max_v.max(u).max(v);
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        Ok(())
    }

    /// Records edge `{u, v}` with its weight field, if any.
    fn push(
        &mut self,
        u: Vertex,
        v: Vertex,
        w_field: Option<&str>,
        lineno: usize,
    ) -> Result<(), GraphError> {
        match (self.weighted, w_field) {
            (None, None) => self.weighted = Some(false),
            (None, Some(_)) => self.weighted = Some(true),
            (Some(false), Some(_)) | (Some(true), None) => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: "inconsistent weight columns across lines".into(),
                })
            }
            _ => {}
        }
        let w = w_field
            .map(|ws| {
                ws.parse::<f64>().map_err(|_| GraphError::Parse {
                    line: lineno,
                    message: format!("invalid weight `{ws}`"),
                })
            })
            .transpose()?;
        if self.invalid.is_none() {
            if u == v {
                self.invalid = Some(GraphError::SelfLoop { vertex: u });
            } else if let Some(weight) = w.filter(|w| !(w.is_finite() && *w > 0.0)) {
                self.invalid = Some(GraphError::InvalidWeight { u, v, weight });
            }
        }
        self.weights.extend(w);
        self.max_v = self.max_v.max(u).max(v);
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        Ok(())
    }

    fn build(self) -> Result<CsrGraph, GraphError> {
        if let Some(e) = self.invalid {
            return Err(e);
        }
        let n = if self.edges.is_empty() { 0 } else { self.max_v as usize + 1 };
        GraphBuilder::from_normalised(n, self.edges, self.weights, self.weighted == Some(true))
            .build()
    }
}

/// The position of the first `\n` in `text`, which has one.
fn newline(text: &[u8]) -> usize {
    text.iter().position(|&b| b == b'\n').expect("a whole line ends in `\\n`")
}

/// The fast path of [`read_edge_list`], on the line at `text[i..]` (which
/// ends in `\n`): an edge for two ASCII-digit ids separated by spaces,
/// tabs or carriage returns, no edge for an ASCII blank or comment line,
/// and the index after the line's `\n`. `None` for any other line.
#[inline]
fn fast_line(text: &[u8], i: usize) -> Option<(Option<(Vertex, Vertex)>, usize)> {
    let i = skip_blanks(text, i);
    match text[i] {
        b'\n' => return Some((None, i + 1)),
        b'#' | b'%' => {
            let end = i + newline(&text[i..]);
            return text[i..end].is_ascii().then_some((None, end + 1));
        }
        _ => {}
    }
    let (u, i) = fast_id(text, i)?;
    // A digit cannot follow `u` directly, so a missing gap fails `fast_id`.
    let (v, i) = fast_id(text, skip_blanks(text, i))?;
    let end = skip_blanks(text, i);
    (text[end] == b'\n').then_some((Some((u, v)), end + 1))
}

/// The index of the first byte at or after `i` that is not a space, tab or
/// carriage return (all three are whitespace to `split_whitespace` too).
/// The line's `\n` stops the scan.
#[inline]
fn skip_blanks(text: &[u8], mut i: usize) -> usize {
    while matches!(text[i], b' ' | b'\t' | b'\r') {
        i += 1;
    }
    i
}

/// Reads the run of ASCII digits at `text[start..]` as a vertex id and
/// returns it with the index after the run; `None` when there is no digit
/// or the id does not fit a [`Vertex`]. The line's `\n` ends the run.
#[inline]
fn fast_id(text: &[u8], start: usize) -> Option<(Vertex, usize)> {
    let mut i = start;
    let mut id: u64 = 0;
    loop {
        let digit = text[i].wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        // At most `Vertex::MAX * 10 + 9` before the check: no u64 overflow.
        id = id * 10 + u64::from(digit);
        if id > u64::from(Vertex::MAX) {
            return None;
        }
        i += 1;
    }
    (i > start).then_some((id as Vertex, i))
}

fn parse_field(field: Option<&str>, line: usize, what: &str) -> Result<Vertex, GraphError> {
    let s = field.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    s.parse().map_err(|_| GraphError::Parse { line, message: format!("invalid {what} `{s}`") })
}

/// Writes `g` as an edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# mhbc edge list: n={} m={}", g.num_vertices(), g.num_edges())?;
    if g.is_weighted() {
        for (u, v, w) in g.edges() {
            writeln!(writer, "{u} {v} {w}")?;
        }
    } else {
        for (u, v, _) in g.edges() {
            writeln!(writer, "{u} {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_unweighted_with_comments() {
        let text = "# comment\n% other comment\n0 1\n\n1 2\n2 0\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn reads_weighted() {
        let g = read_edge_list(Cursor::new("0 1 2.5\n1 2 0.5\n")).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn rejects_mixed_weight_columns() {
        let err = read_edge_list(Cursor::new("0 1\n1 2 3.0\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_edge_list(Cursor::new("0 x\n")).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            read_edge_list(Cursor::new("0 1 2.0 9\n")).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            read_edge_list(Cursor::new("3\n")).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = crate::generators::barbell(3, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, _) in g.edges() {
            assert!(g2.has_edge(u, v));
        }
    }

    #[test]
    fn roundtrip_weighted() {
        let g = crate::CsrGraph::from_weighted_edges(3, &[(0, 1, 1.25), (1, 2, 4.0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.edge_weight(0, 1), Some(1.25));
        assert_eq!(g2.edge_weight(1, 2), Some(4.0));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn self_loop_in_file_is_rejected() {
        assert!(matches!(
            read_edge_list(Cursor::new("1 1\n")).unwrap_err(),
            GraphError::SelfLoop { vertex: 1 }
        ));
    }
}
