//! Property-based tests for the graph substrate.

use mhbc_graph::io::read_edge_list;
use mhbc_graph::reduce::{self, reduce, ReduceLevel, TwinKind};
use mhbc_graph::{algo, generators, CsrGraph, GraphBuilder, GraphError, Vertex};
use proptest::prelude::*;
use rand::{rngs::SmallRng, RngExt, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};

/// Strategy: arbitrary simple edge list over `n` vertices.
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(Vertex, Vertex)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let edge = (0..n as Vertex, 0..n as Vertex).prop_filter("no self-loop", |(u, v)| u != v);
        (Just(n), proptest::collection::vec(edge, 0..=max_m))
    })
}

/// A random graph with planted twins: each vertex of a `G(base, p)` graph
/// becomes 1–4 copies forming a clique (true twins) or an independent set
/// (false twins), then `pendants` tree vertices hang off random earlier
/// vertices, and all labels are shuffled.
fn planted_twins(base: usize, p: f64, pendants: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let skeleton = generators::erdos_renyi_gnp(base, p, &mut rng);
    let mut copies: Vec<Vec<Vertex>> = Vec::new();
    let mut edges = Vec::new();
    let mut n = 0u32;
    for _ in 0..base {
        let k = rng.random_range(1..=4u32);
        if rng.random_range(0..2u32) == 0 {
            for a in n..n + k {
                edges.extend((a + 1..n + k).map(|b| (a, b)));
            }
        }
        copies.push((n..n + k).collect());
        n += k;
    }
    for (u, v, _) in skeleton.edges() {
        for &a in &copies[u as usize] {
            edges.extend(copies[v as usize].iter().map(|&b| (a, b)));
        }
    }
    for _ in 0..pendants {
        edges.push((rng.random_range(0..n), n));
        n += 1;
    }
    let mut label: Vec<Vertex> = (0..n).collect();
    for i in (1..n as usize).rev() {
        label.swap(i, rng.random_range(0..=i));
    }
    let edges: Vec<_> =
        edges.iter().map(|&(a, b)| (label[a as usize], label[b as usize])).collect();
    CsrGraph::from_edges(n as usize, &edges).unwrap()
}

/// Brute-force twin classes of the subgraph induced by `retained`
/// (ascending), in the reduction's class order: false classes (equal open
/// neighbourhoods) by smallest member, then true classes (equal closed
/// neighbourhoods, among the rest) and singletons in retained order.
/// Degree-0 vertices are always singletons.
fn brute_force_classes(g: &CsrGraph, retained: &[Vertex]) -> Vec<(TwinKind, Vec<Vertex>)> {
    let n = g.num_vertices();
    let live: Vec<Vec<Vertex>> = (0..n as Vertex)
        .map(|v| {
            let nbrs = g.neighbors(v).iter().copied();
            nbrs.filter(|u| retained.binary_search(u).is_ok()).collect()
        })
        .collect();
    let closed: Vec<Vec<Vertex>> = (0..n)
        .map(|v| {
            let mut k = live[v].clone();
            k.push(v as Vertex);
            k.sort_unstable();
            k
        })
        .collect();
    let mut classes = Vec::new();
    let mut assigned = vec![false; n];
    for &v in retained {
        let v = v as usize;
        let twins: Vec<Vertex> = retained
            .iter()
            .copied()
            .filter(|&u| !live[v].is_empty() && live[u as usize] == live[v])
            .collect();
        if twins.len() >= 2 && twins[0] as usize == v {
            twins.iter().for_each(|&u| assigned[u as usize] = true);
            classes.push((TwinKind::False, twins));
        }
    }
    let mut rest = Vec::new();
    for &v in retained {
        let v = v as usize;
        if assigned[v] {
            continue;
        }
        let twins: Vec<Vertex> = retained
            .iter()
            .copied()
            .filter(|&u| {
                !assigned[u as usize] && !live[v].is_empty() && closed[u as usize] == closed[v]
            })
            .collect();
        if twins.len() >= 2 {
            twins.iter().for_each(|&u| assigned[u as usize] = true);
            rest.push((TwinKind::True, twins));
        } else {
            rest.push((TwinKind::Single, vec![v as Vertex]));
        }
    }
    classes.extend(rest);
    classes
}

/// Final ids of `classes` under the reduction's documented relabel: BFS over
/// the class graph from each component's highest-degree class (roots by
/// descending degree, then id), applied only when fewer than half of the
/// consecutive visits are within 16 ids of each other.
fn expected_final_ids(g: &CsrGraph, classes: &[(TwinKind, Vec<Vertex>)]) -> Vec<Vertex> {
    let h_n = classes.len();
    let mut class_of = vec![usize::MAX; g.num_vertices()];
    for (c, (_, members)) in classes.iter().enumerate() {
        members.iter().for_each(|&m| class_of[m as usize] = c);
    }
    let mut adj = vec![Vec::new(); h_n];
    for (u, v, _) in g.edges() {
        let (cu, cv) = (class_of[u as usize], class_of[v as usize]);
        if cu != usize::MAX && cv != usize::MAX && cu != cv {
            adj[cu].push(cv);
            adj[cv].push(cu);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    let mut roots: Vec<usize> = (0..h_n).collect();
    roots.sort_by_key(|&c| (usize::MAX - adj[c].len(), c));
    let (mut order, mut seen) = (Vec::new(), vec![false; h_n]);
    for root in roots {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &d in &adj[c] {
                if !seen[d] {
                    seen[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    let local = order.windows(2).filter(|w| w[0].abs_diff(w[1]) <= 16).count();
    let mut ids: Vec<Vertex> = (0..h_n as Vertex).collect();
    if 2 * local < h_n.saturating_sub(1) {
        for (new, &old) in order.iter().enumerate() {
            ids[old] = new as Vertex;
        }
    }
    ids
}

/// A graph of generator family `family` (0–11) on about `size` vertices,
/// with `pendants` tree vertices hung off random earlier vertices.
fn family_graph(family: usize, size: usize, pendants: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let size = size.max(6);
    let g = match family {
        0 => generators::barabasi_albert(size, 1 + size % 3, &mut rng),
        1 => generators::duplication_divergence(size, 0.5, &mut rng),
        2 => generators::erdos_renyi_gnp(size, 4.0 / size as f64, &mut rng),
        3 => generators::watts_strogatz(size, 4, 0.2, &mut rng),
        4 => generators::grid(size / 6, 6, size.is_multiple_of(2)),
        5 => generators::planted_partition(3, size / 3, 0.4, 0.02, &mut rng),
        6 => generators::hub_separator(3, size / 3, 0.3, 2, &mut rng).graph,
        7 => generators::preferential_attachment_mixed(size, 1, 3, 0.5, &mut rng),
        8 => generators::complete_bipartite(size / 3, size - size / 3),
        9 => generators::wheel(size),
        10 => generators::barbell(size / 3, size % 5),
        _ => generators::balanced_tree(2, 3 + size % 3),
    };
    let mut n = g.num_vertices() as Vertex;
    let mut edges: Vec<_> = g.edges().map(|(u, v, _)| (u, v)).collect();
    for _ in 0..pendants {
        edges.push((rng.random_range(0..n), n));
        n += 1;
    }
    CsrGraph::from_edges(n as usize, &edges).unwrap()
}

/// Betweenness (Eq 1) of `v` by counting, over every ordered pair `(s, t)`
/// of other vertices, whether `v` lies on a shortest `s`–`t` path — exact
/// for a pruned vertex, which every such path must cross.
fn brute_force_cut_vertex_bc(dist: &[Vec<u32>], v: usize) -> f64 {
    let n = dist.len();
    let mut raw = 0u64;
    for s in (0..n).filter(|&s| s != v && dist[s][v] != u32::MAX) {
        for t in (0..n).filter(|&t| t != v && t != s && dist[v][t] != u32::MAX) {
            raw += (dist[s][v] + dist[v][t] == dist[s][t]) as u64;
        }
    }
    let n = n as f64;
    raw as f64 / (n * (n - 1.0))
}

/// A `BufRead::lines` edge-list parser: the reference that the
/// buffer-level `io::read_edge_list` and its fast path must match.
fn reference_read_edge_list<R: BufRead>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut weighted: Option<bool> = None;
    let mut max_v: Vertex = 0;

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| GraphError::Parse { line: lineno, message: e.to_string() })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: Vertex = reference_field(parts.next(), lineno, "source vertex")?;
        let v: Vertex = reference_field(parts.next(), lineno, "target vertex")?;
        let w_field = parts.next();
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                message: "too many fields (expected `u v` or `u v w`)".into(),
            });
        }
        match (weighted, w_field) {
            (None, None) => weighted = Some(false),
            (None, Some(_)) => weighted = Some(true),
            (Some(false), Some(_)) | (Some(true), None) => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: "inconsistent weight columns across lines".into(),
                })
            }
            _ => {}
        }
        if let Some(ws) = w_field {
            let w: f64 = ws.parse().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid weight `{ws}`"),
            })?;
            weights.push(w);
        }
        max_v = max_v.max(u).max(v);
        edges.push((u, v));
    }

    let n = if edges.is_empty() { 0 } else { max_v as usize + 1 };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    if weighted == Some(true) {
        for (&(u, v), &w) in edges.iter().zip(&weights) {
            b.add_weighted_edge(u, v, w)?;
        }
    } else {
        for &(u, v) in &edges {
            b.add_edge(u, v)?;
        }
    }
    b.build()
}

fn reference_field(field: Option<&str>, line: usize, what: &str) -> Result<Vertex, GraphError> {
    let s = field.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    s.parse().map_err(|_| GraphError::Parse { line, message: format!("invalid {what} `{s}`") })
}

/// A random edge-list text: edge lines (separated by spaces, tabs, U+00A0
/// or U+3000; ids with leading zeros, `+` signs, or beyond `u32`; optional
/// weight columns, mixed in on some texts), indented comments, blank lines,
/// stray invalid UTF-8, LF or CRLF endings, and a final newline or not.
/// Ids stay small or are at least `u32::MAX - 1`, which every reader
/// refuses before it allocates a vertex array.
fn edge_list_text(seed: u64, lines: usize) -> Vec<u8> {
    fn pick<'a>(rng: &mut SmallRng, xs: &[&'a str]) -> &'a str {
        xs[rng.random_range(0..xs.len())]
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    // 0: clean text, 1: rare oddities, 2: many.
    let noise = rng.random_range(0..3u32);
    let odd = |rng: &mut SmallRng| noise > 0 && rng.random_range(0..8 / noise) == 0;
    let weighted = rng.random_range(0..4u32) == 0;
    let seps = [" ", "\t", "  ", " \t ", "\r"];
    let odd_seps = ["\u{a0}", "\u{3000}", "\x0b", ""];
    let odd_ids = [
        "+7",
        "007",
        "0000000000000000000003",
        "4294967295",
        "4294967294",
        "4294967296",
        "99999999999999999999999",
        "-1",
        "x",
        "1.0",
    ];
    let weights = ["1", "2.5", "0.125", "3e1"];
    let odd_weights = ["0", "-1", "nan", "inf", "w", "1,5"];
    let mut text = Vec::new();
    for i in 0..lines {
        let lead = pick(&mut rng, &["", "", " ", "\t", " \t"]);
        text.extend_from_slice(lead.as_bytes());
        match rng.random_range(0..8u32) {
            0 => {}
            1 => {
                text.extend_from_slice(pick(&mut rng, &["#", "%"]).as_bytes());
                text.extend_from_slice(pick(&mut rng, &[" note", "0 1", "", " \u{e9}"]).as_bytes());
            }
            _ => {
                let id = |rng: &mut SmallRng| {
                    if odd(rng) {
                        pick(rng, &odd_ids).to_string()
                    } else {
                        rng.random_range(0..12u32).to_string()
                    }
                };
                let u = id(&mut rng);
                let v = id(&mut rng);
                let sep = |rng: &mut SmallRng| {
                    if odd(rng) {
                        pick(rng, &odd_seps)
                    } else {
                        pick(rng, &seps)
                    }
                };
                text.extend_from_slice(u.as_bytes());
                text.extend_from_slice(sep(&mut rng).as_bytes());
                text.extend_from_slice(v.as_bytes());
                if weighted != odd(&mut rng) {
                    text.extend_from_slice(sep(&mut rng).as_bytes());
                    let w = if odd(&mut rng) { &odd_weights[..] } else { &weights[..] };
                    text.extend_from_slice(pick(&mut rng, w).as_bytes());
                }
                if odd(&mut rng) {
                    text.extend_from_slice(pick(&mut rng, &[" 9", " 1 2"]).as_bytes());
                }
            }
        }
        if odd(&mut rng) {
            text.extend_from_slice(pick(&mut rng, &["\u{a0}", "\u{3000}", " "]).as_bytes());
        }
        if odd(&mut rng) {
            // Invalid UTF-8: a lone continuation byte, or a truncated sequence.
            text.extend_from_slice(if rng.random_range(0..2u32) == 0 {
                b"\x80"
            } else {
                b"\xe3\x80"
            });
        }
        text.extend_from_slice(pick(&mut rng, &[" ", "", "", "\t"]).as_bytes());
        if i + 1 < lines || rng.random_range(0..2u32) == 0 {
            text.extend_from_slice(pick(&mut rng, &["\n", "\r\n"]).as_bytes());
        }
    }
    text
}

/// A reader over `text` that is interrupted once at byte `interrupt_at` and
/// fails for good at byte `fail_at`, to pin where a reader error is
/// reported.
struct FlakyReader<'a> {
    text: &'a [u8],
    pos: usize,
    interrupt_at: usize,
    fail_at: usize,
}

impl std::io::Read for FlakyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.interrupt_at {
            self.interrupt_at = usize::MAX;
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        if self.pos == self.fail_at {
            return Err(std::io::Error::other("device went away"));
        }
        let end = self.text.len().min(self.fail_at).min(self.pos + buf.len());
        let len = end - self.pos;
        buf[..len].copy_from_slice(&self.text[self.pos..end]);
        self.pos = end;
        Ok(len)
    }
}

/// A read's outcome in comparable form: the CSR and the weights' bits, or
/// the error's `Debug` text (a `NaN` weight makes the error unequal to
/// itself under `PartialEq`).
type ReadOutcome = Result<(Vec<u32>, Vec<Vertex>, Option<Vec<u64>>), String>;

fn read_outcome(read: Result<CsrGraph, GraphError>) -> ReadOutcome {
    let g = read.map_err(|e| format!("{e:?}"))?;
    let (off, tgt) = g.csr();
    let weights = g.is_weighted().then(|| {
        g.vertices().flat_map(|v| g.neighbor_weights(v).unwrap()).map(|w| w.to_bits()).collect()
    });
    Ok((off.to_vec(), tgt.to_vec(), weights))
}

/// One `add_*` call: `{u, v}` and its weight on a weighted builder.
type Added = (Vertex, Vertex, Option<f64>);

/// Random builder input from `seed`: `n` vertices (the last few often
/// isolated), unweighted or weighted, and edges added shuffled, sorted by
/// `(min, max)` (in either orientation), or with repeats. A weight is a
/// function of its pair, except that a repeat on a `clash` input may carry
/// another weight.
fn builder_input(seed: u64) -> (usize, Vec<Added>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.random_range(1..40usize);
    let span = rng.random_range(1..=n) as Vertex;
    let weighted = rng.random_range(0..2u32) == 0;
    let clash = weighted && rng.random_range(0..4u32) == 0;
    let weight = |u: Vertex, v: Vertex| [0.5, 1.0, 2.5][(u.min(v) + 3 * u.max(v)) as usize % 3];
    let mut edges: Vec<Added> = Vec::new();
    if span >= 2 {
        for _ in 0..rng.random_range(0..3 * n) {
            let (u, v) = (rng.random_range(0..span), rng.random_range(0..span));
            if u != v {
                edges.push((u, v, weighted.then(|| weight(u, v))));
            }
        }
    }
    match rng.random_range(0..3u32) {
        0 => {
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.random_range(0..=i));
            }
        }
        1 => edges.sort_by_key(|&(u, v, _)| (u.min(v), u.max(v))),
        _ => {
            for _ in 0..rng.random_range(0..=edges.len()) {
                let (u, v, w) = edges[rng.random_range(0..edges.len())];
                let w =
                    w.map(|w| if clash && rng.random_range(0..3u32) == 0 { w + 1.0 } else { w });
                let at = rng.random_range(0..=edges.len());
                edges
                    .insert(at, if rng.random_range(0..2u32) == 0 { (v, u, w) } else { (u, v, w) });
            }
        }
    }
    (n, edges)
}

/// The naive CSR of `edges` on `n` vertices: every pair's weights in the
/// order added, the smallest pair whose weights differ as the error (its
/// first weight and the first later one that differs), and otherwise one
/// `BTreeMap` of neighbours per vertex.
fn reference_csr(n: usize, edges: &[Added]) -> ReadOutcome {
    let mut pairs: BTreeMap<(Vertex, Vertex), Vec<Option<f64>>> = BTreeMap::new();
    for &(u, v, w) in edges {
        pairs.entry((u.min(v), u.max(v))).or_default().push(w);
    }
    let mut adj: Vec<BTreeMap<Vertex, Option<f64>>> = vec![BTreeMap::new(); n];
    for (&(u, v), ws) in &pairs {
        if let Some(w2) = ws.iter().find(|&&w| w != ws[0]) {
            let (w1, w2) = (ws[0].unwrap(), w2.unwrap());
            return Err(format!("{:?}", GraphError::InconsistentDuplicate { u, v, w1, w2 }));
        }
        adj[u as usize].insert(v, ws[0]);
        adj[v as usize].insert(u, ws[0]);
    }
    let mut offsets = vec![0u32];
    let (mut targets, mut weights) = (Vec::new(), Vec::new());
    for nbrs in &adj {
        for (&t, w) in nbrs {
            targets.push(t);
            weights.extend(w.map(f64::to_bits));
        }
        offsets.push(targets.len() as u32);
    }
    let weighted = edges.first().is_some_and(|e| e.2.is_some());
    Ok((offsets, targets, weighted.then_some(weights)))
}

/// The largest component by the definition: components labelled from
/// vertex 0 upward, the last of the largest, its vertices renumbered in
/// ascending old id, and its edges added one by one to a builder.
fn reference_largest_component(g: &CsrGraph) -> (CsrGraph, Vec<Vertex>) {
    let comps = algo::connected_components(g);
    let sizes = comps.sizes();
    // `max_by_key` keeps the last of equal maxima.
    let best = (0..comps.count).max_by_key(|&c| sizes[c]).unwrap_or(0) as u32;
    let old_of_new: Vec<Vertex> =
        g.vertices().filter(|&v| comps.labels[v as usize] == best).collect();
    let mut new_of_old = vec![u32::MAX; g.num_vertices()];
    for (new, &old) in old_of_new.iter().enumerate() {
        new_of_old[old as usize] = new as Vertex;
    }
    let mut b = GraphBuilder::new(old_of_new.len());
    for (u, v, w) in g.edges() {
        let (nu, nv) = (new_of_old[u as usize], new_of_old[v as usize]);
        if nu != u32::MAX {
            if g.is_weighted() {
                b.add_weighted_edge(nu, nv, w).unwrap();
            } else {
                b.add_edge(nu, nv).unwrap();
            }
        }
    }
    (b.build().unwrap(), old_of_new)
}

proptest! {
    /// `largest_component` equals the reference relabel on arbitrary
    /// (mostly disconnected) graphs, unweighted and weighted, whether it
    /// borrows the graph or takes it: the same CSR, weight bits and map.
    #[test]
    fn largest_component_matches_reference_relabel((n, edges) in arb_edges(30, 40)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let weighted = g.map_weights(|u, v| 1.0 + f64::from(u * 31 + v) / 7.0).unwrap();
        for g in [g, weighted] {
            let (want, want_map) = reference_largest_component(&g);
            let want = read_outcome(Ok(want));
            let (got, map) = algo::largest_component(&g);
            prop_assert_eq!(read_outcome(Ok(got)), want.clone());
            prop_assert_eq!(&map, &want_map);
            let (owned, owned_map) = algo::largest_component(g);
            prop_assert_eq!(read_outcome(Ok(owned)), want);
            prop_assert_eq!(owned_map, want_map);
        }
    }

    /// `GraphBuilder::build` (a counting sort that sorts only the slices
    /// that arrive out of order, and dedups in place) equals a naive
    /// `BTreeMap` CSR on shuffled, sorted and repeated input, unweighted
    /// and weighted, with isolated vertices: the same CSR and weight bits,
    /// or the same inconsistent-duplicate error.
    #[test]
    fn builder_matches_naive_reference(seed in any::<u64>()) {
        let (n, edges) = builder_input(seed);
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &edges {
            match w {
                Some(w) => b.add_weighted_edge(u, v, w).map(|_| ()).unwrap(),
                None => b.add_edge(u, v).map(|_| ()).unwrap(),
            }
        }
        prop_assert_eq!(read_outcome(b.build()), reference_csr(n, &edges), "{:?}", edges);
    }

    /// CSR invariants hold for arbitrary edge lists: sorted adjacency,
    /// symmetric edges, degree sum = 2m, no self-loops or duplicates.
    #[test]
    fn csr_invariants((n, edges) in arb_edges(40, 200)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build().unwrap();

        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.degree_sum(), 2 * g.num_edges());
        for v in 0..n as Vertex {
            let nbrs = g.neighbors(v);
            // Sorted strictly (no duplicates), no self-loop.
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &u in nbrs {
                prop_assert_ne!(u, v);
                prop_assert!(g.has_edge(u, v), "symmetry violated for ({}, {})", u, v);
            }
        }
    }

    /// Every edge added is present, and nothing else is.
    #[test]
    fn membership_matches_input((n, edges) in arb_edges(25, 80)) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let g = b.build().unwrap();
        use std::collections::HashSet;
        let set: HashSet<(Vertex, Vertex)> =
            edges.iter().map(|&(u, v)| if u < v { (u, v) } else { (v, u) }).collect();
        prop_assert_eq!(g.num_edges(), set.len());
        for u in 0..n as Vertex {
            for v in 0..n as Vertex {
                let expect = u != v && set.contains(&if u < v { (u, v) } else { (v, u) });
                prop_assert_eq!(g.has_edge(u, v), expect);
            }
        }
    }

    /// Connected components partition the vertex set and are edge-closed.
    #[test]
    fn components_partition((n, edges) in arb_edges(30, 60)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let comps = algo::connected_components(&g);
        prop_assert_eq!(comps.labels.len(), n);
        prop_assert!(comps.labels.iter().all(|&l| (l as usize) < comps.count));
        prop_assert_eq!(comps.sizes().iter().sum::<usize>(), n);
        for (u, v, _) in g.edges() {
            prop_assert_eq!(comps.labels[u as usize], comps.labels[v as usize]);
        }
    }

    /// `ensure_connected` always yields a connected graph containing the
    /// original edges.
    #[test]
    fn ensure_connected_connects((n, edges) in arb_edges(30, 40), seed in any::<u64>()) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let m_before = g.num_edges();
        let mut rng = SmallRng::seed_from_u64(seed);
        let g2 = generators::ensure_connected(g.clone(), &mut rng);
        prop_assert!(algo::is_connected(&g2));
        prop_assert!(g2.num_edges() >= m_before);
        for (u, v, _) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
    }

    /// BFS distances satisfy the edge-relaxation (triangle) property and the
    /// source has distance zero.
    #[test]
    fn bfs_distance_triangle((n, edges) in arb_edges(30, 120), src_raw in 0u32..30) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let src = src_raw % n as u32;
        let d = algo::bfs_distances(&g, src);
        prop_assert_eq!(d[src as usize], 0);
        for (u, v, _) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != u32::MAX {
                prop_assert!(dv != u32::MAX && dv <= du + 1, "edge ({}, {})", u, v);
            }
            if dv != u32::MAX {
                prop_assert!(du != u32::MAX && du <= dv + 1);
            }
        }
    }

    /// Generators produce the promised vertex counts and connectivity.
    #[test]
    fn ba_generator_invariants(n in 5usize..60, m in 1usize..4, seed in any::<u64>()) {
        prop_assume!(n > m);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::barabasi_albert(n, m, &mut rng);
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.num_edges(), m + (n - m - 1) * m);
        prop_assert!(algo::is_connected(&g));
    }

    /// Separator family: hub removal gives exactly `clusters` equal parts.
    #[test]
    fn separator_invariants(clusters in 2usize..5, size in 1usize..12, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let links = 1 + seed as usize % size.min(3);
        let hs = generators::hub_separator(clusters, size, 0.2, links, &mut rng);
        prop_assert!(algo::is_connected(&hs.graph));
        let sizes = algo::components_after_removal(&hs.graph, hs.hub);
        prop_assert_eq!(sizes.len(), clusters);
        prop_assert!(sizes.iter().all(|&s| s == size));
    }

    /// Edge-list IO roundtrips arbitrary graphs.
    #[test]
    fn io_roundtrip((n, edges) in arb_edges(20, 50)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let mut buf = Vec::new();
        mhbc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = mhbc_graph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, _) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
    }

    /// The buffer-level edge-list reader equals the `lines()` reader it
    /// replaced on every text, at every buffer capacity (so lines straddle
    /// refills at every offset) and when the reader fails part-way: the
    /// same graph, or the same error.
    #[test]
    fn edge_list_reader_matches_lines_reference(
        seed in any::<u64>(),
        lines in 0usize..14,
        cut_at in 0.0f64..1.0,
        fail in any::<bool>(),
    ) {
        let text = edge_list_text(seed, lines);
        let cut = (cut_at * (text.len() + 1) as f64) as usize;
        let expected = read_outcome(reference_read_edge_list(&text[..]));
        for cap in 1..16 {
            let got = read_outcome(read_edge_list(BufReader::with_capacity(cap, &text[..])));
            prop_assert_eq!(&got, &expected, "capacity {} on {:?}", cap, String::from_utf8_lossy(&text));
        }
        prop_assert_eq!(read_outcome(read_edge_list(&text[..])), expected);
        // A reader error, after an interruption both readers retry, is
        // reported on the line being read, unless an earlier line failed.
        let flaky = |cut: usize| FlakyReader {
            text: &text,
            pos: 0,
            interrupt_at: cut / 2,
            fail_at: if fail { cut } else { usize::MAX },
        };
        let expected = read_outcome(reference_read_edge_list(BufReader::with_capacity(3, flaky(cut))));
        let got = read_outcome(read_edge_list(BufReader::with_capacity(3, flaky(cut))));
        prop_assert_eq!(got, expected, "cut at {} of {:?}", cut, String::from_utf8_lossy(&text));
    }

    /// Union-find agrees with BFS connectivity.
    #[test]
    fn union_find_matches_bfs((n, edges) in arb_edges(25, 60)) {
        let g = CsrGraph::from_edges(n, &edges).unwrap();
        let mut uf = algo::UnionFind::new(n);
        for (u, v, _) in g.edges() {
            uf.union(u, v);
        }
        let comps = algo::connected_components(&g);
        prop_assert_eq!(uf.num_components(), comps.count);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    uf.connected(u, v),
                    comps.labels[u as usize] == comps.labels[v as usize]
                );
            }
        }
    }

    /// A plan's counted stats and closed forms equal those of the reduction
    /// it assembles, on arbitrary graphs and on graphs full of twins and
    /// pendant trees, at both pruning levels.
    #[test]
    fn plan_stats_and_closed_forms_match_the_assembled_reduction(
        (n, edges) in arb_edges(40, 120),
        base in 1usize..60,
        p in 0.01f64..0.2,
        pendants in 0usize..30,
        seed in any::<u64>(),
    ) {
        let graphs = [CsrGraph::from_edges(n, &edges).unwrap(), planted_twins(base, p, pendants, seed)];
        for g in &graphs {
            for level in [ReduceLevel::Prune, ReduceLevel::Full] {
                let plan = reduce::plan(g, level).unwrap();
                let planned = (*plan.stats(), g.vertices().map(|v| plan.exact_pruned_bc(v).map(f64::to_bits)).collect::<Vec<_>>());
                let red = reduce(g, level).unwrap();
                prop_assert_eq!(planned.0, *red.stats(), "{:?}", level);
                let built: Vec<_> = g.vertices().map(|v| red.exact_pruned_bc(v).map(f64::to_bits)).collect();
                prop_assert_eq!(planned.1, built, "{:?}", level);
            }
        }
    }

    /// Twin detection at `Full` equals a brute-force pairwise comparison of
    /// live open and closed neighbourhoods: same classes, kinds and class
    /// order (read through the relabel).
    #[test]
    fn twin_classes_match_brute_force(
        base in 1usize..120,
        p in 0.01f64..0.08,
        pendants in 0usize..40,
        seed in any::<u64>(),
    ) {
        let g = planted_twins(base, p, pendants, seed);
        let red = reduce(&g, ReduceLevel::Full).unwrap();
        let retained: Vec<Vertex> = g.vertices().filter(|&v| red.is_retained(v)).collect();
        let classes = brute_force_classes(&g, &retained);
        let ids = expected_final_ids(&g, &classes);
        prop_assert_eq!(red.csr().num_vertices(), classes.len());
        for ((kind, members), &z) in classes.iter().zip(&ids) {
            prop_assert_eq!(red.kind(z), *kind, "class {:?}", members);
            prop_assert_eq!(red.members(z), &members[..]);
        }
    }

    /// A plan equals a brute-force reference on every generator family,
    /// with and without pendant trees, at both pruning levels: the same
    /// class of every vertex (id and kind; `full` compares open and closed
    /// neighbourhoods pairwise), the same stats, and closed forms equal to
    /// pair counts over all-pairs distances.
    #[test]
    fn plan_matches_brute_force_reference(
        family in 0usize..12,
        size in 6usize..60,
        pendants in 0usize..2,
        seed in any::<u64>(),
    ) {
        let g = family_graph(family, size, pendants * (1 + size / 4), seed);
        let n = g.num_vertices();
        let forest = algo::PendantForest::peel(&g);
        let retained: Vec<Vertex> = g.vertices().filter(|&v| !forest.is_pruned(v)).collect();
        let dist: Vec<Vec<u32>> = g.vertices().map(|s| algo::bfs_distances(&g, s)).collect();
        for level in [ReduceLevel::Prune, ReduceLevel::Full] {
            let classes = match level {
                ReduceLevel::Full => brute_force_classes(&g, &retained),
                _ => retained.iter().map(|&v| (TwinKind::Single, vec![v])).collect(),
            };
            let mut class_of = vec![None; n];
            for (c, (kind, members)) in classes.iter().enumerate() {
                members.iter().for_each(|&m| class_of[m as usize] = Some((c as u32, *kind)));
            }
            let mut class_edges: Vec<(u32, u32)> = g
                .edges()
                .filter_map(|(u, v, _)| Some((class_of[u as usize]?.0, class_of[v as usize]?.0)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            class_edges.sort_unstable();
            class_edges.dedup();
            let expected = reduce::ReduceStats {
                orig_vertices: n,
                orig_edges: g.num_edges(),
                pruned_vertices: n - retained.len(),
                collapsed_vertices: retained.len() - classes.len(),
                reduced_vertices: classes.len(),
                reduced_edges: class_edges.len(),
            };
            let plan = reduce::plan(&g, level).unwrap();
            prop_assert_eq!(*plan.stats(), expected, "{:?}", level);
            for v in g.vertices() {
                prop_assert_eq!(plan.class(v), class_of[v as usize], "{:?} vertex {}", level, v);
                let closed_form = forest
                    .is_pruned(v)
                    .then(|| brute_force_cut_vertex_bc(&dist, v as usize).to_bits());
                prop_assert_eq!(plan.exact_pruned_bc(v).map(f64::to_bits), closed_form, "{}", v);
            }
        }
    }
}
