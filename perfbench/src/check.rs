//! Reading and checking what an `mhbc` operation printed.

use crate::inputs::GraphInput;
use mhbc_suite::graph::Vertex;
use std::str::FromStr;

/// How far an answer may sit from exact Brandes where the inputs carry it
/// (`hot-adaptive`): `|estimate − exact| ≤ EXACT_REL · exact + EXACT_ABS ·
/// hub`, where `hub` is the largest exact betweenness among the graph's
/// probes. A ranking ratio is checked as the betweenness it implies (ratio
/// times the reference probe's exact value). `BENCHMARK.json` states the
/// same numbers for the workload.
pub const EXACT_REL: f64 = 1.0;
/// See [`EXACT_REL`].
pub const EXACT_ABS: f64 = 0.1;

/// What an operation must print.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `estimate` of `vertex`: a fixed budget is spent exactly; an adaptive
    /// run may stop early and says why.
    Estimate { vertex: Vertex, budget: u64, adaptive: bool },
    /// Fixed-budget `rank`: ratios of every probe against the first.
    Rank { vertices: Vec<Vertex>, budget: u64 },
    /// Adaptive `rank`: `budget` iterations per probe, shared by the
    /// scheduler, which may overshoot by one `segment`.
    AdaptiveRank { vertices: Vec<Vertex>, budget: u64, segment: u64 },
}

/// A printed answer. Numbers stay as printed, so a traced replay can be
/// compared with it digit for digit.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `estimate` that ran a chain; `reached` is `None` for a fixed budget,
    /// else whether the target was met before the budget ran out.
    Estimate {
        vertex: Vertex,
        eq7: String,
        corrected: String,
        iterations: u64,
        passes: u64,
        reached: Option<bool>,
    },
    /// `estimate` answered in closed form (a pruned probe).
    ClosedForm { vertex: Vertex, bc: String },
    /// Fixed-budget `rank`, rows in printed order.
    Ranking { reference: Vertex, iterations: u64, rows: Vec<(Vertex, String)> },
    /// Adaptive `rank`, rows in printed order.
    Scheduled { budget: u64, spent: u64, rounds: u64, rows: Vec<ScheduledRow> },
}

/// One probe of an adaptive `rank`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledRow {
    pub vertex: Vertex,
    /// `bc_corrected`.
    pub bc: String,
    /// Confidence half-width.
    pub halfwidth: String,
    /// Iterations the scheduler granted.
    pub iters: u64,
    /// Whether the budget ran out before the target.
    pub cut: bool,
}

/// Everything read from an operation's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Printed {
    /// `--preprocess auto`'s decision: `Some(true)` when it kept the
    /// reduction.
    pub kept: Option<bool>,
    pub answer: Answer,
}

/// Reads an operation's printed lines.
pub fn parse_output(lines: &[String]) -> Result<Printed, String> {
    let (mut kept, mut estimate, mut stats, mut reached) = (None, None, None, None);
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("preprocess auto: kept") {
            kept = Some(true);
        } else if line.starts_with("preprocess auto: discarded") {
            kept = Some(false);
        } else if let Some(rest) = line.strip_prefix("BC(") {
            let (v, rest) = rest.split_once(')').ok_or_else(|| malformed(line))?;
            let vertex = number(v, line)?;
            if let Some(rest) = rest.strip_prefix(" = ") {
                let answer = Answer::ClosedForm { vertex, bc: first_word(rest, line)? };
                return Ok(Printed { kept, answer });
            }
            let (eq7, corrected) = rest
                .strip_prefix(" ~ ")
                .and_then(|r| r.split_once(" (Eq 7) | "))
                .ok_or_else(|| malformed(line))?;
            estimate = Some((vertex, eq7.to_string(), first_word(corrected, line)?));
        } else if line.starts_with("iterations ") {
            let field = |key: &str| {
                line.split(" | ").find_map(|p| p.strip_prefix(key)).ok_or_else(|| malformed(line))
            };
            stats =
                Some((number(field("iterations ")?, line)?, number(field("SPD passes ")?, line)?));
        } else if line.starts_with("plan vs actual:") {
            reached = Some(line.contains("(target reached)"));
        } else if let Some(rest) = line.strip_prefix("ranking by betweenness ratio vs vertex ") {
            let (v, rest) = rest.split_once(" (").ok_or_else(|| malformed(line))?;
            let iterations = rest.strip_suffix(" iterations):").ok_or_else(|| malformed(line))?;
            let rows = lines[i + 1..].iter().map(|l| ratio_row(l)).collect::<Result<_, _>>()?;
            let answer = Answer::Ranking {
                reference: number(v, line)?,
                iterations: number(iterations, line)?,
                rows,
            };
            return Ok(Printed { kept, answer });
        } else if let Some(rest) = line.strip_prefix("adaptive ranking by estimated BC (") {
            let parts: Vec<&str> = rest.split(", ").collect();
            let field = |key: &str| {
                parts.iter().find_map(|p| p.strip_prefix(key)).ok_or_else(|| malformed(line))
            };
            let rounds = parts
                .last()
                .and_then(|p| p.strip_suffix(" scheduling rounds):"))
                .ok_or_else(|| malformed(line))?;
            let rows = lines[i + 1..].iter().map(|l| scheduled_row(l)).collect::<Result<_, _>>()?;
            let answer = Answer::Scheduled {
                budget: number(field("budget ")?, line)?,
                spent: number(field("spent ")?, line)?,
                rounds: number(rounds, line)?,
                rows,
            };
            return Ok(Printed { kept, answer });
        }
    }
    match (estimate, stats) {
        (Some((vertex, eq7, corrected)), Some((iterations, passes))) => Ok(Printed {
            kept,
            answer: Answer::Estimate { vertex, eq7, corrected, iterations, passes, reached },
        }),
        _ => Err(format!("no answer in the output {lines:?}")),
    }
}

fn malformed(line: &str) -> String {
    format!("unexpected output line `{line}`")
}

fn number<T: FromStr>(s: &str, line: &str) -> Result<T, String> {
    s.trim().parse().map_err(|_| malformed(line))
}

fn first_word(s: &str, line: &str) -> Result<String, String> {
    s.split_whitespace().next().map(str::to_string).ok_or_else(|| malformed(line))
}

/// `{vertex}  ratio {ratio}`.
fn ratio_row(line: &str) -> Result<(Vertex, String), String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        [v, "ratio", x] => Ok((number(v, line)?, x.to_string())),
        _ => Err(malformed(line)),
    }
}

/// `{vertex}  BC ~ {bc} +- {halfwidth}  ({iters} iters[, budget cut])`.
fn scheduled_row(line: &str) -> Result<ScheduledRow, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        [v, "BC", "~", bc, "+-", halfwidth, iters, ..] => Ok(ScheduledRow {
            vertex: number(v, line)?,
            bc: bc.to_string(),
            halfwidth: halfwidth.to_string(),
            iters: number(iters.trim_start_matches('('), line)?,
            cut: line.ends_with(", budget cut)"),
        }),
        _ => Err(malformed(line)),
    }
}

/// Checks a printed answer against what the operation asked for and, where
/// `input` carries exact betweenness, against exact Brandes. A run that
/// stops at its budget ("budget exhausted") is an answer, not a failure.
pub fn check(printed: &Printed, expect: &Expect, input: &GraphInput) -> Result<(), String> {
    match (expect, &printed.answer) {
        (
            Expect::Estimate { vertex, budget, adaptive },
            Answer::Estimate { vertex: v, eq7, corrected, iterations, passes, reached },
        ) if v == vertex => {
            unit_interval(eq7)?;
            let bc = unit_interval(corrected)?;
            let consistent = match (adaptive, reached) {
                (false, None) | (true, Some(false)) => iterations == budget,
                (true, Some(true)) => (1..=*budget).contains(iterations),
                _ => false,
            };
            if !consistent {
                return Err(format!(
                    "{iterations} iterations (target reached: {reached:?}) contradict a budget \
                     of {budget}"
                ));
            }
            if *passes == 0 || *passes > iterations + 1 {
                return Err(format!("{passes} SPD passes for {iterations} iterations"));
            }
            near_exact(input, *vertex, bc)
        }
        (Expect::Estimate { vertex, .. }, Answer::ClosedForm { vertex: v, bc }) if v == vertex => {
            near_exact(input, *vertex, unit_interval(bc)?)
        }
        (Expect::Rank { vertices, budget }, Answer::Ranking { reference, iterations, rows }) => {
            if *reference != vertices[0] || iterations != budget {
                return Err(format!(
                    "ranked against {reference} over {iterations} iterations, asked for {} \
                     over {budget}",
                    vertices[0]
                ));
            }
            same_vertices(rows.iter().map(|r| r.0), vertices)?;
            let mut previous = f64::INFINITY;
            for (v, x) in rows {
                let ratio: f64 = number(x, x)?;
                if !(ratio >= 0.0 && ratio.is_finite() && ratio <= previous) {
                    return Err(format!(
                        "ratio {x} of vertex {v} is not finite, non-negative and descending"
                    ));
                }
                previous = ratio;
                if let Some(e0) = input.exact_of(vertices[0]) {
                    near_exact(input, *v, ratio * e0)?;
                }
            }
            Ok(())
        }
        (
            Expect::AdaptiveRank { vertices, budget, segment },
            Answer::Scheduled { budget: total, spent, rounds, rows },
        ) => {
            let asked = budget * vertices.len() as u64;
            if *total != asked || *spent > asked + segment || *rounds == 0 {
                return Err(format!(
                    "budget {total}, spent {spent} in {rounds} rounds, for a budget of {asked}"
                ));
            }
            same_vertices(rows.iter().map(|r| r.vertex), vertices)?;
            if rows.iter().map(|r| r.iters).sum::<u64>() != *spent {
                return Err(format!("per-probe iterations do not add up to {spent}"));
            }
            let mut previous = f64::INFINITY;
            for row in rows {
                let bc = unit_interval(&row.bc)?;
                let halfwidth: f64 = number(&row.halfwidth, &row.halfwidth)?;
                if bc > previous || halfwidth.is_nan() || halfwidth < 0.0 {
                    return Err(format!("row {row:?} is out of order or has no interval"));
                }
                previous = bc;
                near_exact(input, row.vertex, bc)?;
            }
            Ok(())
        }
        (expect, answer) => Err(format!("asked for {expect:?}, printed {answer:?}")),
    }
}

fn unit_interval(s: &str) -> Result<f64, String> {
    let x: f64 = number(s, s)?;
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(format!("estimate {s} is outside [0, 1]"))
    }
}

/// Checks `x` against the exact betweenness of `v`, when the input has it.
fn near_exact(input: &GraphInput, v: Vertex, x: f64) -> Result<(), String> {
    let hub = input.exact.iter().copied().fold(0.0, f64::max);
    match input.exact_of(v) {
        Some(e) if (x - e).abs() > EXACT_REL * e + EXACT_ABS * hub => Err(format!(
            "{x} for vertex {v} misses exact Brandes {e} by more than {EXACT_REL} x exact + \
             {EXACT_ABS} x {hub}"
        )),
        _ => Ok(()),
    }
}

fn same_vertices(printed: impl Iterator<Item = Vertex>, asked: &[Vertex]) -> Result<(), String> {
    let mut printed: Vec<Vertex> = printed.collect();
    let mut asked = asked.to_vec();
    printed.sort_unstable();
    asked.sort_unstable();
    if printed == asked {
        Ok(())
    } else {
        Err(format!("printed vertices {printed:?}, asked for {asked:?}"))
    }
}
