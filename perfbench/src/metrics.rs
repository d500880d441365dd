//! Metric names and units, the statistics the runs report, and the result
//! line.

/// A reported metric: name and unit, exactly as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What an untraced run (`--trace 0`) prints.
pub const END_TO_END: &[Metric] = &[
    metric("setup_s", "s"),
    metric("op_s_p50", "s"),
    metric("ops_per_s", "1/s"),
    metric("peak_rss_mb", "MiB"),
    metric("ok_ops_ratio", "ratio"),
];

/// What a traced run (`--trace 1`) prints.
pub const PER_LAYER: &[Metric] = &[
    metric("graph.io.parse_s", "s"),
    metric("graph.io.edges_per_s", "1/s"),
    metric("graph.algo.lcc_s", "s"),
    metric("graph.reduce.build_s", "s"),
    metric("graph.reduce.work_ratio", "ratio"),
    metric("graph.reduce.kept", "ratio"),
    metric("spd.forward_ns_per_pass", "ns"),
    metric("spd.backward_ns_per_pass", "ns"),
    metric("spd.ns_per_edge", "ns"),
    metric("spd.pull_levels_per_pass", "count"),
    metric("spd.working_set_mb", "MiB"),
    metric("spd.view_ns_per_pass", "ns"),
    metric("spd.view_overhead_ratio", "ratio"),
    metric("core.oracle.passes_per_iter", "ratio"),
    metric("core.oracle.hit_rate", "ratio"),
    metric("core.engine.iters", "count"),
    metric("core.engine.segments", "count"),
    metric("core.engine.self_ns_per_iter", "ns"),
    metric("core.engine.target_reached_ratio", "ratio"),
    metric("mcmc.monitor.ns_per_obs", "ns"),
    metric("core.schedule.passes", "count"),
    metric("core.schedule.rounds", "count"),
    metric("core.checkpoint.bytes", "bytes"),
    metric("core.checkpoint.encode_ms", "ms"),
    metric("core.checkpoint.write_ms", "ms"),
    metric("core.pipeline.overlap", "ratio"),
    metric("trace.unaccounted_ratio", "ratio"),
    metric("trace.overhead_ratio", "ratio"),
];

/// A run's result, printed as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(Metric, f64)>,
}

impl Report {
    /// A report holding one value per metric of `table`.
    ///
    /// # Panics
    /// If `values` does not name every metric of `table` exactly once.
    pub fn new(table: &[Metric], attempted: u64, failed: u64, values: &[(&str, f64)]) -> Self {
        assert_eq!(values.len(), table.len(), "one value per metric");
        let values = table
            .iter()
            .map(|m| {
                let (_, v) = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("no value for metric {}", m.name));
                (*m, *v)
            })
            .collect();
        Report { attempted, failed, values }
    }

    /// Whether every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The JSON result line. A non-finite value (a layer the workload never
    /// reached, or a run where every operation failed) prints as 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(m, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median; `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn result_line_has_every_metric_in_table_order() {
        let values: Vec<(&str, f64)> =
            END_TO_END.iter().enumerate().map(|(i, m)| (m.name, i as f64 + 0.5)).collect();
        let report = Report::new(END_TO_END, 3, 0, &values);
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_s_p50\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}, \
             \"peak_rss_mb\": {\"value\": 3.5, \"unit\": \"MiB\"}, \
             \"ok_ops_ratio\": {\"value\": 4.5, \"unit\": \"ratio\"}}}"
        );
        let failed = Report::new(END_TO_END, 3, 1, &values);
        assert!(!failed.correct());
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        let values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, f64::NAN)).collect();
        assert!(Report::new(END_TO_END, 1, 1, &values).to_json().contains("\"value\": 0,"));
    }

    #[test]
    #[should_panic(expected = "no value for metric")]
    fn a_missing_metric_is_a_bug() {
        let mut values: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values[0].0 = "not_a_metric";
        Report::new(END_TO_END, 1, 0, &values);
    }
}
