//! The metric catalogue and the one-line JSON result every run prints.

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("intervals_per_s", "1/s"),
    ("interval_p50_us", "us"),
    ("interval_p99_us", "us"),
    ("setup_s", "s"),
    ("mem_growth_mb", "MiB"),
    ("recover_s", "s"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
/// A layer the workload does not run reads 0 and is named on stderr.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampling.ns_per_interval", "ns"),
    ("regions.attribute_ns_per_interval", "ns"),
    ("regions.ucr_frac", "fraction"),
    ("regions.live_mean", "count"),
    ("regions.form_calls", "count"),
    ("regions.form_ns_per_call", "ns"),
    ("regions.formed", "count"),
    ("regions.pruned", "count"),
    ("regions.prune_ns_per_interval", "ns"),
    ("gpd.observe_ns_per_interval", "ns"),
    ("lpd.observe_ns_per_interval", "ns"),
    ("lpd.phase_changes", "count"),
    ("core.unaccounted_frac", "fraction"),
    ("fleet.driver_gen_share", "fraction"),
    ("fleet.shard_busy_share", "fraction"),
    ("fleet.backpressure_stalls", "count"),
    ("fleet.queue_high_water", "count"),
    ("serve.wire_bytes_per_interval", "B"),
    ("serve.decode_ns_per_interval", "ns"),
    ("serve.durable_share", "fraction"),
    ("serve.durable_bytes_per_interval", "B"),
    ("serve.snapshot_encode_ns", "ns"),
    ("serve.wal_read_ns_per_interval", "ns"),
    ("trace.overhead_frac", "fraction"),
];

/// Interval accounting plus named metric values of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Intervals the run attempted.
    pub attempted: u64,
    /// Intervals that failed: dropped, lost to an error, or belonging
    /// to a program or tenant whose output check failed.
    pub failed: u64,
    /// Problems found by the output checks, one line each.
    pub problems: Vec<String>,
    /// Metrics left out of the result on purpose, with the reason
    /// already printed.
    pub omitted: Vec<&'static str>,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records `value` under the catalogue name `name`.
    ///
    /// # Panics
    ///
    /// On a name outside both catalogues or a non-finite value: both
    /// are bugs in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records a failed output check that costs `intervals` intervals.
    pub fn fail(&mut self, intervals: u64, problem: String) {
        self.failed += intervals;
        self.problems.push(problem);
    }

    /// The value recorded under `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: every metric of `catalogue`, in catalogue order.
    /// Metrics in `omitted` are left out on purpose; any other metric
    /// that was not recorded reads 0 (a layer this workload does not
    /// run), and is returned so the caller can say so.
    #[must_use]
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> (String, Vec<String>) {
        let mut absent = Vec::new();
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            if self.omitted.contains(name) {
                continue;
            }
            let value = self.get(name).unwrap_or_else(|| {
                absent.push((*name).to_string());
                0.0
            });
            // `{value}` prints every digit of a finite f64 and is valid
            // JSON (`set` rejects the non-finite ones).
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        (line, absent)
    }
}

/// Escapes `s` for a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
