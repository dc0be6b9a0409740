//! `session-steady` and `session-churn`: one `MonitoringSession` per
//! program over intervals generated in set-up, and the traced
//! re-composition of `process_interval` from the layer crates.

use std::time::{Duration, Instant};

use regmon::{IntervalOutcome, MonitoringSession, PruningConfig, SessionConfig};
use regmon_binary::Binary;
use regmon_gpd::CentroidDetector;
use regmon_lpd::LpdManager;
use regmon_regions::{Pruner, RegionFormation, RegionMonitor, UcrTracker};
use regmon_sampling::Interval;
use regmon_workload::Workload;

use crate::inputs::{self, Expected};
use crate::measure::{median, range_note, Latencies, MemGrowth, Samples};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Args;

/// One session workload: five programs and an optional pruning policy.
#[derive(Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Suite programs; program `i` is seeded with `seed ^ i`.
    pub programs: [&'static str; 5],
    /// Cold-region pruning.
    pub pruning: Option<PruningConfig>,
}

/// Region index reads dominate: no pruning, few formation calls.
pub const STEADY: Spec = Spec {
    name: "session-steady",
    programs: [
        "176.gcc",
        "197.parser",
        "255.vortex",
        "181.mcf",
        "187.facerec",
    ],
    pruning: None,
};

/// Index writes beside reads: aggressive pruning keeps re-forming regions.
pub const CHURN: Spec = Spec {
    name: "session-churn",
    programs: [
        "186.crafty",
        "176.gcc",
        "301.apsi",
        "187.facerec",
        "254.gap",
    ],
    pruning: Some(PruningConfig {
        cold_intervals: 8,
        min_samples: 4,
    }),
};

/// Intervals generated per program.
pub const INTERVALS_PER_PROGRAM: usize = 600;
/// Latency samples the buffer holds before it has to grow.
const LATENCY_CAPACITY: usize = 1 << 21;
/// Spans the traced run keeps for its trace file.
pub const SPAN_CAPACITY: usize = 40_000;
/// `core.unaccounted_frac` beyond this share (either sign) is flagged.
pub const UNACCOUNTED_TOLERANCE: f64 = 0.10;

/// The session configuration of `spec`: program defaults plus pruning.
#[must_use]
pub fn config(spec: &Spec) -> SessionConfig {
    let mut config = SessionConfig::new(inputs::PERIOD);
    config.pruning = spec.pruning;
    config
}

/// A program with its generated intervals.
#[derive(Debug)]
pub struct Program {
    /// Reporting label.
    pub label: String,
    /// The seeded model.
    pub workload: Workload,
    /// Its first intervals.
    pub intervals: Vec<Interval>,
}

/// Builds every program of `spec` and generates its intervals.
#[must_use]
pub fn generate(spec: &Spec, seed: u64, per_program: usize) -> Vec<Program> {
    let config = config(spec);
    spec.programs
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let workload = inputs::program(name, seed, i);
            Program {
                label: inputs::label(name, i),
                intervals: inputs::intervals(&workload, &config, per_program),
                workload,
            }
        })
        .collect()
}

/// Runs a session workload: untraced end-to-end metrics, or with
/// `--trace 1` the per-layer metrics of the re-composed pipeline.
pub fn run(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let config = config(spec);
    let generate = || generate(spec, args.seed, INTERVALS_PER_PROGRAM);
    let mut setup = Samples::default();
    let mut programs = setup.time(generate);
    let per_pass: usize = programs.iter().map(|p| p.intervals.len()).sum();
    if args.trace {
        report.set(
            "sampling.ns_per_interval",
            setup.median() * 1e9 / per_pass as f64,
        );
        return traced(spec, args, &programs, &config, report);
    }

    let dir = args.scratch.join("checkpoints");
    let mut checkpoints = Vec::new();
    let mut latencies = Latencies::with_capacity(LATENCY_CAPACITY);
    let mut rates = Vec::new();
    let mut restore = Samples::default();
    let mut bad_restores = Vec::new();
    let mut passes: Vec<Vec<Result<u64, String>>> = Vec::new();
    let mut mem = MemGrowth::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // At least two passes: the second writes the checkpoints that
    // recovery restores.
    while passes.len() < 2 || start.elapsed() < seconds {
        let (rate, sessions) = mem.time(|| {
            let pass_start = Instant::now();
            let sessions: Vec<_> = programs
                .iter()
                .map(|p| inputs::standalone(&p.workload, &config, &p.intervals, &mut latencies))
                .collect();
            (
                per_pass as f64 / pass_start.elapsed().as_secs_f64(),
                sessions,
            )
        });
        rates.push(rate);
        latencies.end_unit();
        let mut digests = Vec::with_capacity(programs.len());
        for (i, (p, session)) in programs.iter().zip(&sessions).enumerate() {
            digests.push(Ok(inputs::digest(&session.summary(p.workload.name()))));
            if passes.len() == 1 {
                checkpoints.push(inputs::checkpoint(&dir, i, &p.workload, session)?);
            }
        }
        drop(sessions);
        passes.push(digests);
        // One recovery and one fresh set-up between passes, outside the
        // timed passes: spread over the run, their medians see the same
        // host drift as the passes do. The old inputs go first: set-up
        // never runs beside a second copy.
        if !checkpoints.is_empty() {
            let (secs, bad) = inputs::restore_once(&checkpoints);
            restore.push(secs);
            bad_restores.extend(bad);
        }
        drop(programs);
        programs = setup.time(generate);
    }
    crate::record_mem(report, &mem);

    report.attempted = (passes.len() * per_pass) as u64;
    report.set("intervals_per_s", median(&rates));
    let (p50, p99, beyond) = latencies.p50_p99_us();
    report.set("interval_p50_us", p50);
    report.set("interval_p99_us", p99);
    report.set("setup_s", setup.median());
    report.set("recover_s", restore.median());
    eprintln!(
        "{}: {} passes of {per_pass} intervals, intervals/s {}; {} latency samples, {beyond} \
         above p99",
        spec.name,
        passes.len(),
        range_note(&rates),
        latencies.len()
    );

    // Output checks against standalone sessions, outside the timed phase.
    let mut unused = Latencies::with_capacity(0);
    let expected: Vec<Expected> = programs
        .iter()
        .map(|p| {
            let session = inputs::standalone(&p.workload, &config, &p.intervals, &mut unused);
            Expected {
                label: p.label.clone(),
                intervals: p.intervals.len() as u64,
                digest: inputs::digest(&session.summary(p.workload.name())),
            }
        })
        .collect();
    inputs::check_runs(spec.name, args.seed, &expected, &passes, report);
    inputs::fail_restores(
        &checkpoints,
        &bad_restores,
        INTERVALS_PER_PROGRAM as u64,
        report,
    );
    Ok(())
}

/// Runs `process_interval` and the re-composed pipeline side by side on
/// every interval until `--seconds` pass, checking that both produce
/// the same `IntervalOutcome`.
fn traced(
    spec: &Spec,
    args: &Args,
    programs: &[Program],
    config: &SessionConfig,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::new(SPAN_CAPACITY);
    let mut totals = LayerTotals::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while totals.passes == 0 || start.elapsed() < seconds {
        for (i, p) in programs.iter().enumerate() {
            lockstep(
                i,
                &p.workload,
                config,
                &p.intervals,
                &mut totals,
                &mut tracer,
            );
        }
        totals.passes += 1;
    }
    totals.finish(spec.name, report);
    crate::write_trace(args, &tracer)?;
    Ok(())
}

/// Work and time summed over the intervals of a traced pass.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Complete passes over the inputs (counts are reported per pass).
    pub passes: usize,
    intervals: u64,
    untraced_ns: u64,
    traced_ns: u64,
    attribute_ns: u64,
    ucr_ns: u64,
    form_ns: u64,
    form_calls: u64,
    gpd_ns: u64,
    lpd_ns: u64,
    prune_ns: u64,
    live_sum: u64,
    ucr_sum: f64,
    formed: u64,
    pruned: u64,
    phase_changes: u64,
    mismatches: u64,
}

impl LayerTotals {
    /// Time the untraced `process_interval` calls took, in seconds.
    #[must_use]
    pub fn untraced_secs(&self) -> f64 {
        self.untraced_ns as f64 / 1e9
    }

    /// Records the per-layer metrics and the reconciliation.
    pub fn finish(&self, workload: &str, report: &mut Report) {
        let n = self.intervals.max(1) as f64;
        let passes = self.passes.max(1) as f64;
        let layer_ns = self.attribute_ns
            + self.ucr_ns
            + self.form_ns
            + self.gpd_ns
            + self.lpd_ns
            + self.prune_ns;
        let untraced = self.untraced_ns.max(1) as f64;
        let unaccounted = (untraced - layer_ns as f64) / untraced;
        report.set(
            "regions.attribute_ns_per_interval",
            self.attribute_ns as f64 / n,
        );
        report.set("regions.ucr_frac", self.ucr_sum / n);
        report.set("regions.live_mean", self.live_sum as f64 / n);
        report.set("regions.form_calls", self.form_calls as f64 / passes);
        report.set(
            "regions.form_ns_per_call",
            self.form_ns as f64 / self.form_calls.max(1) as f64,
        );
        report.set("regions.formed", self.formed as f64 / passes);
        report.set("regions.pruned", self.pruned as f64 / passes);
        report.set("regions.prune_ns_per_interval", self.prune_ns as f64 / n);
        report.set("gpd.observe_ns_per_interval", self.gpd_ns as f64 / n);
        report.set("lpd.observe_ns_per_interval", self.lpd_ns as f64 / n);
        report.set("lpd.phase_changes", self.phase_changes as f64 / passes);
        report.set("core.unaccounted_frac", unaccounted);
        report.set(
            "trace.overhead_frac",
            self.traced_ns as f64 / untraced - 1.0,
        );
        report.attempted += self.intervals;
        if self.mismatches > 0 {
            report.fail(
                self.mismatches,
                format!(
                    "{workload}: {} re-composed intervals differ from process_interval",
                    self.mismatches
                ),
            );
        }
        let flag = if unaccounted.abs() > UNACCOUNTED_TOLERANCE {
            format!(" FLAGGED: beyond the {UNACCOUNTED_TOLERANCE} tolerance")
        } else {
            String::new()
        };
        eprintln!(
            "{workload}: {} traced intervals over {} passes; layers {:.1} of {:.1} us per interval \
             (core.unaccounted_frac {unaccounted:.4}){flag}",
            self.intervals,
            self.passes,
            layer_ns as f64 / n / 1e3,
            untraced / n / 1e3,
        );
    }
}

/// Feeds `intervals` to a `MonitoringSession` and to the re-composed
/// pipeline, one interval at a time, alternating which goes first.
/// Returns the session.
pub fn lockstep(
    tenant: usize,
    workload: &Workload,
    config: &SessionConfig,
    intervals: &[Interval],
    totals: &mut LayerTotals,
    tracer: &mut Tracer,
) -> MonitoringSession {
    let mut session = MonitoringSession::new(config.clone());
    session.attach_binary(workload);
    let mut parts = Recomposed::new(config, workload.binary().clone());
    for (k, interval) in intervals.iter().enumerate() {
        let mut untraced_ns = 0;
        let mut untraced = || {
            let t = Instant::now();
            let out = session.process_interval(interval);
            untraced_ns = t.elapsed().as_nanos() as u64;
            out
        };
        let (expected, got) = if k % 2 == 0 {
            let expected = untraced();
            (expected, parts.step(interval, totals, tracer, tenant))
        } else {
            let got = parts.step(interval, totals, tracer, tenant);
            (untraced(), got)
        };
        totals.untraced_ns += untraced_ns;
        if expected != got {
            totals.mismatches += 1;
        }
        totals.intervals += 1;
        totals.live_sum += parts.monitor.len() as u64;
        totals.ucr_sum += got.ucr_fraction;
    }
    let summary = session.summary(workload.name());
    totals.formed += summary.regions_formed as u64;
    totals.pruned += summary.regions_pruned as u64;
    totals.phase_changes += summary.lpd_total_phase_changes() as u64;
    session
}

/// `MonitoringSession::process_interval` re-composed from the public
/// layer APIs, in the same order, with a span around each layer.
#[derive(Debug)]
pub struct Recomposed {
    monitor: RegionMonitor,
    formation: RegionFormation,
    gpd: CentroidDetector,
    lpd: LpdManager,
    ucr: UcrTracker,
    pruner: Option<Pruner>,
    binary: Binary,
}

impl Recomposed {
    /// An empty pipeline for `config` over `binary`.
    #[must_use]
    pub fn new(config: &SessionConfig, binary: Binary) -> Self {
        Self {
            monitor: RegionMonitor::new(config.index),
            formation: RegionFormation::new(config.formation),
            gpd: CentroidDetector::new(config.gpd),
            lpd: LpdManager::new(config.lpd),
            ucr: UcrTracker::new(),
            pruner: config
                .pruning
                .map(|p| Pruner::new(p.cold_intervals, p.min_samples)),
            binary,
        }
    }

    /// Processes one interval: attribute, UCR, form, GPD observe, LPD
    /// observe, prune.
    pub fn step(
        &mut self,
        interval: &Interval,
        totals: &mut LayerTotals,
        tracer: &mut Tracer,
        tenant: usize,
    ) -> IntervalOutcome {
        let outer = Instant::now();
        let root = tracer.open("interval", None, tenant, Some(interval.index));
        let t0 = Instant::now();
        self.monitor.attribute(&interval.samples);
        let t1 = Instant::now();
        let ucr_fraction = self.monitor.report().ucr_fraction();
        self.ucr.record(ucr_fraction);
        let t2 = Instant::now();
        let formed = self.formation.should_trigger(ucr_fraction);
        let new_regions = if formed {
            let unattributed = self.monitor.take_unattributed();
            let outcome = self.formation.form(
                &self.binary,
                &unattributed,
                &mut self.monitor,
                interval.index,
            );
            self.monitor.restore_unattributed(unattributed);
            outcome.new_regions
        } else {
            Vec::new()
        };
        let t3 = Instant::now();
        let gpd = self.gpd.observe(&interval.samples);
        let t4 = Instant::now();
        let lpd = {
            let report = self.monitor.report();
            self.lpd.observe_interval(&self.monitor, &report)
        };
        let t5 = Instant::now();
        let pruned_regions = match &mut self.pruner {
            Some(pruner) => {
                let evicted = {
                    let report = self.monitor.report();
                    pruner.plan(&report, &self.monitor)
                };
                for &id in &evicted {
                    self.monitor.remove_region(id);
                }
                evicted
            }
            None => Vec::new(),
        };
        let t6 = Instant::now();

        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        totals.attribute_ns += ns(t0, t1);
        totals.ucr_ns += ns(t1, t2);
        totals.form_ns += ns(t2, t3);
        totals.form_calls += u64::from(formed);
        totals.gpd_ns += ns(t3, t4);
        totals.lpd_ns += ns(t4, t5);
        totals.prune_ns += ns(t5, t6);
        let at = Some(interval.index);
        if root.is_some() {
            tracer.record("attribute", (t0, t1), root, tenant, at);
            tracer.record("ucr", (t1, t2), root, tenant, at);
            if formed {
                tracer.record("form", (t2, t3), root, tenant, at);
            }
            tracer.record("gpd.observe", (t3, t4), root, tenant, at);
            tracer.record("lpd.observe_interval", (t4, t5), root, tenant, at);
            if self.pruner.is_some() {
                tracer.record("prune", (t5, t6), root, tenant, at);
            }
        }
        tracer.close(root);
        totals.traced_ns += outer.elapsed().as_nanos() as u64;

        IntervalOutcome {
            index: interval.index,
            gpd,
            lpd,
            ucr_fraction,
            new_regions,
            pruned_regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the traced lockstep over `per_program` intervals of `spec`.
    fn lockstep_totals(spec: &Spec, seed: u64, per_program: usize) -> LayerTotals {
        let config = config(spec);
        let mut totals = LayerTotals::default();
        let mut tracer = Tracer::new(1_000);
        for (i, p) in generate(spec, seed, per_program).iter().enumerate() {
            lockstep(
                i,
                &p.workload,
                &config,
                &p.intervals,
                &mut totals,
                &mut tracer,
            );
        }
        totals
    }

    #[test]
    fn recomposition_equals_process_interval() {
        for spec in [&STEADY, &CHURN] {
            let totals = lockstep_totals(spec, 7, 40);
            assert_eq!(totals.intervals, 200, "{}", spec.name);
            assert_eq!(totals.mismatches, 0, "{}", spec.name);
            assert!(totals.formed > 0, "{}", spec.name);
        }
    }

    #[test]
    fn same_seed_gives_the_same_counts() {
        let counts = |t: &LayerTotals| (t.formed, t.pruned, t.form_calls, t.phase_changes);
        for spec in [&STEADY, &CHURN] {
            let a = lockstep_totals(spec, 3, 40);
            let b = lockstep_totals(spec, 3, 40);
            assert_eq!(counts(&a), counts(&b), "{}", spec.name);
        }
        assert!(
            lockstep_totals(&CHURN, 3, 40).pruned > 0,
            "churn must prune"
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for spec in [&STEADY, &CHURN] {
            let a = generate(spec, 1, 3);
            let b = generate(spec, 2, 3);
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.intervals != y.intervals),
                "{}: a program kept its inputs across seeds",
                spec.name
            );
            assert_eq!(
                a[0].intervals,
                generate(spec, 1, 3)[0].intervals,
                "{}: same seed, different inputs",
                spec.name
            );
        }
    }
}
