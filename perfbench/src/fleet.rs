//! `fleet-suite`: `run_fleet` over 64 tenants cycling through the whole
//! suite, with generation inside the program on the driver thread.

use std::time::{Duration, Instant};

use regmon::SessionConfig;
use regmon_fleet::{run_fleet, FleetConfig, FleetReport, Schedule, TenantSpec, TenantState};
use regmon_workload::suite;

use crate::inputs::{self, Expected};
use crate::measure::{median, range_note, Latencies, MemGrowth, Samples};
use crate::report::Report;
use crate::session::{self, LayerTotals};
use crate::trace::Tracer;
use crate::Args;

const NAME: &str = "fleet-suite";
/// Tenants per fleet; tenant `i` runs suite program `i % 23`.
pub const TENANTS: usize = 64;
/// Intervals each tenant produces: small enough that one run, with the
/// reference pass after it, takes about a second, so a run's medians
/// span many fleet runs.
pub const INTERVALS_PER_TENANT: usize = 50;
/// Shard workers (the host has two CPUs).
const SHARDS: usize = 2;
/// Per-shard queue depth.
const QUEUE_DEPTH: usize = 16;
/// Set-ups repeated after each fleet run; `setup_s` is the median of
/// all of them.
const SETUP_REPS_PER_RUN: usize = 5;
/// Checkpoint restores repeated after each fleet run; `recover_s` is
/// the median of all of them.
const RESTORE_REPS_PER_RUN: usize = 5;
/// Latency samples the buffer holds before it has to grow.
const LATENCY_CAPACITY: usize = 1 << 18;

/// The fleet at program defaults: lockstep pacing, Block backpressure,
/// batch 1.
#[must_use]
pub fn fleet_config() -> FleetConfig {
    FleetConfig::new(SHARDS, QUEUE_DEPTH)
}

/// The tenant specs for `seed`.
#[must_use]
pub fn specs(seed: u64, tenants: usize, intervals: usize) -> Vec<TenantSpec> {
    let names = suite::names();
    let config = SessionConfig::new(inputs::PERIOD);
    (0..tenants)
        .map(|i| {
            let name = names[i % names.len()];
            TenantSpec::new(
                inputs::label(name, i),
                inputs::program(name, seed, i),
                config.clone(),
                intervals,
            )
        })
        .collect()
}

/// Each tenant's summary digest, or why it has none.
#[must_use]
pub fn outcomes(report: &FleetReport) -> Vec<Result<u64, String>> {
    report
        .tenants
        .iter()
        .map(|t| match (&t.state, &t.summary) {
            (TenantState::Completed, Some(summary)) => Ok(inputs::digest(summary)),
            (state, _) => Err(format!(
                "tenant ended {} after {} of {} intervals{}",
                state.label(),
                t.intervals_processed,
                t.intervals_produced,
                t.error
                    .as_deref()
                    .map(|e| format!(": {e}"))
                    .unwrap_or_default()
            )),
        })
        .collect()
}

/// Runs the fleet workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let build = || specs(args.seed, TENANTS, INTERVALS_PER_TENANT);
    let mut setup = Samples::default();
    let specs = setup.time(build);
    if args.trace {
        return traced(args, &specs, report);
    }

    let config = fleet_config();
    let per_run = TENANTS * INTERVALS_PER_TENANT;
    // The standalone reference sessions' inputs: the intervals each
    // tenant generates inside the fleet, made once, outside the runs.
    let reference_inputs: Vec<_> = specs
        .iter()
        .map(|s| inputs::intervals(&s.workload, &s.config, s.max_intervals))
        .collect();
    let dir = args.scratch.join("checkpoints");
    let mut latencies = Latencies::with_capacity(LATENCY_CAPACITY);
    let mut expected = Vec::new();
    let mut checkpoints = Vec::new();
    let mut restore = Samples::default();
    let mut bad_restores = Vec::new();
    let mut runs = Vec::new();
    let mut rates = Vec::new();
    let mut mem = MemGrowth::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while runs.is_empty() || start.elapsed() < seconds {
        let (rate, fleet) = mem.time(|| {
            let run_start = Instant::now();
            let fleet = run_fleet(&config, &specs, &Schedule::new());
            (per_run as f64 / run_start.elapsed().as_secs_f64(), fleet)
        });
        rates.push(rate);
        runs.push(outcomes(&fleet));
        drop(fleet);
        // Between fleet runs, outside the timed runs: one pass of the
        // standalone reference sessions, restores of their checkpoints,
        // and set-ups. Spread over the run, their medians see the same
        // host drift as the runs do. The reference sessions'
        // `process_interval` calls give the latency percentiles: the
        // fleet runs sessions inside the program, where single
        // intervals cannot be timed from outside.
        expected.clear();
        for (i, (spec, intervals)) in specs.iter().zip(&reference_inputs).enumerate() {
            let session =
                inputs::standalone(&spec.workload, &spec.config, intervals, &mut latencies);
            expected.push(Expected {
                label: spec.name.clone(),
                intervals: spec.max_intervals as u64,
                digest: inputs::digest(&session.summary(spec.workload.name())),
            });
            if runs.len() == 1 {
                checkpoints.push(inputs::checkpoint(&dir, i, &spec.workload, &session)?);
            }
        }
        latencies.end_unit();
        for _ in 0..RESTORE_REPS_PER_RUN {
            let (secs, bad) = inputs::restore_once(&checkpoints);
            restore.push(secs);
            bad_restores.extend(bad);
        }
        for _ in 0..SETUP_REPS_PER_RUN {
            drop(setup.time(build));
        }
    }
    crate::record_mem(report, &mem);
    report.attempted = (runs.len() * per_run) as u64;
    report.set("intervals_per_s", median(&rates));
    report.set("setup_s", setup.median());
    report.set("recover_s", restore.median());
    let (p50, p99, beyond) = latencies.p50_p99_us();
    report.set("interval_p50_us", p50);
    report.set("interval_p99_us", p99);
    eprintln!(
        "{NAME}: {} fleet runs, intervals/s {}; reference latency over {} samples, {beyond} \
         above p99",
        runs.len(),
        range_note(&rates),
        latencies.len()
    );
    inputs::check_runs(NAME, args.seed, &expected, &runs, report);
    inputs::fail_restores(
        &checkpoints,
        &bad_restores,
        INTERVALS_PER_TENANT as u64,
        report,
    );
    Ok(())
}

/// A generation-only pass and a serial (re-composed, traced) session
/// pass over the same specs, next to one `run_fleet`.
fn traced(args: &Args, specs: &[TenantSpec], report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new(session::SPAN_CAPACITY);
    let generate =
        |spec: &TenantSpec| inputs::intervals(&spec.workload, &spec.config, spec.max_intervals);

    let mut gen_s = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        let start = Instant::now();
        let intervals = generate(spec);
        let end = Instant::now();
        gen_s += end.duration_since(start).as_secs_f64();
        tracer.record("generate", (start, end), None, i, None);
        drop(intervals);
    }

    let mut totals = LayerTotals::default();
    let mut serial = Vec::with_capacity(specs.len());
    let mut expected = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let intervals = generate(spec);
        let session = session::lockstep(
            i,
            &spec.workload,
            &spec.config,
            &intervals,
            &mut totals,
            &mut tracer,
        );
        let digest = inputs::digest(&session.summary(spec.workload.name()));
        serial.push(Ok(digest));
        expected.push(Expected {
            label: spec.name.clone(),
            intervals: spec.max_intervals as u64,
            digest,
        });
    }
    totals.passes = 1;

    let start = Instant::now();
    let fleet = run_fleet(&fleet_config(), specs, &Schedule::new());
    let end = Instant::now();
    tracer.record("run_fleet", (start, end), None, 0, None);
    let wall = end.duration_since(start).as_secs_f64();

    let intervals = (specs.len() * INTERVALS_PER_TENANT) as f64;
    report.set("sampling.ns_per_interval", gen_s * 1e9 / intervals);
    report.set("fleet.driver_gen_share", gen_s / wall);
    report.set(
        "fleet.shard_busy_share",
        totals.untraced_secs() / (SHARDS as f64 * wall),
    );
    report.set(
        "fleet.backpressure_stalls",
        fleet.aggregate.backpressure_stalls as f64,
    );
    report.set(
        "fleet.queue_high_water",
        fleet
            .shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    totals.finish(NAME, report);
    report.attempted += intervals as u64;
    inputs::check_runs(
        NAME,
        args.seed,
        &expected,
        &[serial, outcomes(&fleet)],
        report,
    );
    eprintln!(
        "{NAME}: generation {gen_s:.2} s, serial sessions {:.2} s, fleet wall {wall:.2} s",
        totals.untraced_secs()
    );
    crate::write_trace(args, &tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_tenants_match_standalone_sessions() {
        let specs = specs(5, 4, 12);
        let fleet = run_fleet(&fleet_config(), &specs, &Schedule::new());
        let got = outcomes(&fleet);
        for (spec, got) in specs.iter().zip(got) {
            let session = inputs::standalone(
                &spec.workload,
                &spec.config,
                &inputs::intervals(&spec.workload, &spec.config, spec.max_intervals),
                &mut Latencies::with_capacity(0),
            );
            let want = inputs::digest(&session.summary(spec.workload.name()));
            assert_eq!(got, Ok(want), "{}", spec.name);
        }
    }
}
