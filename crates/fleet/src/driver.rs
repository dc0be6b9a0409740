//! The fleet driver: owns the workloads and samplers, produces interval
//! traffic round-robin across tenants and applies lifecycle schedules.
//!
//! # Lockstep production and determinism
//!
//! Backpressure counters of a free-running producer/consumer pair are
//! inherently timing-dependent: whether a push finds the queue full
//! depends on how far the consumer got. The driver therefore produces in
//! rounds (one interval per running tenant per round) and accounts
//! backpressure against a *model* of each home shard's buffer with the
//! configured depth: a push into a full model buffer counts one stall
//! and empties it (the logical equivalent of the producer waiting for
//! the worker to catch up). The model buffer also empties at the end of
//! every round and when one of the shard's tenants completes. Stalls and
//! high-water marks are thus pure functions of tenant placement, round
//! sizes and queue depth: same inputs, same numbers, every run, every
//! machine.
//!
//! The model holds counts, not intervals: every interval goes to the
//! engine's real (lossless, blocking) shard queue as soon as it is
//! produced, so the shard workers run while the driver generates the
//! rest of the round. Per-tenant interval order is preserved end to end,
//! so every tenant's [`SessionSummary`] is byte-identical to a
//! standalone [`MonitoringSession::run_limited`] run — the fleet
//! equivalence tests assert exactly that, across shard counts and queue
//! depths.
//!
//! [`MonitoringSession::run_limited`]: regmon::MonitoringSession::run_limited
//! [`SessionSummary`]: regmon::SessionSummary

use std::time::Instant;

use regmon_sampling::{Interval, Sampler};
use regmon_telemetry as telemetry;
use regmon_telemetry::journal;

use crate::cpdfeed::CpdFeed;
use crate::engine::{EngineConfig, FleetEngine};
use crate::report::{FleetReport, FleetSnapshot, ShardReport, TenantReport};
use crate::tenant::{EvictReason, TenantId, TenantSpec};

/// Full configuration of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Shard pool and queue parameters.
    pub engine: EngineConfig,
    /// Emit a telemetry exposition to stderr every N driver rounds
    /// (`None` = never). Exposition goes to stderr so `--json` stdout
    /// stays byte-identical.
    pub metrics_every: Option<usize>,
    /// Run the online change-point detector over the run's telemetry
    /// (requires enabled telemetry; see [`crate::CpdFeed`]). The
    /// detections land in [`FleetReport::cpd`].
    ///
    /// [`FleetReport::cpd`]: crate::FleetReport::cpd
    pub cpd: bool,
}

impl FleetConfig {
    /// A fleet with `shards` workers and `queue_depth` buffers.
    #[must_use]
    pub fn new(shards: usize, queue_depth: usize) -> Self {
        Self {
            engine: EngineConfig::new(shards, queue_depth),
            metrics_every: None,
            cpd: false,
        }
    }

    /// Emits a Prometheus exposition to stderr every `rounds` driver
    /// rounds (0 disables).
    #[must_use]
    pub fn with_metrics_every(mut self, rounds: usize) -> Self {
        self.metrics_every = (rounds > 0).then_some(rounds);
        self
    }

    /// Enables the online change-point detector.
    #[must_use]
    pub fn with_cpd(mut self, cpd: bool) -> Self {
        self.cpd = cpd;
        self
    }
}

/// One lifecycle command in a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Stop producing for (and processing of) a tenant.
    Pause(TenantId),
    /// Resume a paused tenant where it left off.
    Resume(TenantId),
    /// Remove a tenant from the fleet.
    Evict(TenantId),
    /// Give a tenant a fresh session and replay its workload from the
    /// start (works on running, completed, evicted and failed tenants).
    Restart(TenantId),
    /// Capture a fleet-wide snapshot into the report.
    Snapshot,
}

/// A deterministic lifecycle script: actions applied at the *start* of
/// given driver rounds (round 0 is before any interval is produced).
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    entries: Vec<(usize, ControlAction)>,
}

impl Schedule {
    /// The empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `action` at the start of `round` (builder style).
    #[must_use]
    pub fn at(mut self, round: usize, action: ControlAction) -> Self {
        self.entries.push((round, action));
        self
    }

    fn max_round(&self) -> Option<usize> {
        self.entries.iter().map(|(r, _)| *r).max()
    }

    fn at_round(&self, round: usize) -> impl Iterator<Item = ControlAction> + '_ {
        self.entries
            .iter()
            .filter(move |(r, _)| *r == round)
            .map(|(_, a)| *a)
    }
}

/// Driver-side view of one tenant.
struct DriverTenant<'a> {
    id: TenantId,
    spec: &'a TenantSpec,
    sampler: Sampler<'a>,
    /// Intervals produced since (re)start.
    produced: usize,
    producing: bool,
    paused: bool,
}

impl<'a> DriverTenant<'a> {
    fn new(id: TenantId, spec: &'a TenantSpec) -> Self {
        Self {
            id,
            spec,
            sampler: Sampler::new(&spec.workload, spec.config.sampling),
            produced: 0,
            producing: true,
            paused: false,
        }
    }

    fn restart(&mut self) {
        self.sampler = Sampler::new(&self.spec.workload, self.spec.config.sampling);
        self.produced = 0;
        self.producing = true;
        self.paused = false;
    }

    fn active(&self) -> bool {
        self.producing && !self.paused
    }
}

/// The deterministic backpressure model of one home shard's buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Lockstep {
    /// Intervals in the model buffer.
    occupancy: usize,
    stalls: usize,
    high_water: usize,
}

impl Lockstep {
    /// Accounts one interval pushed into a buffer of `depth`: a full
    /// buffer counts one stall and empties first.
    fn push(&mut self, shard: usize, depth: usize) {
        if self.occupancy >= depth {
            self.stalls = self.stalls.saturating_add(1);
            journal::record(journal::EventKind::Backpressure {
                shard: shard as u64,
                units: 1,
            });
            self.occupancy = 0;
        }
        self.occupancy += 1;
        self.high_water = self.high_water.max(self.occupancy);
    }
}

/// Runs a whole fleet to completion and reports.
///
/// Tenants are admitted in spec order, receiving dense ids `0..n`; a
/// tenant's home shard is `id % shards`. The run ends when no tenant is
/// producing and the schedule has no future entries.
///
/// # Panics
///
/// Panics on an invalid configuration (zero shards / queue depth) or if
/// a shard worker dies, which the quarantine design rules out for
/// tenant-level failures.
#[must_use]
pub fn run_fleet(config: &FleetConfig, specs: &[TenantSpec], schedule: &Schedule) -> FleetReport {
    let start = Instant::now();
    let shards = config.engine.shards;
    let depth = config.engine.queue_depth;
    // Virtual clock: journal timestamps are the deterministic round
    // index, so enabling telemetry cannot perturb `fleet --json`.
    telemetry::clock::set_mode(telemetry::clock::ClockMode::Lockstep);
    telemetry::metrics::FLEET_TENANTS.set(specs.len() as i64);
    let mut engine = FleetEngine::new(config.engine);
    let mut tenants: Vec<DriverTenant> = specs
        .iter()
        .map(|spec| DriverTenant::new(engine.admit(spec), spec))
        .collect();

    let mut model = vec![Lockstep::default(); shards];
    let mut feed = config.cpd.then(|| CpdFeed::new(shards));
    let mut snapshots: Vec<FleetSnapshot> = Vec::new();
    let max_sched_round = schedule.max_round();

    let mut round = 0usize;
    loop {
        telemetry::clock::set_tick(round as u64);
        for action in schedule.at_round(round) {
            apply_action(action, &mut tenants, &engine, round, &mut snapshots);
        }

        // --- produce one interval for every active tenant --------------
        let mut produced_any = false;
        for tenant in &mut tenants {
            if !tenant.active() {
                continue;
            }
            let home = tenant.id.shard(shards);
            let Some(mut interval) = tenant.sampler.next() else {
                complete_tenant(tenant, &engine, &mut model[home]);
                continue;
            };
            if tenant
                .spec
                .degrade_from
                .is_some_and(|n| interval.index >= n)
            {
                degrade_interval(&mut interval);
            }
            produced_any = true;
            tenant.produced = tenant.produced.saturating_add(1);
            model[home].push(home, depth);
            let _ = engine.offer_interval(tenant.id, interval);
            if tenant.produced >= tenant.spec.max_intervals {
                complete_tenant(tenant, &engine, &mut model[home]);
            }
        }
        for shard in &mut model {
            shard.occupancy = 0;
        }

        // --- change-point feed: catch the workers up, drain, detect ----
        if let Some(feed) = feed.as_mut() {
            engine.drain_barrier();
            let stalls: Vec<u64> = model.iter().map(|s| s.stalls as u64).collect();
            feed.end_round(round as u64, &stalls);
        }

        if telemetry::enabled() {
            if let Some(every) = config.metrics_every {
                if round % every == 0 {
                    eprint!("{}", telemetry::expo::prometheus_text());
                }
            }
        }

        let future_actions = max_sched_round.is_some_and(|m| m > round);
        if !produced_any && !future_actions {
            break;
        }
        round += 1;
    }

    let finals = engine.shutdown();
    // Workers are gone: the final drain below sees every event.
    let cpd = feed.map(CpdFeed::finish);

    let mut tenant_reports: Vec<TenantReport> = Vec::with_capacity(tenants.len());
    for f in &finals {
        for snap in &f.tenants {
            let driver = tenants
                .iter()
                .find(|t| t.id == snap.id)
                .expect("worker reported unknown tenant");
            tenant_reports.push(TenantReport {
                id: snap.id,
                name: snap.name.clone(),
                workload: driver.spec.workload.name().to_string(),
                shard: f.shard,
                state: snap.state.clone(),
                intervals_produced: driver.produced,
                intervals_processed: snap.intervals_processed,
                intervals_ignored: snap.intervals_ignored,
                restarts: snap.restarts,
                summary: snap.summary.clone(),
                error: snap.error.clone(),
            });
        }
    }
    tenant_reports.sort_by_key(|t| t.id);

    let shard_reports: Vec<ShardReport> = finals
        .iter()
        .map(|f| ShardReport {
            shard: f.shard,
            tenants: f.tenants.len(),
            messages_processed: f.messages_processed,
            backpressure_stalls: model[f.shard].stalls,
            queue_high_water: model[f.shard].high_water,
            batch_sizes: f.queue.batch_sizes,
        })
        .collect();

    let aggregate = FleetReport::aggregate_from(&tenant_reports, &shard_reports);
    FleetReport {
        tenants: tenant_reports,
        shards: shard_reports,
        aggregate,
        snapshots,
        cpd,
        wall_ms: start.elapsed().as_millis(),
    }
}

/// Applies the planted regression: shifts every sample PC far outside
/// the synthetic binary's address space, so region formation stops
/// attributing samples and the tenant's UCR steps up. Deterministic and
/// reversible only by re-running without the flag.
fn degrade_interval(interval: &mut Interval) {
    const DEGRADE_BIT: u64 = 1 << 40;
    for s in &mut interval.samples {
        s.addr = regmon_binary::Addr::new(s.addr.get() | DEGRADE_BIT);
    }
}

/// Marks a tenant complete. Its home shard's model buffer empties, as
/// the worker catches up before the Finish lands.
fn complete_tenant(tenant: &mut DriverTenant<'_>, engine: &FleetEngine, home: &mut Lockstep) {
    home.occupancy = 0;
    engine.finish(tenant.id);
    tenant.producing = false;
}

/// Applies one schedule action at the start of a round.
fn apply_action(
    action: ControlAction,
    tenants: &mut [DriverTenant<'_>],
    engine: &FleetEngine,
    round: usize,
    snapshots: &mut Vec<FleetSnapshot>,
) {
    match action {
        ControlAction::Pause(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                engine.pause(id);
                t.paused = true;
            }
        }
        ControlAction::Resume(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                engine.resume(id);
                t.paused = false;
            }
        }
        ControlAction::Evict(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                engine.evict(id, EvictReason::Requested);
                t.producing = false;
            }
        }
        ControlAction::Restart(id) => {
            if let Some(t) = tenants.iter_mut().find(|t| t.id == id) {
                engine.restart(id);
                t.restart();
            }
        }
        ControlAction::Snapshot => snapshots.push(FleetSnapshot {
            round,
            shards: engine.snapshot(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantState;
    use regmon::SessionConfig;
    use regmon_workload::suite;

    fn specs(n: usize, intervals: usize) -> Vec<TenantSpec> {
        let names = suite::names();
        (0..n)
            .map(|i| {
                let name = names[i % names.len()];
                TenantSpec::new(
                    format!("{name}#{i}"),
                    suite::by_name(name).unwrap(),
                    SessionConfig::new(45_000),
                    intervals,
                )
            })
            .collect()
    }

    /// The model's stalls for `tenants` tenants on one shard running
    /// `intervals` rounds into a buffer of `depth`: every full round
    /// overflows `ceil(tenants / depth) - 1` times, and the last round
    /// never does, because each completion empties the buffer.
    fn model_stalls(tenants: usize, intervals: usize, depth: usize) -> usize {
        (intervals - 1) * (tenants.div_ceil(depth) - 1)
    }

    #[test]
    fn lockstep_counters_are_reproducible() {
        let config = FleetConfig::new(3, 4);
        let a = run_fleet(&config, &specs(9, 12), &Schedule::new());
        let b = run_fleet(&config, &specs(9, 12), &Schedule::new());
        assert_eq!(a.tenants.len(), 9);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.backpressure_stalls, y.backpressure_stalls);
            assert_eq!(x.queue_high_water, y.queue_high_water);
            assert_eq!(x.messages_processed, y.messages_processed);
            assert_eq!(x.batch_sizes, y.batch_sizes);
        }
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(
                format!("{:?}", x.summary),
                format!("{:?}", y.summary),
                "tenant {} summaries diverged",
                x.id
            );
        }
    }

    #[test]
    fn block_lockstep_stalls_when_round_exceeds_depth() {
        // 6 tenants on 1 shard with depth 4: every round overflows once.
        let config = FleetConfig::new(1, 4);
        let report = run_fleet(&config, &specs(6, 5), &Schedule::new());
        assert!(report.shards[0].backpressure_stalls > 0);
        assert_eq!(report.aggregate.completed, 6);
        // Lossless: everything produced was processed.
        assert_eq!(
            report.aggregate.intervals_produced,
            report.aggregate.intervals_processed
        );
    }

    /// Formerly the drop-policy counterpart of the test above; a full
    /// model buffer now always stalls, so the body pins that deeper
    /// queues stall less and that no depth loses an interval.
    #[test]
    fn drop_oldest_lockstep_drops_deterministically() {
        let mut last = usize::MAX;
        for depth in [1usize, 2, 4, 8] {
            let report = run_fleet(&FleetConfig::new(1, depth), &specs(6, 5), &Schedule::new());
            let stalls = report.shards[0].backpressure_stalls;
            assert_eq!(stalls, model_stalls(6, 5, depth), "depth {depth}");
            assert!(
                stalls <= last,
                "depth {depth} stalled more than a shallower queue"
            );
            last = stalls;
            assert_eq!(
                report.aggregate.intervals_processed, report.aggregate.intervals_produced,
                "depth {depth} lost intervals"
            );
        }
        assert_eq!(last, 0, "a round that fits the buffer never stalls");
    }

    #[test]
    fn schedule_pause_resume_completes() {
        let config = FleetConfig::new(2, 8);
        let schedule = Schedule::new()
            .at(2, ControlAction::Pause(TenantId(0)))
            .at(5, ControlAction::Resume(TenantId(0)))
            .at(3, ControlAction::Snapshot);
        let report = run_fleet(&config, &specs(4, 8), &schedule);
        assert_eq!(report.aggregate.completed, 4);
        assert_eq!(report.snapshots.len(), 1);
        assert_eq!(report.snapshots[0].round, 3);
        let t0 = report.tenant(TenantId(0)).unwrap();
        assert_eq!(t0.intervals_processed, 8, "paused tenant must finish");
    }

    /// Formerly the cold-tenant policy test; scheduled eviction is the
    /// one eviction path, and it freezes every tenant at exactly the
    /// intervals produced before its round.
    #[test]
    fn cold_tenant_policy_evicts() {
        let schedule = (0..4).fold(Schedule::new(), |s, i| {
            s.at(3, ControlAction::Evict(TenantId(i)))
        });
        let report = run_fleet(&FleetConfig::new(2, 8), &specs(4, 20), &schedule);
        assert_eq!(report.aggregate.evicted, 4);
        for t in &report.tenants {
            assert_eq!(t.state, TenantState::Evicted(EvictReason::Requested));
            assert_eq!(t.intervals_produced, 3);
            assert_eq!(t.summary.as_ref().unwrap().intervals, 3);
        }
    }

    /// Named for the driver batching factor it once varied; the body
    /// varies shard count and queue depth, the dimensions left. The
    /// counters follow the model exactly and the summaries never move.
    #[test]
    fn batching_preserves_lockstep_counters_and_summaries() {
        let baseline = run_fleet(&FleetConfig::new(1, 4), &specs(9, 12), &Schedule::new());
        for (shards, depth) in [(3usize, 2usize), (3, 4), (3, 32), (1, 1)] {
            let variant = run_fleet(
                &FleetConfig::new(shards, depth),
                &specs(9, 12),
                &Schedule::new(),
            );
            let per_shard = 9 / shards;
            for s in &variant.shards {
                let at = format!("shards {shards} depth {depth}");
                assert_eq!(
                    s.backpressure_stalls,
                    model_stalls(per_shard, 12, depth),
                    "{at}"
                );
                assert_eq!(s.queue_high_water, per_shard.min(depth), "{at}");
                // One message per interval plus each tenant's Admit and
                // Finish.
                assert_eq!(s.messages_processed, per_shard * (12 + 2), "{at}");
                assert_eq!(s.batch_sizes[0], per_shard * 12, "{at}");
            }
            for (x, y) in baseline.tenants.iter().zip(&variant.tenants) {
                assert_eq!(
                    format!("{:?}", x.summary),
                    format!("{:?}", y.summary),
                    "tenant {} diverged at shards {shards} depth {depth}",
                    x.id
                );
            }
        }
    }
}
