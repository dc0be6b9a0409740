//! # regmon-fleet — sharded multi-tenant monitoring-session engine
//!
//! The paper's scalability argument (§3.2.3, §5) is that region
//! monitoring is cheap because it runs *off the critical path*, in a
//! separate thread. This crate realizes that as a producer → bounded
//! queue → monitor-worker split and scales it to a **fleet**: hundreds
//! of concurrent [`MonitoringSession`]s (one per simulated
//! tenant/process) multiplexed onto a fixed pool of shard workers.
//! [`run_single`] is the one-process case: a fleet of one.
//!
//! - **Sharding** — a tenant with id `i` is owned by shard
//!   `i % shards` for its whole life; each shard worker single-threadedly owns its
//!   tenants' sessions, so sessions need no locks and the fleet scales
//!   by adding shards.
//! - **Backpressure** — per-shard bounded queues that block a producer
//!   on a full queue (lossless), counting producer stalls and
//!   queue-depth high-water marks.
//! - **Lifecycle** — admit, pause/resume, evict, restart, and panic
//!   **quarantine**: a tenant whose pipeline panics is
//!   isolated and reported; its shard and every other tenant continue.
//! - **Fleet metrics** — per-tenant and rolled-up GPD/LPD phase-change
//!   counts, stable-time fractions and UCR medians, snapshotable
//!   mid-run.
//! - **Determinism** — production runs in lockstep rounds, so every
//!   tenant's summary is byte-identical to a standalone
//!   [`MonitoringSession::run_limited`] run for *any* shard count, and
//!   all backpressure counters are pure functions of the configuration.
//!
//! ## Quickstart
//!
//! ```
//! use regmon::SessionConfig;
//! use regmon_fleet::{run_fleet, FleetConfig, Schedule, TenantSpec};
//! use regmon_workload::suite;
//!
//! let specs: Vec<TenantSpec> = suite::names()
//!     .into_iter()
//!     .take(4)
//!     .map(|name| {
//!         TenantSpec::new(
//!             name,
//!             suite::by_name(name).unwrap(),
//!             SessionConfig::new(45_000),
//!             10,
//!         )
//!     })
//!     .collect();
//! let report = run_fleet(&FleetConfig::new(2, 8), &specs, &Schedule::new());
//! assert_eq!(report.aggregate.completed, 4);
//! println!(
//!     "fleet: {} tenants, {} GPD phase changes, {} stalls",
//!     report.aggregate.tenants,
//!     report.aggregate.gpd_phase_changes,
//!     report.aggregate.backpressure_stalls,
//! );
//! ```
//!
//! [`MonitoringSession`]: regmon::MonitoringSession
//! [`MonitoringSession::run_limited`]: regmon::MonitoringSession::run_limited

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cpdfeed;
mod driver;
mod engine;
mod queue;
mod report;
mod shard;
mod tenant;

pub use cpdfeed::{CpdFeed, CpdReport};
pub use driver::{run_fleet, ControlAction, FleetConfig, Schedule};
pub use engine::{EngineConfig, FleetEngine, ShardHold};
pub use queue::{
    batch_bucket_label, Closed, Droppable, QueueStats, RingQueue, BATCH_BUCKETS, MAX_QUEUE_DEPTH,
};
pub use report::{FleetAggregate, FleetReport, FleetSnapshot, ShardReport, TenantReport};
pub use shard::{ShardFinal, ShardSnapshot, TenantSnapshot};
pub use tenant::{EvictReason, FaultPlan, TenantId, TenantSpec, TenantState};

use regmon::{SessionConfig, SessionSummary};
use regmon_workload::Workload;

/// Statistics of a single-tenant fleet run.
#[derive(Debug, Clone)]
pub struct SingleRun {
    /// The analysis results (identical to a single-threaded run).
    pub summary: SessionSummary,
    /// Producer stall episodes (full queue).
    pub backpressure_stalls: usize,
}

/// Runs one workload as a fleet of one (one tenant, one shard): the
/// sampler on the calling thread, the monitoring pipeline on a shard
/// worker, joined by a bounded queue of `queue_depth` intervals. This
/// is the paper's "monitor on a separate thread" for a single process;
/// the equivalence tests pin it to
/// [`run_limited`](regmon::MonitoringSession::run_limited).
///
/// # Panics
///
/// Panics if `queue_depth == 0`.
#[must_use]
pub fn run_single(
    workload: &Workload,
    config: &SessionConfig,
    max_intervals: usize,
    queue_depth: usize,
) -> SingleRun {
    let spec = TenantSpec::new(
        workload.name(),
        workload.clone(),
        config.clone(),
        max_intervals,
    );
    let fleet = FleetConfig::new(1, queue_depth);
    let report = run_fleet(&fleet, std::slice::from_ref(&spec), &Schedule::new());
    let tenant = report
        .tenants
        .into_iter()
        .next()
        .expect("single-tenant fleet has one tenant");
    SingleRun {
        summary: tenant.summary.expect("single tenant cannot fail"),
        backpressure_stalls: report.shards[0].backpressure_stalls,
    }
}
