//! Fleet transport equivalence (property suite).
//!
//! Shard queues are *pure transport*: their depth may change how often
//! the producer waits, but never which intervals arrive, in what
//! per-tenant order, on which shard, or what any detector decides. This
//! suite drives randomized fleet shapes through several queue depths
//! and asserts:
//!
//! 1. **Summary identity** — every tenant's `SessionSummary` (compared
//!    via its full `Debug` rendering, which covers GPD/LPD phase-change
//!    sequences, stable fractions and region accounting) is
//!    byte-identical at every depth, and every tenant stays on its home
//!    shard.
//! 2. **Counter model** — the lockstep backpressure counters are keyed
//!    to *home* shards: a deeper queue never stalls more, and the
//!    high-water mark never exceeds the depth.
//! 3. **Reference identity** — at any shard count and depth the fleet
//!    reproduces `MonitoringSession::run_limited` exactly.
//!
//! Two test names still carry the batching factor they once varied.

use proptest::prelude::*;

use regmon::{MonitoringSession, SessionConfig};
use regmon_fleet::{run_fleet, FleetConfig, FleetReport, Schedule, TenantSpec};
use regmon_workload::suite;

/// Heterogeneous tenants: workloads cycle through the suite, sampling
/// periods cycle through the paper sweep, and interval budgets are
/// slightly ragged so tenants complete on different rounds.
fn fleet_specs(tenants: usize, intervals: usize) -> Vec<TenantSpec> {
    let names = suite::names();
    (0..tenants)
        .map(|i| {
            let name = names[i % names.len()];
            let period = [45_000u64, 90_000, 450_000][i % 3];
            TenantSpec::new(
                format!("{name}#{i}"),
                suite::by_name(name).unwrap(),
                SessionConfig::new(period),
                intervals + i % 3,
            )
        })
        .collect()
}

/// Everything about a tenant that transport must not perturb,
/// including the shard that owned it.
fn tenant_digest(report: &FleetReport) -> Vec<String> {
    report
        .tenants
        .iter()
        .map(|t| {
            format!(
                "shard={} {:?} produced={} processed={} {:?}",
                t.shard, t.state, t.intervals_produced, t.intervals_processed, t.summary
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lockstep_results_invariant_under_batching_and_stealing(
        tenants in 3usize..9,
        shards in 1usize..5,
        depth in 1usize..7,
        intervals in 4usize..14,
        extra_a in 1usize..9,
        extra_b in 9usize..33,
    ) {
        let specs = fleet_specs(tenants, intervals);
        let baseline = run_fleet(&FleetConfig::new(shards, depth), &specs, &Schedule::new());
        let base_digest = tenant_digest(&baseline);

        let mut shallower = baseline;
        for deeper in [depth + extra_a, depth + extra_b] {
            let variant = run_fleet(&FleetConfig::new(shards, deeper), &specs, &Schedule::new());
            prop_assert_eq!(
                &base_digest,
                &tenant_digest(&variant),
                "summaries diverged at depth={} vs {}",
                deeper, depth
            );
            for (s, v) in shallower.shards.iter().zip(&variant.shards) {
                prop_assert!(
                    v.backpressure_stalls <= s.backpressure_stalls,
                    "depth {} stalled more than a shallower queue on shard {}",
                    deeper, v.shard
                );
                prop_assert!(v.queue_high_water <= deeper);
            }
            shallower = variant;
        }
    }

    #[test]
    fn freerun_block_matches_run_limited_at_any_batch(
        shards in 1usize..5,
        depth in 1usize..33,
    ) {
        let specs = fleet_specs(6, 10);
        let reference: Vec<String> = specs
            .iter()
            .map(|s| {
                format!(
                    "{:?}",
                    MonitoringSession::run_limited(&s.workload, &s.config, s.max_intervals)
                )
            })
            .collect();
        let report = run_fleet(&FleetConfig::new(shards, depth), &specs, &Schedule::new());
        prop_assert_eq!(report.aggregate.completed, specs.len());
        prop_assert_eq!(
            report.aggregate.intervals_processed,
            report.aggregate.intervals_produced
        );
        for (i, expect) in reference.iter().enumerate() {
            let summary = report.tenants[i]
                .summary
                .as_ref()
                .expect("completed tenant has a summary");
            prop_assert_eq!(
                expect,
                &format!("{summary:?}"),
                "tenant {} diverged from run_limited (shards={} depth={})",
                i, shards, depth
            );
        }
    }
}
