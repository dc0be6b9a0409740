//! Fleet-mode demo: a multi-tenant monitoring fleet with lifecycle
//! control, backpressure accounting and a mid-run snapshot.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p regmon-fleet --example fleet_demo
//! ```

use regmon::SessionConfig;
use regmon_fleet::{run_fleet, ControlAction, FleetConfig, Schedule, TenantId, TenantSpec};
use regmon_workload::suite;

fn main() {
    // 24 tenants cycling through the synthetic SPEC-like suite, with
    // heterogeneous sampling periods, over 4 shard workers.
    let names = suite::names();
    let specs: Vec<TenantSpec> = (0..24)
        .map(|i| {
            let name = names[i % names.len()];
            let period = [45_000, 90_000, 450_000][i % 3];
            TenantSpec::new(
                format!("{name}#{i}"),
                suite::by_name(name).expect("suite workload"),
                SessionConfig::new(period),
                40,
            )
        })
        .collect();

    let config = FleetConfig::new(4, 8);

    // A small lifecycle script: pause tenant 3 for a while, evict and
    // later restart tenant 7, and snapshot the fleet mid-run.
    let schedule = Schedule::new()
        .at(5, ControlAction::Pause(TenantId(3)))
        .at(15, ControlAction::Resume(TenantId(3)))
        .at(10, ControlAction::Evict(TenantId(7)))
        .at(20, ControlAction::Restart(TenantId(7)))
        .at(12, ControlAction::Snapshot);

    let report = run_fleet(&config, &specs, &schedule);

    println!("== fleet of {} tenants over {} shards ==", specs.len(), 4);
    println!(
        "completed {}  evicted {}  failed {}  restarts {}",
        report.aggregate.completed,
        report.aggregate.evicted,
        report.aggregate.failed,
        report.aggregate.restarts,
    );
    println!(
        "intervals produced {}  processed {}  stalls {}",
        report.aggregate.intervals_produced,
        report.aggregate.intervals_processed,
        report.aggregate.backpressure_stalls,
    );
    println!(
        "GPD phase changes {}  (mean stable {:.1}%)   LPD phase changes {}  (mean stable {:.1}%)",
        report.aggregate.gpd_phase_changes,
        report.aggregate.gpd_stable_fraction_mean * 100.0,
        report.aggregate.lpd_phase_changes,
        report.aggregate.lpd_stable_fraction_mean * 100.0,
    );
    println!(
        "regions formed {}  pruned {}  mean UCR median {:.3}  wall {} ms",
        report.aggregate.regions_formed,
        report.aggregate.regions_pruned,
        report.aggregate.ucr_median_mean,
        report.wall_ms,
    );

    println!("\nper-shard backpressure:");
    for s in &report.shards {
        println!(
            "  shard {}: {} tenants, {} msgs, stalls {}, high-water {}",
            s.shard, s.tenants, s.messages_processed, s.backpressure_stalls, s.queue_high_water,
        );
    }

    if let Some(snap) = report.snapshots.first() {
        let live: usize = snap.shards.iter().map(|s| s.tenants.len()).sum();
        println!(
            "\nmid-run snapshot at round {}: {} tenants visible",
            snap.round, live
        );
    }

    println!("\nhottest tenants by local phase changes:");
    let mut tenants = report.tenants.clone();
    tenants.sort_by_key(|t| {
        std::cmp::Reverse(
            t.summary
                .as_ref()
                .map_or(0, regmon::SessionSummary::lpd_total_phase_changes),
        )
    });
    for t in tenants.iter().take(5) {
        let s = t.summary.as_ref().expect("summary");
        println!(
            "  {:<16} shard {}  {:>3} lpd changes  {:>2} regions  state {}",
            t.name,
            t.shard,
            s.lpd_total_phase_changes(),
            s.regions_formed,
            t.state.label(),
        );
    }
}
