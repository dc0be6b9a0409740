//! Criterion bench of the multi-tenant fleet engine: full fleet runs at
//! several tenant scales (throughput in intervals/sec) and a shard
//! scaling sweep at fixed fleet size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use regmon::workload::suite;
use regmon::SessionConfig;
use regmon_fleet::{run_fleet, FleetConfig, Schedule, TenantSpec};

const INTERVALS: usize = 12;

fn specs(tenants: usize) -> Vec<TenantSpec> {
    let names = suite::names();
    (0..tenants)
        .map(|i| {
            let name = names[i % names.len()];
            TenantSpec::new(
                format!("{name}#{i}"),
                suite::by_name(name).expect("suite name"),
                SessionConfig::new(45_000),
                INTERVALS,
            )
        })
        .collect()
}

fn bench_fleet(c: &mut Criterion) {
    // Fleet size scaling at 4 shards.
    let mut group = c.benchmark_group("fleet_scale");
    for tenants in [8usize, 32, 96] {
        let specs = specs(tenants);
        group.throughput(Throughput::Elements((tenants * INTERVALS) as u64));
        group.bench_with_input(BenchmarkId::new("tenants", tenants), &tenants, |b, _| {
            let config = FleetConfig::new(4, 16);
            b.iter(|| black_box(run_fleet(&config, black_box(&specs), &Schedule::new())));
        });
    }
    group.finish();

    // Shard scaling at a fixed 32-tenant fleet.
    let mut group = c.benchmark_group("fleet_shards");
    let fixed = specs(32);
    for shards in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements((32 * INTERVALS) as u64));
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            let config = FleetConfig::new(shards, 16);
            b.iter(|| black_box(run_fleet(&config, black_box(&fixed), &Schedule::new())));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fleet
}
criterion_main!(benches);
