//! Criterion benchmarks for the sharded deployment: wall-clock cost of
//! building and driving a write-saturated simulation at different shard
//! counts, plus the per-shard dataset split itself.
//!
//! The interesting *virtual*-time result (committed writes growing
//! near-linearly with shard count) lives in the `sharded_commit`
//! registry scenario; these benches track the *host* cost of the same
//! machinery so regressions in the sharded hot paths (per-shard
//! sequencing, routing, digest stamping) show up in `BENCH_store.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use sdr_core::dataset::DatasetSpec;
use sdr_core::shard::ShardMap;
use sdr_core::{metrics, SystemBuilder, SystemConfig, Workload};
use sdr_sim::SimDuration;
use std::hint::black_box;

fn write_heavy_cfg(n_shards: usize) -> SystemConfig {
    SystemConfig {
        n_shards,
        n_masters: 3,
        n_slaves: 2,
        n_clients: 8,
        max_latency: SimDuration::from_millis(500),
        keepalive_period: SimDuration::from_millis(125),
        double_check_prob: 0.0,
        seed: 4_242,
        ..SystemConfig::default()
    }
}

fn write_heavy_workload() -> Workload {
    Workload {
        reads_per_sec: 1.0,
        writes_per_sec: 30.0,
        writer_fraction: 1.0,
        ..Workload::default()
    }
}

fn bench_shard_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_commit");

    // The routing function itself: pure, hot on every client request.
    let map = ShardMap::new(8, &DatasetSpec::default());
    let mut k = 0u64;
    group.bench_function("route_row", |b| {
        b.iter(|| {
            k += 1;
            black_box(map.shard_of_row(1 + k % 500))
        })
    });

    // Splitting the dataset into all four slices in one generator pass
    // (what `SystemBuilder::build` pays at start-up).
    let spec = DatasetSpec::default();
    let map4 = ShardMap::new(4, &spec);
    group.bench_function("build_shard_slices", |b| {
        b.iter(|| black_box(spec.build_shards(&map4).len()))
    });

    // Full build + 3 s of saturated writes, one queue vs four: the
    // wall-clock cost of the sharded machinery end to end.  (Committed
    // writes per *virtual* second scale with the shard count; see the
    // `sharded_commit` scenario.)
    for n_shards in [1usize, 4] {
        group.bench_function(format!("run_3s_{n_shards}shard"), |b| {
            b.iter(|| {
                let mut sys = SystemBuilder::new(write_heavy_cfg(n_shards))
                    .workload(write_heavy_workload())
                    .build();
                sys.run_for(SimDuration::from_secs(3));
                black_box(sys.world.metrics().counter(metrics::WRITE_COMMITTED))
            })
        });
    }
    group.finish();
}

fn bench_batched_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_commit");

    // Full build + 3 s of saturated writes, unbatched vs batch=8 on a
    // single shard: the host cost of the batched round machinery (one
    // ordered round + one digest stamp per batch).  The *virtual*-time
    // throughput gain lives in the `batched_commit` registry scenario.
    for batch in [1usize, 8] {
        group.bench_function(format!("run_3s_batch{batch}"), |b| {
            b.iter(|| {
                let mut cfg = write_heavy_cfg(1);
                cfg.max_write_batch = batch;
                let mut sys = SystemBuilder::new(cfg)
                    .workload(write_heavy_workload())
                    .build();
                sys.run_for(SimDuration::from_secs(3));
                black_box(sys.world.metrics().counter(metrics::WRITE_COMMITTED))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shard_commit, bench_batched_commit);
criterion_main!(benches);
