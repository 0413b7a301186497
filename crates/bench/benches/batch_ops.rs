//! Criterion benchmarks for the batched CLAM pipeline (host CPU time of
//! the simulation; the simulated-latency comparison lives in the
//! `batch_throughput` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bench::{build_clam, workload_key, Medium};

fn bench_batch_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_ops");
    group.sample_size(20);

    group.bench_function("insert_batch_256_intel_ssd", |b| {
        let mut clam = build_clam(Medium::IntelSsd, 16 << 20, 4 << 20);
        let mut i = 0u64;
        b.iter(|| {
            let ops: Vec<(u64, u64)> = (0..256).map(|j| (workload_key(i + j), i + j)).collect();
            i += 256;
            black_box(clam.insert_batch(&ops).unwrap())
        })
    });

    group.bench_function("lookup_batch_256_intel_ssd", |b| {
        let mut clam = build_clam(Medium::IntelSsd, 16 << 20, 4 << 20);
        let load: Vec<(u64, u64)> = (0..100_000u64).map(|i| (workload_key(i), i)).collect();
        for chunk in load.chunks(1024) {
            clam.insert_batch(chunk).unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            let keys: Vec<u64> = (0..256).map(|j| workload_key((i + j) % 100_000)).collect();
            i += 256;
            black_box(clam.lookup_batch(&keys).unwrap().values().len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_batch_ops);
criterion_main!(benches);
