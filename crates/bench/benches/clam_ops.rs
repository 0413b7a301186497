//! Criterion benchmarks for end-to-end CLAM operations against the
//! simulated devices (these measure host CPU time of the simulation; the
//! simulated latencies themselves are what the figure binaries report).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bench::{build_clam, run_mixed_workload, workload_key, Medium};

fn bench_clam_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("clam_ops");
    group.sample_size(20);

    group.bench_function("insert_intel_ssd", |b| {
        let mut clam = build_clam(Medium::IntelSsd, 16 << 20, 4 << 20);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(clam.insert(workload_key(i), i).unwrap())
        })
    });

    group.bench_function("lookup_hit_intel_ssd", |b| {
        let mut clam = build_clam(Medium::IntelSsd, 16 << 20, 4 << 20);
        for i in 0..100_000u64 {
            clam.insert(workload_key(i), i).unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            black_box(clam.lookup(workload_key(i)).unwrap().value)
        })
    });

    group.bench_function("mixed_workload_10k_ops", |b| {
        b.iter(|| {
            let mut clam = build_clam(Medium::IntelSsd, 8 << 20, 2 << 20);
            black_box(run_mixed_workload(&mut clam, 10_000, 0.5, 0.4, 1).mean_per_op())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_clam_ops);
criterion_main!(benches);
