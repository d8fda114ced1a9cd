//! Microbenchmarks of the parallel substrate against sequential oracles —
//! the building blocks whose bounds §2.3.2 quotes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parscan_parallel::prefix::exclusive_scan_usize;
use parscan_parallel::radix::par_radix_sort_pairs;
use parscan_parallel::sort::par_sort_unstable_by;
use parscan_parallel::utils::hash64;

const N: usize = 1 << 20;

fn bench_sort(c: &mut Criterion) {
    let data: Vec<u64> = (0..N as u64).map(hash64).collect();
    let mut group = c.benchmark_group("sort");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("par_merge_sort", N), |b| {
        b.iter_batched(
            || data.clone(),
            |mut v| par_sort_unstable_by(&mut v, |a, b| a.cmp(b)),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new("std_sort_unstable", N), |b| {
        b.iter_batched(
            || data.clone(),
            |mut v| v.sort_unstable(),
            criterion::BatchSize::LargeInput,
        )
    });
    let pairs: Vec<(u64, u32)> = (0..N).map(|i| (hash64(i as u64), i as u32)).collect();
    group.bench_function(BenchmarkId::new("par_radix_sort", N), |b| {
        b.iter_batched(
            || pairs.clone(),
            |mut v| par_radix_sort_pairs(&mut v),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let data: Vec<usize> = (0..N).map(|i| i % 7).collect();
    let mut group = c.benchmark_group("prefix_sum");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("parallel", N), |b| {
        b.iter(|| exclusive_scan_usize(std::hint::black_box(&data)))
    });
    group.bench_function(BenchmarkId::new("sequential", N), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            let out: Vec<usize> = data
                .iter()
                .map(|&x| {
                    let r = acc;
                    acc += x;
                    r
                })
                .collect();
            std::hint::black_box(out)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sort, bench_scan);
criterion_main!(benches);
