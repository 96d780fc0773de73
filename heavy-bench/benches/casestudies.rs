//! Criterion benchmarks of the end-to-end case studies at small scale:
//! one sample per variant, sized so the whole suite completes in a few
//! minutes. These exist so `cargo bench --workspace` exercises the full
//! simulator; the figure harnesses in `src/bin/` produce the paper's
//! actual series at realistic scale.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tako_sim::config::SystemConfig;
use tako_workloads::{decompress, hats, nvm, phi, sidechannel};

fn bench_decompress(c: &mut Criterion) {
    let mut g = c.benchmark_group("decompress");
    g.sample_size(10);
    let params = decompress::Params {
        values: 2048,
        accesses: 4096,
        theta: 0.99,
        seed: 1,
    };
    let cfg = SystemConfig::default_16core();
    for v in [decompress::Variant::Software, decompress::Variant::Tako] {
        g.bench_function(v.label(), |b| {
            b.iter(|| black_box(decompress::run(v, params, &cfg)))
        });
    }
    g.finish();
}

fn bench_phi(c: &mut Criterion) {
    let mut g = c.benchmark_group("phi");
    g.sample_size(10);
    let params = phi::Params {
        vertices: 2048,
        edges: 16 * 1024,
        theta: 0.6,
        threads: 4,
        threshold: 3,
        seed: 2,
        ..Default::default()
    };
    let cfg = SystemConfig::default_16core();
    for v in [phi::Variant::Software, phi::Variant::Tako] {
        g.bench_function(v.label(), |b| {
            b.iter(|| black_box(phi::run(v, &params, &cfg)))
        });
    }
    g.finish();
}

fn bench_hats(c: &mut Criterion) {
    let mut g = c.benchmark_group("hats");
    g.sample_size(10);
    let params = hats::Params {
        vertices: 4096,
        edges: 32 * 1024,
        communities: 16,
        p_intra: 0.9,
        block: 16,
        depth_bound: 32,
        seed: 3,
    };
    let cfg = SystemConfig::default_16core();
    for v in [hats::Variant::VertexOrdered, hats::Variant::Tako] {
        g.bench_function(v.label(), |b| {
            b.iter(|| black_box(hats::run(v, &params, &cfg)))
        });
    }
    g.finish();
}

fn bench_nvm(c: &mut Criterion) {
    let mut g = c.benchmark_group("nvm");
    g.sample_size(10);
    let params = nvm::Params {
        txn_bytes: 4096,
        txns: 4,
        seed: 4,
    };
    let cfg = SystemConfig::default_16core();
    for v in [nvm::Variant::Journaling, nvm::Variant::Tako] {
        g.bench_function(v.label(), |b| {
            b.iter(|| black_box(nvm::run(v, params, &cfg)))
        });
    }
    g.finish();
}

fn bench_sidechannel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sidechannel");
    g.sample_size(10);
    let params = sidechannel::Params {
        rounds: 32,
        ..sidechannel::Params::default()
    };
    let cfg = SystemConfig::default_16core();
    g.bench_function("baseline", |b| {
        b.iter(|| {
            black_box(sidechannel::run(
                sidechannel::Variant::Baseline,
                params,
                &cfg,
            ))
        })
    });
    g.bench_function("tako", |b| {
        b.iter(|| {
            black_box(sidechannel::run(sidechannel::Variant::Tako, params, &cfg))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_decompress,
    bench_phi,
    bench_hats,
    bench_nvm,
    bench_sidechannel
);
criterion_main!(benches);
