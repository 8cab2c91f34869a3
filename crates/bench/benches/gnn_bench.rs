//! Criterion micro-benchmarks for the GNN encoder: forward passes
//! (agnostic + aware) and training steps — the kernels behind Fig. 9b's
//! pre-training cost curve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use streamtune_dataflow::FeatureEncoder;
use streamtune_nn::{GnnConfig, GnnEncoder, GraphSample};
use streamtune_workloads::{nexmark, pqp, rates::Engine};

fn samples() -> Vec<GraphSample> {
    let enc = FeatureEncoder::default();
    let mut out = Vec::new();
    for w in nexmark::all(Engine::Flink)
        .into_iter()
        .chain(pqp::two_way_join_queries().into_iter().take(3))
    {
        let n = w.flow.num_ops();
        out.push(GraphSample::from_dataflow(
            &w.flow,
            &enc,
            &vec![4; n],
            &vec![0.0; n],
        ));
    }
    out
}

fn bench_forward(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let encoder = GnnEncoder::new(GnnConfig::default(), &mut rng);
    let batch = samples();
    c.bench_function("gnn_embed_agnostic_batch", |b| {
        b.iter(|| {
            for s in &batch {
                black_box(encoder.embed_agnostic(s));
            }
        })
    });
    c.bench_function("gnn_predict_bottleneck_batch", |b| {
        b.iter(|| {
            for s in &batch {
                black_box(encoder.predict_bottleneck(s));
            }
        })
    });
}

fn bench_train(c: &mut Criterion) {
    let batch = samples();
    let mut group = c.benchmark_group("gnn_train");
    group.sample_size(10);
    group.bench_function("train_step_batch", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut encoder = GnnEncoder::new(GnnConfig::default(), &mut rng);
        b.iter(|| black_box(encoder.train_step(&batch)))
    });
    group.finish();
}

/// Dense n×n matmul vs CSR spmm message passing, forward and backward —
/// the two paths are bit-identical (parity-tested). The dense arm also
/// densifies both CSR adjacencies on every pass, since samples carry only
/// the CSR form, so its time is kernel plus densification cost.
fn bench_dense_vs_csr(c: &mut Criterion) {
    let batch = samples();
    let mut group = c.benchmark_group("gnn_messages");
    group.sample_size(10);
    for (name, dense) in [("csr", false), ("dense", true)] {
        let config = GnnConfig {
            dense_messages: dense,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let encoder = GnnEncoder::new(config.clone(), &mut rng);
        group.bench_function(BenchmarkId::new("forward", name), |b| {
            b.iter(|| {
                for s in &batch {
                    black_box(encoder.embed_aware(s));
                }
            })
        });
        group.bench_function(BenchmarkId::new("train", name), |b| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut enc = GnnEncoder::new(config.clone(), &mut rng);
            b.iter(|| black_box(enc.train_step(&batch)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward, bench_train, bench_dense_vs_csr);
criterion_main!(benches);
