//! Parity tests for the performance layer: every fast path (CSR sparse
//! message passing, scoped-thread fan-out, the corpus-level GED cache)
//! must produce results identical to its reference path. Speed may change;
//! numbers may not.

use rand::SeedableRng;
use streamtune::cluster::{cluster_dags, ClusterConfig};
use streamtune::core::{Parallelism, PretrainConfig, Pretrainer};
use streamtune::dataflow::{FeatureEncoder, GraphSignature};
use streamtune::ged::GraphView;
use streamtune::nn::{adjacency_matrices, CsrAdj, GnnConfig, GnnEncoder, GraphSample};
use streamtune::prelude::*;
use streamtune::workloads::history::{ExecutionRecord, HistoryGenerator};

fn corpus(seed: u64, jobs: usize) -> Vec<ExecutionRecord> {
    let cluster = SimCluster::flink_defaults(seed);
    HistoryGenerator::new(seed)
        .with_jobs(jobs)
        .with_runs_per_job(2)
        .generate(&cluster)
}

fn max_abs_diff(a: &streamtune::nn::Matrix, b: &streamtune::nn::Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn sample_csr_equals_the_dense_adjacency_on_every_corpus_dag() {
    // Samples build their CSR straight from the pred/succ lists; it must
    // equal the CSR of the dense reference matrices on every Nexmark, PQP
    // and random Fig. 5 DAG of a full history pool.
    let generator = HistoryGenerator::new(23).with_jobs(400);
    let pool = generator.job_pool();
    assert!(pool.iter().any(|w| w.name.starts_with("hist-")));
    let features = FeatureEncoder::default();
    for w in &pool {
        let n = w.flow.num_ops();
        let sample = GraphSample::from_dataflow(&w.flow, &features, &vec![1; n], &vec![-1.0; n]);
        let (a_in, a_out) = adjacency_matrices(&w.flow);
        assert_eq!(sample.csr_in, CsrAdj::from_dense(&a_in), "{}", w.name);
        assert_eq!(sample.csr_out, CsrAdj::from_dense(&a_out), "{}", w.name);
    }
}

#[test]
fn dense_and_csr_message_passing_agree_within_1e12() {
    // Same seed → same initial weights; the dense n×n matmul path and the
    // CSR spmm path must stay within 1e-12 through inference *and* a full
    // training trajectory (in practice they are bit-identical).
    let records = corpus(41, 12);
    let features = FeatureEncoder::default();
    let samples: Vec<GraphSample> = records
        .iter()
        .take(8)
        .map(|r| {
            let n = r.flow.num_ops();
            GraphSample::from_dataflow(&r.flow, &features, r.assignment.as_slice(), &vec![0.0; n])
        })
        .collect();
    let mut labeled: Vec<GraphSample> = samples.clone();
    for s in &mut labeled {
        for (i, l) in s.labels.iter_mut().enumerate() {
            *l = f64::from(i % 2 == 0);
        }
    }
    let mk = |dense: bool| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        GnnEncoder::new(
            GnnConfig {
                dense_messages: dense,
                hidden_dim: 16,
                message_passing_steps: 2,
                ..Default::default()
            },
            &mut rng,
        )
    };
    let mut dense = mk(true);
    let mut sparse = mk(false);
    for s in &samples {
        assert!(max_abs_diff(&dense.embed_agnostic(s), &sparse.embed_agnostic(s)) < 1e-12);
        assert!(max_abs_diff(&dense.embed_aware(s), &sparse.embed_aware(s)) < 1e-12);
    }
    for _ in 0..10 {
        let ld = dense.train_step(&labeled);
        let ls = sparse.train_step(&labeled);
        assert!((ld - ls).abs() < 1e-12, "losses diverged: {ld} vs {ls}");
    }
    for s in &samples {
        assert!(
            max_abs_diff(&dense.predict_bottleneck(s), &sparse.predict_bottleneck(s)) < 1e-12,
            "post-training predictions diverged"
        );
    }
}

#[test]
fn serial_and_parallel_clustering_produce_identical_results() {
    let records = corpus(43, 24);
    let graphs: Vec<(GraphView, GraphSignature)> = records
        .iter()
        .map(|r| (GraphView::of(&r.flow), GraphSignature::of(&r.flow)))
        .collect();
    let run = |par: Parallelism| {
        cluster_dags(
            &graphs,
            &ClusterConfig {
                parallelism: par,
                ..Default::default()
            },
        )
    };
    let serial = run(Parallelism::Serial);
    for threads in [2, 4, 32] {
        let parallel = run(Parallelism::Fixed(threads));
        assert_eq!(
            parallel.assignments, serial.assignments,
            "threads {threads}"
        );
        assert_eq!(parallel.centers, serial.centers, "threads {threads}");
        assert_eq!(parallel.inertia, serial.inertia, "threads {threads}");
    }
}

#[test]
fn serial_and_parallel_pretraining_produce_identical_models() {
    let records = corpus(47, 16);
    let run = |par: Parallelism| {
        let mut cfg = PretrainConfig::fast();
        cfg.parallelism = par;
        cfg.cluster.parallelism = par;
        Pretrainer::new(cfg).run(&records)
    };
    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Fixed(4));
    assert_eq!(serial.clusters.len(), parallel.clusters.len());
    // Whole-model comparison (weights, warm-up sets, centers) via the
    // serialized form — any drift in any field fails.
    let a = serde_json::to_string(&serial).expect("serializable");
    let b = serde_json::to_string(&parallel).expect("serializable");
    assert_eq!(
        a, b,
        "serial and scoped-thread pre-training must be bit-identical"
    );
}
