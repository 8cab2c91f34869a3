//! The offline path: corpus generation and pre-training.

use crate::spans::Recorder;
use crate::speed::Gauge;
use crate::stats::median;
use crate::{Family, Metric};
use std::time::Instant;
use streamtune_cluster::cluster_dags_cached;
use streamtune_core::{bottleneck_labels, Parallelism, PretrainConfig, Pretrained, Pretrainer};
use streamtune_dataflow::GraphSignature;
use streamtune_ged::{Bound, GedCache, GedCacheStats, GraphView};
use streamtune_sim::SimCluster;
use streamtune_workloads::history::{ExecutionRecord, HistoryGenerator};

/// Seed of the simulated cluster, of the pre-training corpus and of the
/// daemon's boot corpus: the paper's Fig. 9b corpus seed. They stay fixed
/// so that the work in a run does not depend on `--seed`, which only
/// orders the online inputs (see `METRICS.md`).
pub const WORLD_SEED: u64 = 23;

/// The simulated Flink cluster every path runs on.
pub fn world() -> SimCluster {
    SimCluster::flink_defaults(WORLD_SEED)
}

/// The Fig. 9b execution-history corpus: `jobs` jobs × 2 runs, drawn from
/// the family's named queries topped up with Fig. 5-distributed random
/// jobs.
pub fn corpus(family: &Family, jobs: usize) -> Vec<ExecutionRecord> {
    let mut gen = HistoryGenerator::new(WORLD_SEED)
        .with_jobs(jobs)
        .with_runs_per_job(2);
    gen.include_nexmark = family.corpus_nexmark;
    gen.include_pqp = family.corpus_pqp;
    gen.generate(&world())
}

/// Median wall time of `repeats` generations of the same corpus.
pub fn generate_s(family: &Family, jobs: usize, repeats: usize) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            let c = corpus(family, jobs);
            let s = t.elapsed().as_secs_f64();
            assert!(!c.is_empty());
            s
        })
        .collect();
    median(&times)
}

/// The reduced-cost pre-training configuration with every worker count
/// pinned to one thread, so timings do not depend on the scheduler.
pub fn config() -> PretrainConfig {
    let mut cfg = PretrainConfig::fast();
    cfg.parallelism = Parallelism::Serial;
    cfg.cluster.parallelism = Parallelism::Serial;
    cfg
}

/// What one cold + warm pre-training pair produced.
pub struct PretrainRun {
    /// The cold pass's model (the tune phase runs on it).
    pub model: Pretrained,
    /// Wall time of the cold pass (fresh GED cache).
    pub cold_s: f64,
    /// The cold pass at reference speed (see `speed.rs`); NaN if not gauged.
    pub cold_ref_s: f64,
    /// Wall time of each warm pass (the cache the cold pass filled).
    pub warm_s: Vec<f64>,
    /// The warm passes at reference speed; empty if not gauged.
    pub warm_ref_s: Vec<f64>,
    /// GED cache counters after the cold pass.
    pub cold_stats: GedCacheStats,
    /// Warm passes that broke the documented `run_with_cache` invariant:
    /// they ran an A\* search, or their model does not have the cold
    /// model's clusters, centers and warm-up sets.
    pub warm_failed: usize,
}

impl PretrainRun {
    /// Pre-training passes run: the cold one and the warm ones.
    pub fn passes(&self) -> usize {
        1 + self.warm_s.len()
    }

    /// Whether every warm pass kept the invariant.
    pub fn holds(&self) -> bool {
        self.warm_failed == 0
    }
}

/// `Pretrainer::run_with_cache` on a fresh cache, then `warm_passes` times
/// on the cache that pass filled. With a `gauge`, every pass is bracketed
/// by kernel runs and also timed at reference speed.
pub fn cold_then_warm(
    records: &[ExecutionRecord],
    warm_passes: usize,
    rec: Option<&Recorder>,
    mut gauge: Option<&mut Gauge>,
) -> PretrainRun {
    let cfg = config();
    let pretrainer = Pretrainer::new(cfg.clone());
    let mut cache = GedCache::new(Bound::LabelSet, cfg.cluster.ged_cap);
    let pass = |cache: &mut GedCache, name: &'static str| {
        let t = Instant::now();
        let model = match rec {
            Some(r) => {
                r.time(name, 0, None, || pretrainer.run_with_cache(records, cache))
                    .0
            }
            None => pretrainer.run_with_cache(records, cache),
        };
        (model, t.elapsed().as_secs_f64())
    };
    if let Some(g) = gauge.as_deref_mut() {
        g.rebase();
    }
    let mut factors = Vec::new();
    let mut after_pass = || {
        if let Some(g) = gauge.as_deref_mut() {
            factors.push(g.factor());
        }
    };
    let (model, cold_s) = pass(&mut cache, "core.pretrain_cold");
    after_pass();
    let cold_stats = cache.stats();
    let mut warm_s = Vec::with_capacity(warm_passes);
    let mut warm_failed = 0;
    for _ in 0..warm_passes {
        let searches = cache.stats().searches;
        let (warm, s) = pass(&mut cache, "core.pretrain_warm");
        after_pass();
        warm_s.push(s);
        let matches = model.clusters.len() == warm.clusters.len()
            && model
                .clusters
                .iter()
                .zip(&warm.clusters)
                .all(|(a, b)| a.center == b.center && a.warmup == b.warmup);
        warm_failed += usize::from(!matches || cache.stats().searches != searches);
    }
    let cold_ref_s = factors.first().map_or(f64::NAN, |f| cold_s * f);
    let warm_ref_s = warm_s
        .iter()
        .zip(factors.iter().skip(1))
        .map(|(s, f)| s * f)
        .collect();
    PretrainRun {
        model,
        cold_s,
        cold_ref_s,
        warm_s,
        warm_ref_s,
        cold_stats,
        warm_failed,
    }
}

/// Per-layer metrics of the offline path, timed by calling each layer's
/// public entry point on the run's corpus.
pub fn layers(records: &[ExecutionRecord], run: &PretrainRun, rec: &Recorder) -> Vec<Metric> {
    let cfg = config();
    let (_, label) = rec.time("core.label", 0, None, || {
        records
            .iter()
            .map(|r| bottleneck_labels(&r.flow, &r.observation, &cfg.label).len())
            .sum::<usize>()
    });
    let mut cache = GedCache::new(Bound::LabelSet, cfg.cluster.ged_cap);
    let (ids, intern) = rec.time("ged.intern", 0, None, || {
        records
            .iter()
            .map(|r| cache.intern(&GraphView::of(&r.flow), &GraphSignature::of(&r.flow)))
            .collect::<Vec<_>>()
    });
    let mut distinct = ids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let multiplicity = cache.multiplicities(&ids);
    let weights: Vec<f64> = distinct.iter().map(|&d| multiplicity[d]).collect();
    let (clustering, sweep) = rec.time("cluster.sweep", 0, None, || {
        cluster_dags_cached(&mut cache, &distinct, &weights, &cfg.cluster)
    });
    let (_, sweep_warm) = rec.time("cluster.sweep_warm", 0, None, || {
        cluster_dags_cached(&mut cache, &distinct, &weights, &cfg.cluster)
    });
    let stats = run.cold_stats;
    let train = train_phase_ms();
    vec![
        Metric::new("core.label_ms", "ms", label.as_secs_f64() * 1e3),
        Metric::new("ged.intern_ms", "ms", intern.as_secs_f64() * 1e3),
        Metric::new("ged.lookups", "count", stats.lookups as f64),
        Metric::new("ged.searches", "count", stats.searches as f64),
        Metric::new("ged.filtered", "count", stats.filtered as f64),
        Metric::new(
            "ged.search_share",
            "ratio",
            stats.searches as f64 / stats.lookups.max(1) as f64,
        ),
        Metric::new("cluster.sweep_ms", "ms", sweep.as_secs_f64() * 1e3),
        Metric::new(
            "cluster.sweep_warm_ms",
            "ms",
            sweep_warm.as_secs_f64() * 1e3,
        ),
        Metric::new("cluster.k", "count", clustering.k as f64),
        Metric::new("nn.train_ms", "ms", train),
    ]
}

/// Mean duration of the pre-training `train` phase so far, read from the
/// program's own `streamtune_pretrain_phase_duration_nanoseconds` histogram.
fn train_phase_ms() -> f64 {
    let snapshot = streamtune_telemetry::global().snapshot();
    match snapshot
        .find(
            "streamtune_pretrain_phase_duration_nanoseconds",
            &[("phase", "train")],
        )
        .map(|m| &m.value)
    {
        Some(streamtune_telemetry::MetricValue::Histogram(h)) if h.count > 0 => {
            h.sum as f64 / h.count as f64 / 1e6
        }
        _ => f64::NAN,
    }
}
