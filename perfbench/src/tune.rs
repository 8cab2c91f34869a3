//! The online path: StreamTune over the §V-A periodic rate schedule.

use crate::spans::{Recorder, TimedBackend};
use crate::speed::Gauge;
use crate::stats::{mean, median};
use crate::Metric;
use std::time::Instant;
use streamtune_core::{Pretrained, StreamTune, TuneConfig};
use streamtune_dataflow::{Dataflow, ParallelismAssignment};
use streamtune_model::{
    recommend_min_parallelism_at, BottleneckClassifier, GbdtConfig, MonotonicGbdt,
};
use streamtune_nn::GraphSample;
use streamtune_sim::{ExecutionBackend, SimCluster, Tuner, TuningSession};
use streamtune_workloads::{rates, Workload};

/// What the schedule produced.
#[derive(Default)]
pub struct ScheduleRun {
    /// Wall time of every tune call, in milliseconds.
    pub tune_ms: Vec<f64>,
    /// The same at reference speed (see `speed.rs`); empty if not gauged.
    pub tune_ref_ms: Vec<f64>,
    /// Reconfigurations summed over all changes (Fig. 7a).
    pub reconfigurations: u64,
    /// Backpressured deployments summed over all changes (Table III).
    pub backpressure: u64,
    /// Tuning iterations summed over all changes.
    pub iterations: u64,
    /// Final total parallelism ÷ the oracle's, per change (Fig. 6).
    pub over_oracle: Vec<f64>,
    /// Changes whose final assignment still shows job-level backpressure.
    pub failed: u64,
    /// Deployments made (traced runs only).
    pub deploys: u64,
}

impl ScheduleRun {
    /// Rate changes tuned.
    pub fn changes(&self) -> usize {
        self.tune_ms.len()
    }
}

/// One §V-A rate schedule per job: `blocks` seeded permutations of the
/// 20-step periodic sequence. Every block holds the same rates, so all
/// seeds tune the same multiset of changes; each job gets its own order.
pub fn schedules(seed: u64, jobs: usize, blocks: usize) -> Vec<Vec<f64>> {
    (0..jobs)
        .map(|j| {
            (0..blocks)
                .flat_map(|b| {
                    rates::permuted_sequence(
                        seed.wrapping_mul(1_000_003)
                            .wrapping_add((j * 1009 + b) as u64),
                    )
                })
                .collect()
        })
        .collect()
}

/// One long-lived StreamTune per job driven through its schedule, keeping
/// each deployment warm between changes (as `harness::run_schedule` does).
/// Every final assignment is checked under `SimCluster::simulate`.
pub struct Schedule<'a> {
    cluster: &'a SimCluster,
    rec: Option<&'a Recorder>,
    jobs: Vec<JobRun<'a>>,
    run: ScheduleRun,
}

/// One job's tuning state, kept across [`Schedule::advance`] calls.
struct JobRun<'a> {
    job: &'a Workload,
    schedule: &'a [f64],
    next: usize,
    tuner: StreamTune<'a>,
    plain: SimCluster,
    timed: Option<TimedBackend<'a>>,
    current: Option<ParallelismAssignment>,
}

impl<'a> Schedule<'a> {
    /// Fresh tuners for `jobs`, one schedule each; spans go to `rec`.
    pub fn new(
        model: &'a Pretrained,
        jobs: &'a [Workload],
        schedules: &'a [Vec<f64>],
        cluster: &'a SimCluster,
        rec: Option<&'a Recorder>,
    ) -> Self {
        let jobs = jobs
            .iter()
            .zip(schedules)
            .map(|(job, schedule)| JobRun {
                job,
                schedule,
                next: 0,
                tuner: StreamTune::new(model, TuneConfig::default()),
                plain: cluster.clone(),
                timed: rec.map(|r| TimedBackend::new(cluster.clone(), r)),
                current: None,
            })
            .collect();
        Schedule {
            cluster,
            rec,
            jobs,
            run: ScheduleRun::default(),
        }
    }

    /// Tune the next `changes` rate changes of every job. With a `gauge`,
    /// each job's stretch of calls is bracketed by kernel runs and its
    /// times are also kept at reference speed.
    pub fn advance(&mut self, changes: usize, mut gauge: Option<&mut Gauge>) {
        let (rec, out) = (self.rec, &mut self.run);
        for (j, job) in self.jobs.iter_mut().enumerate() {
            let first = out.tune_ms.len();
            let end = (job.next + changes).min(job.schedule.len());
            for k in job.next..end {
                let flow = job.job.at(job.schedule[k]);
                let trace = (j * job.schedule.len() + k) as u64;
                let span = rec.map(|r| r.open("core.tune", trace, None));
                let backend: &mut dyn ExecutionBackend = match job.timed.as_mut() {
                    Some(t) => {
                        t.context = (trace, span);
                        t
                    }
                    None => &mut job.plain,
                };
                let t = Instant::now();
                let mut session = match job.current.take() {
                    Some(a) => TuningSession::with_initial(backend, &flow, a, (k * 1000) as u64),
                    None => TuningSession::new(backend, &flow),
                };
                let outcome = job
                    .tuner
                    .tune(&mut session)
                    .expect("simulated tuning cannot fail");
                out.tune_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let (Some(r), Some(id)) = (rec, span) {
                    r.close(id);
                }
                out.reconfigurations += u64::from(outcome.reconfigurations);
                out.backpressure += u64::from(outcome.backpressure_events);
                out.iterations += u64::from(outcome.iterations);
                let report = self.cluster.simulate(&flow, &outcome.final_assignment);
                if report.observation.job_backpressure {
                    out.failed += 1;
                }
                if let Some(oracle) = self.cluster.oracle_assignment(&flow) {
                    out.over_oracle
                        .push(outcome.final_assignment.total() as f64 / oracle.total() as f64);
                }
                job.current = Some(outcome.final_assignment);
            }
            job.next = end;
            if let Some(g) = gauge.as_deref_mut() {
                let f = g.factor();
                out.tune_ref_ms
                    .extend(out.tune_ms[first..].iter().map(|ms| ms * f));
            }
        }
    }

    /// Everything the changes tuned so far produced.
    pub fn finish(self) -> ScheduleRun {
        let mut run = self.run;
        run.deploys = self
            .jobs
            .iter()
            .filter_map(|j| j.timed.as_ref())
            .map(|t| t.deploys)
            .sum();
        run
    }
}

/// Per-layer metrics of the online path: the schedule's own spans, plus
/// each layer's public entry point timed on the first `probes` changes of
/// every job (assign → embed → fit on the warm-up set → search).
pub fn layers(
    model: &Pretrained,
    cluster: &SimCluster,
    jobs: &[Workload],
    schedules: &[Vec<f64>],
    probes: usize,
    run: &ScheduleRun,
    rec: &Recorder,
) -> Vec<Metric> {
    let p_max = cluster.constraints().max_parallelism;
    let mut fit_points = Vec::new();
    for (job, schedule) in jobs.iter().zip(schedules) {
        for &m in schedule.iter().take(probes) {
            let trace = fit_points.len() as u64;
            let fit = probe_iteration(model, &job.at(m), p_max, rec, trace);
            fit_points.push(fit as f64);
        }
    }
    let us = |name: &str| median(&rec.durations_ms(name)) * 1e3;
    vec![
        Metric::new("core.assign_us", "us", us("core.assign")),
        Metric::new("nn.embed_us", "us", us("nn.embed")),
        Metric::new("model.fit_ms", "ms", median(&rec.durations_ms("model.fit"))),
        Metric::new("model.fit_points", "count", mean(&fit_points)),
        Metric::new("model.search_us", "us", us("model.search")),
        Metric::new("sim.deploy_us", "us", us("sim.deploy")),
        Metric::new("backend.deploys", "count", run.deploys as f64),
        Metric::new("core.tune_self_ms", "ms", median(&rec.self_ms("core.tune"))),
        Metric::new(
            "core.iterations_per_change",
            "count",
            run.iterations as f64 / run.changes() as f64,
        ),
    ]
}

/// One tune iteration's layers, called one by one the way StreamTune's
/// first iteration calls them, as children of one `core.probe` span.
/// Returns the number of points the model was fitted on.
fn probe_iteration(
    model: &Pretrained,
    flow: &Dataflow,
    p_max: u32,
    rec: &Recorder,
    trace: u64,
) -> usize {
    let config = TuneConfig::default();
    let root = rec.open("core.probe", trace, None);
    let (cluster, _) = rec.time("core.assign", trace, Some(root), || model.assign(flow).0);
    let cm = &model.clusters[cluster];
    let n = flow.num_ops();
    let sample = GraphSample::from_dataflow(flow, &model.features, &vec![1; n], &vec![-1.0; n]);
    let (emb, _) = rec.time("nn.embed", trace, Some(root), || {
        cm.encoder.embed_agnostic(&sample)
    });
    let warmup: Vec<_> = cm
        .warmup
        .iter()
        .take(config.max_warmup_points)
        .cloned()
        .collect();
    let mut gbdt = MonotonicGbdt::new(GbdtConfig::default());
    rec.time("model.fit", trace, Some(root), || gbdt.fit(&warmup));
    let demand = streamtune_sim::rates::demand_rates(flow);
    let inputs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let mut h = emb.row(i).to_vec();
            h.push(streamtune_core::pretrain::rate_feature(demand.input[i]));
            h
        })
        .collect();
    rec.time("model.search", trace, Some(root), || {
        inputs
            .iter()
            .map(|h| {
                recommend_min_parallelism_at(&gbdt, h, p_max, config.safety_threshold)
                    .unwrap_or(p_max)
            })
            .sum::<u32>()
    });
    rec.close(root);
    warmup.len()
}
