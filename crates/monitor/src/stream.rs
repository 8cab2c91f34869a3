//! Metric ingestion: polling a backend into per-operator windowed stats.
//!
//! A [`MetricStream`] is the observe half of the observe→detect→adapt
//! loop: on every poll it re-deploys the job's *current* assignment at a
//! fresh observation epoch (a pure monitoring interval — same degrees, new
//! dashboard reading) and folds the per-operator rates and CPU loads into
//! bounded ring buffers. It works against any [`ExecutionBackend`] — the
//! simulated cluster, a replayed trace, or a future live connector — and
//! never mutates the deployment itself.

use crate::ring::RingBuffer;
use streamtune_backend::{BackendError, ExecutionBackend, Observation, RetryPolicy, RetryStats};
use streamtune_dataflow::{Dataflow, ParallelismAssignment};

/// Observation epochs used by monitor polls start here so they never
/// collide with the (small) epochs a tuning session consumes: backends key
/// measurement noise on the epoch, and a monitoring read must not replay a
/// tuning-time measurement error.
pub const MONITOR_EPOCH_BASE: u64 = 1 << 32;

/// Metric-stream settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStreamConfig {
    /// Ring-buffer capacity per operator metric (samples retained).
    pub window: usize,
    /// Retry policy for transiently failing polls: a flaky scrape is
    /// re-attempted at the *same* monitor epoch (deterministic — the
    /// retried read observes exactly what the clean read would have)
    /// before the failure surfaces to the monitor.
    pub retry: RetryPolicy,
}

impl Default for MetricStreamConfig {
    fn default() -> Self {
        MetricStreamConfig {
            window: 32,
            retry: RetryPolicy::default(),
        }
    }
}

/// Windowed per-operator statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct OpWindow {
    /// Arrival-rate window (records/second — the demand in Flink mode).
    pub input_rate: RingBuffer,
    /// Processed-rate window.
    pub processed_rate: RingBuffer,
    /// CPU-load window (busy fraction, 0–1).
    pub cpu_load: RingBuffer,
}

impl OpWindow {
    fn new(window: usize) -> Self {
        OpWindow {
            input_rate: RingBuffer::new(window),
            processed_rate: RingBuffer::new(window),
            cpu_load: RingBuffer::new(window),
        }
    }
}

/// Polls a backend on demand and maintains windowed per-operator stats.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStream {
    per_op: Vec<OpWindow>,
    polls: u64,
    retry: RetryPolicy,
    retry_stats: RetryStats,
}

impl MetricStream {
    /// A stream over a job with `num_ops` operators.
    pub fn new(num_ops: usize, config: MetricStreamConfig) -> Self {
        MetricStream {
            per_op: (0..num_ops).map(|_| OpWindow::new(config.window)).collect(),
            polls: 0,
            retry: config.retry,
            retry_stats: RetryStats::default(),
        }
    }

    /// Deploy-and-observe one monitoring interval: the current assignment
    /// is re-deployed at a fresh monitor epoch and the observation is
    /// folded into the windows.
    ///
    /// Transient backend faults (flaky scrapes, corrupt observations) are
    /// retried at the *same* epoch per the stream's [`RetryPolicy`], so an
    /// absorbed fault leaves the window contents bit-identical to a
    /// fault-free run. A failure that surfaces (retry budget exhausted, or
    /// permanent) still *consumes* the monitoring interval — the missed
    /// reading is gone and the next poll observes a fresh epoch — so an
    /// epoch-windowed outage (see
    /// [`FaultPlan::with_phase`](streamtune_backend::FaultPlan::with_phase))
    /// ends on schedule instead of pinning the stream to one sick epoch.
    pub fn poll(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        flow: &Dataflow,
        assignment: &ParallelismAssignment,
    ) -> Result<Observation, BackendError> {
        let epoch = MONITOR_EPOCH_BASE + self.polls;
        let mut attempt: u32 = 1;
        loop {
            let result = backend
                .deploy(flow, assignment, epoch)
                .and_then(|report| report.observation.validate().map(|()| report));
            match result {
                Ok(report) => {
                    self.record(&report.observation);
                    return Ok(report.observation);
                }
                Err(e) if e.is_transient() => {
                    self.retry_stats.transient_faults += 1;
                    if attempt >= self.retry.max_attempts.max(1) {
                        self.retry_stats.exhausted += 1;
                        self.polls += 1;
                        return Err(e);
                    }
                    self.retry_stats.retries += 1;
                    self.retry_stats.backoff_minutes += self.retry.backoff_minutes(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    self.retry_stats.permanent_failures += 1;
                    self.polls += 1;
                    return Err(e);
                }
            }
        }
    }

    /// What the poll retry loop absorbed or gave up on so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Fold one observation into the windows (exposed so recorded
    /// observations can be replayed into a stream without a backend).
    pub fn record(&mut self, obs: &Observation) {
        assert_eq!(
            obs.per_op.len(),
            self.per_op.len(),
            "observation shape must match the watched job"
        );
        for (w, o) in self.per_op.iter_mut().zip(&obs.per_op) {
            w.input_rate.push(o.input_rate);
            w.processed_rate.push(o.processed_rate);
            w.cpu_load.push(o.cpu_load);
        }
        self.polls += 1;
    }

    /// Windowed stats of operator `i`.
    pub fn op(&self, i: usize) -> &OpWindow {
        &self.per_op[i]
    }

    /// Number of operators tracked.
    pub fn num_ops(&self) -> usize {
        self.per_op.len()
    }

    /// Polls taken so far.
    pub fn polls(&self) -> u64 {
        self.polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamtune_sim::SimCluster;
    use streamtune_workloads::{nexmark, rates::Engine};

    #[test]
    fn polling_fills_windows_and_tracks_rates() {
        let mut cluster = SimCluster::flink_defaults(3);
        let w = nexmark::q1(Engine::Flink);
        let flow = w.at(5.0);
        let assignment = ParallelismAssignment::uniform(&flow, 8);
        let mut stream = MetricStream::new(
            flow.num_ops(),
            MetricStreamConfig {
                window: 4,
                ..MetricStreamConfig::default()
            },
        );
        for _ in 0..6 {
            stream.poll(&mut cluster, &flow, &assignment).unwrap();
        }
        assert_eq!(stream.polls(), 6);
        assert_eq!(stream.num_ops(), flow.num_ops());
        let first = stream.op(0);
        assert!(first.input_rate.is_full());
        assert_eq!(first.input_rate.len(), 4, "window is bounded");
        // Flink-mode input rate is the (noise-free) demand: constant rates
        // observe as a zero-variance window.
        assert!(first.input_rate.variance() == 0.0);
        assert!(first.input_rate.mean() > 0.0);
    }

    #[test]
    fn monitor_epochs_do_not_replay_each_other() {
        let mut cluster = SimCluster::flink_defaults(9);
        let w = nexmark::q5(Engine::Flink);
        let flow = w.at(8.0);
        let assignment = ParallelismAssignment::uniform(&flow, 4);
        let mut stream = MetricStream::new(flow.num_ops(), MetricStreamConfig::default());
        let a = stream.poll(&mut cluster, &flow, &assignment).unwrap();
        let b = stream.poll(&mut cluster, &flow, &assignment).unwrap();
        // Fresh epochs see fresh measurement noise on the noisy signals.
        assert_ne!(
            a.per_op[0].observed_per_instance_rate,
            b.per_op[0].observed_per_instance_rate
        );
    }

    #[test]
    fn transient_poll_faults_are_absorbed_bit_identically() {
        use streamtune_backend::{ChaosBackend, FaultPlan};
        let w = nexmark::q1(Engine::Flink);
        let flow = w.at(5.0);
        let assignment = ParallelismAssignment::uniform(&flow, 8);

        let mut clean_backend = SimCluster::flink_defaults(3);
        let mut clean_stream = MetricStream::new(flow.num_ops(), MetricStreamConfig::default());
        let clean: Vec<_> = (0..8)
            .map(|_| {
                clean_stream
                    .poll(&mut clean_backend, &flow, &assignment)
                    .unwrap()
            })
            .collect();

        let mut chaotic_backend =
            ChaosBackend::new(SimCluster::flink_defaults(3), FaultPlan::transient(17));
        let mut chaotic_stream = MetricStream::new(flow.num_ops(), MetricStreamConfig::default());
        let chaotic: Vec<_> = (0..8)
            .map(|_| {
                chaotic_stream
                    .poll(&mut chaotic_backend, &flow, &assignment)
                    .unwrap()
            })
            .collect();

        assert_eq!(
            clean, chaotic,
            "absorbed transient faults must not perturb observations"
        );
        assert!(
            chaotic_stream.retry_stats().transient_faults > 0,
            "the plan's rates must fire within 8 polls"
        );
        assert_eq!(chaotic_stream.retry_stats().exhausted, 0);
    }

    #[test]
    #[should_panic(expected = "shape must match")]
    fn mismatched_observation_shape_is_rejected() {
        let cluster = SimCluster::flink_defaults(3);
        let w = nexmark::q1(Engine::Flink);
        let flow = w.at(5.0);
        let obs = cluster
            .simulate(&flow, &ParallelismAssignment::uniform(&flow, 2))
            .observation;
        let mut stream = MetricStream::new(flow.num_ops() + 1, MetricStreamConfig::default());
        stream.record(&obs);
    }
}
