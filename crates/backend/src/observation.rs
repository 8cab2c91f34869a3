//! Engine-neutral observation model: the dashboard signals a tuner can see
//! after a deployment, whichever backend produced them (paper §V-B).
//!
//! These types lived in the simulator crate historically; they moved here
//! because every backend — simulated, replayed or real — reports the same
//! union of Flink time metrics and Timely rate metrics.

use crate::error::BackendError;
use serde::{Deserialize, Serialize};
use streamtune_dataflow::OpId;

/// Backpressure becomes *visible* to Flink's instrumentation only once the
/// blocked-time fraction crosses the 10 % rule of paper §V-B; a job whose
/// sources are throttled by less than this reads as backpressure-free on
/// every dashboard (and in Algorithm 1's line 2). Backends use the same
/// visibility threshold so tuners see exactly what the real engine would
/// show them.
pub const BACKPRESSURE_VISIBILITY: f64 = 0.10;

/// Which engine the backend exposes (paper §V: Apache Flink vs Timely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineMode {
    /// Flink: built-in backpressure, busy/idle/backpressured time metrics.
    Flink,
    /// Timely Dataflow: no backpressure; 85 % consumption rule.
    Timely,
}

/// Per-operator observation, the union of the signals both engines expose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpObservation {
    /// The operator.
    pub op: OpId,
    /// Deployed parallelism degree.
    pub parallelism: u32,
    /// Arrival (input) rate in records/second — the *demand* the operator
    /// must sustain in Flink mode; the actual arrivals in Timely mode.
    pub input_rate: f64,
    /// Actually processed records/second.
    pub processed_rate: f64,
    /// Flink `busyTimeMsPerSecond` (0–1000).
    pub busy_ms_per_sec: f64,
    /// Flink `idleTimeMsPerSecond` (0–1000).
    pub idle_ms_per_sec: f64,
    /// Flink `backPressuredTimeMsPerSecond` (0–1000).
    pub backpressured_ms_per_sec: f64,
    /// Noisy useful-time-derived per-instance processing rate — what DS2 /
    /// ContTune use to estimate processing ability (records/second per
    /// parallel instance of *useful* time).
    pub observed_per_instance_rate: f64,
    /// CPU load (busy fraction, 0–1) — the resource metric `R` of Alg. 1.
    pub cpu_load: f64,
    /// Flink bottleneck rule: backpressured time > 10 % of the cumulative
    /// busy+idle+backpressured time (paper §V-B).
    pub flink_backpressured: bool,
    /// Timely bottleneck rule: consumption < 85 % of upstream output.
    pub timely_bottleneck: bool,
    /// Whether this operator's own demand exceeds its PA (saturated). Not
    /// directly exposed by real engines, but derivable; used by tests.
    pub saturated: bool,
}

/// One deployment's complete observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Engine mode the observation was taken under.
    pub mode: EngineMode,
    /// Per-operator signals, indexed by `OpId` order.
    pub per_op: Vec<OpObservation>,
    /// Job-level backpressure flag (any operator under backpressure or
    /// saturated — what the Flink UI shows at the job level).
    pub job_backpressure: bool,
    /// Fraction of the offered source rate actually sustained (1.0 ⇔ no
    /// throttling). Timely mode reports min(processed/arrivals) instead.
    pub throughput_scale: f64,
    /// Cluster CPU utilization: Σ busy·p / Σ p over allocated slots.
    pub cpu_utilization: f64,
    /// Total parallelism of the deployment.
    pub total_parallelism: u64,
}

impl Observation {
    /// Observation of one operator.
    pub fn op(&self, id: OpId) -> &OpObservation {
        &self.per_op[id.index()]
    }

    /// Reject observations carrying non-finite metrics.
    ///
    /// A scraper racing a restarting dashboard can read NaN/∞ rates;
    /// feeding them to a tuner would poison every downstream estimate, so
    /// sessions validate each observation and treat a corrupt one as a
    /// transient fault ([`BackendError::CorruptObservation`]) eligible
    /// for retry.
    pub fn validate(&self) -> Result<(), BackendError> {
        let mut bad: Vec<String> = Vec::new();
        let mut check = |name: &str, value: f64| {
            if !value.is_finite() {
                bad.push(format!("{name}={value}"));
            }
        };
        check("throughput_scale", self.throughput_scale);
        check("cpu_utilization", self.cpu_utilization);
        for o in &self.per_op {
            for (name, value) in [
                ("input_rate", o.input_rate),
                ("processed_rate", o.processed_rate),
                ("busy_ms_per_sec", o.busy_ms_per_sec),
                ("idle_ms_per_sec", o.idle_ms_per_sec),
                ("backpressured_ms_per_sec", o.backpressured_ms_per_sec),
                ("observed_per_instance_rate", o.observed_per_instance_rate),
                ("cpu_load", o.cpu_load),
            ] {
                if !value.is_finite() {
                    bad.push(format!("op {}: {name}={value}", o.op.index()));
                }
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            const SHOWN: usize = 4;
            let more = bad.len().saturating_sub(SHOWN);
            bad.truncate(SHOWN);
            let mut context = bad.join(", ");
            if more > 0 {
                context.push_str(&format!(" (+{more} more)"));
            }
            Err(BackendError::CorruptObservation { context })
        }
    }
}

/// A full deployment report: the observation plus ground truth (hidden from
/// tuners, used by tests and experiment scoring; a real-engine connector
/// fills the ground-truth vectors with its best estimates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// What tuners see.
    pub observation: Observation,
    /// Ground-truth PA per operator at the deployed degrees.
    pub true_pa: Vec<f64>,
    /// Ground-truth demand input rates (backpressure-free requirement).
    pub demand_input: Vec<f64>,
    /// Ground-truth saturation flags.
    pub saturated: Vec<bool>,
}

impl SimulationReport {
    /// True iff the deployment sustains the sources without backpressure.
    pub fn backpressure_free(&self) -> bool {
        !self.saturated.iter().any(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> Observation {
        let op = |index: usize| OpObservation {
            op: OpId::new(index),
            parallelism: 2,
            input_rate: 1000.0,
            processed_rate: 1000.0,
            busy_ms_per_sec: 400.0,
            idle_ms_per_sec: 600.0,
            backpressured_ms_per_sec: 0.0,
            observed_per_instance_rate: 500.0,
            cpu_load: 0.4,
            flink_backpressured: false,
            timely_bottleneck: false,
            saturated: false,
        };
        Observation {
            mode: EngineMode::Flink,
            per_op: vec![op(0), op(1)],
            job_backpressure: false,
            throughput_scale: 1.0,
            cpu_utilization: 0.4,
            total_parallelism: 4,
        }
    }

    #[test]
    fn finite_observations_validate() {
        healthy().validate().expect("finite metrics are valid");
    }

    #[test]
    fn nan_metrics_are_rejected_as_transient_corruption() {
        let mut obs = healthy();
        obs.per_op[1].input_rate = f64::NAN;
        let err = obs.validate().expect_err("NaN must be rejected");
        assert!(err.is_transient(), "corruption is retryable: {err}");
        match err {
            BackendError::CorruptObservation { context } => {
                assert!(context.contains("op 1: input_rate=NaN"), "{context}");
            }
            other => panic!("expected CorruptObservation, got {other}"),
        }
    }

    #[test]
    fn infinite_metrics_are_rejected_in_both_directions() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut obs = healthy();
            obs.per_op[0].observed_per_instance_rate = bad;
            let err = obs
                .validate()
                .expect_err("infinite per-instance rate must be rejected");
            assert!(err.is_transient(), "{err}");
            assert!(
                err.to_string().contains("observed_per_instance_rate"),
                "{err}"
            );
        }
        let mut obs = healthy();
        obs.cpu_utilization = f64::INFINITY;
        let err = obs.validate().expect_err("infinite utilization rejected");
        assert!(err.to_string().contains("cpu_utilization=inf"), "{err}");
    }

    #[test]
    fn corruption_reports_are_truncated_not_unbounded() {
        let mut obs = healthy();
        obs.throughput_scale = f64::NAN;
        obs.cpu_utilization = f64::NAN;
        for o in &mut obs.per_op {
            o.input_rate = f64::NAN;
            o.processed_rate = f64::NAN;
            o.cpu_load = f64::INFINITY;
        }
        let err = obs.validate().expect_err("everything is corrupt");
        let message = err.to_string();
        assert!(message.contains("(+4 more)"), "{message}");
    }
}
