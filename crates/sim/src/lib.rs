//! Simulated distributed stream processing substrate.
//!
//! The paper evaluates StreamTune on Apache Flink and Timely Dataflow. This
//! reproduction runs on neither by default; this crate is the substitute
//! substrate, a deterministic, rate-based simulator that produces exactly
//! the signals every tuner in the paper consumes —
//!
//! * per-operator `busyTimeMsPerSecond` / `idleTimeMsPerSecond` /
//!   `backPressuredTimeMsPerSecond` (Flink mode, paper §V-B),
//! * per-operator input/output rates and the 85 % consumption rule
//!   (Timely mode, paper §V-B),
//! * noisy "useful time"-derived per-instance processing rates (what DS2 and
//!   ContTune estimate processing ability from),
//! * job-level backpressure, CPU-utilization traces, per-epoch latencies.
//!
//! The physics: each operator has a ground-truth processing ability
//! `PA(p)` that grows mildly sub-linearly in its parallelism `p`
//! (matching paper Fig. 4), rates propagate through the DAG by selectivity,
//! and backpressure arises as the fixed point of throttling sources until no
//! operator's input exceeds its ability.

pub mod latency;
pub mod live;
pub mod metrics;
pub mod noise;
pub mod pa;
pub mod rates;
pub mod session;

pub use live::LiveRescaleModel;
pub use metrics::{EngineMode, Observation, OpObservation, SimulationReport};
pub use pa::{PerfProfile, ProcessingAbility};
pub use session::SimCluster;
pub use streamtune_backend::{
    BackendConstraints, BackendError, ExecutionBackend, TuneOutcome, Tuner, TuningSession,
};

#[cfg(test)]
mod tests {
    use super::*;
    use streamtune_dataflow::{DataflowBuilder, Operator, ParallelismAssignment};

    #[test]
    fn end_to_end_deploy_produces_report() {
        let mut b = DataflowBuilder::new("e2e");
        let s = b.add_source("src", 100_000.0);
        let f = b.add_op("filter", Operator::filter(0.4, 32, 32));
        let g = b.add_op(
            "agg",
            Operator::aggregate(
                streamtune_dataflow::AggregateFunction::Sum,
                streamtune_dataflow::AggregateClass::Int,
                streamtune_dataflow::JoinKeyClass::Int,
                0.1,
            ),
        );
        b.connect_source(s, f);
        b.connect(f, g);
        let flow = b.build().unwrap();

        let cluster = SimCluster::flink_defaults(1);
        let assignment = ParallelismAssignment::uniform(&flow, 4);
        let report = cluster.simulate(&flow, &assignment);
        assert_eq!(report.observation.per_op.len(), 2);
        assert!(report.observation.per_op[0].input_rate > 0.0);
    }
}
