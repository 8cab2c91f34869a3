//! The traced run's in-memory span recorder and the timing backend.
//!
//! End-to-end runs never construct a [`Recorder`]: every phase takes an
//! `Option<&Recorder>` and records nothing when it is `None`. A traced run
//! keeps every span in memory and writes them out once, at the end.

use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use streamtune_dataflow::{Dataflow, ParallelismAssignment};
use streamtune_sim::{
    BackendConstraints, BackendError, EngineMode, ExecutionBackend, SimCluster, SimulationReport,
};

/// One recorded span. Spans of one tune call or one request share `trace`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `model.fit`.
    pub name: &'static str,
    /// The tune call or request this span belongs to.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Close span `id` and return its duration.
    pub fn close(&self, id: usize) -> Duration {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end_ns;
        spans[id].duration()
    }

    /// Run `f` inside a span and return its result with the span's duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, trace, parent);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Self time of every span called `name`, in milliseconds: its
    /// duration minus the time its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.end_ns
                    .saturating_sub(s.start_ns)
                    .saturating_sub(child_ns[i]) as f64
                    / 1e6
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A [`SimCluster`] that records a `sim.deploy` span around every
/// deployment, as a child of the tune call that asked for it.
pub struct TimedBackend<'r> {
    /// The simulated cluster doing the work.
    pub inner: SimCluster,
    recorder: &'r Recorder,
    /// Trace id and parent span of the tune call in progress.
    pub context: (u64, Option<usize>),
    /// Deployments made through this backend.
    pub deploys: u64,
}

impl<'r> TimedBackend<'r> {
    /// Wrap `inner`.
    pub fn new(inner: SimCluster, recorder: &'r Recorder) -> Self {
        TimedBackend {
            inner,
            recorder,
            context: (0, None),
            deploys: 0,
        }
    }
}

impl ExecutionBackend for TimedBackend<'_> {
    fn engine_mode(&self) -> EngineMode {
        self.inner.engine_mode()
    }

    fn constraints(&self) -> BackendConstraints {
        self.inner.constraints()
    }

    fn deploy(
        &mut self,
        flow: &Dataflow,
        assignment: &ParallelismAssignment,
        epoch: u64,
    ) -> Result<SimulationReport, BackendError> {
        self.deploys += 1;
        let (trace, parent) = self.context;
        let inner = &mut self.inner;
        self.recorder
            .time("sim.deploy", trace, parent, || {
                inner.deploy(flow, assignment, epoch)
            })
            .0
    }

    fn epoch_latencies(
        &mut self,
        flow: &Dataflow,
        assignment: &ParallelismAssignment,
        epochs: usize,
    ) -> Result<Vec<f64>, BackendError> {
        ExecutionBackend::epoch_latencies(&mut self.inner, flow, assignment, epochs)
    }
}
