//! `streamtune-telemetry` — the in-process observability layer.
//!
//! Everything here is **strictly observational**: recording a metric or an
//! event never feeds back into tuning decisions, so tuning outcomes with
//! telemetry enabled are bit-identical to runs with it disabled, across
//! `Serial`/`Fixed(n)` thread pools (proven in `tests/telemetry.rs`). The
//! crate is dependency-free (std only) and allocation-free on the hot
//! path: handles are pre-registered `Arc<AtomicU64>` cells, and recording
//! is a relaxed atomic add.
//!
//! Five pieces:
//!
//! * [`metrics`] — a process-wide [`Registry`] of named [`Counter`]s,
//!   [`Gauge`]s and fixed log₂-bucket [`Histogram`]s (64 buckets over
//!   `u64`, mergeable snapshots, quantile estimation). The conventional
//!   unit for latency histograms is **nanoseconds**; virtual durations
//!   (e.g. never-slept retry backoff) are recorded as virtual
//!   nanoseconds so one exposition pipeline serves both.
//! * [`events`] — leveled structured events in a bounded ring buffer
//!   ([`EventLog`]), optionally streamed as JSONL to a writer
//!   (`--trace-log`, size-capped via [`RotatingWriter`]) and echoed to
//!   stderr at or above a threshold level, replacing bare `eprintln!`
//!   call sites with typed, queryable records.
//! * [`trace`] — causal span-tree tracing, the crate's only span type:
//!   [`root_span`]/[`child_span`] guards propagate a [`TraceCtx`] through
//!   a request's whole call path (across threads via [`trace::attach`]),
//!   finished trees land in the bounded [`TraceStore`], and
//!   [`chrome_trace`] exports them as Chrome trace-event JSON (loadable in
//!   Perfetto).
//! * [`history`] — a fixed-capacity ring of registry-snapshot *deltas*
//!   ([`MetricsHistory`]) giving the daemon a sliding window of per-verb
//!   rates and interval quantiles, built on the histogram merge algebra.
//! * [`expose`] — Prometheus text exposition
//!   ([`render_prometheus`](expose::render_prometheus)) plus an in-repo
//!   format checker ([`check_prometheus`](expose::check_prometheus)) so
//!   CI can validate scrapes without an external `promtool`.
//!
//! The global entry points are [`global()`] (the shared registry) and
//! [`events()`] (the shared event log); [`set_enabled(false)`](set_enabled)
//! turns every recording path into a no-op — the toggle the bit-identity
//! tests flip. Stderr echo of warning/error events stays on even when
//! recording is disabled: operational crash/recovery lines must never
//! silently vanish.

pub mod events;
pub mod expose;
pub mod history;
pub mod metrics;
pub mod trace;

pub use events::{Event, EventLog, Level, RotatingWriter};
pub use expose::{check_prometheus, render_prometheus};
pub use history::{
    history, DeltaValue, HistoryFrame, MetricsHistory, SeriesDelta, DEFAULT_HISTORY_CAPACITY,
};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Counter, Gauge, HistTimer, Histogram,
    HistogramSnapshot, MetricKind, MetricSnapshot, MetricValue, MetricsSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
pub use trace::{
    child_span, chrome_trace, root_span, span_or_root, SpanGuard, SpanRecord, TraceCtx, TraceStore,
    TraceSummary,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(true);
static GLOBAL: OnceLock<Registry> = OnceLock::new();
static EVENTS: OnceLock<EventLog> = OnceLock::new();

/// Is telemetry recording enabled? Checked (relaxed) by every counter
/// add, histogram record and event emission.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable telemetry recording. Registration still
/// works while disabled (handles are created, series exist with zero
/// values); only *recording* becomes a no-op. Stderr echo of events at or
/// above the echo level is not affected.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide event log.
pub fn events() -> &'static EventLog {
    EVENTS.get_or_init(EventLog::new)
}

/// Emit an event on the global log. Convenience for
/// [`events()`]`.emit(..)`.
pub fn emit(level: Level, target: &str, message: impl Into<String>) {
    events().emit(level, target, message.into());
}

/// Emit an event with structured fields on the global log.
pub fn emit_with(level: Level, target: &str, message: impl Into<String>, fields: &[(&str, &str)]) {
    events().emit_with(level, target, message.into(), fields);
}
