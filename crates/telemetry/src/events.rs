//! Leveled structured events and the bounded ring-buffer [`EventLog`].
//!
//! Events replace bare `eprintln!` call sites: each is a typed record
//! (level, target, message, optional fields, optional elapsed time) that
//! is (1) kept in a bounded in-memory ring for inspection, (2) optionally
//! streamed as one JSONL line to an attached writer (`--trace-log`), and
//! (3) echoed to stderr as one human-readable line when at or above the
//! echo threshold — so operational lines that used to be `eprintln!`
//! still appear, now with structure behind them.
//!
//! Recording into the ring and the JSONL writer is gated on
//! [`crate::enabled()`]; the stderr echo is **not** gated — disabling
//! telemetry must never silence crash/recovery warnings.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Diagnostic detail (phase timings).
    Debug,
    /// Normal operational milestones (drain started, listener up).
    Info,
    /// Something degraded but handled (store recovery, shed session).
    Warn,
    /// Something failed (poisoned lock, unrecoverable artifact).
    Error,
}

impl Level {
    /// Lowercase name, as rendered in JSONL and the stderr echo.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotone per-log sequence number (1-based).
    pub seq: u64,
    /// Unix time in milliseconds at emission (observational only).
    pub ts_millis: u64,
    /// Severity.
    pub level: Level,
    /// Dotted component path, e.g. `serve.store`.
    pub target: String,
    /// Human-readable message.
    pub message: String,
    /// Structured key/value fields.
    pub fields: Vec<(String, String)>,
    /// Elapsed wall-clock nanoseconds, for events that time something.
    pub elapsed_nanos: Option<u64>,
}

impl Event {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"ts_millis\":");
        out.push_str(&self.ts_millis.to_string());
        out.push_str(",\"level\":\"");
        out.push_str(self.level.as_str());
        out.push_str("\",\"target\":\"");
        json_escape(&self.target, &mut out);
        out.push_str("\",\"message\":\"");
        json_escape(&self.message, &mut out);
        out.push('"');
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(k, &mut out);
                out.push_str("\":\"");
                json_escape(v, &mut out);
                out.push('"');
            }
            out.push('}');
        }
        if let Some(nanos) = self.elapsed_nanos {
            out.push_str(",\"elapsed_nanos\":");
            out.push_str(&nanos.to_string());
        }
        out.push('}');
        out
    }

    fn echo_line(&self) -> String {
        let mut line = format!(
            "[{}] {}: {}",
            self.level.as_str(),
            self.target,
            self.message
        );
        for (k, v) in &self.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        if let Some(nanos) = self.elapsed_nanos {
            line.push_str(&format!(" elapsed={}us", nanos / 1_000));
        }
        line
    }
}

/// Escape `s` into `out` as JSON string contents.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

struct LogInner {
    ring: VecDeque<Event>,
    capacity: usize,
    writer: Option<Box<dyn Write + Send>>,
    write_errors: u64,
    dropped: u64,
}

/// Bounded ring buffer of events with optional JSONL streaming and
/// leveled stderr echo. Cheap when idle: emission below the echo level
/// with telemetry disabled touches one atomic and returns.
pub struct EventLog {
    seq: AtomicU64,
    // Echo threshold as a level discriminant + 1; 0 = echo disabled.
    echo: AtomicU64,
    inner: Mutex<LogInner>,
}

const DEFAULT_CAPACITY: usize = 1024;

fn level_code(level: Level) -> u64 {
    match level {
        Level::Debug => 1,
        Level::Info => 2,
        Level::Warn => 3,
        Level::Error => 4,
    }
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EventLog {
    /// A fresh log with the default capacity (1024 events) and stderr
    /// echo at [`Level::Warn`] and above.
    pub fn new() -> Self {
        EventLog {
            seq: AtomicU64::new(0),
            echo: AtomicU64::new(level_code(Level::Warn)),
            inner: Mutex::new(LogInner {
                ring: VecDeque::with_capacity(DEFAULT_CAPACITY),
                capacity: DEFAULT_CAPACITY,
                writer: None,
                write_errors: 0,
                dropped: 0,
            }),
        }
    }

    /// Change the ring capacity (oldest events are dropped first).
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        while inner.ring.len() > inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
    }

    /// Echo events at or above `level` to stderr (`None` disables echo).
    pub fn set_echo_level(&self, level: Option<Level>) {
        self.echo
            .store(level.map_or(0, level_code), Ordering::Relaxed);
    }

    /// Attach a JSONL writer (e.g. a `--trace-log` file). Every
    /// subsequent event is appended as one JSON line. Write errors are
    /// counted, never propagated.
    pub fn set_writer(&self, writer: Box<dyn Write + Send>) {
        self.lock().writer = Some(writer);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emit an event with no structured fields.
    pub fn emit(&self, level: Level, target: &str, message: String) {
        self.push(level, target, message, Vec::new(), None);
    }

    /// Emit an event with structured fields.
    pub fn emit_with(&self, level: Level, target: &str, message: String, fields: &[(&str, &str)]) {
        let fields = fields
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.push(level, target, message, fields, None);
    }

    fn push(
        &self,
        level: Level,
        target: &str,
        message: String,
        mut fields: Vec<(String, String)>,
        elapsed_nanos: Option<u64>,
    ) {
        let recording = crate::enabled();
        let echo_at = self.echo.load(Ordering::Relaxed);
        let echo = echo_at != 0 && level_code(level) >= echo_at;
        if !recording && !echo {
            return;
        }
        // Link the event to the causal trace current on this thread, so a
        // JSONL line can be joined against the span tree it happened in.
        if recording {
            if let Some(ctx) = crate::trace::current() {
                fields.push(("trace".to_string(), format!("{:016x}", ctx.trace)));
                fields.push(("span".to_string(), format!("{:016x}", ctx.span)));
            }
        }
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            ts_millis: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            level,
            target: target.to_string(),
            message,
            fields,
            elapsed_nanos,
        };
        if echo {
            eprintln!("{}", event.echo_line());
        }
        if recording {
            let mut inner = self.lock();
            if let Some(w) = inner.writer.as_mut() {
                let mut line = event.to_jsonl();
                line.push('\n');
                if w.write_all(line.as_bytes()).is_err() {
                    inner.write_errors += 1;
                }
            }
            if inner.ring.len() >= inner.capacity {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            inner.ring.push_back(event);
        }
    }

    /// Flush the attached writer, if any.
    pub fn flush(&self) {
        let mut inner = self.lock();
        if let Some(w) = inner.writer.as_mut() {
            let _ = w.flush();
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let inner = self.lock();
        let skip = inner.ring.len().saturating_sub(n);
        inner.ring.iter().skip(skip).cloned().collect()
    }

    /// Events recorded so far (ring occupancy).
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// True when nothing is in the ring.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// JSONL write failures so far.
    pub fn write_errors(&self) -> u64 {
        self.lock().write_errors
    }
}

/// A size-capped JSONL writer for `--trace-log`: once `cap` bytes have
/// been written, the live file is rotated to `<path>.1` (replacing any
/// previous rotation) and a fresh file is started — so a long-lived
/// daemon holds at most ~`2 × cap` bytes of trace output instead of
/// filling the disk. Rotation happens on line boundaries (the event log
/// writes whole lines), and a single write larger than the cap still
/// goes through: bounding must never silently drop an event the ring
/// would have kept.
pub struct RotatingWriter {
    path: std::path::PathBuf,
    cap: u64,
    written: u64,
    file: std::fs::File,
}

impl RotatingWriter {
    /// Open (creating/truncating) `path` with a rotation cap of `cap`
    /// bytes (raised to at least 1).
    pub fn create(path: impl Into<std::path::PathBuf>, cap: u64) -> std::io::Result<Self> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        Ok(RotatingWriter {
            path,
            cap: cap.max(1),
            written: 0,
            file,
        })
    }

    /// The rotation target: `<path>.1` alongside the live file.
    pub fn rotated_path(&self) -> std::path::PathBuf {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".1");
        self.path.with_file_name(name)
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        std::fs::rename(&self.path, self.rotated_path())?;
        self.file = std::fs::File::create(&self.path)?;
        self.written = 0;
        Ok(())
    }
}

impl Write for RotatingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.written > 0 && self.written + buf.len() as u64 > self.cap {
            self.rotate()?;
        }
        let n = self.file.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let log = EventLog::new();
        log.set_echo_level(None);
        log.set_capacity(3);
        for i in 0..5 {
            log.emit(Level::Info, "t", format!("m{i}"));
        }
        let recent = log.recent(10);
        assert_eq!(
            recent
                .iter()
                .map(|e| e.message.as_str())
                .collect::<Vec<_>>(),
            ["m2", "m3", "m4"]
        );
        assert_eq!(log.dropped(), 2);
        assert!(recent.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn rotating_writer_caps_and_rotates() {
        let dir = std::env::temp_dir().join(format!("streamtune-rotate-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let mut w = RotatingWriter::create(&path, 32).unwrap();
        let rotated = w.rotated_path();
        // Three 20-byte lines against a 32-byte cap: line 2 rotates line 1
        // out, line 3 rotates line 2 out.
        for i in 0..3 {
            w.write_all(format!("line-{i}-aaaaaaaaaaaa\n").as_bytes())
                .unwrap();
        }
        w.flush().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "line-2-aaaaaaaaaaaa\n"
        );
        assert_eq!(
            std::fs::read_to_string(&rotated).unwrap(),
            "line-1-aaaaaaaaaaaa\n"
        );
        // An oversized single line still goes through (after rotating).
        let big = "x".repeat(64) + "\n";
        w.write_all(big.as_bytes()).unwrap();
        w.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), big);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_escapes_specials() {
        let e = Event {
            seq: 1,
            ts_millis: 0,
            level: Level::Warn,
            target: "a.b".into(),
            message: "he said \"hi\"\nback\\slash".into(),
            fields: vec![("k".into(), "v1\tv2".into())],
            elapsed_nanos: Some(42),
        };
        let line = e.to_jsonl();
        assert!(line.contains(r#"\"hi\""#), "{line}");
        assert!(line.contains(r"\n"), "{line}");
        assert!(line.contains(r"\\slash"), "{line}");
        assert!(line.contains(r#""fields":{"k":"v1\tv2"}"#), "{line}");
        assert!(line.ends_with(r#""elapsed_nanos":42}"#), "{line}");
    }
}
