//! The serve path: a `streamtune serve --listen` daemon driven over
//! loopback by a closed-loop writer and a closed-loop reader.

use crate::spans::Recorder;
use crate::stats::median;
use crate::Metric;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamtune_serve::{parse_request, render_response, Response};
use streamtune_sim::SimCluster;
use streamtune_workloads::Workload;

/// Longest any one reply may take before it counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest a daemon may take to boot or to exit after `shutdown`.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(120);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// The thread draining the daemon's stderr; it ends when the process does.
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Start `streamtune serve` on an ephemeral loopback port with one
    /// worker thread; returns once it listens, with the boot time in seconds.
    pub fn boot(bin: &Path, seed: u64, jobs: usize) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--fast",
            ])
            .args(["--jobs", &jobs.to_string(), "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains the daemon's log for its whole life so it never blocks on
        // a full pipe; ends at EOF when the process exits.
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: Some(log),
        };
        loop {
            let line = rx
                .recv_timeout(PROCESS_TIMEOUT.saturating_sub(t.elapsed()))
                .map_err(|_| "daemon exited or stalled before listening".to_string())?;
            if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                return Ok((daemon, t.elapsed().as_secs_f64()));
            }
        }
    }

    /// Open a client session.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr)
    }

    /// Ask the daemon to stop and wait until it has exited.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.connect()?.call("\"shutdown\"")?.0;
        if !matches!(reply, Response::ShuttingDown) {
            return Err(format!("unexpected shutdown reply {reply:?}"));
        }
        let t = Instant::now();
        while t.elapsed() < PROCESS_TIMEOUT {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

/// One client session. Each request goes out in a single write.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read its reply; returns the parsed reply,
    /// its raw line and the round-trip time.
    pub fn call(&mut self, request: &str) -> Result<(Response, String, Duration), String> {
        let t = Instant::now();
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Err("connection closed".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("no reply: {e}")),
        }
        let rtt = t.elapsed();
        let line = line.trim_end().to_string();
        let reply: Response =
            serde_json::from_str(&line).map_err(|e| format!("unparseable reply: {e}"))?;
        Ok((reply, line, rtt))
    }
}

/// Rate multipliers each query is submitted at.
const MULTIPLIERS: [f64; 3] = [4.0, 7.0, 10.0];
/// Copies of every (query, multiplier) pair, each with its own job seed.
const REPLICAS: u64 = 8;

/// The jobs the writer submits: every query at every multiplier,
/// `REPLICAS` times with distinct fixed job seeds, in an order shuffled
/// by `seed`. The set of jobs is the same for every seed, so the work is
/// too; only its order changes.
fn catalog(queries: &[Workload], seed: u64) -> Vec<(&Workload, f64, u64)> {
    let mut jobs = Vec::new();
    for _ in 0..REPLICAS {
        for &m in &MULTIPLIERS {
            for q in queries {
                let job_seed = 1000 + jobs.len() as u64;
                jobs.push((q, m, job_seed));
            }
        }
    }
    let mut state = seed;
    for i in (1..jobs.len()).rev() {
        state = splitmix64(state);
        jobs.swap(i, (state % (i as u64 + 1)) as usize);
    }
    jobs
}

/// One step of the splitmix64 generator.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the mixed traffic produced.
#[derive(Default)]
pub struct MixRun {
    /// Round-trip times of `health` and `status`, in milliseconds.
    pub read_ms: Vec<f64>,
    /// `health` round trips alone, in milliseconds.
    pub health_ms: Vec<f64>,
    /// Time from sending `submit` to receiving the `recommend` reply, ms.
    pub submit_recommend_ms: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Jobs the writer submitted and recommended.
    pub pairs: usize,
    /// Requests whose reply was an error, `overloaded`, missing, or a
    /// recommendation that is backpressured on the job's own cluster.
    pub failed: u64,
    /// Wall time of the mix, in seconds.
    pub seconds: f64,
    /// Every request line sent and raw reply line received.
    pub lines: Vec<(String, String)>,
    /// Problems worth printing (first few only).
    pub errors: Vec<String>,
}

impl MixRun {
    /// Add `other`'s samples and counts to this run's.
    pub fn absorb(&mut self, other: MixRun) {
        self.read_ms.extend(other.read_ms);
        self.health_ms.extend(other.health_ms);
        self.submit_recommend_ms.extend(other.submit_recommend_ms);
        self.requests += other.requests;
        self.pairs += other.pairs;
        self.seconds += other.seconds;
        self.failed += other.failed;
        self.lines.extend(other.lines);
        self.errors.extend(other.errors);
    }

    /// Count one request and classify its reply.
    fn record(&mut self, request: &str, result: &Result<(Response, String, Duration), String>) {
        self.requests += 1;
        match result {
            Ok((Response::Error { message }, line, _)) => {
                self.failed += 1;
                self.note(format!("{request} -> error {message}"));
                self.lines.push((request.to_string(), line.clone()));
            }
            Ok((Response::Overloaded { .. }, line, _)) => {
                self.failed += 1;
                self.note(format!("{request} -> overloaded"));
                self.lines.push((request.to_string(), line.clone()));
            }
            Ok((_, line, _)) => self.lines.push((request.to_string(), line.clone())),
            Err(e) => {
                self.failed += 1;
                self.note(format!("{request} -> {e}"));
            }
        }
    }

    fn note(&mut self, message: String) {
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Run the writer and the reader side by side for `duration`. The writer
/// starts at entry `first` of the seed's job catalogue.
pub fn run_mix(
    daemon: &Daemon,
    queries: &[Workload],
    seed: u64,
    first: usize,
    duration: Duration,
    rec: Option<&Recorder>,
) -> Result<MixRun, String> {
    let start = Instant::now();
    let deadline = start + duration;
    let mut writer_client = daemon.connect()?;
    let mut reader_client = daemon.connect()?;
    let (writes, reads) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&mut writer_client, queries, seed, first, deadline, rec));
        let r = s.spawn(|| reader(&mut reader_client, first, deadline, rec));
        (w.join(), r.join())
    });
    let mut run = writes.map_err(|_| "writer panicked".to_string())?;
    run.absorb(reads.map_err(|_| "reader panicked".to_string())?);
    run.seconds = start.elapsed().as_secs_f64();
    Ok(run)
}

/// Closed loop: `submit` a job, then `recommend` it, and check the
/// recommendation on the job's own simulated cluster.
fn writer(
    client: &mut Client,
    queries: &[Workload],
    seed: u64,
    first: usize,
    deadline: Instant,
    rec: Option<&Recorder>,
) -> MixRun {
    let mut run = MixRun::default();
    let jobs = catalog(queries, seed);
    let mut i = first;
    while Instant::now() < deadline {
        let (query, multiplier, job_seed) = jobs[i % jobs.len()];
        let name = format!("w{i}");
        let submit = format!(
            "{{\"submit\": {{\"name\": \"{name}\", \"query\": \"{}\", \"multiplier\": {multiplier:?}, \
             \"seed\": {job_seed}, \"engine\": \"flink\", \"backend\": \"sim\"}}}}",
            query.name
        );
        let recommend = format!("{{\"recommend\": {{\"job\": \"{name}\"}}}}");
        let t = Instant::now();
        let span = rec.map(|r| r.open("serve.submit_recommend", 2 * i as u64, None));
        let submitted = traced_call(client, &submit, rec, "serve.submit", 2 * i as u64, span);
        run.record(&submit, &submitted);
        let recommended = traced_call(
            client,
            &recommend,
            rec,
            "serve.recommend",
            2 * i as u64 + 1,
            span,
        );
        if let (Some(r), Some(id)) = (rec, span) {
            r.close(id);
        }
        run.submit_recommend_ms
            .push(t.elapsed().as_secs_f64() * 1e3);
        run.record(&recommend, &recommended);
        if let Ok((Response::Recommendation(r), _, _)) = &recommended {
            let flow = query.at(multiplier);
            let assignment =
                streamtune_dataflow::ParallelismAssignment::try_from_vec(r.degrees.clone());
            let ok = assignment.is_ok_and(|a| {
                a.as_slice().len() == flow.num_ops()
                    && !SimCluster::flink_defaults(job_seed)
                        .simulate(&flow, &a)
                        .observation
                        .job_backpressure
            });
            if !ok {
                run.failed += 1;
                run.note(format!(
                    "{name}: recommendation {:?} is backpressured",
                    r.degrees
                ));
            }
        } else if recommended.is_ok() {
            run.failed += 1;
            run.note(format!("{name}: recommend did not return a recommendation"));
        }
        i += 1;
        run.pairs += 1;
    }
    run
}

/// Closed loop alternating `health` and `status`.
fn reader(client: &mut Client, first: usize, deadline: Instant, rec: Option<&Recorder>) -> MixRun {
    let mut run = MixRun::default();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let health = i.is_multiple_of(2);
        let request = if health { "\"health\"" } else { "\"status\"" };
        let result = traced_call(
            client,
            request,
            rec,
            "serve.read",
            1 << 40 | (first as u64) << 20 | i,
            None,
        );
        if let Ok((_, _, rtt)) = &result {
            let ms = rtt.as_secs_f64() * 1e3;
            run.read_ms.push(ms);
            if health {
                run.health_ms.push(ms);
            }
        }
        run.record(request, &result);
        i += 1;
    }
    run
}

fn traced_call(
    client: &mut Client,
    request: &str,
    rec: Option<&Recorder>,
    name: &'static str,
    trace: u64,
    parent: Option<usize>,
) -> Result<(Response, String, Duration), String> {
    match rec {
        Some(r) => r.time(name, trace, parent, || client.call(request)).0,
        None => client.call(request),
    }
}

/// Per-layer metrics of the serve path: connect time, the daemon's own
/// request-duration and lock-wait histograms (read through `metrics`),
/// and the protocol codec timed on the run's own lines.
pub fn layers(daemon: &Daemon, run: &MixRun, rec: &Recorder) -> Result<Vec<Metric>, String> {
    for i in 0..20 {
        let (client, _) = rec.time("serve.connect", 1 << 41 | i, None, || daemon.connect());
        drop(client?);
    }
    let mut client = daemon.connect()?;
    let registry = match client.call("\"metrics\"")?.0 {
        Response::Metrics(v) => v,
        other => return Err(format!("unexpected metrics reply {other:?}")),
    };
    let shed = match client.call("\"health\"")?.0 {
        Response::Health(h) => h.sessions_shed + h.deadlines_expired,
        other => return Err(format!("unexpected health reply {other:?}")),
    };
    let handle_us = |verb: &str| {
        histogram(
            &registry,
            "streamtune_request_duration_nanoseconds",
            Some(verb),
        )
        .map_or(f64::NAN, |h| h.quantile(0.5) / 1e3)
    };
    let lock_wait_us_p95 = histogram(&registry, "streamtune_lock_wait_nanoseconds", None)
        .map_or(f64::NAN, |h| h.quantile(0.95) / 1e3);
    let (parse, render) = codec_us(&run.lines, rec);
    Ok(vec![
        Metric::new(
            "serve.connect_ms",
            "ms",
            median(&rec.durations_ms("serve.connect")),
        ),
        Metric::new("serve.handle_us.health", "us", handle_us("health")),
        Metric::new("serve.handle_us.status", "us", handle_us("status")),
        Metric::new("serve.handle_us.submit", "us", handle_us("submit")),
        Metric::new("serve.handle_us.recommend", "us", handle_us("recommend")),
        Metric::new("serve.lock_wait_us_p95", "us", lock_wait_us_p95),
        Metric::new(
            "serve.transport_ms",
            "ms",
            median(&run.health_ms) - handle_us("health") / 1e3,
        ),
        Metric::new("serve.parse_us", "us", parse),
        Metric::new("serve.render_us", "us", render),
        Metric::new("serve.shed", "count", shed as f64),
    ])
}

/// Median time to parse one request line and to render one reply, in µs,
/// timed on the run's own lines.
fn codec_us(lines: &[(String, String)], rec: &Recorder) -> (f64, f64) {
    for (i, (request, reply)) in lines.iter().enumerate() {
        let trace = 1 << 42 | i as u64;
        let _ = rec.time("serve.parse", trace, None, || parse_request(request));
        if let Ok(response) = serde_json::from_str::<Response>(reply) {
            rec.time("serve.render", trace, None, || render_response(&response));
        }
    }
    (
        median(&rec.durations_ms("serve.parse")) * 1e3,
        median(&rec.durations_ms("serve.render")) * 1e3,
    )
}

/// One histogram series of the `metrics` payload, rebuilt from its buckets.
fn histogram(
    registry: &serde::Value,
    name: &str,
    verb: Option<&str>,
) -> Option<streamtune_telemetry::HistogramSnapshot> {
    let series = registry.field("metrics").ok()?;
    let serde::Value::Array(series) = series else {
        return None;
    };
    let entry = series.iter().find(|m| {
        m.field("name").ok() == Some(&serde::Value::String(name.to_string()))
            && verb.is_none_or(|v| {
                m.field("labels").and_then(|l| l.field("verb")).ok()
                    == Some(&serde::Value::String(v.to_string()))
            })
    })?;
    let mut snapshot = streamtune_telemetry::HistogramSnapshot::empty();
    let serde::Value::Array(buckets) = entry.field("buckets").ok()? else {
        return None;
    };
    for bucket in buckets {
        let index = match bucket.index(0).ok()? {
            serde::Value::U64(le) => (0..streamtune_telemetry::HISTOGRAM_BUCKETS)
                .find(|&i| streamtune_telemetry::bucket_upper_bound(i) == Some(*le))?,
            _ => streamtune_telemetry::HISTOGRAM_BUCKETS - 1,
        };
        let serde::Value::U64(count) = bucket.index(1).ok()? else {
            return None;
        };
        snapshot.buckets[index] += count;
        snapshot.count += count;
    }
    Some(snapshot)
}
