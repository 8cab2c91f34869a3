//! StreamTune's benchmark: one run drives all three real paths of the
//! system on one workload and prints what a caller sees.
//!
//! * offline pre-train: the Fig. 9b corpus pre-trained on a cold GED
//!   cache, then again on the cache that pass filled;
//! * online tune: one long-lived StreamTune per job over the §V-A rate
//!   schedule on the simulated Flink cluster;
//! * serve request: a `streamtune serve --listen` daemon driven over
//!   loopback by a closed-loop writer (`submit` → `recommend`) and a
//!   closed-loop reader (`health` / `status`).
//!
//! The CPU-bound timings are reported at reference machine speed (see
//! `speed.rs`).
//!
//! Usage: `perfbench --workload nexmark|pqp --seed N --seconds S --trace 0|1
//! --streamtune PATH [--out DIR] [--scale tiny]`. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`, with
//! the end-to-end metrics untraced (`--trace 0`) or the per-layer metrics
//! from a traced run (`--trace 1`). See `perfbench/METRICS.md`.

mod pretrain;
mod serve;
mod spans;
mod speed;
mod stats;
mod tune;

use stats::{median, quantile, supports};
use std::path::PathBuf;
use std::time::Duration;
use streamtune_workloads::rates::Engine;
use streamtune_workloads::{nexmark, pqp, Workload};

/// One named, measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// A workload: the DAG family whose queries are pre-trained on, tuned and
/// served.
pub struct Family {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Whether the corpus includes the named Nexmark queries.
    pub corpus_nexmark: bool,
    /// Whether the corpus includes the PQP template queries.
    pub corpus_pqp: bool,
    /// The jobs tuned on the schedule and submitted to the daemon.
    pub queries: fn() -> Vec<Workload>,
    /// 20-change schedule blocks tuned per job at `--seconds 30`: fewer
    /// where tune calls cost more, so both workloads take about as long.
    pub blocks: usize,
}

/// The benchmark's workloads.
pub const FAMILIES: [Family; 2] = [
    Family {
        name: "nexmark",
        corpus_nexmark: true,
        corpus_pqp: false,
        queries: || nexmark::all(Engine::Flink),
        blocks: 6,
    },
    Family {
        name: "pqp",
        corpus_nexmark: false,
        corpus_pqp: true,
        queries: || {
            (0..2)
                .flat_map(|i| {
                    [
                        pqp::linear_query(i),
                        pqp::two_way_join_query(i),
                        pqp::three_way_join_query(i),
                    ]
                })
                .collect()
        },
        blocks: 3,
    },
];

/// How much work one run does.
struct Scale {
    /// Jobs in the pre-training corpus (2 runs each).
    corpus_jobs: usize,
    /// Measurement rounds; each runs one cold pre-training pass and its
    /// warm passes, its share of the schedule and of the serve traffic.
    rounds: usize,
    /// Warm pre-training passes after each cold one.
    warm_passes: usize,
    /// Corpus generations timed for `setup_s`.
    generations: usize,
    /// Daemon boots timed for `setup_s`.
    boots: usize,
    /// Jobs in the daemon's own boot corpus.
    daemon_jobs: usize,
    /// 20-change schedule blocks tuned per job.
    blocks: usize,
    /// Length of the serve traffic.
    serve: Duration,
    /// Changes per job whose layers are probed one by one (traced run).
    probes: usize,
}

impl Scale {
    fn new(family: &Family, seconds: u64, tiny: bool) -> Scale {
        if tiny {
            return Scale {
                corpus_jobs: 30,
                rounds: 2,
                warm_passes: 1,
                generations: 2,
                boots: 1,
                daemon_jobs: 12,
                blocks: 1,
                serve: Duration::from_millis(1500),
                probes: 1,
            };
        }
        Scale {
            corpus_jobs: 200,
            rounds: 8,
            warm_passes: 2,
            generations: 9,
            boots: 9,
            daemon_jobs: 60,
            blocks: (family.blocks * seconds as usize / 30).max(1),
            serve: Duration::from_secs_f64(seconds as f64 * 0.42),
            probes: 2,
        }
    }
}

struct Args {
    family: &'static Family,
    seed: u64,
    seconds: u64,
    trace: bool,
    streamtune: PathBuf,
    out: PathBuf,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |key: &str| get(key).ok_or(format!("missing {key}"));
    let workload = need("--workload")?;
    let family = FAMILIES
        .iter()
        .find(|f| f.name == workload)
        .ok_or(format!("unknown workload {workload:?}"))?;
    let number = |key: &str| -> Result<u64, String> {
        need(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let tiny = match get("--scale") {
        None | Some("full") => false,
        Some("tiny") => true,
        Some(other) => return Err(format!("--scale must be full or tiny, got {other:?}")),
    };
    Ok(Args {
        family,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
        streamtune: PathBuf::from(need("--streamtune")?),
        out: PathBuf::from(get("--out").unwrap_or(".bench_build/perfbench")),
        tiny,
    })
}

/// Failed and attempted operations of one path.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let family = args.family;
    let scale = Scale::new(family, args.seconds, args.tiny);
    let seed = args.seed;
    let jobs = (family.queries)();
    let sched = tune::schedules(seed, jobs.len(), scale.blocks);

    // Set-up: the corpus the offline path trains on, and the daemon the
    // serve path talks to. Both are repeated and the medians reported, at
    // reference speed like every CPU-bound timing.
    let mut gauge = speed::Gauge::start();
    let generate_s = pretrain::generate_s(family, scale.corpus_jobs, scale.generations);
    let generate_factor = gauge.factor();
    let mut boot_s = Vec::new();
    let mut daemon = None;
    for _ in 0..scale.boots {
        if let Some(d) = daemon.take() {
            serve::Daemon::shutdown(d)?;
        }
        let (d, s) =
            serve::Daemon::boot(&args.streamtune, pretrain::WORLD_SEED, scale.daemon_jobs)?;
        boot_s.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one boot");
    let raw_setup_s = generate_s + median(&boot_s);
    let setup_s = generate_s * generate_factor + median(&boot_s) * gauge.factor();
    let records = pretrain::corpus(family, scale.corpus_jobs);
    let cluster = pretrain::world();
    let rec = args.trace.then(spans::Recorder::default);

    // The measurement runs in rounds, each doing a share of every path, so
    // that a slow stretch of the machine touches every metric a little
    // rather than one metric a lot. Every CPU-bound piece of work is
    // bracketed by kernel runs (see `speed.rs`).
    let first = pretrain::cold_then_warm(&records, scale.warm_passes, None, Some(&mut gauge));
    let mut schedule = tune::Schedule::new(&first.model, &jobs, &sched, &cluster, None);
    let changes_per_round = (20 * scale.blocks).div_ceil(scale.rounds);
    let slice = scale.serve / scale.rounds as u32;
    let mut later = Vec::new();
    let mut mix = serve::MixRun::default();
    for round in 0..scale.rounds {
        if round > 0 {
            later.push(pretrain::cold_then_warm(
                &records,
                scale.warm_passes,
                None,
                Some(&mut gauge),
            ));
        }
        gauge.rebase();
        schedule.advance(changes_per_round, Some(&mut gauge));
        mix.absorb(serve::run_mix(
            &daemon,
            &jobs,
            seed,
            mix.pairs,
            slice,
            rec.as_ref(),
        )?);
    }
    let tuned = schedule.finish();
    let pairs: Vec<&pretrain::PretrainRun> = std::iter::once(&first).chain(&later).collect();
    // Wall times as measured (`raw_*`) and at reference speed; the
    // end-to-end metrics use the latter.
    let raw_cold_s: Vec<f64> = pairs.iter().map(|p| p.cold_s).collect();
    let raw_warm_s: Vec<f64> = pairs.iter().flat_map(|p| p.warm_s.clone()).collect();
    let cold_s: Vec<f64> = pairs.iter().map(|p| p.cold_ref_s).collect();
    let warm_s: Vec<f64> = pairs.iter().flat_map(|p| p.warm_ref_s.clone()).collect();
    let raw_tune_ms = &tuned.tune_ms;
    let tune_ms = &tuned.tune_ref_ms;
    let kernel_s = &gauge.samples;

    let mut metrics = Vec::new();
    let mut pretrain_tally = Tally {
        attempted: pairs.iter().map(|p| p.passes() as u64).sum(),
        failed: pairs.iter().map(|p| p.warm_failed as u64).sum(),
    };
    let mut tune_tally = Tally {
        attempted: tuned.changes() as u64,
        failed: tuned.failed,
    };
    let mut correct = pretrain_tally.failed == 0;
    if let Some(rec) = &rec {
        // One pre-training pair and the whole schedule again, with every
        // layer call in a span; the difference is the tracing overhead.
        let (traced_records, gen_ms) = rec.time("workloads.generate", 0, None, || {
            pretrain::corpus(family, scale.corpus_jobs)
        });
        let pre_traced = pretrain::cold_then_warm(&traced_records, 1, Some(rec), None);
        let mut traced = tune::Schedule::new(&first.model, &jobs, &sched, &cluster, Some(rec));
        traced.advance(20 * scale.blocks, None);
        let tuned_traced = traced.finish();
        metrics.push(Metric::new(
            "workloads.generate_ms",
            "ms",
            gen_ms.as_secs_f64() * 1e3,
        ));
        metrics.extend(pretrain::layers(&records, &pre_traced, rec));
        metrics.extend(tune::layers(
            &first.model,
            &cluster,
            &jobs,
            &sched,
            scale.probes,
            &tuned_traced,
            rec,
        ));
        metrics.extend(serve::layers(&daemon, &mix, rec)?);
        metrics.push(Metric::new(
            "machine.kernel_ms",
            "ms",
            median(kernel_s) * 1e3,
        ));
        metrics.push(Metric::new(
            "trace.overhead_pretrain_s",
            "s",
            pre_traced.cold_s - median(&raw_cold_s),
        ));
        metrics.push(Metric::new(
            "trace.overhead_tune_ms_p50",
            "ms",
            median(&tuned_traced.tune_ms) - median(raw_tune_ms),
        ));
        correct &= pre_traced.holds()
            && tuned_traced.reconfigurations == tuned.reconfigurations
            && tuned_traced.backpressure == tuned.backpressure;
        pretrain_tally.attempted += pre_traced.passes() as u64;
        pretrain_tally.failed += pre_traced.warm_failed as u64;
        tune_tally.attempted += tuned_traced.changes() as u64;
        tune_tally.failed += tuned_traced.failed;
        let path = args.out.join(format!("spans-{}-{seed}.jsonl", family.name));
        rec.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    } else {
        let changes = tuned.changes() as f64;
        metrics.extend([
            Metric::new("setup_s", "s", setup_s),
            Metric::new("pretrain_s", "s", median(&cold_s)),
            Metric::new("retrain_s", "s", median(&warm_s)),
            Metric::new("tune_ms_p50", "ms", median(tune_ms)),
            Metric::new("tune_ms_p90", "ms", quantile(tune_ms, 0.9)),
            Metric::new(
                "reconfigs_per_change",
                "count",
                tuned.reconfigurations as f64 / changes,
            ),
            Metric::new(
                "parallelism_over_oracle",
                "ratio",
                stats::mean(&tuned.over_oracle),
            ),
            Metric::new(
                "backpressure_per_change",
                "count",
                tuned.backpressure as f64 / changes,
            ),
            Metric::new("read_rtt_ms_p50", "ms", median(&mix.read_ms)),
            Metric::new("read_rtt_ms_p95", "ms", quantile(&mix.read_ms, 0.95)),
            Metric::new(
                "submit_recommend_ms_p50",
                "ms",
                median(&mix.submit_recommend_ms),
            ),
            Metric::new(
                "submit_recommend_ms_p90",
                "ms",
                quantile(&mix.submit_recommend_ms, 0.9),
            ),
            Metric::new("serve_rps", "1/s", mix.requests as f64 / mix.seconds),
        ]);
        for (name, n, q) in [
            ("tune_ms_p90", tuned.tune_ms.len(), 0.9),
            ("read_rtt_ms_p95", mix.read_ms.len(), 0.95),
            (
                "submit_recommend_ms_p90",
                mix.submit_recommend_ms.len(),
                0.9,
            ),
        ] {
            if !supports(n, q) && !args.tiny {
                eprintln!("perfbench: warning: {name} rests on only {n} samples");
            }
        }
    }
    serve::Daemon::shutdown(daemon)?;
    let serve_tally = Tally {
        attempted: mix.requests,
        failed: mix.failed,
    };
    for e in &mix.errors {
        eprintln!("perfbench: serve: {e}");
    }
    correct &= metrics.iter().all(|m| m.value.is_finite());

    println!(
        "workload {} seed {seed}: {} corpus records, {} rounds, {} changes × {} jobs, \
         {} requests in {:.1} s",
        family.name,
        records.len(),
        scale.rounds,
        20 * scale.blocks,
        jobs.len(),
        mix.requests,
        mix.seconds
    );
    for (path, t) in [
        ("pretrain", &pretrain_tally),
        ("tune", &tune_tally),
        ("serve", &serve_tally),
    ] {
        println!(
            "failed_share.{path:<8} {:>10.6} share ({} of {})",
            t.failed as f64 / t.attempted.max(1) as f64,
            t.failed,
            t.attempted
        );
    }
    println!(
        "wall clock as measured: setup {:.6} s, pretrain {:.6} s, retrain {:.6} s, \
         tune p50 {:.6} ms, p90 {:.6} ms; reference kernel {:.3} ms (reference speed: {:.3} ms)",
        raw_setup_s,
        median(&raw_cold_s),
        median(&raw_warm_s),
        median(raw_tune_ms),
        quantile(raw_tune_ms, 0.9),
        median(kernel_s) * 1e3,
        speed::REFERENCE_S * 1e3
    );
    for m in &metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let attempted = pretrain_tally.attempted + tune_tally.attempted + serve_tally.attempted;
    let failed = pretrain_tally.failed + tune_tally.failed + serve_tally.failed;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}
