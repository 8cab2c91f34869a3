//! E-T2 — Reproduces paper Table II: source-rate units of the streaming
//! jobs, per engine, plus this reproduction's calibrated PQP units.

use streamtune_bench::harness::print_table;
use streamtune_workloads::rates::{nexmark_units, pqp_unit, Engine, BASE_CYCLE};

fn fmt_rate(r: f64) -> String {
    if r == 0.0 {
        "/".into()
    } else if r >= 1e6 {
        format!("{}M", r / 1e6)
    } else {
        format!("{}K", r / 1e3)
    }
}

fn main() {
    let mut rows = Vec::new();
    for q in ["q1", "q2", "q3", "q5", "q8"] {
        let (bf, af, pf) = nexmark_units(q, Engine::Flink);
        let (bt, at, pt) = nexmark_units(q, Engine::Timely);
        rows.push(vec![
            format!("(Nexmark){}", q.to_uppercase()),
            fmt_rate(bf),
            fmt_rate(bt),
            fmt_rate(af),
            fmt_rate(at),
            fmt_rate(pf),
            fmt_rate(pt),
        ]);
    }
    for t in ["linear", "2-way-join", "3-way-join"] {
        rows.push(vec![
            format!("(PQP){t}"),
            "/".into(),
            "/".into(),
            "/".into(),
            "/".into(),
            "/".into(),
            fmt_rate(pqp_unit(t)),
        ]);
    }
    print_table(
        "Table II — Source Rate Units (Wu) of Different Streaming Jobs",
        &[
            "Job",
            "Bids/Flink",
            "Bids/Timely",
            "Auctions/Flink",
            "Auctions/Timely",
            "Persons/Flink",
            "Persons-or-PQP",
        ],
        &rows,
    );
    println!(
        "\nPeriodic base cycle (×Wu): {:?}  (replicated to 20 steps, 6 permutations → 120 changes)",
        BASE_CYCLE
    );
    println!(
        "PQP units are calibrated ×100 vs the paper (ratio 20:2:1 preserved): \
         the simulated operators process more per core than the paper's testbed."
    );
}
