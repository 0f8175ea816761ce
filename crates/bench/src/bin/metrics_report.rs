//! Fig 9.2 runs with the observability layer enabled: per-implementation
//! metrics breakdown (total cycles, bus utilization, request→ack latency
//! histogram, wait states) plus the full metrics registry as JSON.
//!
//! Usage:
//!
//! ```text
//! metrics_report [--metrics <file.json>] [--no-json]
//! ```
//!
//! The aligned table always prints. The combined JSON document (one object
//! per implementation) goes to stdout unless `--no-json` is given, and to
//! `<file.json>` when `--metrics` is given. `SPLICE_TRACE=1|2` additionally
//! fills the event log inside each registry dump.

use splice_bench::{json_escape, table};
use splice_devices::eval::{InterpImpl, InterpRunner};
use splice_devices::interp::{reference_result, Scenario};

struct ImplReport {
    label: &'static str,
    total_cycles: u64,
    txns: u64,
    wait_states: u64,
    utilization_pct: f64,
    latency_summary: String,
    latency_mean: f64,
    registry_json: String,
}

fn run_one(imp: InterpImpl) -> ImplReport {
    let mut runner = InterpRunner::build(imp);
    runner.sim_mut().metrics_mut().enable();

    let mut total_cycles = 0u64;
    for s in Scenario::all() {
        let (cycles, result) = runner.run(s);
        assert_eq!(result, reference_result(s), "{imp:?} {s:?} wrong result");
        total_cycles += cycles;
    }

    let m = runner.sim().metrics();
    let txns = m.counter("plb.master.txns");
    // Wait states: cycles the master spent waiting on an acknowledge. The
    // dead cycles an adapter or hand-coded slave inserts fall inside those
    // request→ack intervals, so they are already counted here.
    let wait_states = m.counter("plb.master.wait_cycles");
    let (latency_summary, latency_mean, active) = match m.histogram("plb.master.req_ack_latency") {
        Some(h) => (h.summary(), h.mean(), h.sum()),
        None => ("-".to_string(), 0.0, 0),
    };
    // Bus utilization: fraction of simulated cycles the bus was occupied by
    // an in-flight transaction (request asserted, acknowledge not yet seen).
    let utilization_pct = if total_cycles > 0 {
        (active as f64 / total_cycles as f64 * 100.0).min(100.0)
    } else {
        0.0
    };

    ImplReport {
        label: imp.label(),
        total_cycles,
        txns,
        wait_states,
        utilization_pct,
        latency_summary,
        latency_mean,
        registry_json: m.to_json(),
    }
}

fn combined_json(reports: &[ImplReport]) -> String {
    let mut out = String::from("{\"experiment\":\"metrics_report\",\"implementations\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"total_cycles\":{},\"bus_txns\":{},\
             \"wait_state_cycles\":{},\"bus_utilization_pct\":{:.2},\
             \"req_ack_latency_mean\":{:.2},\"metrics\":{}}}",
            json_escape(r.label),
            r.total_cycles,
            r.txns,
            r.wait_states,
            r.utilization_pct,
            r.latency_mean,
            r.registry_json,
        ));
    }
    out.push_str("]}");
    out
}

fn main() {
    let mut metrics_file: Option<String> = None;
    let mut print_json = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics" => {
                metrics_file = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--metrics needs a file argument");
                    std::process::exit(2);
                }));
            }
            "--no-json" => print_json = false,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: metrics_report [--metrics <file.json>] [--no-json]");
                std::process::exit(2);
            }
        }
    }

    let reports: Vec<ImplReport> = InterpImpl::all().into_iter().map(run_one).collect();

    let headers = [
        "implementation",
        "cycles",
        "txns",
        "wait states",
        "bus util %",
        "req→ack latency (floor:count)",
    ];
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.total_cycles.to_string(),
                r.txns.to_string(),
                r.wait_states.to_string(),
                format!("{:.1}", r.utilization_pct),
                r.latency_summary.clone(),
            ]
        })
        .collect();
    println!("Fig 9.2 runs with metrics enabled — per-implementation breakdown");
    println!("(all four scenarios per implementation; latency histogram is log2-bucketed)\n");
    print!("{}", table(&headers, &rows));

    let json = combined_json(&reports);
    if let Some(path) = metrics_file {
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("\nmetrics JSON written to {path}");
    }
    if print_json {
        println!("\n{json}");
    }
}
