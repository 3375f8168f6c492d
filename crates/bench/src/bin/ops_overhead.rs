//! The live ops plane's share of the serve-path p99.
//!
//! The ops plane adds per-request work to `/decide`: minting or
//! validating a trace id, a windowed-histogram record, three SLO
//! counter updates, and one flight-recorder push (a handful of relaxed
//! atomic stores). This bench asserts that this work stays under 5% of
//! the serve-path p99, i.e. the plane can never be the reason a
//! latency SLO burns:
//!
//! 1. **Serve p99**: the same toy policy is served (as a one-tenant
//!    fleet, the way `serve --policy` does, ops plane on) in `2 ×
//!    trials` fresh trials, and client-observed latencies are pooled
//!    separately over the even- and the odd-numbered trials. The
//!    budget is the smaller of the two p99s, so a noisy half cannot
//!    make the budget easier to meet.
//! 2. **Instruments**: the exact per-decision instrument sequence the
//!    serve handler runs (flight-record build + ring push, windowed
//!    record, SLO updates) is timed in process in a tight loop. Its
//!    p99 is the asserted numerator.
//!
//! Results land in `BENCH_ops_overhead.json`.
//!
//! ```sh
//! cargo run --release -p hvac-bench --bin ops_overhead [--paper] [--csv]
//! ```

use hvac_bench::{fmt, parse_options, Scale, Table};
use hvac_telemetry::http::blocking_request;
use hvac_telemetry::json::ObjectWriter;
use hvac_telemetry::{FlightRecord, FlightRecorder, SloConfig, SloTracker, WindowedHistogram};
use std::time::Instant;
use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::{DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{ActionSpace, SetpointAction, POLICY_INPUT_DIM};
use veri_hvac::{serve_fleet, Fleet, FleetOptions};

/// The serve tests' toy tree: cold zones heat hard, warm zones idle.
fn toy_policy() -> DtPolicy {
    let space = ActionSpace::new();
    let heat = space.index_of(SetpointAction::new(23, 30).unwrap());
    let off = space.index_of(SetpointAction::off());
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..20 {
        let temp = 14.0 + f64::from(i) * 0.5;
        let mut row = vec![0.0; POLICY_INPUT_DIM];
        row[feature::ZONE_TEMPERATURE] = temp;
        inputs.push(row);
        labels.push(if temp < 20.0 { heat } else { off });
    }
    let tree = DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap();
    DtPolicy::new(tree).unwrap()
}

/// Fires `n` decisions at a freshly served policy and returns the
/// client-observed per-request latencies in microseconds (unsorted).
fn time_trial(n: usize) -> Vec<f64> {
    let fleet = Fleet::new(FleetOptions::default());
    fleet
        .add_tenant("default", toy_policy(), None)
        .expect("tenant");
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    for _ in 0..20 {
        let (status, _) =
            blocking_request(addr, "POST", "/decide", r#"{"zone_temperature":18.0}"#).unwrap();
        assert_eq!(status, 200);
    }
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let body = format!(r#"{{"zone_temperature":{}}}"#, 14 + i % 12);
        let started = Instant::now();
        let (status, _) = blocking_request(addr, "POST", "/decide", &body).unwrap();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        assert_eq!(status, 200);
    }
    server.shutdown();
    samples
}

/// The `q`-quantile of an ascending sample vector.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times the per-decision instrument sequence the serve handler runs —
/// flight-record build + push, windowed record, three SLO updates —
/// and returns per-iteration nanoseconds, sorted ascending.
fn time_instruments(iterations: usize) -> Vec<f64> {
    let ring = FlightRecorder::new(256);
    let window = WindowedHistogram::new(
        &[1_000, 10_000, 100_000, 1_000_000, 10_000_000],
        60_000_000_000,
        12,
    );
    let slo = SloTracker::new(SloConfig::default());
    let mut samples = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let now_ns = i as u64 * 1_000;
        let started = Instant::now();
        window.record_at(now_ns, 75_000);
        slo.record_decide_at(now_ns, 75_000);
        slo.record_guard_at(now_ns, 0);
        slo.record_response_at(now_ns, 200);
        ring.push(&FlightRecord {
            trace_id: format!("srv-{i:016x}"),
            t_ns: now_ns,
            parse_ns: 2_000,
            decide_ns: 1_000,
            audit_ns: 0,
            guard_state: 0,
            heating_centi: 2_300,
            cooling_centi: 3_000,
            http_status: 200,
        });
        samples.push(started.elapsed().as_secs_f64() * 1e9);
    }
    samples.sort_by(f64::total_cmp);
    samples
}

fn main() {
    let options = parse_options();
    let (trials, per_trial) = match options.scale {
        Scale::Reduced => (4, 100),
        Scale::Paper => (8, 250),
    };
    let decisions = trials * per_trial;

    // Alternate the halves trial by trial so machine drift (thermal,
    // cache, other tenants) lands on both symmetrically.
    let mut halves = [Vec::with_capacity(decisions), Vec::with_capacity(decisions)];
    for trial in 0..2 * trials {
        eprintln!("trial {}/{}", trial + 1, 2 * trials);
        halves[trial % 2].extend(time_trial(per_trial));
    }
    for half in &mut halves {
        half.sort_by(f64::total_cmp);
    }

    let mut table = Table::new(
        "Serve latency per decision, ops plane on (client-observed, loopback HTTP)",
        &["trials", "p50_us", "p99_us", "max_us"],
    );
    for (label, half) in ["even", "odd"].iter().zip(&halves) {
        table.push_row(vec![
            label.to_string(),
            fmt(percentile(half, 0.50), 1),
            fmt(percentile(half, 0.99), 1),
            fmt(*half.last().unwrap(), 1),
        ]);
    }
    table.emit("ops_overhead", &options);
    let [p99_even, p99_odd] = halves.each_ref().map(|h| percentile(h, 0.99));

    // The asserted number: the instrument sequence itself, in-process.
    let instrument_iterations = match options.scale {
        Scale::Reduced => 50_000,
        Scale::Paper => 200_000,
    };
    let instruments = time_instruments(instrument_iterations);
    let instr_p50_ns = percentile(&instruments, 0.50);
    let instr_p99_ns = percentile(&instruments, 0.99);
    // Budget against the better (smaller) of the two halves' p99s so a
    // noisy half cannot make the budget easier to meet.
    let serve_p99_ns = p99_even.min(p99_odd) * 1_000.0;
    let instr_share_pct = 100.0 * instr_p99_ns / serve_p99_ns;
    println!(
        "\nper-decision instruments (in-process, {instrument_iterations} iterations): \
         p50 {instr_p50_ns:.0} ns, p99 {instr_p99_ns:.0} ns = {instr_share_pct:.2}% of \
         serve p99 ({decisions} decisions x 2 halves, {trials} trials each)"
    );

    let mut json = ObjectWriter::new();
    json.str_field("bench", "ops_overhead");
    json.str_field("scale", options.scale.label());
    json.u64_field("decisions", decisions as u64);
    json.u64_field("trials", trials as u64);
    json.f64_field("p99_even_us", p99_even);
    json.f64_field("p99_odd_us", p99_odd);
    json.u64_field("instrument_iterations", instrument_iterations as u64);
    json.f64_field("instrument_p50_ns", instr_p50_ns);
    json.f64_field("instrument_p99_ns", instr_p99_ns);
    json.f64_field("instrument_share_of_serve_p99_pct", instr_share_pct);
    json.bool_field("p99_within_5pct", instr_share_pct < 5.0);
    let body = json.finish();
    let path = "BENCH_ops_overhead.json";
    std::fs::write(path, format!("{body}\n")).expect("write bench json");
    println!("wrote {path}");

    assert!(
        instr_share_pct < 5.0,
        "ops-plane instruments' p99 ({instr_p99_ns:.0} ns) exceed 5% of the serve-path \
         p99 ({serve_p99_ns:.0} ns)"
    );
}
