//! Open-loop load against a running `veri_hvac serve --fleet`.
//!
//! Each named tenant gets one keep-alive client posting to
//! `POST /decide/{tenant}` on a fixed schedule that splits the offered
//! rate across the clients. Latency is measured from the *intended*
//! send time, so coordinated omission cannot hide queueing. With
//! `--policy FILE` (the policy the fleet serves), a few observations
//! per tenant are then replayed in process and every served decision
//! must be bit-identical.
//!
//! Results land in `BENCH_serve_throughput.json`. The in-process
//! serve-path numbers (per-layer `/decide` and `/tick` timings, audit
//! append costs) are perfbench's.
//!
//! ```sh
//! cargo run --release -p hvac-bench --bin serve_throughput -- \
//!     --external 127.0.0.1:9464 --tenants alpha,beta [--policy FILE] [--rate 500]
//! ```

use hvac_telemetry::http::BlockingClient;
use hvac_telemetry::json::{parse, JsonValue, ObjectWriter};
use hvac_telemetry::{Level, StderrSink};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use veri_hvac::control::DtPolicy;
use veri_hvac::env::{Disturbances, Observation};

/// Deterministic per-tenant observation schedule, replayable in
/// process for the bit-identity check.
fn temp_for(tenant: usize, step: usize) -> f64 {
    14.0 + ((step * 7 + tenant * 3) % 120) as f64 / 10.0
}

fn obs_for(tenant: usize, step: usize) -> Observation {
    Observation::new(temp_for(tenant, step), Disturbances::default())
}

/// The q-quantile of an ascending sample vector (empty → NaN).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Extracts `(heating, cooling)` from a decide response body.
fn setpoints(body: &str) -> Option<(u64, u64)> {
    let v = parse(body).ok()?;
    Some((
        v.get("heating_setpoint").and_then(JsonValue::as_u64)?,
        v.get("cooling_setpoint").and_then(JsonValue::as_u64)?,
    ))
}

/// One open-loop rung: offered vs achieved decisions/s and quantiles
/// with latency measured from the intended send time.
struct OpenLoopPoint {
    offered_rps: f64,
    achieved_rps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Offers `rate_rps` total decisions/s split across the tenant
/// clients for `duration`. Clients never skip a scheduled send: a
/// stalled server makes later sends late, and their latency is charged
/// from the schedule, not from the delayed write.
fn open_loop(
    addr: SocketAddr,
    tenants: Vec<String>,
    rate_rps: f64,
    duration: Duration,
) -> OpenLoopPoint {
    let interval = tenants.len() as f64 / rate_rps;
    let wall = duration.as_secs_f64();
    let handles: Vec<_> = tenants
        .into_iter()
        .map(|tenant| {
            std::thread::spawn(move || {
                let path = format!("/decide/{tenant}");
                let mut client = BlockingClient::connect(addr).unwrap();
                let mut latencies = Vec::new();
                let started = Instant::now();
                let mut step = 0usize;
                loop {
                    let intended = interval * step as f64;
                    if intended > wall {
                        break;
                    }
                    let now = started.elapsed().as_secs_f64();
                    if now < intended {
                        std::thread::sleep(Duration::from_secs_f64(intended - now));
                    }
                    let body = format!(r#"{{"zone_temperature":{}}}"#, temp_for(0, step));
                    let status = client.request("POST", &path, &[], &body).unwrap().0;
                    assert_eq!(status, 200);
                    latencies.push((started.elapsed().as_secs_f64() - intended) * 1e6);
                    step += 1;
                }
                (latencies, started.elapsed().as_secs_f64())
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut total = 0usize;
    let mut longest = 0f64;
    for h in handles {
        let (l, elapsed) = h.join().unwrap();
        total += l.len();
        latencies.extend(l);
        longest = longest.max(elapsed);
    }
    latencies.sort_by(f64::total_cmp);
    OpenLoopPoint {
        offered_rps: rate_rps,
        achieved_rps: total as f64 / longest,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

/// Flags this harness understands (`hvac_bench::parse_options` would
/// warn on them, so parsing is local).
struct Options {
    external: SocketAddr,
    tenants: Vec<String>,
    policy: Option<String>,
    rate: f64,
}

fn parse_args() -> Options {
    let mut external = None;
    let mut tenants = Vec::new();
    let mut policy = None;
    let mut rate = 500.0;
    let mut level = Level::Info;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" => level = Level::Debug,
            "--quiet" => level = Level::Warn,
            "--external" => external = args.next(),
            "--policy" => policy = args.next(),
            "--rate" => {
                rate = args
                    .next()
                    .and_then(|r| r.parse().ok())
                    .expect("--rate RPS")
            }
            "--tenants" => {
                tenants = args
                    .next()
                    .map(|t| t.split(',').map(str::to_string).collect())
                    .unwrap_or_default();
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    hvac_telemetry::set_sink(Arc::new(StderrSink::new(level)));
    let external = external
        .and_then(|a| a.parse().ok())
        .expect("--external HOST:PORT (the running fleet)");
    assert!(
        tenants.len() >= 2,
        "--external needs --tenants a,b[,…] (≥2 for a fleet smoke)"
    );
    Options {
        external,
        tenants,
        policy,
        rate,
    }
}

fn main() {
    let options = parse_args();
    let addr = options.external;
    let point = open_loop(
        addr,
        options.tenants.clone(),
        options.rate,
        Duration::from_secs(2),
    );
    // Bit-identity when the served policy file is at hand: replay a
    // few observations in process and compare.
    let mut identical = None;
    if let Some(path) = &options.policy {
        let text = std::fs::read_to_string(path).expect("read --policy");
        let reference = DtPolicy::from_compact_string(&text).expect("parse --policy");
        let mut mismatches = 0u64;
        let mut client = BlockingClient::connect(addr).unwrap();
        for (i, tenant) in options.tenants.iter().enumerate() {
            for step in 0..32 {
                let body = format!(r#"{{"zone_temperature":{}}}"#, temp_for(i, step));
                let (status, _, text) = client
                    .request("POST", &format!("/decide/{tenant}"), &[], &body)
                    .unwrap();
                assert_eq!(status, 200, "{text}");
                let expected = reference.decide_shared(&obs_for(i, step));
                match setpoints(&text) {
                    Some((h, c))
                        if h as i32 == expected.heating() && c as i32 == expected.cooling() => {}
                    _ => mismatches += 1,
                }
            }
        }
        identical = Some(mismatches == 0);
        assert_eq!(mismatches, 0, "served decisions diverged from in-process");
    }
    println!(
        "external fleet @ {addr}: offered {:.0}/s achieved {:.0}/s p50 {:.0} µs p99 {:.0} µs",
        point.offered_rps, point.achieved_rps, point.p50_us, point.p99_us
    );
    let mut json = ObjectWriter::new();
    json.str_field("bench", "serve_throughput");
    json.str_field("mode", "external");
    json.u64_field("tenants", options.tenants.len() as u64);
    json.f64_field("offered_rps", point.offered_rps);
    json.f64_field("achieved_rps", point.achieved_rps);
    json.f64_field("p50_us", point.p50_us);
    json.f64_field("p99_us", point.p99_us);
    if let Some(ok) = identical {
        json.u64_field("bit_identical", u64::from(ok));
    }
    let body = json.finish();
    std::fs::write("BENCH_serve_throughput.json", format!("{body}\n")).expect("write bench json");
    println!("wrote BENCH_serve_throughput.json");
}
