//! Fleet-serving throughput of the multi-tenant controller.
//!
//! Two wire paths answer the same 16-tenant workload:
//!
//! * **fleet/decide** — `serve_fleet` with 16 tenants behind sharded
//!   per-tenant locks, each load generator holding a keep-alive
//!   connection to `POST /decide/{tenant}`;
//! * **fleet/tick** — the lockstep path: one `POST /tick` round trip
//!   carries all 16 tenants' observations, coalesced into batched tree
//!   evaluations.
//!
//! Each path is driven closed-loop to saturation (measured
//! decisions/s) and open-loop at increasing offered load (p50/p99 with
//! latency measured from the *intended* send time, so coordinated
//! omission cannot hide queueing). Every served decision is replayed
//! against the in-process policy and must be bit-identical, and an
//! audited run shuts down under load and must leave every tenant's
//! chain sealed green.
//!
//! Results land in `BENCH_serve_throughput.json`.
//!
//! ```sh
//! cargo run --release -p hvac-bench --bin serve_throughput [--paper] [--quiet]
//! # CI smoke against a running fleet:
//! cargo run --release -p hvac-bench --bin serve_throughput -- \
//!     --external 127.0.0.1:9464 --tenants alpha,beta [--policy FILE] [--rate 500]
//! ```

use hvac_bench::{fmt, Table};
use hvac_telemetry::http::BlockingClient;
use hvac_telemetry::json::{parse, JsonValue, ObjectWriter};
use hvac_telemetry::{warn, Level, StderrSink};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use veri_hvac::audit::Auditor;
use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::{DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{ActionSpace, Disturbances, Observation, SetpointAction, POLICY_INPUT_DIM};
use veri_hvac::fleet::{serve_fleet, Fleet, FleetOptions};

/// Concurrent tenants (and load-generator clients) — the acceptance
/// criterion's fleet size.
const TENANTS: usize = 16;

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

/// One closed-loop measurement: decisions/s plus sorted latencies (µs)
/// and any bit-identity mismatches against the in-process policy.
struct Measured {
    decisions_per_s: f64,
    latencies_us: Vec<f64>,
    mismatches: u64,
}

/// Saturates a serving endpoint with `TENANTS` closed-loop clients,
/// `steps` requests each, one persistent connection per client to its
/// path-addressed tenant.
fn closed_loop(addr: SocketAddr, steps: usize, reference: &DtPolicy) -> Measured {
    let started = Instant::now();
    let handles: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            std::thread::spawn(move || {
                // Bodies are rendered before the clock starts and
                // responses verified after it stops, so client-side
                // work doesn't shadow the server under measurement.
                let bodies: Vec<String> = (0..steps)
                    .map(|step| format!(r#"{{"zone_temperature":{}}}"#, temp_for(tenant, step)))
                    .collect();
                let path = format!("/decide/tenant-{tenant:02}");
                let mut client = BlockingClient::connect(addr).unwrap();
                let mut latencies = Vec::with_capacity(steps);
                let mut responses = Vec::with_capacity(steps);
                for body in &bodies {
                    let sent = Instant::now();
                    let (status, _, text) = client.request("POST", &path, &[], body).unwrap();
                    latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(status, 200, "{text}");
                    responses.push(text);
                }
                (latencies, responses)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut per_tenant = Vec::new();
    for h in handles {
        let (l, responses) = h.join().unwrap();
        latencies.extend(l);
        per_tenant.push(responses);
    }
    let elapsed = started.elapsed().as_secs_f64();
    // Off-the-clock replay: every served decision must be
    // bit-identical to the in-process policy on the same observation.
    let mut mismatches = 0u64;
    for (tenant, responses) in per_tenant.iter().enumerate() {
        for (step, text) in responses.iter().enumerate() {
            let expected = reference.decide_shared(&obs_for(tenant, step));
            match setpoints(text) {
                Some((h, c))
                    if h as i32 == expected.heating() && c as i32 == expected.cooling() => {}
                _ => mismatches += 1,
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    Measured {
        decisions_per_s: (TENANTS * steps) as f64 / elapsed,
        latencies_us: latencies,
        mismatches,
    }
}

/// Renders one lockstep `/tick` body covering every tenant at `step`.
fn tick_body(tenants: &[String], step: usize) -> String {
    let mut body = String::from("{\"requests\":[");
    for (i, tenant) in tenants.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            r#"{{"tenant":"{tenant}","observation":{{"zone_temperature":{}}}}}"#,
            temp_for(i, step)
        ));
    }
    body.push_str("]}");
    body
}

/// Saturates the lockstep path: one closed-loop driver, each round
/// trip deciding for all `TENANTS` tenants at once.
fn closed_loop_tick(addr: SocketAddr, rounds: usize, reference: &DtPolicy) -> Measured {
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t:02}")).collect();
    let bodies: Vec<String> = (0..rounds).map(|step| tick_body(&tenants, step)).collect();
    let mut client = BlockingClient::connect(addr).unwrap();
    let mut latencies = Vec::with_capacity(rounds);
    let mut responses = Vec::with_capacity(rounds);
    let started = Instant::now();
    for body in &bodies {
        let sent = Instant::now();
        let (status, _, text) = client.request("POST", "/tick", &[], body).unwrap();
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
        assert_eq!(status, 200, "{text}");
        responses.push(text);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut mismatches = 0u64;
    for (step, text) in responses.iter().enumerate() {
        let v = parse(text).unwrap();
        let decisions = v.get("decisions").and_then(JsonValue::as_array).unwrap();
        for (tenant, d) in decisions.iter().enumerate() {
            let expected = reference.decide_shared(&obs_for(tenant, step));
            let h = d.get("heating_setpoint").and_then(JsonValue::as_u64);
            let c = d.get("cooling_setpoint").and_then(JsonValue::as_u64);
            if h != Some(expected.heating() as u64) || c != Some(expected.cooling() as u64) {
                mismatches += 1;
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    Measured {
        decisions_per_s: (TENANTS * rounds) as f64 / elapsed,
        latencies_us: latencies,
        mismatches,
    }
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

/// Builds a 16-tenant fleet over one shared toy policy.
fn build_fleet(options: FleetOptions) -> Fleet {
    let fleet = Fleet::new(options);
    for t in 0..TENANTS {
        fleet
            .add_tenant(&format!("tenant-{t:02}"), toy_policy(), None)
            .unwrap();
    }
    fleet
}

/// Loaded shutdown: hammers an audited fleet from every tenant, shuts
/// the server down mid-traffic, and audits every sealed chain. Returns
/// the number of green chains (want `TENANTS`).
fn audited_loaded_shutdown() -> usize {
    let dir = std::env::temp_dir().join(format!("hvac-bench-fleet-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = build_fleet(FleetOptions {
        audit_dir: Some(dir.clone()),
        ..FleetOptions::default()
    });
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let path = format!("/decide/tenant-{tenant:02}");
                let Ok(mut client) = BlockingClient::connect(addr) else {
                    return;
                };
                let mut step = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let body = format!(r#"{{"zone_temperature":{}}}"#, temp_for(tenant, step));
                    if client.request("POST", &path, &[], &body).is_err() {
                        break;
                    }
                    step += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    server.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let reference = toy_policy();
    let mut green = 0;
    for t in 0..TENANTS {
        let path = dir.join(format!("tenant-{t:02}.jsonl"));
        let text = std::fs::read_to_string(&path).expect("chain file");
        let report = Auditor::new(&text).with_policy(&reference).run();
        if report.passed() && report.sealed {
            green += 1;
        } else {
            warn!("tenant-{t:02} chain failed the audit: {report}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    green
}

/// Flags this harness understands (`hvac_bench::parse_options` would
/// warn on the external-mode flags, so parsing is local).
struct Options {
    paper: bool,
    csv: bool,
    external: Option<String>,
    tenants: Vec<String>,
    policy: Option<String>,
    rate: f64,
}

fn parse_args() -> Options {
    let mut options = Options {
        paper: false,
        csv: false,
        external: None,
        tenants: Vec::new(),
        policy: None,
        rate: 500.0,
    };
    let mut level = Level::Info;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper" => options.paper = true,
            "--csv" => options.csv = true,
            "--verbose" => level = Level::Debug,
            "--quiet" => level = Level::Warn,
            "--external" => options.external = args.next(),
            "--policy" => options.policy = args.next(),
            "--rate" => {
                options.rate = args
                    .next()
                    .and_then(|r| r.parse().ok())
                    .expect("--rate RPS");
            }
            "--tenants" => {
                options.tenants = args
                    .next()
                    .map(|t| t.split(',').map(str::to_string).collect())
                    .unwrap_or_default();
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    hvac_telemetry::set_sink(Arc::new(StderrSink::new(level)));
    options
}

/// CI smoke: open-loop load against an already-running fleet binary.
fn run_external(options: &Options) {
    let addr: SocketAddr = options
        .external
        .as_deref()
        .unwrap()
        .parse()
        .expect("--external HOST:PORT");
    assert!(
        options.tenants.len() >= 2,
        "--external needs --tenants a,b[,…] (≥2 for a fleet smoke)"
    );
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

fn main() {
    let options = parse_args();
    if options.external.is_some() {
        run_external(&options);
        return;
    }

    let (steps, tick_rounds, ladder, open_secs): (usize, usize, &[f64], f64) = if options.paper {
        (2000, 2000, &[2000.0, 4000.0, 8000.0, 16000.0], 3.0)
    } else {
        (300, 400, &[1000.0, 2000.0, 4000.0], 1.0)
    };
    let reference = toy_policy();
    let tenant_names: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t:02}")).collect();

    // Sharded per-tenant guards, keep-alive clients, and the lockstep
    // tick path.
    let fleet_server =
        serve_fleet(build_fleet(FleetOptions::default()), "127.0.0.1:0").expect("bind");
    let fleet = closed_loop(fleet_server.addr(), steps, &reference);
    let tick = closed_loop_tick(fleet_server.addr(), tick_rounds, &reference);
    let fleet_open: Vec<OpenLoopPoint> = ladder
        .iter()
        .map(|&rate| {
            open_loop(
                fleet_server.addr(),
                tenant_names.clone(),
                rate,
                Duration::from_secs_f64(open_secs),
            )
        })
        .collect();
    fleet_server.shutdown();

    let green = audited_loaded_shutdown();

    let mut table = Table::new(
        &format!("Serving throughput at {TENANTS} concurrent tenants (closed loop, loopback)"),
        &["variant", "decisions_per_s", "p50_us", "p99_us"],
    );
    for (label, m) in [
        ("fleet /decide (sharded, keep-alive)", &fleet),
        ("fleet /tick (lockstep batch)", &tick),
    ] {
        table.push_row(vec![
            label.to_string(),
            fmt(m.decisions_per_s, 0),
            fmt(percentile(&m.latencies_us, 0.50), 1),
            fmt(percentile(&m.latencies_us, 0.99), 1),
        ]);
    }
    table.print();
    if options.csv {
        // Matches the other harnesses' --csv behavior.
        let mut csv = String::from("variant,decisions_per_s,p50_us,p99_us\n");
        for (label, m) in [("fleet_decide", &fleet), ("fleet_tick", &tick)] {
            csv.push_str(&format!(
                "{label},{:.0},{:.1},{:.1}\n",
                m.decisions_per_s,
                percentile(&m.latencies_us, 0.50),
                percentile(&m.latencies_us, 0.99)
            ));
        }
        std::fs::write("BENCH_serve_throughput.csv", csv).expect("write csv");
    }

    println!("\nOpen loop (latency from intended send time):");
    let mut open_table = Table::new(
        "offered vs achieved decisions/s",
        &["variant", "offered_rps", "achieved_rps", "p50_us", "p99_us"],
    );
    for p in &fleet_open {
        open_table.push_row(vec![
            "fleet".to_string(),
            fmt(p.offered_rps, 0),
            fmt(p.achieved_rps, 0),
            fmt(p.p50_us, 1),
            fmt(p.p99_us, 1),
        ]);
    }
    open_table.print();

    let identical = fleet.mismatches == 0 && tick.mismatches == 0;
    println!(
        "\nbit-identity: {} (fleet {} / tick {} mismatches)",
        if identical { "PASS" } else { "FAIL" },
        fleet.mismatches,
        tick.mismatches
    );
    println!("audited loaded shutdown: {green}/{TENANTS} chains sealed green");

    let mut json = ObjectWriter::new();
    json.str_field("bench", "serve_throughput");
    json.str_field("scale", if options.paper { "paper" } else { "reduced" });
    json.u64_field("tenants", TENANTS as u64);
    json.u64_field("steps_per_client", steps as u64);
    json.f64_field("fleet_rps", fleet.decisions_per_s);
    json.f64_field("fleet_p50_us", percentile(&fleet.latencies_us, 0.50));
    json.f64_field("fleet_p99_us", percentile(&fleet.latencies_us, 0.99));
    json.f64_field("tick_rps", tick.decisions_per_s);
    json.f64_field("tick_p50_us", percentile(&tick.latencies_us, 0.50));
    json.f64_field("tick_p99_us", percentile(&tick.latencies_us, 0.99));
    json.u64_field("bit_identical", u64::from(identical));
    json.u64_field("audited_chains_green", green as u64);
    json.u64_field("audited_chains_total", TENANTS as u64);
    for p in &fleet_open {
        let key = format!("fleet_open_{:.0}", p.offered_rps);
        json.f64_field(&format!("{key}_achieved_rps"), p.achieved_rps);
        json.f64_field(&format!("{key}_p99_us"), p.p99_us);
    }
    let body = json.finish();
    std::fs::write("BENCH_serve_throughput.json", format!("{body}\n")).expect("write bench json");
    println!("wrote BENCH_serve_throughput.json");

    assert!(identical, "served decisions diverged from in-process");
    assert_eq!(
        green, TENANTS,
        "an audited chain failed after loaded shutdown"
    );
}
