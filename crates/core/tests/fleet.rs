//! Integration tests for the multi-tenant fleet controller: per-tenant
//! bit-identity against in-process decisions, tenant routing and
//! isolation, lockstep `/tick` batching, and the loaded-shutdown
//! guarantee that every tenant's audit chain still seals green under
//! concurrent traffic.

use hvac_telemetry::http::{blocking_request, BlockingClient};
use hvac_telemetry::json::{parse, JsonValue};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use veri_hvac::audit::Auditor;
use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::{DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{
    ActionSpace, Disturbances, Observation, Policy, SetpointAction, POLICY_INPUT_DIM,
};
use veri_hvac::fleet::{serve_fleet, Fleet, FleetOptions};
use veri_hvac::serve::MAX_DECIDE_BODY_BYTES;

/// Cold zones → heat hard, warm zones → off (the serve tests' toy
/// tree), with a tunable split so tenants can run distinct policies.
fn toy_policy(split: f64) -> DtPolicy {
    let space = ActionSpace::new();
    let heat = space.index_of(SetpointAction::new(23, 30).unwrap());
    let off = space.index_of(SetpointAction::off());
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        let temp = 12.0 + f64::from(i) * 0.5;
        let mut row = vec![0.0; POLICY_INPUT_DIM];
        row[feature::ZONE_TEMPERATURE] = temp;
        inputs.push(row);
        labels.push(if temp < split { heat } else { off });
    }
    let tree = DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap();
    DtPolicy::new(tree).unwrap()
}

fn obs(temp: f64) -> Observation {
    Observation::new(temp, Disturbances::default())
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hvac-fleet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn multi_tenant_decisions_are_bit_identical_to_in_process() {
    // Three tenants over two distinct trees: a and b share one policy
    // (the registry must dedup them), c runs its own.
    let fleet = Fleet::new(FleetOptions::default());
    fleet
        .add_tenant("building-a", toy_policy(20.0), None)
        .unwrap();
    fleet
        .add_tenant("building-b", toy_policy(20.0), None)
        .unwrap();
    fleet
        .add_tenant("building-c", toy_policy(17.0), None)
        .unwrap();
    assert_eq!(fleet.policy_count(), 2, "shared tree is deduped");
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");

    let mut references = vec![
        ("building-a", toy_policy(20.0)),
        ("building-b", toy_policy(20.0)),
        ("building-c", toy_policy(17.0)),
    ];
    let temps = [14.0, 16.2, 17.9, 19.1, 21.4, 23.0];
    let mut client = BlockingClient::connect(server.addr()).unwrap();
    for (tenant, reference) in &mut references {
        for temp in temps {
            let expected = reference.decide(&obs(temp));
            // Path-addressed…
            let body = format!(r#"{{"zone_temperature":{temp}}}"#);
            let (status, _, text) = client
                .request("POST", &format!("/decide/{tenant}"), &[], &body)
                .unwrap();
            assert_eq!(status, 200, "{text}");
            let v = parse(&text).unwrap();
            assert_eq!(
                v.get("tenant").and_then(JsonValue::as_str),
                Some(*tenant),
                "{text}"
            );
            let heating = v
                .get("heating_setpoint")
                .and_then(JsonValue::as_u64)
                .unwrap();
            let cooling = v
                .get("cooling_setpoint")
                .and_then(JsonValue::as_u64)
                .unwrap();
            assert_eq!(heating as i32, expected.heating(), "{tenant} at {temp} °C");
            assert_eq!(cooling as i32, expected.cooling(), "{tenant} at {temp} °C");
            // …and body-addressed, bit-identically.
            let body = format!(r#"{{"tenant":"{tenant}","zone_temperature":{temp}}}"#);
            let (status, _, text) = client.request("POST", "/decide", &[], &body).unwrap();
            assert_eq!(status, 200, "{text}");
            let v = parse(&text).unwrap();
            assert_eq!(
                v.get("heating_setpoint").and_then(JsonValue::as_u64),
                Some(heating)
            );
            assert_eq!(
                v.get("cooling_setpoint").and_then(JsonValue::as_u64),
                Some(cooling)
            );
        }
    }

    // The roster reports every tenant with its decision count.
    let (status, roster) = blocking_request(server.addr(), "GET", "/tenants", "").unwrap();
    assert_eq!(status, 200);
    let v = parse(&roster).unwrap();
    assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(v.get("policies").and_then(JsonValue::as_u64), Some(2));
    let tenants = v.get("tenants").and_then(JsonValue::as_array).unwrap();
    for t in tenants {
        assert_eq!(
            t.get("decisions").and_then(JsonValue::as_u64),
            Some(2 * temps.len() as u64),
            "{roster}"
        );
    }
    let (_, version) = blocking_request(server.addr(), "GET", "/version", "").unwrap();
    let v = parse(&version).unwrap();
    assert_eq!(v.get("fleet").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(v.get("tenants").and_then(JsonValue::as_u64), Some(3));
    server.shutdown();
}

#[test]
fn lockstep_tick_matches_per_tenant_decides_bit_for_bit() {
    let build = |split| {
        let fleet = Fleet::new(FleetOptions::default());
        for i in 0..8 {
            fleet
                .add_tenant(&format!("zone-{i}"), toy_policy(split), None)
                .unwrap();
        }
        fleet
    };
    let ticked = build(19.0);
    let scalar = build(19.0);

    // Drive both fleets through the same observation schedule: one via
    // lockstep tick(), one via per-tenant HTTP decides.
    let server = serve_fleet(scalar, "127.0.0.1:0").expect("bind");
    let mut client = BlockingClient::connect(server.addr()).unwrap();
    for step in 0..10 {
        let requests: Vec<(String, Observation)> = (0..8)
            .map(|i| {
                let temp = 13.0 + f64::from(step) * 0.7 + f64::from(i) * 0.3;
                (format!("zone-{i}"), obs(temp))
            })
            .collect();
        let decisions = ticked.tick(&requests).unwrap();
        assert_eq!(decisions.len(), 8);
        for (i, decision) in decisions.iter().enumerate() {
            assert_eq!(decision.tenant, format!("zone-{i}"), "original order kept");
            let temp = 13.0 + f64::from(step) * 0.7 + i as f64 * 0.3;
            let body = format!(r#"{{"zone_temperature":{temp}}}"#);
            let (status, _, text) = client
                .request("POST", &format!("/decide/zone-{i}"), &[], &body)
                .unwrap();
            assert_eq!(status, 200, "{text}");
            let v = parse(&text).unwrap();
            assert_eq!(
                v.get("heating_setpoint").and_then(JsonValue::as_u64),
                Some(decision.action.heating() as u64),
                "step {step} zone-{i}"
            );
            assert_eq!(
                v.get("cooling_setpoint").and_then(JsonValue::as_u64),
                Some(decision.action.cooling() as u64),
                "step {step} zone-{i}"
            );
            assert_eq!(
                v.get("guard_state").and_then(JsonValue::as_str),
                Some(decision.state.name()),
                "step {step} zone-{i}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn tick_endpoint_decides_a_batch_and_rejects_malformed_ones() {
    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("a", toy_policy(20.0), None).unwrap();
    fleet.add_tenant("b", toy_policy(20.0), None).unwrap();
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");

    let body = r#"{"requests":[
        {"tenant":"a","observation":{"zone_temperature":15.0}},
        {"tenant":"b","observation":{"zone_temperature":23.0}}]}"#;
    let (status, text) = blocking_request(server.addr(), "POST", "/tick", body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = parse(&text).unwrap();
    assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(2));
    let decisions = v.get("decisions").and_then(JsonValue::as_array).unwrap();
    assert_eq!(
        decisions[0]
            .get("heating_setpoint")
            .and_then(JsonValue::as_u64),
        Some(23)
    );
    assert_eq!(
        decisions[1]
            .get("heating_setpoint")
            .and_then(JsonValue::as_u64),
        Some(SetpointAction::off().heating() as u64)
    );

    // Unknown tenant fails the whole batch before any lock is taken.
    let body = r#"{"requests":[{"tenant":"nope","observation":{"zone_temperature":15}}]}"#;
    let (status, text) = blocking_request(server.addr(), "POST", "/tick", body).unwrap();
    assert_eq!(status, 422);
    assert!(text.contains("unknown tenant"), "{text}");

    // Duplicate tenant violates lockstep.
    let body = r#"{"requests":[
        {"tenant":"a","observation":{"zone_temperature":15}},
        {"tenant":"a","observation":{"zone_temperature":16}}]}"#;
    let (status, text) = blocking_request(server.addr(), "POST", "/tick", body).unwrap();
    assert_eq!(status, 422);
    assert!(text.contains("duplicate tenant"), "{text}");

    // Shape errors name every offending element.
    let body = r#"{"requests":[{"tenant":"a"},{"observation":{"zone_temperature":1}}]}"#;
    let (status, text) = blocking_request(server.addr(), "POST", "/tick", body).unwrap();
    assert_eq!(status, 422);
    assert!(
        text.contains("request 0") && text.contains("request 1"),
        "{text}"
    );
    server.shutdown();
}

#[test]
fn unknown_and_invalid_tenants_are_structured_errors() {
    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("only", toy_policy(20.0), None).unwrap();
    fleet.add_tenant("other", toy_policy(20.0), None).unwrap();
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let body = r#"{"zone_temperature":18}"#;

    // Unknown tenant in the path: 404.
    let (status, text) = blocking_request(server.addr(), "POST", "/decide/ghost", body).unwrap();
    assert_eq!(status, 404, "{text}");
    assert!(text.contains("unknown tenant"), "{text}");

    // Unknown tenant in the body: 404 too.
    let named = r#"{"tenant":"ghost","zone_temperature":18}"#;
    let (status, _) = blocking_request(server.addr(), "POST", "/decide", named).unwrap();
    assert_eq!(status, 404);

    // Invalid id charset (dots could escape the audit dir): 422.
    let (status, text) = blocking_request(server.addr(), "POST", "/decide/../etc", body).unwrap();
    assert_eq!(status, 422, "{text}");

    // Multi-tenant fleet with no tenant named: 422 pointing at both
    // addressing forms.
    let (status, text) = blocking_request(server.addr(), "POST", "/decide", body).unwrap();
    assert_eq!(status, 422);
    assert!(text.contains("tenant"), "{text}");

    // Non-string tenant field: 422.
    let named = r#"{"tenant":7,"zone_temperature":18}"#;
    let (status, _) = blocking_request(server.addr(), "POST", "/decide", named).unwrap();
    assert_eq!(status, 422);
    server.shutdown();
}

#[test]
fn single_tenant_fleet_accepts_unnamed_decides() {
    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("solo", toy_policy(20.0), None).unwrap();
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let (status, text) = blocking_request(
        server.addr(),
        "POST",
        "/decide",
        r#"{"zone_temperature":15}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{text}");
    let v = parse(&text).unwrap();
    assert_eq!(v.get("tenant").and_then(JsonValue::as_str), Some("solo"));
    assert_eq!(
        v.get("heating_setpoint").and_then(JsonValue::as_u64),
        Some(23)
    );
    server.shutdown();
}

#[test]
fn deeply_nested_decide_body_is_a_422_not_a_stack_overflow() {
    // 16 000 nested arrays fit under a one-tenant fleet's body cap and
    // overflowed a worker's stack when parser depth was unbounded,
    // which aborts the whole process.
    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("solo", toy_policy(20.0), None).unwrap();
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let nested = "[".repeat(16_000);
    assert!(nested.len() <= MAX_DECIDE_BODY_BYTES);
    let (status, text) = blocking_request(server.addr(), "POST", "/decide", &nested).unwrap();
    assert_eq!(status, 422, "{text}");
    assert!(text.contains("nesting too deep"), "{text}");
    let (status, text) = blocking_request(
        server.addr(),
        "POST",
        "/decide",
        r#"{"zone_temperature":15}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{text}");
    server.shutdown();
}

#[test]
fn tick_with_a_fleet_sized_string_is_rejected_well_inside_the_read_timeout() {
    use veri_hvac::fleet::{serve_fleet_with_reload, TenantSpec, MAX_FLEET_BODY_BYTES};
    use veri_hvac::serve::DECIDE_TIMEOUT;

    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("solo", toy_policy(20.0), None).unwrap();
    let source: Arc<veri_hvac::fleet::ReloadSource> = Arc::new(|| {
        Ok(vec![TenantSpec {
            id: "solo".to_string(),
            policy: toy_policy(20.0),
            certificate_id: None,
        }])
    });
    let server = serve_fleet_with_reload(fleet, "127.0.0.1:0", Some(source)).expect("bind");
    // A tenant id as long as the largest body a reloadable fleet reads.
    let prefix = r#"{"requests":[{"tenant":""#;
    let suffix = r#"","observation":{"zone_temperature":18.0}}]}"#;
    let tenant = "x".repeat(MAX_FLEET_BODY_BYTES - prefix.len() - suffix.len());
    let body = format!("{prefix}{tenant}{suffix}");
    assert_eq!(body.len(), MAX_FLEET_BODY_BYTES);
    let started = std::time::Instant::now();
    let (status, text) = blocking_request(server.addr(), "POST", "/tick", &body).unwrap();
    let elapsed = started.elapsed();
    assert!((400..500).contains(&status), "{status}: {text}");
    assert!(
        elapsed < DECIDE_TIMEOUT / 20,
        "a {} KiB /tick took {elapsed:?}",
        body.len() / 1024
    );
    server.shutdown();
}

#[test]
fn one_tenants_faulted_stream_never_degrades_another() {
    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("noisy", toy_policy(20.0), None).unwrap();
    fleet.add_tenant("clean", toy_policy(20.0), None).unwrap();
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");

    // Hammer the noisy tenant with out-of-range readings until its
    // guard has walked the whole ladder.
    for _ in 0..8 {
        let (status, text) = blocking_request(
            server.addr(),
            "POST",
            "/decide/noisy",
            r#"{"zone_temperature":300}"#,
        )
        .unwrap();
        assert_eq!(status, 200, "{text}");
    }
    let (_, text) = blocking_request(
        server.addr(),
        "POST",
        "/decide/noisy",
        r#"{"zone_temperature":300}"#,
    )
    .unwrap();
    let v = parse(&text).unwrap();
    assert_eq!(
        v.get("guard_state").and_then(JsonValue::as_str),
        Some("fallback"),
        "{text}"
    );

    // The clean tenant's guard never left the normal rung.
    let (_, text) = blocking_request(
        server.addr(),
        "POST",
        "/decide/clean",
        r#"{"zone_temperature":18}"#,
    )
    .unwrap();
    let v = parse(&text).unwrap();
    assert_eq!(
        v.get("guard_state").and_then(JsonValue::as_str),
        Some("normal"),
        "{text}"
    );
    server.shutdown();
}

#[test]
fn loaded_shutdown_still_seals_every_chain_green() {
    let dir = fresh_dir("loaded-shutdown");
    let tenants = ["alpha", "beta", "gamma", "delta"];
    let fleet = Fleet::new(FleetOptions {
        audit_dir: Some(dir.clone()),
        ..FleetOptions::default()
    });
    for t in tenants {
        fleet.add_tenant(t, toy_policy(20.0), None).unwrap();
    }
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // One hammering client per tenant, all firing through keep-alive
    // connections until the server shuts down under them.
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = tenants
        .iter()
        .map(|tenant| {
            let stop = Arc::clone(&stop);
            let tenant = tenant.to_string();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut client = match BlockingClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return 0,
                };
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let temp = 14 + i % 10;
                    let body = format!(r#"{{"zone_temperature":{temp}}}"#);
                    match client.request("POST", &format!("/decide/{tenant}"), &[], &body) {
                        Ok((200, _, _)) => ok += 1,
                        // Shutdown raced the request: reconnects will
                        // fail too, so stop counting.
                        _ => break,
                    }
                    i += 1;
                }
                ok
            })
        })
        .collect();

    // Let traffic build, then shut down while requests are in flight.
    std::thread::sleep(std::time::Duration::from_millis(300));
    server.shutdown();
    stop.store(true, Ordering::Relaxed);
    let served: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        served.iter().all(|&n| n > 0),
        "every tenant saw traffic: {served:?}"
    );

    // Every chain sealed AFTER its last decision: the worker pool
    // drains before shutdown hooks run, so each file ends on a seal
    // record covering at least every 200-answered decision, and the
    // offline auditor passes.
    let reference = toy_policy(20.0);
    for (tenant, &count) in tenants.iter().zip(&served) {
        let text = std::fs::read_to_string(dir.join(format!("{tenant}.jsonl"))).unwrap();
        assert!(text.ends_with('\n'), "{tenant} chain ends mid-record");
        assert!(
            text.lines().last().unwrap().contains(r#""kind":"seal""#),
            "{tenant} chain does not end in a seal"
        );
        let report = Auditor::new(&text).with_policy(&reference).run();
        assert!(report.passed(), "{tenant}: {report}");
        assert!(report.sealed, "{tenant} chain is unsealed");
        assert!(
            report.decisions >= count,
            "{tenant}: chain has {} decisions but the client saw {count} OKs",
            report.decisions
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_bodies_beyond_the_single_decide_cap_are_accepted_on_tick() {
    // The tick endpoint exists precisely because batches outgrow the
    // single-observation body cap.
    let fleet = Fleet::new(FleetOptions::default());
    for i in 0..64 {
        fleet
            .add_tenant(&format!("t{i}"), toy_policy(20.0), None)
            .unwrap();
    }
    let server = serve_fleet(fleet, "127.0.0.1:0").expect("bind");
    let mut body = String::from("{\"requests\":[");
    for i in 0..64 {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            r#"{{"tenant":"t{i}","observation":{{"zone_temperature":18.0,"outdoor_temperature":-3.0,"relative_humidity":55.0,"wind_speed":4.5,"solar_radiation":120.0,"occupant_count":3,"hour_of_day":10.5}}}}"#
        ));
    }
    body.push_str("]}");
    assert!(
        body.len() > MAX_DECIDE_BODY_BYTES / 2,
        "batch is meaningfully large"
    );
    let (status, text) = blocking_request(server.addr(), "POST", "/tick", &body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = parse(&text).unwrap();
    assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(64));
    server.shutdown();
}

#[test]
fn body_cap_follows_the_roster_size_unless_it_can_reload() {
    use std::io::{Read, Write};
    use veri_hvac::fleet::{serve_fleet_with_reload, TenantSpec, MAX_FLEET_BODY_BYTES};

    // One tick request padded past the single-decide cap.
    let mut body = String::from(
        r#"{"requests":[{"tenant":"solo","observation":{"zone_temperature":18.0}}],"padding":""#,
    );
    body.push_str(&"x".repeat(MAX_DECIDE_BODY_BYTES));
    body.push_str("\"}");
    assert!(body.len() > MAX_DECIDE_BODY_BYTES);

    // A fixed one-tenant roster keeps the single-decide cap: 413 from
    // the headers alone, before any of the body is read.
    let fixed = Fleet::new(FleetOptions::default());
    fixed.add_tenant("solo", toy_policy(20.0), None).unwrap();
    let server = serve_fleet(fixed, "127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(
            format!(
                "POST /tick HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    server.shutdown();

    // ...while a reloadable one can grow, so it keeps the fleet cap.
    let reloadable = Fleet::new(FleetOptions::default());
    reloadable
        .add_tenant("solo", toy_policy(20.0), None)
        .unwrap();
    let source: Arc<veri_hvac::fleet::ReloadSource> = Arc::new(|| {
        Ok(vec![TenantSpec {
            id: "solo".to_string(),
            policy: toy_policy(20.0),
            certificate_id: None,
        }])
    });
    let server = serve_fleet_with_reload(reloadable, "127.0.0.1:0", Some(source)).expect("bind");
    let (status, text) = blocking_request(server.addr(), "POST", "/tick", &body).unwrap();
    assert_eq!(status, 200, "{text}");
    let v = parse(&text).unwrap();
    assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(1));
    assert!(body.len() < MAX_FLEET_BODY_BYTES);
    server.shutdown();
}

#[test]
fn killed_fleet_restarts_bit_identically_with_one_recovery_record() {
    use veri_hvac::fleet::FleetOptions as FO;
    let dir = fresh_dir("restart");
    let fleet = Fleet::new(FO {
        audit_dir: Some(dir.clone()),
        ..FO::default()
    });
    fleet.add_tenant("alpha", toy_policy(20.0), None).unwrap();
    // An uninterrupted reference controller sees the exact same stream.
    let reference = Fleet::new(FO::default());
    reference
        .add_tenant("alpha", toy_policy(20.0), None)
        .unwrap();

    // Walk the guard off the normal rung so rehydration has real state
    // to carry, then snapshot (the drain / periodic snapshot).
    for _ in 0..9 {
        let r = vec![("alpha".to_string(), obs(300.0))];
        fleet.tick(&r).unwrap();
        reference.tick(&r).unwrap();
    }
    assert_eq!(fleet.snapshot_all(), 1);
    // Crash: no drop-seal, and a torn half-record on the chain tail
    // (the decision that was mid-write when the process died).
    std::mem::forget(fleet);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("alpha.jsonl"))
            .unwrap();
        f.write_all(b"310 {\"kind\":\"decision\",\"seq\":99,\"prev")
            .unwrap();
    }

    // Restart over the same audit dir: the chain is recovered and the
    // guard rehydrated from the snapshot.
    let restarted = Fleet::new(FO {
        audit_dir: Some(dir.clone()),
        ..FO::default()
    });
    restarted
        .add_tenant("alpha", toy_policy(20.0), None)
        .unwrap();

    // One more bad reading proves the rehydration: a guard that kept
    // its 9-deep invalid run answers from the fallback rung, where a
    // fresh guard would only now be starting its first hold.
    let bad = vec![("alpha".to_string(), obs(300.0))];
    let a = restarted.tick(&bad).unwrap();
    let b = reference.tick(&bad).unwrap();
    assert_eq!(a[0].state.name(), b[0].state.name());
    assert_eq!(
        a[0].state.name(),
        "fallback",
        "a fresh (non-rehydrated) guard could not be this deep in the ladder"
    );

    // From here both controllers see a clean stream: every decision and
    // guard rung must match bit-for-bit.
    for step in 0..40 {
        let r = vec![("alpha".to_string(), obs(15.0 + f64::from(step) * 0.2))];
        let a = restarted.tick(&r).unwrap();
        let b = reference.tick(&r).unwrap();
        assert_eq!(a[0].action, b[0].action, "step {step}");
        assert_eq!(a[0].state.name(), b[0].state.name(), "step {step}");
    }

    // Seal and audit: green, exactly one recovery record, torn bytes
    // gone.
    drop(restarted);
    let text = std::fs::read_to_string(dir.join("alpha.jsonl")).unwrap();
    assert!(!text.contains("\"seq\":99,\"prev"), "torn tail truncated");
    let report = Auditor::new(&text).with_policy(&toy_policy(20.0)).run();
    assert!(report.passed(), "{report}");
    assert_eq!(report.recoveries, 1, "{report}");
    assert!(report.sealed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_diffs_swaps_archives_and_rolls_back_atomically() {
    use veri_hvac::fleet::TenantSpec;
    let dir = fresh_dir("reload");
    let fleet = Fleet::new(FleetOptions {
        audit_dir: Some(dir.clone()),
        ..FleetOptions::default()
    });
    fleet.add_tenant("a", toy_policy(20.0), None).unwrap();
    fleet.add_tenant("b", toy_policy(17.0), None).unwrap();
    let batch = vec![("a".to_string(), obs(18.0)), ("b".to_string(), obs(18.0))];
    fleet.tick(&batch).unwrap();
    // 18 °C under b's split of 17: off.
    assert_eq!(fleet.tick(&batch).unwrap()[1].action, SetpointAction::off());

    let spec = |id: &str, split: f64| TenantSpec {
        id: id.to_string(),
        policy: toy_policy(split),
        certificate_id: None,
    };
    let report = fleet
        .reload(vec![spec("a", 20.0), spec("b", 19.0), spec("c", 20.0)])
        .unwrap();
    assert_eq!(report.added, vec!["c".to_string()]);
    assert_eq!(report.changed, vec!["b".to_string()]);
    assert!(report.removed.is_empty());
    assert_eq!(report.unchanged, vec!["a".to_string()]);
    assert_eq!(fleet.tenant_ids(), ["a", "b", "c"]);

    // b immediately serves the new split: 18 °C now heats.
    assert_eq!(fleet.tick(&batch).unwrap()[1].action.heating(), 23);
    // Its superseded chain was sealed and archived; the live file is a
    // fresh genesis. The unchanged tenant's chain carried straight on.
    let archived = std::fs::read_to_string(dir.join("b.jsonl.archived-1")).unwrap();
    assert!(
        archived
            .lines()
            .last()
            .unwrap()
            .contains("\"kind\":\"seal\""),
        "archived chain must be sealed"
    );
    let live = std::fs::read_to_string(dir.join("b.jsonl")).unwrap();
    assert_eq!(
        live.lines()
            .filter(|l| l.contains("\"kind\":\"genesis\""))
            .count(),
        1
    );
    assert!(!dir.join("a.jsonl.archived-1").exists());

    // Dropping c from the manifest seals and archives its chain too.
    let report = fleet
        .reload(vec![spec("a", 20.0), spec("b", 19.0)])
        .unwrap();
    assert_eq!(report.removed, vec!["c".to_string()]);
    assert_eq!(fleet.tenant_ids(), ["a", "b"]);
    assert!(dir.join("c.jsonl.archived-1").exists());
    assert!(!dir.join("c.jsonl").exists());

    // An empty manifest and an invalid spec are both refused with the
    // serving roster intact and no stray scratch files.
    assert!(fleet.reload(Vec::new()).is_err());
    let err = fleet
        .reload(vec![spec("a", 20.0), spec("../evil", 20.0)])
        .unwrap_err();
    assert!(err.contains("invalid tenant id"), "{err}");
    assert_eq!(fleet.tenant_ids(), ["a", "b"]);
    assert!(
        std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .contains(".new")),
        "failed reloads must clean up their scratch chains"
    );
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tick_serves_the_compiled_kernel_bit_identically_to_the_enum_walk() {
    // Two fleets over the same trees: one serving the flat compiled
    // kernel (the default — DtPolicy::new proves and installs it), one
    // pinned to the reference enum walk. Every lockstep decision must
    // agree bit for bit, or the fast path is not a fast path.
    let splits = [14.5, 17.0, 19.5, 21.0];
    let compiled_fleet = Fleet::new(FleetOptions::default());
    let walk_fleet = Fleet::new(FleetOptions::default());
    for (i, &split) in splits.iter().enumerate() {
        let policy = toy_policy(split);
        assert!(
            policy.compiled().is_some(),
            "fitted trees must compile and prove"
        );
        let walk = DtPolicy::new_uncompiled(policy.tree().clone()).expect("same tree, no kernel");
        assert!(walk.compiled().is_none());
        compiled_fleet
            .add_tenant(&format!("zone-{i}"), policy, None)
            .unwrap();
        walk_fleet
            .add_tenant(&format!("zone-{i}"), walk, None)
            .unwrap();
    }

    // Sweep across both sides of every split, the splits themselves,
    // and guard-hostile temps (the guard holds/falls back before the
    // policy, identically in both fleets).
    for step in 0..60 {
        let temp = 11.0 + f64::from(step) * 0.21;
        let requests: Vec<(String, Observation)> = (0..splits.len())
            .map(|i| (format!("zone-{i}"), obs(temp + i as f64 * 0.045)))
            .collect();
        let fast = compiled_fleet.tick(&requests).unwrap();
        let slow = walk_fleet.tick(&requests).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.tenant, s.tenant);
            assert_eq!(f.action, s.action, "step {step} tenant {}", f.tenant);
            assert_eq!(f.state, s.state, "step {step} tenant {}", f.tenant);
        }
    }
}

#[test]
fn malformed_manifest_policy_is_a_per_tenant_409_not_a_worker_panic() {
    use veri_hvac::fleet::{serve_fleet_with_reload, TenantSpec};
    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("good", toy_policy(20.0), None).unwrap();

    // The reload source replays what the manifest loader does per
    // tenant: parse the policy file, surface a typed error naming the
    // tenant. A split whose child index points past the arena must come
    // back as a structured refusal, never a panic.
    let malformed = "dtree v1\nfeatures 7\nclasses 90\nnodes 3\nS 0 20.0 9 2\nL 0 10\nL 1 10\n";
    let source: Arc<veri_hvac::fleet::ReloadSource> = Arc::new(move || {
        let policy = DtPolicy::from_compact_string(malformed)
            .map_err(|e| format!("tenant \"bad\": malformed policy: {e}"))?;
        Ok(vec![TenantSpec {
            id: "bad".to_string(),
            policy,
            certificate_id: None,
        }])
    });
    let server = serve_fleet_with_reload(fleet, "127.0.0.1:0", Some(source)).expect("bind");
    let mut admin = BlockingClient::connect(server.addr()).unwrap();
    let (status, _, text) = admin.request("POST", "/admin/reload", &[], "").unwrap();
    assert_eq!(status, 409, "{text}");
    assert!(text.contains("tenant"), "{text}");
    assert!(
        text.contains("references child 9"),
        "the typed TreeError detail must reach the operator: {text}"
    );

    // The serving roster is untouched and still decides.
    let body = r#"{"zone_temperature":16.0}"#;
    let (status, _, text) = admin.request("POST", "/decide/good", &[], body).unwrap();
    assert_eq!(status, 200, "{text}");
    server.shutdown();
}

#[test]
fn admin_reload_swaps_under_load_without_tearing_batches() {
    use std::sync::atomic::AtomicUsize;
    use veri_hvac::fleet::{serve_fleet_with_reload, TenantSpec};
    let fleet = Fleet::new(FleetOptions::default());
    fleet.add_tenant("a", toy_policy(20.0), None).unwrap();
    fleet.add_tenant("b", toy_policy(17.0), None).unwrap();

    // Each reload flips b between two splits; a never changes.
    let flips = Arc::new(AtomicUsize::new(0));
    let source_flips = Arc::clone(&flips);
    let source: Arc<veri_hvac::fleet::ReloadSource> = Arc::new(move || {
        let n = source_flips.fetch_add(1, Ordering::Relaxed) + 1;
        let split = if n.is_multiple_of(2) { 17.0 } else { 19.0 };
        Ok(vec![
            TenantSpec {
                id: "a".to_string(),
                policy: toy_policy(20.0),
                certificate_id: None,
            },
            TenantSpec {
                id: "b".to_string(),
                policy: toy_policy(split),
                certificate_id: None,
            },
        ])
    });
    let server = serve_fleet_with_reload(fleet, "127.0.0.1:0", Some(source)).expect("bind");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let off_heat = SetpointAction::off().heating() as u64;
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = BlockingClient::connect(addr).unwrap();
                let body = r#"{"requests":[
                    {"tenant":"a","observation":{"zone_temperature":18.0}},
                    {"tenant":"b","observation":{"zone_temperature":18.0}}]}"#;
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (status, _, text) = client.request("POST", "/tick", &[], body).unwrap();
                    // Never a torn batch: always both answers, a's from
                    // its stable policy, b's from one of the two live
                    // splits.
                    assert_eq!(status, 200, "{text}");
                    let v = parse(&text).unwrap();
                    assert_eq!(
                        v.get("count").and_then(JsonValue::as_u64),
                        Some(2),
                        "{text}"
                    );
                    let d = v.get("decisions").and_then(JsonValue::as_array).unwrap();
                    assert_eq!(
                        d[0].get("heating_setpoint").and_then(JsonValue::as_u64),
                        Some(23),
                        "{text}"
                    );
                    let b_heat = d[1]
                        .get("heating_setpoint")
                        .and_then(JsonValue::as_u64)
                        .unwrap();
                    assert!(b_heat == 23 || b_heat == off_heat, "{text}");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Reload repeatedly while the batches fly.
    let mut admin = BlockingClient::connect(addr).unwrap();
    for i in 0..6 {
        let (status, _, text) = admin.request("POST", "/admin/reload", &[], "").unwrap();
        assert_eq!(status, 200, "reload {i}: {text}");
        let v = parse(&text).unwrap();
        let changed = v.get("changed").and_then(JsonValue::as_array).unwrap();
        assert_eq!(changed.len(), 1, "reload {i}: {text}");
        assert_eq!(v.get("unchanged").and_then(JsonValue::as_u64), Some(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    let served: Vec<u64> = hammers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(served.iter().all(|&n| n > 0), "{served:?}");
    assert!(flips.load(Ordering::Relaxed) >= 6);
    server.shutdown();
}
