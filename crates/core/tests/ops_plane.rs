//! End-to-end traceability of a client request id through the live
//! ops plane: `X-Request-Id` on the request must come back on the
//! response, show up in the flight recorder and the windowed latency
//! series, and land — hash-covered — in the sealed audit chain. The
//! server is a one-tenant fleet, as `veri-hvac serve --policy` runs it.

use hvac_audit::{Auditor, FlushPolicy};
use hvac_control::DtPolicy;
use hvac_dtree::{DecisionTree, TreeConfig};
use hvac_env::space::feature;
use hvac_env::{ActionSpace, SetpointAction, POLICY_INPUT_DIM};
use hvac_telemetry::http::{
    blocking_request, blocking_request_with_headers, header_value, HttpServer, REQUEST_ID_HEADER,
};
use hvac_telemetry::json::{parse, JsonValue};
use std::path::PathBuf;
use veri_hvac::{serve_fleet, Fleet, FleetOptions};

/// Cold zones → heat hard, warm zones → off (the serve tests' toy
/// tree).
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

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("veri-hvac-ops-plane-{}-{name}", std::process::id()));
    path
}

/// Serves `policy` as a one-tenant fleet.
fn serve_one(policy: DtPolicy, options: FleetOptions) -> HttpServer {
    let fleet = Fleet::new(options);
    fleet.add_tenant("e2e", policy, None).expect("tenant");
    serve_fleet(fleet, "127.0.0.1:0").expect("bind")
}

#[test]
fn client_request_id_is_traceable_end_to_end() {
    let policy = toy_policy();
    let audit_dir = temp_path("audit");
    let _ = std::fs::remove_dir_all(&audit_dir);
    let chain_path = audit_dir.join("e2e.jsonl");

    let options = FleetOptions {
        audit_dir: Some(audit_dir.clone()),
        audit_flush: FlushPolicy::Always,
        flight_capacity: 64,
        ..FleetOptions::default()
    };
    let server = serve_one(policy.clone(), options);
    let addr = server.addr();

    // A burst of traced decisions, one id we will follow all the way.
    let tracked = "e2e-trace-0001";
    for i in 0..20 {
        let id = if i == 7 {
            tracked.to_string()
        } else {
            format!("e2e-filler-{i:04}")
        };
        let body = format!(r#"{{"zone_temperature":{}}}"#, 14 + i % 10);
        let (status, headers, text) = blocking_request_with_headers(
            addr,
            "POST",
            "/decide",
            &[(REQUEST_ID_HEADER, &id)],
            &body,
        )
        .unwrap();
        assert_eq!(status, 200, "{text}");
        // 1. The id comes back on the response, header and body both.
        assert_eq!(header_value(&headers, REQUEST_ID_HEADER), Some(id.as_str()));
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("trace_id").and_then(JsonValue::as_str),
            Some(id.as_str())
        );
    }

    // 2. The flight recorder holds the tracked request with its stage
    //    timings and decision.
    let (status, flight) = blocking_request(addr, "GET", "/debug/flight", "").unwrap();
    assert_eq!(status, 200);
    let v = parse(&flight).unwrap();
    let records = v.get("records").and_then(JsonValue::as_array).unwrap();
    assert_eq!(records.len(), 20, "all decisions fit in the ring");
    let mine = records
        .iter()
        .find(|r| r.get("trace_id").and_then(JsonValue::as_str) == Some(tracked))
        .expect("tracked id in flight snapshot");
    assert!(mine.get("decide_ns").and_then(JsonValue::as_u64).unwrap() > 0);
    assert_eq!(
        mine.get("http_status").and_then(JsonValue::as_u64),
        Some(200)
    );

    // 3. The windowed latency series counted the burst.
    let (_, summary) = blocking_request(addr, "GET", "/summary.json", "").unwrap();
    let v = parse(&summary).unwrap();
    let count = v
        .get("windows")
        .and_then(|w| w.get("serve.decide.ns"))
        .and_then(|w| w.get("count"))
        .and_then(JsonValue::as_u64)
        .expect("windowed serve.decide.ns");
    assert!(count >= 20, "window count {count}");

    // 4. Graceful shutdown seals the chain; the tracked id is inside,
    //    hash-covered, and the whole chain audits green.
    server.shutdown();
    let text = std::fs::read_to_string(&chain_path).unwrap();
    assert!(
        text.contains(&format!("\"trace_id\":\"{tracked}\"")),
        "tracked id missing from sealed chain"
    );
    let report = Auditor::new(&text).with_policy(&policy).run();
    assert!(report.passed(), "{report}");
    assert_eq!(report.decisions, 20);
    assert!(report.sealed);
    let _ = std::fs::remove_dir_all(&audit_dir);
}

#[test]
fn invalid_request_ids_get_a_structured_422_and_no_decision() {
    let server = serve_one(toy_policy(), FleetOptions::default());
    let addr = server.addr();

    for bad in ["has space", "tab\tchar", &"x".repeat(200)] {
        let (status, _, text) = blocking_request_with_headers(
            addr,
            "POST",
            "/decide",
            &[(REQUEST_ID_HEADER, bad)],
            r#"{"zone_temperature":18}"#,
        )
        .unwrap();
        assert_eq!(status, 422, "id {bad:?}: {text}");
        let v = parse(&text).unwrap();
        assert!(
            v.get("error")
                .and_then(JsonValue::as_str)
                .is_some_and(|e| e.contains("X-Request-Id")),
            "structured error, got {text}"
        );
    }

    // None of the rejected requests reached the flight recorder as a
    // decision: the ring records /decide outcomes, and these were
    // turned away at the HTTP layer.
    let (_, flight) = blocking_request(addr, "GET", "/debug/flight", "").unwrap();
    let v = parse(&flight).unwrap();
    assert_eq!(v.get("recorded").and_then(JsonValue::as_u64), Some(0));
    server.shutdown();
}
