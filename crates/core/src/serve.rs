//! The decision path every serve request runs, and the ops-plane
//! pieces it feeds.
//!
//! The paper's argument (Table 3) is that a verified decision tree is
//! cheap enough to serve live traffic: one root-to-leaf descent per
//! request. The HTTP endpoint lives in [`crate::fleet`] — a single
//! building is served as a one-tenant fleet (`veri-hvac serve --policy`)
//! — and this module holds what each `/decide` request does inside it:
//!
//! * observation decoding ([`observation_from_json`],
//!   [`observation_from_value`]) with aggregated per-field errors;
//! * [`decide_json_traced`]: the guarded decide, the audit-chain
//!   append, and the response rendering, returning a
//!   [`DecideOutcome`] with per-stage latencies. It records the
//!   `serve.decide.ns` histogram and the `serve.decisions` counter.
//!
//! The served policy is wrapped in a
//! [`GuardedPolicy`](hvac_control::GuardedPolicy): invalid readings
//! degrade down the ladder (hold → rule-based fallback → fail-safe
//! setpoints) instead of reaching the tree, and each response reports
//! the rung in a `guard_state` field. On clean inputs the guard is
//! bit-identical to the bare policy, so a served decision still
//! matches calling [`Policy::decide`] in process on the same state.
//!
//! The **live ops plane** rides on every request: a trace id (the
//! client's validated `X-Request-Id`, or one from [`mint_trace_id`])
//! is echoed in the response header and body, stamped into the audit
//! chain's decision record, threaded through the guard's telemetry,
//! and captured — together with per-stage latencies, guard rung,
//! action, and HTTP status — in a lock-free flight recorder behind
//! `GET /debug/flight` (sized by
//! [`FleetOptions::flight_capacity`](crate::fleet::FleetOptions::flight_capacity)).
//! Decide latencies also feed a sliding-window histogram and an SLO
//! tracker (default objectives) behind `GET /debug/slo`.

use hvac_audit::AuditChain;
use hvac_control::{DtPolicy, GuardedPolicy};
use hvac_env::space::feature;
use hvac_env::{Observation, Policy, POLICY_INPUT_DIM};
use hvac_telemetry::json::{parse, JsonValue, ObjectWriter};
use hvac_telemetry::ring::FlightRecorder;
use hvac_telemetry::{warn, LATENCY_BOUNDS_NS};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Largest accepted `POST /decide` body. A flat 7-field observation
/// fits in a few hundred bytes; anything near this cap is hostile.
pub const MAX_DECIDE_BODY_BYTES: usize = 16 * 1024;

/// Per-request socket timeout on the serving endpoint.
pub const DECIDE_TIMEOUT: Duration = Duration::from_secs(5);

/// Parses a flat JSON object into an [`Observation`].
///
/// Field names are the canonical feature names of
/// [`feature::NAMES`] **or** the short aliases used throughout the
/// workspace (`zone_temperature`, `outdoor_temperature`,
/// `relative_humidity`, `wind_speed`, `solar_radiation`,
/// `occupant_count`, `hour_of_day`). `zone_temperature` is required;
/// missing disturbances default to 0.
///
/// # Errors
///
/// Returns a single aggregated message naming **every** malformed or
/// missing field (semicolon-separated), so a client fixing a bad body
/// sees all its problems at once instead of one per round trip.
pub fn observation_from_json(text: &str) -> Result<Observation, String> {
    observation_from_value(&parse_body(text)?)
}

/// Parses a request body, naming the failure the way every serve
/// route reports it.
pub(crate) fn parse_body(text: &str) -> Result<JsonValue, String> {
    parse(text).map_err(|e| format!("invalid JSON body: {e}"))
}

/// [`observation_from_json`] over an already-parsed [`JsonValue`] — the
/// entry point for embedded observations (each element of a fleet
/// `POST /tick` batch carries one under its `"observation"` key).
///
/// # Errors
///
/// Same aggregated per-field message as [`observation_from_json`].
pub fn observation_from_value(value: &JsonValue) -> Result<Observation, String> {
    if !matches!(value, JsonValue::Object(_)) {
        return Err("body must be a JSON object".to_string());
    }
    const ALIASES: [&str; POLICY_INPUT_DIM] = [
        "zone_temperature",
        "outdoor_temperature",
        "relative_humidity",
        "wind_speed",
        "solar_radiation",
        "occupant_count",
        "hour_of_day",
    ];
    let mut x = [0.0f64; POLICY_INPUT_DIM];
    let mut problems: Vec<String> = Vec::new();
    for (i, slot) in x.iter_mut().enumerate() {
        let field = value
            .get(ALIASES[i])
            .or_else(|| value.get(feature::NAMES[i]));
        match field {
            Some(v) => match v.as_f64() {
                // Oversized literals (`1e999`) parse to ±∞ — every
                // path that yields a value must reject non-finite, or
                // NaN/∞ leak straight into the tree descent.
                Some(n) if n.is_finite() => *slot = n,
                Some(_) => problems.push(format!("field {:?} must be finite", ALIASES[i])),
                None => problems.push(format!("field {:?} must be a number", ALIASES[i])),
            },
            None if i == feature::ZONE_TEMPERATURE => {
                problems.push("missing required field \"zone_temperature\"".to_string());
            }
            None => {}
        }
    }
    if problems.is_empty() {
        Ok(Observation::from_vector(&x))
    } else {
        Err(problems.join("; "))
    }
}

/// Everything one `/decide` request produced, for the ops plane: the
/// response body plus the per-stage breakdown the flight recorder and
/// SLO tracker consume.
#[derive(Debug)]
pub struct DecideOutcome {
    /// Rendered response JSON.
    pub body: String,
    /// Time spent parsing the request body, ns.
    pub parse_ns: u64,
    /// Time spent inside the guarded decide (policy mutex included), ns.
    pub decide_ns: u64,
    /// Time spent appending to the audit chain (0 when unaudited), ns.
    pub audit_ns: u64,
    /// End-to-end handler latency (the value `serve.decide.ns`
    /// recorded), ns.
    pub total_ns: u64,
    /// Guard rung gauge (0 normal … 3 fail-safe).
    pub guard_gauge: u64,
    /// Chosen heating setpoint (°C).
    pub heating: u64,
    /// Chosen cooling setpoint (°C).
    pub cooling: u64,
}

/// Decides on `body` with the guarded `policy` and renders the
/// response JSON (setpoints, action index, `action`, `guard_state`,
/// latency, and `trace_id` when given).
///
/// The trace id is threaded all the way down: into the guard's decide
/// (trace-level telemetry), the audit chain's decision record (format
/// v2), and the response body. When `audit` is given, the guard's
/// ladder transitions and then the decision itself are appended to the
/// chain before the response is rendered. A failed chain append never
/// fails the request — the decision was already taken and the actuator
/// side must not stall on audit I/O — but it is counted
/// (`serve.audit.errors`) and logged.
///
/// A poisoned mutex is recovered rather than propagated: the guard and
/// tree hold no invariants a panicking thread could have broken
/// half-way (both update plain counters), and a serving endpoint must
/// not turn one contained panic into a permanent 5xx.
///
/// # Errors
///
/// Propagates [`observation_from_json`] errors.
pub fn decide_json_traced(
    policy: &Mutex<GuardedPolicy<DtPolicy>>,
    audit: Option<&AuditChain>,
    body: &str,
    trace_id: Option<&str>,
) -> Result<DecideOutcome, String> {
    let started = Instant::now();
    decide_value_traced(policy, audit, &parse_body(body)?, trace_id, started)
}

/// [`decide_json_traced`] over a body the caller has already parsed
/// (the fleet's `POST /decide` reads the `tenant` field from the same
/// parse). `started` is when that parse began, so `parse_ns` and the
/// reported latency still cover it.
pub(crate) fn decide_value_traced(
    policy: &Mutex<GuardedPolicy<DtPolicy>>,
    audit: Option<&AuditChain>,
    body: &JsonValue,
    trace_id: Option<&str>,
    started: Instant,
) -> Result<DecideOutcome, String> {
    let observation = observation_from_value(body)?;
    let parse_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let decide_started = Instant::now();
    let mut guard = policy.lock().unwrap_or_else(PoisonError::into_inner);
    let action = match trace_id {
        Some(id) => guard.decide_traced(&observation, id),
        None => guard.decide(&observation),
    };
    let state = guard.state();
    let index = guard.inner().action_space().index_of(action);
    let transitions = if audit.is_some() {
        guard.take_transitions()
    } else {
        Vec::new()
    };
    drop(guard);
    let decide_ns = u64::try_from(decide_started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let audit_started = Instant::now();
    if let Some(chain) = audit {
        // Ladder movements first, then the decision they led to, so
        // the chain reads in causal order.
        let mut result = Ok(());
        for t in &transitions {
            result = result.and(chain.append_transition(t.from.name(), t.to.name()));
        }
        result = result.and(chain.append_decision(
            observation.to_vector(),
            action.heating() as u64,
            action.cooling() as u64,
            index as u64,
            state.name(),
            trace_id,
        ));
        if let Err(e) = result {
            hvac_telemetry::counter("serve.audit.errors").incr();
            warn!("audit chain append failed: {e}");
        }
    }
    let audit_ns = if audit.is_some() {
        u64::try_from(audit_started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    } else {
        0
    };

    let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    hvac_telemetry::counter("serve.decisions").incr();
    hvac_telemetry::histogram("serve.decide.ns", LATENCY_BOUNDS_NS).record(latency_ns);
    let mut o = ObjectWriter::new();
    o.u64_field("heating_setpoint", action.heating() as u64);
    o.u64_field("cooling_setpoint", action.cooling() as u64);
    o.u64_field("action_index", index as u64);
    o.str_field("action", &action.to_string());
    o.str_field("guard_state", state.name());
    o.u64_field("latency_ns", latency_ns);
    if let Some(id) = trace_id {
        o.str_field("trace_id", id);
    }
    Ok(DecideOutcome {
        body: o.finish(),
        parse_ns,
        decide_ns,
        audit_ns,
        total_ns: latency_ns,
        guard_gauge: state.as_gauge(),
        heating: action.heating() as u64,
        cooling: action.cooling() as u64,
    })
}

/// The sliding window the serve path records decide latencies into:
/// one minute at five-second resolution.
pub(crate) const SERVE_WINDOW_NS: u64 = 60 * 1_000_000_000;
pub(crate) const SERVE_WINDOW_EPOCHS: usize = 12;

/// Mints a deterministic trace id for a request that arrived without
/// one: FNV-1a over `seed` (the fleet's registered policy hashes,
/// comma-joined — the policy hash itself for a one-tenant fleet) and a
/// process-local sequence number — stable across identical replays,
/// unique within a serve session, and trivially valid per the
/// `X-Request-Id` contract.
pub fn mint_trace_id(seed: &str, sequence: u64) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed.bytes().chain(sequence.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("srv-{h:016x}")
}

/// Guard rung name for a flight-recorded gauge value.
fn rung_name(gauge: u64) -> &'static str {
    match gauge {
        0 => "normal",
        1 => "hold",
        2 => "fallback",
        3 => "fail_safe",
        _ => "unknown",
    }
}

/// Renders the `GET /debug/flight` body: ring capacity, total records
/// ever captured, and the surviving snapshot (most recent first).
pub(crate) fn flight_json(recorder: &FlightRecorder) -> String {
    let records = recorder.snapshot();
    let mut out = String::with_capacity(256 + records.len() * 256);
    out.push_str(&format!(
        "{{\"capacity\":{},\"recorded\":{},\"records\":[",
        recorder.capacity(),
        recorder.recorded()
    ));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = ObjectWriter::new();
        o.str_field("trace_id", &r.trace_id);
        o.u64_field("t_ns", r.t_ns);
        o.u64_field("parse_ns", r.parse_ns);
        o.u64_field("decide_ns", r.decide_ns);
        o.u64_field("audit_ns", r.audit_ns);
        o.str_field("guard_state", rung_name(r.guard_state));
        o.u64_field("heating_setpoint", r.heating_centi / 100);
        o.u64_field("cooling_setpoint", r.cooling_centi / 100);
        o.u64_field("http_status", r.http_status);
        out.push_str(&o.finish());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    //! The HTTP tests drive `serve --policy`'s one-tenant fleet.

    use super::*;
    use crate::fleet::{serve_fleet, Fleet, FleetOptions};
    use hvac_dtree::{DecisionTree, TreeConfig};
    use hvac_env::{ActionSpace, Disturbances, SetpointAction};
    use hvac_telemetry::http::{blocking_request, HttpServer, REQUEST_ID_HEADER};
    use hvac_verify::probabilistic::SafeProbability;
    use hvac_verify::{Certificate, VerificationConfig, VerificationReport};

    /// Cold zones → heat hard, warm zones → off (same toy tree as the
    /// dt_policy unit tests).
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
        let tree =
            DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap();
        DtPolicy::new(tree).unwrap()
    }

    /// Serves `policy` as a one-tenant fleet, the way
    /// `veri-hvac serve --policy` does.
    fn serve_one(
        policy: DtPolicy,
        certificate: Option<Certificate>,
        options: FleetOptions,
    ) -> HttpServer {
        let fleet = Fleet::new(options);
        fleet.add_tenant("default", policy, certificate).unwrap();
        serve_fleet(fleet, "127.0.0.1:0").expect("bind")
    }

    fn serve_default(policy: DtPolicy) -> HttpServer {
        serve_one(policy, None, FleetOptions::default())
    }

    #[test]
    fn observation_parsing_accepts_every_alias() {
        // One body per short alias, each carrying a distinct value.
        let obs = observation_from_json(
            r#"{"zone_temperature":18.5,"outdoor_temperature":-3.0,
                "relative_humidity":55.0,"wind_speed":4.5,"solar_radiation":120.0,
                "occupant_count":3,"hour_of_day":10.5}"#,
        )
        .unwrap();
        assert_eq!(obs.zone_temperature, 18.5);
        assert_eq!(obs.disturbances.outdoor_temperature, -3.0);
        assert_eq!(obs.disturbances.relative_humidity, 55.0);
        assert_eq!(obs.disturbances.wind_speed, 4.5);
        assert_eq!(obs.disturbances.solar_radiation, 120.0);
        assert_eq!(obs.disturbances.occupant_count, 3.0);
        assert_eq!(obs.disturbances.hour_of_day, 10.5);
    }

    #[test]
    fn observation_parsing_accepts_every_canonical_name() {
        // Same seven fields under their `feature::NAMES` spellings.
        let mut body = String::from("{");
        for (i, name) in feature::NAMES.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"{name}\":{}", 10 + i));
        }
        body.push('}');
        let obs = observation_from_json(&body).unwrap();
        assert_eq!(obs.to_vector(), [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]);
    }

    #[test]
    fn observation_parsing_rejects_each_branch() {
        // Branch: unparsable JSON.
        assert!(observation_from_json("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        // Branch: valid JSON, not an object.
        assert!(observation_from_json("[1,2,3]")
            .unwrap_err()
            .contains("object"));
        // Branch: required field missing.
        assert!(observation_from_json(r#"{"outdoor_temperature":1}"#)
            .unwrap_err()
            .contains("zone_temperature"));
        // Branch: present but not a number.
        assert!(observation_from_json(r#"{"zone_temperature":"cold"}"#)
            .unwrap_err()
            .contains("must be a number"));
        // Branch: present, numeric, non-finite (oversized literal → ∞).
        assert!(observation_from_json(r#"{"zone_temperature":1e999}"#)
            .unwrap_err()
            .contains("must be finite"));
    }

    #[test]
    fn observation_parsing_aggregates_all_problems() {
        let err = observation_from_json(
            r#"{"outdoor_temperature":"windy","wind_speed":1e999,"hour_of_day":[]}"#,
        )
        .unwrap_err();
        // All four problems in one message: missing zone temperature
        // plus the three malformed fields.
        assert!(err.contains("zone_temperature"), "{err}");
        assert!(err.contains("outdoor_temperature"), "{err}");
        assert!(err.contains("wind_speed"), "{err}");
        assert!(err.contains("hour_of_day"), "{err}");
        assert_eq!(err.matches(';').count(), 3, "{err}");
    }

    #[test]
    fn served_decision_matches_in_process_policy() {
        let mut reference = toy_policy();
        let server = serve_default(toy_policy());
        for temp in [15.0, 18.3, 21.0, 23.5] {
            let obs = Observation::new(temp, Disturbances::default());
            let expected = reference.decide(&obs);
            let body = format!(r#"{{"zone_temperature":{temp}}}"#);
            let (status, text) = blocking_request(server.addr(), "POST", "/decide", &body).unwrap();
            assert_eq!(status, 200, "{text}");
            let v = parse(&text).unwrap();
            let heating = v
                .get("heating_setpoint")
                .and_then(JsonValue::as_u64)
                .unwrap();
            let cooling = v
                .get("cooling_setpoint")
                .and_then(JsonValue::as_u64)
                .unwrap();
            assert_eq!(heating as i32, expected.heating(), "at {temp} °C");
            assert_eq!(cooling as i32, expected.cooling(), "at {temp} °C");
            assert!(v.get("latency_ns").and_then(JsonValue::as_u64).is_some());
            // Clean inputs never leave the normal rung.
            assert_eq!(
                v.get("guard_state").and_then(JsonValue::as_str),
                Some("normal")
            );
        }
        // The serving path records its latency histogram and counter.
        let snap = hvac_telemetry::snapshot();
        assert!(snap.counters["serve.decisions"] >= 4);
        assert!(snap.histograms["serve.decide.ns"].count >= 4);
        // Malformed bodies are a structured 422, not a crash.
        let (status, text) = blocking_request(server.addr(), "POST", "/decide", "{broken").unwrap();
        assert_eq!(status, 422);
        let v = parse(&text).expect("422 body is JSON");
        assert!(v.get("error").is_some());
        assert_eq!(v.get("status").and_then(JsonValue::as_u64), Some(422));
        server.shutdown();
    }

    #[test]
    fn out_of_range_readings_degrade_instead_of_reaching_the_tree() {
        let server = serve_default(toy_policy());
        // 300 °C parses fine but fails range validation; with no last
        // good value to hold, the guard drops straight to the
        // rule-based fallback.
        let (status, text) = blocking_request(
            server.addr(),
            "POST",
            "/decide",
            r#"{"zone_temperature":300}"#,
        )
        .unwrap();
        assert_eq!(status, 200, "{text}");
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("guard_state").and_then(JsonValue::as_str),
            Some("fallback")
        );
        // A good reading re-arms the ladder; the next bad one is held.
        let (_, _) = blocking_request(
            server.addr(),
            "POST",
            "/decide",
            r#"{"zone_temperature":21}"#,
        )
        .unwrap();
        let (status, text) = blocking_request(
            server.addr(),
            "POST",
            "/decide",
            r#"{"zone_temperature":300}"#,
        )
        .unwrap();
        assert_eq!(status, 200, "{text}");
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("guard_state").and_then(JsonValue::as_str),
            Some("hold")
        );
        server.shutdown();
    }

    #[test]
    fn version_endpoint_reports_build_policy_and_certificate() {
        // Uncertified: certified=false, verified=false, no
        // certificate_id key.
        let server = serve_default(toy_policy());
        let (status, text) = blocking_request(server.addr(), "GET", "/version", "").unwrap();
        assert_eq!(status, 200, "{text}");
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("crate_version").and_then(JsonValue::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(v
            .get("build")
            .and_then(JsonValue::as_str)
            .is_some_and(|b| !b.is_empty()));
        assert_eq!(
            v.get("policy_hash").and_then(JsonValue::as_str),
            Some(hvac_audit::policy_hash(&toy_policy()).as_str())
        );
        assert_eq!(v.get("certified").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("verified").and_then(JsonValue::as_bool), Some(false));
        assert!(v.get("certificate_id").is_none());
        server.shutdown();

        // Certified under a VERIFIED certificate: the id round-trips
        // verbatim.
        let report = VerificationReport {
            total_nodes: 3,
            leaf_nodes: 2,
            criterion_1: SafeProbability {
                safe: 1990,
                total: 2000,
                threshold: 0.9,
            },
            corrected_criterion_2: 0,
            corrected_criterion_3: 0,
        };
        let certificate = Certificate::new(
            hvac_audit::policy_hash(&toy_policy()),
            report,
            &VerificationConfig::paper(),
            0.1,
            Vec::new(),
        )
        .with_id("deadbeef".repeat(8));
        let server = serve_one(toy_policy(), Some(certificate), FleetOptions::default());
        let (_, text) = blocking_request(server.addr(), "GET", "/version", "").unwrap();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("certified").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("verified").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("certificate_id").and_then(JsonValue::as_str),
            Some("deadbeef".repeat(8).as_str())
        );
        server.shutdown();
    }

    #[test]
    fn audited_serve_session_seals_a_verifiable_chain_on_shutdown() {
        use hvac_audit::Auditor;

        // A fresh directory: a chain left by an earlier run would be
        // resumed, not replaced.
        let dir =
            std::env::temp_dir().join(format!("hvac-serve-audit-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("default.jsonl");
        let policy = toy_policy();
        let options = FleetOptions {
            audit_dir: Some(dir.clone()),
            ..FleetOptions::default()
        };
        let server = serve_one(policy.clone(), None, options);
        for i in 0..30 {
            let temp = 14.0 + f64::from(i) * 0.3;
            let body = format!(r#"{{"zone_temperature":{temp}}}"#);
            let (status, _) = blocking_request(server.addr(), "POST", "/decide", &body).unwrap();
            assert_eq!(status, 200);
        }
        // One invalid reading so the chain records guard transitions
        // too (normal → hold → normal).
        let (status, _) = blocking_request(
            server.addr(),
            "POST",
            "/decide",
            r#"{"zone_temperature":300}"#,
        )
        .unwrap();
        assert_eq!(status, 200);
        // Graceful shutdown runs the seal hook before returning.
        server.shutdown();

        let text = std::fs::read_to_string(&path).unwrap();
        // No trailing partial record: the file ends on a newline and
        // the last line is a complete seal record.
        assert!(text.ends_with('\n'), "chain file ends mid-record");
        assert!(
            text.lines().last().unwrap().contains(r#""kind":"seal""#),
            "chain does not end in a seal record"
        );
        let report = Auditor::new(&text).with_policy(&policy).run();
        assert!(report.passed(), "{report}");
        assert_eq!(report.decisions, 31);
        assert!(report.transitions >= 1, "{report}");
        assert!(report.sealed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minted_trace_ids_are_deterministic_and_valid() {
        let a = mint_trace_id("policyhash", 0);
        let b = mint_trace_id("policyhash", 0);
        let c = mint_trace_id("policyhash", 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("srv-"));
        assert!(hvac_telemetry::http::valid_request_id(&a));
    }

    #[test]
    fn decide_without_client_id_mints_one_and_flight_records_it() {
        use hvac_telemetry::http::{blocking_request_with_headers, header_value};

        let server = serve_default(toy_policy());
        let (status, headers, text) = blocking_request_with_headers(
            server.addr(),
            "POST",
            "/decide",
            &[],
            r#"{"zone_temperature":18}"#,
        )
        .unwrap();
        assert_eq!(status, 200, "{text}");
        let minted = header_value(&headers, REQUEST_ID_HEADER)
            .expect("minted id on response")
            .to_string();
        assert!(minted.starts_with("srv-"), "{minted}");
        // The body carries the same id.
        let v = parse(&text).unwrap();
        assert_eq!(
            v.get("trace_id").and_then(JsonValue::as_str),
            Some(minted.as_str())
        );
        // And so does the flight snapshot.
        let (status, flight) = blocking_request(server.addr(), "GET", "/debug/flight", "").unwrap();
        assert_eq!(status, 200);
        let v = parse(&flight).unwrap();
        let records = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert!(records
            .iter()
            .any(|r| { r.get("trace_id").and_then(JsonValue::as_str) == Some(minted.as_str()) }));
        server.shutdown();
    }

    #[test]
    fn client_trace_id_reaches_flight_window_and_slo() {
        use hvac_telemetry::http::{blocking_request_with_headers, header_value};

        let server = serve_default(toy_policy());
        let id = "req-ops-plane-0042";
        let (status, headers, text) = blocking_request_with_headers(
            server.addr(),
            "POST",
            "/decide",
            &[(REQUEST_ID_HEADER, id)],
            r#"{"zone_temperature":16}"#,
        )
        .unwrap();
        assert_eq!(status, 200, "{text}");
        assert_eq!(header_value(&headers, REQUEST_ID_HEADER), Some(id));

        // Flight snapshot carries the client id, stage latencies, and
        // the decision.
        let (_, flight) = blocking_request(server.addr(), "GET", "/debug/flight", "").unwrap();
        let v = parse(&flight).unwrap();
        let records = v.get("records").and_then(JsonValue::as_array).unwrap();
        let mine = records
            .iter()
            .find(|r| r.get("trace_id").and_then(JsonValue::as_str) == Some(id))
            .expect("client id in flight snapshot");
        assert!(mine.get("decide_ns").and_then(JsonValue::as_u64).unwrap() > 0);
        assert_eq!(
            mine.get("guard_state").and_then(JsonValue::as_str),
            Some("normal")
        );
        assert_eq!(
            mine.get("http_status").and_then(JsonValue::as_u64),
            Some(200)
        );

        // The windowed latency series saw the request.
        let (_, summary) = blocking_request(server.addr(), "GET", "/summary.json", "").unwrap();
        let v = parse(&summary).unwrap();
        let window = v
            .get("windows")
            .and_then(|w| w.get("serve.decide.ns"))
            .expect("windowed serve.decide.ns in summary");
        assert!(window.get("count").and_then(JsonValue::as_u64).unwrap() >= 1);

        // The SLO tracker counted it and reports burn status.
        let (status, slo) = blocking_request(server.addr(), "GET", "/debug/slo", "").unwrap();
        assert_eq!(status, 200);
        let v = parse(&slo).unwrap();
        assert!(v.get("overall").and_then(JsonValue::as_str).is_some());
        let objectives = v.get("objectives").and_then(JsonValue::as_array).unwrap();
        let availability = objectives
            .iter()
            .find(|o| o.get("name").and_then(JsonValue::as_str) == Some("availability"))
            .unwrap();
        assert!(
            availability
                .get("fast")
                .and_then(|f| f.get("total"))
                .and_then(JsonValue::as_u64)
                .unwrap()
                >= 1
        );
        server.shutdown();
    }

    #[test]
    fn disabled_flight_recorder_answers_404() {
        let options = FleetOptions {
            flight_capacity: 0,
            ..FleetOptions::default()
        };
        let server = serve_one(toy_policy(), None, options);
        let (status, _) = blocking_request(server.addr(), "GET", "/debug/flight", "").unwrap();
        assert_eq!(status, 404);
        // The SLO endpoint stays up regardless.
        let (status, _) = blocking_request(server.addr(), "GET", "/debug/slo", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn rejected_decides_are_flight_recorded_with_422() {
        let server = serve_default(toy_policy());
        let (status, _) = blocking_request(server.addr(), "POST", "/decide", "{broken").unwrap();
        assert_eq!(status, 422);
        let (_, flight) = blocking_request(server.addr(), "GET", "/debug/flight", "").unwrap();
        let v = parse(&flight).unwrap();
        let records = v.get("records").and_then(JsonValue::as_array).unwrap();
        assert!(records
            .iter()
            .any(|r| { r.get("http_status").and_then(JsonValue::as_u64) == Some(422) }));
        server.shutdown();
    }

    #[test]
    fn oversized_decide_bodies_are_rejected() {
        use std::io::{Read, Write};
        let server = serve_default(toy_policy());
        // Declare a body beyond the cap; the server answers 413 from
        // the headers alone, without waiting for (or reading) it.
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST /decide HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_DECIDE_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap();
        assert!(parse(body).is_ok(), "413 body is JSON: {body}");
        server.shutdown();
    }
}
