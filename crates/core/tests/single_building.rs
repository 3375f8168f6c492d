//! `veri-hvac serve --policy FILE` end to end. A single building is
//! served as a one-tenant fleet; these tests pin the contract that
//! brings along: the audit chain it writes is record for record the
//! chain `decide_json_traced` writes on the same requests, a restart
//! resumes that chain instead of truncating it, and `--audit-log` must
//! name a `.jsonl` file whose stem is a valid tenant id.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

use hvac_telemetry::http::{blocking_request_with_headers, header_value, REQUEST_ID_HEADER};
use hvac_telemetry::json::{parse, JsonValue};
use veri_hvac::audit::record::decode_line;
use veri_hvac::audit::{AuditChain, ChainConfig, ChainRecord, FlushPolicy, Payload};
use veri_hvac::control::{DtPolicy, GuardConfig, GuardedPolicy};
use veri_hvac::dtree::{DecisionTree, TreeConfig};
use veri_hvac::env::space::feature;
use veri_hvac::env::{ActionSpace, ComfortRange, SetpointAction, POLICY_INPUT_DIM};
use veri_hvac::serve::{decide_json_traced, mint_trace_id};

const BIN: &str = env!("CARGO_BIN_EXE_veri_hvac");

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

/// A fresh scratch directory holding `policy.dtree`.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvac-serve-policy-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("policy.dtree"), toy_policy().to_compact_string()).unwrap();
    dir
}

/// Spawns `veri_hvac serve --policy` for a bounded session and returns
/// the child plus the bound address parsed from its startup banner.
fn spawn_serve(policy: &Path, audit_log: &Path, duration_secs: u32) -> (Child, SocketAddr) {
    let mut child = Command::new(BIN)
        .arg("serve")
        .arg("--policy")
        .arg(policy)
        .arg("--audit-log")
        .arg(audit_log)
        .args(["--addr", "127.0.0.1:0", "--duration"])
        .arg(duration_secs.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve --policy");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("serving fleet on http://") {
            break rest.trim().parse().unwrap();
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// One `POST /decide`, with a client trace id when given; returns the
/// echoed trace id and the response body.
fn decide(addr: SocketAddr, trace_id: Option<&str>, body: &str) -> (String, String) {
    let headers: Vec<(&str, &str)> = trace_id
        .map(|id| (REQUEST_ID_HEADER, id))
        .into_iter()
        .collect();
    let (status, response_headers, text) =
        blocking_request_with_headers(addr, "POST", "/decide", &headers, body).unwrap();
    assert_eq!(status, 200, "{text}");
    let echoed = header_value(&response_headers, REQUEST_ID_HEADER)
        .expect("trace id on every response")
        .to_string();
    (echoed, text)
}

/// A chain file's records with the timestamp and everything hashed
/// over it blanked: `t_ns`, `prev_hash`, `record_hash`, and the
/// checkpoint/recovery digests.
fn records_without_time(path: &Path) -> Vec<ChainRecord> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .map(|line| {
            let mut record = decode_line(line).unwrap();
            record.t_ns = 0;
            record.prev_hash.clear();
            record.record_hash.clear();
            match &mut record.payload {
                Payload::Checkpoint { digest, .. } => digest.clear(),
                Payload::Recovery { prefix_digest, .. } => prefix_digest.clear(),
                _ => {}
            }
            record
        })
        .collect()
}

#[test]
fn policy_chain_matches_a_direct_decide_json_traced_reference() {
    let dir = fresh_dir("contract");
    let policy_path = dir.join("policy.dtree");
    let chain_path = dir.join("chain.jsonl");
    // Clean readings on both sides of the split, client ids and minted
    // ids, and out-of-range readings that walk the guard ladder
    // (normal → fallback → normal → hold → normal), so transitions are
    // recorded too.
    let requests: Vec<(Option<&str>, String)> = [
        (None, 15.0),
        (Some("client-0001"), 21.5),
        (None, 300.0),
        (None, 18.25),
        (Some("client-0002"), 300.0),
        (None, 19.0),
        (None, 23.0),
        (Some("client-0003"), 14.5),
    ]
    .into_iter()
    .map(|(id, temp)| {
        (
            id,
            format!(r#"{{"zone_temperature":{temp},"hour_of_day":9}}"#),
        )
    })
    .collect();

    let (mut child, addr) = spawn_serve(&policy_path, &chain_path, 3);
    let served: Vec<(String, String)> = requests
        .iter()
        .map(|(id, body)| decide(addr, *id, body))
        .collect();
    assert!(child.wait().unwrap().success(), "bounded session exits 0");

    // The reference: the same requests through `decide_json_traced` on
    // a chain opened the way the CLI opens one, with trace ids minted
    // from the single policy hash.
    let policy = toy_policy();
    let policy_hash = veri_hvac::audit::policy_hash(&policy);
    let reference_path = dir.join("reference.jsonl");
    let reference = AuditChain::create(
        &reference_path,
        &policy_hash,
        "",
        ChainConfig {
            flush: FlushPolicy::Always,
            ..ChainConfig::default()
        },
    )
    .unwrap();
    let guard = Mutex::new(GuardedPolicy::new(
        policy,
        GuardConfig::new(ComfortRange::winter()),
    ));
    let mut minted = 0u64;
    for ((id, body), (served_id, served_body)) in requests.iter().zip(&served) {
        let trace_id = match id {
            Some(id) => id.to_string(),
            None => {
                minted += 1;
                mint_trace_id(&policy_hash, minted - 1)
            }
        };
        assert_eq!(served_id, &trace_id, "trace id for {body}");
        let outcome = decide_json_traced(&guard, Some(&reference), body, Some(&trace_id)).unwrap();

        // The wire body gains a leading "tenant" key; every key of the
        // reference body keeps its value (latency aside).
        let JsonValue::Object(fields) = parse(served_body).unwrap() else {
            panic!("decide body is an object: {served_body}");
        };
        assert_eq!(
            fields.first(),
            Some(&("tenant".to_string(), JsonValue::String("chain".to_string())))
        );
        let JsonValue::Object(expected) = parse(&outcome.body).unwrap() else {
            unreachable!("rendered by ObjectWriter");
        };
        for (key, value) in expected.iter().filter(|(key, _)| key != "latency_ns") {
            assert_eq!(
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                Some(value),
                "{key} in {served_body}"
            );
        }
    }
    reference.seal().unwrap();

    let served_records = records_without_time(&chain_path);
    let reference_records = records_without_time(&reference_path);
    assert!(
        served_records
            .iter()
            .any(|r| matches!(r.payload, Payload::Transition { .. })),
        "the request mix must exercise guard transitions"
    );
    assert_eq!(served_records, reference_records);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_policy_serve_resumes_its_chain() {
    let dir = fresh_dir("restart");
    let policy_path = dir.join("policy.dtree");
    let chain_path = dir.join("chain.jsonl");
    for session in ["s1", "s2"] {
        let (mut child, addr) = spawn_serve(&policy_path, &chain_path, 2);
        for i in 0..10 {
            let body = format!(r#"{{"zone_temperature":{}}}"#, 14 + i % 10);
            decide(addr, Some(&format!("{session}-{i:02}")), &body);
        }
        assert!(child.wait().unwrap().success(), "{session} exits 0");
    }

    let text = std::fs::read_to_string(&chain_path).unwrap();
    for session in ["s1", "s2"] {
        for i in 0..10 {
            assert!(
                text.contains(&format!("\"trace_id\":\"{session}-{i:02}\"")),
                "decision {session}-{i:02} missing from the chain"
            );
        }
    }
    assert_eq!(text.matches(r#""kind":"recovery""#).count(), 1, "{text}");
    assert!(
        text.lines().last().unwrap().contains(r#""kind":"seal""#),
        "the chain ends in the second session's seal"
    );
    let audit = Command::new(BIN)
        .arg("audit")
        .arg("--chain")
        .arg(&chain_path)
        .arg("--policy")
        .arg(&policy_path)
        .arg("--json")
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&audit.stdout);
    assert!(audit.status.success(), "{report}");
    assert!(report.contains(r#""decisions":20"#), "{report}");
    assert!(report.contains(r#""recoveries":1"#), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_log_must_be_a_jsonl_file_named_by_a_tenant_id() {
    let dir = fresh_dir("audit-log-names");
    for bad in ["chain.txt", "chain", "bad name.jsonl", ".jsonl"] {
        let output = Command::new(BIN)
            .arg("serve")
            .arg("--policy")
            .arg(dir.join("policy.dtree"))
            .arg("--audit-log")
            .arg(dir.join(bad))
            .args(["--addr", "127.0.0.1:0", "--duration", "1"])
            .output()
            .unwrap();
        assert!(!output.status.success(), "--audit-log {bad} accepted");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--audit-log"), "{bad}: {stderr}");
        assert!(!dir.join(bad).exists(), "{bad}: a chain was created");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
