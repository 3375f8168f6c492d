//! One integration test per tamper class the audit chain is designed
//! to catch (`ISSUE` acceptance criteria): bit-flip, deletion,
//! reordering, truncation after the last checkpoint, and policy /
//! certificate mismatch — plus a ≥1000-decision clean session that must
//! audit green end to end.

use std::path::PathBuf;
use std::sync::Arc;

use hvac_audit::{
    bind_certificate, policy_hash, AuditChain, AuditOptions, AuditReport, Auditor, ChainConfig,
    FlushPolicy,
};
use hvac_control::DtPolicy;
use hvac_dtree::{DecisionTree, TreeConfig};
use hvac_env::space::feature;
use hvac_env::{ActionSpace, Observation, Policy, SetpointAction, POLICY_INPUT_DIM};
use hvac_verify::probabilistic::SafeProbability;
use hvac_verify::{Certificate, VerificationConfig, VerificationReport};

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

/// An unbound certificate covering `policy` (synthetic verification
/// outcome — the binding, not the verification math, is under test).
fn unbound_certificate(policy: &DtPolicy) -> Certificate {
    let report = VerificationReport {
        total_nodes: 7,
        leaf_nodes: 4,
        criterion_1: SafeProbability {
            safe: 1980,
            total: 2000,
            threshold: 0.9,
        },
        corrected_criterion_2: 1,
        corrected_criterion_3: 0,
    };
    let config = VerificationConfig::paper();
    Certificate::new(
        policy_hash(policy),
        report,
        &config,
        0.1,
        vec!["dataset/0011223344556677".to_string()],
    )
}

fn toy_certificate(policy: &DtPolicy) -> Certificate {
    bind_certificate(unbound_certificate(policy))
}

/// A scratch path under the target-dir tempdir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hvac-audit-tamper");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Serves `decisions` observations through `policy` into a fresh
/// sealed chain and returns the raw chain text.
fn record_session(
    name: &str,
    policy: &DtPolicy,
    certificate_id: &str,
    decisions: usize,
    checkpoint_every: u64,
) -> String {
    let path = scratch(name);
    let mut live = policy.clone();
    let chain = Arc::new(
        AuditChain::create(
            &path,
            &policy_hash(policy),
            certificate_id,
            ChainConfig {
                checkpoint_every,
                flush: FlushPolicy::OnSeal,
            },
        )
        .unwrap(),
    );
    for i in 0..decisions {
        let mut x = [0.0f64; POLICY_INPUT_DIM];
        x[feature::ZONE_TEMPERATURE] = 14.0 + (i % 160) as f64 * 0.063;
        x[feature::HOUR_OF_DAY] = (i % 24) as f64;
        let action = live.decide(&Observation::from_vector(&x));
        let index = live.action_space().index_of(action) as u64;
        // A couple of guard excursions so replay has non-normal rows
        // to skip.
        if i % 97 == 5 {
            chain.append_transition("normal", "hold").unwrap();
            chain
                .append_decision(x, 20, 26, index, "hold", Some("req-hold"))
                .unwrap();
            chain.append_transition("hold", "normal").unwrap();
            continue;
        }
        chain
            .append_decision(
                x,
                action.heating() as u64,
                action.cooling() as u64,
                index,
                "normal",
                Some(&format!("req-{i:08x}")),
            )
            .unwrap();
    }
    chain.seal().unwrap();
    std::fs::read_to_string(&path).unwrap()
}

fn audit(text: &str, policy: &DtPolicy, certificate: &Certificate) -> AuditReport {
    Auditor::new(text)
        .with_policy(policy)
        .with_certificate(certificate)
        .run()
}

fn failed_names(report: &AuditReport) -> Vec<&'static str> {
    report
        .checks
        .iter()
        .filter(|c| !c.passed)
        .map(|c| c.name)
        .collect()
}

#[test]
fn clean_thousand_decision_session_audits_green() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "clean.jsonl",
        &policy,
        &certificate.certificate_id,
        1000,
        64,
    );
    let report = audit(&text, &policy, &certificate);
    assert!(report.passed(), "{report}");
    assert_eq!(report.decisions, 1000);
    assert!(report.checkpoints >= 15, "{report}");
    assert!(report.sealed);
    assert!(report.replayed >= 60, "{report}");
    assert_eq!(report.policy_hash, policy_hash(&policy));
    assert_eq!(report.certificate_id, certificate.certificate_id);
}

#[test]
fn bit_flip_in_a_record_is_detected() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "bitflip.jsonl",
        &policy,
        &certificate.certificate_id,
        40,
        16,
    );
    // Flip one digit of a mid-chain observation (length-preserving, so
    // only the hash can catch it).
    let lines: Vec<&str> = text.lines().collect();
    let victim = lines[20];
    let flipped = if victim.contains("14.") {
        victim.replacen("14.", "15.", 1)
    } else {
        victim.replacen("0.0", "0.1", 1)
    };
    assert_ne!(victim, flipped, "fixture must actually flip a byte");
    let tampered = text.replacen(victim, &flipped, 1);
    let report = audit(&tampered, &policy, &certificate);
    assert!(!report.passed());
    let failed = failed_names(&report);
    assert!(
        failed.contains(&"record_hashes") || failed.contains(&"lines"),
        "bit-flip must fail the hash or parse check, failed: {failed:?}"
    );
    assert!(
        report.first_failure().unwrap().detail.contains("2"),
        "failure should point at a line/seq: {}",
        report.first_failure().unwrap().detail
    );
}

#[test]
fn deleted_record_is_detected() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session("delete.jsonl", &policy, &certificate.certificate_id, 40, 16);
    let lines: Vec<&str> = text.lines().collect();
    // Drop one mid-chain decision record entirely.
    let mut kept: Vec<&str> = lines.clone();
    kept.remove(12);
    let tampered = kept.join("\n") + "\n";
    let report = audit(&tampered, &policy, &certificate);
    assert!(!report.passed());
    assert!(
        failed_names(&report).contains(&"chain_links"),
        "deletion must break the seq/prev_hash links: {report}"
    );
}

#[test]
fn reordered_records_are_detected() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "reorder.jsonl",
        &policy,
        &certificate.certificate_id,
        40,
        16,
    );
    let mut lines: Vec<&str> = text.lines().collect();
    lines.swap(8, 9);
    let tampered = lines.join("\n") + "\n";
    let report = audit(&tampered, &policy, &certificate);
    assert!(!report.passed());
    assert!(
        failed_names(&report).contains(&"chain_links"),
        "reordering must break the seq/prev_hash links: {report}"
    );
}

#[test]
fn truncation_after_last_checkpoint_is_detected() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "truncate.jsonl",
        &policy,
        &certificate.certificate_id,
        50,
        16,
    );
    // Cut the suffix after the last periodic checkpoint (seal
    // included): every surviving prefix hash still verifies, so only
    // the missing seal can betray the cut.
    let lines: Vec<&str> = text.lines().collect();
    let last_checkpoint = lines
        .iter()
        .rposition(|l| l.contains("\"kind\":\"checkpoint\""))
        .expect("session long enough to checkpoint");
    let tampered = lines[..=last_checkpoint].join("\n") + "\n";
    let report = audit(&tampered, &policy, &certificate);
    assert!(!report.passed());
    assert_eq!(failed_names(&report), vec!["seal"], "{report}");
    // The documented trade-off: --allow-unsealed tolerates exactly
    // this, for chains from signal-killed serves.
    let tolerant = Auditor::new(&tampered)
        .with_policy(&policy)
        .with_certificate(&certificate)
        .options(AuditOptions {
            allow_unsealed: true,
            ..AuditOptions::default()
        })
        .run();
    assert!(tolerant.passed(), "{tolerant}");
}

#[test]
fn policy_and_certificate_mismatches_are_detected() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "mismatch.jsonl",
        &policy,
        &certificate.certificate_id,
        30,
        16,
    );

    // A different policy: both the binding check and (generally) the
    // replay check must object.
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    let space = ActionSpace::new();
    let low = space.index_of(SetpointAction::new(18, 26).unwrap());
    for i in 0..20 {
        let mut row = vec![0.0; POLICY_INPUT_DIM];
        row[feature::ZONE_TEMPERATURE] = 14.0 + f64::from(i) * 0.5;
        inputs.push(row);
        labels.push(low);
    }
    let other = DtPolicy::new(
        DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap(),
    )
    .unwrap();
    let report = audit(&text, &other, &certificate);
    assert!(!report.passed());
    assert!(
        failed_names(&report).contains(&"policy"),
        "wrong policy must fail the binding check: {report}"
    );

    // A certificate for the wrong policy: the certificate check fails
    // even though the chain and policy agree with each other.
    let wrong_certificate = toy_certificate(&other);
    let report = audit(&text, &policy, &wrong_certificate);
    assert!(!report.passed());
    // The certificate binding fails outright, and the policy check
    // (which trusts the certificate's claim when one is supplied)
    // correctly objects too.
    assert!(
        failed_names(&report).contains(&"certificate"),
        "wrong certificate must fail the binding check: {report}"
    );

    // A certificate whose id was edited after binding: the id no
    // longer hashes its canonical bytes.
    let mut forged = certificate.clone();
    forged.certificate_id = format!("0{}", &forged.certificate_id[1..]);
    let report = audit(&text, &policy, &forged);
    assert!(
        failed_names(&report).contains(&"certificate"),
        "forged certificate id must fail: {report}"
    );
}

#[test]
fn not_verified_certificate_binds_and_the_report_carries_its_verdict() {
    let policy = toy_policy();
    // Criterion #1 at 289/500 = 57.8% against a 0.9 threshold.
    let mut unbound = unbound_certificate(&policy);
    unbound.report.criterion_1 = SafeProbability {
        safe: 289,
        total: 500,
        threshold: 0.9,
    };
    let refuted = bind_certificate(unbound);
    assert!(!refuted.verified());
    let text = record_session(
        "not-verified.jsonl",
        &policy,
        &refuted.certificate_id,
        30,
        16,
    );

    // Binding, not verdict, decides the check: the chain audits green,
    // and the verdict is reported alongside.
    let report = audit(&text, &policy, &refuted);
    assert!(report.passed(), "{report}");
    assert_eq!(report.verified, Some(false));
    let check = report
        .checks
        .iter()
        .find(|c| c.name == "certificate")
        .expect("certificate check runs when a certificate is supplied");
    assert!(
        check.detail.contains("NOT VERIFIED")
            && check.detail.contains("0.5780")
            && check.detail.contains("threshold 0.9"),
        "{}",
        check.detail
    );
    assert!(
        report
            .to_json_string()
            .contains(r#""verdict":"NOT VERIFIED""#),
        "{}",
        report.to_json_string()
    );

    // The same chain under a VERIFIED certificate says so.
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "verified.jsonl",
        &policy,
        &certificate.certificate_id,
        30,
        16,
    );
    let report = audit(&text, &policy, &certificate);
    assert!(report.passed(), "{report}");
    assert_eq!(report.verified, Some(true));
    assert!(report.to_json_string().contains(r#""verdict":"VERIFIED""#));

    // Without a certificate there is no verdict to report.
    let report = Auditor::new(&text).with_policy(&policy).run();
    assert_eq!(report.verified, None);
    assert!(report.to_json_string().contains(r#""verdict":"none""#));
}

/// Certificates issued while a compiled kernel was bound carry a
/// `compiled_hash` field in their canonical bytes. They must still
/// parse, recompute their id, and vouch for chains stamped with it.
#[test]
fn legacy_certificate_with_compiled_hash_parses_and_still_binds() {
    let policy = toy_policy();
    let canonical = unbound_certificate(&policy).canonical_string();
    assert!(!canonical.contains("compiled_hash"));
    let legacy_canonical = format!(
        "{},\"compiled_hash\":\"{}\"}}",
        &canonical[..canonical.len() - 1],
        "ef".repeat(32)
    );
    let id = hvac_audit::sha256_hex(legacy_canonical.as_bytes());
    let json = format!(
        "{},\"certificate_id\":\"{id}\"}}",
        &legacy_canonical[..legacy_canonical.len() - 1]
    );
    let legacy = Certificate::from_json_string(&json).unwrap();
    assert_eq!(legacy.compiled_hash, "ef".repeat(32));
    assert_eq!(legacy.certificate_id, id);
    assert_eq!(legacy.canonical_string(), legacy_canonical);
    assert!(hvac_audit::certificate_id_is_consistent(&legacy));

    let text = record_session("legacy-cert.jsonl", &policy, &id, 30, 16);
    let report = audit(&text, &policy, &legacy);
    assert!(report.passed(), "{report}");
}

/// A record's hash covers one canonical rendering. A decision line
/// that repeats a key, carrying a record_hash computed over its own
/// (non-canonical) bytes, must be rejected as a record, not merely
/// break its successor's link.
#[test]
fn decision_line_with_a_duplicate_key_hashed_over_its_own_bytes_fails() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "duplicate-key.jsonl",
        &policy,
        &certificate.certificate_id,
        30,
        16,
    );
    let line = text
        .lines()
        .find(|l| l.contains(r#""kind":"decision""#) && l.contains(r#""guard_state":"normal""#))
        .expect("session has a normal decision");
    let json = &line[line.find(' ').unwrap() + 1..];
    let hash_at = json.find(r#","record_hash":""#).unwrap();
    let heating_at = json.find(r#""heating":"#).unwrap();
    // Both keys present: the forged one first, the genuine one after.
    let body = format!(
        "{}\"heating\":99,{}}}",
        &json[..heating_at],
        &json[heating_at..hash_at]
    );
    let forged_hash = hvac_audit::sha256_hex(body.as_bytes());
    let forged_json = format!(
        "{},\"record_hash\":\"{forged_hash}\"}}",
        &body[..body.len() - 1]
    );
    let forged_line = format!("{} {forged_json}", forged_json.len());
    let tampered = text.replacen(line, &forged_line, 1);
    assert_ne!(tampered, text);

    let report = audit(&tampered, &policy, &certificate);
    assert!(!report.passed(), "{report}");
    let failed = failed_names(&report);
    assert!(
        failed.contains(&"lines") || failed.contains(&"record_hashes"),
        "the forged line itself must be rejected: {report}"
    );
}

#[test]
fn torn_final_record_recovers_at_every_cut_offset() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session("torn.jsonl", &policy, &certificate.certificate_id, 40, 16);
    // Byte offset where the final (seal) record starts.
    let base = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    let prefix_records = text[..base].lines().count() as u64;
    let json_start = text[base..].find(' ').unwrap() + 1;
    // Crash points: inside the length prefix, just into the JSON, deep
    // mid-JSON, and a complete record missing only its newline.
    let cuts = [
        base + 2,
        base + json_start + 1,
        base + json_start + 25,
        text.len() - 1,
    ];
    for (i, &cut) in cuts.iter().enumerate() {
        let torn = &text[..cut];
        // Before recovery the auditor names the torn fragment exactly.
        let report = audit(torn, &policy, &certificate);
        assert!(!report.passed(), "cut {i}: torn chain must audit red");
        assert_eq!(report.failure_class(), "torn_tail", "cut {i}: {report}");
        assert_eq!(report.torn_tail_offset, Some(base as u64), "cut {i}");
        let detail = &report.first_failure().unwrap().detail;
        assert!(
            detail.contains(&format!("byte offset {base}")) && detail.contains("--recover"),
            "cut {i}: detail must name the offset and the remedy: {detail}"
        );

        // Recovery truncates exactly the torn bytes and resumes.
        let path = scratch(&format!("torn-{i}.jsonl"));
        std::fs::write(&path, torn.as_bytes()).unwrap();
        let (chain, recovery) = hvac_audit::AuditChain::recover(
            &path,
            hvac_audit::ChainConfig {
                checkpoint_every: 16,
                flush: FlushPolicy::Always,
            },
        )
        .unwrap();
        assert_eq!(recovery.truncated_bytes, (cut - base) as u64, "cut {i}");
        assert_eq!(recovery.truncated_at, base as u64, "cut {i}");
        assert_eq!(recovery.prefix_records, prefix_records, "cut {i}");
        drop(chain); // drop-seals the resumed chain

        let recovered = std::fs::read_to_string(&path).unwrap();
        assert!(
            recovered.as_bytes().starts_with(&text.as_bytes()[..base]),
            "cut {i}: the verified prefix must survive byte-identically"
        );
        let report = audit(&recovered, &policy, &certificate);
        assert!(report.passed(), "cut {i}: {report}");
        assert_eq!(report.recoveries, 1, "cut {i}");
        assert_eq!(report.failure_class(), "none", "cut {i}");
    }
}

#[test]
fn interior_corruption_is_not_recoverable() {
    let policy = toy_policy();
    let certificate = toy_certificate(&policy);
    let text = record_session(
        "interior.jsonl",
        &policy,
        &certificate.certificate_id,
        30,
        16,
    );
    // A complete interior line whose bytes no longer match its hash is
    // tampering, not a crash: recovery must refuse and leave the file
    // untouched. (Length-preserving flip, so only the hash can object.)
    let tampered = text.replacen("14.", "15.", 1);
    assert_ne!(tampered, text);
    let path = scratch("interior-tampered.jsonl");
    std::fs::write(&path, tampered.as_bytes()).unwrap();
    let err = hvac_audit::AuditChain::recover(&path, hvac_audit::ChainConfig::default())
        .map(|_| ())
        .unwrap_err();
    assert!(
        err.to_string().contains("tampering"),
        "refusal must name tampering: {err}"
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        tampered,
        "a refused recovery must not modify the chain"
    );
    // The auditor classifies it as bad_hash, not torn_tail.
    let report = audit(&tampered, &policy, &certificate);
    assert_eq!(report.failure_class(), "bad_hash", "{report}");
}
