//! Recovery and the auditor apply one set of structural rules.
//!
//! `AuditChain::recover` resumes a chain only when the auditor's
//! structural checks (`lines` — a torn tail allowed — `record_hashes`,
//! `chain_links`, `genesis`, `checkpoints` and `recovery`) pass on it,
//! because the `recovery` record it appends attests that its prefix was
//! verified. The regression tests build hash-consistent chains with
//! `ChainRecord::new` that break exactly one of the rules that are not
//! about hashes or links; the property test mutates a real chain at
//! random and checks that recovery and the audit agree on every case.

use std::path::{Path, PathBuf};

use hvac_audit::record::decode_line;
use hvac_audit::{
    AuditChain, AuditReport, Auditor, ChainConfig, ChainRecord, FlushPolicy, Payload, Sha256,
    CHAIN_FORMAT, GENESIS_PREV_HASH, OBSERVATION_DIM,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvac-audit-recover-rules-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> ChainConfig {
    ChainConfig {
        checkpoint_every: 4,
        flush: FlushPolicy::Always,
    }
}

fn genesis(format: &str) -> (&'static str, Payload) {
    (
        "genesis",
        Payload::Genesis {
            format: format.to_string(),
            policy_hash: "ab".repeat(32),
            certificate_id: String::new(),
            crate_version: "0.1.0".to_string(),
        },
    )
}

fn decision(zone: f64) -> (&'static str, Payload) {
    let mut observation = [0.0; OBSERVATION_DIM];
    observation[0] = zone;
    (
        "decision",
        Payload::Decision {
            observation,
            heating: 20,
            cooling: 26,
            action_index: 0,
            guard_state: "normal".to_string(),
            trace_id: None,
        },
    )
}

/// A hash-consistent chain: every record's `seq` is its position, its
/// `prev_hash` the hash of the record before it, and its `record_hash`
/// its own.
#[derive(Default)]
struct Linked(Vec<ChainRecord>);

impl Linked {
    fn push(&mut self, (kind, payload): (&str, Payload)) {
        let prev = self
            .0
            .last()
            .map_or(GENESIS_PREV_HASH.to_string(), |r| r.record_hash.clone());
        let seq = self.len();
        self.0.push(ChainRecord::new(kind, seq, seq, prev, payload));
    }

    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// The digest a checkpoint or recovery record pushed next must
    /// embed: SHA-256 over the newline-joined hashes so far.
    fn digest(&self) -> String {
        let mut h = Sha256::new();
        for record in &self.0 {
            h.update(record.record_hash.as_bytes());
            h.update(b"\n");
        }
        h.finalize_hex()
    }

    fn text(&self) -> String {
        self.0.iter().map(ChainRecord::to_line).collect()
    }
}

fn checkpoint(records: u64, decisions: u64, digest: String) -> (&'static str, Payload) {
    (
        "checkpoint",
        Payload::Checkpoint {
            records,
            decisions,
            transitions: 0,
            digest,
        },
    )
}

fn recovery(prefix_records: u64, prefix_digest: String) -> (&'static str, Payload) {
    (
        "recovery",
        Payload::Recovery {
            prefix_records,
            prefix_digest,
            truncated_bytes: 0,
        },
    )
}

/// The chains of the regression tests. Each is hash-consistent
/// throughout, and all but `clean` break one rule at their last record.
fn chain(case: &str) -> Linked {
    let forged = "00".repeat(32);
    let mut c = Linked::default();
    if case == "unknown_genesis_format" {
        c.push(genesis("decision_chain v9"));
        return c;
    }
    c.push(genesis(CHAIN_FORMAT));
    match case {
        "clean" => {
            c.push(decision(20.0));
            c.push(checkpoint(c.len(), 1, c.digest()));
            c.push(recovery(c.len(), c.digest()));
            c.push(decision(21.0));
        }
        // 5 decisions claimed over a prefix that has none.
        "checkpoint_counters" => c.push(checkpoint(c.len(), 5, c.digest())),
        "checkpoint_digest" => {
            c.push(decision(20.0));
            c.push(checkpoint(c.len(), 1, forged));
        }
        "recovery_prefix_digest" => {
            c.push(decision(20.0));
            c.push(recovery(c.len(), forged));
        }
        other => panic!("no chain {other}"),
    }
    c
}

fn structural_faults(report: &AuditReport) -> Vec<&'static str> {
    const STRUCTURAL: [&str; 6] = [
        "lines",
        "record_hashes",
        "chain_links",
        "genesis",
        "checkpoints",
        "recovery",
    ];
    report
        .checks
        .iter()
        .filter(|c| STRUCTURAL.contains(&c.name) && !c.passed)
        // A torn tail is what recovery exists to repair.
        .filter(|c| !(c.name == "lines" && c.detail.starts_with("torn tail")))
        .map(|c| c.name)
        .collect()
}

#[test]
fn a_linked_chain_that_keeps_every_rule_recovers_and_audits_green() {
    let clean = chain("clean");
    let path = scratch("clean.jsonl");
    std::fs::write(&path, clean.text()).unwrap();
    let (resumed, report) = AuditChain::recover(&path, config()).unwrap();
    assert_eq!(report.prefix_records, clean.len());
    assert_eq!(report.decisions, 2);
    drop(resumed);
    let audit = Auditor::new(&std::fs::read_to_string(&path).unwrap()).run();
    assert!(audit.passed(), "{audit}");
    assert_eq!(audit.recoveries, 2);
}

/// Recovery must refuse `case` at its last record, naming that record's
/// byte offset and the check, and must leave the file as it was; the
/// auditor must fail the same check.
fn assert_refused(case: &str, check: &str) {
    let records = chain(case);
    let text = records.text();
    let audit = Auditor::new(&text).run();
    assert_eq!(structural_faults(&audit), vec![check], "{audit}");

    let path = scratch(&format!("{case}.jsonl"));
    std::fs::write(&path, &text).unwrap();
    let err = AuditChain::recover(&path, config())
        .map(|_| ())
        .expect_err("recovery must refuse a chain the audit rejects");
    let msg = err.to_string();
    let offset = text.len() - records.0.last().unwrap().to_line().len();
    assert!(msg.contains(&format!("byte offset {offset} ")), "{msg}");
    assert!(msg.contains(&format!("check `{check}`")), "{msg}");
    assert!(msg.contains("tampering"), "{msg}");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        text,
        "a refused recovery must not modify the chain"
    );
}

#[test]
fn recovery_refuses_an_unknown_genesis_format() {
    assert_refused("unknown_genesis_format", "genesis");
}

#[test]
fn recovery_refuses_a_checkpoint_whose_counters_are_wrong() {
    assert_refused("checkpoint_counters", "checkpoints");
}

#[test]
fn recovery_refuses_a_checkpoint_whose_digest_is_wrong() {
    assert_refused("checkpoint_digest", "checkpoints");
}

#[test]
fn recovery_refuses_a_recovery_record_whose_prefix_digest_is_wrong() {
    assert_refused("recovery_prefix_digest", "recovery");
}

/// SplitMix64: a small deterministic case generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A clean chain with a checkpoint cadence of 4, a transition, a seal
/// in the middle (a graceful shutdown, then a restart through
/// `recover`), a recovery record, and a final seal.
fn clean_chain(path: &Path) -> String {
    let chain = AuditChain::create(path, &"ab".repeat(32), "cert-0", config()).unwrap();
    for i in 0..9 {
        let mut observation = [0.0; OBSERVATION_DIM];
        observation[0] = 18.0 + f64::from(i) * 0.5;
        chain
            .append_decision(observation, 20, 26, 0, "normal", Some(&format!("req-{i}")))
            .unwrap();
        if i == 4 {
            chain.append_transition("normal", "hold").unwrap();
        }
    }
    chain.seal().unwrap();
    drop(chain);
    let (chain, _) = AuditChain::recover(path, config()).unwrap();
    for i in 0..6 {
        chain
            .append_decision(
                [21.0 + f64::from(i); OBSERVATION_DIM],
                20,
                26,
                0,
                "normal",
                None,
            )
            .unwrap();
    }
    chain.seal().unwrap();
    drop(chain);
    std::fs::read_to_string(path).unwrap()
}

/// Re-links `records` from position `from` on, so every hash and link
/// holds again and only the rules beyond them can object.
fn relink(records: &mut [ChainRecord], from: usize) {
    for i in from..records.len() {
        let prev = if i == 0 {
            GENESIS_PREV_HASH.to_string()
        } else {
            records[i - 1].record_hash.clone()
        };
        let r = &records[i];
        records[i] = ChainRecord::new(&r.kind, i as u64, r.t_ns, prev, r.payload.clone());
    }
}

/// One random mutation of `text`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
    match rng.below(6) {
        // Flip one bit of one byte. The chain is ASCII and bits 0-6
        // keep it ASCII, so the auditor can still read it as text.
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(7);
            String::from_utf8(bytes).unwrap()
        }
        // Delete a line.
        1 => {
            lines.remove(rng.below(lines.len()));
            lines.concat()
        }
        // Swap two lines.
        2 => {
            let (a, b) = (rng.below(lines.len()), rng.below(lines.len()));
            lines.swap(a, b);
            lines.concat()
        }
        // Cut the file anywhere: a torn tail unless the cut lands on a
        // line boundary.
        3 => text[..rng.below(text.len() + 1)].to_string(),
        // Forge: edit one record's payload, or delete it, and re-link
        // everything after it (when every line still decodes).
        _ => {
            let Ok(mut records) = text.lines().map(decode_line).collect::<Result<Vec<_>, _>>()
            else {
                return text.to_string();
            };
            if records.is_empty() {
                return text.to_string();
            }
            let at = rng.below(records.len());
            match &mut records[at].payload {
                _ if rng.below(3) == 0 => {
                    records.remove(at);
                }
                Payload::Genesis { format, .. } => *format = "decision_chain v9".to_string(),
                Payload::Decision { heating, .. } => *heating += 1,
                Payload::Transition { to, .. } => *to = "fail_safe".to_string(),
                Payload::Recovery { prefix_records, .. } => *prefix_records += 1,
                Payload::Checkpoint { decisions, .. } => *decisions += 1,
            }
            relink(&mut records, at);
            records.iter().map(ChainRecord::to_line).collect()
        }
    }
}

#[test]
fn recovery_succeeds_exactly_when_the_structural_audit_checks_pass() {
    let clean = clean_chain(&scratch("property-clean.jsonl"));
    assert!(Auditor::new(&clean).run().passed());
    let path = scratch("property.jsonl");
    let mut rng = Rng(29);
    let (mut resumed, mut refused) = (0, 0);
    for case in 0..400 {
        let mut text = mutate(&clean, &mut rng);
        if rng.below(4) == 0 {
            text = mutate(&text, &mut rng);
        }
        let audit = Auditor::new(&text).run();
        let faults = structural_faults(&audit);
        std::fs::write(&path, &text).unwrap();
        match AuditChain::recover(&path, config()) {
            Ok((chain, _)) => {
                assert!(
                    faults.is_empty(),
                    "case {case}: recovery resumed a chain that fails {faults:?}:\n{audit}"
                );
                drop(chain);
                let after = Auditor::new(&std::fs::read_to_string(&path).unwrap()).run();
                assert!(after.passed(), "case {case}: the resumed chain: {after}");
                resumed += 1;
            }
            Err(err) => {
                assert!(
                    !faults.is_empty(),
                    "case {case}: recovery refused a chain the audit accepts: {err}"
                );
                // The check recovery names is one the audit fails (its
                // first fault may come later in the audit's check order).
                let msg = err.to_string();
                match msg.split_once("check `") {
                    Some((_, rest)) => {
                        let check = &rest[..rest.find('`').unwrap()];
                        assert!(faults.contains(&check), "case {case}: {msg} vs {faults:?}");
                    }
                    None => assert!(msg.contains("no complete genesis"), "case {case}: {msg}"),
                }
                assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "case {case}");
                refused += 1;
            }
        }
    }
    // Both outcomes must be well represented for the property to bite.
    assert!(
        resumed >= 50 && refused >= 50,
        "{resumed} resumed, {refused} refused"
    );
}
