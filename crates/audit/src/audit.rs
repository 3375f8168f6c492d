//! The offline chain verifier behind `veri_hvac audit`.
//!
//! [`Auditor`] re-walks a chain file from cold bytes: it re-parses
//! every length-prefixed line, recomputes every record hash, re-links
//! `prev_hash`/`seq`, replays every checkpoint digest from the prefix,
//! checks the seal, and — when handed the policy and certificate —
//! re-derives the policy hash and certificate id and re-executes a
//! sample of decisions through the in-process policy to confirm
//! bit-identical actions.
//!
//! Each concern is one named [`AuditCheck`] so the report maps straight
//! onto the tamper classes the chain is designed to catch:
//!
//! | tamper                      | failing check                |
//! |-----------------------------|------------------------------|
//! | bit-flip in a record        | `lines` or `record_hashes`   |
//! | record deleted              | `chain_links`                |
//! | records reordered           | `chain_links`                |
//! | truncation after checkpoint | `seal`                       |
//! | wrong policy / certificate  | `certificate` / `policy`     |
//! | swapped/tampered compiled kernel | `compiled`              |
//! | crash-torn final record     | `lines` (class `torn_tail`)  |
//! | forged recovery record      | `recovery`                   |
//!
//! A *torn tail* — trailing bytes with no final newline, the signature
//! of a write cut by a crash — is reported separately from deliberate
//! tampering: the failure names the byte offset and the report's
//! [`AuditReport::failure_class`] says `torn_tail` rather than
//! `bad_hash`, because the remedy (truncate and resume via
//! `AuditChain::recover`) is safe there and unsafe everywhere else.

use hvac_control::DtPolicy;
use hvac_dtree::{prove_equivalence, CompiledTree};
use hvac_env::Observation;
use hvac_env::Policy;
use hvac_telemetry::json::{parse, ObjectWriter};
use hvac_verify::Certificate;

use crate::hash::{sha256_hex, Sha256};
use crate::record::{
    split_line, ChainRecord, Payload, CHAIN_FORMAT, CHAIN_FORMAT_V1, CHAIN_FORMAT_V2,
    GENESIS_PREV_HASH,
};

/// Tuning for an audit pass.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Accept a chain with no final `seal` record. A serve process
    /// killed by signal cannot run destructors, so its (durable) chain
    /// ends mid-stream; pass `true` to audit such chains. Truncation
    /// after the last checkpoint is then *not* detectable — that is the
    /// documented trade-off, not a bug.
    pub allow_unsealed: bool,
    /// Maximum decision records to re-execute through the policy
    /// (stride-sampled across the chain; `0` skips replay).
    pub replay_sample: usize,
}

impl Default for AuditOptions {
    fn default() -> Self {
        Self {
            allow_unsealed: false,
            replay_sample: 64,
        }
    }
}

/// One named pass/fail line of an audit report.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCheck {
    /// Stable check name (`lines`, `record_hashes`, `chain_links`,
    /// `genesis`, `checkpoints`, `recovery`, `seal`, `certificate`,
    /// `policy`, `compiled`, `replay`).
    pub name: &'static str,
    /// Whether the check passed.
    pub passed: bool,
    /// Human-readable outcome; on failure, points at the first
    /// offending line/record.
    pub detail: String,
}

/// The structured outcome of one audit pass.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Every check that ran, in execution order.
    pub checks: Vec<AuditCheck>,
    /// Total records parsed.
    pub records: u64,
    /// Decision records seen.
    pub decisions: u64,
    /// Transition records seen.
    pub transitions: u64,
    /// Checkpoint records seen (seal excluded).
    pub checkpoints: u64,
    /// Recovery records seen (crash-resume points).
    pub recoveries: u64,
    /// Byte offset of a crash-torn tail (trailing bytes with no final
    /// newline), when the chain has one.
    pub torn_tail_offset: Option<u64>,
    /// Decisions re-executed through the policy.
    pub replayed: u64,
    /// Whether the chain ends in a `seal` record.
    pub sealed: bool,
    /// Policy hash the genesis record claims.
    pub policy_hash: String,
    /// Certificate id the genesis record claims (may be empty).
    pub certificate_id: String,
}

impl AuditReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The first failing check, if any.
    pub fn first_failure(&self) -> Option<&AuditCheck> {
        self.checks.iter().find(|c| !c.passed)
    }

    /// Coarse classification of the outcome for machine consumers:
    /// `none` (all checks passed), `torn_tail` (the only line damage is
    /// a crash-torn final record — safe to repair with
    /// `AuditChain::recover`), `bad_hash` (a stored record hash does
    /// not recompute — tampering), or the name of the first failing
    /// check otherwise.
    pub fn failure_class(&self) -> &'static str {
        let Some(first) = self.first_failure() else {
            return "none";
        };
        match first.name {
            "lines" if self.torn_tail_offset.is_some() && first.detail.starts_with("torn tail") => {
                "torn_tail"
            }
            "record_hashes" => "bad_hash",
            name => name,
        }
    }

    /// Serializes the report as JSON (one object per check).
    pub fn to_json_string(&self) -> String {
        let mut o = ObjectWriter::new();
        o.bool_field("passed", self.passed());
        o.str_field("failure_class", self.failure_class());
        o.u64_field("records", self.records);
        o.u64_field("decisions", self.decisions);
        o.u64_field("transitions", self.transitions);
        o.u64_field("checkpoints", self.checkpoints);
        o.u64_field("recoveries", self.recoveries);
        if let Some(offset) = self.torn_tail_offset {
            o.u64_field("torn_tail_offset", offset);
        }
        o.u64_field("replayed", self.replayed);
        o.bool_field("sealed", self.sealed);
        o.str_field("policy_hash", &self.policy_hash);
        o.str_field("certificate_id", &self.certificate_id);
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{}:{}:{}",
                    c.name,
                    if c.passed { "pass" } else { "FAIL" },
                    c.detail
                )
            })
            .collect();
        o.str_array_field("checks", &checks);
        o.finish()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "audit: {} ({} records: {} decisions, {} transitions, {} checkpoints; replayed {})",
            if self.passed() { "PASS" } else { "FAIL" },
            self.records,
            self.decisions,
            self.transitions,
            self.checkpoints,
            self.replayed,
        )?;
        for check in &self.checks {
            writeln!(
                f,
                "  [{}] {:<14} {}",
                if check.passed { "ok" } else { "XX" },
                check.name,
                check.detail
            )?;
        }
        Ok(())
    }
}

/// An audit pass over one chain file's text.
#[derive(Debug)]
pub struct Auditor<'a> {
    text: &'a str,
    options: AuditOptions,
    policy: Option<&'a DtPolicy>,
    certificate: Option<&'a Certificate>,
    compiled_artifact: Option<&'a str>,
}

impl<'a> Auditor<'a> {
    /// An auditor over the raw chain file contents.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            options: AuditOptions::default(),
            policy: None,
            certificate: None,
            compiled_artifact: None,
        }
    }

    /// Overrides the default [`AuditOptions`].
    #[must_use]
    pub fn options(mut self, options: AuditOptions) -> Self {
        self.options = options;
        self
    }

    /// Supplies the served policy, enabling the `policy` binding check
    /// and decision replay.
    #[must_use]
    pub fn with_policy(mut self, policy: &'a DtPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Supplies the verification certificate, enabling the
    /// `certificate` binding checks.
    #[must_use]
    pub fn with_certificate(mut self, certificate: &'a Certificate) -> Self {
        self.certificate = Some(certificate);
        self
    }

    /// Supplies the compiled flat-kernel artifact (`ctree v1` text),
    /// enabling the `compiled` binding check: the artifact must hash to
    /// the certificate's `compiled_hash`, parse, and — when the policy
    /// is also supplied — re-prove equivalent, node for node, to the tree
    /// it claims to compile.
    #[must_use]
    pub fn with_compiled_artifact(mut self, artifact: &'a str) -> Self {
        self.compiled_artifact = Some(artifact);
        self
    }

    /// Runs every applicable check and returns the structured report.
    pub fn run(self) -> AuditReport {
        let mut checks = Vec::new();
        let mut records = Vec::new();

        // 1. lines: every line is complete and parses back to a record.
        // Trailing bytes without a final newline are a crash-torn tail
        // (a record is written in one line; only `\n` completes it),
        // classified apart from interior damage so the operator knows
        // truncation-and-resume is the safe remedy.
        let (complete, torn_tail_offset) = if self.text.is_empty() || self.text.ends_with('\n') {
            (self.text, None)
        } else {
            match self.text.rfind('\n') {
                Some(nl) => (&self.text[..=nl], Some(nl as u64 + 1)),
                None => ("", Some(0u64)),
            }
        };
        let mut line_failure: Option<String> = None;
        let mut offset = 0usize;
        for (i, line) in complete.lines().enumerate() {
            let parsed = split_line(line)
                .and_then(|json| parse(json).map_err(|e| format!("bad JSON: {e:?}")))
                .and_then(|v| ChainRecord::from_json(&v));
            match parsed {
                Ok(record) => records.push(record),
                Err(why) => {
                    line_failure = Some(format!("line {} (byte offset {offset}): {why}", i + 1));
                    break;
                }
            }
            offset += line.len() + 1;
        }
        if line_failure.is_none() {
            if let Some(at) = torn_tail_offset {
                line_failure = Some(format!(
                    "torn tail: {} trailing bytes at byte offset {at} are not a complete \
                     newline-terminated record (crash mid-write) — truncate and resume with \
                     `veri_hvac audit --recover` (AuditChain::recover)",
                    self.text.len() as u64 - at
                ));
            }
        }
        checks.push(AuditCheck {
            name: "lines",
            passed: line_failure.is_none() && !records.is_empty(),
            detail: match &line_failure {
                Some(why) => why.clone(),
                None if records.is_empty() => "chain file is empty".to_string(),
                None => format!("{} complete, well-formed lines", records.len()),
            },
        });

        // 2. record_hashes: every stored hash recomputes from the
        // canonical bytes.
        let first_bad_hash = records.iter().find(|r| !r.hash_is_consistent());
        checks.push(AuditCheck {
            name: "record_hashes",
            passed: first_bad_hash.is_none(),
            detail: match first_bad_hash {
                Some(r) => format!(
                    "record seq {}: stored record_hash does not match its canonical bytes \
                     (bit-flip or field edit)",
                    r.seq
                ),
                None => format!("{} hashes recomputed and matched", records.len()),
            },
        });

        // 3. chain_links: seqs count 0.. and every prev_hash matches
        // its predecessor's record_hash.
        let mut link_failure: Option<String> = None;
        for (i, record) in records.iter().enumerate() {
            if record.seq != i as u64 {
                link_failure = Some(format!(
                    "position {i}: seq jumps to {} (record deleted, inserted, or reordered)",
                    record.seq
                ));
                break;
            }
            let expected_prev = if i == 0 {
                GENESIS_PREV_HASH
            } else {
                &records[i - 1].record_hash
            };
            if record.prev_hash != expected_prev {
                link_failure = Some(format!(
                    "record seq {}: prev_hash does not match record {} \
                     (record deleted, inserted, or reordered)",
                    record.seq,
                    i.saturating_sub(1)
                ));
                break;
            }
        }
        checks.push(AuditCheck {
            name: "chain_links",
            passed: link_failure.is_none(),
            detail: link_failure.unwrap_or_else(|| "prev_hash / seq links intact".to_string()),
        });

        // 4. genesis: first record declares the expected format.
        let genesis = records.first();
        let (policy_hash, certificate_id, genesis_detail) = match genesis.map(|r| &r.payload) {
            Some(Payload::Genesis {
                format,
                policy_hash,
                certificate_id,
                ..
            }) if format == CHAIN_FORMAT
                || format == CHAIN_FORMAT_V1
                || format == CHAIN_FORMAT_V2 =>
            {
                (
                    policy_hash.clone(),
                    certificate_id.clone(),
                    Ok(format!("format {format:?}")),
                )
            }
            Some(Payload::Genesis { format, .. }) => (
                String::new(),
                String::new(),
                Err(format!("unknown chain format {format:?}")),
            ),
            Some(_) => (
                String::new(),
                String::new(),
                Err("first record is not a genesis record".to_string()),
            ),
            None => (String::new(), String::new(), Err("no records".to_string())),
        };
        checks.push(AuditCheck {
            name: "genesis",
            passed: genesis_detail.is_ok(),
            detail: genesis_detail.clone().unwrap_or_else(|e| e),
        });

        // 5. checkpoints: every embedded digest and counter snapshot
        // replays exactly from the prefix.
        let mut decisions = 0u64;
        let mut transitions = 0u64;
        let mut checkpoints = 0u64;
        let mut recoveries = 0u64;
        let mut running = Sha256::new();
        let mut checkpoint_failure: Option<String> = None;
        let mut recovery_failure: Option<String> = None;
        for record in &records {
            // 5b. recovery: every resume point's prefix digest must
            // replay from the verified prefix hashes, so a forged
            // recovery record (covering for deleted evidence) cannot
            // pass. `truncated_bytes` is attested, not re-checkable —
            // the torn bytes are gone by construction.
            if let Payload::Recovery {
                prefix_records,
                prefix_digest,
                ..
            } = &record.payload
            {
                recoveries += 1;
                if recovery_failure.is_none() {
                    let replayed = running.clone().finalize_hex();
                    if *prefix_records != record.seq {
                        recovery_failure = Some(format!(
                            "recovery seq {}: claims a {prefix_records}-record verified prefix, \
                             but its position implies {}",
                            record.seq, record.seq
                        ));
                    } else if &replayed != prefix_digest {
                        recovery_failure = Some(format!(
                            "recovery seq {}: prefix digest does not replay from the {} verified \
                             prefix hashes",
                            record.seq, record.seq
                        ));
                    }
                }
            }
            if let Payload::Checkpoint {
                records: claimed_records,
                decisions: claimed_decisions,
                transitions: claimed_transitions,
                digest,
            } = &record.payload
            {
                if record.kind == "checkpoint" {
                    checkpoints += 1;
                }
                if checkpoint_failure.is_none() {
                    let replayed = running.clone().finalize_hex();
                    if *claimed_records != record.seq
                        || *claimed_decisions != decisions
                        || *claimed_transitions != transitions
                    {
                        checkpoint_failure = Some(format!(
                            "{} seq {}: counters claim {}/{}/{} records/decisions/transitions, \
                             prefix has {}/{decisions}/{transitions}",
                            record.kind,
                            record.seq,
                            claimed_records,
                            claimed_decisions,
                            claimed_transitions,
                            record.seq,
                        ));
                    } else if &replayed != digest {
                        checkpoint_failure = Some(format!(
                            "{} seq {}: embedded digest does not replay from the prefix hashes",
                            record.kind, record.seq
                        ));
                    }
                }
            }
            match &record.payload {
                Payload::Decision { .. } => decisions += 1,
                Payload::Transition { .. } => transitions += 1,
                _ => {}
            }
            running.update(record.record_hash.as_bytes());
            running.update(b"\n");
        }
        checks.push(AuditCheck {
            name: "checkpoints",
            passed: checkpoint_failure.is_none(),
            detail: checkpoint_failure.unwrap_or_else(|| {
                format!("{checkpoints} checkpoint digests replayed from prefix hashes")
            }),
        });

        // 6. recovery: every crash-resume point attests the prefix it
        // verified (digest replayed above, alongside checkpoints).
        checks.push(AuditCheck {
            name: "recovery",
            passed: recovery_failure.is_none(),
            detail: recovery_failure.unwrap_or_else(|| {
                if recoveries == 0 {
                    "no recovery records".to_string()
                } else {
                    format!("{recoveries} recovery prefix digest(s) replayed from prefix hashes")
                }
            }),
        });

        // 7. seal: the chain ends with its closing checkpoint, so a
        // truncated suffix (past the last periodic checkpoint) cannot
        // pass silently.
        let sealed = records.last().is_some_and(|r| r.kind == "seal");
        checks.push(AuditCheck {
            name: "seal",
            passed: sealed || self.options.allow_unsealed,
            detail: if sealed {
                "chain ends in a seal record".to_string()
            } else if self.options.allow_unsealed {
                "no seal record (tolerated by --allow-unsealed; \
                 truncation after the last checkpoint is undetectable)"
                    .to_string()
            } else {
                format!(
                    "chain does not end in a seal record (last kind {:?}) — \
                     truncated, or serve was killed before sealing",
                    records.last().map_or("none", |r| r.kind.as_str())
                )
            },
        });

        // 8. certificate: the id commits to the canonical bytes, and
        // both ends of the binding (genesis, policy) agree.
        if let Some(cert) = self.certificate {
            let recomputed = sha256_hex(cert.canonical_string().as_bytes());
            let detail = if recomputed != cert.certificate_id {
                Err(format!(
                    "certificate_id {} does not hash its canonical bytes (expected {recomputed})",
                    cert.certificate_id
                ))
            } else if cert.certificate_id != certificate_id {
                Err(format!(
                    "chain genesis stamps certificate {certificate_id:.12}… but the supplied \
                     certificate is {:.12}…",
                    cert.certificate_id
                ))
            } else if cert.policy_hash != policy_hash {
                Err(format!(
                    "certificate covers policy {:.12}… but the chain genesis claims {:.12}…",
                    cert.policy_hash, policy_hash
                ))
            } else {
                Ok("certificate id and policy binding verified".to_string())
            };
            checks.push(AuditCheck {
                name: "certificate",
                passed: detail.is_ok(),
                detail: detail.unwrap_or_else(|e| e),
            });
        }

        // 9. policy: the supplied policy bytes hash to what the chain
        // (and certificate, if any) claim was served.
        if let Some(policy) = self.policy {
            let actual = sha256_hex(policy.to_compact_string().as_bytes());
            let expected = self
                .certificate
                .map_or(policy_hash.as_str(), |c| c.policy_hash.as_str());
            let passed = actual == expected && actual == policy_hash;
            checks.push(AuditCheck {
                name: "policy",
                passed,
                detail: if passed {
                    format!("policy file hashes to {actual:.12}… as recorded")
                } else {
                    format!(
                        "policy file hashes to {actual:.12}… but the chain/certificate \
                         claim {expected:.12}…"
                    )
                },
            });
        }

        // 10. compiled: the fast-path artifact is the one the
        // certificate committed to, and it still computes the same
        // function as the verified tree. Hash binding catches a swapped
        // or edited file; the re-proof catches a certificate that binds
        // a kernel which is not the tree (a hand-edited artifact whose
        // hash was committed): even a *bound* artifact must re-prove
        // equivalent, node for node, when the policy is present.
        if let Some(artifact) = self.compiled_artifact {
            let actual = sha256_hex(artifact.as_bytes());
            let mut detail: Result<String, String> = Ok(format!(
                "compiled artifact hashes to {actual:.12}… and parses"
            ));
            if let Some(cert) = self.certificate {
                if cert.compiled_hash.is_empty() {
                    detail = Err(
                        "a compiled artifact was supplied but the certificate carries no \
                         compiled_hash — nothing binds this kernel to the verified policy"
                            .to_string(),
                    );
                } else if cert.compiled_hash != actual {
                    detail = Err(format!(
                        "compiled artifact hashes to {actual:.12}… but the certificate \
                         committed {:.12}… (artifact swapped or tampered)",
                        cert.compiled_hash
                    ));
                }
            }
            if detail.is_ok() {
                match CompiledTree::from_compact_string(artifact) {
                    Err(e) => detail = Err(format!("compiled artifact does not parse: {e}")),
                    Ok(kernel) => {
                        if let Some(policy) = self.policy {
                            match prove_equivalence(policy.tree(), &kernel) {
                                Ok(()) => {
                                    detail = Ok(format!(
                                        "artifact hash bound; equivalence re-proven node for \
                                         node over {} splits and {} leaves",
                                        kernel.split_count(),
                                        kernel.leaf_count()
                                    ));
                                }
                                Err(e) => {
                                    detail = Err(format!(
                                        "compiled kernel is NOT equivalent to the policy \
                                         tree: {e}"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            checks.push(AuditCheck {
                name: "compiled",
                passed: detail.is_ok(),
                detail: match detail {
                    Ok(d) | Err(d) => d,
                },
            });
        }

        // 11. replay: a stride sample of guard-normal decisions, re-run
        // through the policy, must reproduce bit-identical actions.
        // (Degraded-rung actions depend on guard state accumulated
        // across the whole session, so only `normal` rows are
        // deterministic functions of the stored observation.)
        let mut replayed = 0u64;
        if let Some(policy) = self.policy {
            let mut fresh = policy.clone();
            let normal: Vec<&ChainRecord> = records
                .iter()
                .filter(|r| {
                    matches!(&r.payload, Payload::Decision { guard_state, .. }
                        if guard_state == "normal")
                })
                .collect();
            // `replay_sample == 0` disables the check entirely.
            if let Some(per_sample) = normal.len().checked_div(self.options.replay_sample) {
                let stride = per_sample.max(1);
                let mut replay_failure: Option<String> = None;
                for record in normal.iter().step_by(stride) {
                    let Payload::Decision {
                        observation,
                        heating,
                        cooling,
                        action_index,
                        ..
                    } = &record.payload
                    else {
                        continue;
                    };
                    let action = fresh.decide(&Observation::from_vector(observation));
                    let index = fresh.action_space().index_of(action) as u64;
                    replayed += 1;
                    if action.heating() as u64 != *heating
                        || action.cooling() as u64 != *cooling
                        || index != *action_index
                    {
                        replay_failure = Some(format!(
                            "decision seq {}: policy replays ({}, {}) index {index}, \
                             chain recorded ({heating}, {cooling}) index {action_index}",
                            record.seq,
                            action.heating(),
                            action.cooling(),
                        ));
                        break;
                    }
                }
                checks.push(AuditCheck {
                    name: "replay",
                    passed: replay_failure.is_none(),
                    detail: replay_failure.unwrap_or_else(|| {
                        format!(
                            "{replayed} of {} guard-normal decisions replayed bit-identically",
                            normal.len()
                        )
                    }),
                });
            }
        }

        AuditReport {
            checks,
            records: records.len() as u64,
            decisions,
            transitions,
            checkpoints,
            recoveries,
            torn_tail_offset,
            replayed,
            sealed,
            policy_hash,
            certificate_id,
        }
    }
}
