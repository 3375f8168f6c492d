//! The chain-state fold: the one place a chain's structural rules live.
//!
//! [`ChainState`] summarises a chain prefix. [`ChainState::check`]
//! judges the next record against it (record hash, `seq`/`prev_hash`
//! link, genesis format, checkpoint counters and digest, recovery
//! prefix and digest) and [`ChainState::advance`] folds the record in.
//! The writer ([`crate::AuditChain`]) advances after every append
//! without checking the record it just built, so appending pays no
//! extra render or hash; [`crate::AuditChain::recover`] checks and
//! advances each complete line and refuses at the first fault; and
//! [`crate::Auditor`] checks and advances every decoded record, keeping
//! the first fault of each check. So a `recovery` record attests
//! exactly what the auditor checks.

use crate::hash::Sha256;
use crate::record::{
    ChainRecord, Payload, CHAIN_FORMAT, CHAIN_FORMAT_V1, CHAIN_FORMAT_V2, GENESIS_PREV_HASH,
};

/// The structural checks, in the auditor's report order. `Lines` is
/// the line decoder's; the fold raises the rest.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Check {
    Lines,
    RecordHashes,
    ChainLinks,
    Genesis,
    Checkpoints,
    Recovery,
}

/// The report name of each [`Check`], indexed by it.
pub(crate) const CHECK_NAMES: [&str; 6] = [
    "lines",
    "record_hashes",
    "chain_links",
    "genesis",
    "checkpoints",
    "recovery",
];

/// The state of a chain prefix.
#[derive(Debug, Default)]
pub(crate) struct ChainState {
    /// Records folded (== the next record's `seq`).
    pub records: u64,
    /// `record_hash` of the last record folded.
    last_hash: String,
    /// SHA-256 over the newline-joined `record_hash` of every record
    /// folded; cloned (not consumed) to read.
    pub digest: Sha256,
    pub decisions: u64,
    pub transitions: u64,
    /// `checkpoint` records (the seal excluded).
    pub checkpoints: u64,
    pub recoveries: u64,
    /// Content records since the last checkpoint, the writer's cadence:
    /// a checkpoint restarts it, and the seal neither counts nor
    /// restarts it.
    pub since_checkpoint: u64,
    /// Whether the last record folded is a `seal`.
    pub sealed: bool,
    /// The ids the genesis binds.
    pub policy_hash: String,
    pub certificate_id: String,
}

impl ChainState {
    /// The `prev_hash` the next record must carry.
    pub fn prev_hash(&self) -> &str {
        if self.records == 0 {
            GENESIS_PREV_HASH
        } else {
            &self.last_hash
        }
    }

    /// The checks `record` fails as the next record of this prefix, in
    /// check order, with the detail the audit report shows. Each check
    /// is judged on its own, so one record can fail several.
    pub fn check(&self, record: &ChainRecord) -> Vec<(Check, String)> {
        let mut faults = Vec::new();
        let (seq, kind) = (record.seq, &record.kind);
        if !record.hash_is_consistent() {
            faults.push((
                Check::RecordHashes,
                format!(
                    "record seq {seq}: stored record_hash does not match its canonical bytes \
                     (bit-flip or field edit)"
                ),
            ));
        }
        let cause = "(record deleted, inserted, or reordered)";
        if seq != self.records {
            let at = self.records;
            faults.push((
                Check::ChainLinks,
                format!("position {at}: seq jumps to {seq} {cause}"),
            ));
        } else if record.prev_hash != self.prev_hash() {
            let before = seq.saturating_sub(1);
            faults.push((
                Check::ChainLinks,
                format!("record seq {seq}: prev_hash does not match record {before} {cause}"),
            ));
        }
        let genesis = match &record.payload {
            _ if self.records > 0 => None,
            Payload::Genesis { format, .. } => (![CHAIN_FORMAT, CHAIN_FORMAT_V1, CHAIN_FORMAT_V2]
                .contains(&format.as_str()))
            .then(|| format!("unknown chain format {format:?}")),
            _ => Some("first record is not a genesis record".to_string()),
        };
        faults.extend(genesis.map(|detail| (Check::Genesis, detail)));
        // A checkpoint (or seal) and a recovery record both attest the
        // prefix before them, so both must replay from it. A recovery's
        // `truncated_bytes` is attested, not re-checkable: the torn
        // bytes are gone by construction.
        let (check, detail) = match &record.payload {
            Payload::Checkpoint {
                records,
                decisions,
                transitions,
                digest,
            } => (
                Check::Checkpoints,
                if (*records, *decisions, *transitions) != (seq, self.decisions, self.transitions) {
                    Some(format!(
                        "{kind} seq {seq}: counters claim {records}/{decisions}/{transitions} \
                         records/decisions/transitions, prefix has {seq}/{}/{}",
                        self.decisions, self.transitions
                    ))
                } else {
                    (*digest != self.digest.clone().finalize_hex()).then(|| {
                        format!(
                            "{kind} seq {seq}: embedded digest does not replay from the prefix \
                             hashes"
                        )
                    })
                },
            ),
            Payload::Recovery {
                prefix_records,
                prefix_digest,
                ..
            } => (
                Check::Recovery,
                if *prefix_records != seq {
                    Some(format!(
                        "recovery seq {seq}: claims a {prefix_records}-record verified prefix, \
                         but its position implies {seq}"
                    ))
                } else {
                    (*prefix_digest != self.digest.clone().finalize_hex()).then(|| {
                        format!(
                            "recovery seq {seq}: prefix digest does not replay from the {seq} \
                             verified prefix hashes"
                        )
                    })
                },
            ),
            _ => return faults,
        };
        faults.extend(detail.map(|detail| (check, detail)));
        faults
    }

    /// Folds `record` into the prefix, checked or not.
    pub fn advance(&mut self, record: &ChainRecord) {
        match &record.payload {
            Payload::Genesis {
                policy_hash,
                certificate_id,
                ..
            } if self.records == 0 => {
                self.policy_hash.clone_from(policy_hash);
                self.certificate_id.clone_from(certificate_id);
            }
            Payload::Decision { .. } => self.decisions += 1,
            Payload::Transition { .. } => self.transitions += 1,
            Payload::Recovery { .. } => self.recoveries += 1,
            _ => {}
        }
        match record.kind.as_str() {
            "checkpoint" => {
                self.checkpoints += 1;
                self.since_checkpoint = 0;
            }
            "seal" => {}
            _ => self.since_checkpoint += 1,
        }
        self.sealed = record.kind == "seal";
        self.digest.update(record.record_hash.as_bytes());
        self.digest.update(b"\n");
        self.last_hash.clone_from(&record.record_hash);
        self.records += 1;
    }
}
