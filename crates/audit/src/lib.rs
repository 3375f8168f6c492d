//! Tamper-evident audit chains and verification certificates.
//!
//! The paper argues a verified decision-tree policy is trustworthy
//! enough to deploy; this crate makes the deployment *prove it*.
//! Three pieces close the loop from Algorithm 1 to the building floor:
//!
//! * **Decision chains** ([`AuditChain`]): an append-only,
//!   length-prefixed JSONL log where every served decision, guard
//!   transition, and periodic checkpoint is SHA-256 hash-chained to its
//!   predecessor. Bit-flips, deletions, insertions, reordering, and
//!   truncation are all detectable offline from the file alone.
//! * **Certificates** ([`hvac_verify::Certificate`], ids computed
//!   here): `veri_hvac verify` binds the verification outcome to the
//!   exact policy bytes; the serve path stamps the certificate id into
//!   the chain's genesis record.
//! * **The offline verifier** ([`Auditor`]): re-walks a chain from cold
//!   bytes, recomputes every hash, replays checkpoint digests, checks
//!   the certificate binding, and re-executes sampled decisions through
//!   the in-process policy for bit-identical actions.
//!
//! See `DESIGN.md` §4f for the chain format and threat model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chain;
pub mod hash;
pub mod record;

pub use audit::{AuditCheck, AuditOptions, AuditReport, Auditor};
pub use chain::{
    flush_all_chains, install_chain_flush_hook, register_chain, AuditChain, ChainConfig,
    ChainWriter, FlushPolicy, RecoveryReport,
};
pub use hash::{sha256, sha256_hex, Sha256};
pub use record::{
    ChainRecord, Payload, CHAIN_FORMAT, CHAIN_FORMAT_V1, CHAIN_FORMAT_V2, GENESIS_PREV_HASH,
    OBSERVATION_DIM,
};

use hvac_verify::Certificate;

/// SHA-256 (hex) of a policy's canonical compact encoding — the
/// "policy content hash" certificates and chain genesis records bind
/// to.
pub fn policy_hash(policy: &hvac_control::DtPolicy) -> String {
    sha256_hex(policy.to_compact_string().as_bytes())
}

/// Computes a certificate's id (SHA-256 of its canonical bytes) and
/// returns the certificate bound to it.
pub fn bind_certificate(certificate: Certificate) -> Certificate {
    let id = sha256_hex(certificate.canonical_string().as_bytes());
    certificate.with_id(id)
}

/// Whether `certificate.certificate_id` really is the hash of the
/// certificate's canonical bytes.
pub fn certificate_id_is_consistent(certificate: &Certificate) -> bool {
    sha256_hex(certificate.canonical_string().as_bytes()) == certificate.certificate_id
}
