//! Verification certificates: the portable, signed-by-hash summary that
//! binds a verification outcome to the exact policy bytes it covers.
//!
//! A [`VerificationReport`] says *a* policy passed; a [`Certificate`]
//! says *this* policy — identified by the SHA-256 of its canonical
//! compact encoding — passed, under which comfort range, noise level,
//! sample count, and seed, produced by which crate version, with which
//! artifact-store keys as provenance. The serve path can then refuse to
//! serve policy bytes whose hash no certificate covers, and the offline
//! `veri_hvac audit` verifier can re-check the binding end to end.
//!
//! This crate stays hash-agnostic: [`Certificate::canonical_string`]
//! defines the exact byte string a certificate id must commit to, and
//! `hvac-audit` (which owns the SHA-256 implementation) computes the id
//! over it. That keeps the dependency arrow pointing one way
//! (`hvac-audit → hvac-verify`).

use crate::error::VerifyError;
use crate::probabilistic::SafeProbability;
use crate::report::{VerificationConfig, VerificationReport};
use hvac_telemetry::json::{self, ObjectWriter};

/// Format tag of the certificate schema. Bump on any field change.
pub const CERTIFICATE_FORMAT: &str = "certificate v1";

/// The standard-normal quantile certificates use for their Wilson
/// interval (95% two-sided).
pub const CERTIFICATE_WILSON_Z: f64 = 1.96;

/// A verification certificate: one policy hash bound to one
/// verification outcome and its full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// SHA-256 (hex) of the policy's canonical compact encoding.
    pub policy_hash: String,
    /// Hash of [`Certificate::canonical_string`]; empty until bound via
    /// [`Certificate::with_id`].
    pub certificate_id: String,
    /// The verification outcome (criteria 1/2/3 counts).
    pub report: VerificationReport,
    /// Wilson lower bound on criterion #1 at [`CERTIFICATE_WILSON_Z`].
    pub wilson_lower: f64,
    /// Wilson upper bound on criterion #1 at [`CERTIFICATE_WILSON_Z`].
    pub wilson_upper: f64,
    /// Comfort range lower bound the safe set used (°C).
    pub comfort_lo: f64,
    /// Comfort range upper bound the safe set used (°C).
    pub comfort_hi: f64,
    /// Monte-Carlo samples behind criterion #1.
    pub samples: u64,
    /// Seed of the probabilistic stage.
    pub seed: u64,
    /// Noise level of the augmenter the verification ran with.
    pub noise: f64,
    /// Artifact-store provenance keys (`stage:hash` strings), in
    /// pipeline order. Empty when verification ran without a store.
    pub artifact_keys: Vec<String>,
    /// Version of the crate that verified the policy.
    pub crate_version: String,
    /// Parse-only legacy field: the SHA-256 of a flat serving kernel
    /// that earlier releases compiled from the tree and bound here.
    /// Policies now serve the verified tree itself, so new
    /// certificates leave it empty and omit it from the canonical
    /// bytes; a legacy certificate that carries it keeps it, so its id
    /// still recomputes.
    pub compiled_hash: String,
}

impl Certificate {
    /// Assembles an unbound certificate (empty `certificate_id`) from a
    /// verification run's inputs and outcome.
    pub fn new(
        policy_hash: String,
        report: VerificationReport,
        config: &VerificationConfig,
        noise: f64,
        artifact_keys: Vec<String>,
    ) -> Self {
        let (wilson_lower, wilson_upper) = report.criterion_1.wilson_interval(CERTIFICATE_WILSON_Z);
        Self {
            policy_hash,
            certificate_id: String::new(),
            report,
            wilson_lower,
            wilson_upper,
            comfort_lo: config.comfort.lo(),
            comfort_hi: config.comfort.hi(),
            samples: config.samples as u64,
            seed: config.seed,
            noise,
            artifact_keys,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            compiled_hash: String::new(),
        }
    }

    /// Whether the certified outcome passes (criterion #1 point
    /// estimate clears the threshold; criteria #2/#3 are corrected by
    /// construction).
    pub fn verified(&self) -> bool {
        self.report.verified()
    }

    /// The exact byte string a certificate id commits to: the JSON
    /// encoding of every field *except* `certificate_id`.
    pub fn canonical_string(&self) -> String {
        let mut o = ObjectWriter::new();
        o.str_field("format", CERTIFICATE_FORMAT);
        o.str_field("policy_hash", &self.policy_hash);
        o.u64_field("total_nodes", self.report.total_nodes as u64);
        o.u64_field("leaf_nodes", self.report.leaf_nodes as u64);
        o.u64_field("safe", self.report.criterion_1.safe as u64);
        o.u64_field("total", self.report.criterion_1.total as u64);
        o.f64_field("threshold", self.report.criterion_1.threshold);
        o.u64_field(
            "corrected_criterion_2",
            self.report.corrected_criterion_2 as u64,
        );
        o.u64_field(
            "corrected_criterion_3",
            self.report.corrected_criterion_3 as u64,
        );
        o.f64_field("wilson_lower", self.wilson_lower);
        o.f64_field("wilson_upper", self.wilson_upper);
        o.f64_field("comfort_lo", self.comfort_lo);
        o.f64_field("comfort_hi", self.comfort_hi);
        o.u64_field("samples", self.samples);
        o.u64_field("seed", self.seed);
        o.f64_field("noise", self.noise);
        o.str_array_field("artifact_keys", &self.artifact_keys);
        o.str_field("crate_version", &self.crate_version);
        // Only emitted when non-empty, i.e. for legacy certificates
        // that bound a compiled kernel: their canonical bytes (and
        // therefore their ids) are unchanged.
        if !self.compiled_hash.is_empty() {
            o.str_field("compiled_hash", &self.compiled_hash);
        }
        o.finish()
    }

    /// Binds the certificate to its id (the hash of
    /// [`Certificate::canonical_string`], computed by the caller).
    #[must_use]
    pub fn with_id(mut self, id: String) -> Self {
        self.certificate_id = id;
        self
    }

    /// Serializes the certificate: the canonical string with
    /// `certificate_id` appended as the final field, so the stored
    /// bytes and the id-committed bytes agree by construction.
    pub fn to_json_string(&self) -> String {
        let canonical = self.canonical_string();
        format!(
            "{},\"certificate_id\":\"{}\"}}",
            &canonical[..canonical.len() - 1],
            self.certificate_id
        )
    }

    /// Parses a certificate from [`Certificate::to_json_string`]
    /// output. Floats round-trip bitwise, so
    /// [`Certificate::canonical_string`] of the result reproduces the
    /// original id-committed bytes exactly.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::BadReport`] for malformed JSON, a missing
    /// field, or an unknown format tag.
    pub fn from_json_string(text: &str) -> Result<Self, VerifyError> {
        let bad = |what: &'static str| VerifyError::BadReport { what };
        let v = json::parse(text).map_err(|_| bad("json"))?;
        if v.get("format").and_then(|f| f.as_str()) != Some(CERTIFICATE_FORMAT) {
            return Err(bad("format"));
        }
        let s = |name: &'static str| {
            v.get(name)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or(bad(name))
        };
        let u = |name: &'static str| v.get(name).and_then(|x| x.as_u64()).ok_or(bad(name));
        let f = |name: &'static str| v.get(name).and_then(|x| x.as_f64()).ok_or(bad(name));
        let keys = v
            .get("artifact_keys")
            .and_then(|x| x.as_array())
            .ok_or(bad("artifact_keys"))?
            .iter()
            .map(|item| item.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()
            .ok_or(bad("artifact_keys"))?;
        Ok(Self {
            policy_hash: s("policy_hash")?,
            certificate_id: s("certificate_id")?,
            report: VerificationReport {
                total_nodes: u("total_nodes")? as usize,
                leaf_nodes: u("leaf_nodes")? as usize,
                criterion_1: SafeProbability {
                    safe: u("safe")? as usize,
                    total: u("total")? as usize,
                    threshold: f("threshold")?,
                },
                corrected_criterion_2: u("corrected_criterion_2")? as usize,
                corrected_criterion_3: u("corrected_criterion_3")? as usize,
            },
            wilson_lower: f("wilson_lower")?,
            wilson_upper: f("wilson_upper")?,
            comfort_lo: f("comfort_lo")?,
            comfort_hi: f("comfort_hi")?,
            samples: u("samples")?,
            seed: u("seed")?,
            noise: f("noise")?,
            artifact_keys: keys,
            crate_version: s("crate_version")?,
            // Present only on legacy certificates (see the field doc).
            compiled_hash: v
                .get("compiled_hash")
                .and_then(|x| x.as_str())
                .unwrap_or_default()
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn certificate() -> Certificate {
        let report = VerificationReport {
            total_nodes: 41,
            leaf_nodes: 21,
            criterion_1: SafeProbability {
                safe: 1910,
                total: 2000,
                threshold: 0.9,
            },
            corrected_criterion_2: 2,
            corrected_criterion_3: 5,
        };
        Certificate::new(
            "ab".repeat(32),
            report,
            &VerificationConfig::paper(),
            0.05,
            vec![
                "tree:0011223344556677".into(),
                "verified:8899aabbccddeeff".into(),
            ],
        )
        .with_id("cd".repeat(32))
    }

    #[test]
    fn json_round_trip_is_exact() {
        let cert = certificate();
        let restored = Certificate::from_json_string(&cert.to_json_string()).unwrap();
        assert_eq!(restored, cert);
        // The canonical bytes — what the id commits to — survive too.
        assert_eq!(restored.canonical_string(), cert.canonical_string());
    }

    #[test]
    fn canonical_string_excludes_the_id() {
        let cert = certificate();
        assert!(!cert.canonical_string().contains("certificate_id"));
        assert!(cert.to_json_string().contains("certificate_id"));
        // Rebinding the id must not change the committed bytes.
        let rebound = cert.clone().with_id("ee".repeat(32));
        assert_eq!(rebound.canonical_string(), cert.canonical_string());
    }

    #[test]
    fn wilson_interval_matches_the_report() {
        let cert = certificate();
        let (lo, hi) = cert
            .report
            .criterion_1
            .wilson_interval(CERTIFICATE_WILSON_Z);
        assert_eq!((cert.wilson_lower, cert.wilson_upper), (lo, hi));
        assert!(cert.verified());
    }

    #[test]
    fn compiled_hash_is_committed_only_when_present() {
        let plain = certificate();
        // New certificates carry no compiled hash: the field stays out
        // of the canonical bytes.
        assert!(!plain.canonical_string().contains("compiled_hash"));

        let bound = Certificate {
            compiled_hash: "ef".repeat(32),
            ..certificate()
        };
        assert!(bound.canonical_string().contains("compiled_hash"));
        assert_ne!(bound.canonical_string(), plain.canonical_string());

        // Round trip preserves the binding bit-exactly.
        let restored = Certificate::from_json_string(&bound.to_json_string()).unwrap();
        assert_eq!(restored, bound);
        assert_eq!(restored.canonical_string(), bound.canonical_string());

        // A certificate without the field parses with an empty
        // compiled hash.
        let legacy = Certificate::from_json_string(&plain.to_json_string()).unwrap();
        assert_eq!(legacy.compiled_hash, "");
        assert_eq!(legacy, plain);
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "{}",
            "not json",
            r#"{"format":"certificate v9"}"#,
            r#"{"format":"certificate v1","policy_hash":"ab"}"#,
        ] {
            assert!(Certificate::from_json_string(text).is_err(), "{text:?}");
        }
    }
}
