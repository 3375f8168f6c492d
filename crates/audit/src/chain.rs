//! The append-only audit chain writer.
//!
//! [`AuditChain`] owns one chain file and appends records in strict
//! sequence: a genesis record binding the chain to the served policy
//! (and its certificate, when present), then decision / transition
//! records as they happen, a checkpoint every
//! [`ChainConfig::checkpoint_every`] records, and a `seal` record —
//! a final checkpoint — on graceful close or `Drop`.
//!
//! Durability follows the threat model, not just the crash model: a
//! chain is *evidence*, so by default every append is flushed through
//! the `BufWriter` to the OS ([`FlushPolicy::Always`]). That costs a
//! `write(2)` per record (perfbench's `audit.append_us`, against
//! `audit.append_buffered_us` for a buffered chain) but means a
//! `SIGKILL`-ed serve loses at most the decision in flight — never a
//! suffix of acknowledged decisions. Deployments that can tolerate a bounded loss window buy
//! the latency back with [`FlushPolicy::EveryN`] (flush after every
//! K appends) or [`FlushPolicy::IntervalMs`] (flush when the last
//! flush is older than T ms); [`FlushPolicy::OnSeal`] buffers
//! everything until seal/explicit flush and leans on the telemetry
//! panic-hook idiom: live chains register in a process-wide list that
//! [`flush_all_chains`] (wired into
//! [`hvac_telemetry::install_panic_flush_hook`]'s chained hook via
//! [`install_chain_flush_hook`]) drains on panic. Sealing flushes
//! under every policy.
//!
//! The writer's running state — next `seq`, last hash, running digest,
//! counters, checkpoint cadence — is the chain-state fold (`fold.rs`),
//! advanced after each append without re-checking the record just
//! built. [`AuditChain::recover`] rebuilds the same state from disk by
//! checking every record with the auditor's structural checks before
//! folding it in, so recovery resumes only chains the audit accepts.

use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};

use hvac_telemetry::{
    counter, histogram, process_elapsed_ns, Counter, Histogram, LATENCY_BOUNDS_NS,
};

use crate::fold::{ChainState, Check, CHECK_NAMES};
use crate::record::{chain_lines, ChainRecord, Payload, CHAIN_FORMAT, OBSERVATION_DIM};

/// The byte sink an [`AuditChain`] appends through. Ordinary chains
/// write straight to a [`std::fs::File`]; the chaos harness
/// (`hvac-faults::FaultyWriter`) threads deterministic write faults —
/// short writes, injected ENOSPC, fsync failures, latency spikes —
/// through the same seam via [`AuditChain::create_with_writer`].
pub trait ChainWriter: Write + Send + std::fmt::Debug {}

impl<W: Write + Send + std::fmt::Debug> ChainWriter for W {}

/// When buffered appends are pushed to the OS (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every append — the evidence-grade default; a kill
    /// loses at most the decision in flight.
    Always,
    /// Flush after every `K` appends (clamped to at least 1); a kill
    /// loses at most `K` acknowledged records.
    EveryN(u64),
    /// Flush when the previous flush is older than `T` ms at append
    /// time; a kill loses at most the records of the last `T` ms.
    IntervalMs(u64),
    /// Buffer until [`AuditChain::seal`] / [`AuditChain::flush`] /
    /// the panic hook.
    OnSeal,
}

impl FlushPolicy {
    /// Parses the `--audit-flush` CLI syntax: `always`, `every-n=K`,
    /// or `interval-ms=T`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed value.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text == "always" {
            return Ok(Self::Always);
        }
        if let Some(k) = text.strip_prefix("every-n=") {
            return match k.parse::<u64>() {
                Ok(k) if k > 0 => Ok(Self::EveryN(k)),
                _ => Err(format!("every-n wants a positive integer, got {k:?}")),
            };
        }
        if let Some(t) = text.strip_prefix("interval-ms=") {
            return match t.parse::<u64>() {
                Ok(t) => Ok(Self::IntervalMs(t)),
                _ => Err(format!("interval-ms wants an integer, got {t:?}")),
            };
        }
        Err(format!(
            "unknown flush policy {text:?}; expected always, every-n=K, or interval-ms=T"
        ))
    }
}

impl std::fmt::Display for FlushPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::EveryN(k) => write!(f, "every-n={k}"),
            Self::IntervalMs(t) => write!(f, "interval-ms={t}"),
            Self::OnSeal => write!(f, "on-seal"),
        }
    }
}

/// Tuning knobs for a chain writer.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// A checkpoint record is appended after every this-many records.
    pub checkpoint_every: u64,
    /// When appends reach the OS. Defaults to [`FlushPolicy::Always`].
    pub flush: FlushPolicy,
}

impl Default for ChainConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 256,
            flush: FlushPolicy::Always,
        }
    }
}

/// What [`AuditChain::recover`] found and did: the verified prefix it
/// resumed from, the torn bytes it truncated, and the identity the
/// chain's genesis record binds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records in the verified prefix (the resumed chain's length
    /// before the appended `recovery` record).
    pub prefix_records: u64,
    /// Torn trailing bytes truncated (0 when the file ended cleanly on
    /// a complete record).
    pub truncated_bytes: u64,
    /// Byte offset the file was truncated at (== the recovered file
    /// length before the `recovery` record was appended).
    pub truncated_at: u64,
    /// Whether the verified prefix ended in a `seal` record (a chain
    /// that shut down gracefully before the restart).
    pub was_sealed: bool,
    /// Policy hash the genesis record binds.
    pub policy_hash: String,
    /// Certificate id the genesis record binds (may be empty).
    pub certificate_id: String,
    /// Decision records in the verified prefix.
    pub decisions: u64,
    /// Transition records in the verified prefix.
    pub transitions: u64,
}

/// Mutable writer state behind the chain's mutex.
#[derive(Debug)]
struct Inner {
    out: BufWriter<Box<dyn ChainWriter>>,
    /// The chain so far, advanced after every append.
    state: ChainState,
    /// Appends since the last flush ([`FlushPolicy::EveryN`] state).
    since_flush: u64,
    /// Process time of the last flush ([`FlushPolicy::IntervalMs`]).
    last_flush_ns: u64,
    sealed: bool,
}

/// An open, append-only decision chain.
///
/// Thread-safe: appends serialise on an internal mutex (the serve path
/// already holds its policy mutex per decision, so this adds no new
/// contention shape).
#[derive(Debug)]
pub struct AuditChain {
    inner: Mutex<Inner>,
    config: ChainConfig,
    records_total: Counter,
    checkpoints_total: Counter,
    append_ns: Histogram,
}

impl AuditChain {
    /// Creates `path` (truncating any existing file) and writes the
    /// genesis record binding the chain to `policy_hash` /
    /// `certificate_id` (pass `""` when serving uncertified).
    ///
    /// # Errors
    ///
    /// Propagates file creation or write failures.
    pub fn create(
        path: &Path,
        policy_hash: &str,
        certificate_id: &str,
        config: ChainConfig,
    ) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Self::create_with_writer(Box::new(file), policy_hash, certificate_id, config)
    }

    /// [`AuditChain::create`] over an arbitrary byte sink instead of a
    /// freshly-truncated file — the seam the chaos harness uses to
    /// thread deterministic write faults (`hvac-faults::FaultyWriter`)
    /// through every append.
    ///
    /// # Errors
    ///
    /// Propagates write failures from the genesis append.
    pub fn create_with_writer(
        writer: Box<dyn ChainWriter>,
        policy_hash: &str,
        certificate_id: &str,
        config: ChainConfig,
    ) -> std::io::Result<Self> {
        let chain = Self::resume(writer, ChainState::default(), config);
        chain.append(
            "genesis",
            Payload::Genesis {
                format: CHAIN_FORMAT.to_string(),
                policy_hash: policy_hash.to_string(),
                certificate_id: certificate_id.to_string(),
                crate_version: env!("CARGO_PKG_VERSION").to_string(),
            },
        )?;
        Ok(chain)
    }

    /// A writer appending to `writer` after the prefix `state` folds.
    fn resume(writer: Box<dyn ChainWriter>, state: ChainState, config: ChainConfig) -> Self {
        Self {
            inner: Mutex::new(Inner {
                out: BufWriter::new(writer),
                state,
                since_flush: 0,
                last_flush_ns: process_elapsed_ns(),
                sealed: false,
            }),
            config,
            records_total: counter("audit.records"),
            checkpoints_total: counter("audit.checkpoints"),
            append_ns: histogram("audit.append.ns", LATENCY_BOUNDS_NS),
        }
    }

    /// Re-opens an existing chain for appending after a crash.
    ///
    /// Scans the file once (O(chain length)), verifying the prefix
    /// record by record with the auditor's structural checks: each
    /// complete line is decoded, checked against the records before it
    /// by the chain-state fold (`fold.rs`: record hash, `seq`/`prev_hash`
    /// link, genesis format, checkpoint counters and digests, recovery
    /// prefixes) and folded in. A *torn tail* — trailing
    /// bytes after the last complete line, the well-defined signature
    /// of a write cut mid-record (the length-prefixed JSONL format
    /// never emits a raw newline inside a record, so the torn fragment
    /// can never masquerade as a complete line) — is truncated
    /// **atomically**: the verified prefix is written to a scratch
    /// file and renamed over the original, so a second crash mid-
    /// recovery leaves either the old file or the repaired one, never
    /// a half-truncated hybrid. Appending then resumes after a
    /// hash-covered `recovery` record carrying the verified prefix
    /// digest and the truncated byte count.
    ///
    /// A prefix ending in a `seal` record (graceful shutdown before
    /// the restart) is resumed the same way; the `recovery` record
    /// reopens the chain.
    ///
    /// # Errors
    ///
    /// * the file is missing, empty, or carries no complete genesis
    ///   record — create a fresh chain instead;
    /// * any *complete* line fails a structural check — that is
    ///   interior corruption (tampering), which recovery refuses to
    ///   paper over; the error names the byte offset and the check, and
    ///   the file is left as it was;
    /// * truncation or re-open I/O failures.
    pub fn recover(path: &Path, config: ChainConfig) -> std::io::Result<(Self, RecoveryReport)> {
        let bytes = std::fs::read(path)?;
        let mut state = ChainState::default();
        let (lines, prefix_len) = chain_lines(&bytes);
        for (offset, decoded) in lines {
            let record = decoded
                .map_err(|why| (Check::Lines, why))
                .and_then(|record| match state.check(&record).into_iter().next() {
                    Some(fault) => Err(fault),
                    None => Ok(record),
                })
                .map_err(|(check, why)| {
                    std::io::Error::other(format!(
                        "cannot recover {}: complete record at byte offset {offset} (seq {}) is \
                         corrupt: check `{}` fails: {why} — interior damage is tampering, not a \
                         torn tail",
                        path.display(),
                        state.records,
                        CHECK_NAMES[check as usize],
                    ))
                })?;
            state.advance(&record);
        }
        if state.records == 0 {
            return Err(std::io::Error::other(format!(
                "cannot recover {}: no complete genesis record — create a fresh chain instead",
                path.display()
            )));
        }
        let truncated_bytes = (bytes.len() - prefix_len) as u64;
        if truncated_bytes > 0 {
            // Atomic truncation: scratch + rename, never truncate in
            // place.
            let scratch = path.with_extension(format!("recover-scratch.{}", std::process::id()));
            {
                let mut out = std::fs::File::create(&scratch)?;
                out.write_all(&bytes[..prefix_len])?;
                out.sync_all()?;
            }
            std::fs::rename(&scratch, path)?;
        }
        let report = RecoveryReport {
            prefix_records: state.records,
            truncated_bytes,
            truncated_at: prefix_len as u64,
            was_sealed: state.sealed,
            policy_hash: state.policy_hash.clone(),
            certificate_id: state.certificate_id.clone(),
            decisions: state.decisions,
            transitions: state.transitions,
        };
        let prefix_digest = state.digest.clone().finalize_hex();
        let file = OpenOptions::new().append(true).open(path)?;
        let chain = Self::resume(Box::new(file), state, config);
        chain.append(
            "recovery",
            Payload::Recovery {
                prefix_records: report.prefix_records,
                prefix_digest,
                truncated_bytes,
            },
        )?;
        // The recovery record is evidence of the resume: it reaches the
        // OS under every flush policy.
        chain.flush()?;
        counter("audit.recoveries").incr();
        Ok((chain, report))
    }

    /// Appends one decision record.
    ///
    /// # Errors
    ///
    /// Propagates write failures; appending to a sealed chain is an
    /// error of kind [`std::io::ErrorKind::Other`].
    pub fn append_decision(
        &self,
        observation: [f64; OBSERVATION_DIM],
        heating: u64,
        cooling: u64,
        action_index: u64,
        guard_state: &str,
        trace_id: Option<&str>,
    ) -> std::io::Result<()> {
        self.append(
            "decision",
            Payload::Decision {
                observation,
                heating,
                cooling,
                action_index,
                guard_state: guard_state.to_string(),
                trace_id: trace_id.map(str::to_string),
            },
        )
    }

    /// Appends one guard degradation-ladder transition record.
    ///
    /// # Errors
    ///
    /// Propagates write failures (see [`AuditChain::append_decision`]).
    pub fn append_transition(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.append(
            "transition",
            Payload::Transition {
                from: from.to_string(),
                to: to.to_string(),
            },
        )
    }

    /// Writes the final `seal` checkpoint and flushes. Idempotent;
    /// called automatically on `Drop`.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn seal(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("audit chain mutex poisoned");
        if inner.sealed {
            return Ok(());
        }
        let payload = Self::checkpoint_payload(&inner);
        self.append_locked(&mut inner, "seal", payload)?;
        inner.sealed = true;
        // The seal reaches disk under every flush policy.
        inner.out.flush()
    }

    /// Flushes buffered appends to the OS without sealing.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("audit chain mutex poisoned");
        inner.out.flush()?;
        inner.since_flush = 0;
        inner.last_flush_ns = process_elapsed_ns();
        Ok(())
    }

    /// Records appended so far (genesis and checkpoints included).
    pub fn len(&self) -> u64 {
        self.inner
            .lock()
            .expect("audit chain mutex poisoned")
            .state
            .records
    }

    /// Always `false`: a chain carries its genesis record from birth.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn checkpoint_payload(inner: &Inner) -> Payload {
        let state = &inner.state;
        Payload::Checkpoint {
            records: state.records,
            decisions: state.decisions,
            transitions: state.transitions,
            digest: state.digest.clone().finalize_hex(),
        }
    }

    fn append(&self, kind: &str, payload: Payload) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("audit chain mutex poisoned");
        self.append_locked(&mut inner, kind, payload)
    }

    /// The one append path: builds, hashes, writes, and folds the
    /// record into the chain state (unchecked: it was built right
    /// here); inserts a checkpoint when the cadence comes due.
    fn append_locked(
        &self,
        inner: &mut Inner,
        kind: &str,
        payload: Payload,
    ) -> std::io::Result<()> {
        if inner.sealed {
            return Err(std::io::Error::other("audit chain already sealed"));
        }
        let start = process_elapsed_ns();
        let record = ChainRecord::new(
            kind,
            inner.state.records,
            start,
            inner.state.prev_hash().to_string(),
            payload,
        );
        inner.out.write_all(record.to_line().as_bytes())?;
        inner.state.advance(&record);
        inner.since_flush += 1;
        let due = match self.config.flush {
            FlushPolicy::Always => true,
            FlushPolicy::EveryN(k) => inner.since_flush >= k.max(1),
            FlushPolicy::IntervalMs(t) => {
                process_elapsed_ns().saturating_sub(inner.last_flush_ns) >= t * 1_000_000
            }
            FlushPolicy::OnSeal => false,
        };
        if due {
            inner.out.flush()?;
            inner.since_flush = 0;
            inner.last_flush_ns = process_elapsed_ns();
        }
        self.records_total.incr();
        self.append_ns
            .record(process_elapsed_ns().saturating_sub(start));
        if kind != "seal"
            && kind != "checkpoint"
            && self.config.checkpoint_every > 0
            && inner.state.since_checkpoint >= self.config.checkpoint_every
        {
            let payload = Self::checkpoint_payload(inner);
            self.checkpoints_total.incr();
            self.append_locked(inner, "checkpoint", payload)?;
        }
        Ok(())
    }
}

impl Drop for AuditChain {
    fn drop(&mut self) {
        // Best effort: a failing disk at drop time must not panic the
        // unwinding thread.
        let _ = self.seal();
    }
}

/// Process-wide list of live chains, for the panic flush hook.
fn live_chains() -> &'static Mutex<Vec<Weak<AuditChain>>> {
    static LIVE: std::sync::OnceLock<Mutex<Vec<Weak<AuditChain>>>> = std::sync::OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers `chain` for panic-time flushing and returns it unchanged.
pub fn register_chain(chain: Arc<AuditChain>) -> Arc<AuditChain> {
    let mut live = live_chains().lock().expect("live chain list poisoned");
    live.retain(|weak| weak.strong_count() > 0);
    live.push(Arc::downgrade(&chain));
    chain
}

/// Flushes (not seals) every registered, still-live chain. Called from
/// the panic hook; safe to call any time.
pub fn flush_all_chains() {
    if let Ok(live) = live_chains().lock() {
        for weak in live.iter() {
            if let Some(chain) = weak.upgrade() {
                let _ = chain.flush();
            }
        }
    }
}

/// Installs a panic hook that flushes all registered chains (then the
/// telemetry sinks, via the chained previous hook). Idempotent.
pub fn install_chain_flush_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    hvac_telemetry::install_panic_flush_hook();
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        flush_all_chains();
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Sha256;
    use crate::record::{decode_line, GENESIS_PREV_HASH};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hvac-audit-chain-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("chain.jsonl")
    }

    fn read_records(path: &Path) -> Vec<ChainRecord> {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines()
            .map(|line| decode_line(line).unwrap())
            .collect()
    }

    fn obs(seed: f64) -> [f64; OBSERVATION_DIM] {
        [seed, 1.0, 50.0, 4.0, 100.0, 2.0, 12.0]
    }

    #[test]
    fn chain_links_checkpoints_and_seals() {
        let path = temp_path("links");
        let chain = AuditChain::create(
            &path,
            &"aa".repeat(32),
            "",
            ChainConfig {
                checkpoint_every: 4,
                flush: FlushPolicy::OnSeal,
            },
        )
        .unwrap();
        for i in 0..10u64 {
            chain
                .append_decision(obs(i as f64), 20, 26, i, "normal", Some("req-ln"))
                .unwrap();
        }
        chain.append_transition("normal", "hold").unwrap();
        chain.seal().unwrap();
        let records = read_records(&path);

        // Genesis first, seal last, hash-linked throughout.
        assert_eq!(records[0].kind, "genesis");
        assert_eq!(records[0].prev_hash, GENESIS_PREV_HASH);
        assert_eq!(records.last().unwrap().kind, "seal");
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
            assert!(record.hash_is_consistent(), "record {i}");
            if i > 0 {
                assert_eq!(record.prev_hash, records[i - 1].record_hash, "link {i}");
            }
        }

        // Cadence: a checkpoint after every 4 content records.
        let checkpoint_seqs: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == "checkpoint")
            .map(|r| r.seq)
            .collect();
        // Content records (genesis + 10 decisions + 1 transition) in
        // groups of 4: checkpoints land after seqs 0-3, 5-8, 10-13.
        assert_eq!(checkpoint_seqs, vec![4, 9, 14]);

        // Checkpoint digests replay from the prefix hashes.
        for record in &records {
            if let Payload::Checkpoint {
                records: count,
                digest,
                ..
            } = &record.payload
            {
                let mut h = Sha256::new();
                for prior in &records[..*count as usize] {
                    h.update(prior.record_hash.as_bytes());
                    h.update(b"\n");
                }
                assert_eq!(&h.finalize_hex(), digest, "digest at seq {}", record.seq);
            }
        }

        // Seal counters cover the whole chain.
        let Payload::Checkpoint {
            decisions,
            transitions,
            ..
        } = &records.last().unwrap().payload
        else {
            panic!("seal payload");
        };
        assert_eq!((*decisions, *transitions), (10, 1));
    }

    #[test]
    fn seal_is_idempotent_and_blocks_further_appends() {
        let path = temp_path("sealed");
        let chain = AuditChain::create(&path, "ph", "cid", ChainConfig::default()).unwrap();
        chain.seal().unwrap();
        chain.seal().unwrap();
        assert!(chain
            .append_decision(obs(0.0), 20, 26, 0, "normal", None)
            .is_err());
        let records = read_records(&path);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].kind, "seal");
    }

    #[test]
    fn drop_seals_the_chain() {
        let path = temp_path("drop");
        {
            let chain = AuditChain::create(&path, "ph", "", ChainConfig::default()).unwrap();
            chain
                .append_decision(obs(1.0), 21, 27, 3, "normal", None)
                .unwrap();
        }
        let records = read_records(&path);
        assert_eq!(records.last().unwrap().kind, "seal");
    }

    #[test]
    fn durable_appends_are_visible_without_seal() {
        let path = temp_path("durable");
        let chain = AuditChain::create(
            &path,
            "ph",
            "",
            ChainConfig {
                checkpoint_every: 256,
                flush: FlushPolicy::Always,
            },
        )
        .unwrap();
        chain
            .append_decision(obs(2.0), 22, 28, 5, "normal", Some("req-durable"))
            .unwrap();
        // Read back while the chain is still open: both records are on
        // disk, every line complete.
        let records = read_records(&path);
        assert_eq!(records.len(), 2);
        drop(chain);
    }

    #[test]
    fn flush_policy_parses_cli_syntax() {
        assert_eq!(FlushPolicy::parse("always"), Ok(FlushPolicy::Always));
        assert_eq!(
            FlushPolicy::parse("every-n=64"),
            Ok(FlushPolicy::EveryN(64))
        );
        assert_eq!(
            FlushPolicy::parse("interval-ms=25"),
            Ok(FlushPolicy::IntervalMs(25))
        );
        assert!(FlushPolicy::parse("every-n=0").is_err());
        assert!(FlushPolicy::parse("every-n=x").is_err());
        assert!(FlushPolicy::parse("sometimes").is_err());
        assert_eq!(FlushPolicy::EveryN(8).to_string(), "every-n=8");
    }

    #[test]
    fn every_n_flushes_in_batches_and_seal_flushes_the_rest() {
        let path = temp_path("everyn");
        let chain = AuditChain::create(
            &path,
            "ph",
            "",
            ChainConfig {
                checkpoint_every: 1_000,
                flush: FlushPolicy::EveryN(4),
            },
        )
        .unwrap();
        // Genesis is append 1 of the first batch of 4; two decisions
        // leave the batch incomplete, so only complete lines on disk
        // come from ... nothing yet (batch not full).
        chain
            .append_decision(obs(0.0), 20, 26, 0, "normal", None)
            .unwrap();
        chain
            .append_decision(obs(1.0), 20, 26, 1, "normal", None)
            .unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().is_empty());
        // Fourth append completes the batch → everything visible.
        chain
            .append_decision(obs(2.0), 20, 26, 2, "normal", None)
            .unwrap();
        assert_eq!(read_records(&path).len(), 4);
        // One more buffered append, then seal pushes it out with the
        // seal record regardless of batch state.
        chain
            .append_decision(obs(3.0), 20, 26, 3, "normal", None)
            .unwrap();
        chain.seal().unwrap();
        let records = read_records(&path);
        assert_eq!(records.len(), 6);
        assert_eq!(records.last().unwrap().kind, "seal");
    }

    #[test]
    fn interval_policy_flushes_once_the_clock_passes() {
        let path = temp_path("interval");
        let chain = AuditChain::create(
            &path,
            "ph",
            "",
            ChainConfig {
                checkpoint_every: 1_000,
                flush: FlushPolicy::IntervalMs(20),
            },
        )
        .unwrap();
        chain
            .append_decision(obs(0.0), 20, 26, 0, "normal", None)
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        // The next append notices the interval elapsed and flushes.
        chain
            .append_decision(obs(1.0), 20, 26, 1, "normal", None)
            .unwrap();
        assert_eq!(read_records(&path).len(), 3);
        drop(chain);
    }

    /// A chain whose process died without running Drop: every append
    /// durable, no seal. `mem::forget` skips the Drop-seal exactly like
    /// a kill -9 skips destructors.
    fn crashed_chain(name: &str, appends: u64) -> std::path::PathBuf {
        let path = temp_path(name);
        let chain = AuditChain::create(
            &path,
            &"aa".repeat(32),
            "",
            ChainConfig {
                checkpoint_every: 4,
                flush: FlushPolicy::Always,
            },
        )
        .unwrap();
        for i in 0..appends {
            chain
                .append_decision(obs(i as f64), 20, 26, i, "normal", None)
                .unwrap();
        }
        std::mem::forget(chain);
        path
    }

    #[test]
    fn recover_resumes_an_unsealed_chain_with_one_recovery_record() {
        let path = crashed_chain("recover-clean", 6);
        let before = read_records(&path);
        let (chain, report) = AuditChain::recover(&path, ChainConfig::default()).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.prefix_records, before.len() as u64);
        assert_eq!(report.decisions, 6);
        assert!(!report.was_sealed);
        assert_eq!(report.policy_hash, "aa".repeat(32));
        chain
            .append_decision(obs(9.0), 21, 27, 1, "normal", None)
            .unwrap();
        chain.seal().unwrap();

        let records = read_records(&path);
        let recovery = &records[before.len()];
        assert_eq!(recovery.kind, "recovery");
        assert_eq!(recovery.prev_hash, before.last().unwrap().record_hash);
        let Payload::Recovery {
            prefix_records,
            prefix_digest,
            truncated_bytes,
        } = &recovery.payload
        else {
            panic!("recovery payload");
        };
        assert_eq!(*prefix_records, before.len() as u64);
        assert_eq!(*truncated_bytes, 0);
        let mut h = Sha256::new();
        for prior in &before {
            h.update(prior.record_hash.as_bytes());
            h.update(b"\n");
        }
        assert_eq!(prefix_digest, &h.finalize_hex());

        // The whole resumed chain audits green, recovery check included.
        let text = std::fs::read_to_string(&path).unwrap();
        let report = crate::audit::Auditor::new(&text).run();
        assert!(report.passed(), "{report}");
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.failure_class(), "none");
    }

    #[test]
    fn recover_truncates_exactly_the_torn_tail() {
        use std::io::Write as _;
        let path = crashed_chain("recover-torn", 5);
        let clean = std::fs::read(&path).unwrap();
        // Simulate a write cut mid-record: a fragment with no newline.
        let torn = b"187 {\"kind\":\"decision\",\"seq\":9";
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(torn).unwrap();
        }

        let (chain, report) = AuditChain::recover(&path, ChainConfig::default()).unwrap();
        assert_eq!(report.truncated_bytes, torn.len() as u64);
        assert_eq!(report.truncated_at, clean.len() as u64);
        chain.seal().unwrap();

        // The verified prefix survived byte-for-byte.
        let repaired = std::fs::read(&path).unwrap();
        assert_eq!(&repaired[..clean.len()], &clean[..]);
        let text = std::fs::read_to_string(&path).unwrap();
        let audited = crate::audit::Auditor::new(&text).run();
        assert!(audited.passed(), "{audited}");
        assert_eq!(audited.recoveries, 1);
    }

    #[test]
    fn recover_refuses_interior_corruption() {
        let path = crashed_chain("recover-interior", 5);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte well inside the second line.
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 10;
        bytes[second_line] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let err = AuditChain::recover(&path, ChainConfig::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("byte offset"), "{msg}");
        assert!(msg.contains("tampering"), "{msg}");
        // The file was not modified: refusal is read-only.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn recover_resumes_after_a_graceful_seal() {
        let path = temp_path("recover-sealed");
        {
            let chain = AuditChain::create(&path, "ph", "cid", ChainConfig::default()).unwrap();
            chain
                .append_decision(obs(1.0), 20, 26, 0, "normal", None)
                .unwrap();
            chain.seal().unwrap();
        }
        let (chain, report) = AuditChain::recover(&path, ChainConfig::default()).unwrap();
        assert!(report.was_sealed);
        assert_eq!(report.certificate_id, "cid");
        chain
            .append_decision(obs(2.0), 20, 26, 1, "normal", None)
            .unwrap();
        chain.seal().unwrap();
        let records = read_records(&path);
        // …seal, recovery, decision, seal — one unbroken hash chain.
        let kinds: Vec<&str> = records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["genesis", "decision", "seal", "recovery", "decision", "seal"]
        );
        for (i, record) in records.iter().enumerate().skip(1) {
            assert_eq!(record.prev_hash, records[i - 1].record_hash, "link {i}");
        }
    }

    #[test]
    fn recover_refuses_an_empty_or_missing_file() {
        let path = temp_path("recover-empty");
        std::fs::write(&path, b"").unwrap();
        assert!(AuditChain::recover(&path, ChainConfig::default()).is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(AuditChain::recover(&path, ChainConfig::default()).is_err());
    }

    #[test]
    fn flush_all_chains_drains_registered_buffers() {
        let path = temp_path("panicflush");
        let chain = register_chain(Arc::new(
            AuditChain::create(
                &path,
                "ph",
                "",
                ChainConfig {
                    checkpoint_every: 256,
                    flush: FlushPolicy::OnSeal,
                },
            )
            .unwrap(),
        ));
        chain
            .append_decision(obs(3.0), 23, 29, 6, "normal", None)
            .unwrap();
        flush_all_chains();
        let records = read_records(&path);
        assert_eq!(records.len(), 2);
        drop(chain);
    }
}
