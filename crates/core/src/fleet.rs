//! Fleet serving — one process controlling many buildings.
//!
//! The paper's deployment argument (Table 3) is that a verified tree
//! policy is cheap enough to serve *everywhere*: a root-to-leaf
//! descent costs ~100 ns, so a single controller process should
//! comfortably decide for thousands of buildings. [`serve_fleet`] is
//! the one serving endpoint — a single building is a one-tenant fleet
//! (`veri-hvac serve --policy`) — and it provides:
//!
//! * a content-addressed [`PolicyRegistry`] — tenants referencing the
//!   same tree (by `hvac-audit::policy_hash`) share one immutable
//!   [`RegisteredPolicy`] entry instead of N copies;
//! * per-tenant [`GuardedPolicy`] state behind **sharded locks** — one
//!   mutex per building, so tenant A's decide never queues behind
//!   tenant B's;
//! * per-tenant tamper-evident audit chains (`<audit_dir>/<id>.jsonl`,
//!   each with its own genesis binding the tenant's policy hash and
//!   certificate), all sealed on graceful shutdown — after the worker
//!   pool has drained, so no in-flight decision can race a seal;
//! * a **lockstep tick path** (`POST /tick`): one synchronized batch
//!   of observations, one per tenant, whose tree evaluations coalesce
//!   into [`DtPolicy::decide_batch_into`] calls grouped by registry
//!   entry — the fleet-scale extension of the planner's
//!   `predict_batch_into`/`LockstepWorkspace` idiom.
//!
//! # Routes
//!
//! | route | purpose |
//! |---|---|
//! | `POST /decide/{tenant}` | one decision for one building |
//! | `POST /decide` | same, tenant named by a `"tenant"` body field (optional for a single-tenant fleet) |
//! | `POST /tick` | lockstep batch: `{"requests":[{"tenant":…,"observation":{…}},…]}` |
//! | `GET /tenants` | fleet roster with per-tenant guard rung and decision counts |
//! | `GET /version` | build info, tenant and distinct-policy counts; with exactly one distinct policy also its `policy_hash`, `certified` and `certificate_id` |
//! | `GET /debug/flight`, `/debug/slo`, `/metrics`, `/summary.json`, `/healthz` | the ops plane of [`crate::serve`] |
//!
//! Per-tenant decisions are **bit-identical** to deciding in process:
//! both `/decide` routes run [`crate::serve::decide_json_traced`]'s
//! path over the tenant's own guard, and the tick path's two-phase
//! [`GuardedPolicy::route`] / [`GuardedPolicy::commit`] split is
//! bit-identical to `decide` by construction.

use crate::serve::{
    decide_value_traced, flight_json, mint_trace_id, observation_from_value, parse_body,
    OpsOptions, DECIDE_TIMEOUT, MAX_DECIDE_BODY_BYTES, SERVE_WINDOW_EPOCHS, SERVE_WINDOW_NS,
};
use hvac_audit::{AuditChain, ChainConfig, ChainRecord, FlushPolicy, Payload};
use hvac_control::{
    DtPolicy, GuardConfig, GuardRoute, GuardSnapshot, GuardState, GuardTransition, GuardedPolicy,
};
use hvac_env::{ComfortRange, Observation, SetpointAction};
use hvac_telemetry::http::{HttpServer, Request, Response, REQUEST_ID_HEADER};
use hvac_telemetry::json::{parse, JsonValue, ObjectWriter};
use hvac_telemetry::ring::{FlightRecord, FlightRecorder};
use hvac_telemetry::slo::SloTracker;
use hvac_telemetry::{process_elapsed_ns, warn, windowed_histogram, LATENCY_BOUNDS_NS};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Longest accepted tenant id, in bytes.
pub const MAX_TENANT_ID_BYTES: usize = 64;

/// Largest accepted request body on a fleet endpoint. `POST /tick`
/// carries one observation per tenant, so the cap is sized for a full
/// fleet's batch rather than the single-observation
/// [`MAX_DECIDE_BODY_BYTES`]. A fleet without a reload source caps
/// lower still (see [`serve_fleet_with_reload`]).
pub const MAX_FLEET_BODY_BYTES: usize = 256 * 1024;

/// Most requests accepted in one `POST /tick` batch.
pub const MAX_TICK_REQUESTS: usize = 4096;

/// Whether `id` is a valid tenant id: 1–[`MAX_TENANT_ID_BYTES`] bytes
/// of `[A-Za-z0-9_-]`. The charset keeps ids safe to embed in URL
/// paths, JSON bodies, and audit-chain file names without escaping.
pub fn valid_tenant_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_TENANT_ID_BYTES
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// One immutable registry entry: a verified tree policy plus the
/// identity it is served under (content hash, optional certificate).
#[derive(Debug)]
pub struct RegisteredPolicy {
    policy: DtPolicy,
    hash: String,
    certificate_id: Option<String>,
}

impl RegisteredPolicy {
    /// The shared, immutable tree policy.
    pub fn policy(&self) -> &DtPolicy {
        &self.policy
    }

    /// Content hash (`hvac-audit::policy_hash`) keying this entry.
    pub fn hash(&self) -> &str {
        &self.hash
    }

    /// Id of the verification certificate the policy is served under,
    /// when certified.
    pub fn certificate_id(&self) -> Option<&str> {
        self.certificate_id.as_deref()
    }
}

/// Content-addressed policy registry: many tenants, few distinct
/// trees. Registration dedups by policy hash, so a thousand buildings
/// running the same verified tree share one [`RegisteredPolicy`].
#[derive(Debug, Default)]
pub struct PolicyRegistry {
    entries: BTreeMap<String, Arc<RegisteredPolicy>>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `policy`, returning the (possibly pre-existing)
    /// shared entry for its content hash. The first registration of a
    /// hash fixes the certificate id; later duplicates keep it.
    pub fn register(
        &mut self,
        policy: DtPolicy,
        certificate_id: Option<String>,
    ) -> Arc<RegisteredPolicy> {
        let hash = hvac_audit::policy_hash(&policy);
        match self.entries.entry(hash.clone()) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(v) => Arc::clone(v.insert(Arc::new(RegisteredPolicy {
                policy,
                hash,
                certificate_id,
            }))),
        }
    }

    /// Looks up an entry by content hash.
    pub fn get(&self, hash: &str) -> Option<Arc<RegisteredPolicy>> {
        self.entries.get(hash).map(Arc::clone)
    }

    /// Number of distinct policies registered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered content hashes, in sorted order.
    pub fn hashes(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Drops every entry whose hash is not in `keep` (reload hygiene:
    /// policies no tenant references anymore don't pin memory forever).
    pub fn retain_hashes(&mut self, keep: &BTreeSet<String>) {
        self.entries.retain(|hash, _| keep.contains(hash));
    }
}

/// One building's serving state: its shared policy entry, its own
/// guard ladder behind its own lock, and (optionally) its own
/// tamper-evident decision chain.
#[derive(Debug)]
pub struct Tenant {
    id: String,
    policy: Arc<RegisteredPolicy>,
    guard: Mutex<GuardedPolicy<DtPolicy>>,
    chain: Option<Arc<AuditChain>>,
}

impl Tenant {
    /// The building id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The registry entry this tenant serves under.
    pub fn policy(&self) -> &Arc<RegisteredPolicy> {
        &self.policy
    }

    /// The tenant's audit chain, when fleet auditing is on.
    pub fn chain(&self) -> Option<&Arc<AuditChain>> {
        self.chain.as_ref()
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Fallback comfort band for every tenant's degradation guard.
    pub comfort: ComfortRange,
    /// When set, each tenant records to its own hash-chained decision
    /// log at `<audit_dir>/<tenant>.jsonl`, sealed on graceful
    /// shutdown.
    pub audit_dir: Option<PathBuf>,
    /// Flush policy for the per-tenant chains.
    pub audit_flush: FlushPolicy,
    /// Flight recorder / windowed histogram / SLO tracker knobs
    /// (shared across tenants — the ops plane watches the process).
    pub ops: OpsOptions,
    /// HTTP worker-pool size (`None` = the server's CPU-derived
    /// default).
    pub workers: Option<usize>,
    /// Concurrent-connection admission cap (`None` = server default).
    pub max_inflight: Option<usize>,
    /// When set (and the fleet audits), a background thread persists
    /// every tenant's guard state to `<audit_dir>/<id>.state.json` at
    /// this cadence, and again on graceful drain. Restart rehydration
    /// reads these files, so the cadence bounds how stale a restarted
    /// guard's ladder state can be.
    pub snapshot_every: Option<Duration>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            comfort: ComfortRange::winter(),
            audit_dir: None,
            audit_flush: FlushPolicy::Always,
            ops: OpsOptions::default(),
            workers: None,
            max_inflight: None,
            snapshot_every: None,
        }
    }
}

/// One decision of a lockstep [`Fleet::tick`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickDecision {
    /// The tenant the decision belongs to.
    pub tenant: String,
    /// The chosen setpoint action.
    pub action: SetpointAction,
    /// Index of `action` in the canonical action space.
    pub action_index: usize,
    /// Guard rung the decision was taken on.
    pub state: GuardState,
}

/// One tenant a fleet manifest (re)load wants serving: the id, the
/// loaded policy, and the certificate id it is gated under (already
/// re-checked by the caller — [`Fleet::reload`] swaps state, it does
/// not re-run certificate verification).
#[derive(Debug)]
pub struct TenantSpec {
    /// Building id (validated against [`valid_tenant_id`]).
    pub id: String,
    /// The policy to serve.
    pub policy: DtPolicy,
    /// Certificate id the policy is served under, when certified.
    pub certificate_id: Option<String>,
}

/// What one [`Fleet::reload`] did, tenant by tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReloadReport {
    /// Tenants that did not exist before.
    pub added: Vec<String>,
    /// Tenants whose policy or certificate changed (fresh guard and
    /// chain; the old chain is sealed and archived).
    pub changed: Vec<String>,
    /// Tenants dropped from the manifest (chains sealed and archived).
    pub removed: Vec<String>,
    /// Tenants left untouched — same policy hash and certificate, so
    /// guard state, chain, and in-flight requests carry straight on.
    pub unchanged: Vec<String>,
}

impl ReloadReport {
    /// JSON body of a `POST /admin/reload` response.
    pub fn to_json_string(&self) -> String {
        let mut o = ObjectWriter::new();
        o.str_array_field("added", &self.added);
        o.str_array_field("changed", &self.changed);
        o.str_array_field("removed", &self.removed);
        o.u64_field("unchanged", self.unchanged.len() as u64);
        o.finish()
    }
}

/// `<audit_dir>/<id>.state.json` — the tenant's guard-state snapshot.
fn state_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.state.json"))
}

/// First free `<path>.archived-<n>` sibling.
fn archive_path(path: &Path) -> PathBuf {
    let mut n = 1u32;
    loop {
        let candidate = path.with_extension(format!("jsonl.archived-{n}"));
        if !candidate.exists() {
            return candidate;
        }
        n += 1;
    }
}

/// Atomically replaces `path` with `text` (scratch sibling + rename),
/// so a crash mid-write can never leave a half-written snapshot.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let scratch = path.with_extension(format!("tmp-{}", std::process::id()));
    {
        let mut out = std::fs::File::create(&scratch)?;
        out.write_all(text.as_bytes())?;
        out.sync_all()?;
    }
    std::fs::rename(&scratch, path)
}

/// The policy hash an existing chain's genesis record binds, when the
/// first line is a readable genesis. Used to decide whether an on-disk
/// chain belongs to the tenant's current policy (resume it) or to an
/// older one (archive it and start fresh).
fn chain_genesis_hash(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().next()?;
    let record =
        ChainRecord::from_json(&parse(hvac_audit::record::split_line(line).ok()?).ok()?).ok()?;
    match record.payload {
        Payload::Genesis { policy_hash, .. } => Some(policy_hash),
        _ => None,
    }
}

/// A fleet of tenants over a shared [`PolicyRegistry`].
///
/// Tenants live in a `BTreeMap` behind one `RwLock`: request paths
/// (decide, tick, roster) share read access, and only
/// [`Fleet::reload`] takes the write half — so a manifest swap can
/// never tear an in-flight lockstep batch. Within the map, every
/// multi-guard lock acquisition happens in tenant-id order, which
/// makes concurrent lockstep batches deadlock-free by construction.
#[derive(Debug)]
pub struct Fleet {
    registry: Mutex<PolicyRegistry>,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    /// Serializes whole reloads (diff + prepare + swap), so two
    /// concurrent `/admin/reload`s cannot interleave their phases.
    reload_lock: Mutex<()>,
    options: FleetOptions,
}

impl Fleet {
    /// An empty fleet with `options`.
    pub fn new(options: FleetOptions) -> Self {
        Self {
            registry: Mutex::new(PolicyRegistry::new()),
            tenants: RwLock::new(BTreeMap::new()),
            reload_lock: Mutex::new(()),
            options,
        }
    }

    fn chain_config(&self) -> ChainConfig {
        ChainConfig {
            flush: self.options.audit_flush,
            ..ChainConfig::default()
        }
    }

    /// Opens the audit chain for a (re)starting tenant: resumes an
    /// existing chain bound to the same policy via
    /// [`AuditChain::recover`] (crash-safe restart), archives a chain
    /// bound to a *different* policy and starts fresh, or creates the
    /// first chain. `recovered` reports whether a resume happened.
    fn open_tenant_chain(
        &self,
        dir: &Path,
        id: &str,
        registered: &RegisteredPolicy,
    ) -> Result<(AuditChain, bool), String> {
        let path = dir.join(format!("{id}.jsonl"));
        if path.exists() {
            if chain_genesis_hash(&path).as_deref() == Some(registered.hash()) {
                let (chain, report) =
                    AuditChain::recover(&path, self.chain_config()).map_err(|e| {
                        format!(
                            "cannot recover audit chain {}: {e} (move the file aside to \
                             start a fresh chain)",
                            path.display()
                        )
                    })?;
                hvac_telemetry::counter("fleet.recoveries").incr();
                warn!(
                    "tenant {id}: resumed audit chain after {} verified records \
                     ({} torn bytes truncated)",
                    report.prefix_records, report.truncated_bytes
                );
                return Ok((chain, true));
            }
            // The on-disk chain binds an older policy: it stays as
            // evidence under an archive name, and a fresh genesis
            // binds the new policy.
            let archived = archive_path(&path);
            std::fs::rename(&path, &archived).map_err(|e| {
                format!(
                    "cannot archive superseded audit chain {}: {e}",
                    path.display()
                )
            })?;
        }
        let chain = AuditChain::create(
            &path,
            registered.hash(),
            registered.certificate_id().unwrap_or(""),
            self.chain_config(),
        )
        .map_err(|e| format!("cannot create audit chain {}: {e}", path.display()))?;
        Ok((chain, false))
    }

    /// Adds a building: registers (or dedups) its policy, builds its
    /// guard with the serve-safe [`GuardConfig::new`] preset, and —
    /// when the fleet audits — opens its decision chain at
    /// `<audit_dir>/<id>.jsonl`. An existing chain bound to the same
    /// policy is *resumed* with [`AuditChain::recover`] (torn tail
    /// truncated, recovery record appended), and a guard-state
    /// snapshot left by a previous process is rehydrated — so a
    /// restarted fleet picks up exactly where the dead one stopped.
    ///
    /// # Errors
    ///
    /// Rejects invalid ids (see [`valid_tenant_id`]), duplicate ids,
    /// unrecoverable chains (interior corruption is refused, not
    /// papered over), and chain I/O failures.
    pub fn add_tenant(
        &self,
        id: &str,
        policy: DtPolicy,
        certificate_id: Option<String>,
    ) -> Result<(), String> {
        if !valid_tenant_id(id) {
            return Err(format!(
                "invalid tenant id {id:?}: want 1-{MAX_TENANT_ID_BYTES} bytes of [A-Za-z0-9_-]"
            ));
        }
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if tenants.contains_key(id) {
            return Err(format!("duplicate tenant id {id:?}"));
        }
        let registered = self
            .registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .register(policy, certificate_id);
        let mut guard = GuardedPolicy::new(
            registered.policy().clone(),
            GuardConfig::new(self.options.comfort),
        );
        let chain = match &self.options.audit_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create audit dir {}: {e}", dir.display()))?;
                let (chain, _recovered) = self.open_tenant_chain(dir, id, &registered)?;
                // Rehydrate guard state persisted by a previous
                // process (periodic snapshot or graceful drain). A
                // damaged snapshot is ignored, not fatal: the guard
                // restarts on the normal rung and the chain still
                // carries the durable evidence.
                let spath = state_path(dir, id);
                if let Ok(text) = std::fs::read_to_string(&spath) {
                    match GuardSnapshot::from_json_str(&text)
                        .and_then(|snapshot| guard.restore(&snapshot))
                    {
                        Ok(()) => {
                            hvac_telemetry::counter("fleet.rehydrated").incr();
                        }
                        Err(e) => warn!(
                            "tenant {id}: ignoring unusable guard snapshot {}: {e}",
                            spath.display()
                        ),
                    }
                }
                Some(hvac_audit::register_chain(Arc::new(chain)))
            }
            None => None,
        };
        tenants.insert(
            id.to_string(),
            Arc::new(Tenant {
                id: id.to_string(),
                policy: registered,
                guard: Mutex::new(guard),
                chain,
            }),
        );
        Ok(())
    }

    /// Looks up a tenant by id.
    pub fn tenant(&self, id: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .map(Arc::clone)
    }

    /// Tenant ids in sorted order.
    pub fn tenant_ids(&self) -> Vec<String> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the fleet has no tenants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct policies registered.
    pub fn policy_count(&self) -> usize {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Registered policy content hashes, in sorted order.
    pub fn policy_hashes(&self) -> Vec<String> {
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .hashes()
            .map(str::to_string)
            .collect()
    }

    /// Seals every tenant's audit chain (idempotent; failures are
    /// logged, not propagated — shutdown must not stall on audit I/O).
    pub fn seal_all(&self) {
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        for tenant in tenants.values() {
            if let Some(chain) = &tenant.chain {
                if let Err(e) = chain.seal() {
                    warn!("tenant {} audit chain seal failed: {e}", tenant.id);
                }
            }
        }
    }

    /// Persists every tenant's guard state to
    /// `<audit_dir>/<id>.state.json` with atomic writes (scratch +
    /// rename). Returns how many snapshots were written; failures are
    /// logged, not propagated. A no-op for a fleet without an audit
    /// dir.
    pub fn snapshot_all(&self) -> usize {
        let Some(dir) = self.options.audit_dir.clone() else {
            return 0;
        };
        let tenants: Vec<Arc<Tenant>> = {
            let map = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
            map.values().map(Arc::clone).collect()
        };
        let mut written = 0;
        for tenant in tenants {
            let snapshot = {
                let guard = tenant.guard.lock().unwrap_or_else(PoisonError::into_inner);
                guard.snapshot()
            };
            let path = state_path(&dir, &tenant.id);
            match write_atomic(&path, &snapshot.to_json_string()) {
                Ok(()) => written += 1,
                Err(e) => {
                    warn!("tenant {} guard snapshot failed: {e}", tenant.id);
                }
            }
        }
        hvac_telemetry::counter("fleet.snapshots").add(written as u64);
        written as usize
    }

    /// Re-points the fleet at a freshly loaded manifest: diffs `specs`
    /// against the serving tenants and atomically swaps the roster.
    ///
    /// * **unchanged** (same policy hash + certificate id): guard
    ///   state, chain, and decision counters carry straight on;
    /// * **added / changed**: a fresh guard and a fresh chain are
    ///   *prepared first* — any failure rolls the whole batch back
    ///   with the serving roster untouched;
    /// * **removed** (and the old chains of changed tenants): sealed
    ///   and archived to `<id>.jsonl.archived-<n>`, their snapshots
    ///   deleted.
    ///
    /// The swap itself happens under the tenants write lock, so no
    /// in-flight `/tick` lockstep batch or `/decide` is ever torn
    /// across old and new rosters. Certificate *verification* is the
    /// caller's job (the CLI re-gates before building `specs`);
    /// `reload` enforces only roster consistency.
    ///
    /// # Errors
    ///
    /// Invalid or duplicate ids, an empty manifest, or chain
    /// preparation I/O failures — in every case the serving roster is
    /// left exactly as it was.
    pub fn reload(&self, specs: Vec<TenantSpec>) -> Result<ReloadReport, String> {
        let _one_at_a_time = self
            .reload_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if specs.is_empty() {
            return Err("refusing to reload to an empty fleet".to_string());
        }
        let mut seen = BTreeSet::new();
        for spec in &specs {
            if !valid_tenant_id(&spec.id) {
                return Err(format!(
                    "invalid tenant id {:?}: want 1-{MAX_TENANT_ID_BYTES} bytes of [A-Za-z0-9_-]",
                    spec.id
                ));
            }
            if !seen.insert(spec.id.clone()) {
                return Err(format!("duplicate tenant id {:?} in manifest", spec.id));
            }
        }

        // Phase 1: diff against the serving roster (read lock only —
        // requests keep flowing). `reload_lock` guarantees the roster
        // cannot shift under us before the commit below.
        let current: BTreeMap<String, Arc<Tenant>> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        struct Prepared {
            id: String,
            registered: Arc<RegisteredPolicy>,
            chain: Option<Arc<AuditChain>>,
            tmp_path: Option<PathBuf>,
        }
        let mut report = ReloadReport::default();
        let mut prepared: Vec<Prepared> = Vec::new();

        // Phase 2: prepare every new tenant off to the side. New
        // chains are created at `<id>.jsonl.new`; nothing the serving
        // roster uses is touched, so any failure here is a clean
        // rollback (delete the scratch files, report the error).
        let outcome = (|| -> Result<(), String> {
            for spec in specs {
                let hash = hvac_audit::policy_hash(&spec.policy);
                if let Some(tenant) = current.get(&spec.id) {
                    if tenant.policy.hash() == hash
                        && tenant.policy.certificate_id() == spec.certificate_id.as_deref()
                    {
                        report.unchanged.push(spec.id);
                        continue;
                    }
                    report.changed.push(spec.id.clone());
                } else {
                    report.added.push(spec.id.clone());
                }
                let registered = self
                    .registry
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .register(spec.policy, spec.certificate_id);
                let (chain, tmp_path) = match &self.options.audit_dir {
                    Some(dir) => {
                        std::fs::create_dir_all(dir).map_err(|e| {
                            format!("cannot create audit dir {}: {e}", dir.display())
                        })?;
                        let tmp = dir.join(format!("{}.jsonl.new", spec.id));
                        let chain = AuditChain::create(
                            &tmp,
                            registered.hash(),
                            registered.certificate_id().unwrap_or(""),
                            self.chain_config(),
                        )
                        .map_err(|e| format!("cannot create audit chain {}: {e}", tmp.display()))?;
                        (Some(hvac_audit::register_chain(Arc::new(chain))), Some(tmp))
                    }
                    None => (None, None),
                };
                prepared.push(Prepared {
                    id: spec.id,
                    registered,
                    chain,
                    tmp_path,
                });
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            for p in &prepared {
                if let Some(tmp) = &p.tmp_path {
                    let _ = std::fs::remove_file(tmp);
                }
            }
            hvac_telemetry::counter("fleet.reload.errors").incr();
            return Err(e);
        }

        // Phase 3: commit under the write lock. Everything here is a
        // rename or an in-memory swap — no fallible preparation left —
        // so in-flight batches see the old roster or the new one,
        // never a mix. Rename failures are logged, not propagated:
        // the swap itself must not half-apply.
        let keep: BTreeSet<String> = report
            .unchanged
            .iter()
            .map(|id| current[id].policy.hash().to_string())
            .chain(prepared.iter().map(|p| p.registered.hash().to_string()))
            .collect();
        {
            let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
            let mut next: BTreeMap<String, Arc<Tenant>> = BTreeMap::new();
            for id in &report.unchanged {
                next.insert(id.clone(), Arc::clone(&current[id]));
            }
            for p in prepared {
                if let Some(dir) = &self.options.audit_dir {
                    let live = dir.join(format!("{}.jsonl", p.id));
                    // A changed tenant's (or stale) old chain: seal it
                    // and move it aside as evidence.
                    if let Some(old) = current.get(&p.id) {
                        if let Some(old_chain) = &old.chain {
                            if let Err(e) = old_chain.seal() {
                                warn!("tenant {} superseded chain seal failed: {e}", p.id);
                            }
                        }
                    }
                    if live.exists() {
                        if let Err(e) = std::fs::rename(&live, archive_path(&live)) {
                            warn!("tenant {} chain archive failed: {e}", p.id);
                        }
                    }
                    if let Some(tmp) = &p.tmp_path {
                        if let Err(e) = std::fs::rename(tmp, &live) {
                            warn!("tenant {} chain install failed: {e}", p.id);
                        }
                    }
                    // A fresh guard starts from clean state: a stale
                    // snapshot must not rehydrate into it on the next
                    // restart.
                    let _ = std::fs::remove_file(state_path(dir, &p.id));
                }
                let guard = GuardedPolicy::new(
                    p.registered.policy().clone(),
                    GuardConfig::new(self.options.comfort),
                );
                next.insert(
                    p.id.clone(),
                    Arc::new(Tenant {
                        id: p.id,
                        policy: p.registered,
                        guard: Mutex::new(guard),
                        chain: p.chain,
                    }),
                );
            }
            for (id, old) in &current {
                if next.contains_key(id) {
                    continue;
                }
                report.removed.push(id.clone());
                if let Some(chain) = &old.chain {
                    if let Err(e) = chain.seal() {
                        warn!("tenant {id} removed chain seal failed: {e}");
                    }
                }
                if let Some(dir) = &self.options.audit_dir {
                    let live = dir.join(format!("{id}.jsonl"));
                    if live.exists() {
                        if let Err(e) = std::fs::rename(&live, archive_path(&live)) {
                            warn!("tenant {id} removed chain archive failed: {e}");
                        }
                    }
                    let _ = std::fs::remove_file(state_path(dir, id));
                }
            }
            *tenants = next;
        }
        self.registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain_hashes(&keep);
        hvac_telemetry::counter("fleet.reloads").incr();
        Ok(report)
    }

    /// One lockstep tick: decides for every `(tenant, observation)`
    /// pair in `requests` as a single synchronized batch.
    ///
    /// The two-phase guard API makes the coalescing safe: each guard
    /// first **routes** its observation (validation + rung choice),
    /// then all routes that reached the `Policy` arm are evaluated in
    /// grouped [`DtPolicy::decide_batch_into`] calls — one per
    /// distinct registry entry — and finally each guard **commits**
    /// its action. The result is bit-identical to calling
    /// [`GuardedPolicy::decide`] per tenant, but a thousand tenants on
    /// one tree cost one batched pass instead of a thousand
    /// interleaved descents.
    ///
    /// Guards are locked in tenant-id order (and all released before
    /// any audit append), so concurrent ticks and per-tenant decides
    /// cannot deadlock.
    ///
    /// # Errors
    ///
    /// Rejects unknown tenants and duplicate tenants (lockstep means
    /// one observation per tenant per tick). Nothing is decided on
    /// error — validation happens before any lock is taken.
    pub fn tick(&self, requests: &[(String, Observation)]) -> Result<Vec<TickDecision>, String> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // The roster read lock is held until every decision is
        // committed *and appended*: a concurrent reload (the only
        // writer) can swap the roster between batches, never inside
        // one — no torn batches, no appends racing a reload's seal.
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        let mut seen = BTreeSet::new();
        let mut resolved: Vec<(usize, Arc<Tenant>, Observation)> =
            Vec::with_capacity(requests.len());
        for (i, (id, obs)) in requests.iter().enumerate() {
            let tenant = tenants
                .get(id)
                .ok_or_else(|| format!("unknown tenant {id:?}"))?;
            if !seen.insert(id.as_str()) {
                return Err(format!(
                    "duplicate tenant {id:?} in one tick — lockstep is one observation \
                     per tenant"
                ));
            }
            resolved.push((i, Arc::clone(tenant), *obs));
        }
        resolved.sort_by(|a, b| a.1.id.cmp(&b.1.id));
        let mut locked: Vec<MutexGuard<'_, GuardedPolicy<DtPolicy>>> = resolved
            .iter()
            .map(|(_, t, _)| t.guard.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();

        // Phase 1: route every observation through its tenant's guard.
        let routes: Vec<GuardRoute> = locked
            .iter_mut()
            .zip(&resolved)
            .map(|(guard, (_, _, obs))| guard.route(obs))
            .collect();

        // Coalesce the Policy-arm evaluations by registry entry.
        let mut groups: BTreeMap<&str, (Vec<usize>, Vec<Observation>)> = BTreeMap::new();
        for (slot, route) in routes.iter().enumerate() {
            if let GuardRoute::Policy { observation, .. } = route {
                let (slots, observations) =
                    groups.entry(resolved[slot].1.policy.hash()).or_default();
                slots.push(slot);
                observations.push(*observation);
            }
        }
        let mut actions: Vec<Option<SetpointAction>> = vec![None; routes.len()];
        let mut batch = Vec::new();
        for (hash, (slots, observations)) in &groups {
            let entry = self
                .registry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(hash)
                .expect("every tenant's policy is registered");
            batch.clear();
            entry.policy().decide_batch_into(observations, &mut batch);
            for (slot, action) in slots.iter().zip(&batch) {
                actions[*slot] = Some(*action);
            }
        }

        // Phase 2: commit per tenant, draining ladder transitions for
        // the audit chains.
        let mut out: Vec<Option<TickDecision>> = vec![None; requests.len()];
        let mut appends: Vec<(Arc<Tenant>, Observation, TickDecision, Vec<GuardTransition>)> =
            Vec::new();
        for (slot, guard) in locked.iter_mut().enumerate() {
            let (original, tenant, obs) = &resolved[slot];
            let (state, action) = match routes[slot] {
                GuardRoute::Policy { state, .. } => (
                    state,
                    actions[slot].expect("policy-routed slots were batched"),
                ),
                GuardRoute::Resolved { state, action } => (state, action),
            };
            let action = guard.commit(state, action);
            let index = guard.inner().action_space().index_of(action);
            let transitions = if tenant.chain.is_some() {
                guard.take_transitions()
            } else {
                Vec::new()
            };
            let decision = TickDecision {
                tenant: tenant.id.clone(),
                action,
                action_index: index,
                state,
            };
            if tenant.chain.is_some() {
                appends.push((Arc::clone(tenant), *obs, decision.clone(), transitions));
            }
            out[*original] = Some(decision);
        }
        drop(locked);

        // Audit I/O runs off the guard locks: a slow disk must not
        // extend the lockstep critical section.
        for (tenant, obs, decision, transitions) in appends {
            let chain = tenant.chain.as_ref().expect("filtered on chain presence");
            let mut result = Ok(());
            for t in &transitions {
                result = result.and(chain.append_transition(t.from.name(), t.to.name()));
            }
            result = result.and(chain.append_decision(
                obs.to_vector(),
                decision.action.heating() as u64,
                decision.action.cooling() as u64,
                decision.action_index as u64,
                decision.state.name(),
                None,
            ));
            if let Err(e) = result {
                hvac_telemetry::counter("serve.audit.errors").incr();
                warn!("tenant {} audit chain append failed: {e}", tenant.id);
            }
        }
        hvac_telemetry::counter("fleet.tick.decisions").add(requests.len() as u64);
        Ok(out
            .into_iter()
            .map(|d| d.expect("every request was decided"))
            .collect())
    }
}

/// Shared ops-plane state for the fleet's HTTP handlers.
struct OpsCtx {
    flight: Option<Arc<FlightRecorder>>,
    window: Option<&'static hvac_telemetry::WindowedHistogram>,
    slo: Arc<SloTracker>,
    mint_seed: String,
    mint_sequence: AtomicU64,
}

impl OpsCtx {
    fn trace_id(&self, request: &Request) -> String {
        match request.request_id() {
            Some(id) => id.to_string(),
            None => mint_trace_id(
                &self.mint_seed,
                self.mint_sequence.fetch_add(1, Ordering::Relaxed),
            ),
        }
    }
}

/// Prefixes a rendered decide body with the tenant it belongs to.
/// Tenant ids carry no JSON metacharacters (see [`valid_tenant_id`]),
/// so the splice is safe.
fn tag_tenant(body: &str, tenant: &str) -> String {
    debug_assert!(body.starts_with('{') && valid_tenant_id(tenant));
    format!("{{\"tenant\":\"{tenant}\",{}", &body[1..])
}

/// One `/decide` or `/decide/{tenant}` request against the fleet.
/// `body` is the request body as the route parsed it, once; `started`
/// is when that parse began, so the reported latency still covers it.
fn handle_decide(
    fleet: &Fleet,
    tenant_id: &str,
    request: &Request,
    body: Result<JsonValue, String>,
    started: Instant,
    ctx: &OpsCtx,
) -> Response {
    let trace_id = ctx.trace_id(request);
    let now_ns = process_elapsed_ns();
    let mut record = FlightRecord {
        trace_id: trace_id.clone(),
        t_ns: now_ns,
        parse_ns: 0,
        decide_ns: 0,
        audit_ns: 0,
        guard_state: 0,
        heating_centi: 0,
        cooling_centi: 0,
        http_status: 422,
    };
    let response = if !valid_tenant_id(tenant_id) {
        Response::error(
            422,
            &format!("invalid tenant id {tenant_id:?}: want 1-{MAX_TENANT_ID_BYTES} bytes of [A-Za-z0-9_-]"),
        )
    } else {
        // Roster read lock held across the decide: a reload can swap
        // the roster before or after this decision, never mid-flight.
        let tenants = fleet.tenants.read().unwrap_or_else(PoisonError::into_inner);
        match tenants.get(tenant_id) {
            None => {
                record.http_status = 404;
                Response::error(404, &format!("unknown tenant {tenant_id:?}"))
            }
            Some(tenant) => match body.and_then(|body| {
                decide_value_traced(
                    &tenant.guard,
                    tenant.chain.as_deref(),
                    &body,
                    Some(&trace_id),
                    started,
                )
            }) {
                Ok(outcome) => {
                    if let Some(w) = ctx.window {
                        w.record_at(now_ns, outcome.total_ns);
                    }
                    ctx.slo.record_decide_at(now_ns, outcome.total_ns);
                    ctx.slo.record_guard_at(now_ns, outcome.guard_gauge);
                    record.parse_ns = outcome.parse_ns;
                    record.decide_ns = outcome.decide_ns;
                    record.audit_ns = outcome.audit_ns;
                    record.guard_state = outcome.guard_gauge;
                    record.heating_centi = outcome.heating * 100;
                    record.cooling_centi = outcome.cooling * 100;
                    record.http_status = 200;
                    Response::json(200, tag_tenant(&outcome.body, tenant_id))
                }
                Err(message) => Response::error(422, &message),
            },
        }
    };
    ctx.slo.record_response_at(now_ns, response.status);
    if let Some(ring) = &ctx.flight {
        ring.push(&record);
    }
    response.with_header(REQUEST_ID_HEADER, trace_id)
}

/// Parses a `POST /tick` body into `(tenant, observation)` pairs.
fn tick_requests_from_json(body: &str) -> Result<Vec<(String, Observation)>, String> {
    let value = parse_body(body)?;
    let requests = value
        .get("requests")
        .and_then(JsonValue::as_array)
        .ok_or("body must be {\"requests\":[{\"tenant\":…,\"observation\":{…}},…]}")?;
    if requests.len() > MAX_TICK_REQUESTS {
        return Err(format!(
            "tick carries {} requests; the cap is {MAX_TICK_REQUESTS}",
            requests.len()
        ));
    }
    let mut out = Vec::with_capacity(requests.len());
    let mut problems: Vec<String> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        match (
            r.get("tenant").and_then(JsonValue::as_str),
            r.get("observation"),
        ) {
            (Some(tenant), Some(observation)) => match observation_from_value(observation) {
                Ok(obs) => out.push((tenant.to_string(), obs)),
                Err(e) => problems.push(format!("request {i}: {e}")),
            },
            (None, _) => problems.push(format!("request {i}: missing string field \"tenant\"")),
            (_, None) => {
                problems.push(format!("request {i}: missing object field \"observation\""));
            }
        }
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems.join("; "))
    }
}

/// Renders a `POST /tick` response body.
fn tick_json(decisions: &[TickDecision], latency_ns: u64) -> String {
    let mut out = String::with_capacity(64 + decisions.len() * 160);
    out.push_str(&format!(
        "{{\"count\":{},\"latency_ns\":{latency_ns},\"decisions\":[",
        decisions.len()
    ));
    for (i, d) in decisions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = ObjectWriter::new();
        o.str_field("tenant", &d.tenant);
        o.u64_field("heating_setpoint", d.action.heating() as u64);
        o.u64_field("cooling_setpoint", d.action.cooling() as u64);
        o.u64_field("action_index", d.action_index as u64);
        o.str_field("action", &d.action.to_string());
        o.str_field("guard_state", d.state.name());
        out.push_str(&o.finish());
    }
    out.push_str("]}");
    out
}

/// Renders the fleet's `GET /tenants` roster.
fn tenants_json(fleet: &Fleet) -> String {
    let tenants = fleet.tenants.read().unwrap_or_else(PoisonError::into_inner);
    let mut out = String::with_capacity(64 + tenants.len() * 220);
    out.push_str(&format!(
        "{{\"count\":{},\"policies\":{},\"tenants\":[",
        tenants.len(),
        fleet.policy_count()
    ));
    for (i, tenant) in tenants.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (state, decisions) = {
            let guard = tenant.guard.lock().unwrap_or_else(PoisonError::into_inner);
            (guard.state(), guard.decisions())
        };
        let mut o = ObjectWriter::new();
        o.str_field("id", &tenant.id);
        o.str_field("policy_hash", tenant.policy.hash());
        o.bool_field("certified", tenant.policy.certificate_id().is_some());
        if let Some(id) = tenant.policy.certificate_id() {
            o.str_field("certificate_id", id);
        }
        o.bool_field("audited", tenant.chain.is_some());
        o.str_field("guard_state", state.name());
        o.u64_field("decisions", decisions);
        out.push_str(&o.finish());
    }
    out.push_str("]}");
    out
}

/// Renders the fleet's `GET /version` body.
fn fleet_version_json(fleet: &Fleet) -> String {
    let mut o = ObjectWriter::new();
    o.str_field("crate_version", env!("CARGO_PKG_VERSION"));
    o.str_field(
        "build",
        option_env!("VERI_HVAC_BUILD_INFO").unwrap_or(concat!(
            "v",
            env!("CARGO_PKG_VERSION"),
            "-src"
        )),
    );
    o.bool_field("fleet", true);
    o.u64_field("tenants", fleet.len() as u64);
    let registry = fleet
        .registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    o.u64_field("policies", registry.len() as u64);
    // A fleet serving one tree (always so for `serve --policy`) also
    // names it and the certificate it serves under.
    if let (1, Some(only)) = (registry.len(), registry.entries.values().next()) {
        o.str_field("policy_hash", only.hash());
        o.bool_field("certified", only.certificate_id().is_some());
        if let Some(id) = only.certificate_id() {
            o.str_field("certificate_id", id);
        }
    }
    o.finish()
}

/// How a running fleet re-reads its manifest on `POST /admin/reload`:
/// returns the tenants that should now be serving (certificates
/// already re-gated), or a message explaining why the manifest is
/// unusable. Lives in the CLI layer, where the manifest path and the
/// `--require-certificate` policy are known.
pub type ReloadSource = dyn Fn() -> Result<Vec<TenantSpec>, String> + Send + Sync;

/// [`serve_fleet_with_reload`] without a reload source: the manifest
/// the process started with is the manifest it serves.
///
/// # Errors
///
/// Rejects an empty fleet ([`std::io::ErrorKind::InvalidInput`]) and
/// propagates socket binding errors.
pub fn serve_fleet(fleet: Fleet, addr: impl ToSocketAddrs) -> std::io::Result<HttpServer> {
    serve_fleet_with_reload(fleet, addr, None)
}

/// Binds the fleet serving endpoint (see the module docs for the
/// routes). Graceful shutdown drains the worker pool first, then
/// snapshots every guard and seals every tenant's audit chain, so no
/// in-flight decision can land after its chain's seal record. When
/// `reload` is supplied, `POST /admin/reload` re-reads the manifest
/// through it and atomically swaps the roster ([`Fleet::reload`]).
///
/// Request bodies are capped at [`MAX_FLEET_BODY_BYTES`] when the
/// roster can reload, and otherwise at one [`MAX_DECIDE_BODY_BYTES`]
/// per tenant up to that cap — so a one-tenant fleet answers an
/// oversized `/decide` with 413 from its headers alone.
///
/// # Errors
///
/// Rejects an empty fleet ([`std::io::ErrorKind::InvalidInput`]) and
/// propagates socket binding errors.
pub fn serve_fleet_with_reload(
    fleet: Fleet,
    addr: impl ToSocketAddrs,
    reload: Option<Arc<ReloadSource>>,
) -> std::io::Result<HttpServer> {
    if fleet.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a fleet needs at least one tenant",
        ));
    }
    let ops = fleet.options.ops;
    let workers = fleet.options.workers;
    let max_inflight = fleet.options.max_inflight;
    let fleet = Arc::new(fleet);

    let flight =
        (ops.flight_capacity > 0).then(|| Arc::new(FlightRecorder::new(ops.flight_capacity)));
    let window = ops.windowed.then(|| {
        windowed_histogram(
            "serve.decide.ns",
            LATENCY_BOUNDS_NS,
            SERVE_WINDOW_NS,
            SERVE_WINDOW_EPOCHS,
        )
    });
    let slo = Arc::new(SloTracker::new(ops.slo));
    let ctx = Arc::new(OpsCtx {
        flight: flight.clone(),
        window,
        slo: Arc::clone(&slo),
        // Fold every registered hash into the mint seed, so identical
        // fleet replays mint identical trace ids.
        mint_seed: fleet.policy_hashes().join(","),
        mint_sequence: AtomicU64::new(0),
    });

    // Periodic guard-state snapshots: the thread holds only a weak
    // handle, so it dies with the fleet instead of pinning it.
    if let Some(every) = fleet.options.snapshot_every {
        let weak = Arc::downgrade(&fleet);
        let spawned = std::thread::Builder::new()
            .name("fleet-snapshot".to_string())
            .spawn(move || loop {
                std::thread::sleep(every);
                match weak.upgrade() {
                    Some(fleet) => {
                        fleet.snapshot_all();
                    }
                    None => break,
                }
            });
        if let Err(e) = spawned {
            warn!("fleet snapshot thread failed to start: {e}");
        }
    }

    let max_body_bytes = if reload.is_some() {
        MAX_FLEET_BODY_BYTES
    } else {
        fleet
            .len()
            .saturating_mul(MAX_DECIDE_BODY_BYTES)
            .min(MAX_FLEET_BODY_BYTES)
    };
    let mut builder = HttpServer::builder()
        .max_body_bytes(max_body_bytes)
        .request_timeout(DECIDE_TIMEOUT);
    // Unless overridden, scale the pool so every tenant's keep-alive
    // connection can hold a parked worker (plus slack for ops
    // queries, capped): a pool smaller than the steady connection
    // count forces turn rotation, which trades idle-connection
    // latency for fairness.
    let workers = workers.unwrap_or_else(|| (fleet.len() + 2).clamp(4, 32));
    builder = builder.workers(workers);
    if let Some(n) = max_inflight {
        builder = builder.max_inflight(n);
    }

    let decide_fleet = Arc::clone(&fleet);
    let decide_ctx = Arc::clone(&ctx);
    let path_fleet = Arc::clone(&fleet);
    let path_ctx = Arc::clone(&ctx);
    let tick_fleet = Arc::clone(&fleet);
    let tick_slo = Arc::clone(&slo);
    let roster_fleet = Arc::clone(&fleet);
    let version_fleet = Arc::clone(&fleet);
    let seal_fleet = Arc::clone(&fleet);

    builder = builder
        // Tenant named in the body; a single-tenant fleet may omit it.
        // The body is parsed once, here, and handed down.
        .route("POST", "/decide", move |req| {
            let started = Instant::now();
            let body = parse_body(&req.body);
            let named = body
                .as_ref()
                .ok()
                .and_then(|v| v.get("tenant").map(|t| t.as_str().map(str::to_string)));
            let tenant_id = match named {
                Some(Some(id)) => id,
                // "tenant" present but not a string.
                Some(None) => {
                    return Response::error(422, "field \"tenant\" must be a string");
                }
                None if decide_fleet.len() == 1 => decide_fleet.tenant_ids().remove(0),
                None => {
                    return Response::error(
                        422,
                        "multi-tenant fleet: name the building (body field \"tenant\" \
                         or POST /decide/{tenant})",
                    );
                }
            };
            handle_decide(&decide_fleet, &tenant_id, req, body, started, &decide_ctx)
        })
        // Tenant named in the path.
        .route_prefix("POST", "/decide/", move |req| {
            let started = Instant::now();
            let tenant_id = req.path.strip_prefix("/decide/").unwrap_or("");
            let body = parse_body(&req.body);
            handle_decide(&path_fleet, tenant_id, req, body, started, &path_ctx)
        })
        .route("POST", "/tick", move |req| {
            let started = Instant::now();
            let now_ns = process_elapsed_ns();
            let response = match tick_requests_from_json(&req.body)
                .and_then(|requests| tick_fleet.tick(&requests))
            {
                Ok(decisions) => {
                    let latency_ns =
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    hvac_telemetry::histogram("fleet.tick.ns", LATENCY_BOUNDS_NS)
                        .record(latency_ns);
                    Response::json(200, tick_json(&decisions, latency_ns))
                }
                Err(message) => Response::error(422, &message),
            };
            tick_slo.record_response_at(now_ns, response.status);
            response
        })
        .route("GET", "/tenants", move |_req| {
            Response::json(200, tenants_json(&roster_fleet))
        })
        .route("GET", "/version", move |_req| {
            Response::json(200, fleet_version_json(&version_fleet))
        })
        .route("GET", "/debug/slo", move |_req| {
            Response::json(200, slo.render_json_at(process_elapsed_ns()))
        });
    if let Some(ring) = flight {
        builder = builder.route("GET", "/debug/flight", move |_req| {
            Response::json(200, flight_json(&ring))
        });
    }
    if let Some(source) = reload {
        let reload_fleet = Arc::clone(&fleet);
        builder = builder.route("POST", "/admin/reload", move |_req| {
            let started = Instant::now();
            match source().and_then(|specs| reload_fleet.reload(specs)) {
                Ok(report) => {
                    let latency_ns =
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    hvac_telemetry::histogram("fleet.reload.ns", LATENCY_BOUNDS_NS)
                        .record(latency_ns);
                    Response::json(200, report.to_json_string())
                }
                // 409: the serving roster is intact; the *requested*
                // state conflicts with what can be applied.
                Err(message) => Response::error(409, &message),
            }
        });
    }
    // The server joins its worker pool before running hooks, so every
    // admitted decision has been appended before any guard snapshot
    // or chain seal.
    builder = builder.on_shutdown(move || {
        seal_fleet.snapshot_all();
        seal_fleet.seal_all();
    });
    builder.bind(addr)
}
