//! `veri-hvac` — command-line front end for the extraction/verification
//! pipeline.
//!
//! ```text
//! veri-hvac extract  --city pittsburgh --out-dir artifacts [--paper] [--noise 0.05] [--cache-dir cache]
//! veri-hvac verify   --artifacts artifacts [--samples N] [--conservative]
//! veri-hvac sweep    --cities pittsburgh,tucson --seeds 0..8 --threads 4 --cache-dir cache --out sweep
//! veri-hvac inspect  --policy artifacts/policy.dtree [--dot]
//! veri-hvac simulate --policy artifacts/policy.dtree --city pittsburgh --days 7
//! veri-hvac serve    --policy artifacts/policy.dtree --addr 127.0.0.1:9464
//!                    [--audit-log chains/chain.jsonl] [--require-certificate]
//! veri-hvac serve    --fleet fleet.json [--audit-dir chains] [--workers 8]
//! veri-hvac audit    --chain chain.jsonl --policy artifacts/policy.dtree
//! ```
//!
//! `extract` runs the paper's full procedure (Fig. 2) and writes the
//! verified decision-tree policy, the trained dynamics model, the Eq. 5
//! noise augmenter, and a provenance manifest as human-auditable text
//! artifacts. `verify` re-runs offline verification on saved artifacts
//! using the *persisted* augmenter — the exact input distribution the
//! policy was extracted against, not a refit at some other noise level.
//! `sweep` fans (city × seed) pipeline runs across a bounded worker
//! pool, sharing one content-addressed artifact cache, and writes
//! per-run JSON reports plus an aggregate Table-2-style summary.
//! `inspect` prints the policy's rules (or Graphviz DOT). `simulate`
//! deploys a saved policy in the simulated building and reports
//! energy/comfort metrics. `serve` loads one policy (as a one-tenant
//! fleet) or a fleet manifest and answers `POST /decide` (plus
//! `/metrics`, `/healthz`, `/summary.json`) until interrupted. Any
//! long-running subcommand additionally exposes the observability
//! routes when `--metrics-addr ADDR` is given.

use hvac_telemetry::json::{self, JsonValue, ObjectWriter};
use hvac_telemetry::{error, info, JsonlSink, Level, StderrSink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use veri_hvac::audit as hvac_audit;
use veri_hvac::control::DtPolicy;
use veri_hvac::dynamics::DynamicsModel;
use veri_hvac::env::space::feature;
use veri_hvac::env::{run_episode, EnvConfig, HvacEnv};
use veri_hvac::extract::NoiseAugmenter;
use veri_hvac::pipeline::{run_pipeline, run_pipeline_cached, PipelineArtifacts, PipelineConfig};
use veri_hvac::verify::{verify_and_correct, Certificate, VerificationConfig, VerificationReport};
use veri_hvac::{ArtifactStore, TenantSpec};

const USAGE: &str = "\
veri-hvac — interpretable & verifiable decision-tree HVAC control

USAGE:
  veri-hvac extract  --city <pittsburgh|tucson|new-york> [--out-dir DIR]
                     [--paper] [--noise LEVEL] [--cache-dir DIR]
  veri-hvac verify   --artifacts DIR [--samples N] [--conservative]
                     (or --policy FILE --model FILE; the augmenter is
                     loaded from the manifest next to the policy)
  veri-hvac sweep    [--cities A,B,...] [--seeds N..M | N,M,...]
                     [--threads N] [--cache-dir DIR] [--out DIR]
                     [--paper] [--noise LEVEL] [--conservative]
  veri-hvac inspect  --policy FILE [--dot]
  veri-hvac simulate --policy FILE --city <city> [--days N]
  veri-hvac serve    --policy FILE | --fleet MANIFEST [--addr HOST:PORT]
                     [--audit-log DIR/NAME.jsonl]   (--policy)
                     [--certificate FILE] [--cache-dir DIR]   (--policy)
                     [--audit-dir DIR]   (--fleet)
                     [--audit-flush always|every-n=K|interval-ms=T]
                     [--workers N] [--max-inflight N] [--flight-capacity N]
                     [--require-certificate] [--snapshot-every SECS]
                     [--duration SECS]
  veri-hvac audit    --chain FILE [--policy FILE] [--certificate FILE]
                     [--compiled FILE] [--cache-dir DIR] [--replay N]
                     [--allow-unsealed] [--json] [--recover]

GLOBAL FLAGS:
  --verbose          stderr progress at debug level (span timings included)
  --quiet            suppress stderr progress (warnings and errors only)
  --telemetry FILE   append machine-readable JSONL telemetry events to FILE
                     (equivalent to HVAC_TELEMETRY=FILE)
  --metrics-addr A   expose GET /metrics, /healthz, /summary.json at A
                     (e.g. 127.0.0.1:9464) for the duration of the run

`extract --cache-dir DIR` keeps a content-addressed store of every
pipeline stage; re-runs with the same config skip straight to the
cached artifacts. `verify --conservative` gates the verdict on the
Wilson 95% lower bound of criterion #1 instead of the point estimate.
`sweep` defaults to --cities pittsburgh,tucson --seeds 0..4
--threads 4 --out sweep; its per-run and aggregate JSON reports omit
wall-clock times, so output is byte-identical for any --threads value.

`serve` answers POST /decide with the policy's setpoint decision for a
JSON observation body and always exposes the observability routes on
its own --addr (default 127.0.0.1:9464; port 0 picks one). Decisions
pass through a degradation guard: invalid readings are held or routed
to a rule-based fallback (the response's guard_state field names the
rung), oversized bodies get 413, stalled requests 408, and parse
failures a structured 422 JSON error.

Every serve is a fleet controller. `--policy FILE` serves one building
as a one-tenant fleet (tenant id `default`) and caps request bodies at
16 KiB. `--fleet MANIFEST` serves many: the manifest is
{\"tenants\":[{\"id\":…,\"policy\":PATH,\"certificate\":PATH?},…]}
(relative paths resolve against the manifest's directory). Tenants
sharing a tree share one registry entry; each building gets its own
degradation guard behind its own lock, so one tenant's faulted sensors
never degrade another. Routes are POST /decide/{tenant} (or a
\"tenant\" body field, optional with one tenant), the lockstep batch
POST /tick ({\"requests\":[{\"tenant\":…,\"observation\":{…}},…]}), and
GET /tenants. `--audit-dir DIR` records every tenant to its own
hash-chained DIR/<tenant>.jsonl; `--audit-log DIR/NAME.jsonl` does the
same for --policy, with NAME as the tenant id (the path must end in
.jsonl and NAME must be 1-64 bytes of [A-Za-z0-9_-]). All chains are
sealed after the worker pool drains on graceful shutdown; audit each
with `veri-hvac audit`. `--workers N` sizes the HTTP worker pool,
`--max-inflight N` caps concurrent connections (beyond it, new
connections are shed with a 503 carrying `Retry-After: 1`); both apply
to --policy too. A restart over the same audit dir or --audit-log
resumes each chain (torn tails truncated, a hash-covered recovery
record appended, never truncated away) and rehydrates guard state from
the DIR/<tenant>.state.json snapshots written every
`--snapshot-every SECS` (default 30, 0 disables the periodic writer;
graceful drain always snapshots). POST /admin/reload (--fleet only)
re-reads the manifest and atomically swaps added/changed/removed
tenants without dropping in-flight batches; replaced tenants' chains
are sealed and archived.

`verify` writes certificate.json beside the policy: the verification
verdict bound (SHA-256) to the exact policy bytes, inputs, and artifact
hashes. It also compiles the verified tree into a flat serving kernel,
proves the kernel node for node equal to the tree, writes it
as policy.ctree, and commits its hash into the certificate
(compiled_hash). `serve` picks the certificate up automatically (or via
--certificate FILE / the --cache-dir store), reports it on
GET /version, warns when serving uncertified, and refuses with
--require-certificate. A wrong or edited certificate is always refused.
Audit chains record every decision and guard transition in a
tamper-evident hash chain. `--audit-flush` trades append latency for
durability: `always` (default) fsync-buffers every record, `every-n=K`
flushes every K appends, `interval-ms=T` flushes once T ms have
passed; the seal always flushes regardless. Serve also runs a live ops plane: every request
carries a trace id (client `X-Request-Id` or a minted `srv-…` id)
echoed on the response, stamped into the audit chain, and captured in a
lock-free flight recorder (`GET /debug/flight`, last N decisions,
`--flight-capacity N`, default 256, 0 disables). Windowed (60 s)
latency quantiles ride along in /metrics and /summary.json, and
`GET /debug/slo` reports fast/slow burn rates for the latency,
availability, and guard-integrity objectives. `audit`
re-verifies such a chain offline: every hash, link, and checkpoint
digest is recomputed, the certificate binding is checked, and sampled
decisions are re-executed through the policy (--replay N, default 64)
for bit-identical actions. `--compiled FILE` additionally checks the
flat serving kernel: the artifact must hash to the certificate's
compiled_hash and (with --policy) re-prove equivalent to the verified
tree node for node, so a swapped or tampered policy.ctree fails loudly. `--allow-unsealed` tolerates chains from
signal-killed serves; `--json` prints the machine-readable report
(its failure_class field separates a crash's torn_tail from a
tampered bad_hash). A torn-tail failure names the exact byte offset —
`audit --chain FILE --recover` truncates exactly those bytes, appends
a hash-covered recovery record, seals, and re-audits; interior
corruption is refused, never repaired. Exit is nonzero if any audit
check fails.

Machine-readable results go to stdout; progress and diagnostics to stderr.
Artifacts are plain text (see hvac_dtree::serialize / hvac_dynamics::serialize).
";

/// Format tag of the manifest `extract` writes beside its artifacts.
const EXTRACT_MANIFEST_FORMAT: &str = "extract_manifest v1";

/// z-score for the 95% Wilson interval used by `--conservative`.
const WILSON_Z: f64 = 1.96;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = if iter.peek().is_some_and(|v| !v.starts_with("--")) {
                    iter.next()
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(arg);
            }
        }
        Self { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

/// Installs the stderr sink (level from `--verbose`/`--quiet`) and, when
/// `--telemetry FILE` is given, tees events into a JSONL file. The
/// stderr sink goes in first so failures opening the JSONL file are
/// still reported.
fn init_telemetry(args: &Args) -> Result<(), String> {
    let level = if args.has("verbose") {
        Level::Debug
    } else if args.has("quiet") {
        Level::Warn
    } else {
        Level::Info
    };
    let stderr: Arc<dyn hvac_telemetry::Sink> = Arc::new(StderrSink::new(level));
    hvac_telemetry::set_sink(Arc::clone(&stderr));
    if let Some(path) = args.flag("telemetry") {
        let jsonl = JsonlSink::create(path)
            .map_err(|e| format!("cannot open telemetry file {path}: {e}"))?;
        hvac_telemetry::set_sink(Arc::new(hvac_telemetry::MultiSink::new(vec![
            stderr,
            Arc::new(jsonl),
        ])));
    }
    // HVAC_TELEMETRY=<path> still works; it tees into whatever is set.
    hvac_telemetry::init_from_env();
    // A buffered JSONL sink must survive panics with its tail intact.
    hvac_telemetry::install_panic_flush_hook();
    Ok(())
}

/// Starts the opt-in observability server when `--metrics-addr` is
/// given; the returned guard keeps it alive for the whole run.
fn init_metrics_server(args: &Args) -> Result<Option<hvac_telemetry::http::HttpServer>, String> {
    let Some(addr) = args.flag("metrics-addr") else {
        return Ok(None);
    };
    let server = hvac_telemetry::http::HttpServer::bind(addr)
        .map_err(|e| format!("cannot bind metrics server on {addr}: {e}"))?;
    Ok(Some(server))
}

fn env_config_for(city: &str) -> Result<EnvConfig, String> {
    match city {
        "pittsburgh" => Ok(EnvConfig::pittsburgh()),
        "tucson" => Ok(EnvConfig::tucson()),
        "new-york" | "new_york" => Ok(EnvConfig::new_york()),
        other => Err(format!(
            "unknown city {other:?} (try pittsburgh, tucson, new-york)"
        )),
    }
}

/// Builds the pipeline configuration shared by `extract` and `sweep`:
/// `--paper` picks the full-scale profile, `--noise` overrides the
/// Eq. 5 noise level.
fn pipeline_config(args: &Args, env: EnvConfig) -> Result<PipelineConfig, String> {
    let mut config = if args.has("paper") {
        PipelineConfig::paper_with_env(env)
    } else {
        PipelineConfig::quick(env)
    };
    if let Some(noise) = args.flag("noise") {
        config.noise_level = noise
            .parse()
            .map_err(|_| format!("--noise must be a number, got {noise:?}"))?;
    }
    Ok(config)
}

/// Opens the content-addressed artifact store when `--cache-dir` is
/// given.
fn open_store(args: &Args) -> Result<Option<ArtifactStore>, String> {
    args.flag("cache-dir")
        .map(|dir| ArtifactStore::open(dir).map_err(|e| e.to_string()))
        .transpose()
}

/// Runs the pipeline, through the store when one is open.
fn run_with_store(
    config: &PipelineConfig,
    store: Option<&ArtifactStore>,
) -> Result<PipelineArtifacts, String> {
    match store {
        Some(store) => run_pipeline_cached(config, store),
        None => run_pipeline(config),
    }
    .map_err(|e| e.to_string())
}

fn cmd_extract(args: &Args) -> Result<(), String> {
    let city = args.flag("city").ok_or("extract requires --city")?;
    let out_dir = args.flag("out-dir").unwrap_or("artifacts");
    let env = env_config_for(city)?;
    let config = pipeline_config(args, env)?;
    let store = open_store(args)?;

    info!("running extraction pipeline for {city}…");
    let artifacts = run_with_store(&config, store.as_ref())?;
    info!("{}", artifacts.telemetry);
    if store.is_some() {
        info!(
            "cache: {} hits, {} misses",
            artifacts.telemetry.counter("cache.hits"),
            artifacts.telemetry.counter("cache.misses")
        );
    }
    println!("{}", artifacts.report);
    println!(
        "dynamics model: {} transitions, validation RMSE {:.3} °C",
        artifacts.historical.len(),
        artifacts.model.validation_rmse()
    );

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let writes = [
        ("policy.dtree", artifacts.policy.to_compact_string()),
        ("model.dynmodel", artifacts.model.to_compact_string()),
        ("augmenter.aug", artifacts.augmenter.to_compact_string()),
        ("manifest.json", extract_manifest(city, &config)),
    ];
    for (name, content) in &writes {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("wrote policy.dtree, model.dynmodel, augmenter.aug and manifest.json to {out_dir}/");
    Ok(())
}

/// The provenance manifest `extract` leaves beside its artifacts; the
/// `augmenter` / `noise_level` fields are what `verify` reads back so
/// re-verification uses the extraction-time input distribution.
fn extract_manifest(city: &str, config: &PipelineConfig) -> String {
    let mut o = ObjectWriter::new();
    o.str_field("format", EXTRACT_MANIFEST_FORMAT);
    o.str_field("city", city);
    o.u64_field("seed", config.seed);
    o.f64_field("noise_level", config.noise_level);
    o.str_field("crate_version", env!("CARGO_PKG_VERSION"));
    o.str_field("policy", "policy.dtree");
    o.str_field("model", "model.dynmodel");
    o.str_field("augmenter", "augmenter.aug");
    o.finish()
}

/// Loads the persisted augmenter for an artifact directory, with a
/// clear error for directories written before augmenters were
/// persisted.
fn load_persisted_augmenter(dir: &Path) -> Result<NoiseAugmenter, String> {
    let legacy = |missing: &str| {
        format!(
            "no {missing} in {dir} — this artifact directory predates persisted \
             augmenters; re-run `veri-hvac extract` to regenerate it (verification \
             must use the extraction-time input distribution, not a refit)",
            dir = dir.display()
        )
    };
    let manifest_path = dir.join("manifest.json");
    let manifest_text =
        std::fs::read_to_string(&manifest_path).map_err(|_| legacy("manifest.json"))?;
    let manifest = json::parse(&manifest_text)
        .map_err(|e| format!("malformed manifest {}: {e}", manifest_path.display()))?;
    if manifest.get("format").and_then(JsonValue::as_str) != Some(EXTRACT_MANIFEST_FORMAT) {
        return Err(legacy("extract manifest"));
    }
    let noise_level = manifest
        .get("noise_level")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("manifest {} lacks noise_level", manifest_path.display()))?;
    let augmenter_file = manifest
        .get("augmenter")
        .and_then(JsonValue::as_str)
        .unwrap_or("augmenter.aug");
    let augmenter_path = dir.join(augmenter_file);
    let augmenter_text =
        std::fs::read_to_string(&augmenter_path).map_err(|_| legacy(augmenter_file))?;
    let augmenter = NoiseAugmenter::from_compact_string(&augmenter_text)
        .map_err(|e| format!("malformed augmenter {}: {e}", augmenter_path.display()))?;
    if (augmenter.noise_level() - noise_level).abs() > f64::EPSILON {
        return Err(format!(
            "manifest noise_level {noise_level} does not match augmenter artifact ({})",
            augmenter.noise_level()
        ));
    }
    Ok(augmenter)
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    // Resolve the artifact directory: --artifacts DIR, or the directory
    // holding --policy for split paths.
    let artifacts_dir: PathBuf = match (args.flag("artifacts"), args.flag("policy")) {
        (Some(dir), _) => PathBuf::from(dir),
        (None, Some(policy)) => {
            let parent = Path::new(policy).parent().unwrap_or(Path::new("."));
            if parent.as_os_str().is_empty() {
                PathBuf::from(".")
            } else {
                parent.to_path_buf()
            }
        }
        (None, None) => return Err("verify requires --artifacts DIR (or --policy FILE)".into()),
    };
    let policy_path = args
        .flag("policy")
        .map(PathBuf::from)
        .unwrap_or_else(|| artifacts_dir.join("policy.dtree"));
    let model_path = args
        .flag("model")
        .map(PathBuf::from)
        .unwrap_or_else(|| artifacts_dir.join("model.dynmodel"));
    let samples: usize = args
        .flag("samples")
        .map(|v| v.parse().map_err(|_| "--samples must be a number"))
        .transpose()?
        .unwrap_or(2000);
    let conservative = args.has("conservative");

    let policy_text = std::fs::read_to_string(&policy_path)
        .map_err(|e| format!("cannot read {}: {e}", policy_path.display()))?;
    let mut policy = DtPolicy::from_compact_string(&policy_text).map_err(|e| e.to_string())?;
    let model_text = std::fs::read_to_string(&model_path)
        .map_err(|e| format!("cannot read {}: {e}", model_path.display()))?;
    let model = DynamicsModel::from_compact_string(&model_text).map_err(|e| e.to_string())?;

    // The input distribution comes from the extraction run itself (the
    // manifest's augmenter), never a fresh refit at a different noise
    // level — criterion #1 is only meaningful against the distribution
    // the policy was distilled for.
    let augmenter = load_persisted_augmenter(&artifacts_dir)?;
    println!(
        "using persisted augmenter (noise {})",
        augmenter.noise_level()
    );

    let config = VerificationConfig {
        samples,
        ..VerificationConfig::paper()
    };
    let report =
        verify_and_correct(&mut policy, &model, &augmenter, &config).map_err(|e| e.to_string())?;
    println!("{report}");
    let pass = if conservative {
        report.verified_conservative(WILSON_Z)
    } else {
        report.verified()
    };
    let (wilson_low, _) = report.criterion_1.wilson_interval(WILSON_Z);
    let verdict = match (conservative, pass) {
        (true, true) => format!(
            "VERIFIED (Wilson 95% lower bound {:.3} above threshold; #2/#3 corrected)",
            wilson_low
        ),
        (true, false) => format!(
            "NOT VERIFIED (Wilson 95% lower bound {:.3} not above threshold {})",
            wilson_low, report.criterion_1.threshold
        ),
        (false, true) => "VERIFIED (criterion #1 above threshold; #2/#3 corrected)".to_string(),
        (false, false) => "NOT VERIFIED (criterion #1 below threshold)".to_string(),
    };
    println!("\nverdict: {verdict}");
    if report.corrected_criterion_2 + report.corrected_criterion_3 > 0 {
        let corrected_path = format!("{}.corrected", policy_path.display());
        std::fs::write(&corrected_path, policy.to_compact_string()).map_err(|e| e.to_string())?;
        println!("corrected policy written to {corrected_path}");
    }

    // Compile the (post-correction) tree into its flat serving kernel
    // and write the artifact beside the policy. `recompile` proves the
    // kernel node for node equal to the tree before installing it, so a
    // written `policy.ctree` is *proven*, not just derived.
    let mut compiled_hash = String::new();
    policy.recompile();
    if let Some(kernel) = policy.compiled() {
        let artifact = kernel.to_compact_string();
        let compiled_path = artifacts_dir.join("policy.ctree");
        std::fs::write(&compiled_path, &artifact)
            .map_err(|e| format!("cannot write {}: {e}", compiled_path.display()))?;
        compiled_hash = hvac_audit::compiled_hash(&artifact);
        println!(
            "compiled kernel proven equivalent ({} splits, {} leaves), written to {}",
            kernel.split_count(),
            kernel.leaf_count(),
            compiled_path.display()
        );
    } else {
        println!("compiled kernel unavailable; policy will serve via the enum walk");
    }

    // Emit the verification certificate: the verdict bound to the
    // exact (post-correction) policy bytes, the verification inputs,
    // the compiled kernel (when one was proven), and the hashes of the
    // artifacts it ran against. `serve` and `audit` check this binding
    // end to end.
    let artifact_keys = vec![
        artifact_key_for(&policy_path)?,
        artifact_key_for(&model_path)?,
    ];
    let certificate = hvac_audit::bind_certificate(
        Certificate::new(
            hvac_audit::policy_hash(&policy),
            report,
            &config,
            augmenter.noise_level(),
            artifact_keys,
        )
        .with_compiled_hash(compiled_hash),
    );
    let certificate_path = artifacts_dir.join("certificate.json");
    std::fs::write(&certificate_path, certificate.to_json_string())
        .map_err(|e| format!("cannot write {}: {e}", certificate_path.display()))?;
    println!(
        "certificate {}… written to {}",
        &certificate.certificate_id[..12],
        certificate_path.display()
    );
    if let Some(store) = open_store(args)? {
        store
            .save_certificate(&certificate)
            .map_err(|e| e.to_string())?;
        println!("certificate saved to the artifact store");
    }
    Ok(())
}

/// `NAME:sha256:HEX` for a verification input file — the provenance
/// pointer a certificate carries for each artifact it was computed
/// from.
fn artifact_key_for(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let name = path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    Ok(format!("{name}:sha256:{}", hvac_audit::sha256_hex(&bytes)))
}

/// One completed sweep run, ready for reporting. Carries no wall-clock
/// fields: sweep reports must be byte-identical for any `--threads`.
struct SweepRun {
    city: String,
    seed: u64,
    report: VerificationReport,
    nodes: usize,
    cache_hits: u64,
    cache_misses: u64,
}

impl SweepRun {
    fn to_json(&self) -> String {
        let c1 = &self.report.criterion_1;
        let (wilson_low, wilson_high) = c1.wilson_interval(WILSON_Z);
        let mut o = ObjectWriter::new();
        o.str_field("format", "sweep_run v1");
        o.str_field("city", &self.city);
        o.u64_field("seed", self.seed);
        o.u64_field("total_nodes", self.nodes as u64);
        o.u64_field("leaf_nodes", self.report.leaf_nodes as u64);
        o.u64_field("safe", c1.safe as u64);
        o.u64_field("samples", c1.total as u64);
        o.f64_field("threshold", c1.threshold);
        o.f64_field("safe_probability", c1.probability());
        o.f64_field("wilson_low", wilson_low);
        o.f64_field("wilson_high", wilson_high);
        o.u64_field(
            "corrected_criterion_2",
            self.report.corrected_criterion_2 as u64,
        );
        o.u64_field(
            "corrected_criterion_3",
            self.report.corrected_criterion_3 as u64,
        );
        o.u64_field("verified", u64::from(self.report.verified()));
        o.u64_field(
            "verified_conservative",
            u64::from(self.report.verified_conservative(WILSON_Z)),
        );
        o.u64_field("cache_hits", self.cache_hits);
        o.u64_field("cache_misses", self.cache_misses);
        o.finish()
    }
}

/// Parses `--seeds`: either an exclusive range `N..M` or a comma list.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("bad --seeds {spec:?} (expected N..M or N,M,...)");
    if let Some((start, end)) = spec.split_once("..") {
        let start: u64 = start.trim().parse().map_err(|_| bad())?;
        let end: u64 = end.trim().parse().map_err(|_| bad())?;
        if end <= start {
            return Err(format!("empty --seeds range {spec:?}"));
        }
        Ok((start..end).collect())
    } else {
        spec.split(',')
            .map(|s| s.trim().parse::<u64>().map_err(|_| bad()))
            .collect()
    }
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let cities: Vec<String> = args
        .flag("cities")
        .unwrap_or("pittsburgh,tucson")
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    if cities.is_empty() {
        return Err("--cities must name at least one city".into());
    }
    let seeds = parse_seeds(args.flag("seeds").unwrap_or("0..4"))?;
    let threads: usize = args
        .flag("threads")
        .map(|v| v.parse().map_err(|_| "--threads must be a number"))
        .transpose()?
        .unwrap_or(4);
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let out_dir = args.flag("out").unwrap_or("sweep");
    let conservative = args.has("conservative");
    let store = open_store(args)?;

    // City-major job order in the order given; results land by job
    // index, so reports are identically ordered for any thread count.
    let mut jobs: Vec<(String, u64, PipelineConfig)> = Vec::new();
    for city in &cities {
        let env = env_config_for(city)?;
        for &seed in &seeds {
            let mut config = pipeline_config(args, env.clone())?;
            config.seed = seed;
            jobs.push((city.clone(), seed, config));
        }
    }

    info!(
        "sweeping {} runs ({} cities x {} seeds) over {} worker(s)…",
        jobs.len(),
        cities.len(),
        seeds.len(),
        threads.min(jobs.len())
    );

    // Bounded pool: workers pull the next job index off a shared atomic
    // until the list drains. Each (city, seed) pair owns disjoint cache
    // keys, so sharing the store never couples two jobs.
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<SweepRun, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some((city, seed, config)) = jobs.get(index) else {
                    break;
                };
                info!("sweep: {city} seed {seed} starting");
                let run = run_with_store(config, store.as_ref()).map(|artifacts| SweepRun {
                    city: city.clone(),
                    seed: *seed,
                    nodes: artifacts.policy.tree().node_count(),
                    cache_hits: artifacts.telemetry.counter("cache.hits"),
                    cache_misses: artifacts.telemetry.counter("cache.misses"),
                    report: artifacts.report,
                });
                *results[index].lock().unwrap() = Some(run);
            });
        }
    });

    let mut runs = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (slot, (city, seed, _)) in results.iter().zip(&jobs) {
        match slot.lock().unwrap().take() {
            Some(Ok(run)) => runs.push(run),
            Some(Err(e)) => failures.push(format!("{city} seed {seed}: {e}")),
            None => failures.push(format!("{city} seed {seed}: worker never ran the job")),
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} sweep run(s) failed: {}",
            failures.len(),
            failures.join("; ")
        ));
    }

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    for run in &runs {
        let path = format!("{out_dir}/run-{}-seed{}.json", run.city, run.seed);
        std::fs::write(&path, run.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let cache_hits: u64 = runs.iter().map(|r| r.cache_hits).sum();
    let cache_misses: u64 = runs.iter().map(|r| r.cache_misses).sum();
    let verified = runs.iter().filter(|r| r.report.verified()).count();
    let verified_conservative = runs
        .iter()
        .filter(|r| r.report.verified_conservative(WILSON_Z))
        .count();

    // The aggregate embeds each run object verbatim; every field is
    // deterministic, so two sweeps over a warm cache produce identical
    // bytes.
    let mut aggregate = String::from("{\"format\":\"sweep_summary v1\"");
    aggregate.push_str(&format!(",\"runs_total\":{}", runs.len()));
    aggregate.push_str(&format!(",\"verified_runs\":{verified}"));
    aggregate.push_str(&format!(
        ",\"verified_conservative_runs\":{verified_conservative}"
    ));
    aggregate.push_str(&format!(",\"cache_hits\":{cache_hits}"));
    aggregate.push_str(&format!(",\"cache_misses\":{cache_misses}"));
    aggregate.push_str(",\"runs\":[");
    let run_objects: Vec<String> = runs.iter().map(SweepRun::to_json).collect();
    aggregate.push_str(&run_objects.join(","));
    aggregate.push_str("]}");
    let aggregate_path = format!("{out_dir}/sweep-summary.json");
    std::fs::write(&aggregate_path, &aggregate)
        .map_err(|e| format!("cannot write {aggregate_path}: {e}"))?;

    // Table-2-style stdout summary, one row per (city, seed).
    println!(
        "{:<12} {:>5} {:>6} {:>7} {:>7}   {:<16} {:>7} {:>7}  verdict",
        "city", "seed", "nodes", "leaves", "safe%", "wilson 95%", "corr#2", "corr#3"
    );
    for run in &runs {
        let c1 = &run.report.criterion_1;
        let (low, high) = c1.wilson_interval(WILSON_Z);
        let pass = if conservative {
            run.report.verified_conservative(WILSON_Z)
        } else {
            run.report.verified()
        };
        println!(
            "{:<12} {:>5} {:>6} {:>7} {:>7.1}   [{:>5.1}%, {:>5.1}%] {:>7} {:>7}  {}",
            run.city,
            run.seed,
            run.nodes,
            run.report.leaf_nodes,
            100.0 * c1.probability(),
            100.0 * low,
            100.0 * high,
            run.report.corrected_criterion_2,
            run.report.corrected_criterion_3,
            if pass { "VERIFIED" } else { "NOT VERIFIED" }
        );
    }
    println!(
        "{}/{} runs verified ({} gate); cache: {cache_hits} hits, {cache_misses} misses",
        if conservative {
            verified_conservative
        } else {
            verified
        },
        runs.len(),
        if conservative {
            "Wilson lower-bound"
        } else {
            "point-estimate"
        }
    );
    println!(
        "wrote {} per-run reports and sweep-summary.json to {out_dir}/",
        runs.len()
    );
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let policy_path = args.flag("policy").ok_or("inspect requires --policy")?;
    let policy_text = std::fs::read_to_string(policy_path).map_err(|e| e.to_string())?;
    let policy = DtPolicy::from_compact_string(&policy_text).map_err(|e| e.to_string())?;
    let tree = policy.tree();
    info!(
        "{} nodes, {} leaves, depth {}",
        tree.node_count(),
        tree.leaf_count(),
        tree.depth()
    );
    if args.has("dot") {
        let class_names: Vec<String> = policy
            .action_space()
            .iter()
            .map(|a| a.to_string())
            .collect();
        let class_refs: Vec<&str> = class_names.iter().map(String::as_str).collect();
        println!("{}", tree.to_dot(&feature::NAMES, &class_refs));
    } else {
        println!("{}", policy.to_text());
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let policy_path = args.flag("policy").ok_or("simulate requires --policy")?;
    let city = args.flag("city").ok_or("simulate requires --city")?;
    let days: usize = args
        .flag("days")
        .map(|v| v.parse().map_err(|_| "--days must be a number"))
        .transpose()?
        .unwrap_or(7);

    let policy_text = std::fs::read_to_string(policy_path).map_err(|e| e.to_string())?;
    let mut policy = DtPolicy::from_compact_string(&policy_text).map_err(|e| e.to_string())?;
    let env_config = env_config_for(city)?.with_episode_steps(days * 96);
    let mut env = HvacEnv::new(env_config).map_err(|e| e.to_string())?;
    info!("simulating {days} January day(s) in {city}…");
    let record = run_episode(&mut env, &mut policy).map_err(|e| e.to_string())?;
    let m = &record.metrics;
    println!("{m}");
    println!(
        "comfort rate {:.1}%   performance index {:.2}",
        100.0 * m.comfort_rate(),
        m.performance_index()
    );
    Ok(())
}

/// Resolves the certificate to serve/audit `policy` under: an explicit
/// `--certificate FILE`, else `certificate.json` beside the policy,
/// else the artifact store's entry for the policy hash (when
/// `--cache-dir` is open). Whatever is found must actually cover the
/// policy: a stale or foreign certificate is an error, not a warning.
/// Refuses certificates whose id does not hash their canonical bytes
/// or that cover a different policy than the one at `policy_path`.
fn check_certificate(
    certificate: &Certificate,
    policy_path: &Path,
    policy_hash: &str,
) -> Result<(), String> {
    if !hvac_audit::certificate_id_is_consistent(certificate) {
        return Err(format!(
            "certificate id {}… does not hash its canonical bytes — the file was edited \
             after binding",
            &certificate.certificate_id[..12.min(certificate.certificate_id.len())]
        ));
    }
    if certificate.policy_hash != policy_hash {
        return Err(format!(
            "certificate covers policy {:.12}… but {} hashes to {policy_hash:.12}… — \
             re-run `veri-hvac verify`",
            certificate.policy_hash,
            policy_path.display()
        ));
    }
    Ok(())
}

fn resolve_certificate(
    args: &Args,
    policy_path: &Path,
    policy_hash: &str,
) -> Result<Option<Certificate>, String> {
    let certificate = if let Some(path) = args.flag("certificate") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read certificate {path}: {e}"))?;
        Some(Certificate::from_json_string(&text).map_err(|e| e.to_string())?)
    } else {
        let sibling = policy_path
            .parent()
            .unwrap_or(Path::new("."))
            .join("certificate.json");
        match std::fs::read_to_string(&sibling) {
            Ok(text) => Some(
                Certificate::from_json_string(&text)
                    .map_err(|e| format!("malformed certificate {}: {e}", sibling.display()))?,
            ),
            Err(_) => match open_store(args)? {
                Some(store) if store.has_certificate(policy_hash) => Some(
                    store
                        .load_certificate(policy_hash)
                        .map_err(|e| e.to_string())?,
                ),
                _ => None,
            },
        }
    };
    let Some(certificate) = certificate else {
        return Ok(None);
    };
    check_certificate(&certificate, policy_path, policy_hash)?;
    Ok(Some(certificate))
}

/// One roster entry — a `--fleet` manifest tenant or the `--policy`
/// building — resolved.
struct ManifestTenant {
    id: String,
    policy: DtPolicy,
    certificate: Option<Certificate>,
}

/// Parses a fleet manifest: `{"tenants":[{"id":…,"policy":PATH,
/// "certificate":PATH?},…]}`. Relative paths resolve against the
/// manifest's own directory. Each tenant's certificate is the named
/// file, else a `certificate.json` sibling of its policy, else none;
/// whatever is found must bind the tenant's exact policy bytes.
fn load_fleet_manifest(path: &str) -> Result<Vec<ManifestTenant>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fleet manifest {path}: {e}"))?;
    let value =
        json::parse(&text).map_err(|e| format!("fleet manifest {path} is not JSON: {e}"))?;
    let base = Path::new(path)
        .parent()
        .unwrap_or(Path::new("."))
        .to_path_buf();
    let resolve = |p: &str| -> PathBuf {
        let p = Path::new(p);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            base.join(p)
        }
    };
    let entries = value
        .get("tenants")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| {
            format!(r#"fleet manifest {path} must be {{"tenants":[{{"id":…,"policy":…}},…]}}"#)
        })?;
    let mut tenants = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let id = entry
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("manifest tenant {i}: missing string field \"id\""))?;
        let policy_path = entry
            .get("policy")
            .and_then(JsonValue::as_str)
            .map(resolve)
            .ok_or_else(|| format!("manifest tenant {id:?}: missing string field \"policy\""))?;
        let policy_text = std::fs::read_to_string(&policy_path).map_err(|e| {
            format!(
                "tenant {id:?}: cannot read policy {}: {e}",
                policy_path.display()
            )
        })?;
        let policy = DtPolicy::from_compact_string(&policy_text)
            .map_err(|e| format!("tenant {id:?}: malformed policy: {e}"))?;
        let policy_hash = hvac_audit::policy_hash(&policy);
        let certificate = match entry.get("certificate").and_then(JsonValue::as_str) {
            Some(cert_path) => {
                let cert_path = resolve(cert_path);
                let text = std::fs::read_to_string(&cert_path).map_err(|e| {
                    format!(
                        "tenant {id:?}: cannot read certificate {}: {e}",
                        cert_path.display()
                    )
                })?;
                Some(
                    Certificate::from_json_string(&text)
                        .map_err(|e| format!("tenant {id:?}: {e}"))?,
                )
            }
            None => {
                let sibling = policy_path
                    .parent()
                    .unwrap_or(Path::new("."))
                    .join("certificate.json");
                match std::fs::read_to_string(&sibling) {
                    Ok(text) => Some(Certificate::from_json_string(&text).map_err(|e| {
                        format!(
                            "tenant {id:?}: malformed certificate {}: {e}",
                            sibling.display()
                        )
                    })?),
                    Err(_) => None,
                }
            }
        };
        if let Some(cert) = &certificate {
            check_certificate(cert, &policy_path, &policy_hash)
                .map_err(|e| format!("tenant {id:?}: {e}"))?;
        }
        tenants.push(ManifestTenant {
            id: id.to_string(),
            policy,
            certificate,
        });
    }
    if tenants.is_empty() {
        return Err(format!("fleet manifest {path} names no tenants"));
    }
    Ok(tenants)
}

/// The certificate gate every roster load (startup *and*
/// `/admin/reload`) passes through: a NOT VERIFIED or missing
/// certificate is fatal under `--require-certificate` and loud
/// otherwise.
fn gate_certificates(tenants: &[ManifestTenant], require_certificate: bool) -> Result<(), String> {
    let mut uncertified = 0usize;
    for tenant in tenants {
        match &tenant.certificate {
            Some(cert) if !cert.verified() => {
                if require_certificate {
                    return Err(format!(
                        "tenant {:?}: certificate {}… records a NOT VERIFIED outcome and \
                         --require-certificate is set",
                        tenant.id,
                        &cert.certificate_id[..12]
                    ));
                }
                hvac_telemetry::warn!(
                    "tenant {:?}: certificate {}… records a NOT VERIFIED outcome — serving \
                     anyway",
                    tenant.id,
                    &cert.certificate_id[..12]
                );
            }
            Some(_) => {}
            None if require_certificate => {
                return Err(format!(
                    "tenant {:?} has no verification certificate and --require-certificate \
                     is set — run `veri-hvac verify` first",
                    tenant.id
                ));
            }
            None => uncertified += 1,
        }
    }
    if uncertified > 0 {
        hvac_telemetry::warn!(
            "{uncertified} of {} tenants serve UNCERTIFIED policies — run `veri-hvac verify` \
             (or pass --require-certificate to refuse instead)",
            tenants.len()
        );
    }
    Ok(())
}

/// Manifest tenants, re-gated and shaped for [`veri_hvac::Fleet::reload`].
fn manifest_specs(manifest: &str, require_certificate: bool) -> Result<Vec<TenantSpec>, String> {
    let tenants = load_fleet_manifest(manifest)?;
    gate_certificates(&tenants, require_certificate)?;
    Ok(tenants
        .into_iter()
        .map(|t| TenantSpec {
            id: t.id,
            certificate_id: t.certificate.as_ref().map(|c| c.certificate_id.clone()),
            policy: t.policy,
        })
        .collect())
}

/// The roster entry for `serve --policy FILE`: one building, served as
/// a one-tenant fleet. Its certificate is found the way `audit` finds
/// one ([`resolve_certificate`]). The tenant id is `default`; with
/// `--audit-log DIR/NAME.jsonl` it is `NAME` and the audit dir is
/// `DIR`, so the fleet's `<audit-dir>/<id>.jsonl` chain lands exactly
/// at the requested path — and a restart resumes it.
fn policy_tenant(
    args: &Args,
    policy_path: &str,
) -> Result<(ManifestTenant, Option<PathBuf>), String> {
    let (id, audit_dir) = match args.flag("audit-log") {
        None => ("default".to_string(), None),
        Some(log) => {
            let log = Path::new(log);
            let id = log
                .file_stem()
                .and_then(|stem| stem.to_str())
                .filter(|stem| {
                    log.extension().is_some_and(|ext| ext == "jsonl")
                        && veri_hvac::valid_tenant_id(stem)
                })
                .ok_or_else(|| {
                    format!(
                        "--audit-log {}: want DIR/NAME.jsonl with NAME of 1-{} bytes of \
                         [A-Za-z0-9_-]",
                        log.display(),
                        veri_hvac::fleet::MAX_TENANT_ID_BYTES
                    )
                })?;
            let dir = log
                .parent()
                .filter(|dir| !dir.as_os_str().is_empty())
                .unwrap_or(Path::new("."));
            (id.to_string(), Some(dir.to_path_buf()))
        }
    };
    let policy_path = Path::new(policy_path);
    let policy_text = std::fs::read_to_string(policy_path)
        .map_err(|e| format!("cannot read policy {}: {e}", policy_path.display()))?;
    let policy = DtPolicy::from_compact_string(&policy_text).map_err(|e| e.to_string())?;
    let certificate = resolve_certificate(args, policy_path, &hvac_audit::policy_hash(&policy))?;
    info!(
        "serving policy {} ({} nodes, depth {}) as tenant {id:?}",
        policy_path.display(),
        policy.tree().node_count(),
        policy.tree().depth()
    );
    let tenant = ManifestTenant {
        id,
        policy,
        certificate,
    };
    Ok((tenant, audit_dir))
}

/// `serve --policy FILE | --fleet MANIFEST`: one process, one or many
/// buildings — a policy registry (tenants sharing a tree share one
/// entry), per-tenant guards behind sharded locks, optional per-tenant
/// audit chains, and the lockstep `POST /tick` batch path. Only a
/// manifest can be reloaded.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.flag("addr").unwrap_or("127.0.0.1:9464");
    let require_certificate = args.has("require-certificate");
    let (tenants, audit_dir, reload) = match (args.flag("fleet"), args.flag("policy")) {
        (Some(manifest), _) => {
            // `POST /admin/reload` re-reads this same manifest with the
            // same certificate gate the process started under.
            let reload_manifest = manifest.to_string();
            let reload: Arc<veri_hvac::ReloadSource> =
                Arc::new(move || manifest_specs(&reload_manifest, require_certificate));
            (
                load_fleet_manifest(manifest)?,
                args.flag("audit-dir").map(PathBuf::from),
                Some(reload),
            )
        }
        (None, Some(policy)) => {
            let (tenant, audit_dir) = policy_tenant(args, policy)?;
            (vec![tenant], audit_dir, None)
        }
        (None, None) => return Err("serve requires --policy FILE or --fleet MANIFEST".into()),
    };
    gate_certificates(&tenants, require_certificate)?;
    let flush = args
        .flag("audit-flush")
        .map(hvac_audit::FlushPolicy::parse)
        .transpose()
        .map_err(|e| format!("--audit-flush: {e}"))?
        .unwrap_or(hvac_audit::FlushPolicy::Always);
    let parse_count = |flag: &str| -> Result<Option<usize>, String> {
        args.flag(flag)
            .map(|n| {
                n.parse::<usize>()
                    .map_err(|_| format!("--{flag} must be a count, got {n:?}"))
            })
            .transpose()
    };
    // Guard-state snapshot cadence: default 30 s; `--snapshot-every 0`
    // turns periodic snapshots off (the graceful-drain snapshot still
    // runs).
    let snapshot_every = match parse_count("snapshot-every")?.unwrap_or(30) {
        0 => None,
        secs => Some(std::time::Duration::from_secs(secs as u64)),
    };
    let options = veri_hvac::FleetOptions {
        audit_dir: audit_dir.clone(),
        audit_flush: flush,
        ops: veri_hvac::OpsOptions {
            flight_capacity: parse_count("flight-capacity")?
                .unwrap_or(veri_hvac::OpsOptions::default().flight_capacity),
            ..veri_hvac::OpsOptions::default()
        },
        workers: parse_count("workers")?,
        max_inflight: parse_count("max-inflight")?,
        snapshot_every,
        ..veri_hvac::FleetOptions::default()
    };

    let fleet = veri_hvac::Fleet::new(options);
    for tenant in tenants {
        let certificate_id = tenant
            .certificate
            .as_ref()
            .map(|c| c.certificate_id.clone());
        fleet.add_tenant(&tenant.id, tenant.policy, certificate_id)?;
    }
    if audit_dir.is_some() {
        // Panics must still leave flushed, checkpointed chains behind.
        hvac_audit::install_chain_flush_hook();
    }
    info!(
        "serving fleet of {} tenants over {} distinct policies",
        fleet.len(),
        fleet.policy_count()
    );

    let reloadable = reload.is_some();
    let server = veri_hvac::serve_fleet_with_reload(fleet, addr, reload)
        .map_err(|e| format!("cannot bind fleet endpoint on {addr}: {e}"))?;
    println!("serving fleet on http://{}", server.addr());
    println!("  POST /decide/{{tenant}}  {{\"zone_temperature\": 18.5, ...}} -> setpoint action");
    println!("  POST /decide           same, tenant named by a \"tenant\" body field");
    println!("                         (optional when the fleet has one tenant)");
    println!("  POST /tick             lockstep batch, one observation per tenant");
    if reloadable {
        println!("  POST /admin/reload     re-read the manifest and swap the roster atomically");
    }
    println!("  GET  /tenants          fleet roster with per-tenant guard state");
    println!("  GET  /version          build, tenant and policy counts (+ policy hash and");
    println!("                         certificate id when one policy is served)");
    println!("  GET  /metrics          Prometheus text format 0.0.4");
    println!("  GET  /healthz          liveness probe");
    if let Some(dir) = &audit_dir {
        println!(
            "audit chains: {}/<tenant>.jsonl (sealed on graceful shutdown)",
            dir.display()
        );
    }
    hvac_telemetry::flush();
    match args.flag("duration") {
        // Bounded session (smoke tests, CI): serve for N seconds, then
        // shut down gracefully — hooks run, chains seal, sinks flush.
        Some(secs) => {
            let secs: u64 = secs
                .parse()
                .map_err(|_| format!("--duration must be a number of seconds, got {secs:?}"))?;
            std::thread::sleep(std::time::Duration::from_secs(secs));
            info!("--duration elapsed; shutting down");
            server.shutdown();
            Ok(())
        }
        // Serve until the process is interrupted. A signal kill skips
        // destructors: chains stay durable per append but unsealed, and
        // the next start over the same audit dir recovers them.
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    let chain_path = args.flag("chain").ok_or("audit requires --chain FILE")?;

    // `--recover` repairs a crash-torn chain in place before auditing:
    // the torn tail is truncated (atomically), a hash-covered recovery
    // record is appended, and the chain is sealed. Interior corruption
    // is still refused — recovery never papers over tampering.
    if args.has("recover") {
        let (chain, recovery) = hvac_audit::AuditChain::recover(
            Path::new(chain_path),
            hvac_audit::ChainConfig::default(),
        )
        .map_err(|e| format!("cannot recover {chain_path}: {e}"))?;
        chain
            .seal()
            .map_err(|e| format!("cannot seal recovered chain {chain_path}: {e}"))?;
        info!(
            "recovered {chain_path}: {} verified records kept, {} torn bytes truncated at \
             byte offset {}",
            recovery.prefix_records, recovery.truncated_bytes, recovery.truncated_at
        );
    }

    let text = std::fs::read_to_string(chain_path)
        .map_err(|e| format!("cannot read chain {chain_path}: {e}"))?;

    // The policy is optional (hash/link checks run without it) but
    // enables the binding and replay checks.
    let policy = args
        .flag("policy")
        .map(|path| -> Result<DtPolicy, String> {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read policy {path}: {e}"))?;
            DtPolicy::from_compact_string(&text).map_err(|e| e.to_string())
        })
        .transpose()?;
    let certificate = match &policy {
        Some(p) => {
            let path = PathBuf::from(args.flag("policy").unwrap_or("."));
            resolve_certificate(args, &path, &hvac_audit::policy_hash(p))?
        }
        None => args
            .flag("certificate")
            .map(|path| {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read certificate {path}: {e}"))?;
                Certificate::from_json_string(&text).map_err(|e| e.to_string())
            })
            .transpose()?,
    };

    // `--compiled FILE` supplies the flat-kernel artifact for the
    // binding check: it must hash to the certificate's compiled_hash
    // and (with --policy) re-prove equivalent to the tree node for node.
    let compiled_artifact = args
        .flag("compiled")
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read compiled artifact {path}: {e}"))
        })
        .transpose()?;

    let replay_sample: usize = args
        .flag("replay")
        .map(|v| v.parse().map_err(|_| "--replay must be a number"))
        .transpose()?
        .unwrap_or(64);
    let mut auditor = hvac_audit::Auditor::new(&text).options(hvac_audit::AuditOptions {
        allow_unsealed: args.has("allow-unsealed"),
        replay_sample,
    });
    if let Some(p) = &policy {
        auditor = auditor.with_policy(p);
    }
    if let Some(c) = &certificate {
        auditor = auditor.with_certificate(c);
    }
    if let Some(artifact) = &compiled_artifact {
        auditor = auditor.with_compiled_artifact(artifact);
    }
    let report = auditor.run();

    if args.has("json") {
        println!("{}", report.to_json_string());
    } else {
        print!("{report}");
    }
    if report.passed() {
        Ok(())
    } else {
        let failure = report.first_failure().expect("failed report has a failure");
        Err(format!(
            "chain {chain_path} FAILED the {} check: {}",
            failure.name, failure.detail
        ))
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let mut metrics_guard = None;
    let result = init_telemetry(&args)
        .and_then(|()| {
            metrics_guard = init_metrics_server(&args)?;
            Ok(())
        })
        .and_then(|()| match args.positional.first().map(String::as_str) {
            Some("extract") => cmd_extract(&args),
            Some("verify") => cmd_verify(&args),
            Some("sweep") => cmd_sweep(&args),
            Some("inspect") => cmd_inspect(&args),
            Some("simulate") => cmd_simulate(&args),
            Some("serve") => cmd_serve(&args),
            Some("audit") => cmd_audit(&args),
            _ => {
                eprint!("{USAGE}");
                Err(String::new())
            }
        });
    hvac_telemetry::flush();
    drop(metrics_guard);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) if message.is_empty() => ExitCode::from(2),
        Err(message) => {
            error!("error: {message}");
            hvac_telemetry::flush();
            ExitCode::FAILURE
        }
    }
}
