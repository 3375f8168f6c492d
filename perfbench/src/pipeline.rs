//! The offline pipeline (paper Fig. 2): untraced `run_pipeline` runs, and
//! traced runs that call the same stages in `run_pipeline`'s order with
//! spans around each one.

use crate::trace::{Summary, Tracer};
use crate::util::{derive_seed, ns_since};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use veri_hvac::control::{DtPolicy, Predictor, RandomShootingController};
use veri_hvac::dtree::DecisionTree;
use veri_hvac::dynamics::{collect_historical_dataset, DynamicsModel};
use veri_hvac::env::{ActionSpace, EnvConfig, Observation, SetpointAction};
use veri_hvac::extract::{generate_decision_dataset, NoiseAugmenter};
use veri_hvac::pipeline::{run_pipeline, PipelineArtifacts, PipelineConfig};
use veri_hvac::verify::{verify_and_correct, verify_paths, VerificationReport};

fn env_for(city: &str) -> EnvConfig {
    match city {
        "pittsburgh" => EnvConfig::pittsburgh(),
        "tucson" => EnvConfig::tucson(),
        other => panic!("unknown city {other}"),
    }
}

/// `PipelineConfig::reduced` for `city`, with every stage seed derived
/// from `seed`.
pub fn config_for(city: &str, seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::reduced(env_for(city));
    config.seed = derive_seed(seed, "collect", 0);
    config.model.seed = derive_seed(seed, "model", 0);
    config.extraction.seed = derive_seed(seed, "extract", 0);
    config.verification.seed = derive_seed(seed, "verify", 0);
    config
}

/// One untraced `run_pipeline`, checked: the corrected tree re-verifies
/// as passing and the report covers every leaf.
pub struct Untraced {
    pub artifacts: PipelineArtifacts,
    pub wall_ns: u64,
    /// Planner decisions the extraction stage made.
    pub plans: u64,
}

pub fn run_untraced(config: &PipelineConfig) -> Result<Untraced, String> {
    let t = Instant::now();
    let artifacts = run_pipeline(config).map_err(|e| format!("run_pipeline failed: {e}"))?;
    let wall_ns = ns_since(t);
    check_policy(&artifacts.policy, &artifacts.report, config)?;
    let plans = artifacts
        .telemetry
        .counters
        .get("rs.plan.count")
        .copied()
        .unwrap_or(0);
    Ok(Untraced {
        artifacts,
        wall_ns,
        plans,
    })
}

/// The pipeline's own correctness check on its output.
pub fn check_policy(
    policy: &DtPolicy,
    report: &VerificationReport,
    config: &PipelineConfig,
) -> Result<(), String> {
    let recheck = verify_paths(policy, &config.verification.comfort)
        .map_err(|e| format!("verify_paths failed: {e}"))?;
    if !recheck.passed() {
        return Err("the corrected tree fails verify_paths".to_string());
    }
    if report.leaf_nodes != policy.tree().leaf_count() {
        return Err(format!(
            "report covers {} leaves, the tree has {}",
            report.leaf_nodes,
            policy.tree().leaf_count()
        ));
    }
    Ok(())
}

/// Counts and times the model calls it forwards.
#[derive(Debug, Default)]
struct PredictStats {
    calls: AtomicU64,
    rows: AtomicU64,
    ns: AtomicU64,
}

impl PredictStats {
    fn get(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.rows.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// A [`Predictor`] that forwards to the dynamics model and records each
/// call's row count and wall time.
struct CountingPredictor {
    model: DynamicsModel,
    stats: Arc<PredictStats>,
}

impl CountingPredictor {
    fn record(&self, rows: usize, started: Instant) {
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.stats
            .ns
            .fetch_add(ns_since(started), Ordering::Relaxed);
    }
}

impl Predictor for CountingPredictor {
    fn predict_next(&self, obs: &Observation, action: SetpointAction) -> f64 {
        let started = Instant::now();
        let out = self.model.predict_next(obs, action);
        self.record(1, started);
        out
    }

    fn predict_next_batch(
        &self,
        observations: &[Observation],
        actions: &[SetpointAction],
        out: &mut [f64],
    ) {
        let started = Instant::now();
        self.model.predict_next_batch(observations, actions, out);
        self.record(observations.len(), started);
    }
}

/// One traced pipeline run: its span tree is one unit of the tracer.
pub struct Traced {
    pub policy: DtPolicy,
    pub report: VerificationReport,
    pub nodes: usize,
    pub predict_calls: u64,
    pub predict_rows: u64,
}

/// Calls the stages in `run_pipeline`'s order (no artifact store), with
/// `DecisionTree::fit` and `DtPolicy::new` timed apart and the model's
/// calls counted during extraction and verification.
pub fn run_traced(config: &PipelineConfig, tracer: &mut Tracer) -> Result<Traced, String> {
    let root = tracer.open("pipeline", None);
    let (historical, _) = tracer.span("sim.collect", Some(root), || {
        collect_historical_dataset(&config.env, config.historical_episodes, config.seed)
    });
    let historical = historical.map_err(|e| format!("collect: {e}"))?;
    let (model, _) = tracer.span("nn.train", Some(root), || {
        DynamicsModel::train(&historical, &config.model)
    });
    let model = model.map_err(|e| format!("train: {e}"))?;
    let (augmenter, _) = tracer.span("extract.augment", Some(root), || {
        NoiseAugmenter::fit(historical.policy_inputs(), config.noise_level)
    });
    let augmenter = augmenter.map_err(|e| format!("augment: {e}"))?;

    let stats = Arc::new(PredictStats::default());
    let label = tracer.open("extract.label", Some(root));
    let before = stats.get();
    let teacher = RandomShootingController::new(
        CountingPredictor {
            model: model.clone(),
            stats: Arc::clone(&stats),
        },
        config.rs,
        config.seed,
    );
    let decision_data = teacher
        .map_err(|e| format!("teacher: {e}"))
        .and_then(|mut teacher| {
            generate_decision_dataset(&mut teacher, &augmenter, &config.extraction)
                .map_err(|e| format!("extract: {e}"))
        })?;
    tracer.close(label);
    tracer.estimated("dynamics.predict", label, stats.get().2 - before.2);

    let (tree, _) = tracer.span("dtree.fit", Some(root), || {
        let inputs: Vec<Vec<f64>> = decision_data.inputs().iter().map(|r| r.to_vec()).collect();
        DecisionTree::fit(
            &inputs,
            decision_data.labels(),
            ActionSpace::new().len(),
            &config.tree,
        )
    });
    let tree = tree.map_err(|e| format!("fit: {e}"))?;
    let (policy, _) = tracer.span("dtree.compile_prove", Some(root), || DtPolicy::new(tree));
    let mut policy = policy.map_err(|e| format!("compile: {e}"))?;
    let nodes = policy.tree().node_count();

    let verifier = CountingPredictor {
        model,
        stats: Arc::clone(&stats),
    };
    let verify = tracer.open("verify", Some(root));
    let before = stats.get();
    let report = verify_and_correct(&mut policy, &verifier, &augmenter, &config.verification)
        .map_err(|e| format!("verify: {e}"))?;
    tracer.close(verify);
    tracer.estimated("dynamics.predict", verify, stats.get().2 - before.2);
    tracer.close(root);

    let (calls, rows, _) = stats.get();
    Ok(Traced {
        policy,
        report,
        nodes,
        predict_calls: calls,
        predict_rows: rows,
    })
}

/// Layer metrics of traced pipeline runs, each the median over runs.
#[derive(Default)]
pub struct PipelineLayers {
    pub summary: Summary,
    pub nodes: Vec<f64>,
    pub predict_calls: Vec<f64>,
    pub predict_rows: Vec<f64>,
    pub plans: Vec<f64>,
}

/// One untraced and one traced run of `config`, checked equal: same tree
/// and same report.
pub fn run_pair(
    config: &PipelineConfig,
    tracer: &mut Tracer,
    layers: &mut PipelineLayers,
) -> Result<Untraced, String> {
    let untraced = run_untraced(config)?;
    let traced = run_traced(config, tracer)?;
    if traced.policy.tree() != untraced.artifacts.policy.tree() {
        return Err("traced and untraced pipelines produced different trees".to_string());
    }
    if traced.report != untraced.artifacts.report {
        return Err("traced and untraced pipelines produced different reports".to_string());
    }
    layers.nodes.push(traced.nodes as f64);
    layers.predict_calls.push(traced.predict_calls as f64);
    layers.predict_rows.push(traced.predict_rows as f64);
    layers.plans.push(untraced.plans as f64);
    Ok(untraced)
}

/// The pipeline's per-layer metrics from traced runs (medians over runs).
pub fn layer_metrics(layers: &PipelineLayers) -> crate::util::Metrics {
    use crate::util::median;
    let s = &layers.summary;
    let secs = |ns: f64| ns / 1e9;
    let mut m = crate::util::Metrics::default();
    m.add("sim.collect_s", secs(s.dur_median("sim.collect")), "s");
    m.add("nn.train_s", secs(s.dur_median("nn.train")), "s");
    m.add(
        "extract.augment_s",
        secs(s.dur_median("extract.augment")),
        "s",
    );
    m.add("extract.label_s", secs(s.dur_median("extract.label")), "s");
    m.add(
        "extract.overhead_s",
        secs(s.self_median("extract.label")),
        "s",
    );
    m.add("extract.plans", median(&layers.plans), "count");
    m.add(
        "dynamics.predict_s",
        secs(s.dur_median("dynamics.predict")),
        "s",
    );
    m.add(
        "dynamics.predict_calls",
        median(&layers.predict_calls),
        "count",
    );
    m.add(
        "dynamics.predict_rows",
        median(&layers.predict_rows),
        "count",
    );
    m.add("dtree.fit_s", secs(s.dur_median("dtree.fit")), "s");
    m.add("dtree.nodes", median(&layers.nodes), "count");
    m.add(
        "dtree.compile_prove_s",
        secs(s.dur_median("dtree.compile_prove")),
        "s",
    );
    m.add("verify.s", secs(s.dur_median("verify")), "s");
    m
}
