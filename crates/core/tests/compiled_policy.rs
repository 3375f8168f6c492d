//! The compiled fast path on *shipped* policies: every tree the
//! pipeline actually produces must compile into the flat kernel and
//! survive the exhaustive box-grid equivalence sweep (leaf-box
//! corners, threshold-adjacent ±1 ulp probes, NaN/∞ hostiles) before
//! it may serve. A synthetic toy tree proving equivalent means little
//! if the real extraction output doesn't.

use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::prove_equivalence;
use veri_hvac::env::{EnvConfig, Observation, Policy, POLICY_INPUT_DIM};
use veri_hvac::pipeline::{run_pipeline, PipelineConfig};

#[test]
fn pipeline_fitted_policy_passes_the_full_box_grid_sweep() {
    let config = PipelineConfig::quick(EnvConfig::pittsburgh());
    let artifacts = run_pipeline(&config).unwrap();

    // The pipeline's verification stage may have corrected leaves
    // (which invalidates any cached kernel), so compile the policy as
    // `veri-hvac verify` does: recompile + re-prove, then serve.
    let mut policy = artifacts.policy.clone();
    let proof = policy
        .recompile()
        .expect("the shipped policy must compile and prove equivalent");
    let kernel = policy.compiled().expect("proof implies a kernel");
    assert!(
        proof.probes >= proof.leaves,
        "the sweep probes every leaf box at least once: {proof:?}"
    );
    assert_eq!(kernel.n_features(), POLICY_INPUT_DIM);

    // The proof is re-checkable from the artifact text alone — the
    // round-tripped kernel is the same function.
    let artifact = policy.compiled_artifact().unwrap();
    let restored = veri_hvac::dtree::CompiledTree::from_compact_string(&artifact).unwrap();
    let reproof = prove_equivalence(policy.tree(), &restored).unwrap();
    assert_eq!(reproof.probes, proof.probes);

    // And the served decisions agree with the enum walk across a dense
    // observation sweep (belt to the proof's suspenders).
    let mut walk = DtPolicy::new_uncompiled(policy.tree().clone()).unwrap();
    for step in 0..500 {
        let mut x = [0.0f64; POLICY_INPUT_DIM];
        x[0] = 10.0 + f64::from(step) * 0.031;
        x[1] = f64::from(step % 24);
        let o = Observation::from_vector(&x);
        assert_eq!(policy.decide(&o), walk.decide(&o), "step {step}");
    }
}
