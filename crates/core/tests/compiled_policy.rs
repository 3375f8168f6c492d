//! The compiled fast path on *shipped* policies: every tree the
//! pipeline actually produces must compile into the flat kernel and
//! pass the structural equivalence proof (a lock-step walk that pairs
//! every kernel node with a tree node of the same kind, feature,
//! threshold bits, class and source id) before it may serve. A
//! synthetic toy tree proving equivalent means little if the real
//! extraction output doesn't.

use veri_hvac::control::DtPolicy;
use veri_hvac::dtree::prove_equivalence;
use veri_hvac::env::{EnvConfig, Observation, Policy, POLICY_INPUT_DIM};
use veri_hvac::pipeline::{run_pipeline, PipelineConfig};

#[test]
fn pipeline_fitted_policy_proves_equivalent_to_its_kernel() {
    let config = PipelineConfig::quick(EnvConfig::pittsburgh());
    let artifacts = run_pipeline(&config).unwrap();

    // The pipeline's verification stage may have corrected leaves
    // (which invalidates any cached kernel), so compile the policy as
    // `veri-hvac verify` does: recompile + re-prove, then serve.
    let mut policy = artifacts.policy.clone();
    assert!(
        policy.recompile(),
        "the shipped policy must compile and prove equivalent"
    );
    let kernel = policy.compiled().expect("proof implies a kernel");
    assert_eq!(kernel.n_features(), POLICY_INPUT_DIM);
    // The proof pairs every kernel node with exactly one tree node.
    assert_eq!(kernel.leaf_count(), policy.tree().leaf_count());
    assert_eq!(
        kernel.split_count() + kernel.leaf_count(),
        policy.tree().node_count()
    );

    // The proof is re-checkable from the artifact text alone — the
    // round-tripped kernel is the same function.
    let artifact = policy.compiled_artifact().unwrap();
    let restored = veri_hvac::dtree::CompiledTree::from_compact_string(&artifact).unwrap();
    assert_eq!(&restored, kernel);
    prove_equivalence(policy.tree(), &restored).unwrap();

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
