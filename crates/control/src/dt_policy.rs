//! The extracted decision-tree policy — the paper's contribution
//! deployed as a controller.
//!
//! A fitted CART ([`hvac_dtree::DecisionTree`]) over the 6-dimensional
//! policy input, whose classes index the discrete setpoint action space.
//! Evaluation is a single root-to-leaf descent: deterministic, ~100 ns —
//! the source of the paper's 1127× computation-overhead reduction
//! (Table 3).

use crate::error::ControlError;
use hvac_dtree::{prove_equivalence, CompiledTree, DecisionTree};
use hvac_env::space::feature;
use hvac_env::{ActionSpace, Observation, Policy, SetpointAction, POLICY_INPUT_DIM};

/// A decision-tree policy over the HVAC action space.
///
/// # Example
///
/// ```no_run
/// use hvac_control::DtPolicy;
/// use hvac_dtree::{DecisionTree, TreeConfig};
/// use hvac_env::{ActionSpace, Observation, Policy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let inputs: Vec<Vec<f64>> = vec![vec![0.0; 6]];
/// # let labels = vec![0usize];
/// let tree = DecisionTree::fit(&inputs, &labels, ActionSpace::new().len(),
///                              &TreeConfig::default())?;
/// let mut policy = DtPolicy::new(tree)?;
/// let action = policy.decide(&Observation::default());
/// println!("the tree commands {action}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DtPolicy {
    tree: DecisionTree,
    action_space: ActionSpace,
    /// Flat branchless kernel, present only when the proof of
    /// equivalence passed for this exact tree. Invalidated by
    /// [`DtPolicy::tree_mut`]; rebuilt by [`DtPolicy::recompile`].
    compiled: Option<CompiledTree>,
}

/// The compiled kernel is derived data (recomputed deterministically
/// from the tree), so policy equality is tree + action-space equality —
/// an edited-then-recompiled policy equals its uncompiled twin.
impl PartialEq for DtPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.tree == other.tree && self.action_space == other.action_space
    }
}

impl DtPolicy {
    /// Wraps a fitted tree as a policy.
    ///
    /// Validates the tree structurally (a malformed tree — cycle,
    /// dangling child, NaN threshold — is rejected, never served), then
    /// compiles the flat kernel and proves it equivalent (a lock-step
    /// structural walk of tree and kernel). If compilation or the proof
    /// fails the policy still constructs and serves the reference enum
    /// walk.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::FeatureMismatch`] if the tree was not
    /// fitted on [`POLICY_INPUT_DIM`]-wide inputs,
    /// [`ControlError::ClassMismatch`] if its class count differs from
    /// the action space, and [`ControlError::BadTree`] for structural
    /// offenses.
    pub fn new(tree: DecisionTree) -> Result<Self, ControlError> {
        let mut policy = Self::new_uncompiled(tree)?;
        policy.recompile();
        Ok(policy)
    }

    /// [`DtPolicy::new`] without the compiled kernel: every decision
    /// runs the reference enum walk. Exists so benchmarks and tests can
    /// A/B the two kernels; production paths should use `new`.
    ///
    /// # Errors
    ///
    /// Same dimension and structural checks as [`DtPolicy::new`].
    pub fn new_uncompiled(tree: DecisionTree) -> Result<Self, ControlError> {
        let action_space = ActionSpace::new();
        if tree.n_features() != POLICY_INPUT_DIM {
            return Err(ControlError::FeatureMismatch {
                tree: tree.n_features(),
                env: POLICY_INPUT_DIM,
            });
        }
        if tree.n_classes() != action_space.len() {
            return Err(ControlError::ClassMismatch {
                tree: tree.n_classes(),
                actions: action_space.len(),
            });
        }
        tree.validate_structure().map_err(ControlError::BadTree)?;
        Ok(Self {
            tree,
            action_space,
            compiled: None,
        })
    }

    /// Compiles the flat kernel for the current tree and proves it
    /// equivalent; the kernel serves only if the proof passes. Returns
    /// whether a proven kernel is now active (`false`: compilation or
    /// the proof failed, and the policy serves the enum walk).
    pub fn recompile(&mut self) -> bool {
        self.compiled = CompiledTree::compile(&self.tree)
            .ok()
            .filter(|compiled| prove_equivalence(&self.tree, compiled).is_ok());
        self.compiled.is_some()
    }

    /// The proven compiled kernel, if one is active.
    pub fn compiled(&self) -> Option<&CompiledTree> {
        self.compiled.as_ref()
    }

    /// The serialized compiled artifact (`ctree v1`) whose content hash
    /// the verification certificate binds, if a proven kernel is active.
    pub fn compiled_artifact(&self) -> Option<String> {
        self.compiled.as_ref().map(CompiledTree::to_compact_string)
    }

    /// Borrow the underlying tree (for verification and inspection).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Mutable access to the tree (Algorithm 1 edits failed leaves).
    ///
    /// Drops the compiled kernel: any edit invalidates the equivalence
    /// proof, so subsequent decisions run the enum walk until
    /// [`DtPolicy::recompile`] re-proves a fresh kernel.
    pub fn tree_mut(&mut self) -> &mut DecisionTree {
        self.compiled = None;
        &mut self.tree
    }

    /// Consumes the policy, returning the tree.
    pub fn into_tree(self) -> DecisionTree {
        self.tree
    }

    /// The action space used for class↔action mapping.
    pub fn action_space(&self) -> &ActionSpace {
        &self.action_space
    }

    /// Serializes the policy to the compact text format of
    /// [`hvac_dtree::serialize`]. The action-space mapping is canonical,
    /// so the tree alone fully determines the policy.
    pub fn to_compact_string(&self) -> String {
        self.tree.to_compact_string()
    }

    /// Loads a policy from the compact text format, re-validating the
    /// feature and class dimensions against the HVAC spaces.
    ///
    /// # Errors
    ///
    /// Parse and structural failures come back as
    /// [`ControlError::BadTree`] wrapping the typed
    /// [`hvac_dtree::TreeError`] (so a manifest loader can report *why*
    /// a tenant's policy was rejected), plus the dimension checks of
    /// [`DtPolicy::new`].
    pub fn from_compact_string(text: &str) -> Result<Self, ControlError> {
        let tree = DecisionTree::from_compact_string(text).map_err(ControlError::BadTree)?;
        Self::new(tree)
    }

    /// Renders the policy as human-readable rules using the paper's
    /// feature names.
    pub fn to_text(&self) -> String {
        let class_names: Vec<String> = self.action_space.iter().map(|a| a.to_string()).collect();
        let class_refs: Vec<&str> = class_names.iter().map(String::as_str).collect();
        self.tree.to_text(&feature::NAMES, &class_refs)
    }

    /// [`Policy::decide`] without `&mut`: the tree descent mutates
    /// nothing, so a shared policy (one registry entry serving many
    /// tenants) can evaluate concurrently. Runs the proven compiled
    /// kernel when one is active (bit-identical by proof), else the
    /// reference enum walk.
    pub fn decide_shared(&self, obs: &Observation) -> SetpointAction {
        let x = obs.to_vector();
        let class = match &self.compiled {
            Some(kernel) => kernel
                .predict(&x)
                .expect("kernel width validated at compile"),
            None => self
                .tree
                .predict(&x)
                .expect("tree validated at construction"),
        };
        self.action_space
            .action(class)
            .expect("class count validated at construction")
    }

    /// Evaluates a batch of observations in one call, appending one
    /// action per observation to `out` — the fleet-serving extension of
    /// PR 3's lockstep idiom: concurrent tenants' evaluations coalesce
    /// into a single pass over the shared tree instead of N interleaved
    /// descents. With a proven compiled kernel active, the batch runs
    /// the eight-wide wavefront descent of
    /// [`hvac_dtree::CompiledTree::predict_batch_into`]; either way the
    /// result is bit-identical to per-observation
    /// [`DtPolicy::decide_shared`].
    pub fn decide_batch_into(&self, observations: &[Observation], out: &mut Vec<SetpointAction>) {
        out.reserve(observations.len());
        if let Some(kernel) = &self.compiled {
            let mut rows = Vec::with_capacity(observations.len() * POLICY_INPUT_DIM);
            for obs in observations {
                rows.extend_from_slice(&obs.to_vector());
            }
            let mut classes = Vec::new();
            kernel
                .predict_batch_into(&rows, &mut classes)
                .expect("kernel width validated at compile");
            for class in classes {
                out.push(
                    self.action_space
                        .action(class)
                        .expect("class count validated at construction"),
                );
            }
        } else {
            for obs in observations {
                out.push(self.decide_shared(obs));
            }
        }
    }
}

impl Policy for DtPolicy {
    fn decide(&mut self, obs: &Observation) -> SetpointAction {
        self.decide_shared(obs)
    }

    fn name(&self) -> &str {
        "dt"
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvac_dtree::TreeConfig;
    use hvac_env::Disturbances;

    /// A tiny decision dataset: cold zones → heat (class of (23, 30)),
    /// warm zones → off.
    fn toy_tree() -> DecisionTree {
        let space = ActionSpace::new();
        let heat = space.index_of(SetpointAction::new(23, 30).unwrap());
        let off = space.index_of(SetpointAction::off());
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let temp = 14.0 + i as f64 * 0.5;
            let mut row = vec![0.0; POLICY_INPUT_DIM];
            row[feature::ZONE_TEMPERATURE] = temp;
            inputs.push(row);
            labels.push(if temp < 20.0 { heat } else { off });
        }
        DecisionTree::fit(&inputs, &labels, space.len(), &TreeConfig::default()).unwrap()
    }

    fn obs(temp: f64) -> Observation {
        Observation::new(temp, Disturbances::default())
    }

    #[test]
    fn routes_to_expected_actions() {
        let mut p = DtPolicy::new(toy_tree()).unwrap();
        assert_eq!(p.decide(&obs(15.0)), SetpointAction::new(23, 30).unwrap());
        assert_eq!(p.decide(&obs(23.0)), SetpointAction::off());
    }

    #[test]
    fn deterministic_repeated_decisions() {
        let mut p = DtPolicy::new(toy_tree()).unwrap();
        let o = obs(18.3);
        let first = p.decide(&o);
        for _ in 0..100 {
            assert_eq!(p.decide(&o), first);
        }
        assert!(p.is_deterministic());
    }

    #[test]
    fn batch_decide_matches_scalar_decides() {
        let mut p = DtPolicy::new(toy_tree()).unwrap();
        let observations: Vec<Observation> = (0..50).map(|i| obs(14.0 + i as f64 * 0.2)).collect();
        let mut batched = Vec::new();
        p.decide_batch_into(&observations, &mut batched);
        assert_eq!(batched.len(), observations.len());
        for (o, b) in observations.iter().zip(&batched) {
            assert_eq!(p.decide(o), *b);
            assert_eq!(p.decide_shared(o), *b);
        }
    }

    #[test]
    fn rejects_wrong_feature_count() {
        let tree = DecisionTree::fit(
            &[vec![0.0], vec![1.0]],
            &[0, 1],
            ActionSpace::new().len(),
            &TreeConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            DtPolicy::new(tree),
            Err(ControlError::FeatureMismatch { tree: 1, env: 7 })
        ));
    }

    #[test]
    fn rejects_wrong_class_count() {
        let tree = DecisionTree::fit(
            &[vec![0.0; POLICY_INPUT_DIM], vec![1.0; POLICY_INPUT_DIM]],
            &[0, 1],
            2,
            &TreeConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            DtPolicy::new(tree),
            Err(ControlError::ClassMismatch {
                tree: 2,
                actions: 90
            })
        ));
    }

    #[test]
    fn text_rendering_uses_domain_names() {
        let p = DtPolicy::new(toy_tree()).unwrap();
        let text = p.to_text();
        assert!(text.contains("zone_air_temperature"));
        assert!(text.contains("heat 23 °C / cool 30 °C"));
    }

    #[test]
    fn tree_mut_allows_editing() {
        let mut p = DtPolicy::new(toy_tree()).unwrap();
        let o = obs(15.0);
        let space = ActionSpace::new();
        let target = space.index_of(SetpointAction::new(21, 25).unwrap());
        let leaf = p.tree().apply(&o.to_vector()).unwrap();
        p.tree_mut().set_leaf_class(leaf, target).unwrap();
        assert_eq!(p.decide(&o), SetpointAction::new(21, 25).unwrap());
    }

    #[test]
    fn construction_proves_and_activates_the_compiled_kernel() {
        let p = DtPolicy::new(toy_tree()).unwrap();
        let kernel = p.compiled().expect("proof passes for fitted trees");
        assert_eq!(kernel.n_features(), POLICY_INPUT_DIM);
        assert!(p.compiled_artifact().unwrap().starts_with("ctree v1\n"));
    }

    #[test]
    fn compiled_and_enum_walk_decide_identically() {
        let compiled = DtPolicy::new(toy_tree()).unwrap();
        let reference = DtPolicy::new_uncompiled(toy_tree()).unwrap();
        assert!(compiled.compiled().is_some());
        assert!(reference.compiled().is_none());
        assert_eq!(
            compiled, reference,
            "derived kernel must not affect equality"
        );
        let observations: Vec<Observation> =
            (0..60).map(|i| obs(12.0 + f64::from(i) * 0.25)).collect();
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        compiled.decide_batch_into(&observations, &mut fast);
        reference.decide_batch_into(&observations, &mut slow);
        assert_eq!(fast, slow);
        for o in &observations {
            assert_eq!(compiled.decide_shared(o), reference.decide_shared(o));
        }
    }

    #[test]
    fn tree_mut_invalidates_the_kernel_and_recompile_restores_it() {
        let mut p = DtPolicy::new(toy_tree()).unwrap();
        assert!(p.compiled().is_some());
        let o = obs(15.0);
        let space = ActionSpace::new();
        let target = space.index_of(SetpointAction::new(21, 25).unwrap());
        let leaf = p.tree().apply(&o.to_vector()).unwrap();
        p.tree_mut().set_leaf_class(leaf, target).unwrap();
        // A stale kernel would still serve the pre-edit class; the edit
        // must drop it so the enum walk serves the corrected tree.
        assert!(p.compiled().is_none());
        assert_eq!(p.decide_shared(&o), SetpointAction::new(21, 25).unwrap());
        assert!(p.recompile(), "re-proof passes");
        assert_eq!(p.decide_shared(&o), SetpointAction::new(21, 25).unwrap());
        let kernel = p
            .compiled()
            .expect("a passing re-proof installs the kernel");
        assert_eq!(kernel.leaf_count(), p.tree().leaf_count());
    }

    #[test]
    fn parse_failures_carry_the_typed_tree_error() {
        let cyclic = "dtree v1\nfeatures 7\nclasses 90\nnodes 3\nL 0 1\nS 0 1.0 2 2\nL 1 1\n";
        match DtPolicy::from_compact_string(cyclic) {
            Err(ControlError::BadTree(err)) => {
                assert!(!err.to_string().is_empty());
            }
            other => panic!("expected BadTree, got {other:?}"),
        }
        let garbage = DtPolicy::from_compact_string("not a tree");
        assert!(matches!(garbage, Err(ControlError::BadTree(_))));
    }
}
