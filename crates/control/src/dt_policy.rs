//! The extracted decision-tree policy — the paper's contribution
//! deployed as a controller.
//!
//! A fitted CART ([`hvac_dtree::DecisionTree`]) over the 6-dimensional
//! policy input, whose classes index the discrete setpoint action space.
//! Evaluation is a single root-to-leaf descent: deterministic, ~100 ns —
//! the source of the paper's 1127× computation-overhead reduction
//! (Table 3).

use crate::error::ControlError;
use hvac_dtree::DecisionTree;
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
#[derive(Debug, Clone, PartialEq)]
pub struct DtPolicy {
    tree: DecisionTree,
    action_space: ActionSpace,
}

impl DtPolicy {
    /// Wraps a fitted tree as a policy.
    ///
    /// Validates the tree structurally: a malformed tree (cycle,
    /// dangling child, NaN threshold) is rejected, never served. Every
    /// decision then runs the hop-bounded, range-checked walk of this
    /// exact tree, so the served function is the verified one.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::FeatureMismatch`] if the tree was not
    /// fitted on [`POLICY_INPUT_DIM`]-wide inputs,
    /// [`ControlError::ClassMismatch`] if its class count differs from
    /// the action space, and [`ControlError::BadTree`] for structural
    /// offenses.
    pub fn new(tree: DecisionTree) -> Result<Self, ControlError> {
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
        Ok(Self { tree, action_space })
    }

    /// Borrow the underlying tree (for verification and inspection).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Mutable access to the tree (Algorithm 1 edits failed leaves).
    pub fn tree_mut(&mut self) -> &mut DecisionTree {
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
    /// tenants) can evaluate concurrently.
    pub fn decide_shared(&self, obs: &Observation) -> SetpointAction {
        let class = self
            .tree
            .predict(&obs.to_vector())
            .expect("tree validated at construction");
        self.action_space
            .action(class)
            .expect("class count validated at construction")
    }

    /// Evaluates a batch of observations in one call, appending one
    /// action per observation to `out`; each is exactly
    /// [`DtPolicy::decide_shared`] of its observation.
    pub fn decide_batch_into(&self, observations: &[Observation], out: &mut Vec<SetpointAction>) {
        out.extend(observations.iter().map(|obs| self.decide_shared(obs)));
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
