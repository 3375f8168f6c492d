//! Proof of equivalence between a tree and its compiled kernel.
//!
//! "Prove, don't assume": the verification story of the paper rests on
//! Algorithm 1 checking the *deployed* artifact, so a compiled kernel is
//! only eligible to serve once it is shown to be the verified tree in
//! another layout. The proof is a structural bisimulation: walk the tree
//! from node 0 and the kernel from its root in lock-step, and require
//! every pair to agree on
//!
//! * the node kind — split with split, leaf with leaf;
//! * at splits, the feature index and the threshold bits
//!   (`f64::to_bits`);
//! * at leaves, the class and the source node id;
//!
//! plus equal feature and class counts, with every kernel split and leaf
//! visited exactly once (a second visit is a shared node, an unvisited
//! one is unreachable). Both kernels route with the same `!(x <= t)`
//! rule, so NaN goes right at every split in both: paired splits send
//! every input — NaN and ±∞ included — to paired children, and by
//! induction to paired leaves with the same class. The proof is exact
//! for every input and costs O(nodes); marking kernel nodes as visited
//! also bounds the walk on hostile artifacts.
//!
//! A broken invariant fails the proof with [`TreeError::KernelMismatch`]
//! naming the node pair and the invariant; callers must then serve the
//! enum walk.

use crate::compiled::{cursor_label, CompiledTree, LEAF_BIT};
use crate::error::TreeError;
use crate::tree::{DecisionTree, Node};

fn mismatch(node: Option<usize>, cursor: u32, invariant: &'static str) -> TreeError {
    TreeError::KernelMismatch {
        node,
        cursor: cursor_label(cursor),
        invariant,
    }
}

/// Proves `compiled` ≡ `tree` by walking both in lock-step (see the
/// module docs).
///
/// # Errors
///
/// [`TreeError::KernelMismatch`] naming the first node pair that breaks
/// an invariant; [`TreeError::BadNodeId`] if `tree` has a dangling
/// child.
pub fn prove_equivalence(tree: &DecisionTree, compiled: &CompiledTree) -> Result<(), TreeError> {
    if compiled.n_features() != tree.n_features() {
        return Err(mismatch(Some(0), compiled.root, "width"));
    }
    if compiled.n_classes() != tree.n_classes() {
        return Err(mismatch(Some(0), compiled.root, "classes"));
    }
    let mut seen_split = vec![false; compiled.split_count()];
    let mut seen_leaf = vec![false; compiled.leaf_count()];
    let mut pending = vec![(0usize, compiled.root)];
    while let Some((id, cursor)) = pending.pop() {
        let fail = |invariant| Err(mismatch(Some(id), cursor, invariant));
        let node = tree.nodes.get(id).ok_or(TreeError::BadNodeId {
            id,
            nodes: tree.node_count(),
        })?;
        let i = (cursor & !LEAF_BIT) as usize;
        let is_split = cursor & LEAF_BIT == 0;
        let seen = if is_split {
            &mut seen_split[i]
        } else {
            &mut seen_leaf[i]
        };
        if std::mem::replace(seen, true) {
            return fail("shared");
        }
        match node {
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } if is_split => {
                if usize::from(compiled.feature[i]) != *feature {
                    return fail("feature");
                }
                if compiled.threshold[i].to_bits() != threshold.to_bits() {
                    return fail("threshold");
                }
                pending.push((*left, compiled.children[2 * i]));
                pending.push((*right, compiled.children[2 * i + 1]));
            }
            Node::Leaf { class, .. } if !is_split => {
                if compiled.leaf_class[i] as usize != *class {
                    return fail("class");
                }
                if compiled.leaf_node[i] as usize != id {
                    return fail("source node");
                }
            }
            _ => return fail("kind"),
        }
    }
    // Kernel node counts fit 31 bits (checked at compile and parse).
    if let Some(i) = seen_split.iter().position(|seen| !seen) {
        return Err(mismatch(None, i as u32, "unreachable"));
    }
    if let Some(j) = seen_leaf.iter().position(|seen| !seen) {
        return Err(mismatch(None, LEAF_BIT | j as u32, "unreachable"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;

    fn fitted(n: usize, features: usize, classes: usize, stride: usize) -> DecisionTree {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..features)
                    .map(|f| ((i * stride + f * 31) % 101) as f64 / 9.0 - 5.0)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 11) % classes).collect();
        DecisionTree::fit(&inputs, &labels, classes, &TreeConfig::default()).unwrap()
    }

    #[test]
    fn proof_passes_for_compiled_trees() {
        for stride in [7, 13, 17] {
            let tree = fitted(180, 3, 5, stride);
            let compiled = CompiledTree::compile(&tree).unwrap();
            prove_equivalence(&tree, &compiled).unwrap();
            assert_eq!(
                compiled.split_count() + compiled.leaf_count(),
                tree.node_count()
            );
            assert_eq!(compiled.leaf_count(), tree.leaf_count());
        }
    }

    #[test]
    fn proof_passes_for_single_leaf_tree() {
        let tree = DecisionTree::fit(&[vec![1.0, 2.0]], &[0], 2, &TreeConfig::default()).unwrap();
        let compiled = CompiledTree::compile(&tree).unwrap();
        prove_equivalence(&tree, &compiled).unwrap();
        assert_eq!((compiled.split_count(), compiled.leaf_count()), (0, 1));
    }

    #[test]
    fn proof_fails_for_a_kernel_of_a_different_tree() {
        let tree_a = fitted(180, 2, 4, 7);
        let tree_b = fitted(180, 2, 4, 23);
        let compiled_b = CompiledTree::compile(&tree_b).unwrap();
        let result = prove_equivalence(&tree_a, &compiled_b);
        assert!(
            matches!(result, Err(TreeError::KernelMismatch { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn mismatch_names_the_pair_and_the_invariant() {
        let tree = fitted(120, 2, 3, 13);
        let other = DecisionTree::fit(&[vec![0.0, 0.0]], &[0], 3, &TreeConfig::default()).unwrap();
        let err = prove_equivalence(&tree, &CompiledTree::compile(&other).unwrap()).unwrap_err();
        assert_eq!(
            err,
            TreeError::KernelMismatch {
                node: Some(0),
                cursor: "L0".to_string(),
                invariant: "kind",
            }
        );
        assert_eq!(
            err.to_string(),
            "compiled kernel breaks the kind invariant at L0 (tree node 0)"
        );
    }
}
