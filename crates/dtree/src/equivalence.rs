//! Proof of equivalence between a tree and its compiled kernel.
//!
//! "Prove, don't assume": the verification story of the paper rests on
//! Algorithm 1 checking the *deployed* artifact, so a compiled kernel is
//! only eligible to serve after an exhaustive probe sweep shows it
//! agrees with the reference enum walk everywhere that matters. Both
//! kernels are piecewise-constant over the same axis-aligned leaf boxes,
//! so agreement on a finite, carefully-chosen probe set — every leaf box
//! corner, threshold-adjacent points ±1 ulp on every split feature, and
//! hostile NaN/±∞ probes — transfers the verification certificate from
//! the tree to the compiled form.
//!
//! The probe families, per leaf box of the source tree:
//!
//! 1. **Corners** — the `2^d` combinations of per-dimension extremes
//!    (one ulp inside the open lower bound; exactly on the closed upper
//!    bound; large finite surrogates for unbounded sides), plus the
//!    box representative. These are exactly the grid points Algorithm
//!    1's box verification reasons about.
//! 2. **Threshold-adjacent** — for every distinct `(feature, t)` split
//!    in the tree, the leaf representative with that coordinate forced
//!    to `t`, `t + 1 ulp` and `t − 1 ulp`: the three points that pin
//!    down the `<=` boundary and its rounding behavior.
//! 3. **Hostile** — the representative with each coordinate replaced by
//!    NaN, `+∞` and `−∞` (the guard keeps these out in production, but
//!    the kernels must agree even on hostile inputs — NaN routes right
//!    at every split in both).
//!
//! A disagreement on any probe fails the proof with
//! [`TreeError::KernelMismatch`]; callers must then serve the enum walk.

use crate::compiled::CompiledTree;
use crate::error::TreeError;
use crate::tree::{DecisionTree, Node};

/// Finite surrogate for an unbounded box side (beyond every physical
/// HVAC quantity, still well inside f64 range so ulp steps behave).
const UNBOUNDED_SURROGATE: f64 = 1e9;

/// Corner probes are the full `2^d` product up to this many dimensions;
/// beyond it the sweep degrades to per-dimension flips of the two
/// extreme corners (still covering every face, no longer every vertex).
const FULL_CORNER_DIMS: usize = 12;

/// Evidence that the sweep ran and what it covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivalenceProof {
    /// Total probe vectors evaluated on the compiled kernel.
    pub probes: usize,
    /// Leaf boxes swept.
    pub leaves: usize,
    /// Distinct split thresholds probed ±1 ulp.
    pub thresholds: usize,
}

/// The next representable f64 above `v`.
#[must_use]
fn ulp_up(v: f64) -> f64 {
    v.next_up()
}

/// The next representable f64 below `v`.
#[must_use]
fn ulp_down(v: f64) -> f64 {
    v.next_down()
}

/// Checks one probe on the compiled kernel; returns the typed mismatch
/// if it disagrees with the reference walk.
fn check_probe(tree: &DecisionTree, compiled: &CompiledTree, x: &[f64]) -> Result<(), TreeError> {
    let expected_leaf = tree.apply(x)?;
    let expected = tree.leaf_class(expected_leaf)?;
    let got = compiled.predict(x)?;
    if got != expected || compiled.apply(x)? != expected_leaf {
        return Err(TreeError::KernelMismatch { expected, got });
    }
    Ok(())
}

/// Sweeps the verification box grid, proving `compiled` ≡ `tree`.
///
/// See the module docs for the probe families. Cost is roughly
/// `leaves × (2^min(d, 12) + 3·thresholds + 3·d)` probes — well under a
/// millisecond for policy-scale trees — so callers run it at every
/// compile, not just in tests.
///
/// # Errors
///
/// [`TreeError::KernelMismatch`] on the first disagreeing probe;
/// [`TreeError::BadInputWidth`] if `compiled` was built for a different
/// feature count.
pub fn prove_equivalence(
    tree: &DecisionTree,
    compiled: &CompiledTree,
) -> Result<EquivalenceProof, TreeError> {
    if compiled.n_features() != tree.n_features() {
        return Err(TreeError::BadInputWidth {
            expected: tree.n_features(),
            got: compiled.n_features(),
        });
    }
    let dims = tree.n_features();
    // Distinct (feature, threshold) pairs across the whole tree.
    let mut thresholds: Vec<(usize, f64)> = tree
        .nodes
        .iter()
        .filter_map(|node| match node {
            Node::Split {
                feature, threshold, ..
            } => Some((*feature, *threshold)),
            Node::Leaf { .. } => None,
        })
        .collect();
    thresholds.sort_by_key(|t| (t.0, t.1.to_bits()));
    thresholds.dedup_by(|a, b| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());

    let boxes = tree.leaf_boxes();
    let leaves = boxes.len();
    let mut probes = 0usize;
    let mut probe = |tree: &DecisionTree, x: &[f64]| -> Result<(), TreeError> {
        probes += 1;
        check_probe(tree, compiled, x)
    };

    for (_leaf, input_box) in &boxes {
        let representative = input_box.representative(-UNBOUNDED_SURROGATE, UNBOUNDED_SURROGATE);

        // Family 1: corners. Each side (lo, hi] contributes the point
        // one ulp inside the open lower bound and the closed upper
        // bound itself (finite surrogates for unbounded sides).
        let corner_lo: Vec<f64> = (0..dims)
            .map(|f| {
                let lo = input_box.side(f).lo;
                if lo.is_finite() {
                    ulp_up(lo)
                } else {
                    -UNBOUNDED_SURROGATE
                }
            })
            .collect();
        let corner_hi: Vec<f64> = (0..dims)
            .map(|f| {
                let hi = input_box.side(f).hi;
                if hi.is_finite() {
                    hi
                } else {
                    UNBOUNDED_SURROGATE
                }
            })
            .collect();
        if dims <= FULL_CORNER_DIMS {
            let mut corner = vec![0.0; dims];
            for mask in 0u64..(1u64 << dims) {
                for f in 0..dims {
                    corner[f] = if mask >> f & 1 == 1 {
                        corner_hi[f]
                    } else {
                        corner_lo[f]
                    };
                }
                probe(tree, &corner)?;
            }
        } else {
            probe(tree, &corner_lo)?;
            probe(tree, &corner_hi)?;
            for f in 0..dims {
                let mut flipped = corner_lo.clone();
                flipped[f] = corner_hi[f];
                probe(tree, &flipped)?;
                let mut flipped = corner_hi.clone();
                flipped[f] = corner_lo[f];
                probe(tree, &flipped)?;
            }
        }
        probe(tree, &representative)?;

        // Family 2: threshold-adjacent ±1 ulp on every split feature.
        for &(feature, threshold) in &thresholds {
            let mut x = representative.clone();
            for value in [threshold, ulp_up(threshold), ulp_down(threshold)] {
                x[feature] = value;
                probe(tree, &x)?;
            }
        }

        // Family 3: hostile NaN/±∞ probes per feature.
        for f in 0..dims {
            let mut x = representative.clone();
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                x[f] = value;
                probe(tree, &x)?;
            }
        }
    }
    // All-hostile vectors (every coordinate at once).
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let x = vec![value; dims];
        probes += 1;
        check_probe(tree, compiled, &x)?;
    }

    Ok(EquivalenceProof {
        probes,
        leaves,
        thresholds: thresholds.len(),
    })
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
            let proof = prove_equivalence(&tree, &compiled).unwrap();
            assert!(proof.probes > 0);
            assert_eq!(proof.leaves, tree.leaf_count());
        }
    }

    #[test]
    fn proof_passes_for_single_leaf_tree() {
        let tree = DecisionTree::fit(&[vec![1.0, 2.0]], &[0], 2, &TreeConfig::default()).unwrap();
        let compiled = CompiledTree::compile(&tree).unwrap();
        let proof = prove_equivalence(&tree, &compiled).unwrap();
        assert_eq!(proof.leaves, 1);
    }

    #[test]
    fn proof_fails_for_a_kernel_of_a_different_tree() {
        let tree_a = fitted(180, 2, 4, 7);
        let tree_b = fitted(180, 2, 4, 23);
        let compiled_b = CompiledTree::compile(&tree_b).unwrap();
        // Same shape-class of tree, different splits: some probe must
        // disagree (the trees classify the grid differently).
        let result = prove_equivalence(&tree_a, &compiled_b);
        assert!(
            matches!(result, Err(TreeError::KernelMismatch { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn ulp_steps_are_exact_inverses() {
        for v in [-1e9, -1.5, -f64::MIN_POSITIVE, 0.0, 2.5, 1e9] {
            assert!(ulp_up(v) > v);
            assert!(ulp_down(v) < v);
            assert_eq!(ulp_down(ulp_up(v)), v);
        }
    }
}
