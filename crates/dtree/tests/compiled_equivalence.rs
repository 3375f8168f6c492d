//! Round-trip equivalence: random `Tree` → compile → `CompiledTree`.
//!
//! Property sweep over randomly grown and CART-fitted trees — depths
//! 1–16, duplicate thresholds on purpose (a small threshold pool),
//! single-leaf degenerate trees — each compiled, round-tripped through
//! the `ctree v1` artifact, and proven equivalent by the lock-step
//! structural walk. A random-probe cross-check runs on top of the proof,
//! so a prover bug and a kernel bug would have to agree to slip through.
//! A corpus of hand-edited artifacts that parse but are not the tree
//! must each be rejected with the invariant it breaks.

use hvac_dtree::{prove_equivalence, CompiledTree, DecisionTree, TreeConfig, TreeError};
use proptest::prelude::*;

/// Deterministic splitmix64 — the test's only entropy source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Small pool so random trees reuse thresholds across nodes — the
/// duplicate-threshold case the proof must keep apart by node.
const THRESHOLD_POOL: [f64; 6] = [-3.5, -0.25, 0.0, 0.5, 1.0, 21.75];

enum Spec {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        class: usize,
    },
}

/// Grows a random arena (children after parents, root at 0) and renders
/// it in the `dtree v1` text format.
fn random_tree_text(seed: u64, max_depth: usize, n_features: usize, n_classes: usize) -> String {
    fn grow(
        rng: &mut Rng,
        arena: &mut Vec<Spec>,
        depth: usize,
        n_features: usize,
        n_classes: usize,
    ) -> usize {
        let id = arena.len();
        // Bias toward splitting while depth remains, but allow early
        // leaves so shapes vary; depth 0 forces a leaf.
        if depth == 0 || rng.below(5) == 0 {
            arena.push(Spec::Leaf {
                class: rng.below(n_classes as u64) as usize,
            });
            return id;
        }
        arena.push(Spec::Leaf { class: 0 }); // placeholder
        let feature = rng.below(n_features as u64) as usize;
        let threshold = THRESHOLD_POOL[rng.below(THRESHOLD_POOL.len() as u64) as usize];
        let left = grow(rng, arena, depth - 1, n_features, n_classes);
        let right = grow(rng, arena, depth - 1, n_features, n_classes);
        arena[id] = Spec::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }

    let mut rng = Rng(seed);
    let mut arena = Vec::new();
    grow(&mut rng, &mut arena, max_depth, n_features, n_classes);
    let mut text = format!(
        "dtree v1\nfeatures {n_features}\nclasses {n_classes}\nnodes {}\n",
        arena.len()
    );
    for spec in &arena {
        match spec {
            Spec::Split {
                feature,
                threshold,
                left,
                right,
            } => text.push_str(&format!("S {feature} {threshold:?} {left} {right}\n")),
            Spec::Leaf { class } => text.push_str(&format!("L {class} 1\n")),
        }
    }
    text
}

fn random_input(rng: &mut Rng, dims: usize) -> Vec<f64> {
    (0..dims)
        .map(|_| match rng.below(12) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => THRESHOLD_POOL[rng.below(THRESHOLD_POOL.len() as u64) as usize],
            _ => (rng.next() % 2001) as f64 / 100.0 - 10.0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_random_trees_compile_equivalent(
        seed in 0u64..1_000_000,
        depth in 1usize..=16,
        dims in 1usize..=4,
    ) {
        // Depth 15–16 trees grown unbounded would explode; cap growth
        // by shrinking depth as dims grow (shape variety is the point,
        // not node count).
        let depth = depth.min(20 - 2 * dims);
        let text = random_tree_text(seed, depth, dims, 7);
        let tree = DecisionTree::from_compact_string(&text).expect("generated tree is valid");
        let compiled = CompiledTree::compile(&tree).expect("compiles");
        prove_equivalence(&tree, &compiled).expect("proof holds");
        prop_assert_eq!(compiled.leaf_count(), tree.leaf_count());
        prop_assert_eq!(compiled.split_count() + compiled.leaf_count(), tree.node_count());

        // Independent random probing (hostile values included).
        let mut rng = Rng(seed ^ 0xdead_beef);
        for _ in 0..64 {
            let x = random_input(&mut rng, dims);
            let expected = tree.predict(&x).expect("reference predict");
            prop_assert_eq!(compiled.predict(&x).expect("compiled predict"), expected);
        }

        // The serialized artifact round-trips to the same kernel.
        let artifact = compiled.to_compact_string();
        let restored = CompiledTree::from_compact_string(&artifact).expect("parses");
        prop_assert_eq!(&compiled, &restored);
        prove_equivalence(&tree, &restored).expect("restored kernel proof holds");
    }

    #[test]
    fn prop_fitted_trees_and_their_artifacts_always_prove(
        seed in 0u64..1_000_000,
        n in 1usize..=300,
        dims in 1usize..=4,
        classes in 1usize..=6,
    ) {
        let mut rng = Rng(seed);
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dims).map(|_| (rng.next() % 401) as f64 / 20.0 - 10.0).collect())
            .collect();
        let labels: Vec<usize> = (0..n).map(|_| rng.below(classes as u64) as usize).collect();
        let tree = DecisionTree::fit(&inputs, &labels, classes, &TreeConfig::default())
            .expect("fits");
        let compiled = CompiledTree::compile(&tree).expect("compiles");
        prove_equivalence(&tree, &compiled).expect("compiled kernel proves");
        let restored = CompiledTree::from_compact_string(&compiled.to_compact_string())
            .expect("artifact parses");
        prove_equivalence(&tree, &restored).expect("round-tripped kernel proves");
    }
}

#[test]
fn single_leaf_degenerate_tree_is_equivalent() {
    let text = "dtree v1\nfeatures 3\nclasses 9\nnodes 1\nL 4 1\n";
    let tree = DecisionTree::from_compact_string(text).unwrap();
    let compiled = CompiledTree::compile(&tree).unwrap();
    prove_equivalence(&tree, &compiled).unwrap();
    assert_eq!((compiled.split_count(), compiled.leaf_count()), (0, 1));
    assert_eq!(compiled.predict(&[f64::NAN, 0.0, 1e300]).unwrap(), 4);
}

#[test]
fn tampered_threshold_fails_the_proof() {
    // Find a seed whose tree uses the pool's distinctive threshold, so
    // the textual tamper below is guaranteed to land on a split.
    let (tree, artifact) = (0u64..64)
        .find_map(|seed| {
            let text = random_tree_text(seed, 6, 2, 5);
            let tree = DecisionTree::from_compact_string(&text).ok()?;
            let compiled = CompiledTree::compile(&tree).ok()?;
            let artifact = compiled.to_compact_string();
            artifact.contains("21.75").then_some((tree, artifact))
        })
        .expect("some seed uses the pool threshold");
    // Nudge the first occurrence of that threshold in the artifact.
    let tampered_text = artifact.replacen("21.75", "21.5", 1);
    assert_ne!(tampered_text, artifact);
    let tampered = CompiledTree::from_compact_string(&tampered_text).unwrap();
    assert!(matches!(
        prove_equivalence(&tree, &tampered),
        Err(TreeError::KernelMismatch { .. })
    ));
}

/// `x0 <= 0 → class 0`, else `x1 <= 2.5 → class 1 | class 2`.
const BASE_TREE: &str = "dtree v1\nfeatures 2\nclasses 3\nnodes 5\n\
    S 0 0.0 1 2\nL 0 1\nS 1 2.5 3 4\nL 1 1\nL 2 1\n";

/// `CompiledTree::compile(BASE_TREE)`, byte for byte.
const BASE_KERNEL: &str = "ctree v1\nfeatures 2\nclasses 3\nroot S0\nsplits 2\nleaves 3\n\
    N 0 0.0 L0 S1\nN 1 2.5 L1 L2\nF 0 1\nF 1 3\nF 2 4\n";

fn expect_invariant(tree: &DecisionTree, kernel: &str, cursor: &str, invariant: &str) {
    let kernel = CompiledTree::from_compact_string(kernel)
        .unwrap_or_else(|e| panic!("hand-edited kernel must parse ({e}):\n{kernel}"));
    match prove_equivalence(tree, &kernel) {
        Err(TreeError::KernelMismatch {
            cursor: got_cursor,
            invariant: got,
            ..
        }) => assert_eq!(
            (got_cursor.as_str(), got),
            (cursor, invariant),
            "wrong invariant named for:\n{}",
            kernel.to_compact_string()
        ),
        other => panic!("expected a {invariant} mismatch, got {other:?}"),
    }
}

#[test]
fn hand_edited_kernels_that_parse_are_rejected_by_name() {
    let tree = DecisionTree::from_compact_string(BASE_TREE).unwrap();
    let compiled = CompiledTree::compile(&tree).unwrap();
    assert_eq!(compiled.to_compact_string(), BASE_KERNEL);
    prove_equivalence(&tree, &compiled).unwrap();

    let edit = |from: &str, to: &str| {
        assert!(
            BASE_KERNEL.contains(from),
            "{from:?} not in the base kernel"
        );
        BASE_KERNEL.replacen(from, to, 1)
    };
    let one_ulp_up = format!("N 1 {:?} L1 L2", 2.5f64.next_up());
    // An extra split inside a leaf box is
    // `kernel_with_extra_splits_inside_a_leaf_box_is_rejected` below.
    let cases = [
        // Both children of S1 share leaf L2; L1 is left dangling.
        (edit("L1 L2", "L2 L2"), "L2", "shared"),
        // An unreachable trailing split and an unreachable trailing leaf.
        (
            edit("splits 2", "splits 3").replacen("F 0 1", "N 0 9.0 L0 L1\nF 0 1", 1),
            "S2",
            "unreachable",
        ),
        (
            edit("leaves 3", "leaves 4") + "F 1 3\n",
            "L3",
            "unreachable",
        ),
        (edit("L1 L2", "L2 L1"), "L1", "class"),
        (edit("N 1 2.5 L1 L2", &one_ulp_up), "S1", "threshold"),
        (edit("N 1 2.5", "N 0 2.5"), "S1", "feature"),
        (edit("F 2 4", "F 0 4"), "L2", "class"),
        (edit("F 2 4", "F 2 3"), "L2", "source node"),
        (edit("classes 3", "classes 4"), "S0", "classes"),
        (edit("features 2", "features 3"), "S0", "width"),
    ];
    for (kernel, cursor, invariant) in &cases {
        expect_invariant(&tree, kernel, cursor, invariant);
    }
}

/// A kernel with extra splits inside a leaf box of the tree `x0 <= 0
/// → class 0 | class 1` agrees with the tree on every leaf-box corner,
/// every ±1-ulp point around the tree's threshold and every NaN/±∞
/// probe, yet answers class 0 at x0 = 5.5. The structural walk must
/// reject it however few points tell the two apart.
#[test]
fn kernel_with_extra_splits_inside_a_leaf_box_is_rejected() {
    let tree = DecisionTree::from_compact_string(
        "dtree v1\nfeatures 1\nclasses 2\nnodes 3\nS 0 0.0 1 2\nL 0 1\nL 1 1\n",
    )
    .unwrap();
    let kernel = CompiledTree::from_compact_string(
        "ctree v1\nfeatures 1\nclasses 2\nroot S0\nsplits 3\nleaves 4\n\
         N 0 0.0 L0 S1\nN 0 5.0 L1 S2\nN 0 6.0 L2 L3\nF 0 1\nF 1 2\nF 0 2\nF 1 2\n",
    )
    .unwrap();
    assert_eq!(tree.predict(&[5.5]).unwrap(), 1);
    assert_eq!(kernel.predict(&[5.5]).unwrap(), 0);
    assert_eq!(
        prove_equivalence(&tree, &kernel),
        Err(TreeError::KernelMismatch {
            node: Some(2),
            cursor: "S1".to_string(),
            invariant: "kind",
        })
    );
}
