//! Round-trip equivalence: random `Tree` → compile → `CompiledTree`.
//!
//! Property sweep over randomly grown trees — depths 1–16, duplicate
//! thresholds on purpose (a small threshold pool), single-leaf
//! degenerate trees — each serialized through the `dtree v1` text
//! format, compiled, and proven equivalent
//! by the box-grid + ulp-adjacent + hostile-probe sweep. A random-probe
//! cross-check runs on top of the proof, so a prover bug and a kernel
//! bug would have to agree to slip through.

use hvac_dtree::{prove_equivalence, CompiledTree, DecisionTree, TreeError};
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
/// duplicate-threshold case the ±1 ulp probes must disambiguate.
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
        let proof = prove_equivalence(&tree, &compiled).expect("proof holds");
        prop_assert!(proof.probes > 0);
        prop_assert_eq!(proof.leaves, tree.leaf_count());

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
}

#[test]
fn single_leaf_degenerate_tree_is_equivalent() {
    let text = "dtree v1\nfeatures 3\nclasses 9\nnodes 1\nL 4 1\n";
    let tree = DecisionTree::from_compact_string(text).unwrap();
    let compiled = CompiledTree::compile(&tree).unwrap();
    let proof = prove_equivalence(&tree, &compiled).unwrap();
    assert_eq!(proof.leaves, 1);
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
