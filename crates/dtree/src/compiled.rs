//! Branchless flat kernel for verified trees.
//!
//! The enum walk in [`DecisionTree::apply`] chases `Vec<Node>` pointers
//! and branches on the node kind at every hop. That was fine when one
//! decision ran every 15 minutes; the fleet's lockstep `/tick` batches
//! thousands of tenant decisions per call, so the walk is now the
//! multiplied cost. [`CompiledTree`] flattens a *validated* tree into a
//! cache-friendly struct-of-arrays layout:
//!
//! * split nodes only, numbered breadth-first from the root so the hot
//!   top of the tree shares cache lines,
//! * `feature: Vec<u16>` + `threshold: Vec<f64>` indexed by split,
//! * children as one `Vec<u32>` with index arithmetic
//!   (`children[2·i + go_right]`), and
//! * leaves flagged by the top bit of the child word
//!   ([`LEAF_BIT`]` | leaf_index`), so descent is a single
//!   compare-and-index loop with no enum match, and
//! * a batched kernel ([`CompiledTree::predict_batch_into`]) that
//!   descends a block of rows *level-synchronously* with branchless
//!   active-lane compaction: each pass advances every still-descending
//!   row one level, so the inner loop is a stream of independent
//!   compare→index chains the out-of-order core overlaps, instead of
//!   one latency-bound pointer chase per row.
//!
//! The descent preserves the reference semantics bit-for-bit, including
//! the asymmetric NaN rule: `x <= t` is false for NaN, so a NaN
//! observation routes **right** at every split in both kernels (keeping
//! NaNs out entirely is the guard's job — see `GuardConfig` — but the
//! kernels must still agree on hostile inputs). Equivalence is *proven*,
//! not assumed: [`crate::equivalence::prove_equivalence`] walks the tree
//! and the kernel in lock-step, node pair by node pair, before a compiled
//! tree is eligible to serve.

use crate::error::TreeError;
use crate::tree::{DecisionTree, Node};

/// Top bit of a child word: set means "leaf", lower bits are the leaf
/// index into [`CompiledTree`]'s leaf arrays.
pub const LEAF_BIT: u32 = 1 << 31;

/// Format tag of the serialized compiled artifact.
const FORMAT_HEADER: &str = "ctree v1";

/// A verified tree flattened into a branchless struct-of-arrays kernel.
///
/// Built by [`CompiledTree::compile`]; structurally validated input is a
/// precondition enforced there, so descent needs no per-hop kind checks.
/// Use [`crate::equivalence::prove_equivalence`] before serving from it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTree {
    n_features: usize,
    n_classes: usize,
    /// Encoded root cursor — a leaf word for single-leaf trees.
    pub(crate) root: u32,
    /// Number of *real* splits; entries past this index in the split
    /// arrays are the per-leaf virtual self-loops used by the batch
    /// wavefront (see [`CompiledTree::predict_batch_into`]).
    splits: usize,
    /// Maximum number of splits on any root→leaf path — a hard bound on
    /// descent length, guaranteed by the BFS child-ordering invariant.
    depth: usize,
    /// Per split: tested feature (fits `u16` by construction). Indices
    /// `splits..` are one virtual self-loop row per leaf: feature 0,
    /// `+∞` threshold, both children the leaf's own cursor — a leaf
    /// cursor "advances" to itself, which lets the batch wavefront
    /// update every lane unconditionally.
    pub(crate) feature: Vec<u16>,
    /// Per split: comparison threshold.
    pub(crate) threshold: Vec<f64>,
    /// Per split: `[left, right]` child words at `2·i` and `2·i + 1`.
    pub(crate) children: Vec<u32>,
    /// Per leaf: predicted class.
    pub(crate) leaf_class: Vec<u32>,
    /// Per leaf: originating arena node id in the source tree.
    pub(crate) leaf_node: Vec<u32>,
}

impl CompiledTree {
    /// Flattens `tree` into the compiled layout.
    ///
    /// Runs [`DecisionTree::validate_structure`] first: a malformed tree
    /// (cycle, dangling child, NaN threshold) is rejected with the same
    /// typed error the deserializer produces, never compiled into a
    /// kernel that would misroute.
    ///
    /// # Errors
    ///
    /// Structural errors from validation, or
    /// [`TreeError::TooLargeToCompile`] when an index exceeds the flat
    /// layout's width (`u16` features, 31-bit node/leaf counts).
    pub fn compile(tree: &DecisionTree) -> Result<Self, TreeError> {
        tree.validate_structure()?;
        if tree.n_features() > usize::from(u16::MAX) + 1 {
            return Err(TreeError::TooLargeToCompile {
                what: "feature index does not fit u16",
            });
        }
        if tree.node_count() >= LEAF_BIT as usize {
            return Err(TreeError::TooLargeToCompile {
                what: "node count does not fit 31 bits",
            });
        }

        // Pass 1: breadth-first over the source arena, assigning compact
        // ids — splits and leaves separately — so parents precede
        // children and the tree's hot top packs into few cache lines.
        let mut order = std::collections::VecDeque::from([0usize]);
        let mut bfs = Vec::with_capacity(tree.node_count());
        let mut compact = vec![u32::MAX; tree.node_count()];
        let mut splits = 0u32;
        let mut leaves = 0u32;
        while let Some(id) = order.pop_front() {
            bfs.push(id);
            match &tree.nodes[id] {
                Node::Split { left, right, .. } => {
                    compact[id] = splits;
                    splits += 1;
                    order.push_back(*left);
                    order.push_back(*right);
                }
                Node::Leaf { .. } => {
                    compact[id] = LEAF_BIT | leaves;
                    leaves += 1;
                }
            }
        }

        // Pass 2: fill the arrays in compact order.
        let mut compiled = CompiledTree {
            n_features: tree.n_features(),
            n_classes: tree.n_classes(),
            root: compact[0],
            splits: splits as usize,
            depth: 0,
            feature: Vec::with_capacity(splits as usize),
            threshold: Vec::with_capacity(splits as usize),
            children: Vec::with_capacity(2 * splits as usize),
            leaf_class: Vec::with_capacity(leaves as usize),
            leaf_node: Vec::with_capacity(leaves as usize),
        };
        for &id in &bfs {
            match &tree.nodes[id] {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    #[allow(clippy::cast_possible_truncation)] // bounded by u16 check above
                    compiled.feature.push(*feature as u16);
                    compiled.threshold.push(*threshold);
                    compiled.children.push(compact[*left]);
                    compiled.children.push(compact[*right]);
                }
                Node::Leaf { class, .. } => {
                    #[allow(clippy::cast_possible_truncation)] // bounded by 31-bit check above
                    compiled.leaf_class.push(*class as u32);
                    #[allow(clippy::cast_possible_truncation)]
                    compiled.leaf_node.push(id as u32);
                }
            }
        }
        compiled.finish_layout();
        Ok(compiled)
    }

    /// Computes the descent depth and appends one virtual self-loop split
    /// per leaf for the batch wavefront.
    /// Called exactly once, after the real split/leaf arrays are filled
    /// and validated (the virtual rows would otherwise trip the
    /// child-ordering check — they intentionally point at themselves).
    fn finish_layout(&mut self) {
        debug_assert_eq!(self.splits, self.feature.len());
        // Height DP in reverse BFS order: a split's children always
        // carry larger split indices, so `h[i]` is final when visited.
        let mut h = vec![0u32; self.splits];
        for i in (0..self.splits).rev() {
            let left = self.children[2 * i];
            let right = self.children[2 * i + 1];
            let hc = |c: u32, h: &[u32]| if c & LEAF_BIT == 0 { h[c as usize] } else { 0 };
            h[i] = 1 + hc(left, &h).max(hc(right, &h));
        }
        self.depth = if self.root & LEAF_BIT == 0 {
            h[self.root as usize] as usize
        } else {
            0
        };
        #[allow(clippy::cast_possible_truncation)] // leaf count fits 31 bits
        for leaf in 0..self.leaf_class.len() as u32 {
            self.feature.push(0);
            self.threshold.push(f64::INFINITY);
            self.children.push(LEAF_BIT | leaf);
            self.children.push(LEAF_BIT | leaf);
        }
    }

    /// Number of input features the kernel expects.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes (leaf classes are `< n_classes`).
    #[must_use]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of split nodes in the flat layout (virtual self-loop rows
    /// excluded — they are wavefront plumbing, not tree structure).
    #[must_use]
    pub fn split_count(&self) -> usize {
        self.splits
    }

    /// Maximum number of splits on any root→leaf path — a hard bound on
    /// descent length (every descent terminates in at most this many
    /// compares, guaranteed by the BFS child-ordering invariant).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of leaves in the flat layout.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaf_class.len()
    }

    /// The branch-light descent: one compare and one leaf-bit test per
    /// hop, with the child slot derived by index arithmetic — no enum
    /// match, no pointer chase. `!(x <= t)` (not `x > t`) keeps the
    /// asymmetric NaN rule: NaN fails the `<=` and routes right, exactly
    /// like the enum walk. Terminates in at most [`CompiledTree::depth`]
    /// hops — the BFS child-ordering invariant (child split index >
    /// parent's) is validated at construction and parse.
    #[inline]
    fn descend(&self, x: &[f64]) -> u32 {
        let feature = self.feature.as_slice();
        let threshold = self.threshold.as_slice();
        let children = self.children.as_slice();
        let mut cursor = self.root;
        while cursor & LEAF_BIT == 0 {
            let i = cursor as usize;
            let go_right = !(x[usize::from(feature[i])] <= threshold[i]);
            cursor = children[2 * i + usize::from(go_right)];
        }
        cursor
    }

    /// Predicts the class of one input vector.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BadInputWidth`] for a wrong-width input.
    pub fn predict(&self, x: &[f64]) -> Result<usize, TreeError> {
        if x.len() != self.n_features {
            return Err(TreeError::BadInputWidth {
                expected: self.n_features,
                got: x.len(),
            });
        }
        let leaf = (self.descend(x) & !LEAF_BIT) as usize;
        Ok(self.leaf_class[leaf] as usize)
    }

    /// Classifies a row-major batch (`rows.len() = n · n_features`) into
    /// `out`, clearing it first.
    ///
    /// Descends a *wavefront* of [`WAVE`] rows at once: the eight
    /// cursors live in registers and every lane updates unconditionally
    /// each level — a lane that has reached its leaf "advances" onto
    /// that leaf's virtual self-loop row and stays put — so the loop
    /// body has no data-dependent branch per lane, just eight
    /// independent compare→index chains the out-of-order core overlaps.
    /// The wave exits when an AND-reduce of the eight cursors shows the
    /// leaf bit set in all of them, which bounds the spin waste at the
    /// *wave's* deepest row rather than the tree's global depth.
    /// Leftover rows (fewer than a full wave) take the scalar descent.
    /// Per-row results are identical to [`CompiledTree::predict`] — the
    /// wavefront is a latency knob, not a semantic one.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BadInputWidth`] when `rows` is not a whole
    /// number of `n_features`-wide rows.
    pub fn predict_batch_into(&self, rows: &[f64], out: &mut Vec<usize>) -> Result<(), TreeError> {
        const WAVE: usize = 8;
        let width = self.n_features;
        if !rows.len().is_multiple_of(width) {
            return Err(TreeError::BadInputWidth {
                expected: width,
                got: rows.len() % width,
            });
        }
        let n = rows.len() / width;
        out.clear();
        out.reserve(n);
        let feature = self.feature.as_slice();
        let threshold = self.threshold.as_slice();
        let children = self.children.as_slice();
        let leaf_class = self.leaf_class.as_slice();
        let splits = self.splits;
        let mut full_waves = rows.chunks_exact(WAVE * width);
        for chunk in full_waves.by_ref() {
            // Lane row slices hoisted out of the level loop, so the
            // (fully unrolled) lane updates keep the eight cursors in
            // registers with no per-level iterator setup.
            let x: [&[f64]; WAVE] =
                std::array::from_fn(|lane| &chunk[lane * width..(lane + 1) * width]);
            let mut cursors = [self.root; WAVE];
            while cursors.iter().fold(u32::MAX, |a, &c| a & c) & LEAF_BIT == 0 {
                for lane in 0..WAVE {
                    let c = cursors[lane];
                    let i = (c & !LEAF_BIT) as usize + (c >> 31) as usize * splits;
                    let go_right = !(x[lane][usize::from(feature[i])] <= threshold[i]);
                    cursors[lane] = children[2 * i + usize::from(go_right)];
                }
            }
            for &cursor in &cursors {
                out.push(leaf_class[(cursor & !LEAF_BIT) as usize] as usize);
            }
        }
        for row in full_waves.remainder().chunks_exact(width) {
            out.push(leaf_class[(self.descend(row) & !LEAF_BIT) as usize] as usize);
        }
        Ok(())
    }

    /// Serializes the compiled layout to a small human-auditable text
    /// format — the *compiled artifact* whose content hash the
    /// verification certificate binds:
    ///
    /// ```text
    /// ctree v1
    /// features 7
    /// classes 90
    /// root S0
    /// splits 2
    /// leaves 3
    /// N 0 22.5 L0 S1
    /// N 3 0.5 L1 L2
    /// F 45 1
    /// F 30 3
    /// F 61 4
    /// ```
    ///
    /// `N <feature> <threshold> <left> <right>` is one split (children
    /// written as `S<split>` or `L<leaf>`); `F <class> <source-node>`
    /// one leaf. Floats print with round-trip precision, so the hash is
    /// stable across serialize/parse cycles.
    #[must_use]
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        out.push_str(FORMAT_HEADER);
        out.push('\n');
        out.push_str(&format!("features {}\n", self.n_features));
        out.push_str(&format!("classes {}\n", self.n_classes));
        out.push_str(&format!("root {}\n", cursor_label(self.root)));
        out.push_str(&format!("splits {}\n", self.split_count()));
        out.push_str(&format!("leaves {}\n", self.leaf_count()));
        for i in 0..self.split_count() {
            out.push_str(&format!(
                "N {} {:?} {} {}\n",
                self.feature[i],
                self.threshold[i],
                cursor_label(self.children[2 * i]),
                cursor_label(self.children[2 * i + 1]),
            ));
        }
        for i in 0..self.leaf_count() {
            out.push_str(&format!("F {} {}\n", self.leaf_class[i], self.leaf_node[i]));
        }
        out
    }

    /// Parses a compiled artifact written by
    /// [`CompiledTree::to_compact_string`], revalidating every index so
    /// a tampered or truncated artifact is rejected rather than served.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BadConfig`] naming the first malformed line,
    /// or [`TreeError::NonFiniteThreshold`] /
    /// [`TreeError::ChildOutOfRange`] for structural offenses.
    pub fn from_compact_string(text: &str) -> Result<Self, TreeError> {
        let bad = |what: &'static str| TreeError::BadConfig { what };
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(FORMAT_HEADER) {
            return Err(bad("missing or unsupported compiled-format header"));
        }
        let mut field = |key: &'static str| -> Result<String, TreeError> {
            let line = lines.next().ok_or(bad("truncated compiled header"))?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some(key) {
                return Err(bad("compiled header field out of order"));
            }
            parts
                .next()
                .map(str::to_string)
                .ok_or(bad("compiled header field missing value"))
        };
        let n_features: usize = field("features")?
            .parse()
            .map_err(|_| bad("bad features count"))?;
        let n_classes: usize = field("classes")?
            .parse()
            .map_err(|_| bad("bad classes count"))?;
        let root_text = field("root")?;
        let splits: usize = field("splits")?
            .parse()
            .map_err(|_| bad("bad splits count"))?;
        let leaves: usize = field("leaves")?
            .parse()
            .map_err(|_| bad("bad leaves count"))?;
        if n_features == 0 || usize::from(u16::MAX) + 1 < n_features {
            return Err(bad("features count out of range"));
        }
        if n_classes == 0 || leaves == 0 {
            return Err(bad("compiled tree needs classes and leaves"));
        }
        if splits >= LEAF_BIT as usize || leaves >= LEAF_BIT as usize {
            return Err(bad("compiled node count out of range"));
        }
        let parse_cursor = |text: &str| -> Result<u32, TreeError> {
            let (leaf, rest) = if let Some(rest) = text.strip_prefix('S') {
                (false, rest)
            } else if let Some(rest) = text.strip_prefix('L') {
                (true, rest)
            } else {
                return Err(bad("bad child cursor in compiled tree"));
            };
            let index: u32 = rest
                .parse()
                .map_err(|_| bad("bad child cursor in compiled tree"))?;
            if index >= LEAF_BIT {
                return Err(bad("bad child cursor in compiled tree"));
            }
            let bound = if leaf { leaves } else { splits };
            if index as usize >= bound {
                return Err(TreeError::ChildOutOfRange {
                    node: 0,
                    child: index as usize,
                    nodes: splits + leaves,
                });
            }
            Ok(if leaf { LEAF_BIT | index } else { index })
        };

        let mut compiled = CompiledTree {
            n_features,
            n_classes,
            root: parse_cursor(&root_text)?,
            feature: Vec::with_capacity(splits),
            threshold: Vec::with_capacity(splits),
            children: Vec::with_capacity(2 * splits),
            leaf_class: Vec::with_capacity(leaves),
            leaf_node: Vec::with_capacity(leaves),
            splits,
            depth: 0,
        };
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("N") => {
                    let feature: u16 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(bad("bad split feature"))?;
                    if usize::from(feature) >= n_features {
                        return Err(TreeError::FeatureOutOfRange {
                            node: compiled.feature.len(),
                            feature: usize::from(feature),
                            n_features,
                        });
                    }
                    let threshold: f64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(bad("bad split threshold"))?;
                    if !threshold.is_finite() {
                        return Err(TreeError::NonFiniteThreshold {
                            node: compiled.feature.len(),
                        });
                    }
                    let left = parse_cursor(parts.next().ok_or(bad("missing left child"))?)?;
                    let right = parse_cursor(parts.next().ok_or(bad("missing right child"))?)?;
                    compiled.feature.push(feature);
                    compiled.threshold.push(threshold);
                    compiled.children.push(left);
                    compiled.children.push(right);
                }
                Some("F") => {
                    let class: u32 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(bad("bad leaf class"))?;
                    if class as usize >= n_classes {
                        return Err(TreeError::BadClass {
                            class: class as usize,
                            n_classes,
                        });
                    }
                    let node: u32 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(bad("bad leaf source node"))?;
                    compiled.leaf_class.push(class);
                    compiled.leaf_node.push(node);
                }
                _ => return Err(bad("unknown compiled node tag")),
            }
        }
        // `feature.len()`, not `split_count()`: the latter reads the
        // header-declared count, which is what we're checking against.
        if compiled.feature.len() != splits || compiled.leaf_count() != leaves {
            return Err(bad("compiled node count mismatch"));
        }
        // Termination: BFS numbering means every split's child index is
        // strictly greater than its own, so descent strictly advances —
        // a parsed artifact violating that could loop.
        for (i, pair) in compiled.children.chunks_exact(2).enumerate() {
            for &child in pair {
                if child & LEAF_BIT == 0 && child as usize <= i {
                    return Err(TreeError::CycleDetected { node: i });
                }
            }
        }
        compiled.finish_layout();
        Ok(compiled)
    }
}

/// A cursor in the artifact's notation: `S<split>` or `L<leaf>`.
pub(crate) fn cursor_label(c: u32) -> String {
    if c & LEAF_BIT == 0 {
        format!("S{c}")
    } else {
        format!("L{}", c & !LEAF_BIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{LeafId, TreeConfig};

    fn fitted(n: usize, features: usize, classes: usize) -> DecisionTree {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..features)
                    .map(|f| ((i * 13 + f * 29) % 97) as f64 / 7.0 - 5.0)
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7) % classes).collect();
        DecisionTree::fit(&inputs, &labels, classes, &TreeConfig::default()).unwrap()
    }

    #[test]
    fn compiled_matches_enum_walk_on_a_grid() {
        let tree = fitted(200, 3, 5);
        let compiled = CompiledTree::compile(&tree).unwrap();
        for i in 0..500 {
            let x = [
                (i % 23) as f64 - 11.0,
                (i % 17) as f64 / 3.0 - 3.0,
                (i % 29) as f64 / 5.0 - 2.0,
            ];
            let expected = tree.predict(&x).unwrap();
            assert_eq!(compiled.predict(&x).unwrap(), expected);
            let leaf = (compiled.descend(&x) & !LEAF_BIT) as usize;
            assert_eq!(
                LeafId(compiled.leaf_node[leaf] as usize),
                tree.apply(&x).unwrap()
            );
        }
    }

    #[test]
    fn nan_routes_right_in_both_kernels() {
        let tree = fitted(120, 2, 4);
        let compiled = CompiledTree::compile(&tree).unwrap();
        for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
            for other in [-3.0, 0.0, 7.5, f64::NAN] {
                for x in [[hostile, other], [other, hostile]] {
                    let expected = tree.predict(&x).unwrap();
                    assert_eq!(compiled.predict(&x).unwrap(), expected, "x = {x:?}");
                }
            }
        }
    }

    #[test]
    fn batch_matches_single() {
        let tree = fitted(150, 3, 6);
        let compiled = CompiledTree::compile(&tree).unwrap();
        // 21 rows: exercises full waves and the ragged tail.
        let rows: Vec<f64> = (0..63).map(|i| (i % 19) as f64 / 2.0 - 4.0).collect();
        let mut out = Vec::new();
        compiled.predict_batch_into(&rows, &mut out).unwrap();
        assert_eq!(out.len(), 21);
        for (k, &got) in out.iter().enumerate() {
            assert_eq!(got, compiled.predict(&rows[k * 3..(k + 1) * 3]).unwrap());
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let tree = DecisionTree::fit(&[vec![1.0, 2.0]], &[3], 5, &TreeConfig::default()).unwrap();
        let compiled = CompiledTree::compile(&tree).unwrap();
        assert_eq!(compiled.split_count(), 0);
        assert_eq!(compiled.leaf_count(), 1);
        assert_eq!(compiled.predict(&[9.0, -9.0]).unwrap(), 3);
        let mut out = Vec::new();
        compiled
            .predict_batch_into(&[0.0, 0.0, 1.0, 1.0], &mut out)
            .unwrap();
        assert_eq!(out, vec![3, 3]);
    }

    #[test]
    fn malformed_trees_do_not_compile() {
        let cyclic = DecisionTree {
            nodes: vec![
                Node::Split {
                    feature: 0,
                    threshold: 1.0,
                    left: 1,
                    right: 1,
                },
                Node::Split {
                    feature: 0,
                    threshold: 1.0,
                    left: 0,
                    right: 0,
                },
            ],
            n_features: 1,
            n_classes: 2,
        };
        assert!(CompiledTree::compile(&cyclic).is_err());
    }

    #[test]
    fn artifact_roundtrips_and_rejects_tampering() {
        let tree = fitted(160, 3, 5);
        let compiled = CompiledTree::compile(&tree).unwrap();
        let text = compiled.to_compact_string();
        let restored = CompiledTree::from_compact_string(&text).unwrap();
        assert_eq!(compiled, restored);
        // Tampered variants must be rejected, not served.
        for tampered in [
            text.replace("ctree v1", "ctree v2"),
            text.replacen("N 0", "N 9", 1),
            text.lines().take(7).collect::<Vec<_>>().join("\n"),
            text.replacen("S1", "S0", 1),
        ] {
            if tampered == text {
                continue;
            }
            assert!(
                CompiledTree::from_compact_string(&tampered).is_err()
                    || CompiledTree::from_compact_string(&tampered).unwrap() != compiled,
                "tampered artifact accepted as identical: {tampered:?}"
            );
        }
    }
}
