//! Error types.

use std::error::Error;
use std::fmt;

/// Error type for decision-tree operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TreeError {
    /// Fitting was invoked with no samples.
    EmptyDataset,
    /// Inputs and labels had different lengths.
    LengthMismatch {
        /// Number of input rows.
        inputs: usize,
        /// Number of labels.
        labels: usize,
    },
    /// Input rows had inconsistent widths.
    RaggedInputs {
        /// Width of the first row.
        expected: usize,
        /// Width of the offending row.
        got: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// A label was `>= n_classes`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The declared number of classes.
        n_classes: usize,
    },
    /// `n_classes` was zero.
    NoClasses,
    /// A feature value was NaN (trees cannot order NaNs).
    NanFeature {
        /// Row containing the NaN.
        row: usize,
        /// Feature column containing the NaN.
        feature: usize,
    },
    /// A prediction input had the wrong width.
    BadInputWidth {
        /// Expected width.
        expected: usize,
        /// Supplied width.
        got: usize,
    },
    /// A node id did not identify the expected kind of node.
    NotALeaf {
        /// The offending node id.
        id: usize,
    },
    /// A node id was out of range.
    BadNodeId {
        /// The offending node id.
        id: usize,
        /// Number of nodes in the tree.
        nodes: usize,
    },
    /// A class id written to a leaf was `>= n_classes`.
    BadClass {
        /// The offending class.
        class: usize,
        /// The declared number of classes.
        n_classes: usize,
    },
    /// Tree configuration was invalid (e.g. `min_samples_split < 2`).
    BadConfig {
        /// Description of the problem.
        what: &'static str,
    },
    /// A split node referenced a child index `>= nodes.len()`.
    ChildOutOfRange {
        /// The split node holding the reference.
        node: usize,
        /// The out-of-range child index.
        child: usize,
        /// Number of nodes in the tree.
        nodes: usize,
    },
    /// Following child links revisited a node: the graph has a cycle
    /// and traversal would never terminate.
    CycleDetected {
        /// The first node seen twice.
        node: usize,
    },
    /// A node is not reachable from the root — the node list is not a
    /// single tree rooted at node 0.
    UnreachableNode {
        /// The unreachable node id.
        node: usize,
    },
    /// A node's in-degree is wrong (the root referenced, or a non-root
    /// node referenced zero or more than one time): the node graph is
    /// not a tree.
    NotATree {
        /// The node with the bad in-degree.
        node: usize,
    },
    /// A split node tested a feature `>= n_features`.
    FeatureOutOfRange {
        /// The offending split node.
        node: usize,
        /// The out-of-range feature index.
        feature: usize,
        /// The tree's declared feature count.
        n_features: usize,
    },
    /// A split threshold was NaN or infinite. `x <= NaN` is false for
    /// every `x`, so a non-finite threshold silently routes all traffic
    /// right — rejected at validation instead.
    NonFiniteThreshold {
        /// The offending split node.
        node: usize,
    },
    /// The tree exceeds a structural limit of the compiled flat layout
    /// (feature index beyond `u16`, class beyond 31 bits, …).
    TooLargeToCompile {
        /// Which limit was exceeded.
        what: &'static str,
    },
    /// The lock-step walk of a tree and its compiled kernel found a node
    /// pair that breaks an equivalence invariant — the compiled form is
    /// not eligible to serve.
    KernelMismatch {
        /// Source-tree node of the pair; `None` when no tree node
        /// reaches the kernel node (`unreachable`).
        node: Option<usize>,
        /// Kernel node in the artifact's notation (`S<i>` / `L<j>`).
        cursor: String,
        /// The invariant that failed: `kind`, `feature`, `threshold`,
        /// `class`, `source node`, `shared`, `unreachable`, `width` or
        /// `classes`.
        invariant: &'static str,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EmptyDataset => write!(f, "cannot fit a tree on an empty dataset"),
            TreeError::LengthMismatch { inputs, labels } => {
                write!(f, "length mismatch: {inputs} inputs vs {labels} labels")
            }
            TreeError::RaggedInputs { expected, got, row } => {
                write!(f, "row {row} has width {got}, expected {expected}")
            }
            TreeError::LabelOutOfRange { label, n_classes } => {
                write!(f, "label {label} out of range for {n_classes} classes")
            }
            TreeError::NoClasses => write!(f, "n_classes must be at least 1"),
            TreeError::NanFeature { row, feature } => {
                write!(f, "NaN feature value at row {row}, feature {feature}")
            }
            TreeError::BadInputWidth { expected, got } => {
                write!(
                    f,
                    "input width {got} does not match tree's {expected} features"
                )
            }
            TreeError::NotALeaf { id } => write!(f, "node {id} is not a leaf"),
            TreeError::BadNodeId { id, nodes } => {
                write!(f, "node id {id} out of range ({nodes} nodes)")
            }
            TreeError::BadClass { class, n_classes } => {
                write!(f, "class {class} out of range for {n_classes} classes")
            }
            TreeError::BadConfig { what } => write!(f, "bad tree configuration: {what}"),
            TreeError::ChildOutOfRange { node, child, nodes } => {
                write!(
                    f,
                    "split node {node} references child {child}, out of range ({nodes} nodes)"
                )
            }
            TreeError::CycleDetected { node } => {
                write!(f, "node graph has a cycle through node {node}")
            }
            TreeError::UnreachableNode { node } => {
                write!(f, "node {node} is unreachable from the root")
            }
            TreeError::NotATree { node } => {
                write!(
                    f,
                    "node {node} has the wrong in-degree: node graph is not a tree rooted at 0"
                )
            }
            TreeError::FeatureOutOfRange {
                node,
                feature,
                n_features,
            } => {
                write!(
                    f,
                    "split node {node} tests feature {feature}, out of range \
                     ({n_features} features)"
                )
            }
            TreeError::NonFiniteThreshold { node } => {
                write!(f, "split node {node} has a non-finite threshold")
            }
            TreeError::TooLargeToCompile { what } => {
                write!(f, "tree exceeds compiled-layout limit: {what}")
            }
            TreeError::KernelMismatch {
                node,
                cursor,
                invariant,
            } => {
                write!(
                    f,
                    "compiled kernel breaks the {invariant} invariant at {cursor}"
                )?;
                match node {
                    Some(node) => write!(f, " (tree node {node})"),
                    None => write!(f, " (no tree node reaches it)"),
                }
            }
        }
    }
}

impl Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_nonempty() {
        let errs = [
            TreeError::EmptyDataset,
            TreeError::LengthMismatch {
                inputs: 1,
                labels: 2,
            },
            TreeError::RaggedInputs {
                expected: 3,
                got: 2,
                row: 5,
            },
            TreeError::LabelOutOfRange {
                label: 9,
                n_classes: 4,
            },
            TreeError::NoClasses,
            TreeError::NanFeature { row: 0, feature: 1 },
            TreeError::BadInputWidth {
                expected: 6,
                got: 5,
            },
            TreeError::NotALeaf { id: 0 },
            TreeError::BadNodeId { id: 10, nodes: 3 },
            TreeError::BadClass {
                class: 4,
                n_classes: 2,
            },
            TreeError::BadConfig {
                what: "min_samples_split < 2",
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TreeError>();
    }
}
