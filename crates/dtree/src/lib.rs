//! From-scratch CART classification trees with structural introspection.
//!
//! The paper fits its policy with scikit-learn's CART ("we left the depth
//! unbounded, and the split threshold was set to its default value",
//! Section 4.1), then *verifies and edits* the tree: Algorithm 1 walks
//! every root-to-leaf path, intersects the axis-aligned "boxes" induced
//! by the decision rules, and rewrites the setpoints of leaves that can
//! be reached from unsafe regions. That workflow needs more than
//! `fit`/`predict` — it needs:
//!
//! * stable node identifiers and parent/child navigation,
//! * per-leaf **input boxes** ([`InputBox`]) describing exactly which
//!   subset of the input space a leaf handles,
//! * in-place **leaf editing** ([`DecisionTree::set_leaf_class`]), and
//! * human-readable export (the interpretability story of the paper).
//!
//! # Example
//!
//! ```
//! use hvac_dtree::{DecisionTree, TreeConfig};
//!
//! # fn main() -> Result<(), hvac_dtree::TreeError> {
//! // Two clusters in 1-D: x < 0.5 → class 0, x ≥ 0.5 → class 1.
//! let inputs = vec![vec![0.1], vec![0.2], vec![0.8], vec![0.9]];
//! let labels = vec![0, 0, 1, 1];
//! let tree = DecisionTree::fit(&inputs, &labels, 2, &TreeConfig::default())?;
//! assert_eq!(tree.predict(&[0.0])?, 0);
//! assert_eq!(tree.predict(&[1.0])?, 1);
//! // Every leaf knows its box:
//! for leaf in tree.leaves() {
//!     let b = tree.leaf_box(leaf)?;
//!     assert_eq!(b.dims(), 1);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod export;
pub mod fit;
pub mod interval;
pub mod serialize;
pub mod tree;

pub use error::TreeError;
pub use interval::{InputBox, Interval};
pub use tree::{DecisionTree, LeafId, Node, NodeId, TreeConfig};
