//! # prosel-mart
//!
//! Multiple Additive Regression Trees (MART): stochastic gradient-boosted
//! regression trees, implemented from scratch per the paper's Section 4.2 —
//! least-squares loss, steepest-descent boosting in function space,
//! binary regression trees as the fitting function, with the paper's
//! training parameters as defaults (M = 200 boosting iterations, 30-leaf
//! trees).
//!
//! Split search is histogram-based: features are quantized once into at
//! most 256 quantile bins ([`BinnedDataset`], shared by every model
//! trained on the same feature matrix), trees grow best-first, and a
//! node's search walks one feature at a time over the node's rows, so it
//! costs O(rows), not O(bins) ([`tree`]). Everything is deterministic
//! given the boosting seed.
//!
//! ```
//! use prosel_mart::{BoostParams, Dataset, Mart};
//! let mut data = Dataset::new(1);
//! for i in 0..200 {
//!     let x = i as f32 / 20.0;
//!     data.push(&[x], x.sin());
//! }
//! let model = Mart::train(&data, &BoostParams::fast());
//! assert!((model.predict(&[1.5]) - 1.5f32.sin()).abs() < 0.2);
//! ```

pub mod boost;
pub mod dataset;
pub mod forest;
pub mod importance;
pub mod model_io;
pub mod textio;
pub mod tree;

pub use boost::{BoostParams, Mart};
pub use dataset::{BinnedDataset, Dataset, MAX_BINS};
pub use forest::Forest;
pub use importance::{greedy_forward_selection, project, rank_by_gain, SelectionStep};
pub use tree::{FitScratch, RegressionTree, TreeNode, TreeParams};
