//! Quantisation-aware training (QAT) for the CAN-IDS multi-layer
//! perceptrons — the Rust equivalent of the paper's Brevitas/PyTorch
//! training flow.
//!
//! * [`tensor`] — dense-matrix kernels sized for MLP training,
//! * [`quant`] — uniform weight/activation quantizers with
//!   straight-through estimators,
//! * [`layers`] — `QuantLinear`, `BatchNorm1d`, `QuantReLU`,
//! * [`mlp`] — the network: blocks of linear+BN+quantised-ReLU,
//! * [`loss`]/[`optim`]/[`trainer`] — class-weighted cross-entropy, SGD /
//!   Adam, and the training loop,
//! * [`metrics`] — the precision/recall/F1/FNR quartet of Table I,
//! * [`export`] — FINN-style streamlining to an integer-only
//!   MultiThreshold network ([`IntegerMlp`]), bit-exact by construction
//!   and consumed by the `canids-dataflow` hardware compiler,
//! * [`kernel`] — [`kernel::PackedMlp`], the same network compiled onto
//!   a packed `i8`-weight, `i32`-accumulator datapath that serves every
//!   frame.
//!
//! # Example
//!
//! ```
//! use canids_qnn::prelude::*;
//!
//! // Train a small 4-bit model on a toy separable problem, then
//! // streamline it to integer-only form.
//! let xs: Vec<Vec<f32>> = (0..128)
//!     .map(|i| vec![(i % 2) as f32, ((i + 1) % 2) as f32, 0.0, 1.0])
//!     .collect();
//! let ys: Vec<usize> = (0..128).map(|i| i % 2).collect();
//! let mut mlp = QuantMlp::new(MlpConfig {
//!     input_dim: 4,
//!     hidden: vec![8],
//!     ..MlpConfig::default()
//! })?;
//! Trainer::new(TrainConfig {
//!     epochs: 10,
//!     lr: 1e-2,
//!     ..TrainConfig::default()
//! })
//! .fit(&mut mlp, &xs, &ys)?;
//! let int_mlp = mlp.export()?;
//! assert_eq!(int_mlp.infer(&[1, 0, 0, 1]).class, 1);
//! # Ok::<(), canids_qnn::QnnError>(())
//! ```

pub mod error;
pub mod export;
pub mod kernel;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod params;
pub mod quant;
pub mod tensor;
pub mod trainer;

pub use error::QnnError;
pub use export::{IntBlock, IntOutput, IntPrediction, IntegerMlp, BIAS_SHIFT};
pub use metrics::ConfusionMatrix;
pub use mlp::{MlpConfig, QuantMlp};
pub use quant::{ActQuantizer, BitWidth, WeightQuantizer};
pub use tensor::Matrix;
pub use trainer::{evaluate, TrainConfig, TrainReport, Trainer};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::error::QnnError;
    pub use crate::export::{IntPrediction, IntegerMlp};
    pub use crate::metrics::ConfusionMatrix;
    pub use crate::mlp::{MlpConfig, QuantMlp};
    pub use crate::optim::OptimizerKind;
    pub use crate::quant::BitWidth;
    pub use crate::tensor::Matrix;
    pub use crate::trainer::{evaluate, TrainConfig, TrainReport, Trainer};
}
