//! The quantised multi-layer perceptron.
//!
//! The paper's model: binary frame features → a stack of
//! `QuantLinear → BatchNorm1d → QuantReLU` blocks → a final `QuantLinear`
//! producing class logits. Weight and activation bit-widths are uniform
//! across the network (the paper's design-space exploration selects 4-bit
//! for deployment).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::QnnError;
use crate::layers::{BatchNorm1d, QuantLinear, QuantReLU};
use crate::params::ParamTensor;
use crate::quant::BitWidth;
use crate::tensor::Matrix;

/// Topology and quantisation configuration of a [`QuantMlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Input feature dimension (75 for the paper's frame encoding).
    pub input_dim: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub classes: usize,
    /// Weight quantisation width.
    pub weight_bits: BitWidth,
    /// Activation quantisation width.
    pub act_bits: BitWidth,
    /// Insert batch norm between linear layers and activations.
    pub batch_norm: bool,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            input_dim: 75,
            hidden: vec![64, 32],
            classes: 2,
            weight_bits: BitWidth::W4,
            act_bits: BitWidth::W4,
            batch_norm: true,
            seed: 42,
        }
    }
}

impl MlpConfig {
    /// The paper's deployed 4-bit IDS configuration.
    pub fn paper_4bit() -> Self {
        MlpConfig::default()
    }

    /// The 8-bit GPU-reference configuration from the paper's energy
    /// comparison.
    pub fn gpu_8bit() -> Self {
        MlpConfig {
            weight_bits: BitWidth::W8,
            act_bits: BitWidth::W8,
            ..MlpConfig::default()
        }
    }

    /// Same topology at a different uniform bit-width (the DSE axis).
    pub fn with_bits(mut self, bits: BitWidth) -> Self {
        self.weight_bits = bits;
        self.act_bits = bits;
        self
    }
}

/// One hidden block: linear + optional batch norm + quantised ReLU.
#[derive(Debug, Clone)]
pub struct HiddenBlock {
    /// The weight-quantised linear layer.
    pub linear: QuantLinear,
    /// Optional batch normalisation (folded into thresholds at export).
    pub bn: Option<BatchNorm1d>,
    /// The activation quantizer.
    pub act: QuantReLU,
}

/// The quantisation-aware-trained MLP.
///
/// # Example
///
/// ```
/// use canids_qnn::mlp::{MlpConfig, QuantMlp};
/// use canids_qnn::tensor::Matrix;
///
/// let mut mlp = QuantMlp::new(MlpConfig::default())?;
/// let x = Matrix::zeros(4, 75);
/// let logits = mlp.forward(&x, false);
/// assert_eq!((logits.rows(), logits.cols()), (4, 2));
/// # Ok::<(), canids_qnn::QnnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantMlp {
    config: MlpConfig,
    blocks: Vec<HiddenBlock>,
    output: QuantLinear,
}

impl QuantMlp {
    /// Builds the network described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::EmptyTopology`] for zero classes or a zero
    /// input dimension.
    pub fn new(config: MlpConfig) -> Result<Self, QnnError> {
        if config.input_dim == 0 || config.classes == 0 {
            return Err(QnnError::EmptyTopology);
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut blocks = Vec::with_capacity(config.hidden.len());
        let mut prev = config.input_dim;
        for &width in &config.hidden {
            if width == 0 {
                return Err(QnnError::EmptyTopology);
            }
            blocks.push(HiddenBlock {
                linear: QuantLinear::new(prev, width, config.weight_bits, &mut rng),
                bn: config.batch_norm.then(|| BatchNorm1d::new(width)),
                act: QuantReLU::new(config.act_bits),
            });
            prev = width;
        }
        let output = QuantLinear::new(prev, config.classes, config.weight_bits, &mut rng);
        Ok(QuantMlp {
            config,
            blocks,
            output,
        })
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// The hidden blocks (read access for export/compilation).
    pub fn blocks(&self) -> &[HiddenBlock] {
        &self.blocks
    }

    /// The output layer (read access for export/compilation).
    pub fn output(&self) -> &QuantLinear {
        &self.output
    }

    /// Forward pass producing logits (`batch × classes`).
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut h = None;
        for block in &mut self.blocks {
            let input = h.as_ref().unwrap_or(x);
            let z = block.linear.forward(input, train);
            let z = match &mut block.bn {
                Some(bn) => bn.forward(&z, train),
                None => z,
            };
            h = Some(block.act.forward(&z, train));
        }
        let input = h.as_ref().unwrap_or(x);
        self.output.forward(input, train)
    }

    /// Backward pass from the logit gradient (after a training-mode
    /// forward). Accumulates parameter gradients in every layer.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let mut grad = self.output.backward(dlogits);
        for block in self.blocks.iter_mut().rev() {
            grad = block.act.backward(&grad);
            if let Some(bn) = &mut block.bn {
                grad = bn.backward(&grad);
            }
            grad = block.linear.backward(&grad);
        }
    }

    /// Clears all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for p in self.param_tensors_mut() {
            p.zero_grad();
        }
    }

    /// Mutable views of every trainable tensor, in a stable order
    /// (the optimiser keys its state on this order).
    pub fn param_tensors_mut(&mut self) -> Vec<&mut ParamTensor> {
        let mut out = Vec::new();
        for block in &mut self.blocks {
            out.extend(block.linear.params_mut());
            if let Some(bn) = &mut block.bn {
                out.extend(bn.params_mut());
            }
        }
        out.extend(self.output.params_mut());
        out
    }

    /// Eval-mode class predictions for a batch.
    pub fn predict_batch(&mut self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x, false);
        (0..logits.rows())
            .map(|r| {
                let row = logits.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.total_cmp(b))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Eval-mode class prediction for a single frame's features — the
    /// float-path counterpart of frame-at-a-time (streaming) serving.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` differs from the configured input dimension.
    pub fn predict_one(&mut self, x: &[f32]) -> usize {
        assert_eq!(x.len(), self.config.input_dim, "input dimension mismatch");
        let mut m = Matrix::zeros(1, x.len());
        m.row_mut(0).copy_from_slice(x);
        self.predict_batch(&m)[0]
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        let mut n = self.output.param_count();
        for b in &self.blocks {
            n += b.linear.param_count();
            if let Some(bn) = &b.bn {
                n += bn.param_count();
            }
        }
        n
    }

    /// Multiply-accumulate operations per inference.
    pub fn macs(&self) -> usize {
        self.blocks.iter().map(|b| b.linear.macs()).sum::<usize>() + self.output.macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_topology() {
        assert!(QuantMlp::new(MlpConfig {
            input_dim: 0,
            ..MlpConfig::default()
        })
        .is_err());
        assert!(QuantMlp::new(MlpConfig {
            classes: 0,
            ..MlpConfig::default()
        })
        .is_err());
        assert!(QuantMlp::new(MlpConfig {
            hidden: vec![16, 0],
            ..MlpConfig::default()
        })
        .is_err());
        assert!(QuantMlp::new(MlpConfig::default()).is_ok());
    }

    #[test]
    fn forward_shapes() {
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim: 10,
            hidden: vec![8, 6],
            classes: 3,
            ..MlpConfig::default()
        })
        .unwrap();
        let x = Matrix::zeros(5, 10);
        let y = mlp.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn no_hidden_layers_is_logistic_regression() {
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![],
            classes: 2,
            ..MlpConfig::default()
        })
        .unwrap();
        let y = mlp.forward(&Matrix::zeros(1, 4), false);
        assert_eq!(y.cols(), 2);
    }

    #[test]
    fn param_count_matches_topology() {
        let mlp = QuantMlp::new(MlpConfig {
            input_dim: 75,
            hidden: vec![64, 32],
            classes: 2,
            batch_norm: true,
            ..MlpConfig::default()
        })
        .unwrap();
        let expect = (75 * 64 + 64) + 2 * 64 + (64 * 32 + 32) + 2 * 32 + (32 * 2 + 2);
        assert_eq!(mlp.param_count(), expect);
        assert_eq!(mlp.macs(), 75 * 64 + 64 * 32 + 32 * 2);
    }

    #[test]
    fn training_step_reduces_simple_loss() {
        // One gradient step on a separable toy problem must reduce the loss.
        use crate::loss::softmax_cross_entropy;
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim: 2,
            hidden: vec![8],
            classes: 2,
            batch_norm: false,
            weight_bits: BitWidth::W8,
            act_bits: BitWidth::W8,
            seed: 3,
        })
        .unwrap();
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[0.0, 0.9], &[0.9, 0.0]]);
        let y = vec![0usize, 1, 0, 1];
        let logits = mlp.forward(&x, true);
        let (loss0, dlogits) = softmax_cross_entropy(&logits, &y, None).unwrap();
        mlp.zero_grad();
        mlp.backward(&dlogits);
        // Plain SGD step.
        for p in mlp.param_tensors_mut() {
            for (v, g) in p.data.iter_mut().zip(&p.grad) {
                *v -= 0.5 * g;
            }
        }
        let logits = mlp.forward(&x, true);
        let (loss1, _) = softmax_cross_entropy(&logits, &y, None).unwrap();
        assert!(loss1 < loss0, "{loss1} !< {loss0}");
    }

    #[test]
    fn predict_batch_returns_argmax() {
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim: 3,
            hidden: vec![4],
            classes: 2,
            ..MlpConfig::default()
        })
        .unwrap();
        let x = Matrix::zeros(7, 3);
        let preds = mlp.predict_batch(&x);
        assert_eq!(preds.len(), 7);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn predict_one_matches_predict_batch() {
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![6],
            classes: 3,
            seed: 9,
            ..MlpConfig::default()
        })
        .unwrap();
        let rows: [&[f32]; 3] = [&[0.0, 1.0, 0.0, 1.0], &[1.0; 4], &[0.25, 0.5, 0.75, 1.0]];
        let batch = Matrix::from_rows(&rows);
        let batched = mlp.predict_batch(&batch);
        for (row, &want) in rows.iter().zip(&batched) {
            assert_eq!(mlp.predict_one(row), want);
        }
    }

    #[test]
    fn stable_param_order() {
        let mut mlp = QuantMlp::new(MlpConfig::default()).unwrap();
        let lens_a: Vec<usize> = mlp.param_tensors_mut().iter().map(|p| p.len()).collect();
        let lens_b: Vec<usize> = mlp.param_tensors_mut().iter().map(|p| p.len()).collect();
        assert_eq!(lens_a, lens_b);
        // linear w, linear b, bn gamma, bn beta, ... output w, output b.
        assert_eq!(lens_a[0], 75 * 64);
        assert_eq!(lens_a[1], 64);
        assert_eq!(lens_a[2], 64);
        assert_eq!(*lens_a.last().unwrap(), 2);
    }

    #[test]
    fn same_seed_same_model() {
        let a = QuantMlp::new(MlpConfig::default()).unwrap();
        let b = QuantMlp::new(MlpConfig::default()).unwrap();
        assert_eq!(
            a.blocks()[0].linear.weight().data,
            b.blocks()[0].linear.weight().data
        );
    }
}
