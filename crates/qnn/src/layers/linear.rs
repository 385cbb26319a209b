//! Weight-quantised fully-connected layer.

use rand::rngs::StdRng;
use rand::Rng;

use crate::params::ParamTensor;
use crate::quant::{BitWidth, WeightQuantizer};
use crate::tensor::{linear_backward_input, linear_backward_params, linear_forward, Matrix};

/// A fully-connected layer whose weights are fake-quantised to a symmetric
/// integer grid on every forward pass (quantisation-aware training).
///
/// The backward pass uses the straight-through estimator: gradients flow
/// to the latent full-precision weights unchanged.
///
/// # Example
///
/// ```
/// use canids_qnn::layers::QuantLinear;
/// use canids_qnn::quant::BitWidth;
/// use canids_qnn::tensor::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut layer = QuantLinear::new(4, 2, BitWidth::W4, &mut rng);
/// let x = Matrix::zeros(3, 4);
/// let y = layer.forward(&x, false);
/// assert_eq!((y.rows(), y.cols()), (3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct QuantLinear {
    in_dim: usize,
    out_dim: usize,
    weight: ParamTensor,
    bias: ParamTensor,
    quantizer: WeightQuantizer,
    /// Quantised weights from the latest forward (used by backward and
    /// inspection).
    wq: Matrix,
    cache_x: Option<Matrix>,
}

impl QuantLinear {
    /// Creates a layer with Kaiming-uniform initialisation.
    pub fn new(in_dim: usize, out_dim: usize, bits: BitWidth, rng: &mut StdRng) -> Self {
        let bound = (6.0 / in_dim.max(1) as f32).sqrt();
        let weight = ParamTensor::from_values(
            (0..in_dim * out_dim)
                .map(|_| rng.gen_range(-bound..=bound))
                .collect(),
        );
        let bias = ParamTensor::zeros(out_dim);
        QuantLinear {
            in_dim,
            out_dim,
            weight,
            bias,
            quantizer: WeightQuantizer::new(bits),
            wq: Matrix::zeros(out_dim, in_dim),
            cache_x: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight quantizer.
    pub fn quantizer(&self) -> WeightQuantizer {
        self.quantizer
    }

    /// Latent full-precision weights (`out × in`, flattened row-major).
    pub fn weight(&self) -> &ParamTensor {
        &self.weight
    }

    /// Bias values.
    pub fn bias(&self) -> &ParamTensor {
        &self.bias
    }

    /// Quantises the current weights and returns `(codes, scale)` where
    /// `weight ≈ code * scale`; the form consumed by the hardware export.
    pub fn int_weights(&self) -> (Vec<i32>, f32) {
        let scale = self.quantizer.scale(&self.weight.data);
        let codes = self
            .weight
            .data
            .iter()
            .map(|&w| self.quantizer.to_int(w, scale))
            .collect();
        (codes, scale)
    }

    /// Forward pass: `y = x · quant(W)ᵀ + b`.
    ///
    /// Both modes run the pinned-order [`linear_forward`] kernel, so
    /// training and evaluation share one float summation order. In
    /// training mode the input is also cached for the backward pass.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        self.quantizer
            .fake_quantize(&self.weight.data, self.wq.as_mut_slice());
        if train {
            self.cache_x = Some(x.clone());
        }
        linear_forward(x, &self.wq, &self.bias.data)
    }

    /// Backward pass: accumulates parameter gradients (STE for the
    /// quantised weights) and returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics when called without a preceding training-mode forward.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self
            .cache_x
            .take()
            // lint:allow(panic-in-lib): documented `# Panics` contract; the trainer always runs a training-mode forward first
            .expect("backward requires a training-mode forward");
        linear_backward_params(dy, &x, &mut self.weight.grad, &mut self.bias.grad);
        linear_backward_input(dy, &self.wq)
    }

    /// Mutable views of the layer's trainable tensors, in stable order.
    pub fn params_mut(&mut self) -> [&mut ParamTensor; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Multiply-accumulate operations per input sample.
    pub fn macs(&self) -> usize {
        self.in_dim * self.out_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn layer(in_dim: usize, out_dim: usize) -> QuantLinear {
        let mut rng = StdRng::seed_from_u64(7);
        QuantLinear::new(in_dim, out_dim, BitWidth::W4, &mut rng)
    }

    #[test]
    fn forward_uses_quantised_weights() {
        let mut l = layer(8, 4);
        let x = Matrix::from_vec(1, 8, vec![1.0; 8]);
        let y = l.forward(&x, false);
        // Recompute manually from int weights.
        let (codes, scale) = l.int_weights();
        for o in 0..4 {
            let expect: f32 = (0..8).map(|k| codes[o * 8 + k] as f32 * scale).sum();
            assert!((y[(0, o)] - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_flow_via_ste() {
        let mut l = layer(4, 2);
        let x = Matrix::from_vec(2, 4, vec![0.5; 8]);
        let _ = l.forward(&x, true);
        let dy = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let dx = l.backward(&dy);
        assert_eq!((dx.rows(), dx.cols()), (2, 4));
        // Weight gradient: dW[o][k] = sum_b dy[b][o] * x[b][k] = 2 * 0.5 = 1.
        for g in &l.weight().grad {
            assert!((g - 1.0).abs() < 1e-5);
        }
        // Bias gradient: batch size.
        for g in &l.bias().grad {
            assert!((g - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "training-mode forward")]
    fn backward_without_forward_panics() {
        let mut l = layer(4, 2);
        let dy = Matrix::zeros(1, 2);
        let _ = l.backward(&dy);
    }

    #[test]
    fn int_weights_in_narrow_range() {
        let l = layer(16, 8);
        let (codes, scale) = l.int_weights();
        assert!(scale > 0.0);
        assert!(codes.iter().all(|&c| (-7..=7).contains(&c)));
        assert!(codes.iter().any(|&c| c != 0), "init should be nonzero");
    }

    #[test]
    fn deterministic_init_from_seed() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = QuantLinear::new(5, 3, BitWidth::W4, &mut r1);
        let b = QuantLinear::new(5, 3, BitWidth::W4, &mut r2);
        assert_eq!(a.weight().data, b.weight().data);
    }

    #[test]
    fn counters() {
        let l = layer(75, 64);
        assert_eq!(l.param_count(), 75 * 64 + 64);
        assert_eq!(l.macs(), 75 * 64);
        assert_eq!(l.in_dim(), 75);
        assert_eq!(l.out_dim(), 64);
    }
}
