//! Quantised ReLU activation.

use crate::quant::{ActQuantizer, BitWidth};
use crate::tensor::Matrix;

/// ReLU fused with an unsigned uniform activation quantizer — the
/// `QuantReLU` of Brevitas. In hardware this becomes a per-neuron
/// MultiThreshold unit (see `canids-dataflow`).
///
/// # Example
///
/// ```
/// use canids_qnn::layers::QuantReLU;
/// use canids_qnn::quant::BitWidth;
/// use canids_qnn::tensor::Matrix;
///
/// let mut act = QuantReLU::new(BitWidth::W4);
/// let z = Matrix::from_rows(&[&[-1.0, 0.5, 9.9]]);
/// let y = act.forward(&z, true);
/// assert_eq!(y[(0, 0)], 0.0); // negatives clamp to zero
/// assert!(y[(0, 2)] <= act.quantizer().running_max() + 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct QuantReLU {
    quantizer: ActQuantizer,
    cache_z: Option<Matrix>,
}

impl QuantReLU {
    /// Creates a quantised ReLU of the given activation width.
    pub fn new(bits: BitWidth) -> Self {
        QuantReLU {
            quantizer: ActQuantizer::new(bits),
            cache_z: None,
        }
    }

    /// The activation quantizer (scale, ceiling, levels).
    pub fn quantizer(&self) -> &ActQuantizer {
        &self.quantizer
    }

    /// Forward pass. Training mode first updates the calibration
    /// statistics, then quantises; the pre-activations are cached for the
    /// straight-through backward pass.
    pub fn forward(&mut self, z: &Matrix, train: bool) -> Matrix {
        if train {
            self.quantizer.observe(z.as_slice());
            self.cache_z = Some(z.clone());
        }
        let mut y = Matrix::zeros(z.rows(), z.cols());
        for (o, &v) in y.as_mut_slice().iter_mut().zip(z.as_slice()) {
            *o = self.quantizer.fake_quantize(v);
        }
        y
    }

    /// Backward pass: clipped straight-through estimator.
    ///
    /// # Panics
    ///
    /// Panics when called without a preceding training-mode forward.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let z = self
            .cache_z
            .take()
            // lint:allow(panic-in-lib): documented `# Panics` contract; the trainer always runs a training-mode forward first
            .expect("backward requires a training-mode forward");
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        for ((o, &g), &v) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(dy.as_slice())
            .zip(z.as_slice())
        {
            *o = g * self.quantizer.ste_mask(v);
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_levels_are_multiples_of_scale() {
        let mut act = QuantReLU::new(BitWidth::W4);
        let z = Matrix::from_rows(&[&[0.1, 0.9, 1.7, 2.5, 3.3]]);
        let y = act.forward(&z, true);
        let s = act.quantizer().scale();
        for &v in y.as_slice() {
            let level = v / s;
            assert!((level - level.round()).abs() < 1e-4, "level {level}");
        }
    }

    #[test]
    fn negatives_zeroed_and_grad_blocked() {
        let mut act = QuantReLU::new(BitWidth::W4);
        // Calibrate the ceiling above the probe value first.
        let _ = act.forward(&Matrix::from_rows(&[&[2.0]]), true);
        let z = Matrix::from_rows(&[&[-2.0, 1.0]]);
        let y = act.forward(&z, true);
        assert_eq!(y[(0, 0)], 0.0);
        let dy = Matrix::from_rows(&[&[1.0, 1.0]]);
        let dx = act.backward(&dy);
        assert_eq!(dx[(0, 0)], 0.0);
        assert_eq!(dx[(0, 1)], 1.0);
    }

    #[test]
    fn grad_blocked_above_ceiling() {
        let mut act = QuantReLU::new(BitWidth::W4);
        let _ = act.forward(&Matrix::from_rows(&[&[2.0]]), true);
        // Ceiling calibrated to 2.0; values above it saturate.
        let z = Matrix::from_rows(&[&[5.0, 1.0]]);
        let _ = act.forward(&z, true);
        let dy = Matrix::from_rows(&[&[1.0, 1.0]]);
        let dx = act.backward(&dy);
        assert_eq!(dx[(0, 0)], 0.0, "saturated activation blocks gradient");
        assert!(dx[(0, 1)] > 0.0);
    }

    #[test]
    fn eval_mode_does_not_recalibrate() {
        let mut act = QuantReLU::new(BitWidth::W4);
        let _ = act.forward(&Matrix::from_rows(&[&[2.0]]), true);
        let ceiling = act.quantizer().running_max();
        let _ = act.forward(&Matrix::from_rows(&[&[100.0]]), false);
        assert_eq!(act.quantizer().running_max(), ceiling);
    }

    #[test]
    #[should_panic(expected = "training-mode forward")]
    fn backward_without_forward_panics() {
        let mut act = QuantReLU::new(BitWidth::W4);
        let _ = act.backward(&Matrix::zeros(1, 1));
    }

    #[test]
    fn one_bit_acts_are_binary() {
        let mut act = QuantReLU::new(BitWidth::W1);
        let z = Matrix::from_rows(&[&[0.9, 0.1, -0.5]]);
        let y = act.forward(&z, true);
        let s = act.quantizer().scale();
        for &v in y.as_slice() {
            assert!(v == 0.0 || (v - s).abs() < 1e-6);
        }
    }
}
