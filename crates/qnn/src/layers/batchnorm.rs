//! 1-D batch normalisation.
//!
//! Placed between each quantised linear layer and its activation
//! quantizer (the standard Brevitas/FINN MLP block); at export time the
//! affine transform folds into the integer thresholds, so batch norm is
//! free in hardware.

use crate::params::ParamTensor;
use crate::tensor::Matrix;

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Matrix,
    inv_std: Vec<f32>,
}

/// Batch normalisation over the feature dimension of a `batch × features`
/// activation matrix.
///
/// # Example
///
/// ```
/// use canids_qnn::layers::BatchNorm1d;
/// use canids_qnn::tensor::Matrix;
///
/// let mut bn = BatchNorm1d::new(2);
/// let x = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]);
/// let y = bn.forward(&x, true);
/// // Each feature is normalised to zero mean.
/// assert!((y[(0, 0)] + y[(1, 0)]).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    dim: usize,
    gamma: ParamTensor,
    beta: ParamTensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `dim` features (γ=1, β=0).
    pub fn new(dim: usize) -> Self {
        BatchNorm1d {
            dim,
            gamma: ParamTensor::from_values(vec![1.0; dim]),
            beta: ParamTensor::zeros(dim),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.9,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Scale parameters (γ).
    pub fn gamma(&self) -> &ParamTensor {
        &self.gamma
    }

    /// Shift parameters (β).
    pub fn beta(&self) -> &ParamTensor {
        &self.beta
    }

    /// Running mean (eval statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance (eval statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The per-feature affine form used at export time:
    /// `y = g * x + c` with `g = γ/√(var+ε)`, `c = β − g·mean`.
    pub fn eval_affine(&self) -> (Vec<f64>, Vec<f64>) {
        let mut g = Vec::with_capacity(self.dim);
        let mut c = Vec::with_capacity(self.dim);
        for j in 0..self.dim {
            let gj = f64::from(self.gamma.data[j])
                / (f64::from(self.running_var[j]) + f64::from(self.eps)).sqrt();
            g.push(gj);
            c.push(f64::from(self.beta.data[j]) - gj * f64::from(self.running_mean[j]));
        }
        (g, c)
    }

    /// Forward pass. Training mode uses batch statistics and updates the
    /// running estimates; eval mode uses the running estimates.
    ///
    /// # Panics
    ///
    /// Panics when `x.cols() != dim`.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        assert_eq!(x.cols(), self.dim, "feature dimension mismatch");
        let n = x.rows().max(1);
        let mut y = Matrix::zeros(x.rows(), x.cols());
        if train {
            let mut mean = vec![0.0f32; self.dim];
            let mut var = vec![0.0f32; self.dim];
            for r in 0..x.rows() {
                for (j, m) in mean.iter_mut().enumerate() {
                    *m += x[(r, j)];
                }
            }
            mean.iter_mut().for_each(|m| *m /= n as f32);
            for r in 0..x.rows() {
                for (j, v) in var.iter_mut().enumerate() {
                    let d = x[(r, j)] - mean[j];
                    *v += d * d;
                }
            }
            var.iter_mut().for_each(|v| *v /= n as f32);

            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            let mut xhat = Matrix::zeros(x.rows(), x.cols());
            for r in 0..x.rows() {
                for j in 0..self.dim {
                    let h = (x[(r, j)] - mean[j]) * inv_std[j];
                    xhat[(r, j)] = h;
                    y[(r, j)] = self.gamma.data[j] * h + self.beta.data[j];
                }
            }
            for j in 0..self.dim {
                self.running_mean[j] =
                    self.momentum * self.running_mean[j] + (1.0 - self.momentum) * mean[j];
                self.running_var[j] =
                    self.momentum * self.running_var[j] + (1.0 - self.momentum) * var[j];
            }
            self.cache = Some(BnCache { xhat, inv_std });
        } else {
            for r in 0..x.rows() {
                for j in 0..self.dim {
                    let h = (x[(r, j)] - self.running_mean[j])
                        / (self.running_var[j] + self.eps).sqrt();
                    y[(r, j)] = self.gamma.data[j] * h + self.beta.data[j];
                }
            }
        }
        y
    }

    /// Backward pass (training mode), returning the input gradient.
    ///
    /// # Panics
    ///
    /// Panics when called without a preceding training-mode forward.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self
            .cache
            .take()
            // lint:allow(panic-in-lib): documented `# Panics` contract; the trainer always runs a training-mode forward first
            .expect("backward requires a training-mode forward");
        let n = dy.rows().max(1) as f32;
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());

        // Per-feature reductions.
        let mut sum_dy = vec![0.0f32; self.dim];
        let mut sum_dy_xhat = vec![0.0f32; self.dim];
        for r in 0..dy.rows() {
            for j in 0..self.dim {
                let g = dy[(r, j)];
                sum_dy[j] += g;
                sum_dy_xhat[j] += g * cache.xhat[(r, j)];
                self.beta.grad[j] += g;
                self.gamma.grad[j] += g * cache.xhat[(r, j)];
            }
        }
        for r in 0..dy.rows() {
            for j in 0..self.dim {
                let dxhat = dy[(r, j)] * self.gamma.data[j];
                let term = n * dxhat
                    - self.gamma.data[j] * sum_dy[j]
                    - cache.xhat[(r, j)] * self.gamma.data[j] * sum_dy_xhat[j];
                dx[(r, j)] = cache.inv_std[j] * term / n;
            }
        }
        dx
    }

    /// Mutable views of γ and β, in stable order.
    pub fn params_mut(&mut self) -> [&mut ParamTensor; 2] {
        [&mut self.gamma, &mut self.beta]
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        2 * self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 100.0, -3.0],
            &[2.0, 110.0, -1.0],
            &[3.0, 120.0, 1.0],
            &[4.0, 130.0, 3.0],
        ])
    }

    #[test]
    fn training_normalises_batch() {
        let mut bn = BatchNorm1d::new(3);
        let y = bn.forward(&sample(), true);
        for j in 0..3 {
            let mean: f32 = (0..4).map(|r| y[(r, j)]).sum::<f32>() / 4.0;
            let var: f32 = (0..4).map(|r| (y[(r, j)] - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_approach_batch_stats() {
        let mut bn = BatchNorm1d::new(3);
        for _ in 0..60 {
            let _ = bn.forward(&sample(), true);
        }
        assert!((bn.running_mean()[0] - 2.5).abs() < 0.1);
        assert!((bn.running_mean()[1] - 115.0).abs() < 2.0);
        // Batch variance of feature 0 is 1.25.
        assert!((bn.running_var()[0] - 1.25).abs() < 0.15);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(3);
        for _ in 0..60 {
            let _ = bn.forward(&sample(), true);
        }
        let y = bn.forward(&sample(), false);
        // Feature 0, row 0: (1 - 2.5)/sqrt(1.25) ≈ -1.34.
        assert!((y[(0, 0)] + 1.34).abs() < 0.1, "got {}", y[(0, 0)]);
    }

    #[test]
    fn eval_affine_matches_eval_forward() {
        let mut bn = BatchNorm1d::new(3);
        for _ in 0..30 {
            let _ = bn.forward(&sample(), true);
        }
        let (g, c) = bn.eval_affine();
        let x = sample();
        let y = bn.forward(&x, false);
        for r in 0..4 {
            for j in 0..3 {
                let expect = g[j] * f64::from(x[(r, j)]) + c[j];
                assert!((f64::from(y[(r, j)]) - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn backward_gradient_check() {
        // Numeric gradient through the full training-mode forward, with a
        // non-uniform upstream gradient (a uniform one is annihilated by
        // the batch-mean subtraction and would make the check vacuous).
        let weights: Vec<f32> = vec![0.7, -1.2, 0.3, 2.0, -0.5, 1.1];
        let loss =
            |y: &Matrix| -> f32 { y.as_slice().iter().zip(&weights).map(|(v, w)| v * w).sum() };
        let fresh = || {
            let mut bn = BatchNorm1d::new(2);
            bn.gamma.data = vec![1.3, 0.7];
            bn.beta.data = vec![0.1, -0.2];
            bn
        };
        let x = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 2.0], &[-0.5, 0.3]]);
        let mut bn = fresh();
        let _ = bn.forward(&x, true);
        let dy = Matrix::from_vec(3, 2, weights.clone());
        let dx = bn.backward(&dy);
        let eps = 1e-3f32;
        for r in 0..3 {
            for j in 0..2 {
                let mut xp = x.clone();
                xp[(r, j)] += eps;
                let mut xm = x.clone();
                xm[(r, j)] -= eps;
                let fp = loss(&fresh().forward(&xp, true));
                let fm = loss(&fresh().forward(&xm, true));
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (dx[(r, j)] - numeric).abs() < 2e-2,
                    "dx[{r}][{j}] = {} vs {numeric}",
                    dx[(r, j)]
                );
            }
        }
    }

    #[test]
    fn param_grads_accumulate() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let _ = bn.forward(&x, true);
        let dy = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let _ = bn.backward(&dy);
        // dβ = Σ dy = 2 per feature.
        assert!((bn.beta().grad[0] - 2.0).abs() < 1e-5);
        // dγ = Σ dy·x̂ = 0 for symmetric x̂.
        assert!(bn.gamma().grad[0].abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "training-mode forward")]
    fn backward_without_forward_panics() {
        let mut bn = BatchNorm1d::new(2);
        let _ = bn.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "feature dimension")]
    fn forward_validates_dim() {
        let mut bn = BatchNorm1d::new(2);
        let _ = bn.forward(&Matrix::zeros(1, 3), true);
    }
}
