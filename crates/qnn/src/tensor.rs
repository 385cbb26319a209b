//! Minimal dense-matrix kernels for MLP training.
//!
//! Everything the trainer needs reduces to three fused linear-layer
//! kernels, each written so the inner loop walks contiguous rows
//! (`x` rows and `W` rows are both contiguous in the `y = x Wᵀ + b`
//! layout), which keeps the pure-Rust implementation within a small
//! factor of a BLAS on these layer sizes.

use std::fmt;

/// A row-major `rows × cols` matrix of `f32`.
///
/// # Example
///
/// ```
/// use canids_qnn::tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics when rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fills the matrix with zeros (reuse between minibatches).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, " [")?;
            for c in 0..self.cols.min(12) {
                write!(f, " {:8.4}", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 12 { " …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

/// `y = x · Wᵀ + b` — the linear-layer forward pass.
///
/// Shapes: `x` is `batch × in`, `w` is `out × in`, `b` has `out` entries;
/// the result is `batch × out`.
///
/// The kernel blocks eight output neurons against each cached input row,
/// giving eight independent accumulation chains per inner loop (the
/// scalar version is latency-bound on a single chain). Each neuron's
/// accumulator still sums over `k` in order, so results are bit-identical
/// to the straightforward scalar kernel.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn linear_forward(x: &Matrix, w: &Matrix, b: &[f32]) -> Matrix {
    let mut y = Matrix::zeros(x.rows, w.rows);
    linear_forward_into(x, w, b, &mut y);
    y
}

/// [`linear_forward`] into a caller-provided output matrix — the
/// allocation-free variant for hot paths that reuse buffers across calls
/// (per-frame streaming evaluation, minibatch loops).
///
/// # Panics
///
/// Panics on shape mismatch, including a mis-sized `y`.
pub fn linear_forward_into(x: &Matrix, w: &Matrix, b: &[f32], y: &mut Matrix) {
    assert_eq!(x.cols, w.cols, "x cols must equal w cols (input dim)");
    assert_eq!(
        b.len(),
        w.rows,
        "bias length must equal w rows (output dim)"
    );
    assert_eq!(y.rows, x.rows, "y rows must equal x rows (batch)");
    assert_eq!(y.cols, w.rows, "y cols must equal w rows (output dim)");
    let out_dim = w.rows;
    for r in 0..x.rows {
        let xr = x.row(r);
        let yr = y.row_mut(r);
        let mut o = 0usize;
        while o + 8 <= out_dim {
            let s = dot8(xr, &w.data[o * w.cols..(o + 8) * w.cols], w.cols);
            for (j, &sj) in s.iter().enumerate() {
                yr[o + j] = sj + b[o + j];
            }
            o += 8;
        }
        while o < out_dim {
            yr[o] = dot(xr, w.row(o)) + b[o];
            o += 1;
        }
    }
}

/// Eight simultaneous dot products sharing one pass over `x`; `ws` holds
/// eight contiguous weight rows of length `n`.
#[inline]
fn dot8(x: &[f32], ws: &[f32], n: usize) -> [f32; 8] {
    let x = &x[..n];
    // Re-slicing each row to a common length lets the compiler drop
    // bounds checks in the hot loop.
    let (w0, w1, w2, w3, w4, w5, w6, w7) = (
        &ws[..n],
        &ws[n..2 * n],
        &ws[2 * n..3 * n],
        &ws[3 * n..4 * n],
        &ws[4 * n..5 * n],
        &ws[5 * n..6 * n],
        &ws[6 * n..7 * n],
        &ws[7 * n..8 * n],
    );
    let mut s = [0.0f32; 8];
    for k in 0..n {
        let xv = x[k];
        s[0] += xv * w0[k];
        s[1] += xv * w1[k];
        s[2] += xv * w2[k];
        s[3] += xv * w3[k];
        s[4] += xv * w4[k];
        s[5] += xv * w5[k];
        s[6] += xv * w6[k];
        s[7] += xv * w7[k];
    }
    s
}

/// Sequential dot product (remainder path; keeps summation order).
#[inline]
fn dot(x: &[f32], w: &[f32]) -> f32 {
    let w = &w[..x.len()];
    let mut acc = 0.0f32;
    for k in 0..x.len() {
        acc += x[k] * w[k];
    }
    acc
}

/// `dx = dy · W` — gradient with respect to the layer input.
///
/// Shapes: `dy` is `batch × out`, `w` is `out × in`; result `batch × in`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn linear_backward_input(dy: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(dy.cols, w.rows, "dy cols must equal w rows");
    let mut dx = Matrix::zeros(dy.rows, w.cols);
    for r in 0..dy.rows {
        let dyr = dy.row(r);
        let dxr = dx.row_mut(r);
        for (o, &g) in dyr.iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            let wr = w.row(o);
            for k in 0..dxr.len() {
                dxr[k] += g * wr[k];
            }
        }
    }
    dx
}

/// Accumulates `dw += dyᵀ · x` and `db += Σ dy` — parameter gradients.
///
/// Shapes: `dy` is `batch × out`, `x` is `batch × in`, `dw` is `out × in`
/// flattened, `db` has `out` entries.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn linear_backward_params(dy: &Matrix, x: &Matrix, dw: &mut [f32], db: &mut [f32]) {
    assert_eq!(dy.rows, x.rows, "batch sizes must match");
    assert_eq!(dw.len(), dy.cols * x.cols, "dw must be out*in");
    assert_eq!(db.len(), dy.cols, "db must be out");
    let in_dim = x.cols;
    for r in 0..dy.rows {
        let dyr = dy.row(r);
        let xr = x.row(r);
        for (o, &g) in dyr.iter().enumerate() {
            db[o] += g;
            if g == 0.0 {
                continue;
            }
            let dwr = &mut dw[o * in_dim..(o + 1) * in_dim];
            for k in 0..in_dim {
                dwr[k] += g * xr[k];
            }
        }
    }
}

/// Strict left-to-right `f32` summation.
///
/// Float addition does not reassociate, so the accumulation order *is*
/// part of any bit-exactness contract. This module owns that order for
/// the workspace: callers route float reductions through these helpers
/// instead of open-coding `.sum()` / `+=` loops, and the
/// `float-reassociation` lint flags accumulation anywhere else.
///
/// # Example
///
/// ```
/// use canids_qnn::tensor::pinned_sum_f32;
/// assert_eq!(pinned_sum_f32([0.1f32, 0.2, 0.3]), 0.1 + 0.2 + 0.3);
/// ```
pub fn pinned_sum_f32(xs: impl IntoIterator<Item = f32>) -> f32 {
    let mut acc = 0.0f32;
    for x in xs {
        acc += x;
    }
    acc
}

/// Strict left-to-right `f64` summation — see [`pinned_sum_f32`].
pub fn pinned_sum_f64(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0f64;
    for x in xs {
        acc += x;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_forward(x: &Matrix, w: &Matrix, b: &[f32]) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), w.rows());
        for r in 0..x.rows() {
            for o in 0..w.rows() {
                let mut acc = b[o];
                for k in 0..x.cols() {
                    acc += x[(r, k)] * w[(o, k)];
                }
                y[(r, o)] = acc;
            }
        }
        y
    }

    fn pseudo_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed | 1;
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            data.push(((state >> 16) as f32 / 32768.0) - 1.0);
        }
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn indexing_is_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn forward_matches_naive() {
        let x = pseudo_matrix(5, 7, 1);
        let w = pseudo_matrix(3, 7, 2);
        let b = vec![0.1, -0.2, 0.3];
        let got = linear_forward(&x, &w, &b);
        let want = naive_forward(&x, &w, &b);
        for (g, w_) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w_).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let x = pseudo_matrix(2, 4, 3);
        let w = pseudo_matrix(3, 4, 4);
        let b = vec![0.0; 3];
        // Loss = sum(y); dL/dy = 1; dL/dx[r][k] = sum_o w[o][k].
        let dy = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let dx = linear_backward_input(&dy, &w);
        let eps = 1e-3f32;
        for r in 0..2 {
            for k in 0..4 {
                let mut xp = x.clone();
                xp[(r, k)] += eps;
                let mut xm = x.clone();
                xm[(r, k)] -= eps;
                let fp: f32 = linear_forward(&xp, &w, &b).as_slice().iter().sum();
                let fm: f32 = linear_forward(&xm, &w, &b).as_slice().iter().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (dx[(r, k)] - numeric).abs() < 1e-2,
                    "dx[{r}][{k}] = {} vs {numeric}",
                    dx[(r, k)]
                );
            }
        }
    }

    #[test]
    fn backward_params_matches_finite_difference() {
        let x = pseudo_matrix(3, 4, 5);
        let w = pseudo_matrix(2, 4, 6);
        let b = vec![0.05, -0.07];
        let dy = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let mut dw = vec![0.0f32; 8];
        let mut db = vec![0.0f32; 2];
        linear_backward_params(&dy, &x, &mut dw, &mut db);
        let eps = 1e-3f32;
        for o in 0..2 {
            for k in 0..4 {
                let mut wp = w.clone();
                wp[(o, k)] += eps;
                let mut wm = w.clone();
                wm[(o, k)] -= eps;
                let fp: f32 = linear_forward(&x, &wp, &b).as_slice().iter().sum();
                let fm: f32 = linear_forward(&x, &wm, &b).as_slice().iter().sum();
                let numeric = (fp - fm) / (2.0 * eps);
                assert!((dw[o * 4 + k] - numeric).abs() < 1e-2);
            }
            // db[o] = batch size (each row contributes 1).
            assert!((db[o] - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_gradient_rows_skipped_correctly() {
        let w = pseudo_matrix(3, 4, 7);
        let dy = Matrix::from_vec(1, 3, vec![0.0, 2.0, 0.0]);
        let dx = linear_backward_input(&dy, &w);
        for k in 0..4 {
            assert!((dx[(0, k)] - 2.0 * w[(1, k)]).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_is_bit_identical_to_scalar_reference() {
        // The blocked kernel keeps each neuron's k-summation sequential,
        // so it must agree with the naive kernel to the last bit —
        // training trajectories cannot drift across the optimisation.
        // Same association as the kernel: sum over k first, bias last.
        fn scalar_forward(x: &Matrix, w: &Matrix, b: &[f32]) -> Matrix {
            let mut y = Matrix::zeros(x.rows(), w.rows());
            for r in 0..x.rows() {
                for o in 0..w.rows() {
                    let mut acc = 0.0f32;
                    for k in 0..x.cols() {
                        acc += x[(r, k)] * w[(o, k)];
                    }
                    y[(r, o)] = acc + b[o];
                }
            }
            y
        }
        for (rows, out) in [(1usize, 1usize), (3, 5), (7, 4), (64, 64), (5, 66)] {
            let x = pseudo_matrix(rows, 75, 11);
            let w = pseudo_matrix(out, 75, 13);
            let b: Vec<f32> = (0..out).map(|i| i as f32 * 0.01 - 0.2).collect();
            let got = linear_forward(&x, &w, &b);
            let want = scalar_forward(&x, &w, &b);
            assert_eq!(got.as_slice(), want.as_slice(), "{rows}x{out}");
        }
    }

    #[test]
    fn forward_into_reuses_buffer() {
        let x = pseudo_matrix(4, 9, 14);
        let w = pseudo_matrix(6, 9, 15);
        let b = vec![0.5; 6];
        let mut y = pseudo_matrix(4, 6, 16); // stale contents must be overwritten
        linear_forward_into(&x, &w, &b, &mut y);
        assert_eq!(y, linear_forward(&x, &w, &b));
    }

    #[test]
    #[should_panic(expected = "y cols must equal w rows")]
    fn forward_into_validates_output_shape() {
        let x = Matrix::zeros(2, 3);
        let w = Matrix::zeros(4, 3);
        let mut y = Matrix::zeros(2, 5);
        linear_forward_into(&x, &w, &[0.0; 4], &mut y);
    }

    #[test]
    #[should_panic(expected = "x cols must equal w cols")]
    fn forward_validates_shapes() {
        let x = Matrix::zeros(1, 3);
        let w = Matrix::zeros(2, 4);
        linear_forward(&x, &w, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = pseudo_matrix(3, 3, 8);
        m.fill_zero();
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = pseudo_matrix(20, 40, 9);
        let s = m.to_string();
        assert!(s.contains("Matrix 20x40"));
    }

    #[test]
    fn pinned_sum_is_left_to_right() {
        // An order-sensitive input: summing forwards and backwards
        // differ in the last bit, which is exactly why the order is
        // pinned.
        let xs = [1.0e8f32, 1.0, -1.0e8, 1.0, 0.25, 1.0e-3];
        let mut manual = 0.0f32;
        for &x in &xs {
            manual += x;
        }
        assert_eq!(pinned_sum_f32(xs).to_bits(), manual.to_bits());
        let rev = pinned_sum_f32(xs.iter().rev().copied());
        assert_ne!(pinned_sum_f32(xs).to_bits(), rev.to_bits());

        let ys = [0.1f64, 0.2, 0.3, 1.0e16, -1.0e16];
        let mut manual = 0.0f64;
        for &y in &ys {
            manual += y;
        }
        assert_eq!(pinned_sum_f64(ys).to_bits(), manual.to_bits());
    }
}
