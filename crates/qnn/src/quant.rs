//! Uniform quantizers with straight-through estimators (Brevitas-style).
//!
//! * **Weights** — symmetric per-tensor quantisation to signed integers in
//!   the narrow range `[-(2^(b-1)-1), 2^(b-1)-1]`, scale derived from the
//!   current absolute maximum (recomputed every forward pass, as
//!   Brevitas' default `Int8WeightPerTensorFloat` family does).
//! * **Activations** — unsigned quantisation after ReLU to
//!   `[0, 2^b - 1]`, scale derived from an exponential-moving-average of
//!   the batch maximum (Brevitas' activation-statistics calibration).
//!
//! The backward passes use the straight-through estimator: weight
//! gradients pass through unchanged, activation gradients are clipped to
//! the active range.

use crate::error::QnnError;

/// A validated quantisation bit-width in `1..=16`.
///
/// # Example
///
/// ```
/// use canids_qnn::quant::BitWidth;
///
/// let w4 = BitWidth::new(4)?;
/// assert_eq!(w4.bits(), 4);
/// assert_eq!(w4.signed_max(), 7);     // narrow symmetric range
/// assert_eq!(w4.unsigned_max(), 15);  // activation levels
/// # Ok::<(), canids_qnn::QnnError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitWidth(u8);

impl BitWidth {
    /// The paper's deployed configuration: 4-bit uniform quantisation.
    pub const W4: BitWidth = BitWidth(4);
    /// 8-bit quantisation (the paper's GPU reference model).
    pub const W8: BitWidth = BitWidth(8);
    /// Binary (1-bit) quantisation.
    pub const W1: BitWidth = BitWidth(1);

    /// Creates a bit-width.
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::InvalidBitWidth`] outside `1..=16`.
    pub fn new(bits: u8) -> Result<Self, QnnError> {
        if (1..=16).contains(&bits) {
            Ok(BitWidth(bits))
        } else {
            Err(QnnError::InvalidBitWidth(bits))
        }
    }

    /// The raw bit count.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Largest magnitude of the narrow symmetric signed range:
    /// `2^(b-1) - 1` (1 for 1-bit, i.e. weights in `{-1, 0, +1}` — we use
    /// the ternary-with-zero convention FINN adopts for b=1 weights with
    /// zero included via rounding).
    pub fn signed_max(self) -> i32 {
        if self.0 == 1 {
            1
        } else {
            (1i32 << (self.0 - 1)) - 1
        }
    }

    /// Largest value of the unsigned activation range: `2^b - 1`.
    pub fn unsigned_max(self) -> u32 {
        (1u32 << self.0) - 1
    }
}

impl Default for BitWidth {
    fn default() -> Self {
        BitWidth::W4
    }
}

impl std::fmt::Display for BitWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-bit", self.0)
    }
}

/// Symmetric per-tensor weight quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightQuantizer {
    bits: BitWidth,
}

impl WeightQuantizer {
    /// Creates a weight quantizer for the given width.
    pub fn new(bits: BitWidth) -> Self {
        WeightQuantizer { bits }
    }

    /// The configured width.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// The per-tensor scale for the given weights: `max|w| / signed_max`.
    /// Returns 1.0 for an all-zero tensor so division stays defined.
    pub fn scale(&self, weights: &[f32]) -> f32 {
        let max_abs = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        if max_abs == 0.0 {
            1.0
        } else {
            max_abs / self.bits.signed_max() as f32
        }
    }

    /// Quantises one weight to its integer code.
    pub fn to_int(&self, w: f32, scale: f32) -> i32 {
        let q = (w / scale).round() as i32;
        q.clamp(-self.bits.signed_max(), self.bits.signed_max())
    }

    /// Fake-quantises `weights` into `out` (same length), returning the
    /// scale used. `out` may alias a scratch buffer reused across steps.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != weights.len()`.
    pub fn fake_quantize(&self, weights: &[f32], out: &mut [f32]) -> f32 {
        assert_eq!(out.len(), weights.len(), "buffer length mismatch");
        let scale = self.scale(weights);
        for (o, &w) in out.iter_mut().zip(weights) {
            *o = self.to_int(w, scale) as f32 * scale;
        }
        scale
    }
}

/// Unsigned activation quantizer with EMA max-statistics calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuantizer {
    bits: BitWidth,
    running_max: f32,
    momentum: f32,
    calibrated: bool,
}

impl ActQuantizer {
    /// Creates an activation quantizer; `running_max` starts at 6.0
    /// (the ReLU6 heuristic) until the first batch calibrates it.
    pub fn new(bits: BitWidth) -> Self {
        ActQuantizer {
            bits,
            running_max: 6.0,
            momentum: 0.9,
            calibrated: false,
        }
    }

    /// The configured width.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// The calibrated clip ceiling.
    pub fn running_max(&self) -> f32 {
        self.running_max
    }

    /// The quantisation step: `running_max / unsigned_max`.
    pub fn scale(&self) -> f32 {
        self.running_max / self.bits.unsigned_max() as f32
    }

    /// Updates the EMA of the batch maximum (training mode only).
    pub fn observe(&mut self, batch: &[f32]) {
        let batch_max = batch.iter().fold(0.0f32, |m, &v| m.max(v));
        if batch_max <= 0.0 {
            return;
        }
        if self.calibrated {
            self.running_max = self.momentum * self.running_max + (1.0 - self.momentum) * batch_max;
        } else {
            self.running_max = batch_max;
            self.calibrated = true;
        }
        // Keep the ceiling strictly positive for scale stability.
        self.running_max = self.running_max.max(1e-3);
    }

    /// Quantises one pre-activation to its integer level (ReLU included).
    pub fn to_int(&self, z: f32) -> u32 {
        let scale = self.scale();
        let q = (z / scale).round();
        if q <= 0.0 {
            0
        } else {
            (q as u32).min(self.bits.unsigned_max())
        }
    }

    /// Fake-quantised activation value (ReLU + round + clip, re-scaled).
    pub fn fake_quantize(&self, z: f32) -> f32 {
        self.to_int(z) as f32 * self.scale()
    }

    /// Straight-through gradient mask: 1 inside the active range
    /// `(0, running_max)`, 0 outside.
    pub fn ste_mask(&self, z: f32) -> f32 {
        if z > 0.0 && z < self.running_max {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwidth_validates_range() {
        assert!(BitWidth::new(0).is_err());
        assert!(BitWidth::new(17).is_err());
        for b in 1..=16 {
            assert_eq!(BitWidth::new(b).unwrap().bits(), b);
        }
    }

    #[test]
    fn signed_max_follows_narrow_range() {
        assert_eq!(BitWidth::new(2).unwrap().signed_max(), 1);
        assert_eq!(BitWidth::new(4).unwrap().signed_max(), 7);
        assert_eq!(BitWidth::new(8).unwrap().signed_max(), 127);
        assert_eq!(BitWidth::W1.signed_max(), 1);
    }

    #[test]
    fn unsigned_max_is_full_range() {
        assert_eq!(BitWidth::W1.unsigned_max(), 1);
        assert_eq!(BitWidth::W4.unsigned_max(), 15);
        assert_eq!(BitWidth::W8.unsigned_max(), 255);
    }

    #[test]
    fn weight_scale_from_abs_max() {
        let q = WeightQuantizer::new(BitWidth::W4);
        let w = [0.5, -1.4, 0.7];
        assert!((q.scale(&w) - 1.4 / 7.0).abs() < 1e-6);
        assert_eq!(q.scale(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn weight_codes_clamped_to_narrow_range() {
        let q = WeightQuantizer::new(BitWidth::W4);
        let w = [0.5, -1.4, 0.7, 1.4];
        let s = q.scale(&w);
        for &v in &w {
            let code = q.to_int(v, s);
            assert!((-7..=7).contains(&code), "code {code}");
        }
        assert_eq!(q.to_int(1.4, s), 7);
        assert_eq!(q.to_int(-1.4, s), -7);
    }

    #[test]
    fn fake_quantize_is_idempotent() {
        let q = WeightQuantizer::new(BitWidth::W4);
        let w = [0.31, -0.94, 0.02, 0.77];
        let mut once = vec![0.0; 4];
        let s1 = q.fake_quantize(&w, &mut once);
        let mut twice = vec![0.0; 4];
        let s2 = q.fake_quantize(&once, &mut twice);
        assert!((s1 - s2).abs() < 1e-6);
        for (a, b) in once.iter().zip(&twice) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn quantisation_error_bounded_by_half_step() {
        let q = WeightQuantizer::new(BitWidth::W8);
        let w: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) / 37.0).collect();
        let mut out = vec![0.0; w.len()];
        let s = q.fake_quantize(&w, &mut out);
        for (a, b) in w.iter().zip(&out) {
            assert!((a - b).abs() <= s / 2.0 + 1e-6);
        }
    }

    #[test]
    fn act_quantizer_calibrates_then_smooths() {
        let mut q = ActQuantizer::new(BitWidth::W4);
        q.observe(&[0.0, 2.0, 4.0]);
        assert!((q.running_max() - 4.0).abs() < 1e-6, "first batch snaps");
        q.observe(&[0.0, 8.0]);
        // EMA: 0.9*4 + 0.1*8 = 4.4
        assert!((q.running_max() - 4.4).abs() < 1e-4);
    }

    #[test]
    fn act_levels_clip_and_floor() {
        let mut q = ActQuantizer::new(BitWidth::W4);
        q.observe(&[3.0]);
        assert_eq!(q.to_int(-1.0), 0, "negative pre-activations clamp to 0");
        assert_eq!(q.to_int(100.0), 15, "large values clip to max level");
        let mid = q.fake_quantize(1.5);
        assert!(mid > 0.0 && mid < 3.01);
    }

    #[test]
    fn act_fake_quantize_error_bounded() {
        let mut q = ActQuantizer::new(BitWidth::W8);
        q.observe(&[4.0]);
        let s = q.scale();
        for i in 0..100 {
            let z = i as f32 * 0.04;
            let fq = q.fake_quantize(z);
            assert!((fq - z.clamp(0.0, 4.0)).abs() <= s / 2.0 + 1e-6);
        }
    }

    #[test]
    fn ste_mask_matches_active_range() {
        let mut q = ActQuantizer::new(BitWidth::W4);
        q.observe(&[2.0]);
        assert_eq!(q.ste_mask(-0.1), 0.0);
        assert_eq!(q.ste_mask(0.5), 1.0);
        assert_eq!(q.ste_mask(2.5), 0.0);
    }

    #[test]
    fn observe_ignores_non_positive_batches() {
        let mut q = ActQuantizer::new(BitWidth::W4);
        let before = q.running_max();
        q.observe(&[-1.0, 0.0]);
        assert_eq!(q.running_max(), before);
    }

    #[test]
    fn one_bit_activation_is_binary() {
        let mut q = ActQuantizer::new(BitWidth::W1);
        q.observe(&[1.0]);
        assert_eq!(q.to_int(0.6), 1);
        assert_eq!(q.to_int(0.4), 0);
        assert_eq!(q.bits().unsigned_max(), 1);
    }
}
