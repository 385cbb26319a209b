//! The streaming dataflow intermediate representation.
//!
//! A network compiles to a linear pipeline of nodes, mirroring FINN's
//! graph after streamlining and `to_hls` conversion:
//!
//! * [`MvtuNode`] — Matrix-Vector-Threshold Unit: integer matrix-vector
//!   product followed by per-neuron MultiThreshold activation,
//! * [`LabelSelectNode`] — final integer argmax with fixed-point bias.
//!
//! Node arithmetic is exactly the [`canids_qnn::IntegerMlp`] semantics;
//! the graph adds the hardware-facing facts: accumulator widths, memory
//! footprints and (after folding) cycle counts.

use canids_qnn::export::{IntegerMlp, BIAS_SHIFT};

use crate::error::DataflowError;

/// Integer matrix-vector product with MultiThreshold activation.
#[derive(Debug, Clone, PartialEq)]
pub struct MvtuNode {
    /// Input vector length (matrix width, `MW`).
    pub in_dim: usize,
    /// Output vector length (matrix height, `MH`).
    pub out_dim: usize,
    /// Row-major `out_dim × in_dim` integer weights.
    pub weights: Vec<i32>,
    /// Row-major `out_dim × levels` ascending thresholds.
    pub thresholds: Vec<i64>,
    /// Thresholds per neuron (output levels `0..=levels`).
    pub levels: u32,
    /// Maximum input activation level (datapath width derivation).
    pub in_levels: u32,
    /// Weight bit-width (resource estimation).
    pub weight_bits: u8,
}

impl MvtuNode {
    /// Functional model: one input vector through weights + thresholds.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != in_dim`.
    pub fn compute(&self, x: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        self.compute_into(x, &mut out);
        out
    }

    /// [`MvtuNode::compute`] into a caller-owned buffer (cleared and
    /// refilled), so per-frame hot paths — the cycle-accurate simulator's
    /// inner loop — reuse allocations instead of paying one per stage
    /// step.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != in_dim`.
    pub fn compute_into(&self, x: &[u32], out: &mut Vec<u32>) {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        out.clear();
        for j in 0..self.out_dim {
            let row = &self.weights[j * self.in_dim..(j + 1) * self.in_dim];
            let mut acc = 0i64;
            for (w, &a) in row.iter().zip(x) {
                acc += i64::from(*w) * i64::from(a);
            }
            let trow = &self.thresholds[j * self.levels as usize..(j + 1) * self.levels as usize];
            let mut level = 0u32;
            for &t in trow {
                if acc >= t {
                    level += 1;
                } else {
                    break;
                }
            }
            out.push(level);
        }
    }

    /// Accumulator range over all neurons for inputs in `0..=in_levels`.
    pub fn acc_bounds(&self) -> (i64, i64) {
        let mut lo = 0i64;
        let mut hi = 0i64;
        for j in 0..self.out_dim {
            let mut jlo = 0i64;
            let mut jhi = 0i64;
            for &w in &self.weights[j * self.in_dim..(j + 1) * self.in_dim] {
                if w > 0 {
                    jhi += i64::from(w) * i64::from(self.in_levels);
                } else {
                    jlo += i64::from(w) * i64::from(self.in_levels);
                }
            }
            lo = lo.min(jlo);
            hi = hi.max(jhi);
        }
        (lo, hi)
    }

    /// Signed bits needed for the accumulator datapath.
    pub fn acc_bits(&self) -> u32 {
        let (lo, hi) = self.acc_bounds();
        let mag = lo.unsigned_abs().max(hi.unsigned_abs()).max(1);
        64 - mag.leading_zeros() + 1
    }

    /// Bits of weight memory.
    pub fn weight_mem_bits(&self) -> usize {
        self.in_dim * self.out_dim * usize::from(self.weight_bits)
    }

    /// Bits of threshold memory (each threshold stored at accumulator
    /// width).
    pub fn threshold_mem_bits(&self) -> usize {
        self.out_dim * self.levels as usize * self.acc_bits() as usize
    }

    /// Output activation bit-width.
    pub fn out_bits(&self) -> u32 {
        32 - self.levels.leading_zeros()
    }
}

/// Final classifier stage: integer scores + argmax.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelSelectNode {
    /// Input vector length.
    pub in_dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Row-major `classes × in_dim` integer weights.
    pub weights: Vec<i32>,
    /// Fixed-point bias (scaled by `2^BIAS_SHIFT`).
    pub bias_q: Vec<i64>,
    /// Maximum input activation level.
    pub in_levels: u32,
    /// Weight bit-width.
    pub weight_bits: u8,
}

impl LabelSelectNode {
    /// Functional model: scores and argmax (ties to the lowest index).
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != in_dim`.
    pub fn compute(&self, x: &[u32]) -> (usize, Vec<i64>) {
        let mut scores = Vec::with_capacity(self.classes);
        let class = self.compute_into(x, &mut scores);
        (class, scores)
    }

    /// [`LabelSelectNode::compute`] into a caller-owned score buffer
    /// (cleared and refilled); returns the argmax class.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != in_dim`.
    pub fn compute_into(&self, x: &[u32], scores: &mut Vec<i64>) -> usize {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        scores.clear();
        for j in 0..self.classes {
            let row = &self.weights[j * self.in_dim..(j + 1) * self.in_dim];
            let mut acc = 0i64;
            for (w, &a) in row.iter().zip(x) {
                acc += i64::from(*w) * i64::from(a);
            }
            scores.push((acc << BIAS_SHIFT) + self.bias_q[j]);
        }
        let mut class = 0usize;
        for (j, &s) in scores.iter().enumerate() {
            if s > scores[class] {
                class = j;
            }
        }
        class
    }

    /// Bits of weight memory.
    pub fn weight_mem_bits(&self) -> usize {
        self.in_dim * self.classes * usize::from(self.weight_bits)
    }
}

/// The compiled pipeline: MVTUs followed by a label-select stage.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowGraph {
    /// The matrix-vector-threshold stages, in dataflow order.
    pub mvtus: Vec<MvtuNode>,
    /// The classifier stage.
    pub label_select: LabelSelectNode,
}

impl DataflowGraph {
    /// Lowers a streamlined integer network into the dataflow IR.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::EmptyNetwork`] when the model has neither
    /// hidden layers nor classes.
    ///
    /// # Example
    ///
    /// ```
    /// use canids_dataflow::graph::DataflowGraph;
    /// use canids_qnn::prelude::*;
    ///
    /// let mlp = QuantMlp::new(MlpConfig {
    ///     input_dim: 8,
    ///     hidden: vec![4],
    ///     ..MlpConfig::default()
    /// })?;
    /// let graph = DataflowGraph::from_integer_mlp(&mlp.export()?)?;
    /// assert_eq!(graph.mvtus.len(), 1);
    /// assert_eq!(graph.label_select.classes, 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_integer_mlp(model: &IntegerMlp) -> Result<Self, DataflowError> {
        if model.output.out_dim == 0 {
            return Err(DataflowError::EmptyNetwork);
        }
        let mut in_levels = model.input_levels;
        let mut mvtus = Vec::with_capacity(model.blocks.len());
        for b in &model.blocks {
            mvtus.push(MvtuNode {
                in_dim: b.in_dim,
                out_dim: b.out_dim,
                weights: b.weights.clone(),
                thresholds: b.thresholds.clone(),
                levels: b.levels,
                in_levels,
                weight_bits: model.weight_bits,
            });
            in_levels = b.levels;
        }
        let label_select = LabelSelectNode {
            in_dim: model.output.in_dim,
            classes: model.output.out_dim,
            weights: model.output.weights.clone(),
            bias_q: model.output.bias_q.clone(),
            in_levels,
            weight_bits: model.weight_bits,
        };
        Ok(DataflowGraph {
            mvtus,
            label_select,
        })
    }

    /// Functional end-to-end inference (no timing).
    pub fn compute(&self, x: &[u32]) -> (usize, Vec<i64>) {
        let mut act = x.to_vec();
        for node in &self.mvtus {
            act = node.compute(&act);
        }
        self.label_select.compute(&act)
    }

    /// Number of pipeline stages (MVTUs + label select).
    pub fn stage_count(&self) -> usize {
        self.mvtus.len() + 1
    }

    /// `(in_dim, out_dim)` for every stage.
    pub fn stage_dims(&self) -> Vec<(usize, usize)> {
        let mut dims: Vec<(usize, usize)> =
            self.mvtus.iter().map(|n| (n.in_dim, n.out_dim)).collect();
        dims.push((self.label_select.in_dim, self.label_select.classes));
        dims
    }

    /// Total weight + threshold memory in bits.
    pub fn total_mem_bits(&self) -> usize {
        self.mvtus
            .iter()
            .map(|n| n.weight_mem_bits() + n.threshold_mem_bits())
            .sum::<usize>()
            + self.label_select.weight_mem_bits()
    }

    /// Input vector length.
    pub fn input_dim(&self) -> usize {
        self.mvtus
            .first()
            .map(|n| n.in_dim)
            .unwrap_or(self.label_select.in_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_qnn::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_model() -> IntegerMlp {
        let mut rng = StdRng::seed_from_u64(11);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..300 {
            let y = usize::from(rng.gen_bool(0.5));
            let x: Vec<f32> = (0..10)
                .map(|i| if (i % 2 == 0) == (y == 1) { 1.0 } else { 0.0 })
                .collect();
            xs.push(x);
            ys.push(y);
        }
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim: 10,
            hidden: vec![8, 6],
            ..MlpConfig::default()
        })
        .unwrap();
        Trainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &xs, &ys)
        .unwrap();
        mlp.export().unwrap()
    }

    #[test]
    fn lowering_preserves_dims() {
        let model = small_model();
        let g = DataflowGraph::from_integer_mlp(&model).unwrap();
        assert_eq!(g.stage_count(), 3);
        assert_eq!(g.stage_dims(), vec![(10, 8), (8, 6), (6, 2)]);
        assert_eq!(g.input_dim(), 10);
    }

    #[test]
    fn graph_compute_matches_integer_mlp() {
        let model = small_model();
        let g = DataflowGraph::from_integer_mlp(&model).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let x: Vec<u32> = (0..10).map(|_| u32::from(rng.gen_bool(0.5))).collect();
            let want = model.infer(&x);
            let (class, scores) = g.compute(&x);
            assert_eq!(class, want.class);
            assert_eq!(scores, want.scores);
        }
    }

    #[test]
    fn acc_bits_cover_bounds() {
        let model = small_model();
        let g = DataflowGraph::from_integer_mlp(&model).unwrap();
        for node in &g.mvtus {
            let (lo, hi) = node.acc_bounds();
            let bits = node.acc_bits();
            let max_mag = 1i64 << (bits - 1);
            assert!(lo >= -max_mag && hi < max_mag, "{lo}..{hi} vs {bits} bits");
        }
    }

    #[test]
    fn memory_accounting_positive_and_consistent() {
        let model = small_model();
        let g = DataflowGraph::from_integer_mlp(&model).unwrap();
        let w_bits: usize = 4;
        assert_eq!(g.mvtus[0].weight_mem_bits(), 10 * 8 * w_bits);
        assert!(g.total_mem_bits() > 0);
        assert_eq!(g.mvtus[0].out_bits(), 4);
    }

    #[test]
    fn node_compute_validates_input_len() {
        let model = small_model();
        let g = DataflowGraph::from_integer_mlp(&model).unwrap();
        let result = std::panic::catch_unwind(|| g.mvtus[0].compute(&[0u32; 3]));
        assert!(result.is_err());
    }
}
