//! FPGA resource cost model and device database.
//!
//! The estimates follow FINN's analytic cost model in spirit: LUT cost is
//! driven by the multiplier lanes (`pe·simd` per layer, scaled by the
//! operand widths), plus per-PE accumulators and threshold comparators;
//! memories go to distributed RAM below a cut-off and to BRAM36 above
//! it. Absolute numbers are an engineering estimate, not a synthesis
//! result — the experiment this feeds (paper: "< 4 % of the ZCU104")
//! depends on the *ratio* to the device capacity, which the model
//! preserves.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::folding::FoldingConfig;
use crate::graph::DataflowGraph;

/// Memory below this many bits stays in LUT-RAM; above it, BRAM36.
pub const LUTRAM_CUTOFF_BITS: usize = 8 * 1024;

/// Bits per BRAM36 block.
pub const BRAM36_BITS: usize = 36 * 1024;

/// An FPGA resource vector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// 36-kbit block RAMs.
    pub bram36: u64,
    /// DSP48 slices.
    pub dsp: u64,
}

impl Add for ResourceEstimate {
    type Output = ResourceEstimate;
    fn add(self, rhs: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram36: self.bram36 + rhs.bram36,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl AddAssign for ResourceEstimate {
    fn add_assign(&mut self, rhs: ResourceEstimate) {
        *self = *self + rhs;
    }
}

impl fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {:>7}  FF {:>7}  BRAM36 {:>4}  DSP {:>4}",
            self.lut, self.ff, self.bram36, self.dsp
        )
    }
}

/// A target FPGA device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device {
    /// Marketing/board name.
    pub name: &'static str,
    /// LUT capacity.
    pub luts: u64,
    /// Flip-flop capacity.
    pub ffs: u64,
    /// BRAM36 capacity.
    pub bram36: u64,
    /// DSP capacity.
    pub dsps: u64,
}

impl Device {
    /// ZCU104 board: Zynq UltraScale+ XCZU7EV (the paper's target ECU).
    pub const ZCU104: Device = Device {
        name: "ZCU104 (XCZU7EV)",
        luts: 230_400,
        ffs: 460_800,
        bram36: 312,
        dsps: 1_728,
    };

    /// PYNQ-Z2 board: Zynq-7020 (the hybrid-FPGA baseline in the group's
    /// earlier work).
    pub const PYNQ_Z2: Device = Device {
        name: "PYNQ-Z2 (XC7Z020)",
        luts: 53_200,
        ffs: 106_400,
        bram36: 140,
        dsps: 220,
    };

    /// Ultra96 board: Zynq UltraScale+ XCZU3EG.
    pub const ULTRA96: Device = Device {
        name: "Ultra96 (XCZU3EG)",
        luts: 70_560,
        ffs: 141_120,
        bram36: 216,
        dsps: 360,
    };

    /// Per-resource utilisation fractions of `usage` on this device.
    pub fn utilization(&self, usage: ResourceEstimate) -> Utilization {
        Utilization {
            lut: usage.lut as f64 / self.luts as f64,
            ff: usage.ff as f64 / self.ffs as f64,
            bram36: usage.bram36 as f64 / self.bram36 as f64,
            dsp: usage.dsp as f64 / self.dsps as f64,
        }
    }

    /// How many copies of `usage` fit on the device (the paper's
    /// multi-model deployment headroom).
    pub fn fit_count(&self, usage: ResourceEstimate) -> u64 {
        let mut n = u64::MAX;
        if let Some(q) = self.luts.checked_div(usage.lut) {
            n = n.min(q);
        }
        if let Some(q) = self.ffs.checked_div(usage.ff) {
            n = n.min(q);
        }
        if let Some(q) = self.bram36.checked_div(usage.bram36) {
            n = n.min(q);
        }
        if let Some(q) = self.dsps.checked_div(usage.dsp) {
            n = n.min(q);
        }
        if n == u64::MAX {
            0
        } else {
            n
        }
    }

    /// Resources left on the device after `used` (saturating at zero per
    /// class).
    pub fn remaining(&self, used: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            lut: self.luts.saturating_sub(used.lut),
            ff: self.ffs.saturating_sub(used.ff),
            bram36: self.bram36.saturating_sub(used.bram36),
            dsp: self.dsps.saturating_sub(used.dsp),
        }
    }

    /// The first resource class `usage` overflows on this device, as
    /// `(class, required, capacity)` — `None` when everything fits.
    pub fn first_overflow(&self, usage: ResourceEstimate) -> Option<(&'static str, u64, u64)> {
        [
            ("LUT", usage.lut, self.luts),
            ("FF", usage.ff, self.ffs),
            ("BRAM36", usage.bram36, self.bram36),
            ("DSP", usage.dsp, self.dsps),
        ]
        .into_iter()
        .find(|&(_, required, capacity)| required > capacity)
    }

    /// How many additional copies of `unit` fit in what the device has
    /// left after `used`.
    ///
    /// Every class is constrained by its *true* remainder: a class the
    /// unit does not consume never constrains, and an exhausted class the
    /// unit does consume yields zero headroom (no capacity is fabricated,
    /// unlike the historical `remaining.dsp.max(1)` hack this replaces).
    /// A unit consuming nothing at all reports zero headroom rather than
    /// infinity.
    pub fn headroom_after(&self, used: ResourceEstimate, unit: ResourceEstimate) -> u64 {
        let left = self.remaining(used);
        let mut n = u64::MAX;
        if let Some(q) = left.lut.checked_div(unit.lut) {
            n = n.min(q);
        }
        if let Some(q) = left.ff.checked_div(unit.ff) {
            n = n.min(q);
        }
        if let Some(q) = left.bram36.checked_div(unit.bram36) {
            n = n.min(q);
        }
        if let Some(q) = left.dsp.checked_div(unit.dsp) {
            n = n.min(q);
        }
        if n == u64::MAX {
            0
        } else {
            n
        }
    }
}

/// Per-resource utilisation fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// LUT fraction.
    pub lut: f64,
    /// FF fraction.
    pub ff: f64,
    /// BRAM36 fraction.
    pub bram36: f64,
    /// DSP fraction.
    pub dsp: f64,
}

impl Utilization {
    /// The largest fraction across resource classes.
    pub fn max_fraction(&self) -> f64 {
        self.lut.max(self.ff).max(self.bram36).max(self.dsp)
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT {:5.2}%  FF {:5.2}%  BRAM {:5.2}%  DSP {:5.2}%",
            self.lut * 100.0,
            self.ff * 100.0,
            self.bram36 * 100.0,
            self.dsp * 100.0
        )
    }
}

fn memory_cost(bits: usize) -> ResourceEstimate {
    if bits == 0 {
        ResourceEstimate::default()
    } else if bits <= LUTRAM_CUTOFF_BITS {
        // Distributed RAM: ~1 LUT per 32 bits (SLICEM LUT as 32x1).
        ResourceEstimate {
            lut: (bits as u64).div_ceil(32),
            ff: 0,
            bram36: 0,
            dsp: 0,
        }
    } else {
        ResourceEstimate {
            lut: 0,
            ff: 0,
            bram36: (bits as u64).div_ceil(BRAM36_BITS as u64),
            dsp: 0,
        }
    }
}

/// The shape and bit-level parameters of one folded MVTU stage, as fed
/// to the cost model.
struct MvtuStage {
    /// Matrix height (output neurons).
    mh: usize,
    /// Matrix width (input features).
    mw: usize,
    /// Processing elements (row parallelism).
    pe: usize,
    /// SIMD lanes per PE (column parallelism).
    simd: usize,
    /// Weight precision.
    weight_bits: u8,
    /// Input activation precision.
    act_bits: u32,
    /// Accumulator width.
    acc_bits: u32,
    /// Threshold levels per output (0 for the label-select stage).
    levels: u32,
    /// Total threshold memory footprint in bits.
    threshold_bits: usize,
}

/// Estimates the resources of one folded MVTU stage.
fn mvtu_cost(stage: MvtuStage) -> ResourceEstimate {
    let MvtuStage {
        mh,
        mw,
        pe,
        simd,
        weight_bits,
        act_bits,
        acc_bits,
        levels,
        threshold_bits,
    } = stage;
    let lanes = (pe * simd) as u64;
    let wb = u64::from(weight_bits);
    let ab = u64::from(act_bits.max(1));
    // LUT-mapped small-width multiply-add per lane (FINN maps <=8-bit
    // MACs to LUTs): empirical ~0.6·wb·ab + 3 LUTs per lane.
    let mac_lut = lanes * (wb * ab * 6 / 10 + 3);
    // Adder tree + accumulator per PE.
    let acc_lut = pe as u64 * u64::from(acc_bits) * 2;
    // Threshold comparators: one acc-width comparator per level per PE.
    let thr_lut = pe as u64 * u64::from(levels) * u64::from(acc_bits) / 2;
    // Control FSM and counters.
    let ctrl_lut = 120;
    let weight_mem = memory_cost(mh * mw * usize::from(weight_bits));
    let thr_mem = memory_cost(threshold_bits);
    // Use DSPs only for wide MACs (>8-bit operands), as FINN does.
    let dsp = if wb > 8 || ab > 8 { lanes } else { 0 };
    ResourceEstimate {
        lut: mac_lut + acc_lut + thr_lut + ctrl_lut,
        ff: (mac_lut + acc_lut) * 3 / 2 + 200,
        bram36: 0,
        dsp,
    } + weight_mem
        + thr_mem
}

/// Estimates the resources of the whole folded pipeline, including
/// AXI-Stream FIFOs and the AXI-Lite control shim.
///
/// # Example
///
/// ```
/// use canids_dataflow::folding::{auto_fold, FoldingGoal};
/// use canids_dataflow::graph::DataflowGraph;
/// use canids_dataflow::resources::{estimate_resources, Device};
/// use canids_qnn::prelude::*;
///
/// let mlp = QuantMlp::new(MlpConfig::default())?;
/// let graph = DataflowGraph::from_integer_mlp(&mlp.export()?)?;
/// let folding = auto_fold(&graph, FoldingGoal::TargetFps {
///     fps: 100_000.0,
///     clock_hz: 200_000_000,
/// })?;
/// let usage = estimate_resources(&graph, &folding);
/// // The paper: a single model uses < 4 % of the ZCU104.
/// assert!(Device::ZCU104.utilization(usage).max_fraction() < 0.04);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate_resources(graph: &DataflowGraph, folding: &FoldingConfig) -> ResourceEstimate {
    let mut total = ResourceEstimate {
        // AXI-Lite control + stream infrastructure shim.
        lut: 900,
        ff: 1_200,
        bram36: 0,
        dsp: 0,
    };
    for (i, node) in graph.mvtus.iter().enumerate() {
        let f = folding
            .layers
            .get(i)
            .copied()
            .unwrap_or(crate::folding::LayerFolding::SEQUENTIAL);
        total += mvtu_cost(MvtuStage {
            mh: node.out_dim,
            mw: node.in_dim,
            pe: f.pe,
            simd: f.simd,
            weight_bits: node.weight_bits,
            act_bits: 32 - node.in_levels.leading_zeros(),
            acc_bits: node.acc_bits(),
            levels: node.levels,
            threshold_bits: node.threshold_mem_bits(),
        });
        // Inter-stage FIFO (shallow, LUTRAM).
        total += ResourceEstimate {
            lut: 40,
            ff: 60,
            bram36: 0,
            dsp: 0,
        };
    }
    let ls = &graph.label_select;
    let f = folding
        .layers
        .last()
        .copied()
        .unwrap_or(crate::folding::LayerFolding::SEQUENTIAL);
    total += mvtu_cost(MvtuStage {
        mh: ls.classes,
        mw: ls.in_dim,
        pe: f.pe.min(ls.classes.max(1)),
        simd: f.simd,
        weight_bits: ls.weight_bits,
        act_bits: 32 - ls.in_levels.leading_zeros(),
        acc_bits: 24,
        levels: 0,
        threshold_bits: 0,
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folding::{auto_fold, FoldingConfig, FoldingGoal};
    use crate::graph::DataflowGraph;
    use canids_qnn::prelude::*;

    fn paper_graph() -> DataflowGraph {
        let mlp = QuantMlp::new(MlpConfig::default()).unwrap();
        DataflowGraph::from_integer_mlp(&mlp.export().unwrap()).unwrap()
    }

    #[test]
    fn resource_vector_arithmetic() {
        let a = ResourceEstimate {
            lut: 10,
            ff: 20,
            bram36: 1,
            dsp: 2,
        };
        let b = a + a;
        assert_eq!(b.lut, 20);
        assert_eq!(b.dsp, 4);
        let mut c = a;
        c += a;
        assert_eq!(b, c);
    }

    #[test]
    fn memory_cost_transitions_to_bram() {
        let small = memory_cost(1_000);
        assert!(small.bram36 == 0 && small.lut > 0);
        let big = memory_cost(100_000);
        assert!(big.bram36 >= 2 && big.lut == 0);
        assert_eq!(memory_cost(0), ResourceEstimate::default());
    }

    #[test]
    fn more_parallelism_costs_more_luts() {
        let g = paper_graph();
        let cheap = estimate_resources(&g, &FoldingConfig::sequential(g.stage_count()));
        let fast = estimate_resources(&g, &auto_fold(&g, FoldingGoal::MaxParallel).unwrap());
        assert!(fast.lut > cheap.lut, "{} !> {}", fast.lut, cheap.lut);
    }

    #[test]
    fn paper_model_fits_under_4_percent_of_zcu104() {
        let g = paper_graph();
        let folding = auto_fold(
            &g,
            FoldingGoal::TargetFps {
                fps: 100_000.0,
                clock_hz: 200_000_000,
            },
        )
        .unwrap();
        let usage = estimate_resources(&g, &folding);
        let util = Device::ZCU104.utilization(usage);
        assert!(
            util.max_fraction() < 0.04,
            "utilisation {util} exceeds the paper's 4% claim"
        );
        assert!(util.max_fraction() > 0.0005, "estimate suspiciously small");
    }

    #[test]
    fn eight_bit_model_uses_dsps_or_more_luts() {
        let mlp4 = QuantMlp::new(MlpConfig::default()).unwrap();
        let mlp8 = QuantMlp::new(MlpConfig::gpu_8bit()).unwrap();
        let g4 = DataflowGraph::from_integer_mlp(&mlp4.export().unwrap()).unwrap();
        let g8 = DataflowGraph::from_integer_mlp(&mlp8.export().unwrap()).unwrap();
        let f4 = auto_fold(&g4, FoldingGoal::MaxParallel).unwrap();
        let f8 = auto_fold(&g8, FoldingGoal::MaxParallel).unwrap();
        let r4 = estimate_resources(&g4, &f4);
        let r8 = estimate_resources(&g8, &f8);
        assert!(
            r8.lut + r8.dsp * 50 > r4.lut,
            "8-bit should cost more compute fabric"
        );
    }

    #[test]
    fn multi_model_fit_count() {
        let g = paper_graph();
        let folding = auto_fold(
            &g,
            FoldingGoal::TargetFps {
                fps: 100_000.0,
                clock_hz: 200_000_000,
            },
        )
        .unwrap();
        let usage = estimate_resources(&g, &folding);
        // The paper argues multiple models fit simultaneously.
        assert!(Device::ZCU104.fit_count(usage) >= 8);
        assert_eq!(Device::ZCU104.fit_count(ResourceEstimate::default()), 0);
    }

    #[test]
    fn remaining_saturates_and_overflow_names_the_class() {
        let d = Device::PYNQ_Z2;
        let over = ResourceEstimate {
            lut: d.luts + 10,
            ff: 0,
            bram36: 0,
            dsp: 0,
        };
        assert_eq!(d.remaining(over).lut, 0, "saturates, never wraps");
        assert_eq!(d.first_overflow(over), Some(("LUT", d.luts + 10, d.luts)));
        let fits = ResourceEstimate {
            lut: 100,
            ff: 100,
            bram36: 1,
            dsp: 1,
        };
        assert_eq!(d.first_overflow(fits), None);
        assert_eq!(d.remaining(fits).lut, d.luts - 100);
    }

    #[test]
    fn headroom_after_counts_true_remainder() {
        let d = Device {
            name: "toy",
            luts: 1_000,
            ffs: 2_000,
            bram36: 10,
            dsps: 4,
        };
        let unit = ResourceEstimate {
            lut: 100,
            ff: 100,
            bram36: 1,
            dsp: 1,
        };
        // Fresh device: LUT allows 10, FF 20, BRAM 10, DSP 4 -> 4.
        assert_eq!(d.headroom_after(ResourceEstimate::default(), unit), 4);
        // Half used: 2 DSPs left -> 2 copies.
        let used = ResourceEstimate {
            lut: 500,
            ff: 1_000,
            bram36: 5,
            dsp: 2,
        };
        assert_eq!(d.headroom_after(used, unit), 2);
    }

    #[test]
    fn zero_remaining_yields_zero_headroom() {
        // Regression: the old deploy-layer headroom fabricated one DSP
        // when the device was exhausted (`remaining.dsp.max(1)`), so a
        // 1-DSP unit still reported headroom. With the true remainder an
        // exhausted class the unit needs must report zero.
        let d = Device {
            name: "toy",
            luts: 1_000,
            ffs: 1_000,
            bram36: 8,
            dsps: 2,
        };
        let all_dsps = ResourceEstimate {
            lut: 100,
            ff: 100,
            bram36: 0,
            dsp: 2,
        };
        let one_dsp_unit = ResourceEstimate {
            lut: 10,
            ff: 10,
            bram36: 0,
            dsp: 1,
        };
        assert_eq!(d.headroom_after(all_dsps, one_dsp_unit), 0);
        // A unit that needs no DSPs is not constrained by the exhausted
        // class.
        let no_dsp_unit = ResourceEstimate {
            lut: 10,
            ff: 10,
            bram36: 0,
            dsp: 0,
        };
        assert_eq!(d.headroom_after(all_dsps, no_dsp_unit), 90);
        // A unit consuming nothing reports zero, not infinity.
        assert_eq!(d.headroom_after(all_dsps, ResourceEstimate::default()), 0);
    }

    #[test]
    fn display_formats() {
        let usage = ResourceEstimate {
            lut: 5000,
            ff: 9000,
            bram36: 3,
            dsp: 0,
        };
        assert!(usage.to_string().contains("5000"));
        let util = Device::ZCU104.utilization(usage);
        assert!(util.to_string().contains('%'));
    }
}
