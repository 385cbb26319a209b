//! PE/SIMD folding selection.
//!
//! FINN time-multiplexes each layer's matrix onto `PE` processing
//! elements with `SIMD` input lanes; one output batch of `PE` neurons
//! takes `MW / SIMD` cycles, and the full layer takes
//! `fold = (MH / PE) · (MW / SIMD)` cycles per frame, which is also the
//! layer's initiation interval. Folding trades LUTs for cycles; the
//! auto-folder picks the cheapest configuration meeting a throughput
//! target (the paper needs line-rate: ≳8.3 kframe/s).

use crate::error::DataflowError;
use crate::graph::DataflowGraph;

/// Parallelism of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerFolding {
    /// Processing elements (must divide the output dimension).
    pub pe: usize,
    /// Input lanes per PE (must divide the input dimension).
    pub simd: usize,
}

impl LayerFolding {
    /// Fully sequential: one MAC per cycle.
    pub const SEQUENTIAL: LayerFolding = LayerFolding { pe: 1, simd: 1 };

    /// Cycles per frame for a `mh × mw` layer at this folding, clamped to
    /// at least one cycle.
    ///
    /// The clamp lives *here* — the single source every consumer (the
    /// cycle-accurate simulator, FIFO sizing, the analytic latency and
    /// initiation-interval identities) derives folds from — so a
    /// degenerate zero-cycle stage cannot make the simulator and the
    /// analytic accessors diverge.
    pub fn fold_cycles(&self, mh: usize, mw: usize) -> u64 {
        (((mh / self.pe.max(1)) * (mw / self.simd.max(1))) as u64).max(1)
    }
}

/// Folding for the whole pipeline (one entry per stage, label-select
/// included as the last entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldingConfig {
    /// Per-stage parallelism.
    pub layers: Vec<LayerFolding>,
}

impl FoldingConfig {
    /// Fully sequential folding for an `n`-stage pipeline.
    pub fn sequential(n: usize) -> Self {
        FoldingConfig {
            layers: vec![LayerFolding::SEQUENTIAL; n],
        }
    }

    /// Validates divisibility against a graph.
    ///
    /// # Errors
    ///
    /// [`DataflowError::FoldingArity`], [`DataflowError::PeNotDivisor`] or
    /// [`DataflowError::SimdNotDivisor`].
    pub fn validate(&self, graph: &DataflowGraph) -> Result<(), DataflowError> {
        let dims = graph.stage_dims();
        if self.layers.len() != dims.len() {
            return Err(DataflowError::FoldingArity {
                expected: dims.len(),
                actual: self.layers.len(),
            });
        }
        for (i, (f, &(mw, mh))) in self.layers.iter().zip(&dims).enumerate() {
            if f.pe == 0 || mh % f.pe != 0 {
                return Err(DataflowError::PeNotDivisor {
                    layer: i,
                    pe: f.pe,
                    mh,
                });
            }
            if f.simd == 0 || mw % f.simd != 0 {
                return Err(DataflowError::SimdNotDivisor {
                    layer: i,
                    simd: f.simd,
                    mw,
                });
            }
        }
        Ok(())
    }

    /// Per-stage fold (cycles per frame), each `≥ 1` by construction
    /// (see [`LayerFolding::fold_cycles`]).
    pub fn fold_cycles(&self, graph: &DataflowGraph) -> Vec<u64> {
        graph
            .stage_dims()
            .iter()
            .zip(&self.layers)
            .map(|(&(mw, mh), f)| f.fold_cycles(mh, mw))
            .collect()
    }

    /// Pipeline initiation interval: the slowest stage's fold.
    pub fn initiation_interval(&self, graph: &DataflowGraph) -> u64 {
        self.fold_cycles(graph).into_iter().max().unwrap_or(1)
    }

    /// Total multiplier lanes (`Σ pe·simd`), the dominant LUT driver.
    pub fn total_lanes(&self) -> usize {
        self.layers.iter().map(|f| f.pe * f.simd).sum()
    }
}

/// What the auto-folder optimises for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FoldingGoal {
    /// Cheapest folding whose frame rate at `clock_hz` meets the target.
    TargetFps {
        /// Required frames per second.
        fps: f64,
        /// Accelerator clock in Hz.
        clock_hz: u64,
    },
    /// Fully sequential (minimum area).
    MinResource,
    /// Maximum parallelism (minimum latency).
    MaxParallel,
}

fn divisors(n: usize) -> Vec<usize> {
    let mut d: Vec<usize> = (1..=n).filter(|&k| n.is_multiple_of(k)).collect();
    d.sort_unstable();
    d
}

/// Chooses a folding for `graph` meeting `goal`.
///
/// The target-throughput search balances the pipeline: every stage gets
/// the smallest `pe·simd` product whose fold meets the per-stage cycle
/// budget implied by the target frame rate.
///
/// # Errors
///
/// [`DataflowError::TargetUnreachable`] when even full parallelism cannot
/// reach the requested rate.
///
/// # Example
///
/// ```
/// use canids_dataflow::folding::{auto_fold, FoldingGoal};
/// use canids_dataflow::graph::DataflowGraph;
/// use canids_qnn::prelude::*;
///
/// let mlp = QuantMlp::new(MlpConfig::default())?;
/// let graph = DataflowGraph::from_integer_mlp(&mlp.export()?)?;
/// let folding = auto_fold(&graph, FoldingGoal::TargetFps {
///     fps: 10_000.0,
///     clock_hz: 200_000_000,
/// })?;
/// assert!(folding.initiation_interval(&graph) <= 20_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn auto_fold(graph: &DataflowGraph, goal: FoldingGoal) -> Result<FoldingConfig, DataflowError> {
    let dims = graph.stage_dims();
    if dims.is_empty() {
        return Err(DataflowError::EmptyNetwork);
    }
    let config = match goal {
        FoldingGoal::MinResource => FoldingConfig::sequential(dims.len()),
        FoldingGoal::MaxParallel => FoldingConfig {
            layers: dims
                .iter()
                .map(|&(mw, mh)| LayerFolding { pe: mh, simd: mw })
                .collect(),
        },
        FoldingGoal::TargetFps { fps, clock_hz } => {
            let budget_cycles = (clock_hz as f64 / fps.max(1e-9)).floor() as u64;
            if budget_cycles == 0 {
                // Even a fold of one cycle per frame cannot reach the
                // target on this clock.
                return Err(DataflowError::TargetUnreachable {
                    target_fps: fps,
                    best_fps: clock_hz as f64,
                });
            }
            let mut layers = Vec::with_capacity(dims.len());
            for &(mw, mh) in &dims {
                // Smallest pe*simd with (mh/pe)*(mw/simd) <= budget.
                let mut best: Option<LayerFolding> = None;
                for &pe in &divisors(mh) {
                    for &simd in &divisors(mw) {
                        let f = LayerFolding { pe, simd };
                        if f.fold_cycles(mh, mw) <= budget_cycles {
                            let better = match best {
                                None => true,
                                Some(b) => pe * simd < b.pe * b.simd,
                            };
                            if better {
                                best = Some(f);
                            }
                        }
                    }
                }
                match best {
                    Some(f) => layers.push(f),
                    None => {
                        let best_fps = clock_hz as f64; // fold == 1 at full parallelism
                        return Err(DataflowError::TargetUnreachable {
                            target_fps: fps,
                            best_fps,
                        });
                    }
                }
            }
            FoldingConfig { layers }
        }
    };
    config.validate(graph)?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataflowGraph, LabelSelectNode, MvtuNode};

    fn graph(dims: &[(usize, usize)]) -> DataflowGraph {
        // dims: (in, out) per MVTU stage; a final 2-class select is added.
        let mvtus = dims
            .iter()
            .map(|&(i, o)| MvtuNode {
                in_dim: i,
                out_dim: o,
                weights: vec![1; i * o],
                thresholds: vec![0; o * 3],
                levels: 3,
                in_levels: 1,
                weight_bits: 4,
            })
            .collect::<Vec<_>>();
        let last = dims.last().map(|&(_, o)| o).unwrap_or(4);
        DataflowGraph {
            mvtus,
            label_select: LabelSelectNode {
                in_dim: last,
                classes: 2,
                weights: vec![1; 2 * last],
                bias_q: vec![0, 0],
                in_levels: 3,
                weight_bits: 4,
            },
        }
    }

    #[test]
    fn fold_cycles_formula() {
        let f = LayerFolding { pe: 8, simd: 15 };
        assert_eq!(f.fold_cycles(64, 75), (64 / 8) as u64 * (75 / 15) as u64);
        assert_eq!(LayerFolding::SEQUENTIAL.fold_cycles(64, 75), 64 * 75);
    }

    #[test]
    fn validate_catches_bad_divisors() {
        let g = graph(&[(75, 64)]);
        let bad_pe = FoldingConfig {
            layers: vec![LayerFolding { pe: 7, simd: 1 }, LayerFolding::SEQUENTIAL],
        };
        assert!(matches!(
            bad_pe.validate(&g),
            Err(DataflowError::PeNotDivisor { .. })
        ));
        let bad_simd = FoldingConfig {
            layers: vec![LayerFolding { pe: 1, simd: 7 }, LayerFolding::SEQUENTIAL],
        };
        assert!(matches!(
            bad_simd.validate(&g),
            Err(DataflowError::SimdNotDivisor { .. })
        ));
        let wrong_len = FoldingConfig::sequential(1);
        assert!(matches!(
            wrong_len.validate(&g),
            Err(DataflowError::FoldingArity { .. })
        ));
    }

    #[test]
    fn auto_fold_min_resource_is_sequential() {
        let g = graph(&[(75, 64), (64, 32)]);
        let f = auto_fold(&g, FoldingGoal::MinResource).unwrap();
        assert!(f.layers.iter().all(|l| l.pe == 1 && l.simd == 1));
        assert_eq!(f.initiation_interval(&g), 75 * 64);
    }

    #[test]
    fn auto_fold_max_parallel_reaches_ii_one() {
        let g = graph(&[(75, 64), (64, 32)]);
        let f = auto_fold(&g, FoldingGoal::MaxParallel).unwrap();
        assert_eq!(f.initiation_interval(&g), 1);
    }

    #[test]
    fn target_fps_meets_budget_with_minimal_lanes() {
        let g = graph(&[(75, 64), (64, 32)]);
        let clock = 200_000_000u64;
        for fps in [1_000.0, 10_000.0, 100_000.0, 1_000_000.0] {
            let f = auto_fold(
                &g,
                FoldingGoal::TargetFps {
                    fps,
                    clock_hz: clock,
                },
            )
            .unwrap();
            let ii = f.initiation_interval(&g);
            let achieved = clock as f64 / ii as f64;
            assert!(achieved >= fps, "fps {fps}: achieved {achieved}");
        }
    }

    #[test]
    fn higher_targets_cost_more_lanes() {
        let g = graph(&[(75, 64), (64, 32)]);
        let clock = 200_000_000u64;
        let cheap = auto_fold(
            &g,
            FoldingGoal::TargetFps {
                fps: 1_000.0,
                clock_hz: clock,
            },
        )
        .unwrap();
        let fast = auto_fold(
            &g,
            FoldingGoal::TargetFps {
                fps: 2_000_000.0,
                clock_hz: clock,
            },
        )
        .unwrap();
        assert!(fast.total_lanes() > cheap.total_lanes());
    }

    #[test]
    fn unreachable_target_errors() {
        let g = graph(&[(75, 64)]);
        let err = auto_fold(
            &g,
            FoldingGoal::TargetFps {
                fps: 1e12,
                clock_hz: 100_000_000,
            },
        )
        .unwrap_err();
        assert!(matches!(err, DataflowError::TargetUnreachable { .. }));
    }

    #[test]
    fn monotone_folding_invariant() {
        // Increasing parallelism never increases the fold.
        let g = graph(&[(24, 16)]);
        let mut last = u64::MAX;
        for pe in [1usize, 2, 4, 8, 16] {
            let f = FoldingConfig {
                layers: vec![LayerFolding { pe, simd: 1 }, LayerFolding::SEQUENTIAL],
            };
            f.validate(&g).unwrap();
            let fold = f.fold_cycles(&g)[0];
            assert!(fold <= last);
            last = fold;
        }
    }
}
