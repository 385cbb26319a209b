//! Cycle-accurate simulation of the folded streaming pipeline.
//!
//! Each stage (MVTU or label-select) is modelled as a unit that accepts
//! one frame, is busy for its fold (`(MH/PE)·(MW/SIMD)` cycles), and then
//! hands the result to the next stage's FIFO through a one-cycle register
//! boundary with ready/valid backpressure. This reproduces the two
//! numbers the hardware analysis needs exactly:
//!
//! * per-frame latency = `Σ (fold_i + 1)` cycles through an empty
//!   pipeline, and
//! * steady-state initiation interval = `max(fold_i)` cycles
//!
//! while also exposing transient behaviour (FIFO stalls under shallow
//! buffering) that the analytic formulas miss.

use crate::error::DataflowError;
use crate::folding::FoldingConfig;
use crate::graph::DataflowGraph;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Inter-stage FIFO depth in frames.
    pub fifo_depth: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { fifo_depth: 2 }
    }
}

/// Result of a timed simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Predicted class per input frame, in input order.
    pub predictions: Vec<usize>,
    /// Raw classifier scores per frame.
    pub scores: Vec<Vec<i64>>,
    /// Cycle at which the last output left the pipeline.
    pub total_cycles: u64,
    /// Per-frame cycles from stage-0 injection to final output.
    pub frame_latencies: Vec<u64>,
    /// Cycles any stage spent blocked on a full downstream FIFO.
    pub stall_cycles: u64,
}

impl SimReport {
    /// Sustained throughput in frames/second at `clock_hz`.
    pub fn throughput_fps(&self, clock_hz: u64) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.predictions.len() as f64 * clock_hz as f64 / self.total_cycles as f64
        }
    }

    /// Latency of frame `i` in seconds at `clock_hz`, or `None` when `i`
    /// is out of range (fewer frames were simulated than asked about).
    pub fn latency_secs(&self, i: usize, clock_hz: u64) -> Option<f64> {
        self.frame_latencies
            .get(i)
            .map(|&cycles| cycles as f64 / clock_hz as f64)
    }
}

struct Stage {
    fold: u64,
    fifo: std::collections::VecDeque<(u64, Vec<u32>)>,
    busy: u64,
    inflight: Option<(u64, Vec<u32>)>,
    done: Option<(u64, Vec<u32>)>,
}

/// The timed accelerator model for one compiled network + folding.
///
/// # Example
///
/// ```
/// use canids_dataflow::folding::{auto_fold, FoldingGoal};
/// use canids_dataflow::graph::DataflowGraph;
/// use canids_dataflow::simulator::{AcceleratorSim, SimConfig};
/// use canids_qnn::prelude::*;
///
/// let mlp = QuantMlp::new(MlpConfig {
///     input_dim: 8,
///     hidden: vec![4],
///     ..MlpConfig::default()
/// })?;
/// let graph = DataflowGraph::from_integer_mlp(&mlp.export()?)?;
/// let folding = auto_fold(&graph, FoldingGoal::MaxParallel)?;
/// let sim = AcceleratorSim::new(graph, &folding, SimConfig::default())?;
/// let report = sim.run(&[vec![1, 0, 1, 0, 0, 1, 1, 0]]);
/// assert_eq!(report.predictions.len(), 1);
/// assert_eq!(report.frame_latencies[0], sim.single_frame_latency_cycles());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorSim {
    graph: DataflowGraph,
    folds: Vec<u64>,
    config: SimConfig,
}

impl AcceleratorSim {
    /// Builds a simulator for `graph` at `folding`.
    ///
    /// # Errors
    ///
    /// Propagates folding validation errors.
    pub fn new(
        graph: DataflowGraph,
        folding: &FoldingConfig,
        config: SimConfig,
    ) -> Result<Self, DataflowError> {
        folding.validate(&graph)?;
        let folds = folding.fold_cycles(&graph);
        Ok(AcceleratorSim {
            graph,
            folds,
            config,
        })
    }

    /// The compiled graph.
    pub fn graph(&self) -> &DataflowGraph {
        &self.graph
    }

    /// Steady-state initiation interval in cycles.
    pub fn initiation_interval(&self) -> u64 {
        self.folds.iter().copied().max().unwrap_or(1)
    }

    /// Analytic single-frame latency: `Σ (fold_i + 1)` cycles.
    pub fn single_frame_latency_cycles(&self) -> u64 {
        self.folds.iter().map(|f| f + 1).sum()
    }

    /// Runs `inputs` through the timed pipeline.
    ///
    /// # Panics
    ///
    /// Panics when an input vector length differs from the graph input
    /// dimension.
    pub fn run(&self, inputs: &[Vec<u32>]) -> SimReport {
        let n_stages = self.folds.len();
        // `self.folds` comes from `FoldingConfig::fold_cycles`, which
        // clamps every stage to ≥ 1 cycle — the same values the analytic
        // accessors use, so the documented identities hold even for
        // degenerate foldings.
        let mut stages: Vec<Stage> = self
            .folds
            .iter()
            .map(|&fold| Stage {
                fold,
                fifo: std::collections::VecDeque::new(),
                busy: 0,
                inflight: None,
                done: None,
            })
            .collect();

        let mut next_input = 0usize;
        let mut outputs: Vec<Option<(usize, Vec<i64>, u64)>> = vec![None; inputs.len()];
        let mut tags: Vec<u64> = vec![0; inputs.len()];
        let mut collected = 0usize;
        let mut stall_cycles = 0u64;
        let mut cycle: u64 = 0;
        let budget: u64 = (self.folds.iter().sum::<u64>() + 16) * (inputs.len() as u64 + 4) + 1_000;
        // Recycled token buffers: the number of live tokens is bounded by
        // the pipeline occupancy (FIFO slots + in-flight + parked per
        // stage), so after warm-up the steady-state inner loop allocates
        // nothing per frame.
        let mut pool: Vec<Vec<u32>> = Vec::new();
        let mut scores_buf: Vec<i64> = Vec::new();

        while collected < inputs.len() {
            assert!(
                cycle < budget,
                "simulation exceeded cycle budget (deadlock?)"
            );

            // Feed external inputs into stage 0.
            while next_input < inputs.len() && stages[0].fifo.len() < self.config.fifo_depth {
                let mut buf = pool.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(&inputs[next_input]);
                tags[next_input] = cycle;
                stages[0].fifo.push_back((next_input as u64, buf));
                next_input += 1;
            }

            // Process stages back to front: a result pushed by stage s at
            // its completion cycle lands in stage s+1's FIFO after s+1 has
            // already run this cycle, so it is consumed next cycle — the
            // one-cycle register boundary between stages.
            for s in (0..n_stages).rev() {
                // A. Retry a parked (backpressured) handoff.
                if let Some((tag, result)) = stages[s].done.take() {
                    if stages[s + 1].fifo.len() < self.config.fifo_depth {
                        stages[s + 1].fifo.push_back((tag, result));
                    } else {
                        stall_cycles += 1;
                        stages[s].done = Some((tag, result));
                    }
                }
                // B. Advance the busy counter; on completion, emit.
                if stages[s].busy > 0 {
                    stages[s].busy -= 1;
                    if stages[s].busy == 0 {
                        let (tag, input) = stages[s]
                            .inflight
                            .take()
                            // lint:allow(panic-in-lib): section C sets `busy` only together with `inflight`, and only this completion takes it
                            .expect("busy stage has work");
                        let mut result = pool.pop().unwrap_or_default();
                        if s < self.graph.mvtus.len() {
                            self.graph.mvtus[s].compute_into(&input, &mut result);
                        } else {
                            let class = self
                                .graph
                                .label_select
                                .compute_into(&input, &mut scores_buf);
                            encode_final_into(class, &scores_buf, &mut result);
                        }
                        pool.push(input);
                        if s + 1 == n_stages {
                            // Final stage: the output port never stalls.
                            let idx = tag as usize;
                            let (class, scores) = decode_final(&result);
                            pool.push(result);
                            outputs[idx] = Some((class, scores, cycle + 1 - tags[idx]));
                            collected += 1;
                        } else if stages[s].done.is_none()
                            && stages[s + 1].fifo.len() < self.config.fifo_depth
                        {
                            stages[s + 1].fifo.push_back((tag, result));
                        } else {
                            stall_cycles += 1;
                            stages[s].done = Some((tag, result));
                        }
                    }
                }
                // C. Start new work when the unit is idle and no completed
                // result is parked (backpressure stalls the stage).
                if stages[s].busy == 0 && stages[s].inflight.is_none() && stages[s].done.is_none() {
                    if let Some((tag, input)) = stages[s].fifo.pop_front() {
                        stages[s].inflight = Some((tag, input));
                        stages[s].busy = stages[s].fold;
                    }
                }
            }
            cycle += 1;

            // Event skip — the deep-fold fast path. After a full pass in
            // which no stage is ready to start queued work next cycle
            // (the back-to-front order means an upstream handoff can land
            // in a FIFO whose idle stage already ran its start section),
            // nothing can change until the next unit completes: stage-0's
            // FIFO is as full as the remaining inputs allow, and a parked
            // handoff stays blocked exactly until its downstream unit
            // completes (a full downstream FIFO implies a busy downstream
            // unit). So jump the clock to one cycle before the earliest
            // completion, accruing the stall cycles parked stages would
            // have counted, instead of idling cycle-by-cycle through
            // multi-thousand-cycle sequential folds. Timing is
            // bit-identical to the stepped loop (the reference-model test
            // pins this).
            let ready_to_start = stages.iter().any(|st| {
                st.busy == 0 && st.inflight.is_none() && st.done.is_none() && !st.fifo.is_empty()
            });
            // Stage 0's start section may have opened a FIFO slot after
            // this cycle's injection loop ran: the next injection is due
            // next cycle and must not be jumped over.
            let injection_due =
                next_input < inputs.len() && stages[0].fifo.len() < self.config.fifo_depth;
            if ready_to_start || injection_due {
                continue;
            }
            let min_busy = stages
                .iter()
                .filter(|st| st.busy > 0)
                .map(|st| st.busy)
                .min();
            if let Some(next_completion) = min_busy {
                let skip = next_completion - 1;
                if skip > 0 {
                    for st in &mut stages {
                        if st.busy > 0 {
                            st.busy -= skip;
                        }
                        if st.done.is_some() {
                            stall_cycles += skip;
                        }
                    }
                    cycle += skip;
                }
            }
        }

        let mut predictions = Vec::with_capacity(inputs.len());
        let mut scores = Vec::with_capacity(inputs.len());
        let mut frame_latencies = Vec::with_capacity(inputs.len());
        let mut total_cycles = 0u64;
        for (i, out) in outputs.into_iter().enumerate() {
            // lint:allow(panic-in-lib): the loop above exits only once every input's tag reached the final stage and filled its slot
            let (class, s, latency) = out.expect("all frames collected");
            predictions.push(class);
            scores.push(s);
            frame_latencies.push(latency);
            total_cycles = total_cycles.max(tags[i] + latency);
        }
        SimReport {
            predictions,
            scores,
            total_cycles,
            frame_latencies,
            stall_cycles,
        }
    }
}

/// The final stage's output is a score vector; encode it losslessly into
/// the `Vec<u32>` inter-stage token format.
#[cfg(test)]
fn encode_final(class: usize, scores: &[i64]) -> Vec<u32> {
    let mut out = Vec::with_capacity(1 + scores.len() * 2);
    encode_final_into(class, scores, &mut out);
    out
}

/// [`encode_final`] into a recycled buffer (cleared and refilled).
fn encode_final_into(class: usize, scores: &[i64], out: &mut Vec<u32>) {
    out.clear();
    out.push(class as u32);
    for &s in scores {
        out.push((s as u64 >> 32) as u32);
        out.push((s as u64 & 0xFFFF_FFFF) as u32);
    }
}

fn decode_final(token: &[u32]) -> (usize, Vec<i64>) {
    let class = token[0] as usize;
    let mut scores = Vec::with_capacity((token.len() - 1) / 2);
    for pair in token[1..].chunks(2) {
        let v = (u64::from(pair[0]) << 32) | u64::from(pair[1]);
        scores.push(v as i64);
    }
    (class, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folding::{auto_fold, FoldingGoal, LayerFolding};
    use canids_qnn::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model(input_dim: usize, hidden: Vec<usize>) -> IntegerMlp {
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim,
            hidden,
            seed: 17,
            ..MlpConfig::default()
        })
        .unwrap();
        // Light training so thresholds are calibrated and non-trivial.
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<Vec<f32>> = (0..200)
            .map(|_| {
                (0..input_dim)
                    .map(|_| f32::from(rng.gen_bool(0.5) as u8))
                    .collect()
            })
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &xs, &ys)
        .unwrap();
        mlp.export().unwrap()
    }

    fn random_inputs(dim: usize, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| u32::from(rng.gen_bool(0.5))).collect())
            .collect()
    }

    fn sim(
        input_dim: usize,
        hidden: Vec<usize>,
        goal: FoldingGoal,
    ) -> (AcceleratorSim, IntegerMlp) {
        let m = model(input_dim, hidden);
        let g = DataflowGraph::from_integer_mlp(&m).unwrap();
        let f = auto_fold(&g, goal).unwrap();
        (AcceleratorSim::new(g, &f, SimConfig::default()).unwrap(), m)
    }

    #[test]
    fn functional_outputs_match_reference_model() {
        let (sim, m) = sim(12, vec![8, 6], FoldingGoal::MinResource);
        let inputs = random_inputs(12, 100, 9);
        let report = sim.run(&inputs);
        for (i, x) in inputs.iter().enumerate() {
            let want = m.infer(x);
            assert_eq!(report.predictions[i], want.class, "frame {i}");
            assert_eq!(report.scores[i], want.scores, "frame {i}");
        }
    }

    #[test]
    fn single_frame_latency_matches_analytic() {
        for goal in [FoldingGoal::MinResource, FoldingGoal::MaxParallel] {
            let (sim, _) = sim(12, vec![8, 6], goal);
            let inputs = random_inputs(12, 1, 1);
            let report = sim.run(&inputs);
            assert_eq!(
                report.frame_latencies[0],
                sim.single_frame_latency_cycles(),
                "goal {goal:?}"
            );
        }
    }

    #[test]
    fn steady_state_throughput_tracks_initiation_interval() {
        let (sim, _) = sim(12, vec![8, 6], FoldingGoal::MinResource);
        let n = 50usize;
        let inputs = random_inputs(12, n, 2);
        let report = sim.run(&inputs);
        let ii = sim.initiation_interval();
        let ideal = sim.single_frame_latency_cycles() + (n as u64 - 1) * ii;
        assert!(
            report.total_cycles >= ideal,
            "{} < ideal {ideal}",
            report.total_cycles
        );
        assert!(
            report.total_cycles <= ideal + 4 * n as u64,
            "{} too far above ideal {ideal}",
            report.total_cycles
        );
    }

    #[test]
    fn max_parallel_reaches_ii_one() {
        let (sim, _) = sim(8, vec![4], FoldingGoal::MaxParallel);
        assert_eq!(sim.initiation_interval(), 1);
        let n = 40usize;
        let report = sim.run(&random_inputs(8, n, 3));
        // One frame per cycle after the pipeline fills.
        let fill = sim.single_frame_latency_cycles();
        assert!(report.total_cycles <= fill + n as u64 + 4);
    }

    #[test]
    fn shallow_fifos_still_complete() {
        let m = model(12, vec![8, 6]);
        let g = DataflowGraph::from_integer_mlp(&m).unwrap();
        // Deliberately unbalanced folding: stage 1 is the bottleneck.
        let f = FoldingConfig {
            layers: vec![
                LayerFolding { pe: 8, simd: 12 },
                LayerFolding { pe: 1, simd: 1 },
                LayerFolding { pe: 1, simd: 1 },
            ],
        };
        let sim = AcceleratorSim::new(g, &f, SimConfig { fifo_depth: 1 }).unwrap();
        let inputs = random_inputs(12, 30, 4);
        let report = sim.run(&inputs);
        assert_eq!(report.predictions.len(), 30);
        assert!(report.stall_cycles > 0, "bottleneck must cause stalls");
    }

    #[test]
    fn throughput_fps_scales_with_clock() {
        let (sim, _) = sim(12, vec![8], FoldingGoal::MinResource);
        let report = sim.run(&random_inputs(12, 10, 5));
        let at100 = report.throughput_fps(100_000_000);
        let at200 = report.throughput_fps(200_000_000);
        assert!((at200 / at100 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_secs_conversion() {
        let (sim, _) = sim(12, vec![8], FoldingGoal::MinResource);
        let report = sim.run(&random_inputs(12, 1, 6));
        let s = report.latency_secs(0, 200_000_000).unwrap();
        assert!((s - report.frame_latencies[0] as f64 / 2e8).abs() < 1e-15);
        // Out-of-range indices are a `None`, not a panic.
        assert_eq!(report.latency_secs(1, 200_000_000), None);
        assert_eq!(report.latency_secs(usize::MAX, 200_000_000), None);
    }

    #[test]
    fn degenerate_zero_cycle_fold_keeps_analytic_identities() {
        use crate::graph::{LabelSelectNode, MvtuNode};
        // A zero-input MVTU stage folds to 0 raw cycles; the shared clamp
        // must keep the simulator and the analytic accessors agreeing.
        let g = DataflowGraph {
            mvtus: vec![MvtuNode {
                in_dim: 0,
                out_dim: 2,
                weights: vec![],
                thresholds: vec![0, 1, 2, 0, 1, 2],
                levels: 3,
                in_levels: 1,
                weight_bits: 4,
            }],
            label_select: LabelSelectNode {
                in_dim: 2,
                classes: 2,
                weights: vec![1, 0, 0, 1],
                bias_q: vec![0, 0],
                in_levels: 3,
                weight_bits: 4,
            },
        };
        let f = FoldingConfig::sequential(2);
        let sim = AcceleratorSim::new(g, &f, SimConfig::default()).unwrap();
        // The degenerate stage is clamped to one cycle everywhere.
        assert_eq!(sim.initiation_interval(), 4, "label-select fold 2x2");
        assert_eq!(sim.single_frame_latency_cycles(), (1 + 1) + (4 + 1));
        let report = sim.run(&[vec![], vec![]]);
        assert_eq!(report.frame_latencies[0], sim.single_frame_latency_cycles());
        // Steady state: one frame per initiation interval.
        assert!(
            report.total_cycles >= sim.single_frame_latency_cycles() + sim.initiation_interval()
        );
    }

    /// The pre-optimisation stepped simulator (one loop iteration per
    /// cycle, freshly allocated tokens): the reference the event-skip
    /// fast path must match bit for bit.
    fn run_reference(sim: &AcceleratorSim, inputs: &[Vec<u32>]) -> SimReport {
        let folds = {
            // Same folds the optimised path uses.
            let mut v = Vec::new();
            for s in 0..sim.folds.len() {
                v.push(sim.folds[s]);
            }
            v
        };
        let n_stages = folds.len();
        let depth = sim.config.fifo_depth;
        let mut stages: Vec<Stage> = folds
            .iter()
            .map(|&fold| Stage {
                fold,
                fifo: std::collections::VecDeque::new(),
                busy: 0,
                inflight: None,
                done: None,
            })
            .collect();
        let mut pending: std::collections::VecDeque<(usize, Vec<u32>)> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| (i, x.clone()))
            .collect();
        let mut outputs: Vec<Option<(usize, Vec<i64>, u64)>> = vec![None; inputs.len()];
        let mut tags: Vec<u64> = vec![0; inputs.len()];
        let mut collected = 0usize;
        let mut stall_cycles = 0u64;
        let mut cycle: u64 = 0;
        while collected < inputs.len() {
            while let Some((idx, _)) = pending.front() {
                if stages[0].fifo.len() < depth {
                    let (idx, x) = (*idx, pending.front().unwrap().1.clone());
                    tags[idx] = cycle;
                    pending.pop_front();
                    stages[0].fifo.push_back((idx as u64, x));
                } else {
                    break;
                }
            }
            for s in (0..n_stages).rev() {
                if let Some((tag, result)) = stages[s].done.take() {
                    if stages[s + 1].fifo.len() < depth {
                        stages[s + 1].fifo.push_back((tag, result));
                    } else {
                        stall_cycles += 1;
                        stages[s].done = Some((tag, result));
                    }
                }
                if stages[s].busy > 0 {
                    stages[s].busy -= 1;
                    if stages[s].busy == 0 {
                        let (tag, input) = stages[s].inflight.take().unwrap();
                        let result = if s < sim.graph.mvtus.len() {
                            sim.graph.mvtus[s].compute(&input)
                        } else {
                            let (class, scores) = sim.graph.label_select.compute(&input);
                            encode_final(class, &scores)
                        };
                        if s + 1 == n_stages {
                            let idx = tag as usize;
                            let (class, scores) = decode_final(&result);
                            outputs[idx] = Some((class, scores, cycle + 1 - tags[idx]));
                            collected += 1;
                        } else if stages[s].done.is_none() && stages[s + 1].fifo.len() < depth {
                            stages[s + 1].fifo.push_back((tag, result));
                        } else {
                            stall_cycles += 1;
                            stages[s].done = Some((tag, result));
                        }
                    }
                }
                if stages[s].busy == 0 && stages[s].inflight.is_none() && stages[s].done.is_none() {
                    if let Some((tag, input)) = stages[s].fifo.pop_front() {
                        stages[s].inflight = Some((tag, input));
                        stages[s].busy = stages[s].fold;
                    }
                }
            }
            cycle += 1;
        }
        let mut predictions = Vec::new();
        let mut scores = Vec::new();
        let mut frame_latencies = Vec::new();
        let mut total_cycles = 0u64;
        for (i, out) in outputs.into_iter().enumerate() {
            let (class, s, latency) = out.unwrap();
            predictions.push(class);
            scores.push(s);
            frame_latencies.push(latency);
            total_cycles = total_cycles.max(tags[i] + latency);
        }
        SimReport {
            predictions,
            scores,
            total_cycles,
            frame_latencies,
            stall_cycles,
        }
    }

    #[test]
    fn event_skip_is_bit_identical_to_the_stepped_reference() {
        // Every timing fact — per-frame latencies, total cycles, stall
        // accounting — must survive the event-skip optimisation exactly,
        // across fold regimes (deep sequential, full parallel, an
        // unbalanced bottleneck under a shallow FIFO).
        let m = model(12, vec![8, 6]);
        let g = DataflowGraph::from_integer_mlp(&m).unwrap();
        let cases: Vec<(FoldingConfig, usize)> = vec![
            (auto_fold(&g, FoldingGoal::MinResource).unwrap(), 2),
            (auto_fold(&g, FoldingGoal::MaxParallel).unwrap(), 2),
            (
                FoldingConfig {
                    layers: vec![
                        LayerFolding { pe: 8, simd: 12 },
                        LayerFolding { pe: 1, simd: 1 },
                        LayerFolding { pe: 1, simd: 1 },
                    ],
                },
                1,
            ),
        ];
        let inputs = random_inputs(12, 30, 77);
        for (folding, fifo_depth) in cases {
            let sim = AcceleratorSim::new(g.clone(), &folding, SimConfig { fifo_depth }).unwrap();
            let fast = sim.run(&inputs);
            let reference = run_reference(&sim, &inputs);
            assert_eq!(fast, reference, "folding {folding:?} depth {fifo_depth}");
        }
    }

    #[test]
    fn final_token_encoding_round_trips() {
        let scores = vec![-123_456_789_012i64, 987_654_321, 0, i64::MIN / 4];
        let token = encode_final(2, &scores);
        let (class, back) = decode_final(&token);
        assert_eq!(class, 2);
        assert_eq!(back, scores);
    }
}
