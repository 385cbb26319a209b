//! Bit-exactness verification (FINN's cppsim/rtlsim gate).
//!
//! Every compiled accelerator must produce *identical* classes and scores
//! to the streamlined [`IntegerMlp`] reference for every input. The
//! compile flow runs the [`verify_bit_exact`] check on seeded random
//! vectors, against the dataflow graph and the IP's packed serving
//! kernel, before an IP is handed to the SoC; integration tests re-run
//! it across the full stack (property-based in
//! `tests/cosim_bit_exactness.rs`).

use canids_qnn::export::IntegerMlp;

use crate::error::DataflowError;
use crate::graph::DataflowGraph;

/// Compares the graph's functional model against the reference network on
/// `samples` seeded random binary inputs.
///
/// # Errors
///
/// [`DataflowError::VerificationFailed`] at the first mismatch.
///
/// # Example
///
/// ```
/// use canids_dataflow::graph::DataflowGraph;
/// use canids_dataflow::verify::verify_bit_exact;
/// use canids_qnn::prelude::*;
///
/// let mlp = QuantMlp::new(MlpConfig {
///     input_dim: 16,
///     hidden: vec![8],
///     ..MlpConfig::default()
/// })?;
/// let model = mlp.export()?;
/// let graph = DataflowGraph::from_integer_mlp(&model)?;
/// verify_bit_exact(&graph, &model, 128, 42)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify_bit_exact(
    graph: &DataflowGraph,
    model: &IntegerMlp,
    samples: usize,
    seed: u64,
) -> Result<(), DataflowError> {
    verify_with(
        &[&|x: &[u32]| graph.compute(x)],
        graph.input_dim(),
        model,
        samples,
        seed,
    )
}

/// A functional model of a compiled network: input levels in, class and
/// scores out.
pub(crate) type FunctionalModel<'a> = &'a dyn Fn(&[u32]) -> (usize, Vec<i64>);

/// [`verify_bit_exact`] for several functional models of one
/// `dim`-input network at once, each sample checked against one
/// reference inference (the compile gate checks the graph and the IP's
/// packed kernel together).
pub(crate) fn verify_with(
    infers: &[FunctionalModel<'_>],
    dim: usize,
    model: &IntegerMlp,
    samples: usize,
    seed: u64,
) -> Result<(), DataflowError> {
    let mut state = seed | 1;
    let mut next_bit = move || {
        // xorshift64* — deterministic input generator.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
    };
    for sample in 0..samples {
        let x: Vec<u32> = (0..dim).map(|_| u32::from(next_bit())).collect();
        let want = model.infer(&x);
        for infer in infers {
            let (class, scores) = infer(&x);
            if class != want.class || scores != want.scores {
                return Err(DataflowError::VerificationFailed {
                    sample,
                    expected: want.class,
                    actual: class,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_qnn::prelude::*;

    fn model() -> IntegerMlp {
        QuantMlp::new(MlpConfig {
            input_dim: 12,
            hidden: vec![6],
            ..MlpConfig::default()
        })
        .unwrap()
        .export()
        .unwrap()
    }

    #[test]
    fn faithful_graph_passes() {
        let m = model();
        let g = DataflowGraph::from_integer_mlp(&m).unwrap();
        verify_bit_exact(&g, &m, 256, 7).unwrap();
    }

    #[test]
    fn corrupted_weight_is_caught() {
        let m = model();
        let mut g = DataflowGraph::from_integer_mlp(&m).unwrap();
        // Corrupt one label-select weight: scores must differ even when
        // the argmax happens to survive.
        g.label_select.weights[0] += 3;
        let err = verify_bit_exact(&g, &m, 256, 7).unwrap_err();
        assert!(matches!(err, DataflowError::VerificationFailed { .. }));
    }

    #[test]
    fn corrupted_threshold_is_caught() {
        let m = model();
        let mut g = DataflowGraph::from_integer_mlp(&m).unwrap();
        // Push every first-layer threshold far negative: all neurons fire
        // at max level, which must change some score downstream.
        for t in &mut g.mvtus[0].thresholds {
            *t = i64::MIN / 2;
        }
        let err = verify_bit_exact(&g, &m, 256, 9).unwrap_err();
        assert!(matches!(err, DataflowError::VerificationFailed { .. }));
    }

    #[test]
    fn deterministic_for_seed() {
        let m = model();
        let g = DataflowGraph::from_integer_mlp(&m).unwrap();
        assert_eq!(
            verify_bit_exact(&g, &m, 64, 1).is_ok(),
            verify_bit_exact(&g, &m, 64, 1).is_ok()
        );
    }
}
