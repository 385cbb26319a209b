//! Error types for the dataflow compiler.

use std::error::Error;
use std::fmt;

use canids_qnn::QnnError;

/// Errors raised while compiling or simulating an accelerator.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// PE must divide the layer's output dimension.
    PeNotDivisor {
        /// Layer index.
        layer: usize,
        /// Requested processing elements.
        pe: usize,
        /// Output dimension (matrix height).
        mh: usize,
    },
    /// SIMD must divide the layer's input dimension.
    SimdNotDivisor {
        /// Layer index.
        layer: usize,
        /// Requested SIMD lanes.
        simd: usize,
        /// Input dimension (matrix width).
        mw: usize,
    },
    /// The network has no layers.
    EmptyNetwork,
    /// Folding list length does not match the layer count.
    FoldingArity {
        /// Expected (layer count).
        expected: usize,
        /// Provided.
        actual: usize,
    },
    /// No folding meets the requested throughput on this clock.
    TargetUnreachable {
        /// Requested frames/second.
        target_fps: f64,
        /// Best achievable frames/second at full parallelism.
        best_fps: f64,
    },
    /// Bit-exactness verification against the reference model failed.
    VerificationFailed {
        /// Index of the first mismatching sample.
        sample: usize,
        /// Expected class.
        expected: usize,
        /// Accelerator output class.
        actual: usize,
    },
    /// The design does not fit the selected device.
    DeviceOverflow {
        /// Resource that overflowed (e.g. "LUT").
        resource: &'static str,
        /// Required amount.
        required: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// The packed serving kernel cannot hold the model: the error
    /// [`canids_qnn::kernel::PackedMlp::new`] refused it with, a
    /// [`QnnError::KernelRange`] for a quantity outside the kernel's
    /// storage.
    KernelRefused(QnnError),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::PeNotDivisor { layer, pe, mh } => {
                write!(f, "layer {layer}: PE {pe} does not divide output dim {mh}")
            }
            DataflowError::SimdNotDivisor { layer, simd, mw } => {
                write!(f, "layer {layer}: SIMD {simd} does not divide input dim {mw}")
            }
            DataflowError::EmptyNetwork => write!(f, "network has no layers"),
            DataflowError::FoldingArity { expected, actual } => {
                write!(f, "folding list has {actual} entries, network has {expected} layers")
            }
            DataflowError::TargetUnreachable {
                target_fps,
                best_fps,
            } => write!(
                f,
                "target {target_fps:.0} frames/s unreachable (best {best_fps:.0})"
            ),
            DataflowError::VerificationFailed {
                sample,
                expected,
                actual,
            } => write!(
                f,
                "bit-exactness verification failed at sample {sample}: expected class {expected}, got {actual}"
            ),
            DataflowError::DeviceOverflow {
                resource,
                required,
                capacity,
            } => write!(f, "{resource} overflow: need {required}, device has {capacity}"),
            DataflowError::KernelRefused(e) => write!(f, "packed serving kernel refuses the model: {e}"),
        }
    }
}

impl Error for DataflowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataflowError::KernelRefused(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_numbers() {
        let e = DataflowError::PeNotDivisor {
            layer: 1,
            pe: 7,
            mh: 64,
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("64"));
        let v = DataflowError::VerificationFailed {
            sample: 3,
            expected: 1,
            actual: 0,
        }
        .to_string();
        assert!(v.contains("sample 3"));
    }
}
