//! Error types for the QAT library.

use std::error::Error;
use std::fmt;

/// Errors raised by model construction, training and export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QnnError {
    /// Bit-width outside `1..=16`.
    InvalidBitWidth(u8),
    /// Mismatched tensor/layer dimensions.
    DimensionMismatch {
        /// What was being wired together.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// A training set with no samples (or labels out of range).
    EmptyDataset,
    /// A label index ≥ the number of classes.
    LabelOutOfRange {
        /// Offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
    /// Model has no hidden layers where one was required.
    EmptyTopology,
    /// A model quantity outside what the packed serving kernel
    /// ([`crate::kernel::PackedMlp`]) can store.
    KernelRange {
        /// What does not fit (e.g. `"weight code"`, `"accumulator"`).
        quantity: &'static str,
        /// Layer index: hidden layers first, the output layer last.
        layer: usize,
        /// The offending value.
        value: i64,
        /// Smallest value the kernel holds.
        min: i64,
        /// Largest value the kernel holds.
        max: i64,
    },
}

impl fmt::Display for QnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QnnError::InvalidBitWidth(b) => write!(f, "bit-width {b} outside 1..=16"),
            QnnError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(f, "{context}: expected dimension {expected}, got {actual}"),
            QnnError::EmptyDataset => write!(f, "training set is empty"),
            QnnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            QnnError::EmptyTopology => write!(f, "model must have at least one layer"),
            QnnError::KernelRange {
                quantity,
                layer,
                value,
                min,
                max,
            } => write!(
                f,
                "layer {layer}: {quantity} {value} outside the packed kernel's {min}..={max}"
            ),
        }
    }
}

impl Error for QnnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_contain_specifics() {
        let e = QnnError::DimensionMismatch {
            context: "layer 1 input",
            expected: 75,
            actual: 10,
        };
        let s = e.to_string();
        assert!(s.contains("75") && s.contains("10") && s.contains("layer 1"));
        assert!(QnnError::InvalidBitWidth(33).to_string().contains("33"));
    }
}
