//! Error types for the SoC substrate.

use std::error::Error;
use std::fmt;

/// Errors raised by the bus fabric, peripherals and drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocError {
    /// No peripheral is mapped at the address.
    UnmappedAddress(u64),
    /// A mapping would overlap an existing region.
    OverlappingRegion {
        /// Base of the new region.
        base: u64,
        /// Size of the new region.
        size: u64,
    },
    /// Write to a read-only register or read of a write-only register.
    AccessViolation {
        /// Absolute address.
        addr: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// An accelerator index that was never attached.
    NoSuchAccelerator(usize),
    /// An interrupt-driven call on an accelerator past the last line of
    /// the interrupt fabric (see [`crate::interrupt::accel_irq_line`]).
    NoIrqLine(usize),
    /// An interrupt line past the controller's last
    /// ([`crate::interrupt::IRQ_LINES`]).
    NoSuchIrqLine(u32),
    /// Started an inference while the IP was still busy.
    DeviceBusy,
    /// The feature vector length does not match the IP input width.
    InputDimension {
        /// Expected feature count.
        expected: usize,
        /// Provided feature count.
        actual: usize,
    },
    /// Polling exceeded the watchdog budget (hardware hang).
    PollTimeout,
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::UnmappedAddress(a) => write!(f, "no peripheral mapped at {a:#x}"),
            SocError::OverlappingRegion { base, size } => {
                write!(f, "region {base:#x}+{size:#x} overlaps an existing mapping")
            }
            SocError::AccessViolation { addr, reason } => {
                write!(f, "access violation at {addr:#x}: {reason}")
            }
            SocError::NoSuchAccelerator(i) => write!(f, "accelerator {i} not attached"),
            SocError::NoIrqLine(i) => write!(f, "accelerator {i} has no interrupt line"),
            SocError::NoSuchIrqLine(l) => write!(
                f,
                "interrupt line {l} is past the controller's last line {}",
                crate::interrupt::IRQ_LINES - 1
            ),
            SocError::DeviceBusy => write!(f, "accelerator busy"),
            SocError::InputDimension { expected, actual } => {
                write!(f, "input has {actual} features, IP expects {expected}")
            }
            SocError::PollTimeout => write!(f, "status poll exceeded watchdog budget"),
        }
    }
}

impl Error for SocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        assert!(SocError::UnmappedAddress(0xA000_0000)
            .to_string()
            .contains("0xa0000000"));
        assert!(SocError::InputDimension {
            expected: 75,
            actual: 10
        }
        .to_string()
        .contains("75"));
    }
}
