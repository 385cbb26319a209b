//! A GIC-style interrupt controller model.
//!
//! Only the facilities the ECU path needs: level interrupt lines (the
//! accelerators' done lines), per-line enables, and a claim/ack cycle.
//! The controller models 256 SPI lines; the PL-to-PS fabric routes one
//! completion line per accelerator from line 121 on, so the first 135
//! accelerators have one (see [`accel_irq_line`]). A line past the last
//! is refused with [`SocError::NoSuchIrqLine`].

use crate::error::SocError;

/// Interrupt line assigned to CAN0 RX (mirrors the ZynqMP GIC SPI).
pub const IRQ_CAN0: u32 = 55;
/// Interrupt line assigned to the first PL accelerator.
pub const IRQ_ACCEL0: u32 = 121;
/// Number of interrupt lines the controller models.
pub const IRQ_LINES: u32 = 256;

/// The completion-interrupt line of PL accelerator `idx` (consecutive
/// SPIs starting at [`IRQ_ACCEL0`], as the PL-to-PS interrupt fabric
/// routes them), or `None` past the controller's last line.
pub fn accel_irq_line(idx: usize) -> Option<u32> {
    u32::try_from(idx)
        .ok()
        .and_then(|idx| IRQ_ACCEL0.checked_add(idx))
        .filter(|&line| line < IRQ_LINES)
}

/// A simple 256-line interrupt controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterruptController {
    pending: [u128; 2],
    enabled: [u128; 2],
}

/// The word and bit of `line`, or [`SocError::NoSuchIrqLine`] past the
/// controller's last line.
fn split(line: u32) -> Result<(usize, u128), SocError> {
    if line < IRQ_LINES {
        Ok(((line / 128) as usize, 1u128 << (line % 128)))
    } else {
        Err(SocError::NoSuchIrqLine(line))
    }
}

impl InterruptController {
    /// Creates a controller with all lines disabled and idle.
    pub fn new() -> Self {
        InterruptController::default()
    }

    /// Enables or disables a line.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchIrqLine`] when `line >= 256`; the controller is
    /// left unchanged.
    pub fn set_enabled(&mut self, line: u32, enabled: bool) -> Result<(), SocError> {
        let (w, bit) = split(line)?;
        if enabled {
            self.enabled[w] |= bit;
        } else {
            self.enabled[w] &= !bit;
        }
        Ok(())
    }

    /// Whether a line is enabled.
    pub fn is_enabled(&self, line: u32) -> bool {
        split(line).is_ok_and(|(w, bit)| self.enabled[w] & bit != 0)
    }

    /// Raises a line (edge from a peripheral).
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchIrqLine`] when `line >= 256`; the controller is
    /// left unchanged.
    pub fn raise(&mut self, line: u32) -> Result<(), SocError> {
        let (w, bit) = split(line)?;
        self.pending[w] |= bit;
        Ok(())
    }

    /// Highest-priority (lowest-numbered) pending *and enabled* line.
    pub fn claim(&self) -> Option<u32> {
        for (w, (&pending, &enabled)) in self.pending.iter().zip(&self.enabled).enumerate() {
            let active = pending & enabled;
            if active != 0 {
                return Some(w as u32 * 128 + active.trailing_zeros());
            }
        }
        None
    }

    /// Acknowledges (clears) a pending line.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchIrqLine`] when `line >= 256`; the controller is
    /// left unchanged.
    pub fn ack(&mut self, line: u32) -> Result<(), SocError> {
        let (w, bit) = split(line)?;
        self.pending[w] &= !bit;
        Ok(())
    }

    /// Whether a line is pending (regardless of enable).
    pub fn is_pending(&self, line: u32) -> bool {
        split(line).is_ok_and(|(w, bit)| self.pending[w] & bit != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_lines_are_not_claimed() {
        let mut gic = InterruptController::new();
        gic.raise(IRQ_CAN0).unwrap();
        assert_eq!(gic.claim(), None);
        gic.set_enabled(IRQ_CAN0, true).unwrap();
        assert_eq!(gic.claim(), Some(IRQ_CAN0));
        assert!(gic.is_enabled(IRQ_CAN0));
    }

    #[test]
    fn claim_returns_lowest_line() {
        let mut gic = InterruptController::new();
        gic.set_enabled(IRQ_CAN0, true).unwrap();
        gic.set_enabled(IRQ_ACCEL0, true).unwrap();
        gic.raise(IRQ_ACCEL0).unwrap();
        gic.raise(IRQ_CAN0).unwrap();
        assert_eq!(gic.claim(), Some(IRQ_CAN0));
        gic.ack(IRQ_CAN0).unwrap();
        assert_eq!(gic.claim(), Some(IRQ_ACCEL0));
        gic.ack(IRQ_ACCEL0).unwrap();
        assert_eq!(gic.claim(), None);
    }

    #[test]
    fn pending_is_tracked_independently_of_enable() {
        let mut gic = InterruptController::new();
        gic.raise(3).unwrap();
        assert!(gic.is_pending(3));
        assert!(!gic.is_pending(4));
        assert_eq!(gic.claim(), None);
    }

    #[test]
    fn upper_word_lines_work() {
        // An 8-detector deployment uses accelerator lines 121..=128; line
        // 128 crosses into the second word.
        let mut gic = InterruptController::new();
        let line = accel_irq_line(7).unwrap();
        assert_eq!(line, 128);
        gic.set_enabled(line, true).unwrap();
        gic.raise(line).unwrap();
        assert_eq!(gic.claim(), Some(line));
        gic.ack(line).unwrap();
        assert_eq!(gic.claim(), None);
        assert!(!gic.is_pending(line));
    }

    #[test]
    fn accel_lines_are_consecutive() {
        assert_eq!(accel_irq_line(0), Some(IRQ_ACCEL0));
        assert_eq!(accel_irq_line(3), Some(IRQ_ACCEL0 + 3));
        // ... up to the controller's last line.
        assert_eq!(accel_irq_line(134), Some(IRQ_LINES - 1));
        assert_eq!(accel_irq_line(135), None);
        assert_eq!(accel_irq_line(usize::MAX), None);
    }

    #[test]
    fn out_of_range_lines_are_refused_and_change_nothing() {
        let mut gic = InterruptController::new();
        gic.set_enabled(IRQ_CAN0, true).unwrap();
        gic.raise(IRQ_ACCEL0).unwrap();
        let before = gic.clone();
        for line in [IRQ_LINES, IRQ_LINES + 1, u32::MAX] {
            let refused = Err(SocError::NoSuchIrqLine(line));
            assert_eq!(gic.set_enabled(line, true), refused);
            assert_eq!(gic.set_enabled(line, false), refused);
            assert_eq!(gic.raise(line), refused);
            assert_eq!(gic.ack(line), refused);
            assert!(!gic.is_enabled(line) && !gic.is_pending(line));
        }
        assert_eq!(gic, before);
        // The last line is still a line.
        assert_eq!(gic.raise(IRQ_LINES - 1), Ok(()));
    }
}
