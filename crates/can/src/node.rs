//! CAN controller model: TX priority queue, RX FIFO, acceptance filtering
//! and the ISO 11898-1 error-confinement state machine.

use std::collections::VecDeque;

use crate::arbitration::ArbitrationField;
use crate::error::CanError;
use crate::filter::FilterBank;
use crate::frame::CanFrame;
use crate::time::SimTime;

/// Error-confinement state (ISO 11898-1 §12.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorState {
    /// Normal operation; sends active (dominant) error flags.
    ErrorActive,
    /// TEC or REC exceeded 127; sends passive error flags.
    ErrorPassive,
    /// TEC exceeded 255; the controller has disconnected from the bus.
    BusOff,
}

/// Static controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Hardware receive FIFO depth in frames (Xilinx CANPS: 64).
    pub rx_fifo_depth: usize,
    /// Transmit queue depth in frames.
    pub tx_queue_depth: usize,
    /// Acceptance filters (empty bank = accept everything).
    pub filters: FilterBank,
    /// When `true` the controller receives its own transmissions
    /// (loopback/snoop mode — not used by normal ECUs).
    pub self_reception: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            rx_fifo_depth: 64,
            tx_queue_depth: 16,
            filters: FilterBank::new(),
            self_reception: false,
        }
    }
}

/// Running counters exposed for diagnostics and the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Frames successfully transmitted.
    pub tx_frames: u64,
    /// Frames accepted into the RX FIFO.
    pub rx_frames: u64,
    /// Frames rejected by the acceptance filters.
    pub rx_filtered: u64,
    /// Frames lost to RX FIFO overflow.
    pub rx_overflows: u64,
    /// Transmission attempts that lost arbitration.
    pub arbitration_losses: u64,
    /// Transmit errors (bit/ack errors on the wire).
    pub tx_errors: u64,
    /// Receive errors observed.
    pub rx_errors: u64,
    /// Frames refused because the TX queue was full.
    pub tx_drops: u64,
}

/// A timestamped received frame, as popped from the RX FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxFrame {
    /// Bus time at which the frame completed (end of EOF).
    pub timestamp: SimTime,
    /// The received frame.
    pub frame: CanFrame,
}

/// A CAN protocol controller attached to one bus node.
///
/// The controller is driven by [`crate::bus::Bus`]: the bus pulls the
/// highest-priority pending frame for arbitration and pushes received
/// frames in. Application code interacts through [`queue_tx`] and
/// [`pop_rx`].
///
/// [`queue_tx`]: CanController::queue_tx
/// [`pop_rx`]: CanController::pop_rx
///
/// # Example
///
/// ```
/// use canids_can::node::{CanController, ControllerConfig};
/// use canids_can::frame::{CanFrame, CanId};
///
/// let mut ctrl = CanController::new(ControllerConfig::default());
/// ctrl.queue_tx(CanFrame::new(CanId::standard(0x316)?, &[1, 2])?)?;
/// assert!(ctrl.peek_tx().is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CanController {
    config: ControllerConfig,
    tx_queue: Vec<CanFrame>,
    rx_fifo: VecDeque<RxFrame>,
    tec: u32,
    rec: u32,
    stats: ControllerStats,
}

impl CanController {
    /// Creates a controller in the error-active state.
    pub fn new(config: ControllerConfig) -> Self {
        CanController {
            config,
            tx_queue: Vec::new(),
            rx_fifo: VecDeque::new(),
            tec: 0,
            rec: 0,
            stats: ControllerStats::default(),
        }
    }

    /// The controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Current error-confinement state derived from TEC/REC.
    pub fn error_state(&self) -> ErrorState {
        if self.tec > 255 {
            ErrorState::BusOff
        } else if self.tec > 127 || self.rec > 127 {
            ErrorState::ErrorPassive
        } else {
            ErrorState::ErrorActive
        }
    }

    /// Transmit error counter.
    pub fn tec(&self) -> u32 {
        self.tec
    }

    /// Receive error counter.
    pub fn rec(&self) -> u32 {
        self.rec
    }

    /// Statistics counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Queues a frame for transmission.
    ///
    /// # Errors
    ///
    /// * [`CanError::BusOff`] when the controller is bus-off,
    /// * [`CanError::TxQueueFull`] when the TX queue is at capacity (the
    ///   drop is also counted in [`ControllerStats::tx_drops`]).
    pub fn queue_tx(&mut self, frame: CanFrame) -> Result<(), CanError> {
        if self.error_state() == ErrorState::BusOff {
            return Err(CanError::BusOff);
        }
        if self.tx_queue.len() >= self.config.tx_queue_depth {
            self.stats.tx_drops += 1;
            return Err(CanError::TxQueueFull);
        }
        self.tx_queue.push(frame);
        Ok(())
    }

    /// The highest-priority frame waiting for transmission, if any.
    pub fn peek_tx(&self) -> Option<&CanFrame> {
        self.tx_queue
            .iter()
            .min_by(|a, b| ArbitrationField::of(a).cmp(&ArbitrationField::of(b)))
    }

    /// Removes and returns the highest-priority pending frame.
    pub fn pop_tx(&mut self) -> Option<CanFrame> {
        let idx = self
            .tx_queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| ArbitrationField::of(a).cmp(&ArbitrationField::of(b)))
            .map(|(i, _)| i)?;
        Some(self.tx_queue.swap_remove(idx))
    }

    /// Called by the bus when this node's frame completed successfully.
    pub fn on_tx_success(&mut self) {
        self.tec = self.tec.saturating_sub(1);
        self.stats.tx_frames += 1;
    }

    /// Called by the bus when this node's transmission hit an error
    /// (bit error / no acknowledgement). TEC increases by 8 per the spec.
    pub fn on_tx_error(&mut self) {
        self.tec += 8;
        self.stats.tx_errors += 1;
    }

    /// Called by the bus when this node lost arbitration this slot.
    pub fn on_arbitration_loss(&mut self) {
        self.stats.arbitration_losses += 1;
    }

    /// Called by the bus to deliver a frame that completed at `timestamp`.
    /// Applies acceptance filtering and FIFO overflow policy (newest frame
    /// dropped on overflow, like the CANPS hardware FIFO).
    pub fn on_rx(&mut self, timestamp: SimTime, frame: CanFrame) {
        if !self.config.filters.accepts(&frame) {
            self.stats.rx_filtered += 1;
            return;
        }
        if self.rx_fifo.len() >= self.config.rx_fifo_depth {
            self.stats.rx_overflows += 1;
            return;
        }
        self.rec = self.rec.saturating_sub(1);
        self.rx_fifo.push_back(RxFrame { timestamp, frame });
        self.stats.rx_frames += 1;
    }

    /// Called by the bus when this node observed a receive error.
    pub fn on_rx_error(&mut self) {
        self.rec += 1;
        self.stats.rx_errors += 1;
    }

    /// Pops the oldest received frame, if any.
    pub fn pop_rx(&mut self) -> Option<RxFrame> {
        self.rx_fifo.pop_front()
    }

    /// Number of frames waiting in the RX FIFO.
    pub fn rx_pending(&self) -> usize {
        self.rx_fifo.len()
    }

    /// Bus-off recovery: re-initialises the error counters after the
    /// mandated 128 × 11 recessive bit sequence (timed by the caller).
    pub fn recover_from_bus_off(&mut self) {
        self.tec = 0;
        self.rec = 0;
    }
}

impl Default for CanController {
    fn default() -> Self {
        CanController::new(ControllerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::AcceptanceFilter;
    use crate::frame::{CanFrame, CanId};

    fn sf(id: u16) -> CanFrame {
        CanFrame::new(CanId::standard(id).unwrap(), &[0xAA]).unwrap()
    }

    #[test]
    fn pop_tx_returns_highest_priority() {
        let mut c = CanController::default();
        c.queue_tx(sf(0x300)).unwrap();
        c.queue_tx(sf(0x100)).unwrap();
        c.queue_tx(sf(0x200)).unwrap();
        assert_eq!(c.pop_tx().unwrap().id().raw(), 0x100);
        assert_eq!(c.pop_tx().unwrap().id().raw(), 0x200);
        assert_eq!(c.pop_tx().unwrap().id().raw(), 0x300);
        assert!(c.pop_tx().is_none());
    }

    #[test]
    fn tx_queue_depth_enforced() {
        let mut c = CanController::new(ControllerConfig {
            tx_queue_depth: 2,
            ..ControllerConfig::default()
        });
        c.queue_tx(sf(1)).unwrap();
        c.queue_tx(sf(2)).unwrap();
        assert_eq!(c.queue_tx(sf(3)).unwrap_err(), CanError::TxQueueFull);
        assert_eq!(c.stats().tx_drops, 1);
    }

    #[test]
    fn rx_fifo_overflow_drops_newest() {
        let mut c = CanController::new(ControllerConfig {
            rx_fifo_depth: 2,
            ..ControllerConfig::default()
        });
        c.on_rx(SimTime::from_micros(1), sf(0x10));
        c.on_rx(SimTime::from_micros(2), sf(0x20));
        c.on_rx(SimTime::from_micros(3), sf(0x30));
        assert_eq!(c.stats().rx_overflows, 1);
        assert_eq!(c.pop_rx().unwrap().frame.id().raw(), 0x10);
        assert_eq!(c.pop_rx().unwrap().frame.id().raw(), 0x20);
        assert!(c.pop_rx().is_none());
    }

    #[test]
    fn filters_reject_before_fifo() {
        let mut filters = FilterBank::new();
        filters.add(AcceptanceFilter::standard(0x7FF, 0x100));
        let mut c = CanController::new(ControllerConfig {
            filters,
            ..ControllerConfig::default()
        });
        c.on_rx(SimTime::ZERO, sf(0x100));
        c.on_rx(SimTime::ZERO, sf(0x200));
        assert_eq!(c.rx_pending(), 1);
        assert_eq!(c.stats().rx_filtered, 1);
    }

    #[test]
    fn error_state_transitions() {
        let mut c = CanController::default();
        assert_eq!(c.error_state(), ErrorState::ErrorActive);
        for _ in 0..16 {
            c.on_tx_error(); // +8 each
        }
        assert_eq!(c.tec(), 128);
        assert_eq!(c.error_state(), ErrorState::ErrorPassive);
        for _ in 0..16 {
            c.on_tx_error();
        }
        assert_eq!(c.error_state(), ErrorState::BusOff);
        assert_eq!(c.queue_tx(sf(1)).unwrap_err(), CanError::BusOff);
        c.recover_from_bus_off();
        assert_eq!(c.error_state(), ErrorState::ErrorActive);
        assert!(c.queue_tx(sf(1)).is_ok());
    }

    #[test]
    fn successful_tx_decrements_tec() {
        let mut c = CanController::default();
        c.on_tx_error();
        assert_eq!(c.tec(), 8);
        c.on_tx_success();
        assert_eq!(c.tec(), 7);
    }

    #[test]
    fn rx_success_decrements_rec() {
        let mut c = CanController::default();
        c.on_rx_error();
        c.on_rx_error();
        assert_eq!(c.rec(), 2);
        c.on_rx(SimTime::ZERO, sf(0x1));
        assert_eq!(c.rec(), 1);
    }

    #[test]
    fn rx_frames_carry_timestamps() {
        let mut c = CanController::default();
        let t = SimTime::from_micros(123);
        c.on_rx(t, sf(0x42));
        let rx = c.pop_rx().unwrap();
        assert_eq!(rx.timestamp, t);
        assert_eq!(rx.frame.id().raw(), 0x42);
    }
}
