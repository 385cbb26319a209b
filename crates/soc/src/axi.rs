//! AXI-Lite interconnect model.
//!
//! Peripherals implement [`MmioDevice`] and are mapped into the global
//! address space. Transactions are time-aware: the caller passes the
//! current simulation time so peripherals with internal timing (the
//! accelerator's busy/done status, FIFO occupancy) respond consistently.
//! Transaction latency itself is accounted by the CPU cost model
//! ([`crate::cpu`]) — from Linux userspace the software overhead dwarfs
//! the fabric's few-cycle response.

use canids_can::time::SimTime;
use canids_qnn::kernel::MemoCounts;

use crate::error::SocError;

/// A memory-mapped peripheral occupying a contiguous region.
pub trait MmioDevice {
    /// Reads the 32-bit register at `offset` (bytes from region base).
    fn read(&mut self, offset: u32, now: SimTime) -> Result<u32, SocError>;

    /// Writes the 32-bit register at `offset`.
    fn write(&mut self, offset: u32, value: u32, now: SimTime) -> Result<(), SocError>;

    /// Human-readable peripheral name (diagnostics).
    fn name(&self) -> &str;

    /// Kernel runs and class-memo hits of a device that classifies
    /// frames, counted since it was made; zero for any other device.
    /// Host-side bookkeeping of the simulation, not a register.
    fn memo_counts(&self) -> MemoCounts {
        MemoCounts::default()
    }
}

struct Region {
    base: u64,
    size: u64,
    device: Box<dyn MmioDevice>,
}

/// The AXI-Lite interconnect: address decode + routing.
///
/// # Example
///
/// ```
/// use canids_soc::axi::{AxiInterconnect, MmioDevice};
/// use canids_soc::error::SocError;
/// use canids_can::time::SimTime;
///
/// struct Scratch(u32);
/// impl MmioDevice for Scratch {
///     fn read(&mut self, _o: u32, _t: SimTime) -> Result<u32, SocError> { Ok(self.0) }
///     fn write(&mut self, _o: u32, v: u32, _t: SimTime) -> Result<(), SocError> {
///         self.0 = v;
///         Ok(())
///     }
///     fn name(&self) -> &str { "scratch" }
/// }
///
/// let mut bus = AxiInterconnect::new();
/// bus.map(0xA000_0000, 0x1000, Box::new(Scratch(0)))?;
/// bus.write(0xA000_0004, 42, SimTime::ZERO)?;
/// assert_eq!(bus.read(0xA000_0004, SimTime::ZERO)?, 42);
/// # Ok::<(), canids_soc::SocError>(())
/// ```
#[derive(Default)]
pub struct AxiInterconnect {
    regions: Vec<Region>,
    reads: u64,
    writes: u64,
}

impl std::fmt::Debug for AxiInterconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AxiInterconnect")
            .field("regions", &self.regions.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl AxiInterconnect {
    /// Creates an empty interconnect.
    pub fn new() -> Self {
        AxiInterconnect::default()
    }

    /// Maps `device` at `[base, base+size)`.
    ///
    /// # Errors
    ///
    /// [`SocError::OverlappingRegion`] when the range intersects an
    /// existing mapping.
    pub fn map(
        &mut self,
        base: u64,
        size: u64,
        device: Box<dyn MmioDevice>,
    ) -> Result<(), SocError> {
        let end = base + size;
        for r in &self.regions {
            let r_end = r.base + r.size;
            if base < r_end && r.base < end {
                return Err(SocError::OverlappingRegion { base, size });
            }
        }
        self.regions.push(Region { base, size, device });
        Ok(())
    }

    fn route(&mut self, addr: u64) -> Result<(&mut Region, u32), SocError> {
        for r in &mut self.regions {
            if addr >= r.base && addr < r.base + r.size {
                let offset = (addr - r.base) as u32;
                return Ok((r, offset));
            }
        }
        Err(SocError::UnmappedAddress(addr))
    }

    /// 32-bit read at an absolute address.
    ///
    /// # Errors
    ///
    /// [`SocError::UnmappedAddress`] or the peripheral's own error.
    pub fn read(&mut self, addr: u64, now: SimTime) -> Result<u32, SocError> {
        self.reads += 1;
        let (region, offset) = self.route(addr)?;
        region.device.read(offset, now)
    }

    /// 32-bit write at an absolute address.
    ///
    /// # Errors
    ///
    /// [`SocError::UnmappedAddress`] or the peripheral's own error.
    pub fn write(&mut self, addr: u64, value: u32, now: SimTime) -> Result<(), SocError> {
        self.writes += 1;
        let (region, offset) = self.route(addr)?;
        region.device.write(offset, value, now)
    }

    /// Total transactions issued (reads, writes).
    pub fn transaction_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Exclusive access to the device mapped at `base` (for board-level
    /// wiring such as frame injection into the CAN peripheral).
    pub fn device_at(&mut self, base: u64) -> Option<&mut (dyn MmioDevice + '_)> {
        self.regions
            .iter_mut()
            .find(|r| r.base == base)
            .map(|r| &mut *r.device as &mut dyn MmioDevice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scratch {
        regs: [u32; 4],
    }

    impl MmioDevice for Scratch {
        fn read(&mut self, offset: u32, _now: SimTime) -> Result<u32, SocError> {
            Ok(self.regs[(offset / 4) as usize % 4])
        }
        fn write(&mut self, offset: u32, value: u32, _now: SimTime) -> Result<(), SocError> {
            self.regs[(offset / 4) as usize % 4] = value;
            Ok(())
        }
        fn name(&self) -> &str {
            "scratch"
        }
    }

    fn bus_with_scratch() -> AxiInterconnect {
        let mut bus = AxiInterconnect::new();
        bus.map(0xA000_0000, 0x1000, Box::new(Scratch { regs: [0; 4] }))
            .unwrap();
        bus
    }

    #[test]
    fn read_write_round_trip() {
        let mut bus = bus_with_scratch();
        bus.write(0xA000_0008, 0xDEAD_BEEF, SimTime::ZERO).unwrap();
        assert_eq!(bus.read(0xA000_0008, SimTime::ZERO).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn unmapped_access_rejected() {
        let mut bus = bus_with_scratch();
        assert_eq!(
            bus.read(0xB000_0000, SimTime::ZERO).unwrap_err(),
            SocError::UnmappedAddress(0xB000_0000)
        );
    }

    #[test]
    fn overlapping_map_rejected() {
        let mut bus = bus_with_scratch();
        let err = bus
            .map(0xA000_0800, 0x1000, Box::new(Scratch { regs: [0; 4] }))
            .unwrap_err();
        assert!(matches!(err, SocError::OverlappingRegion { .. }));
        // Adjacent regions are fine.
        bus.map(0xA000_1000, 0x1000, Box::new(Scratch { regs: [0; 4] }))
            .unwrap();
    }

    #[test]
    fn transaction_counters() {
        let mut bus = bus_with_scratch();
        let _ = bus.read(0xA000_0000, SimTime::ZERO);
        let _ = bus.write(0xA000_0000, 1, SimTime::ZERO);
        let _ = bus.write(0xA000_0004, 2, SimTime::ZERO);
        assert_eq!(bus.transaction_counts(), (1, 2));
    }

    #[test]
    fn device_at_finds_by_base() {
        let mut bus = bus_with_scratch();
        assert!(bus.device_at(0xA000_0000).is_some());
        assert!(bus.device_at(0xA000_0004).is_none(), "lookup is by base");
    }
}
