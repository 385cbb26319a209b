//! Processing-system cost model.
//!
//! The paper's per-message latency (0.12 ms) is dominated not by the
//! accelerator (sub-microsecond compute) but by the software path on the
//! quad-core Cortex-A53 running Linux (PYNQ image): interrupt entry,
//! frame copy, the runtime's driver-dispatch overhead and `mmap`-ed
//! register accesses. This module is that cost model, with the
//! calibration documented in EXPERIMENTS.md.

use canids_can::time::SimTime;

/// Per-operation software costs for a Linux userspace driver on the PS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Number of application cores (ZU7EV: quad A53).
    pub cores: usize,
    /// One `mmap`-ed device-register read, including barriers.
    pub mmio_read: SimTime,
    /// One `mmap`-ed device-register write, including barriers.
    pub mmio_write: SimTime,
    /// CAN RX interrupt entry + kernel handler + wakeup.
    pub irq_entry: SimTime,
    /// Copy + feature-encode of one CAN frame into the driver buffer.
    pub frame_copy: SimTime,
    /// Fixed per-call overhead of the accelerator runtime (the PYNQ
    /// driver-dispatch path the paper measures through).
    pub runtime_dispatch: SimTime,
    /// Interval between consecutive status polls (the poll loop body).
    pub poll_interval: SimTime,
}

impl CpuModel {
    /// The ZCU104 PS running the PYNQ Linux image — the paper's ECU.
    ///
    /// Calibrated so the end-to-end per-message path (IRQ + copy +
    /// dispatch + MMIO + compute) lands at the paper's measured 0.12 ms.
    pub fn zynqmp_a53_linux() -> Self {
        CpuModel {
            cores: 4,
            mmio_read: SimTime::from_nanos(140),
            mmio_write: SimTime::from_nanos(120),
            irq_entry: SimTime::from_micros(9),
            frame_copy: SimTime::from_micros(6),
            runtime_dispatch: SimTime::from_micros(98),
            poll_interval: SimTime::from_nanos(400),
        }
    }

    /// A bare-metal variant: no Linux, no runtime dispatch — the latency
    /// floor an AUTOSAR-style integration could reach (used by the
    /// driver-overhead ablation).
    pub fn zynqmp_a53_baremetal() -> Self {
        CpuModel {
            cores: 4,
            mmio_read: SimTime::from_nanos(60),
            mmio_write: SimTime::from_nanos(50),
            irq_entry: SimTime::from_micros(1),
            frame_copy: SimTime::from_micros(1),
            runtime_dispatch: SimTime::from_micros(2),
            poll_interval: SimTime::from_nanos(200),
        }
    }

    /// Total software receive-path cost (IRQ + copy/encode).
    pub fn rx_path(&self) -> SimTime {
        self.irq_entry + self.frame_copy
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::zynqmp_a53_linux()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_model_matches_paper_scale() {
        let m = CpuModel::zynqmp_a53_linux();
        // Software path must dominate and land near 0.113 ms before
        // MMIO/compute: 9 + 6 + 98 = 113 µs.
        let base = m.rx_path() + m.runtime_dispatch;
        assert!((base.as_micros_f64() - 113.0).abs() < 1.0, "{base}");
        assert_eq!(m.cores, 4);
    }

    #[test]
    fn baremetal_is_far_cheaper() {
        let linux = CpuModel::zynqmp_a53_linux();
        let bm = CpuModel::zynqmp_a53_baremetal();
        assert!(bm.rx_path() + bm.runtime_dispatch < SimTime::from_micros(5));
        assert!(
            (linux.rx_path() + linux.runtime_dispatch).as_nanos()
                > 10 * (bm.rx_path() + bm.runtime_dispatch).as_nanos()
        );
    }

    #[test]
    fn mmio_costs_are_sub_microsecond() {
        let m = CpuModel::default();
        assert!(m.mmio_read.as_nanos() < 1_000);
        assert!(m.mmio_write.as_nanos() < 1_000);
    }
}
