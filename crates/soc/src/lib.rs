//! Zynq UltraScale+ SoC/ECU substrate.
//!
//! The paper integrates its quantised-MLP IDS as a memory-mapped
//! accelerator next to a software ECU stack on a ZCU104 board. This
//! crate is that platform, in simulation:
//!
//! * [`axi`] — the AXI-Lite interconnect and the [`axi::MmioDevice`]
//!   peripheral trait,
//! * [`cpu`] — the Cortex-A53 + Linux (PYNQ) software cost model that
//!   dominates the end-to-end 0.12 ms per-message latency,
//! * [`accel`] — the FINN-style IP as an MMIO peripheral,
//! * [`cancontroller`] — a CANPS-style CAN controller peripheral,
//! * [`interrupt`] — a GIC-lite interrupt controller,
//! * [`driver`] — the PYNQ-like userspace inference driver,
//! * [`power_rails`] — PMBus-style rail measurement and energy
//!   integration (the paper's 2.09 W / 0.25 mJ methodology),
//! * [`board`] — the assembled ZCU104,
//! * [`ecu`] — the integrated IDS ECU service loop of Fig. 1.
//!
//! # Example
//!
//! ```
//! use canids_soc::prelude::*;
//! use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
//! use canids_qnn::prelude::*;
//!
//! let mlp = QuantMlp::new(MlpConfig::default())?;
//! let ip = AcceleratorIp::compile(&mlp.export()?, CompileConfig::default())?;
//! let mut board = Zcu104Board::new(BoardConfig::default());
//! let idx = board.attach_accelerator(ip)?;
//!
//! // One driver call: the paper's per-message processing path.
//! let record = board.infer(idx, &[0.0f32; 75])?;
//! assert!((0.09..0.13).contains(&record.latency().as_millis_f64()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod accel;
pub mod axi;
pub mod board;
pub mod cancontroller;
pub mod cpu;
pub mod dma;
pub mod driver;
pub mod ecu;
pub mod error;
pub mod interrupt;
pub mod power_rails;

pub use accel::{pack_features, AccelPeripheral};
pub use axi::{AxiInterconnect, MmioDevice};
pub use board::{BoardConfig, Zcu104Board, ACCEL_BASE, ACCEL_STRIDE};
pub use cancontroller::CanPeripheral;
pub use cpu::CpuModel;
pub use dma::{run_batch, run_batch_multi, DmaConfig, FeatureBatch, MultiBatchReport};
pub use driver::{run_inference, run_inference_irq, InferenceBreakdown, InferenceRecord};
pub use ecu::{
    Detection, EcuConfig, EcuReport, EcuStream, FrameFeaturizer, IdsEcu, SchedPolicy, ServiceQueue,
    StageSample,
};
pub use error::SocError;
pub use interrupt::{accel_irq_line, InterruptController};
pub use power_rails::{BoardPowerModel, PowerMonitor, Rail};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::accel::pack_features;
    pub use crate::board::{BoardConfig, Zcu104Board};
    pub use crate::cpu::CpuModel;
    pub use crate::dma::{DmaConfig, FeatureBatch};
    pub use crate::driver::{InferenceBreakdown, InferenceRecord};
    pub use crate::ecu::{
        Detection, EcuConfig, EcuReport, EcuStream, FrameFeaturizer, IdsEcu, SchedPolicy,
        ServiceQueue, StageSample,
    };
    pub use crate::error::SocError;
    pub use crate::power_rails::{BoardPowerModel, PowerMonitor};
}
