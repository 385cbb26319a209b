//! The ZCU104 board model: PS + interconnect + peripherals + power.
//!
//! Mirrors the paper's integration (their Fig. 1 right-hand side): the
//! quad-A53 PS runs the ECU software, the CAN controller receives every
//! bus frame, and one or more QMLP accelerator IPs sit in the PL as
//! memory-mapped slaves.

use canids_can::node::{CanController, ControllerConfig};
use canids_can::time::SimTime;
use canids_dataflow::ip::AcceleratorIp;
use canids_dataflow::power::PowerEstimate;
use canids_qnn::kernel::MemoCounts;
use canids_qnn::tensor::pinned_sum_f64;

use crate::accel::{pack_features, AccelPeripheral};
use crate::axi::AxiInterconnect;
use crate::cancontroller::CanPeripheral;
use crate::cpu::CpuModel;
use crate::driver::{run_inference, run_inference_irq, InferenceRecord};
use crate::error::SocError;
use crate::interrupt::{accel_irq_line, InterruptController};
use crate::power_rails::BoardPowerModel;

/// PS base address of the first PL accelerator (ZynqMP HPM0 window).
pub const ACCEL_BASE: u64 = 0xA000_0000;
/// Address stride between accelerator instances.
pub const ACCEL_STRIDE: u64 = 0x1_0000;

/// Static board configuration.
///
/// The default is the paper's platform: the A53 running Linux
/// ([`CpuModel::zynqmp_a53_linux`] is `CpuModel::default`) with the
/// default CAN controller.
#[derive(Debug, Clone, Default)]
pub struct BoardConfig {
    /// CPU/OS cost model.
    pub cpu: CpuModel,
    /// CAN controller hardware configuration.
    pub can: ControllerConfig,
}

/// Summary of an attached IP, kept board-side for power/resource
/// aggregation and DMA-batch scheduling without reaching through the
/// bus. The `ip` field is a full clone of the compiled artifact (a few
/// KB of weights for the paper topology) alongside the mapped
/// peripheral's copy — acceptable at simulation scale; switch to a
/// shared handle if models grow large.
#[derive(Debug, Clone)]
struct IpSummary {
    ip: AcceleratorIp,
    input_dim: usize,
    input_words: usize,
    dynamic_w: f64,
    static_w: f64,
}

/// The simulated ZCU104 ECU platform.
///
/// # Example
///
/// ```
/// use canids_soc::board::Zcu104Board;
/// use canids_soc::BoardConfig;
/// use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
/// use canids_qnn::prelude::*;
///
/// let mlp = QuantMlp::new(MlpConfig::default())?;
/// let ip = AcceleratorIp::compile(&mlp.export()?, CompileConfig::default())?;
/// let mut board = Zcu104Board::new(BoardConfig::default());
/// let idx = board.attach_accelerator(ip)?;
/// let record = board.infer(idx, &[0.0; 75])?;
/// assert!(record.latency().as_millis_f64() < 0.15);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Zcu104Board {
    config: BoardConfig,
    bus: AxiInterconnect,
    can: CanPeripheral,
    gic: InterruptController,
    now: SimTime,
    ips: Vec<IpSummary>,
}

impl std::fmt::Debug for Zcu104Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Zcu104Board")
            .field("now", &self.now)
            .field("accelerators", &self.ips.len())
            .finish_non_exhaustive()
    }
}

impl Zcu104Board {
    /// Creates a board with a CAN controller and no accelerators.
    pub fn new(config: BoardConfig) -> Self {
        let can = CanPeripheral::new(CanController::new(config.can.clone()));
        let mut gic = InterruptController::new();
        gic.set_enabled(crate::interrupt::IRQ_CAN0, true);
        Zcu104Board {
            config,
            bus: AxiInterconnect::new(),
            can,
            gic,
            now: SimTime::ZERO,
            ips: Vec::new(),
        }
    }

    /// Attaches an accelerator IP as the next PL slave; returns its index.
    ///
    /// # Errors
    ///
    /// Propagates address-map errors.
    pub fn attach_accelerator(&mut self, ip: AcceleratorIp) -> Result<usize, SocError> {
        let idx = self.ips.len();
        let base = ACCEL_BASE + ACCEL_STRIDE * idx as u64;
        // Nominal activity factor for a streaming MVAU pipeline
        // processing one frame per driver call: ~12.5 % toggle.
        let active = ip.power(0.125);
        self.ips.push(IpSummary {
            ip: ip.clone(),
            input_dim: ip.input_dim(),
            input_words: ip.input_words() as usize,
            dynamic_w: active.dynamic_w,
            static_w: active.static_w,
        });
        self.bus
            .map(base, ACCEL_STRIDE, Box::new(AccelPeripheral::new(ip)))?;
        Ok(idx)
    }

    /// The compiled artifact of accelerator `idx` (latency, folding and
    /// resource facts for schedulers that plan around the bus, e.g. the
    /// DMA batch policy).
    pub fn accelerator(&self, idx: usize) -> Option<&AcceleratorIp> {
        self.ips.get(idx).map(|s| &s.ip)
    }

    /// Number of attached accelerators.
    pub fn accelerator_count(&self) -> usize {
        self.ips.len()
    }

    /// Current board time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Forces the board clock (used by the ECU scheduler when aligning
    /// driver calls to frame arrivals).
    pub fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// The CPU cost model.
    pub fn cpu(&self) -> &CpuModel {
        &self.config.cpu
    }

    /// The CAN peripheral (bus-side frame delivery + register access).
    pub fn can_mut(&mut self) -> &mut CanPeripheral {
        &mut self.can
    }

    /// Shared access to the CAN peripheral.
    pub fn can(&self) -> &CanPeripheral {
        &self.can
    }

    /// The interrupt controller.
    pub fn gic_mut(&mut self) -> &mut InterruptController {
        &mut self.gic
    }

    /// Runs one inference on accelerator `idx` with float binary
    /// features, advancing the board clock by the full software path.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchAccelerator`], [`SocError::InputDimension`] or
    /// any driver/bus error.
    pub fn infer(&mut self, idx: usize, features: &[f32]) -> Result<InferenceRecord, SocError> {
        let ip = self.ips.get(idx).ok_or(SocError::NoSuchAccelerator(idx))?;
        if features.len() != ip.input_dim {
            return Err(SocError::InputDimension {
                expected: ip.input_dim,
                actual: features.len(),
            });
        }
        let words = pack_features(features);
        self.infer_packed(idx, &words)
    }

    /// Runs one inference on accelerator `idx` from already-packed input
    /// words — the shared-packing hot path: the ECU service loop packs a
    /// frame once and feeds the same words to every attached model.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchAccelerator`], [`SocError::InputDimension`]
    /// (word-count mismatch) or any driver/bus error.
    pub fn infer_packed(&mut self, idx: usize, words: &[u32]) -> Result<InferenceRecord, SocError> {
        let ip = self.ips.get(idx).ok_or(SocError::NoSuchAccelerator(idx))?;
        if words.len() != ip.input_words {
            return Err(SocError::InputDimension {
                expected: ip.input_words,
                actual: words.len(),
            });
        }
        let base = ACCEL_BASE + ACCEL_STRIDE * idx as u64;
        run_inference(&mut self.bus, &self.config.cpu, &mut self.now, base, words)
    }

    /// Like [`Zcu104Board::infer_packed`], but with interrupt-driven
    /// completion: the driver blocks on the accelerator's done line
    /// through the GIC instead of spinning on the status register.
    ///
    /// # Errors
    ///
    /// [`SocError::NoSuchAccelerator`], [`SocError::InputDimension`] or
    /// any driver/bus error.
    pub fn infer_packed_irq(
        &mut self,
        idx: usize,
        words: &[u32],
    ) -> Result<InferenceRecord, SocError> {
        let ip = self.ips.get(idx).ok_or(SocError::NoSuchAccelerator(idx))?;
        if words.len() != ip.input_words {
            return Err(SocError::InputDimension {
                expected: ip.input_words,
                actual: words.len(),
            });
        }
        let compute = SimTime::from_secs_f64(ip.ip.latency_secs());
        let base = ACCEL_BASE + ACCEL_STRIDE * idx as u64;
        // Board bring-up: the accelerator's done line is unmasked once.
        self.gic.set_enabled(accel_irq_line(idx), true);
        run_inference_irq(
            &mut self.bus,
            &self.config.cpu,
            &mut self.gic,
            &mut self.now,
            base,
            accel_irq_line(idx),
            words,
            compute,
        )
    }

    /// Kernel runs and class-memo hits of every attached accelerator's
    /// MMIO starts since it was attached.
    pub fn memo_counts(&mut self) -> MemoCounts {
        let mut total = MemoCounts::default();
        for idx in 0..self.ips.len() {
            if let Some(device) = self.bus.device_at(ACCEL_BASE + ACCEL_STRIDE * idx as u64) {
                total += device.memo_counts();
            }
        }
        total
    }

    /// The board power model with every attached IP's PL contribution
    /// (device static power counted once).
    pub fn power_model(&self) -> BoardPowerModel {
        let dynamic = pinned_sum_f64(self.ips.iter().map(|ip| ip.dynamic_w));
        let static_w = self.ips.first().map_or(0.28, |ip| ip.static_w);
        BoardPowerModel::zcu104(PowerEstimate {
            dynamic_w: dynamic,
            static_w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::frame::{CanFrame, CanId};
    use canids_dataflow::ip::CompileConfig;
    use canids_qnn::prelude::*;

    fn ip(name: &str) -> AcceleratorIp {
        let mlp = QuantMlp::new(MlpConfig::default()).unwrap();
        AcceleratorIp::compile(
            &mlp.export().unwrap(),
            CompileConfig {
                name: name.to_owned(),
                ..CompileConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn attach_and_infer() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let a = board.attach_accelerator(ip("dos")).unwrap();
        assert_eq!(a, 0);
        let rec = board.infer(a, &[1.0; 75]).unwrap();
        assert!(rec.latency() > SimTime::from_micros(50));
        assert_eq!(board.accelerator_count(), 1);
    }

    #[test]
    fn multiple_accelerators_coexist() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let a = board.attach_accelerator(ip("dos")).unwrap();
        let b = board.attach_accelerator(ip("fuzzy")).unwrap();
        assert_ne!(a, b);
        board.infer(a, &[0.0; 75]).unwrap();
        board.infer(b, &[1.0; 75]).unwrap();
    }

    #[test]
    fn input_validation() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let a = board.attach_accelerator(ip("dos")).unwrap();
        assert_eq!(
            board.infer(a, &[0.0; 10]).unwrap_err(),
            SocError::InputDimension {
                expected: 75,
                actual: 10
            }
        );
        assert_eq!(
            board.infer(5, &[0.0; 75]).unwrap_err(),
            SocError::NoSuchAccelerator(5)
        );
    }

    #[test]
    fn clock_advances_with_calls() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let a = board.attach_accelerator(ip("dos")).unwrap();
        let t0 = board.now();
        board.infer(a, &[0.0; 75]).unwrap();
        assert!(board.now() > t0);
        board.set_now(SimTime::from_secs(1));
        assert_eq!(board.now(), SimTime::from_secs(1));
    }

    #[test]
    fn packed_and_float_paths_agree() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let a = board.attach_accelerator(ip("dos")).unwrap();
        let bits: Vec<f32> = (0..75).map(|i| f32::from(i % 2 == 0)).collect();
        let through_floats = board.infer(a, &bits).unwrap();
        let words = crate::accel::pack_features(&bits);
        let through_words = board.infer_packed(a, &words).unwrap();
        assert_eq!(through_floats.class, through_words.class);
        let through_irq = board.infer_packed_irq(a, &words).unwrap();
        assert_eq!(through_irq.class, through_words.class);
        // The IRQ path costs more per verdict under Linux (9 us entry vs
        // sub-us spin polls) but frees the core during the compute.
        assert!(through_irq.latency() > through_words.latency());
        assert!(matches!(
            board.infer_packed(a, &[0u32; 1]),
            Err(SocError::InputDimension {
                expected: 3,
                actual: 1
            })
        ));
        assert!(board.accelerator(a).is_some());
        assert!(board.accelerator(7).is_none());
    }

    #[test]
    fn can_frames_flow_through_board() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let f = CanFrame::new(CanId::standard(0x316).unwrap(), &[1, 2]).unwrap();
        board.can_mut().deliver(SimTime::from_micros(3), f);
        assert_eq!(board.can().rx_pending(), 1);
    }

    #[test]
    fn board_power_at_paper_operating_point() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        board.attach_accelerator(ip("dos")).unwrap();
        let p = board.power_model().total_w(1.0);
        assert!((p - 2.09).abs() < 0.06, "power {p} W vs paper 2.09 W");
    }

    #[test]
    fn second_ip_adds_only_dynamic_power() {
        let mut board = Zcu104Board::new(BoardConfig::default());
        board.attach_accelerator(ip("dos")).unwrap();
        let one = board.power_model().total_w(1.0);
        board.attach_accelerator(ip("fuzzy")).unwrap();
        let two = board.power_model().total_w(1.0);
        assert!(two > one);
        assert!(two - one < 0.1, "second IP adds {} W", two - one);
    }
}
