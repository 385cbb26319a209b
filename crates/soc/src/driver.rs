//! The userspace accelerator driver (PYNQ-runtime equivalent).
//!
//! FINN deployments drive the stitched IP from Linux through `mmap`-ed
//! AXI-Lite registers: pack inputs, write them, pulse start, wait for
//! done, read the result. Each step costs software time from the
//! [`CpuModel`]; the sum — dominated by the fixed runtime-dispatch
//! overhead — is what the paper reports as the 0.12 ms per-message
//! processing latency. [`run_inference`] is that one call; its only
//! fork is how it waits for done ([`Wait`]): the paper's status poll, or
//! the accelerator's interrupt line.

use canids_can::time::SimTime;
use canids_dataflow::ip::RegisterMap;

use crate::accel::{CTRL_START, STATUS_DONE};
use crate::axi::AxiInterconnect;
use crate::cpu::CpuModel;
use crate::error::SocError;
use crate::interrupt::InterruptController;

/// Watchdog: maximum status polls before declaring the IP hung.
pub const MAX_POLLS: usize = 100_000;

/// Where one inference call's time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceBreakdown {
    /// Fixed runtime/driver dispatch overhead.
    pub dispatch: SimTime,
    /// Register reads and writes (input words, control, result).
    pub mmio: SimTime,
    /// Time from the start pulse until done was confirmed: the
    /// status-poll loop, or the compute, the interrupt entry and one
    /// status read.
    pub compute_wait: SimTime,
}

impl InferenceBreakdown {
    /// Total call time.
    pub fn total(&self) -> SimTime {
        self.dispatch + self.mmio + self.compute_wait
    }
}

/// The result of one driver-mediated inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceRecord {
    /// Predicted class.
    pub class: usize,
    /// Call entry time.
    pub started_at: SimTime,
    /// Call return time.
    pub completed_at: SimTime,
    /// Time breakdown.
    pub breakdown: InferenceBreakdown,
}

impl InferenceRecord {
    /// Wall-clock call duration.
    pub fn latency(&self) -> SimTime {
        self.completed_at - self.started_at
    }
}

/// How a driver call learns that the datapath is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Spin on the status register, one read per `poll_interval`: the
    /// paper's per-message path.
    Poll,
    /// Block on the accelerator's done line through the interrupt
    /// controller: the core sleeps through the compute but pays one
    /// interrupt entry per call.
    Interrupt,
}

/// How [`run_inference`] waits for done, with what the wait needs.
#[derive(Debug)]
pub enum Wait<'g> {
    /// Spin on `STATUS.done` until it rises, within [`MAX_POLLS`].
    Poll,
    /// Sleep until `line` fires on `gic`: the datapath raises it
    /// `compute` after the start pulse, and the CPU pays one interrupt
    /// entry, the acknowledge and one status read.
    Interrupt {
        /// The controller the line is routed through.
        gic: &'g mut InterruptController,
        /// The accelerator's done line.
        line: u32,
        /// The datapath's compute latency.
        compute: SimTime,
    },
}

/// Runs one inference against the accelerator mapped at `base`,
/// advancing `now` by every software and wait cost incurred: dispatch,
/// the input-word writes, the start pulse, the wait for done, and the
/// class read.
///
/// The wait is the only step that differs between the two completions.
/// The poll loop trades `poll_interval`-grained spin reads for
/// [`Wait::Interrupt`]'s single `irq_entry`, which frees the core while
/// the datapath runs but costs more per verdict on a Linux-class
/// interrupt path. An interrupt wait needs `line` enabled on the
/// controller (the board unmasks it before its first interrupt call): a
/// masked line never wakes the driver, so the call fails rather than
/// spinning. It acknowledges only its own line; foreign pending lines
/// are untouched (in hardware a higher-priority line would preempt
/// first, but the model charges one interrupt entry either way).
///
/// # Errors
///
/// Propagates bus/peripheral errors; returns [`SocError::PollTimeout`]
/// when the done bit never rises within [`MAX_POLLS`], when the
/// interrupt line is masked, or when the done bit is not set once the
/// interrupt fires (a wedged datapath), and [`SocError::NoSuchIrqLine`]
/// when the interrupt line is past the controller's last.
pub fn run_inference(
    bus: &mut AxiInterconnect,
    cpu: &CpuModel,
    now: &mut SimTime,
    base: u64,
    input_words: &[u32],
    wait: Wait<'_>,
) -> Result<InferenceRecord, SocError> {
    let started_at = *now;
    let mut mmio = SimTime::ZERO;

    // Runtime dispatch: buffer checks, driver entry (the fixed PYNQ cost).
    *now += cpu.runtime_dispatch;

    // Write the packed input words.
    for (i, &w) in input_words.iter().enumerate() {
        *now += cpu.mmio_write;
        mmio += cpu.mmio_write;
        bus.write(
            base + u64::from(RegisterMap::INPUT_BASE) + 4 * i as u64,
            w,
            *now,
        )?;
    }

    // Pulse start.
    *now += cpu.mmio_write;
    mmio += cpu.mmio_write;
    bus.write(base + u64::from(RegisterMap::CTRL), CTRL_START, *now)?;

    // Wait for done.
    let wait_start = *now;
    let status = base + u64::from(RegisterMap::STATUS);
    match wait {
        Wait::Poll => {
            let mut polls = 0usize;
            loop {
                *now += cpu.mmio_read;
                if bus.read(status, *now)? & STATUS_DONE != 0 {
                    break;
                }
                polls += 1;
                if polls > MAX_POLLS {
                    return Err(SocError::PollTimeout);
                }
                *now += cpu.poll_interval;
            }
        }
        Wait::Interrupt { gic, line, compute } => {
            // The datapath completes and raises its done line; a masked
            // line never wakes the blocked driver.
            *now += compute;
            gic.raise(line)?;
            if !gic.is_enabled(line) {
                return Err(SocError::PollTimeout);
            }
            // Interrupt entry, then acknowledge our line.
            *now += cpu.irq_entry;
            gic.ack(line)?;
            // One status read confirms done (no spin).
            *now += cpu.mmio_read;
            if bus.read(status, *now)? & STATUS_DONE == 0 {
                return Err(SocError::PollTimeout);
            }
        }
    }
    let compute_wait = *now - wait_start;

    // Read the class register.
    *now += cpu.mmio_read;
    mmio += cpu.mmio_read;
    let class = bus.read(base + u64::from(RegisterMap::OUT_CLASS), *now)? as usize;

    Ok(InferenceRecord {
        class,
        started_at,
        completed_at: *now,
        breakdown: InferenceBreakdown {
            dispatch: cpu.runtime_dispatch,
            mmio,
            compute_wait,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{pack_features, AccelPeripheral};
    use crate::interrupt::{IRQ_ACCEL0, IRQ_CAN0, IRQ_LINES};
    use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
    use canids_qnn::prelude::*;

    fn setup() -> (AxiInterconnect, u64, AcceleratorIp) {
        let mlp = QuantMlp::new(MlpConfig::default()).unwrap();
        let ip = AcceleratorIp::compile(&mlp.export().unwrap(), CompileConfig::default()).unwrap();
        let mut bus = AxiInterconnect::new();
        let base = 0xA000_0000u64;
        bus.map(base, 0x1_0000, Box::new(AccelPeripheral::new(ip.clone())))
            .unwrap();
        (bus, base, ip)
    }

    #[test]
    fn inference_latency_is_about_0_12_ms() {
        let (mut bus, base, _) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut now = SimTime::ZERO;
        let words = pack_features(&[1.0f32; 75]);
        let rec = run_inference(&mut bus, &cpu, &mut now, base, &words, Wait::Poll).unwrap();
        let ms = rec.latency().as_millis_f64();
        assert!(
            (0.09..0.13).contains(&ms),
            "driver latency {ms} ms vs paper-scale 0.1-0.12 ms"
        );
        assert_eq!(rec.latency(), rec.breakdown.total());
    }

    #[test]
    fn class_matches_functional_model() {
        let (mut bus, base, ip) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut now = SimTime::ZERO;
        for seed in 0u64..16 {
            let bits: Vec<f32> = (0..75)
                .map(|i| f32::from((seed.wrapping_mul(i as u64 + 13) >> 2) & 1 == 1))
                .collect();
            let words = pack_features(&bits);
            let rec = run_inference(&mut bus, &cpu, &mut now, base, &words, Wait::Poll).unwrap();
            let x: Vec<u32> = bits.iter().map(|&b| u32::from(b >= 0.5)).collect();
            assert_eq!(rec.class, ip.infer(&x).0, "seed {seed}");
        }
    }

    #[test]
    fn dispatch_dominates_breakdown() {
        let (mut bus, base, _) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut now = SimTime::ZERO;
        let words = pack_features(&[0.0f32; 75]);
        let rec = run_inference(&mut bus, &cpu, &mut now, base, &words, Wait::Poll).unwrap();
        assert!(rec.breakdown.dispatch > rec.breakdown.mmio);
        assert!(rec.breakdown.dispatch > rec.breakdown.compute_wait);
        assert!(rec.breakdown.compute_wait > SimTime::ZERO);
    }

    #[test]
    fn baremetal_cpu_is_much_faster() {
        let (mut bus, base, _) = setup();
        let words = pack_features(&[0.0f32; 75]);
        let mut now = SimTime::ZERO;
        let linux = run_inference(
            &mut bus,
            &CpuModel::zynqmp_a53_linux(),
            &mut now,
            base,
            &words,
            Wait::Poll,
        )
        .unwrap();
        let bm = run_inference(
            &mut bus,
            &CpuModel::zynqmp_a53_baremetal(),
            &mut now,
            base,
            &words,
            Wait::Poll,
        )
        .unwrap();
        assert!(bm.latency().as_nanos() * 5 < linux.latency().as_nanos());
    }

    #[test]
    fn irq_path_matches_polling_classes() {
        let (mut bus, base, ip) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut gic = InterruptController::new();
        gic.set_enabled(IRQ_ACCEL0, true).unwrap();
        let latency = SimTime::from_secs_f64(ip.latency_secs());
        let mut now = SimTime::ZERO;
        for seed in 0u64..8 {
            let bits: Vec<f32> = (0..75)
                .map(|i| f32::from((seed.wrapping_mul(i as u64 + 29) >> 1) & 1 == 1))
                .collect();
            let words = pack_features(&bits);
            let wait = Wait::Interrupt {
                gic: &mut gic,
                line: IRQ_ACCEL0,
                compute: latency,
            };
            let rec = run_inference(&mut bus, &cpu, &mut now, base, &words, wait).unwrap();
            let x: Vec<u32> = bits.iter().map(|&b| u32::from(b >= 0.5)).collect();
            assert_eq!(rec.class, ip.infer(&x).0, "seed {seed}");
            assert_eq!(rec.latency(), rec.breakdown.total());
            // The wait covers the compute plus the interrupt entry.
            assert!(rec.breakdown.compute_wait >= latency + cpu.irq_entry);
        }
    }

    #[test]
    fn irq_path_ignores_unrelated_pending_interrupts() {
        // Regression: a pending foreign line (here CAN0 RX) used to win
        // the claim and abort the inference as a fake PollTimeout,
        // leaving both lines stale.
        let (mut bus, base, ip) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut gic = InterruptController::new();
        gic.set_enabled(IRQ_ACCEL0, true).unwrap();
        gic.set_enabled(IRQ_CAN0, true).unwrap();
        gic.raise(IRQ_CAN0).unwrap();
        let words = pack_features(&[1.0f32; 75]);
        let mut now = SimTime::ZERO;
        let wait = Wait::Interrupt {
            gic: &mut gic,
            line: IRQ_ACCEL0,
            compute: SimTime::from_secs_f64(ip.latency_secs()),
        };
        let rec = run_inference(&mut bus, &cpu, &mut now, base, &words, wait).unwrap();
        assert_eq!(rec.class, ip.infer(&[1u32; 75]).0);
        // The foreign line is untouched, ours is acknowledged.
        assert!(gic.is_pending(IRQ_CAN0));
        assert!(!gic.is_pending(IRQ_ACCEL0));
    }

    #[test]
    fn masked_irq_line_fails_instead_of_waking() {
        let (mut bus, base, ip) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut gic = InterruptController::new();
        let words = pack_features(&[0.0f32; 75]);
        let mut now = SimTime::ZERO;
        let wait = Wait::Interrupt {
            gic: &mut gic,
            line: IRQ_ACCEL0,
            compute: SimTime::from_secs_f64(ip.latency_secs()),
        };
        let err = run_inference(&mut bus, &cpu, &mut now, base, &words, wait).unwrap_err();
        assert_eq!(err, SocError::PollTimeout);
        // The completion is latched pending for whenever the line is
        // unmasked.
        assert!(gic.is_pending(IRQ_ACCEL0));
    }

    #[test]
    fn out_of_range_irq_line_is_an_error() {
        let (mut bus, base, ip) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut gic = InterruptController::new();
        let words = pack_features(&[0.0f32; 75]);
        let mut now = SimTime::ZERO;
        let wait = Wait::Interrupt {
            gic: &mut gic,
            line: IRQ_LINES,
            compute: SimTime::from_secs_f64(ip.latency_secs()),
        };
        let err = run_inference(&mut bus, &cpu, &mut now, base, &words, wait).unwrap_err();
        assert_eq!(err, SocError::NoSuchIrqLine(IRQ_LINES));
        assert_eq!(gic, InterruptController::new());
    }

    #[test]
    fn irq_completion_costs_more_than_polling_under_linux() {
        // poll_interval-grained spinning beats a 9 us interrupt entry for
        // a microsecond-scale compute — the quantitative reason the
        // paper's per-message path polls.
        let (mut bus, base, ip) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let words = pack_features(&[1.0f32; 75]);
        let mut now = SimTime::ZERO;
        let polled = run_inference(&mut bus, &cpu, &mut now, base, &words, Wait::Poll).unwrap();
        let mut gic = InterruptController::new();
        gic.set_enabled(IRQ_ACCEL0, true).unwrap();
        let wait = Wait::Interrupt {
            gic: &mut gic,
            line: IRQ_ACCEL0,
            compute: SimTime::from_secs_f64(ip.latency_secs()),
        };
        let irq = run_inference(&mut bus, &cpu, &mut now, base, &words, wait).unwrap();
        assert!(irq.latency() > polled.latency());
        assert_eq!(irq.class, polled.class);
    }

    #[test]
    fn consecutive_inferences_advance_time() {
        let (mut bus, base, _) = setup();
        let cpu = CpuModel::zynqmp_a53_linux();
        let mut now = SimTime::ZERO;
        let words = pack_features(&[0.0f32; 75]);
        let a = run_inference(&mut bus, &cpu, &mut now, base, &words, Wait::Poll).unwrap();
        let b = run_inference(&mut bus, &cpu, &mut now, base, &words, Wait::Poll).unwrap();
        assert!(b.started_at >= a.completed_at);
    }
}
