//! The accelerator as a memory-mapped peripheral.
//!
//! Wraps a compiled [`AcceleratorIp`] behind its AXI-Lite register map:
//! the PS packs the 75 input bits into three 32-bit words, pulses
//! `CTRL.start`, polls `STATUS.done` and reads the class register — the
//! same handshake the FINN-generated stitched IP exposes. Completion
//! timing comes from the IP's cycle-accurate latency at the PL clock.

use canids_can::time::SimTime;
use canids_dataflow::ip::{AcceleratorIp, RegisterMap};
use canids_qnn::kernel::PackedScratch;

use crate::axi::MmioDevice;
use crate::error::SocError;

/// `STATUS` bit 0: result valid.
pub const STATUS_DONE: u32 = 1 << 0;
/// `STATUS` bit 1: datapath idle.
pub const STATUS_IDLE: u32 = 1 << 1;
/// `CTRL` bit 0: start (self-clearing).
pub const CTRL_START: u32 = 1 << 0;

/// The accelerator IP mapped into PS address space.
#[derive(Debug, Clone)]
pub struct AccelPeripheral {
    ip: AcceleratorIp,
    input_words: Vec<u32>,
    busy_until: Option<SimTime>,
    result_class: u32,
    /// Scores of the last inference, one buffer reused by every start.
    result_scores: Vec<i64>,
    scratch: PackedScratch,
    done_sticky: bool,
    inferences: u64,
    busy_time: SimTime,
}

impl AccelPeripheral {
    /// Wraps an IP as a peripheral.
    pub fn new(ip: AcceleratorIp) -> Self {
        let words = ip.input_words() as usize;
        AccelPeripheral {
            ip,
            input_words: vec![0; words],
            busy_until: None,
            result_class: 0,
            result_scores: Vec::new(),
            scratch: PackedScratch::default(),
            done_sticky: false,
            inferences: 0,
            busy_time: SimTime::ZERO,
        }
    }

    /// The wrapped IP.
    pub fn ip(&self) -> &AcceleratorIp {
        &self.ip
    }

    /// Completed inference count.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Accumulated datapath-busy time (drives the activity factor of the
    /// power model).
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }

    /// Whether the datapath is busy at `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        matches!(self.busy_until, Some(t) if now < t)
    }

    fn start(&mut self, now: SimTime) -> Result<(), SocError> {
        if self.is_busy(now) {
            return Err(SocError::DeviceBusy);
        }
        let (class, scores) = self.ip.infer_words(&self.input_words, &mut self.scratch);
        self.result_scores.clear();
        self.result_scores.extend_from_slice(&scores);
        let latency =
            SimTime::from_nanos(self.ip.latency_cycles() * 1_000_000_000 / self.ip.clock_hz());
        self.busy_until = Some(now + latency);
        self.busy_time += latency;
        self.result_class = class as u32;
        self.done_sticky = false;
        self.inferences += 1;
        Ok(())
    }
}

impl MmioDevice for AccelPeripheral {
    fn read(&mut self, offset: u32, now: SimTime) -> Result<u32, SocError> {
        match offset {
            RegisterMap::CTRL => Ok(0),
            RegisterMap::STATUS => {
                let mut status = 0;
                match self.busy_until {
                    Some(t) if now < t => {}
                    Some(_) => {
                        self.done_sticky = true;
                        status |= STATUS_DONE | STATUS_IDLE;
                    }
                    None => status |= STATUS_IDLE,
                }
                if self.done_sticky {
                    status |= STATUS_DONE;
                }
                Ok(status)
            }
            RegisterMap::OUT_CLASS => {
                if !self.done_sticky && self.busy_until.is_none() {
                    return Err(SocError::AccessViolation {
                        addr: u64::from(offset),
                        reason: "result read before any inference",
                    });
                }
                Ok(self.result_class)
            }
            o if o >= RegisterMap::OUT_SCORE_BASE
                && o < RegisterMap::OUT_SCORE_BASE + 4 * self.result_scores.len() as u32 =>
            {
                let idx = ((o - RegisterMap::OUT_SCORE_BASE) / 4) as usize;
                // Scores are i64; the register exposes the low 32 bits
                // (sufficient for the 2-class IDS decision margins).
                Ok(self.result_scores[idx] as u32)
            }
            o if o >= RegisterMap::INPUT_BASE
                && o < RegisterMap::INPUT_BASE + 4 * self.input_words.len() as u32 =>
            {
                Err(SocError::AccessViolation {
                    addr: u64::from(o),
                    reason: "input registers are write-only",
                })
            }
            o => Err(SocError::AccessViolation {
                addr: u64::from(o),
                reason: "unknown register",
            }),
        }
    }

    fn write(&mut self, offset: u32, value: u32, now: SimTime) -> Result<(), SocError> {
        match offset {
            RegisterMap::CTRL => {
                if value & CTRL_START != 0 {
                    self.start(now)?;
                }
                Ok(())
            }
            o if o >= RegisterMap::INPUT_BASE
                && o < RegisterMap::INPUT_BASE + 4 * self.input_words.len() as u32 =>
            {
                if self.is_busy(now) {
                    return Err(SocError::DeviceBusy);
                }
                let idx = ((o - RegisterMap::INPUT_BASE) / 4) as usize;
                self.input_words[idx] = value;
                Ok(())
            }
            o => Err(SocError::AccessViolation {
                addr: u64::from(o),
                reason: "register is read-only or unknown",
            }),
        }
    }

    fn name(&self) -> &str {
        self.ip.name()
    }
}

/// Packs binary features into the 32-bit words the peripheral expects:
/// feature `i` is bit `i % 32` of word `i / 32`, set when the feature is
/// at least one half.
///
/// # Example
///
/// ```
/// use canids_soc::accel::pack_features;
///
/// let bits = vec![1.0_f32; 33];
/// let words = pack_features(&bits);
/// assert_eq!(words.len(), 2);
/// assert_eq!(words[0], u32::MAX);
/// assert_eq!(words[1], 1);
/// ```
pub fn pack_features(bits: &[f32]) -> Vec<u32> {
    let mut words = Vec::with_capacity(bits.len().div_ceil(32));
    pack_features_into(bits, &mut words);
    words
}

/// Appends [`pack_features`]' words for `bits` to `words`: the one
/// float-to-word packer every AXI input path shares.
pub(crate) fn pack_features_into(bits: &[f32], words: &mut Vec<u32>) {
    words.extend(bits.chunks(32).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u32, |word, (i, &b)| word | (u32::from(b >= 0.5) << i))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_dataflow::ip::CompileConfig;
    use canids_qnn::prelude::*;

    fn peripheral() -> AccelPeripheral {
        let mlp = QuantMlp::new(MlpConfig::default()).unwrap();
        let ip = AcceleratorIp::compile(&mlp.export().unwrap(), CompileConfig::default()).unwrap();
        AccelPeripheral::new(ip)
    }

    fn write_input(p: &mut AccelPeripheral, bits: &[f32], now: SimTime) {
        for (i, w) in pack_features(bits).into_iter().enumerate() {
            p.write(RegisterMap::INPUT_BASE + 4 * i as u32, w, now)
                .unwrap();
        }
    }

    #[test]
    fn full_handshake_produces_result() {
        let mut p = peripheral();
        let bits = vec![1.0f32; 75];
        let t0 = SimTime::from_micros(10);
        write_input(&mut p, &bits, t0);
        p.write(RegisterMap::CTRL, CTRL_START, t0).unwrap();

        // Immediately after start: busy, not done.
        let status = p.read(RegisterMap::STATUS, t0).unwrap();
        assert_eq!(status & STATUS_DONE, 0);

        // After the compute latency: done.
        let t1 = t0 + SimTime::from_micros(100);
        let status = p.read(RegisterMap::STATUS, t1).unwrap();
        assert_ne!(status & STATUS_DONE, 0);

        let class = p.read(RegisterMap::OUT_CLASS, t1).unwrap();
        let expect = p.ip().infer(&[1u32; 75]).0 as u32;
        assert_eq!(class, expect);
        assert_eq!(p.inferences(), 1);
    }

    #[test]
    fn busy_device_rejects_start_and_input() {
        let mut p = peripheral();
        let t0 = SimTime::ZERO;
        write_input(&mut p, &[0.0; 75], t0);
        p.write(RegisterMap::CTRL, CTRL_START, t0).unwrap();
        assert_eq!(
            p.write(RegisterMap::CTRL, CTRL_START, t0).unwrap_err(),
            SocError::DeviceBusy
        );
        assert_eq!(
            p.write(RegisterMap::INPUT_BASE, 1, t0).unwrap_err(),
            SocError::DeviceBusy
        );
    }

    #[test]
    fn input_registers_are_write_only() {
        let mut p = peripheral();
        let err = p.read(RegisterMap::INPUT_BASE, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, SocError::AccessViolation { .. }));
    }

    #[test]
    fn result_read_before_inference_rejected() {
        let mut p = peripheral();
        let err = p.read(RegisterMap::OUT_CLASS, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, SocError::AccessViolation { .. }));
    }

    #[test]
    fn matches_ip_for_many_inputs() {
        let mut p = peripheral();
        let mut now = SimTime::ZERO;
        for seed in 0u64..32 {
            let bits: Vec<f32> = (0..75)
                .map(|i| f32::from((seed.wrapping_mul(i as u64 + 7) >> 3) & 1 == 1))
                .collect();
            write_input(&mut p, &bits, now);
            p.write(RegisterMap::CTRL, CTRL_START, now).unwrap();
            now += SimTime::from_micros(50);
            let class = p.read(RegisterMap::OUT_CLASS, now).unwrap();
            let x: Vec<u32> = bits.iter().map(|&b| u32::from(b >= 0.5)).collect();
            assert_eq!(class, p.ip().infer(&x).0 as u32, "seed {seed}");
            now += SimTime::from_micros(50);
        }
        assert_eq!(p.inferences(), 32);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut p = peripheral();
        let before = p.busy_time();
        write_input(&mut p, &[0.0; 75], SimTime::ZERO);
        p.write(RegisterMap::CTRL, CTRL_START, SimTime::ZERO)
            .unwrap();
        assert!(p.busy_time() > before);
    }

    #[test]
    fn pack_features_bit_order() {
        let mut bits = vec![0.0f32; 75];
        bits[0] = 1.0;
        bits[31] = 1.0;
        bits[32] = 1.0;
        bits[74] = 1.0;
        let words = pack_features(&bits);
        assert_eq!(words.len(), 3);
        assert_eq!(words[0], (1 << 0) | (1 << 31));
        assert_eq!(words[1], 1);
        assert_eq!(words[2], 1 << 10);
    }

    #[test]
    fn score_registers_hold_the_reference_scores() {
        let model = QuantMlp::new(MlpConfig::paper_4bit())
            .unwrap()
            .export()
            .unwrap();
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        let mut p = AccelPeripheral::new(ip);
        let mut now = SimTime::ZERO;
        assert!(matches!(
            p.read(RegisterMap::OUT_SCORE_BASE, now),
            Err(SocError::AccessViolation { .. })
        ));
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for k in 0..64u32 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // All-zero and all-one first, then random frames.
            let x: Vec<u32> = (0..75)
                .map(|i| match k {
                    0 => 0,
                    1 => 1,
                    _ => ((state >> (i % 64)) ^ (state >> (63 - i % 64) >> 1)) as u32 & 1,
                })
                .collect();
            let bits: Vec<f32> = x.iter().map(|&b| b as f32).collect();
            write_input(&mut p, &bits, now);
            p.write(RegisterMap::CTRL, CTRL_START, now).unwrap();
            now += SimTime::from_micros(50);
            let want = model.infer(&x);
            assert_eq!(want.scores.len(), 2);
            for (c, &score) in want.scores.iter().enumerate() {
                let reg = RegisterMap::OUT_SCORE_BASE + 4 * c as u32;
                assert_eq!(
                    p.read(reg, now).unwrap(),
                    score as u32,
                    "input {k}, class {c}"
                );
            }
            assert_eq!(
                p.read(RegisterMap::OUT_CLASS, now).unwrap(),
                want.class as u32
            );
            now += SimTime::from_micros(50);
        }
    }
}
