//! Bit timing and line-rate arithmetic.
//!
//! Frame durations are computed from the *exact on-wire bit count*
//! (including stuff bits), so every throughput/latency figure that the
//! benchmark harness reports is grounded in the wire format. The paper's
//! headline "over 8 300 messages per second at highest payload capacity"
//! corresponds to 8-byte frames on a 1 Mb/s high-speed CAN segment; see
//! [`max_frame_rate`].
//!
//! [`frame_bit_count`] counts that length without building the bit
//! sequence: it packs the frame's fields into one integer, runs CRC-15 and
//! the stuffing rule over it a byte at a time from two `const` tables, and
//! adds the unstuffed tail. Its tests hold it equal to
//! `encode_frame(f).len()` for standard, extended and remote frames of
//! every length, the stuffing-heaviest included.

use crate::bits::stuff_bit_count;
use crate::crc::crc15_packed;
use crate::error::FrameError;
use crate::frame::{CanFrame, CanId};
use crate::time::SimTime;

/// Fixed-form overhead bits of a standard data frame (SOF + ID + RTR + IDE +
/// r0 + DLC + CRC + delimiters + ACK + EOF), excluding data and stuff bits.
pub const SFF_OVERHEAD_BITS: usize = 44;

/// Fixed-form overhead bits of an extended data frame.
pub const EFF_OVERHEAD_BITS: usize = 64;

/// Interframe space (intermission) between consecutive frames, in bit times.
pub const INTERFRAME_BITS: usize = 3;

/// Unstuffed bits after the CRC sequence: CRC delimiter, ACK slot, ACK
/// delimiter and the seven EOF bits.
const TAIL_BITS: usize = 10;

/// Nominal bus bitrate.
///
/// # Example
///
/// ```
/// use canids_can::timing::Bitrate;
///
/// assert_eq!(Bitrate::HIGH_SPEED_1M.bits_per_sec(), 1_000_000);
/// assert_eq!(Bitrate::HIGH_SPEED_1M.bit_time().as_nanos(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bitrate(u32);

impl Bitrate {
    /// 1 Mb/s — ISO 11898-2 high-speed CAN maximum (powertrain/chassis).
    pub const HIGH_SPEED_1M: Bitrate = Bitrate(1_000_000);
    /// 500 kb/s — the common high-speed body/powertrain rate.
    pub const HIGH_SPEED_500K: Bitrate = Bitrate(500_000);
    /// 250 kb/s.
    pub const MEDIUM_250K: Bitrate = Bitrate(250_000);
    /// 125 kb/s — low-speed/comfort CAN.
    pub const LOW_SPEED_125K: Bitrate = Bitrate(125_000);

    /// Creates an arbitrary bitrate (bits per second). Panic-free; the
    /// value is clamped to at least 1 kb/s to keep durations finite.
    pub fn new(bits_per_sec: u32) -> Self {
        Bitrate(bits_per_sec.max(1_000))
    }

    /// Bits per second.
    pub fn bits_per_sec(self) -> u32 {
        self.0
    }

    /// Duration of one nominal bit time.
    pub fn bit_time(self) -> SimTime {
        SimTime::from_nanos(1_000_000_000 / u64::from(self.0))
    }
}

impl Default for Bitrate {
    fn default() -> Self {
        Bitrate::HIGH_SPEED_500K
    }
}

/// CAN bit-timing segments in time quanta (ISO 11898-1 §11.3).
///
/// The controller divides every bit into SYNC_SEG (always 1 tq),
/// PROP_SEG, PHASE_SEG1 and PHASE_SEG2; the sample point sits after
/// PHASE_SEG1.
///
/// # Example
///
/// ```
/// use canids_can::timing::BitTiming;
///
/// // 40 MHz CAN clock, 500 kb/s, sample point ~87.5 %.
/// let bt = BitTiming::for_bitrate(40_000_000, 500_000);
/// assert_eq!(bt.tq_per_bit() * bt.prescaler() as usize * 500_000,
///            40_000_000 as usize);
/// assert!(bt.sample_point() > 0.7 && bt.sample_point() < 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitTiming {
    prescaler: u16,
    prop_seg: u8,
    phase_seg1: u8,
    phase_seg2: u8,
    sjw: u8,
}

impl BitTiming {
    /// Creates a timing configuration from explicit segment lengths
    /// (in time quanta). `SYNC_SEG` is implicitly 1 tq.
    pub fn new(prescaler: u16, prop_seg: u8, phase_seg1: u8, phase_seg2: u8, sjw: u8) -> Self {
        BitTiming {
            prescaler: prescaler.max(1),
            prop_seg: prop_seg.max(1),
            phase_seg1: phase_seg1.max(1),
            phase_seg2: phase_seg2.max(1),
            sjw: sjw.max(1),
        }
    }

    /// Derives a standard configuration (sample point near 87.5 %) for a
    /// CAN clock and target bitrate, following the usual CiA 301 heuristic.
    pub fn for_bitrate(can_clock_hz: u32, bitrate: u32) -> Self {
        let bitrate = bitrate.max(1_000);
        // Aim for 16 tq per bit when divisible, otherwise fall back.
        for tq_per_bit in [16u32, 20, 10, 8, 25, 12, 40] {
            let div = bitrate * tq_per_bit;
            if div != 0 && can_clock_hz.is_multiple_of(div) {
                let prescaler = (can_clock_hz / div) as u16;
                // Sample point ~87.5%: SYNC(1) + PROP + PS1 = 0.875 * tq
                let before = ((tq_per_bit as f64 * 0.875).round() as u32).max(3);
                let ps2 = (tq_per_bit - before).max(1) as u8;
                let prop = ((before - 1) / 2).max(1) as u8;
                let ps1 = (before - 1 - u32::from(prop)).max(1) as u8;
                return BitTiming::new(prescaler, prop, ps1, ps2, ps2.min(4));
            }
        }
        // Generic fallback: 10 tq per bit, integer prescaler.
        let prescaler = (can_clock_hz / (bitrate * 10)).max(1) as u16;
        BitTiming::new(prescaler, 4, 4, 1, 1)
    }

    /// Baud-rate prescaler (CAN clock divider).
    pub fn prescaler(self) -> u16 {
        self.prescaler
    }

    /// Total time quanta per bit (SYNC + PROP + PS1 + PS2).
    pub fn tq_per_bit(self) -> usize {
        1 + usize::from(self.prop_seg) + usize::from(self.phase_seg1) + usize::from(self.phase_seg2)
    }

    /// Relative sample-point position within the bit (0..1).
    pub fn sample_point(self) -> f64 {
        let before = 1 + usize::from(self.prop_seg) + usize::from(self.phase_seg1);
        before as f64 / self.tq_per_bit() as f64
    }

    /// (Re)synchronisation jump width in time quanta.
    pub fn sjw(self) -> u8 {
        self.sjw
    }

    /// The bitrate this timing yields on a given CAN clock.
    pub fn bitrate(self, can_clock_hz: u32) -> Bitrate {
        let denom = u32::from(self.prescaler) * self.tq_per_bit() as u32;
        Bitrate::new(can_clock_hz / denom.max(1))
    }
}

impl Default for BitTiming {
    fn default() -> Self {
        // 40 MHz clock, 500 kb/s, 16 tq.
        BitTiming::for_bitrate(40_000_000, 500_000)
    }
}

/// Number of on-wire bits for a frame (SOF..EOF, including stuff bits).
///
/// Allocation-free: the fields from SOF through the data (at most 103
/// bits) are packed into a `u128`, most significant first. CRC-15 runs
/// over them a byte at a time, and its 15 bits are appended. A 10-state
/// automaton then counts the stuff bits a byte at a time, and the 10
/// unstuffed tail bits are added. The result equals
/// [`encode_frame(frame).len()`](crate::bits::encode_frame) for every
/// frame, which the codec's property tests check.
///
/// # Example
///
/// ```
/// use canids_can::bits::encode_frame;
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::timing::frame_bit_count;
///
/// // The DoS flood frame: ID 0x000, eight zero bytes, the most stuffing.
/// let f = CanFrame::new(CanId::standard(0)?, &[0; 8])?;
/// assert_eq!(frame_bit_count(&f), encode_frame(&f).len());
/// # Ok::<(), canids_can::FrameError>(())
/// ```
pub fn frame_bit_count(frame: &CanFrame) -> usize {
    let rtr = u128::from(frame.is_remote());
    // SOF is the implicit leading zero of each packing.
    let (mut bits, mut len) = match frame.id() {
        // SOF, ID, RTR, IDE = 0, r0 = 0.
        CanId::Standard(id) => (u128::from(id & 0x7FF) << 3 | rtr << 2, 15),
        // SOF, base ID, SRR = 1, IDE = 1, ID extension, RTR, r1 = 0, r0 = 0.
        CanId::Extended(id) => {
            let base = u128::from((id >> 18) & 0x7FF);
            let extension = u128::from(id & 0x3_FFFF);
            ((base << 2 | 0b11) << 21 | extension << 3 | rtr << 2, 35)
        }
    };
    bits = bits << 4 | u128::from(frame.dlc().value());
    len += 4;
    if !frame.is_remote() {
        for &byte in frame.data() {
            bits = bits << 8 | u128::from(byte);
            len += 8;
        }
    }
    bits = bits << 15 | u128::from(crc15_packed(bits, len));
    len += 15;
    len + stuff_bit_count(bits, len) + TAIL_BITS
}

/// Wire duration of a frame (SOF..EOF) at `rate`, excluding interframe space.
pub fn frame_duration(frame: &CanFrame, rate: Bitrate) -> SimTime {
    rate.bit_time().mul_u64(frame_bit_count(frame) as u64)
}

/// Wire duration of a frame plus the mandatory 3-bit interframe space.
pub fn frame_slot_duration(frame: &CanFrame, rate: Bitrate) -> SimTime {
    rate.bit_time()
        .mul_u64((frame_bit_count(frame) + INTERFRAME_BITS) as u64)
}

/// [`frame_duration`] and [`frame_slot_duration`] from one bit count, for
/// pacers that need both: `(wire, slot)`, where the slot is the wire time
/// plus [`INTERFRAME_BITS`] bit times.
pub fn frame_wire_and_slot(frame: &CanFrame, rate: Bitrate) -> (SimTime, SimTime) {
    wire_and_slot(frame_bit_count(frame), rate)
}

/// [`frame_wire_and_slot`] of a frame whose [`frame_bit_count`] is
/// `bits`. The count does not depend on the bitrate, so a path that
/// carries one frame across segments of different bitrates counts it
/// once and calls this per segment.
///
/// # Example
///
/// ```
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::timing::{frame_bit_count, frame_wire_and_slot, wire_and_slot, Bitrate};
///
/// let f = CanFrame::new(CanId::standard(0x316)?, &[5, 32, 14])?;
/// let bits = frame_bit_count(&f);
/// for rate in [Bitrate::HIGH_SPEED_1M, Bitrate::MEDIUM_250K] {
///     assert_eq!(wire_and_slot(bits, rate), frame_wire_and_slot(&f, rate));
/// }
/// # Ok::<(), canids_can::FrameError>(())
/// ```
pub fn wire_and_slot(bits: usize, rate: Bitrate) -> (SimTime, SimTime) {
    let bit_time = rate.bit_time();
    let bits = bits as u64;
    (
        bit_time.mul_u64(bits),
        bit_time.mul_u64(bits + INTERFRAME_BITS as u64),
    )
}

/// Maximum sustainable frames/second for back-to-back standard data frames
/// of `payload_len` bytes at `rate`, averaged over random payloads.
///
/// Uses the mean stuffed length of frames with uniformly random payloads
/// and a mid-range identifier, plus the 3-bit interframe space — the same
/// arithmetic that yields the paper's ≈8.3 kframe/s at 1 Mb/s.
///
/// # Errors
///
/// Returns [`FrameError::PayloadTooLong`] when `payload_len > 8`.
pub fn max_frame_rate(rate: Bitrate, payload_len: usize) -> Result<f64, FrameError> {
    if payload_len > 8 {
        return Err(FrameError::PayloadTooLong(payload_len));
    }
    // Deterministic pseudo-random payload sample for the average.
    let mut state = 0x9E37_79B9u32;
    let mut total_bits = 0usize;
    const SAMPLES: usize = 64;
    for i in 0..SAMPLES {
        let mut payload = [0u8; 8];
        for byte in payload.iter_mut().take(payload_len) {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *byte = (state >> 24) as u8;
        }
        let id = CanId::Standard(
            (0x100 + (u16::try_from(i).expect("SAMPLES < 64") * 13) % 0x400) & 0x7FF,
        );
        let frame = CanFrame::new(id, &payload[..payload_len]).expect("payload_len validated <= 8");
        total_bits += frame_bit_count(&frame) + INTERFRAME_BITS;
    }
    let mean_bits = total_bits as f64 / SAMPLES as f64;
    Ok(f64::from(rate.bits_per_sec()) / mean_bits)
}

/// Worst-case number of stuff bits for a standard frame with `n` stuffable
/// bits: `floor((n - 1) / 4)`.
pub fn worst_case_stuff_bits(stuffable_bits: usize) -> usize {
    if stuffable_bits == 0 {
        0
    } else {
        (stuffable_bits - 1) / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{CanFrame, CanId};

    fn frame8(id: u16) -> CanFrame {
        CanFrame::new(CanId::standard(id).unwrap(), &[0xA5; 8]).unwrap()
    }

    #[test]
    fn bit_time_inverse_of_rate() {
        assert_eq!(Bitrate::HIGH_SPEED_1M.bit_time().as_nanos(), 1_000);
        assert_eq!(Bitrate::HIGH_SPEED_500K.bit_time().as_nanos(), 2_000);
        assert_eq!(Bitrate::LOW_SPEED_125K.bit_time().as_nanos(), 8_000);
    }

    #[test]
    fn frame_duration_scales_with_bitrate() {
        let f = frame8(0x2C0);
        let d1m = frame_duration(&f, Bitrate::HIGH_SPEED_1M);
        let d500k = frame_duration(&f, Bitrate::HIGH_SPEED_500K);
        assert_eq!(d500k.as_nanos(), 2 * d1m.as_nanos());
    }

    #[test]
    fn eight_byte_frame_at_1m_is_about_120us() {
        let f = frame8(0x2C0);
        let d = frame_duration(&f, Bitrate::HIGH_SPEED_1M);
        assert!(
            d.as_micros_f64() > 105.0 && d.as_micros_f64() < 135.0,
            "duration = {d}"
        );
    }

    #[test]
    fn line_rate_exceeds_8300_at_full_payload_1m() {
        // Paper: "over 8300 messages per second at highest payload capacity".
        let rate = max_frame_rate(Bitrate::HIGH_SPEED_1M, 8).unwrap();
        assert!(rate > 8_000.0 && rate < 9_300.0, "rate = {rate}");
    }

    #[test]
    fn line_rate_rejects_oversized_payload() {
        assert!(max_frame_rate(Bitrate::HIGH_SPEED_1M, 9).is_err());
    }

    #[test]
    fn shorter_payloads_yield_higher_rates() {
        let r0 = max_frame_rate(Bitrate::HIGH_SPEED_1M, 0).unwrap();
        let r8 = max_frame_rate(Bitrate::HIGH_SPEED_1M, 8).unwrap();
        assert!(r0 > r8);
    }

    #[test]
    fn bit_timing_sample_point_near_875() {
        let bt = BitTiming::for_bitrate(40_000_000, 500_000);
        assert!(
            (bt.sample_point() - 0.875).abs() < 0.08,
            "{}",
            bt.sample_point()
        );
        assert_eq!(bt.bitrate(40_000_000).bits_per_sec(), 500_000);
    }

    #[test]
    fn bit_timing_round_trips_common_rates() {
        for rate in [125_000u32, 250_000, 500_000, 1_000_000] {
            let bt = BitTiming::for_bitrate(40_000_000, rate);
            assert_eq!(bt.bitrate(40_000_000).bits_per_sec(), rate, "rate {rate}");
        }
    }

    #[test]
    fn worst_case_stuffing_formula() {
        assert_eq!(worst_case_stuff_bits(0), 0);
        assert_eq!(worst_case_stuff_bits(98), 24);
        assert_eq!(worst_case_stuff_bits(5), 1);
    }

    #[test]
    fn slot_duration_adds_interframe_space() {
        let f = frame8(0x100);
        let rate = Bitrate::HIGH_SPEED_1M;
        let without = frame_duration(&f, rate);
        let with = frame_slot_duration(&f, rate);
        assert_eq!(with.as_nanos() - without.as_nanos(), 3_000);
    }
}
