//! Exact frame bit encoding: field layout, CRC insertion and bit stuffing.
//!
//! The encoder produces the on-wire bit sequence of a frame (dominant =
//! `false`, recessive = `true`), applying the 5-bit stuffing rule to the
//! region from start-of-frame through the CRC sequence. The decoder is its
//! exact inverse and validates stuffing, CRC and the fixed-form fields, so
//! `decode(encode(f)) == f` for every valid frame — a property exercised by
//! the test-suite.
//!
//! Frame durations come from [`crate::timing::frame_bit_count`], which
//! counts the same wire length without building the sequence; the codec
//! here is the reference it is tested against.

use crate::crc::{crc15, Crc15};
use crate::error::CanError;
use crate::frame::{CanFrame, CanId, Dlc};

/// Number of identical consecutive bits after which a stuff bit is inserted.
pub const STUFF_RUN: usize = 5;

/// The encoded bit-level representation of a frame.
///
/// `bits` holds the complete on-wire sequence from SOF through the last EOF
/// bit (the 3-bit interframe space is *not* included; see
/// [`crate::timing::INTERFRAME_BITS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameBits {
    bits: Vec<bool>,
    stuff_bits: usize,
    stuffed_region_len: usize,
}

impl FrameBits {
    /// The full on-wire bit sequence (SOF..EOF).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Total number of bits on the wire (SOF..EOF, including stuff bits).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the sequence is empty (never the case for valid frames).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of stuff bits that were inserted.
    pub fn stuff_bits(&self) -> usize {
        self.stuff_bits
    }

    /// Length of the stuffed region (SOF..CRC, after stuffing).
    pub fn stuffed_region_len(&self) -> usize {
        self.stuffed_region_len
    }
}

fn push_bits_msb(dst: &mut Vec<bool>, value: u32, width: usize) {
    for i in (0..width).rev() {
        dst.push((value >> i) & 1 == 1);
    }
}

/// Applies CAN bit stuffing to a raw bit sequence.
///
/// After every run of five identical bits (counted over the *output*
/// stream, i.e. inserted stuff bits participate in subsequent runs), the
/// complement bit is inserted.
///
/// # Example
///
/// ```
/// use canids_can::bits::stuff;
///
/// let stuffed = stuff(&[false; 6]);
/// // 5 dominant bits, then a recessive stuff bit, then the 6th dominant bit.
/// assert_eq!(
///     stuffed,
///     vec![false, false, false, false, false, true, false]
/// );
/// ```
pub fn stuff(raw: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(raw.len() + raw.len() / 4);
    let mut run_val = false;
    let mut run_len = 0usize;
    for &bit in raw {
        out.push(bit);
        if run_len > 0 && bit == run_val {
            run_len += 1;
        } else {
            run_val = bit;
            run_len = 1;
        }
        if run_len == STUFF_RUN {
            let stuffed_bit = !run_val;
            out.push(stuffed_bit);
            run_val = stuffed_bit;
            run_len = 1;
        }
    }
    out
}

/// [`stuff`]'s run counter as an automaton over whole bytes.
///
/// Row `s` is the counter's state: run value `s >= 5`, run length `s % 5`
/// (0 before the first bit). Column `b` is the next input byte, most
/// significant bit first. Each entry packs the state after the byte (low
/// four bits) with the number of stuff bits the byte adds (high bits).
/// A stuff bit starts the next run, exactly as in [`stuff`].
const STUFF_BYTE_TABLE: [[u8; 256]; 10] = {
    let mut table = [[0u8; 256]; 10];
    let mut state = 0;
    while state < 10 {
        let mut byte = 0;
        while byte < 256 {
            let (mut run_val, mut run_len) = (state >= 5, state % 5);
            let mut stuffed = 0;
            let mut bit = 8;
            while bit > 0 {
                bit -= 1;
                let value = (byte >> bit) & 1 == 1;
                if run_len > 0 && value == run_val {
                    run_len += 1;
                } else {
                    run_val = value;
                    run_len = 1;
                }
                if run_len == STUFF_RUN {
                    run_val = !run_val;
                    run_len = 1;
                    stuffed += 1;
                }
            }
            let next = if run_val { 5 + run_len } else { run_len };
            table[state][byte] = (next | stuffed << 4) as u8;
            byte += 1;
        }
        state += 1;
    }
    table
};

/// Number of stuff bits [`stuff`] inserts into the `len` low bits of
/// `bits` (most significant first, `len < 128`), counted a byte at a time
/// with a 10-state automaton.
///
/// The sequence is left-padded to whole bytes with alternating bits whose
/// last differs from the sequence's first bit, so the padding neither
/// stuffs nor joins the first run.
pub(crate) fn stuff_bit_count(bits: u128, len: usize) -> usize {
    let pad = len.next_multiple_of(8) - len;
    let first_recessive = len > 0 && (bits >> (len - 1)) & 1 == 1;
    let alternating: u128 = if first_recessive { 0xAA } else { 0x55 };
    let padded = bits | (alternating & ((1 << pad) - 1)) << len;
    let bytes = padded.to_be_bytes();
    let mut state = 0;
    let mut stuffed = 0;
    for &byte in &bytes[bytes.len() - (len + pad) / 8..] {
        let entry = STUFF_BYTE_TABLE[state][usize::from(byte)];
        state = usize::from(entry & 0xF);
        stuffed += usize::from(entry >> 4);
    }
    stuffed
}

/// Removes stuff bits from a stuffed sequence, validating the stuffing rule.
///
/// # Errors
///
/// Returns [`CanError::Stuff`] when a sixth identical consecutive bit is
/// found where a complement stuff bit was required.
///
/// # Example
///
/// ```
/// use canids_can::bits::{destuff, stuff};
///
/// let raw = vec![true, true, true, true, true, true, false];
/// let wire = stuff(&raw);
/// assert_eq!(destuff(&wire)?, raw);
/// # Ok::<(), canids_can::CanError>(())
/// ```
pub fn destuff(stuffed: &[bool]) -> Result<Vec<bool>, CanError> {
    let mut out = Vec::with_capacity(stuffed.len());
    let mut run_val = false;
    let mut run_len = 0usize;
    let mut iter = stuffed.iter().copied().enumerate();
    while let Some((_, bit)) = iter.next() {
        out.push(bit);
        if run_len > 0 && bit == run_val {
            run_len += 1;
        } else {
            run_val = bit;
            run_len = 1;
        }
        if run_len == STUFF_RUN {
            match iter.next() {
                Some((spos, sbit)) => {
                    if sbit == run_val {
                        return Err(CanError::Stuff { position: spos });
                    }
                    run_val = sbit;
                    run_len = 1;
                }
                None => break,
            }
        }
    }
    Ok(out)
}

/// Builds the unstuffed field sequence from SOF through the CRC sequence.
fn stuffable_region(frame: &CanFrame) -> Vec<bool> {
    let mut raw = Vec::with_capacity(120);
    raw.push(false); // SOF (dominant)
    match frame.id() {
        CanId::Standard(id) => {
            push_bits_msb(&mut raw, u32::from(id), 11);
            raw.push(frame.is_remote()); // RTR
            raw.push(false); // IDE = 0 (standard)
            raw.push(false); // r0
        }
        CanId::Extended(id) => {
            push_bits_msb(&mut raw, (id >> 18) & 0x7FF, 11); // base ID
            raw.push(true); // SRR (recessive)
            raw.push(true); // IDE = 1 (extended)
            push_bits_msb(&mut raw, id & 0x3_FFFF, 18); // extension
            raw.push(frame.is_remote()); // RTR
            raw.push(false); // r1
            raw.push(false); // r0
        }
    }
    push_bits_msb(&mut raw, u32::from(frame.dlc().value()), 4);
    if !frame.is_remote() {
        for &byte in frame.data() {
            push_bits_msb(&mut raw, u32::from(byte), 8);
        }
    }
    let fcs = crc15(&raw);
    push_bits_msb(&mut raw, u32::from(fcs), 15);
    raw
}

/// Encodes a frame to its complete on-wire bit sequence.
///
/// The ACK slot is encoded dominant (`false`), i.e. the sequence as observed
/// on a bus where at least one receiver acknowledged the frame.
///
/// # Example
///
/// ```
/// use canids_can::bits::encode_frame;
/// use canids_can::frame::{CanFrame, CanId};
///
/// let f = CanFrame::new(CanId::standard(0x100)?, &[0xFF; 8])?;
/// let enc = encode_frame(&f);
/// // 8-byte standard frame: 98 stuffable bits + 10 fixed-form + stuffing.
/// assert!(enc.len() >= 108);
/// # Ok::<(), canids_can::FrameError>(())
/// ```
pub fn encode_frame(frame: &CanFrame) -> FrameBits {
    let raw = stuffable_region(frame);
    let mut bits = stuff(&raw);
    let stuffed_region_len = bits.len();
    let stuff_bits = stuffed_region_len - raw.len();
    bits.push(true); // CRC delimiter
    bits.push(false); // ACK slot (acknowledged)
    bits.push(true); // ACK delimiter
    bits.extend(std::iter::repeat_n(true, 7)); // EOF
    FrameBits {
        bits,
        stuff_bits,
        stuffed_region_len,
    }
}

/// Incremental destuffing cursor used by the decoder.
struct Destuffer<'a> {
    bits: &'a [bool],
    pos: usize,
    run_val: bool,
    run_len: usize,
    crc: Crc15,
    emitted: usize,
}

impl<'a> Destuffer<'a> {
    fn new(bits: &'a [bool]) -> Self {
        Destuffer {
            bits,
            pos: 0,
            run_val: false,
            run_len: 0,
            crc: Crc15::new(),
            emitted: 0,
        }
    }

    /// Reads the next payload (non-stuff) bit.
    fn next_bit(&mut self) -> Result<bool, CanError> {
        let bit = *self.bits.get(self.pos).ok_or(CanError::Truncated {
            needed: self.pos + 1,
            available: self.bits.len(),
        })?;
        self.pos += 1;
        if self.run_len > 0 && bit == self.run_val {
            self.run_len += 1;
        } else {
            self.run_val = bit;
            self.run_len = 1;
        }
        if self.run_len == STUFF_RUN {
            // The next wire bit is a stuff bit; consume and verify it.
            if let Some(&sbit) = self.bits.get(self.pos) {
                if sbit == self.run_val {
                    return Err(CanError::Stuff { position: self.pos });
                }
                self.pos += 1;
                self.run_val = sbit;
                self.run_len = 1;
            }
        }
        self.crc.push(bit);
        self.emitted += 1;
        Ok(bit)
    }

    fn next_field(&mut self, width: usize) -> Result<u32, CanError> {
        let mut value = 0u32;
        for _ in 0..width {
            value = (value << 1) | u32::from(self.next_bit()?);
        }
        Ok(value)
    }

    /// CRC over everything emitted so far.
    fn crc_value(&self) -> u16 {
        self.crc.value()
    }

    /// Wire position where fixed-form (unstuffed) fields begin.
    fn wire_pos(&self) -> usize {
        self.pos
    }
}

/// Decodes an on-wire bit sequence back into a [`CanFrame`].
///
/// The sequence must start at the SOF bit and contain at least the full
/// frame through EOF, exactly as produced by [`encode_frame`].
///
/// # Errors
///
/// * [`CanError::Truncated`] — sequence shorter than the encoded frame,
/// * [`CanError::Stuff`] — stuffing-rule violation,
/// * [`CanError::Crc`] — frame-check-sequence mismatch,
/// * [`CanError::Form`] — wrong level in SOF, delimiters or EOF.
pub fn decode_frame(bits: &[bool]) -> Result<CanFrame, CanError> {
    let mut d = Destuffer::new(bits);

    if d.next_bit()? {
        return Err(CanError::Form { field: "SOF" });
    }
    let base_id = d.next_field(11)?;
    let rtr_or_srr = d.next_bit()?;
    let ide = d.next_bit()?;

    let (id, remote) = if !ide {
        // Standard frame: r0 follows IDE.
        let _r0 = d.next_bit()?;
        let id = CanId::standard_from_raw(base_id).map_err(CanError::Frame)?;
        (id, rtr_or_srr)
    } else {
        let ext = d.next_field(18)?;
        let rtr = d.next_bit()?;
        let _r1 = d.next_bit()?;
        let _r0 = d.next_bit()?;
        let raw = (base_id << 18) | ext;
        let id = CanId::extended(raw).map_err(CanError::Frame)?;
        (id, rtr)
    };

    // Classic CAN: DLC values 9..15 denote 8 data bytes; `from_wire`
    // applies that clamp and rejects anything wider than the field.
    let dlc = Dlc::from_wire(d.next_field(4)?).map_err(CanError::Frame)?;
    let data_len = dlc.byte_len();

    let mut data = [0u8; 8];
    if !remote {
        for byte in data.iter_mut().take(data_len) {
            *byte = d.next_field(8)? as u8;
        }
    }

    let computed_crc = d.crc_value();
    let received_crc = d.next_field(15)? as u16;
    if received_crc != computed_crc {
        return Err(CanError::Crc {
            expected: received_crc,
            computed: computed_crc,
        });
    }

    // Fixed-form fields, read raw (no stuffing past the CRC sequence).
    let mut pos = d.wire_pos();
    let mut raw_bit = || -> Result<bool, CanError> {
        let bit = *bits.get(pos).ok_or(CanError::Truncated {
            needed: pos + 1,
            available: bits.len(),
        })?;
        pos += 1;
        Ok(bit)
    };

    if !raw_bit()? {
        return Err(CanError::Form {
            field: "CRC delimiter",
        });
    }
    let ack_slot = raw_bit()?;
    if ack_slot {
        // Recessive ACK slot: nobody acknowledged.
        return Err(CanError::Ack);
    }
    if !raw_bit()? {
        return Err(CanError::Form {
            field: "ACK delimiter",
        });
    }
    for _ in 0..7 {
        if !raw_bit()? {
            return Err(CanError::Form { field: "EOF" });
        }
    }

    let frame = if remote {
        CanFrame::remote(id, dlc)
    } else {
        CanFrame::new(id, &data[..data_len]).expect("length validated")
    };
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{CanFrame, CanId, Dlc};

    fn std_frame(id: u16, payload: &[u8]) -> CanFrame {
        CanFrame::new(CanId::standard(id).unwrap(), payload).unwrap()
    }

    #[test]
    fn stuff_inserts_after_five_equal_bits() {
        let stuffed = stuff(&[true; 5]);
        assert_eq!(stuffed, vec![true, true, true, true, true, false]);
    }

    #[test]
    fn stuff_bit_participates_in_next_run() {
        // 5 ones -> stuff 0; then 4 more ones do NOT trigger again
        // (run restarted at the stuff bit).
        let stuffed = stuff(&[true; 9]);
        assert_eq!(stuffed.len(), 10);
        assert!(!stuffed[5]);
    }

    #[test]
    fn bytewise_stuff_count_matches_stuff() {
        // Random words, sparse and dense ones (long dominant or recessive
        // runs) and the all-dominant and all-recessive extremes, at every
        // length the count accepts (aligned or not).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in 0..128usize {
            let mut words = vec![0u128, u128::MAX];
            for _ in 0..16 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let random = u128::from(state) << 64 | u128::from(state.rotate_left(23));
                let sparse = random & random.rotate_left(7) & random.rotate_left(19);
                words.extend([random, sparse, !sparse]);
            }
            for word in words {
                let word = word & ((1 << len) - 1);
                let raw: Vec<bool> = (0..len).rev().map(|i| (word >> i) & 1 == 1).collect();
                assert_eq!(
                    stuff_bit_count(word, len),
                    stuff(&raw).len() - raw.len(),
                    "len {len}, word {word:#x}"
                );
            }
        }
    }

    #[test]
    fn destuff_round_trips_random_sequences() {
        let mut state = 0x1234_5678u32;
        for _ in 0..200 {
            let mut raw = Vec::new();
            for _ in 0..97 {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                raw.push(state & 0x8000_0000 != 0);
            }
            let wire = stuff(&raw);
            assert_eq!(destuff(&wire).unwrap(), raw);
        }
    }

    #[test]
    fn destuff_rejects_six_equal_bits() {
        let err = destuff(&[true; 6]).unwrap_err();
        assert_eq!(err, CanError::Stuff { position: 5 });
    }

    #[test]
    fn encode_decode_identity_standard() {
        let f = std_frame(0x2C0, &[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33]);
        let enc = encode_frame(&f);
        assert_eq!(decode_frame(enc.bits()).unwrap(), f);
    }

    #[test]
    fn encode_decode_identity_extended() {
        let f = CanFrame::new(CanId::extended(0x1ABC_DE01).unwrap(), &[1, 2, 3]).unwrap();
        let enc = encode_frame(&f);
        assert_eq!(decode_frame(enc.bits()).unwrap(), f);
    }

    #[test]
    fn encode_decode_identity_remote() {
        let f = CanFrame::remote(CanId::standard(0x111).unwrap(), Dlc::new(5).unwrap());
        let enc = encode_frame(&f);
        assert_eq!(decode_frame(enc.bits()).unwrap(), f);
    }

    #[test]
    fn encode_decode_identity_zero_dlc() {
        let f = std_frame(0x000, &[]);
        let enc = encode_frame(&f);
        assert_eq!(decode_frame(enc.bits()).unwrap(), f);
    }

    #[test]
    fn all_zero_id_frame_has_heavy_stuffing() {
        // The DoS flood frame (ID 0x000, zero payload) maximises dominant
        // runs and therefore stuffing.
        let f = std_frame(0x000, &[0; 8]);
        let enc = encode_frame(&f);
        assert!(enc.stuff_bits() >= 15, "stuff bits = {}", enc.stuff_bits());
    }

    #[test]
    fn frame_length_bounds_standard_8_bytes() {
        // 98 stuffable + 10 fixed = 108 minimum; worst case +24 stuff bits.
        for pattern in [[0u8; 8], [0xFFu8; 8], [0xAAu8; 8], [0x55u8; 8]] {
            let f = std_frame(0x555, &pattern);
            let enc = encode_frame(&f);
            assert!(enc.len() >= 108, "len = {}", enc.len());
            assert!(enc.len() <= 132, "len = {}", enc.len());
        }
    }

    #[test]
    fn corrupted_crc_detected() {
        let f = std_frame(0x3FF, &[0x10, 0x20, 0x30]);
        let enc = encode_frame(&f);
        // Flip a payload bit inside the stuffed region (bit 40 is safely in
        // the data field for this frame and doesn't break stuffing here).
        let mut bits = enc.bits().to_vec();
        bits[30] = !bits[30];
        let err = decode_frame(&bits).unwrap_err();
        assert!(
            matches!(err, CanError::Crc { .. } | CanError::Stuff { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_stream_detected() {
        let f = std_frame(0x123, &[1, 2, 3, 4]);
        let enc = encode_frame(&f);
        let err = decode_frame(&enc.bits()[..enc.len() - 8]).unwrap_err();
        assert!(matches!(
            err,
            CanError::Truncated { .. } | CanError::Form { .. }
        ));
    }

    #[test]
    fn recessive_ack_slot_is_reported() {
        let f = std_frame(0x123, &[7; 8]);
        let enc = encode_frame(&f);
        let mut bits = enc.bits().to_vec();
        // ACK slot sits right after the CRC delimiter.
        let ack_pos = enc.stuffed_region_len() + 1;
        bits[ack_pos] = true;
        assert_eq!(decode_frame(&bits).unwrap_err(), CanError::Ack);
    }

    #[test]
    fn broken_eof_is_a_form_error() {
        let f = std_frame(0x123, &[7; 2]);
        let enc = encode_frame(&f);
        let mut bits = enc.bits().to_vec();
        let last = bits.len() - 1;
        bits[last] = false;
        assert_eq!(
            decode_frame(&bits).unwrap_err(),
            CanError::Form { field: "EOF" }
        );
    }

    #[test]
    fn stuffed_region_len_consistent() {
        let f = std_frame(0x7FF, &[0xFF; 8]);
        let enc = encode_frame(&f);
        assert_eq!(enc.stuffed_region_len() + 10, enc.len());
        assert_eq!(enc.stuffed_region_len() - enc.stuff_bits(), 98);
    }
}
