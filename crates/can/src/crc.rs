//! CRC-15 sequence of ISO 11898-1.
//!
//! The CAN frame check sequence uses the generator polynomial
//! `x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1` (`0x4599`), computed
//! over the unstuffed bit stream from the start-of-frame bit up to and
//! including the last data bit.

/// The CAN CRC-15 generator polynomial (without the leading `x^15` term).
pub const CRC15_POLY: u16 = 0x4599;

/// Mask keeping the CRC register at 15 bits.
const CRC15_MASK: u16 = 0x7FFF;

/// Computes the CRC-15 over a bit sequence (MSB-first, one `bool` per bit).
///
/// Implements the shift-register procedure from ISO 11898-1 §10.4.2.6:
/// for each input bit, `crc_nxt = bit XOR crc[14]`, the register shifts
/// left, and the polynomial is XORed in when `crc_nxt` is set.
///
/// # Example
///
/// ```
/// use canids_can::crc::crc15;
///
/// // CRC of the empty sequence is zero.
/// assert_eq!(crc15(&[]), 0);
/// // A single dominant (0) bit leaves the register zero.
/// assert_eq!(crc15(&[false]), 0);
/// // A single recessive (1) bit loads the polynomial.
/// assert_eq!(crc15(&[true]), 0x4599);
/// ```
pub fn crc15(bits: &[bool]) -> u16 {
    let mut crc: u16 = 0;
    for &bit in bits {
        let crc_nxt = bit ^ ((crc >> 14) & 1 == 1);
        crc = (crc << 1) & CRC15_MASK;
        if crc_nxt {
            crc ^= CRC15_POLY;
        }
    }
    crc
}

/// The register after shifting in each byte value from a zero register:
/// row `b` is `crc15` of `b`'s eight bits, most significant first.
const CRC15_BYTE_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut byte = 0;
    while byte < 256 {
        // Loading the byte into the top of the register and shifting in
        // eight zeros is the same as shifting the byte in (the input bit
        // and `crc[14]` meet in one XOR).
        let mut crc = (byte as u16) << 7;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x4000 != 0 {
                ((crc << 1) & CRC15_MASK) ^ CRC15_POLY
            } else {
                (crc << 1) & CRC15_MASK
            };
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// Row `k`, column `b`: the register after shifting in byte `b` and then
/// `k` zero bytes from a zero register. Row 0 is [`CRC15_BYTE_TABLE`];
/// each later row shifts one more zero byte through the previous one.
const CRC15_POSITION_TABLE: [[u16; 256]; 16] = {
    let mut table = [CRC15_BYTE_TABLE; 16];
    let mut zeros = 1;
    while zeros < 16 {
        let mut byte = 0;
        while byte < 256 {
            let crc = table[zeros - 1][byte];
            table[zeros][byte] = ((crc << 8) & CRC15_MASK) ^ CRC15_BYTE_TABLE[(crc >> 7) as usize];
            byte += 1;
        }
        zeros += 1;
    }
    table
};

/// CRC-15 of `bits`, most significant first — the value [`crc15`]
/// returns for that 128-bit sequence, and so for any shorter sequence
/// in its low bits, since a zero register ignores leading zero bits.
///
/// CRC-15 is linear over GF(2), so the CRC of the word is the XOR of
/// its bytes' CRCs, each byte followed by the zero bytes after it: one
/// independent lookup per byte in a `const` table, with no register
/// carried from byte to byte.
pub(crate) fn crc15_packed(bits: u128) -> u16 {
    // The last byte is followed by no zero bytes, the first by fifteen.
    CRC15_POSITION_TABLE
        .iter()
        .rev()
        .zip(bits.to_be_bytes())
        .fold(0, |crc, (row, byte)| crc ^ row[usize::from(byte)])
}

/// Incremental CRC-15 register, for streaming encoders.
///
/// # Example
///
/// ```
/// use canids_can::crc::{crc15, Crc15};
///
/// let bits = [true, false, true, true, false];
/// let mut reg = Crc15::new();
/// for &b in &bits {
///     reg.push(b);
/// }
/// assert_eq!(reg.value(), crc15(&bits));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Crc15 {
    crc: u16,
}

impl Crc15 {
    /// Creates a zeroed CRC register.
    pub fn new() -> Self {
        Crc15 { crc: 0 }
    }

    /// Shifts one bit into the register.
    pub fn push(&mut self, bit: bool) {
        let crc_nxt = bit ^ ((self.crc >> 14) & 1 == 1);
        self.crc = (self.crc << 1) & CRC15_MASK;
        if crc_nxt {
            self.crc ^= CRC15_POLY;
        }
    }

    /// The current 15-bit CRC value.
    pub fn value(&self) -> u16 {
        self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_from_u32(value: u32, width: usize) -> Vec<bool> {
        (0..width).rev().map(|i| (value >> i) & 1 == 1).collect()
    }

    #[test]
    fn empty_sequence_is_zero() {
        assert_eq!(crc15(&[]), 0);
    }

    #[test]
    fn zeros_stay_zero() {
        assert_eq!(crc15(&[false; 64]), 0);
    }

    #[test]
    fn single_one_loads_polynomial() {
        assert_eq!(crc15(&[true]), CRC15_POLY);
    }

    #[test]
    fn linearity_under_xor() {
        // CRC of (a XOR b) == CRC(a) XOR CRC(b) for equal-length messages
        // (CRC with zero init is linear over GF(2)).
        let a = bits_from_u32(0xDEAD_BEEF, 32);
        let b = bits_from_u32(0x1234_5678, 32);
        let x: Vec<bool> = a.iter().zip(&b).map(|(&p, &q)| p ^ q).collect();
        assert_eq!(crc15(&x), crc15(&a) ^ crc15(&b));
    }

    #[test]
    fn incremental_matches_batch() {
        let bits = bits_from_u32(0xCAFE_F00D, 32);
        let mut reg = Crc15::new();
        for &b in &bits {
            reg.push(b);
        }
        assert_eq!(reg.value(), crc15(&bits));
    }

    #[test]
    fn appending_crc_yields_zero_remainder() {
        // Fundamental CRC property: message || CRC has remainder zero.
        let msg = bits_from_u32(0xA5A5_5A5A, 32);
        let fcs = crc15(&msg);
        let mut whole = msg.clone();
        whole.extend(bits_from_u32(u32::from(fcs), 15));
        assert_eq!(crc15(&whole), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let msg = bits_from_u32(0x0F0F_1234, 32);
        let fcs = crc15(&msg);
        for i in 0..msg.len() {
            let mut corrupted = msg.clone();
            corrupted[i] = !corrupted[i];
            assert_ne!(crc15(&corrupted), fcs, "flip at {i} undetected");
        }
    }

    #[test]
    fn packed_bytewise_crc_matches_the_bit_serial_register() {
        // Every length up to a full u128, including the non-byte-aligned
        // ones whose leading zero padding the register must ignore.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in 0..=128usize {
            for _ in 0..8 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let random = u128::from(state) << 64 | u128::from(state.rotate_left(29));
                let word = random
                    .checked_shr(u32::try_from(128 - len).unwrap())
                    .unwrap_or(0);
                let seq: Vec<bool> = (0..len).rev().map(|i| (word >> i) & 1 == 1).collect();
                assert_eq!(crc15_packed(word), crc15(&seq), "len {len}");
            }
        }
    }

    #[test]
    fn position_table_matches_the_bit_serial_register_for_every_byte_at_every_position() {
        for position in 0..16 {
            for byte in 0..=255u8 {
                let word = u128::from(byte) << (8 * (15 - position));
                let seq: Vec<bool> = (0..128).rev().map(|i| (word >> i) & 1 == 1).collect();
                assert_eq!(
                    crc15_packed(word),
                    crc15(&seq),
                    "byte {byte:#04x} at position {position}"
                );
            }
        }
    }

    #[test]
    fn crc_is_15_bits() {
        for seed in 0u32..256 {
            let msg = bits_from_u32(seed.wrapping_mul(0x9E37_79B9), 32);
            assert!(crc15(&msg) <= 0x7FFF);
        }
    }
}
