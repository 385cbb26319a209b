//! Per-frame feature encodings.
//!
//! The paper's MLP consumes a single CAN frame: the 11 identifier bits
//! plus the 64 payload bits (zero-padded to 8 bytes) — 75 binary inputs.
//! This matches the FINN streaming-input style and is what
//! [`IdBitsPayloadBits`] produces. [`IdPayloadBytes`] provides the compact
//! byte-level encoding used by the classic-ML baselines (decision trees,
//! kNN).

use canids_can::frame::CanFrame;

/// Dimension of the bit-level encoding: 11 identifier bits + 64 payload bits.
pub const FEATURE_BITS_DIM: usize = 75;

/// Dimension of the byte-level encoding: id, dlc and 8 payload bytes.
pub const FEATURE_BYTES_DIM: usize = 10;

/// Maps a frame to a fixed-length feature vector.
pub trait FrameEncoder {
    /// Output dimensionality.
    fn dim(&self) -> usize;

    /// Encodes one frame; the returned vector has length [`dim`].
    ///
    /// [`dim`]: FrameEncoder::dim
    fn encode(&self, frame: &CanFrame) -> Vec<f32>;

    /// Encodes into a caller-provided buffer (hot-path variant).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.dim()`.
    fn encode_into(&self, frame: &CanFrame, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim(), "output buffer has wrong length");
        out.copy_from_slice(&self.encode(frame));
    }

    /// Encodes one frame straight into a frame bitmask, bit `i` =
    /// feature `i`: the packed input of the integer serving kernel and,
    /// split into 32-bit words, of the accelerator's AXI input
    /// registers. A feature's bit is set exactly when its value is at
    /// least one half (the binary quantisation of
    /// `IntegerMlp::infer_bits`); features past the 128th are dropped.
    ///
    /// The provided method packs [`encode`](FrameEncoder::encode)'s
    /// vector; a binary encoder overrides it to skip the float vector.
    fn encode_bits(&self, frame: &CanFrame) -> u128 {
        let mut bits = 0u128;
        for (i, &f) in self.encode(frame).iter().take(128).enumerate() {
            bits |= u128::from(f >= 0.5) << i;
        }
        bits
    }
}

/// The paper's 75-bit binary encoding: 11 identifier bits followed by the
/// zero-padded 64 payload bits, each mapped to `0.0` or `1.0`.
///
/// # Example
///
/// ```
/// use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
/// use canids_can::frame::{CanFrame, CanId};
///
/// let enc = IdBitsPayloadBits;
/// let f = CanFrame::new(CanId::standard(0x400)?, &[0x80])?;
/// let x = enc.encode(&f);
/// assert_eq!(x.len(), 75);
/// assert_eq!(x[0], 1.0);  // MSB of 0x400
/// assert_eq!(x[11], 1.0); // MSB of first payload byte
/// # Ok::<(), canids_can::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdBitsPayloadBits;

impl FrameEncoder for IdBitsPayloadBits {
    fn dim(&self) -> usize {
        FEATURE_BITS_DIM
    }

    fn encode(&self, frame: &CanFrame) -> Vec<f32> {
        let mut out = vec![0.0f32; FEATURE_BITS_DIM];
        self.encode_into(frame, &mut out);
        out
    }

    fn encode_into(&self, frame: &CanFrame, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            FEATURE_BITS_DIM,
            "output buffer has wrong length"
        );
        let id = frame.id().base_id();
        for (i, slot) in out.iter_mut().take(11).enumerate() {
            *slot = f32::from((id >> (10 - i)) & 1);
        }
        let payload = frame.data_padded();
        for (b, &byte) in payload.iter().enumerate() {
            for i in 0..8 {
                out[11 + b * 8 + i] = f32::from((byte >> (7 - i)) & 1);
            }
        }
    }

    /// Feature `i < 11` is identifier bit `10 - i` and feature
    /// `11 + 8b + i` is bit `7 - i` of payload byte `b`, so the bitmask is
    /// the bit-reversed identifier followed by the bit-reversed bytes.
    fn encode_bits(&self, frame: &CanFrame) -> u128 {
        let id = u128::from(frame.id().base_id().reverse_bits() >> 5);
        let payload = u64::from_le_bytes(frame.data_padded().map(u8::reverse_bits));
        id | (u128::from(payload) << 11)
    }
}

/// Compact byte-level encoding: normalised identifier, DLC and the eight
/// zero-padded payload bytes — 10 features in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdPayloadBytes;

impl FrameEncoder for IdPayloadBytes {
    fn dim(&self) -> usize {
        FEATURE_BYTES_DIM
    }

    fn encode(&self, frame: &CanFrame) -> Vec<f32> {
        let mut out = vec![0.0f32; FEATURE_BYTES_DIM];
        out[0] = f32::from(frame.id().base_id()) / 2047.0;
        out[1] = f32::from(frame.dlc().value()) / 8.0;
        for (i, &b) in frame.data_padded().iter().enumerate() {
            out[2 + i] = f32::from(b) / 255.0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::frame::{CanFrame, CanId};

    fn frame(id: u16, payload: &[u8]) -> CanFrame {
        CanFrame::new(CanId::standard(id).unwrap(), payload).unwrap()
    }

    #[test]
    fn bits_encoding_is_binary_valued() {
        let enc = IdBitsPayloadBits;
        let x = enc.encode(&frame(0x5A5, &[0xDE, 0xAD]));
        assert!(x.iter().all(|&v| v == 0.0 || v == 1.0));
        assert_eq!(x.len(), 75);
    }

    #[test]
    fn bits_encoding_id_msb_first() {
        let enc = IdBitsPayloadBits;
        let x = enc.encode(&frame(0b100_0000_0001, &[]));
        assert_eq!(x[0], 1.0);
        assert_eq!(x[10], 1.0);
        assert!(x[1..10].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bits_encoding_pads_payload_with_zeros() {
        let enc = IdBitsPayloadBits;
        let x = enc.encode(&frame(0x0, &[0xFF]));
        assert!(x[11..19].iter().all(|&v| v == 1.0));
        assert!(x[19..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bits_encoding_distinguishes_dos_from_normal() {
        let enc = IdBitsPayloadBits;
        let dos = enc.encode(&frame(0x000, &[0; 8]));
        let normal = enc.encode(&frame(0x316, &[5, 32, 14, 2, 16, 39, 3, 61]));
        assert_ne!(dos, normal);
        assert!(
            dos.iter().all(|&v| v == 0.0),
            "DoS frame encodes to all zeros"
        );
    }

    #[test]
    fn encode_into_matches_encode() {
        let enc = IdBitsPayloadBits;
        let f = frame(0x43F, &[1, 69, 96, 255, 101, 0, 0, 0]);
        let mut buf = vec![9.0f32; enc.dim()];
        enc.encode_into(&f, &mut buf);
        assert_eq!(buf, enc.encode(&f));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn encode_into_validates_buffer() {
        let enc = IdBitsPayloadBits;
        let f = frame(0x1, &[]);
        let mut buf = vec![0.0f32; 3];
        enc.encode_into(&f, &mut buf);
    }

    #[test]
    fn bytes_encoding_normalised() {
        let enc = IdPayloadBytes;
        let x = enc.encode(&frame(0x7FF, &[255; 8]));
        assert_eq!(x.len(), 10);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
        assert!(x[2..].iter().all(|&v| (v - 1.0).abs() < 1e-6));
        let zero = enc.encode(&frame(0x000, &[]));
        assert!(zero.iter().all(|&v| v == 0.0));
    }
}
