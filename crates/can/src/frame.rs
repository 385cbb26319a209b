//! CAN identifiers and frames.

use std::fmt;

use crate::error::FrameError;

/// Maximum value of an 11-bit (base/standard) identifier.
pub const MAX_STANDARD_ID: u32 = 0x7FF;
/// Maximum value of a 29-bit (extended) identifier.
pub const MAX_EXTENDED_ID: u32 = 0x1FFF_FFFF;

/// A CAN message identifier (11-bit standard or 29-bit extended).
///
/// Identifiers double as bus-arbitration priorities: a numerically lower
/// identifier wins arbitration. The `Ord` implementation reflects wire
/// priority (see [`crate::arbitration`]), with standard frames beating
/// extended frames that share the same base identifier.
///
/// # Example
///
/// ```
/// use canids_can::frame::CanId;
///
/// let engine = CanId::standard(0x316)?;
/// assert_eq!(engine.raw(), 0x316);
/// assert!(engine.is_standard());
/// # Ok::<(), canids_can::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CanId {
    /// 11-bit identifier (CAN 2.0A).
    Standard(u16),
    /// 29-bit identifier (CAN 2.0B).
    Extended(u32),
}

impl CanId {
    /// Creates a standard (11-bit) identifier.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::StandardIdRange`] when `id > 0x7FF`.
    pub fn standard(id: u16) -> Result<Self, FrameError> {
        if u32::from(id) > MAX_STANDARD_ID {
            Err(FrameError::StandardIdRange(u32::from(id)))
        } else {
            Ok(CanId::Standard(id))
        }
    }

    /// Creates an extended (29-bit) identifier.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::ExtendedIdRange`] when `id > 0x1FFF_FFFF`.
    pub fn extended(id: u32) -> Result<Self, FrameError> {
        if id > MAX_EXTENDED_ID {
            Err(FrameError::ExtendedIdRange(id))
        } else {
            Ok(CanId::Extended(id))
        }
    }

    /// Checked construction of a standard identifier from the raw
    /// `u32` that registers, CSV fields and the bit codec produce —
    /// the replacement for the silently-truncating `raw as u16` idiom
    /// (the bug class behind the original 29-bit extended-ID fix).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::StandardIdRange`] when `raw > 0x7FF`.
    ///
    /// # Example
    ///
    /// ```
    /// use canids_can::frame::CanId;
    ///
    /// assert_eq!(CanId::standard_from_raw(0x316)?.raw(), 0x316);
    /// assert!(CanId::standard_from_raw(0x800).is_err());
    /// # Ok::<(), canids_can::FrameError>(())
    /// ```
    pub fn standard_from_raw(raw: u32) -> Result<Self, FrameError> {
        if raw > MAX_STANDARD_ID {
            Err(FrameError::StandardIdRange(raw))
        } else {
            Ok(CanId::Standard(
                u16::try_from(raw).expect("raw <= 0x7FF fits u16"),
            ))
        }
    }

    /// The least-significant byte of the raw identifier — the checked
    /// way to derive an id-dependent payload byte (test traffic
    /// generators use this instead of `id as u8`).
    pub fn low_byte(self) -> u8 {
        self.raw().to_le_bytes()[0]
    }

    /// The raw identifier value (11 or 29 bits).
    pub fn raw(self) -> u32 {
        match self {
            CanId::Standard(id) => u32::from(id),
            CanId::Extended(id) => id,
        }
    }

    /// `true` for 11-bit identifiers.
    pub fn is_standard(self) -> bool {
        matches!(self, CanId::Standard(_))
    }

    /// `true` for 29-bit identifiers.
    pub fn is_extended(self) -> bool {
        matches!(self, CanId::Extended(_))
    }

    /// The 11-bit base identifier: the full standard identifier, or the
    /// most-significant 11 bits of an extended identifier.
    pub fn base_id(self) -> u16 {
        match self {
            CanId::Standard(id) => id,
            CanId::Extended(id) => u16::try_from((id >> 18) & 0x7FF).expect("masked to 11 bits"),
        }
    }
}

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanId::Standard(id) => write!(f, "{id:#05X}"),
            CanId::Extended(id) => write!(f, "{id:#010X}x"),
        }
    }
}

/// A validated data length code (0..=8 for classic CAN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dlc(u8);

impl Dlc {
    /// Creates a DLC, validating the classic-CAN 0..=8 range.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::DlcRange`] when `value > 8`.
    pub fn new(value: u8) -> Result<Self, FrameError> {
        if value > 8 {
            Err(FrameError::DlcRange(value))
        } else {
            Ok(Dlc(value))
        }
    }

    /// Checked construction from a raw wire field (as decoded from the
    /// 4-bit DLC slot). Classic CAN defines values 9..=15 to mean 8
    /// data bytes, so those clamp; values that cannot come from a 4-bit
    /// field at all are an error rather than a truncation.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::WireDlcRange`] when `raw > 15`.
    ///
    /// # Example
    ///
    /// ```
    /// use canids_can::frame::Dlc;
    ///
    /// assert_eq!(Dlc::from_wire(5)?.value(), 5);
    /// assert_eq!(Dlc::from_wire(12)?.value(), 8); // classic-CAN clamp
    /// assert!(Dlc::from_wire(16).is_err());
    /// # Ok::<(), canids_can::FrameError>(())
    /// ```
    pub fn from_wire(raw: u32) -> Result<Self, FrameError> {
        if raw > 15 {
            Err(FrameError::WireDlcRange(raw))
        } else {
            Ok(Dlc(u8::try_from(raw.min(8)).expect("clamped to <= 8")))
        }
    }

    /// Checked construction from a payload length.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::PayloadTooLong`] when `len > 8`.
    pub fn from_len(len: usize) -> Result<Self, FrameError> {
        if len > 8 {
            Err(FrameError::PayloadTooLong(len))
        } else {
            Ok(Dlc(u8::try_from(len).expect("len <= 8 fits u8")))
        }
    }

    /// The raw DLC value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Number of payload bytes (identical to the DLC for classic CAN).
    pub fn byte_len(self) -> usize {
        usize::from(self.0)
    }
}

impl Default for Dlc {
    fn default() -> Self {
        Dlc(8)
    }
}

/// A classic CAN data or remote frame.
///
/// The payload is stored in a fixed 8-byte buffer; only the first
/// [`CanFrame::dlc`] bytes are meaningful. Frames are small `Copy`-friendly
/// values: the whole struct is 16 bytes of payload-adjacent data, which
/// keeps the bus simulator allocation-free on the hot path.
///
/// # Example
///
/// ```
/// use canids_can::frame::{CanFrame, CanId};
///
/// let frame = CanFrame::new(CanId::standard(0x43F)?, &[0x01, 0x45])?;
/// assert_eq!(frame.dlc().value(), 2);
/// assert_eq!(frame.data(), &[0x01, 0x45]);
/// # Ok::<(), canids_can::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanFrame {
    id: CanId,
    dlc: Dlc,
    data: [u8; 8],
    remote: bool,
}

impl CanFrame {
    /// Creates a data frame carrying `payload`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::PayloadTooLong`] when `payload.len() > 8`.
    pub fn new(id: CanId, payload: &[u8]) -> Result<Self, FrameError> {
        if payload.len() > 8 {
            return Err(FrameError::PayloadTooLong(payload.len()));
        }
        let mut data = [0u8; 8];
        data[..payload.len()].copy_from_slice(payload);
        Ok(CanFrame {
            id,
            dlc: Dlc::from_len(payload.len()).expect("len <= 8 validated above"),
            data,
            remote: false,
        })
    }

    /// Creates a remote (RTR) frame requesting `dlc` bytes.
    pub fn remote(id: CanId, dlc: Dlc) -> Self {
        CanFrame {
            id,
            dlc,
            data: [0u8; 8],
            remote: true,
        }
    }

    /// The frame identifier.
    pub fn id(&self) -> CanId {
        self.id
    }

    /// The data length code.
    pub fn dlc(&self) -> Dlc {
        self.dlc
    }

    /// The meaningful payload bytes (`dlc` of them).
    pub fn data(&self) -> &[u8] {
        &self.data[..self.dlc.byte_len()]
    }

    /// The payload padded to 8 bytes with zeros — the layout consumed by
    /// the IDS feature extractor.
    pub fn data_padded(&self) -> &[u8; 8] {
        &self.data
    }

    /// `true` for remote (RTR) frames.
    pub fn is_remote(&self) -> bool {
        self.remote
    }

    /// Rebuilds the frame with a different payload, keeping the identifier.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::PayloadTooLong`] when `payload.len() > 8`.
    pub fn with_data(&self, payload: &[u8]) -> Result<Self, FrameError> {
        CanFrame::new(self.id, payload)
    }
}

impl fmt::Display for CanFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.id, self.dlc.value())?;
        if self.remote {
            write!(f, " RTR")?;
        } else {
            for b in self.data() {
                write!(f, " {b:02X}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_id_accepts_11_bits() {
        assert!(CanId::standard(0x7FF).is_ok());
        assert_eq!(
            CanId::standard(0x800).unwrap_err(),
            FrameError::StandardIdRange(0x800)
        );
    }

    #[test]
    fn extended_id_accepts_29_bits() {
        assert!(CanId::extended(0x1FFF_FFFF).is_ok());
        assert_eq!(
            CanId::extended(0x2000_0000).unwrap_err(),
            FrameError::ExtendedIdRange(0x2000_0000)
        );
    }

    #[test]
    fn base_id_of_extended_takes_top_bits() {
        let id = CanId::extended(0x1234_5678).unwrap();
        assert_eq!(id.base_id(), 0x48D); // top 11 of the 29 bits
        let sid = CanId::standard(0x123).unwrap();
        assert_eq!(sid.base_id(), 0x123);
    }

    #[test]
    fn standard_from_raw_checks_range() {
        assert_eq!(
            CanId::standard_from_raw(0x7FF).unwrap(),
            CanId::standard(0x7FF).unwrap()
        );
        assert_eq!(
            CanId::standard_from_raw(0x800).unwrap_err(),
            FrameError::StandardIdRange(0x800)
        );
        assert_eq!(CanId::standard_from_raw(0x1AB).unwrap().low_byte(), 0xAB);
    }

    #[test]
    fn dlc_from_wire_clamps_and_checks() {
        for raw in 0..=8u32 {
            assert_eq!(u32::from(Dlc::from_wire(raw).unwrap().value()), raw);
        }
        for raw in 9..=15u32 {
            assert_eq!(Dlc::from_wire(raw).unwrap().value(), 8);
        }
        assert_eq!(
            Dlc::from_wire(16).unwrap_err(),
            FrameError::WireDlcRange(16)
        );
        assert_eq!(Dlc::from_len(3).unwrap().value(), 3);
        assert_eq!(Dlc::from_len(9).unwrap_err(), FrameError::PayloadTooLong(9));
    }

    #[test]
    fn data_frame_pads_payload() {
        let f = CanFrame::new(CanId::standard(0x100).unwrap(), &[1, 2, 3]).unwrap();
        assert_eq!(f.dlc().value(), 3);
        assert_eq!(f.data(), &[1, 2, 3]);
        assert_eq!(f.data_padded(), &[1, 2, 3, 0, 0, 0, 0, 0]);
        assert!(!f.is_remote());
    }

    #[test]
    fn payload_longer_than_8_rejected() {
        let err = CanFrame::new(CanId::standard(1).unwrap(), &[0; 9]).unwrap_err();
        assert_eq!(err, FrameError::PayloadTooLong(9));
    }

    #[test]
    fn remote_frame_has_no_data() {
        let f = CanFrame::remote(CanId::standard(0x55).unwrap(), Dlc::new(4).unwrap());
        assert!(f.is_remote());
        assert_eq!(f.dlc().value(), 4);
        assert_eq!(f.data(), &[0, 0, 0, 0]);
    }

    #[test]
    fn dlc_validates_range() {
        assert!(Dlc::new(8).is_ok());
        assert_eq!(Dlc::new(9).unwrap_err(), FrameError::DlcRange(9));
    }

    #[test]
    fn display_formats_id_and_payload() {
        let f = CanFrame::new(CanId::standard(0x43F).unwrap(), &[0xAB, 0x01]).unwrap();
        let s = f.to_string();
        assert!(s.contains("0x43F"), "{s}");
        assert!(s.contains("AB"), "{s}");
        let r = CanFrame::remote(CanId::standard(0x1).unwrap(), Dlc::new(2).unwrap());
        assert!(r.to_string().contains("RTR"));
    }

    #[test]
    fn with_data_keeps_identifier() {
        let f = CanFrame::new(CanId::standard(0x111).unwrap(), &[9]).unwrap();
        let g = f.with_data(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(g.id(), f.id());
        assert_eq!(g.dlc().value(), 8);
    }
}
