//! Bit-level Controller Area Network (CAN 2.0 A/B) substrate.
//!
//! This crate provides the in-vehicle network model that the quantised-MLP
//! intrusion-detection pipeline runs on top of. It implements the parts of
//! ISO 11898 that determine *what an IDS can observe* and *how fast frames
//! arrive*:
//!
//! * [`frame`] — identifiers, data/remote frames and validation,
//! * [`crc`] — the CRC-15 sequence (polynomial `0x4599`),
//! * [`bits`] — exact frame bit encoding with stuff-bit insertion/removal,
//! * [`timing`] — bit timing, frame durations and line-rate maths,
//! * [`arbitration`] — CSMA/CR identifier arbitration,
//! * [`filter`] — mask/value acceptance filtering,
//! * [`node`] — a CAN controller model with TX priority queue, RX FIFO and
//!   the error-confinement state machine (TEC/REC, error-passive, bus-off),
//! * [`bus`] — an event-driven multi-node bus simulator with bit-accurate
//!   frame durations and pluggable traffic sources,
//! * [`time`] — the simulation time base shared by the whole workspace.
//!
//! The model is frame-granular but bit-accurate in time: every duration is
//! derived from the frame's exact on-wire bit count (stuff bits included),
//! so throughput numbers such as the paper's "8 300+ messages per second
//! on high-speed CAN" *emerge* from the encoding rather than being
//! asserted.
//!
//! # Example
//!
//! ```
//! use canids_can::prelude::*;
//!
//! # fn main() -> Result<(), CanError> {
//! let frame = CanFrame::new(CanId::standard(0x2C0)?, &[0xDE, 0xAD, 0xBE, 0xEF])?;
//! let bits = encode_frame(&frame);
//! let decoded = decode_frame(bits.bits())?;
//! assert_eq!(decoded, frame);
//!
//! // A 4-byte frame at 1 Mb/s occupies ~75-90 µs on the wire.
//! let rate = Bitrate::HIGH_SPEED_1M;
//! let dur = frame_duration(&frame, rate);
//! assert!(dur.as_nanos() > 70_000 && dur.as_nanos() < 95_000);
//! # Ok(())
//! # }
//! ```

pub mod arbitration;
pub mod bits;
pub mod bus;
pub mod crc;
pub mod error;
pub mod filter;
pub mod frame;
pub mod gateway;
pub mod node;
pub mod time;
pub mod timing;

pub use arbitration::{arbitrate, ArbitrationField};
pub use bits::{decode_frame, destuff, encode_frame, stuff, FrameBits};
pub use bus::{Bus, BusConfig, BusEvent, BusStats, TrafficSource};
pub use crc::crc15;
pub use error::{CanError, FrameError};
pub use filter::AcceptanceFilter;
pub use frame::{CanFrame, CanId, Dlc};
pub use gateway::{Gateway, GatewayConfig, GatewayStats};
pub use node::{CanController, ControllerConfig, ControllerStats, ErrorState};
pub use time::SimTime;
pub use timing::{
    frame_bit_count, frame_duration, max_frame_rate, BitTiming, Bitrate, EFF_OVERHEAD_BITS,
    INTERFRAME_BITS, SFF_OVERHEAD_BITS,
};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::arbitration::arbitrate;
    pub use crate::bits::{decode_frame, encode_frame};
    pub use crate::bus::{Bus, BusConfig, BusEvent, TrafficSource};
    pub use crate::error::{CanError, FrameError};
    pub use crate::filter::AcceptanceFilter;
    pub use crate::frame::{CanFrame, CanId};
    pub use crate::node::{CanController, ControllerConfig, ErrorState};
    pub use crate::time::SimTime;
    pub use crate::timing::{frame_duration, max_frame_rate, Bitrate};
}
