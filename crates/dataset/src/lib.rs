//! Synthetic Car-Hacking-style CAN intrusion dataset.
//!
//! The paper trains and validates its quantised MLPs on the openly
//! available **Car Hacking dataset** (Song, Woo & Kim, HCRL): real CAN
//! traffic captured from a vehicle's OBD-II port with injected **DoS**,
//! **Fuzzy**, and **gear/RPM spoofing** attacks. That capture is not
//! redistributable here, so this crate builds the closest synthetic
//! equivalent, with the same structure and attack mechanics:
//!
//! * [`vehicle`] — a seeded model of a production car's periodic CAN
//!   traffic (alive counters, XOR checksums, sensor random walks, flag
//!   bytes) across several transmitting ECUs,
//! * [`attacks`] — injectors replicating the published attack traces:
//!   DoS (identifier `0x000` flooded every 0.3 ms), Fuzzy (uniformly
//!   random identifier + payload every 0.5 ms) and spoofing (forged gear/
//!   RPM frames), gated by on/off burst schedules,
//! * [`generator`] — drives the real [`canids_can::Bus`] with vehicle and
//!   attacker nodes, so timestamps, arbitration artefacts and DoS
//!   starvation appear in the data exactly as they would on a wire,
//! * [`record`]/[`csv`] — labelled records and the Car-Hacking CSV format,
//! * [`features`] — per-frame feature encodings for the classifiers,
//! * [`split`] — seeded stratified train/test splitting,
//! * [`stats`] — class balance and traffic statistics,
//! * [`stream`] — frame-at-a-time record streams, including saturated
//!   line-rate re-pacing for streaming evaluation.
//!
//! # Example
//!
//! ```
//! use canids_dataset::prelude::*;
//! use canids_can::time::SimTime;
//!
//! let config = TrafficConfig {
//!     duration: SimTime::from_millis(300),
//!     attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
//!     seed: 7,
//!     ..TrafficConfig::default()
//! };
//! let dataset = DatasetBuilder::new(config).build();
//! assert!(dataset.len() > 100);
//! assert!(dataset.class_count(Label::Dos) > 0);
//! assert!(dataset.class_count(Label::Normal) > 0);
//! ```

pub mod attacks;
pub mod csv;
pub mod features;
pub mod generator;
pub mod record;
pub mod split;
pub mod stats;
pub mod stream;
pub mod vehicle;

pub use attacks::{AttackKind, AttackProfile, AttackSource, BurstSchedule};
pub use features::{FrameEncoder, IdBitsPayloadBits, IdPayloadBytes, FEATURE_BITS_DIM};
pub use generator::{multi_attacker, Dataset, DatasetBuilder, TrafficConfig};
pub use record::{Label, LabeledFrame};
pub use split::{train_test_split, SplitConfig};
pub use stats::DatasetStats;
pub use stream::{paced_records, PacedRecords};
pub use vehicle::{MessageSpec, VehicleModel};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::attacks::{AttackKind, AttackProfile, AttackSource, BurstSchedule};
    pub use crate::features::{FrameEncoder, IdBitsPayloadBits, IdPayloadBytes};
    pub use crate::generator::{multi_attacker, Dataset, DatasetBuilder, TrafficConfig};
    pub use crate::record::{Label, LabeledFrame};
    pub use crate::split::{train_test_split, SplitConfig};
    pub use crate::stats::DatasetStats;
    pub use crate::stream::{paced_records, PacedRecords};
    pub use crate::vehicle::VehicleModel;
}
