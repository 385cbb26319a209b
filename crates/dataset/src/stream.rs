//! Streaming (frame-at-a-time) views of a capture.
//!
//! Batch evaluation materialises a whole capture before classifying it;
//! a deployed IDS sees one frame at a time, paced by the wire. This
//! module provides the record streams that drive the streaming
//! evaluation path:
//!
//! * [`PacedRecords`] — an iterator that re-times a capture to
//!   *saturated line rate* at a chosen bitrate: frames are replayed
//!   back-to-back, each arrival separated by its true wire duration
//!   (including stuff bits) plus the interframe space. This is the
//!   worst-case offered load of a given bus class (1 Mb/s classic CAN,
//!   or a CAN-FD-class data rate), independent of how busy the capture's
//!   original schedule happened to be.
//!
//! Records are yielded by value (they are small `Copy` types), so a
//! consumer never needs the whole capture resident to evaluate it.

use canids_can::time::SimTime;
use canids_can::timing::{frame_wire_and_slot, Bitrate};

use crate::generator::Dataset;
use crate::record::LabeledFrame;

/// Iterator over a capture's records re-paced to back-to-back wire
/// timing at a fixed bitrate. Timestamps are rewritten to the end-of-
/// frame time of the saturated replay; order and labels are preserved.
///
/// # Example
///
/// ```
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
/// use canids_dataset::prelude::*;
/// use canids_dataset::stream::paced_records;
///
/// let ds = DatasetBuilder::new(TrafficConfig {
///     duration: SimTime::from_millis(100),
///     ..TrafficConfig::default()
/// })
/// .build();
/// let paced: Vec<_> = paced_records(&ds, Bitrate::HIGH_SPEED_1M).collect();
/// assert_eq!(paced.len(), ds.len());
/// // Saturated pacing at 1 Mb/s is denser than the original 500 kb/s
/// // capture schedule.
/// assert!(paced.last().unwrap().timestamp < ds.records().last().unwrap().timestamp);
/// ```
#[derive(Debug, Clone)]
pub struct PacedRecords<'a> {
    records: std::slice::Iter<'a, LabeledFrame>,
    bitrate: Bitrate,
    clock: SimTime,
}

impl PacedRecords<'_> {
    /// The bus time the stream has advanced to (start of the next frame).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The pacing bitrate.
    pub fn bitrate(&self) -> Bitrate {
        self.bitrate
    }
}

impl Iterator for PacedRecords<'_> {
    type Item = LabeledFrame;

    fn next(&mut self) -> Option<LabeledFrame> {
        let rec = self.records.next()?;
        // Arrival = end of frame on the wire, matching the capture
        // convention; the next frame starts after the interframe space.
        let (wire, slot) = frame_wire_and_slot(&rec.frame, self.bitrate);
        let end = self.clock + wire;
        self.clock += slot;
        Some(LabeledFrame {
            timestamp: end,
            ..*rec
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for PacedRecords<'_> {}

/// Streams `dataset` at saturated line rate for `bitrate`.
pub fn paced_records(dataset: &Dataset, bitrate: Bitrate) -> PacedRecords<'_> {
    PacedRecords {
        records: dataset.records().iter(),
        bitrate,
        clock: SimTime::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::timing::max_frame_rate;

    fn capture() -> Dataset {
        use crate::generator::{DatasetBuilder, TrafficConfig};
        DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(200),
            seed: 11,
            ..TrafficConfig::default()
        })
        .build()
    }

    #[test]
    fn pacing_preserves_order_frames_and_labels() {
        let ds = capture();
        let paced: Vec<LabeledFrame> = paced_records(&ds, Bitrate::HIGH_SPEED_1M).collect();
        assert_eq!(paced.len(), ds.len());
        for (orig, p) in ds.iter().zip(&paced) {
            assert_eq!(orig.frame, p.frame);
            assert_eq!(orig.label, p.label);
        }
        for w in paced.windows(2) {
            assert!(w[0].timestamp < w[1].timestamp, "strictly increasing");
        }
    }

    #[test]
    fn offered_rate_matches_analytic_line_rate() {
        // All-8-byte frames paced at 1 Mb/s must arrive at (close to) the
        // analytic maximum frame rate; payload mix in a real capture only
        // makes the stream faster.
        use crate::record::{Label, LabeledFrame};
        use canids_can::frame::{CanFrame, CanId};
        let n = 500usize;
        let ds = Dataset::from_records(
            (0..n)
                .map(|i| {
                    LabeledFrame::new(
                        SimTime::from_micros(i as u64 * 1_000),
                        CanFrame::new(CanId::standard(0x2C0).unwrap(), &[0xA5; 8]).unwrap(),
                        Label::Normal,
                    )
                })
                .collect(),
        );
        let paced: Vec<LabeledFrame> = paced_records(&ds, Bitrate::HIGH_SPEED_1M).collect();
        let span = paced.last().unwrap().timestamp.as_secs_f64();
        let fps = n as f64 / span;
        let analytic = max_frame_rate(Bitrate::HIGH_SPEED_1M, 8).unwrap();
        let ratio = fps / analytic;
        // Identical payloads; only stuff-bit variation and the trailing
        // intermission separate the two figures.
        assert!((0.95..=1.1).contains(&ratio), "fps {fps} vs {analytic}");
    }

    #[test]
    fn faster_bitrate_compresses_the_replay() {
        let ds = capture();
        let at_1m = paced_records(&ds, Bitrate::HIGH_SPEED_1M)
            .last()
            .unwrap()
            .timestamp;
        let at_fd = paced_records(&ds, Bitrate::new(5_000_000))
            .last()
            .unwrap()
            .timestamp;
        assert!(at_fd < at_1m, "{at_fd} !< {at_1m}");
    }

    #[test]
    fn pacing_matches_the_encoded_wire_length_recurrence() {
        // Reference: a frame ends `encode_frame(..).len()` bit times after
        // it starts, and the next starts INTERFRAME_BITS later. The DoS
        // flood (ID 0x000, zero payload) is the most stuffed frame; the
        // fuzzer sends random IDs and payloads.
        use crate::attacks::{AttackProfile, BurstSchedule};
        use crate::generator::{DatasetBuilder, TrafficConfig};
        use crate::record::Label;
        use canids_can::bits::encode_frame;
        use canids_can::timing::INTERFRAME_BITS;
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(100),
            attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            extra_attacks: vec![AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)],
            seed: 23,
            ..TrafficConfig::default()
        })
        .build();
        for label in [Label::Normal, Label::Dos, Label::Fuzzy] {
            assert!(ds.iter().any(|r| r.label == label), "no {label:?} frame");
        }
        for bitrate in [Bitrate::HIGH_SPEED_1M, Bitrate::LOW_SPEED_125K] {
            let bit = bitrate.bit_time().as_nanos();
            let mut paced = paced_records(&ds, bitrate);
            let mut start = 0u64;
            for rec in ds.iter() {
                let wire = encode_frame(&rec.frame).len() as u64;
                let got = paced.next().expect("one paced record per frame");
                assert_eq!(
                    got.timestamp.as_nanos(),
                    start + bit * wire,
                    "{}",
                    rec.frame
                );
                start += bit * (wire + INTERFRAME_BITS as u64);
            }
            assert!(paced.next().is_none());
            assert_eq!(paced.clock().as_nanos(), start);
        }
    }

    #[test]
    fn exact_size_and_clock_track_progress() {
        let ds = capture();
        let mut it = paced_records(&ds, Bitrate::HIGH_SPEED_500K);
        assert_eq!(it.len(), ds.len());
        let first = it.next().unwrap();
        assert_eq!(it.len(), ds.len() - 1);
        assert!(it.clock() > first.timestamp);
    }
}
