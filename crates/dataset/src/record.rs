//! Labelled dataset records.

use std::fmt;

use canids_can::frame::CanFrame;
use canids_can::time::SimTime;

/// Ground-truth class of a frame, matching the Car Hacking dataset labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Legitimate vehicle traffic (`R` rows in the published CSVs).
    Normal,
    /// Denial-of-service flood frame (identifier `0x000`).
    Dos,
    /// Fuzzing frame (random identifier and payload).
    Fuzzy,
    /// Forged gear-status frame (spoofing extension).
    GearSpoof,
    /// Forged RPM frame (spoofing extension).
    RpmSpoof,
    /// Re-injected legitimate frame (replay extension): previously seen
    /// identifier and payload, transmitted again after a delay.
    Replay,
}

impl Label {
    /// `true` for any injected (attack) frame.
    pub fn is_attack(self) -> bool {
        !matches!(self, Label::Normal)
    }

    /// Binary class index used by the detectors: 0 = normal, 1 = attack.
    pub fn class_index(self) -> usize {
        usize::from(self.is_attack())
    }

    /// All label variants, in a stable order.
    pub fn all() -> [Label; 6] {
        [
            Label::Normal,
            Label::Dos,
            Label::Fuzzy,
            Label::GearSpoof,
            Label::RpmSpoof,
            Label::Replay,
        ]
    }

    /// The single-letter flag used by the Car-Hacking CSV format
    /// (`R` = regular, `T` = injected).
    pub fn csv_flag(self) -> char {
        if self.is_attack() {
            'T'
        } else {
            'R'
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Label::Normal => "normal",
            Label::Dos => "dos",
            Label::Fuzzy => "fuzzy",
            Label::GearSpoof => "gear-spoof",
            Label::RpmSpoof => "rpm-spoof",
            Label::Replay => "replay",
        };
        f.write_str(name)
    }
}

/// One captured frame with its end-of-frame bus timestamp and ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledFrame {
    /// Bus time at which the frame completed.
    pub timestamp: SimTime,
    /// The frame as observed on the wire.
    pub frame: CanFrame,
    /// Ground-truth class.
    pub label: Label,
}

impl LabeledFrame {
    /// Creates a labelled frame.
    pub fn new(timestamp: SimTime, frame: CanFrame, label: Label) -> Self {
        LabeledFrame {
            timestamp,
            frame,
            label,
        }
    }
}

impl fmt::Display for LabeledFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}]", self.timestamp, self.frame, self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::frame::{CanFrame, CanId};

    #[test]
    fn attack_labels_are_attacks() {
        assert!(!Label::Normal.is_attack());
        for l in [
            Label::Dos,
            Label::Fuzzy,
            Label::GearSpoof,
            Label::RpmSpoof,
            Label::Replay,
        ] {
            assert!(l.is_attack());
            assert_eq!(l.class_index(), 1);
            assert_eq!(l.csv_flag(), 'T');
        }
        assert_eq!(Label::Normal.class_index(), 0);
        assert_eq!(Label::Normal.csv_flag(), 'R');
    }

    #[test]
    fn all_lists_every_variant_once() {
        let all = Label::all();
        assert_eq!(all.len(), 6);
        let mut seen = std::collections::BTreeSet::new();
        for l in all {
            assert!(seen.insert(format!("{l}")));
        }
    }

    #[test]
    fn display_formats() {
        let f = CanFrame::new(CanId::standard(0x0).unwrap(), &[0; 8]).unwrap();
        let r = LabeledFrame::new(SimTime::from_micros(300), f, Label::Dos);
        let s = r.to_string();
        assert!(s.contains("dos"), "{s}");
        assert!(s.contains("0x000"), "{s}");
    }
}
