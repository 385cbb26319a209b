//! Mask/value acceptance filtering, as implemented by CAN controller
//! hardware (e.g. the Xilinx CANPS acceptance filter registers).
//!
//! A filter accepts an identifier when `id & mask == value & mask`. An IDS
//! ECU typically runs with a pass-all filter so the detection model sees
//! every frame on the bus.

use crate::frame::{CanFrame, CanId};

/// A single mask/value acceptance filter.
///
/// # Example
///
/// ```
/// use canids_can::filter::AcceptanceFilter;
/// use canids_can::frame::{CanFrame, CanId};
///
/// // Accept only the powertrain block 0x100..=0x1FF.
/// let filter = AcceptanceFilter::standard(0x700, 0x100);
/// let f = CanFrame::new(CanId::standard(0x13A)?, &[])?;
/// assert!(filter.accepts(&f));
/// let g = CanFrame::new(CanId::standard(0x23A)?, &[])?;
/// assert!(!filter.accepts(&g));
/// # Ok::<(), canids_can::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptanceFilter {
    mask: u32,
    value: u32,
    extended: bool,
}

impl AcceptanceFilter {
    /// A filter on standard (11-bit) identifiers.
    pub fn standard(mask: u16, value: u16) -> Self {
        AcceptanceFilter {
            mask: u32::from(mask) & 0x7FF,
            value: u32::from(value) & 0x7FF,
            extended: false,
        }
    }

    /// A filter on extended (29-bit) identifiers.
    pub fn extended(mask: u32, value: u32) -> Self {
        AcceptanceFilter {
            mask: mask & 0x1FFF_FFFF,
            value: value & 0x1FFF_FFFF,
            extended: true,
        }
    }

    /// A pass-all filter for standard frames (mask 0 accepts everything) —
    /// the configuration an IDS node uses to observe the whole bus.
    pub fn accept_all_standard() -> Self {
        AcceptanceFilter::standard(0, 0)
    }

    /// The filter mask bits.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// The filter match value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Whether this filter applies to extended identifiers.
    pub fn is_extended(&self) -> bool {
        self.extended
    }

    /// Tests a frame against the filter. Frames of the other identifier
    /// format are rejected.
    pub fn accepts(&self, frame: &CanFrame) -> bool {
        match (frame.id(), self.extended) {
            (CanId::Standard(id), false) => u32::from(id) & self.mask == self.value & self.mask,
            (CanId::Extended(id), true) => id & self.mask == self.value & self.mask,
            _ => false,
        }
    }
}

/// A bank of filters; a frame is accepted when *any* filter matches, or
/// when the bank is empty (hardware reset default: no filtering).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterBank {
    filters: Vec<AcceptanceFilter>,
}

impl FilterBank {
    /// An empty (pass-everything) bank.
    pub fn new() -> Self {
        FilterBank {
            filters: Vec::new(),
        }
    }

    /// Adds a filter to the bank.
    pub fn add(&mut self, filter: AcceptanceFilter) -> &mut Self {
        self.filters.push(filter);
        self
    }

    /// Number of configured filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` when no filters are configured (all frames accepted).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Tests a frame against the bank.
    pub fn accepts(&self, frame: &CanFrame) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| f.accepts(frame))
    }
}

impl FromIterator<AcceptanceFilter> for FilterBank {
    fn from_iter<I: IntoIterator<Item = AcceptanceFilter>>(iter: I) -> Self {
        FilterBank {
            filters: iter.into_iter().collect(),
        }
    }
}

impl Extend<AcceptanceFilter> for FilterBank {
    fn extend<I: IntoIterator<Item = AcceptanceFilter>>(&mut self, iter: I) {
        self.filters.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{CanFrame, CanId};

    fn sf(id: u16) -> CanFrame {
        CanFrame::new(CanId::standard(id).unwrap(), &[]).unwrap()
    }

    fn ef(id: u32) -> CanFrame {
        CanFrame::new(CanId::extended(id).unwrap(), &[]).unwrap()
    }

    #[test]
    fn mask_zero_accepts_everything_standard() {
        let f = AcceptanceFilter::accept_all_standard();
        for id in [0x000u16, 0x001, 0x3FF, 0x7FF] {
            assert!(f.accepts(&sf(id)));
        }
        assert!(
            !f.accepts(&ef(0x100)),
            "extended frames need an extended filter"
        );
    }

    #[test]
    fn exact_match_filter() {
        let f = AcceptanceFilter::standard(0x7FF, 0x316);
        assert!(f.accepts(&sf(0x316)));
        assert!(!f.accepts(&sf(0x317)));
    }

    #[test]
    fn block_filter_matches_prefix() {
        let f = AcceptanceFilter::standard(0x700, 0x200);
        assert!(f.accepts(&sf(0x2AB)));
        assert!(!f.accepts(&sf(0x300)));
    }

    #[test]
    fn extended_filter_matches_extended_only() {
        let f = AcceptanceFilter::extended(0x1FFF_FFFF, 0xABCDE);
        assert!(f.accepts(&ef(0xABCDE)));
        assert!(!f.accepts(&sf(0x123)));
    }

    #[test]
    fn bank_or_semantics() {
        let bank: FilterBank = [
            AcceptanceFilter::standard(0x7FF, 0x100),
            AcceptanceFilter::standard(0x7FF, 0x200),
        ]
        .into_iter()
        .collect();
        assert!(bank.accepts(&sf(0x100)));
        assert!(bank.accepts(&sf(0x200)));
        assert!(!bank.accepts(&sf(0x300)));
    }

    #[test]
    fn empty_bank_accepts_all() {
        let bank = FilterBank::new();
        assert!(bank.is_empty());
        assert!(bank.accepts(&sf(0x5AA)));
        assert!(bank.accepts(&ef(0x1234)));
    }

    #[test]
    fn extend_adds_filters() {
        let mut bank = FilterBank::new();
        bank.extend([AcceptanceFilter::standard(0x7FF, 0x42)]);
        assert_eq!(bank.len(), 1);
        assert!(bank.accepts(&sf(0x42)));
        assert!(!bank.accepts(&sf(0x43)));
    }
}
