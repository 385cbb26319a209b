//! Layer shapes and MAC counts of the literature IDS models.
//!
//! Each model records the published architecture's *shape* — input
//! framing (per-frame vs block), layer structure and MAC count — which is
//! what the latency comparison (Table II) depends on. Nothing here runs
//! the models: the paper quotes the literature's accuracy and latency
//! rather than re-running them, and the measured baseline rows come from
//! the trainable [`crate::mth`] detector and the QMLP itself.

/// A 2-D convolution's shape: square kernel, stride 1, same padding.
#[derive(Debug, Clone, Copy)]
struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
}

impl Conv2d {
    fn new(in_channels: usize, out_channels: usize, kernel: usize) -> Self {
        Conv2d {
            in_channels,
            out_channels,
            kernel,
        }
    }

    /// MACs for one pass over an `h × w` input.
    fn macs(self, h: usize, w: usize) -> u64 {
        (self.in_channels * self.out_channels * self.kernel * self.kernel * h * w) as u64
    }
}

/// MACs per time step of a GRU cell: three gates over input and state.
fn gru_macs(input: usize, hidden: usize) -> u64 {
    (3 * hidden * (input + hidden)) as u64
}

/// MACs per time step of an LSTM cell: four gates over input and state.
fn lstm_macs(input: usize, hidden: usize) -> u64 {
    (4 * hidden * (input + hidden)) as u64
}

/// MACs of single-head self-attention over `seq × dim`:
/// QK^T (seq²·dim) plus the weighted sum (seq²·dim).
fn attention_macs(seq: usize, dim: usize) -> u64 {
    (2 * seq * seq * dim) as u64
}

/// DCNN (Song, Woo & Kim 2020): a reduced Inception-ResNet on a 29×29
/// grid of 29 consecutive identifier bit-vectors.
#[derive(Debug, Clone)]
pub struct Dcnn {
    stages: [Conv2d; 3],
}

impl Dcnn {
    /// Frames consumed per invocation (the 29-frame block).
    pub const FRAMES_PER_BLOCK: u32 = 29;

    /// The published topology, reduced: three 3×3 conv stages with pooling.
    pub fn song2020() -> Self {
        Dcnn {
            stages: [
                Conv2d::new(1, 32, 3),
                Conv2d::new(32, 64, 3),
                Conv2d::new(64, 128, 3),
            ],
        }
    }

    /// MACs per 29-frame block.
    pub fn macs(&self) -> u64 {
        // 29×29 → pool → 14×14 → pool → 7×7.
        let dims = [(29usize, 29usize), (14, 14), (7, 7)];
        self.stages
            .iter()
            .zip(dims)
            .map(|(l, (h, w))| l.macs(h, w))
            .sum::<u64>()
            + 128 * 2 // classifier head
    }
}

/// GRU IDS (Ma et al. 2022): per-frame features through a GRU, evaluated
/// on 5000-frame batches on a Jetson Xavier NX.
#[derive(Debug, Clone)]
pub struct GruIds {
    input: usize,
    hidden: usize,
}

impl GruIds {
    /// Frames per published invocation.
    pub const FRAMES_PER_BATCH: u32 = 5_000;

    /// The published configuration (hidden 256 over byte features).
    pub fn ma2022() -> Self {
        GruIds {
            input: 10,
            hidden: 256,
        }
    }

    /// MACs per frame (one GRU step + head).
    pub fn macs_per_frame(&self) -> u64 {
        gru_macs(self.input, self.hidden) + self.hidden as u64 * 2
    }
}

/// MLIDS (Desta et al. 2020): per-frame LSTM over raw high-dimensional
/// CAN words on a GTX Titan X.
#[derive(Debug, Clone)]
pub struct MlidsLstm {
    input: usize,
    hidden: usize,
}

impl MlidsLstm {
    /// The published configuration (hidden 128 over the 75-bit frame).
    pub fn desta2020() -> Self {
        MlidsLstm {
            input: 75,
            hidden: 128,
        }
    }

    /// MACs per frame.
    pub fn macs_per_frame(&self) -> u64 {
        lstm_macs(self.input, self.hidden) + self.hidden as u64 * 2
    }
}

/// TCAN-IDS (Cheng et al. 2022): temporal convolution + attention over
/// 64-frame windows of 10-feature rows on a Jetson AGX.
#[derive(Debug, Clone)]
pub struct TcanIds {
    conv: Conv2d,
}

impl TcanIds {
    /// Frames per published window.
    pub const FRAMES_PER_WINDOW: u32 = 64;
    /// Attention model dimension.
    pub const DIM: usize = 64;

    /// The published configuration.
    pub fn cheng2022() -> Self {
        TcanIds {
            conv: Conv2d::new(1, 64, 3),
        }
    }

    /// MACs per 64-frame window (temporal conv + self-attention).
    pub fn macs_per_window(&self) -> u64 {
        self.conv.macs(64, 10) + attention_macs(64, Self::DIM)
    }
}

/// NovelADS (Agrawal et al. 2022): CNN+LSTM anomaly detector over
/// 100-frame blocks on a Jetson Nano.
#[derive(Debug, Clone)]
pub struct NovelAds {
    conv: Conv2d,
    lstm_input: usize,
    lstm_hidden: usize,
}

impl NovelAds {
    /// Frames per published block.
    pub const FRAMES_PER_BLOCK: u32 = 100;

    /// The published configuration.
    pub fn agrawal2022() -> Self {
        NovelAds {
            conv: Conv2d::new(1, 32, 3),
            lstm_input: 32,
            lstm_hidden: 128,
        }
    }

    /// MACs per 100-frame block.
    pub fn macs_per_block(&self) -> u64 {
        self.conv.macs(100, 10) + 100 * lstm_macs(self.lstm_input, self.lstm_hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_counts_are_pinned_to_the_published_shapes() {
        // Table II's "Modelled here" column is a function of these counts.
        assert_eq!(Dcnn::song2020().macs(), 7_467_808);
        assert_eq!(GruIds::ma2022().macs_per_frame(), 204_800);
        assert_eq!(MlidsLstm::desta2020().macs_per_frame(), 104_192);
        assert_eq!(TcanIds::cheng2022().macs_per_window(), 892_928);
        assert_eq!(NovelAds::agrawal2022().macs_per_block(), 8_480_000);
    }

    #[test]
    fn novelads_macs_positive() {
        let m = NovelAds::agrawal2022();
        assert!(m.macs_per_block() > 1_000_000);
    }

    #[test]
    fn relative_workload_ordering_matches_architectures() {
        // Block CNNs are far heavier per invocation than per-frame cells.
        let dcnn = Dcnn::song2020().macs();
        let mlids = MlidsLstm::desta2020().macs_per_frame();
        assert!(dcnn > 10 * mlids);
    }
}
