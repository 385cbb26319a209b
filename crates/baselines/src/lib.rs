//! Literature baselines and platform models.
//!
//! The paper compares its 4-bit QMLP against six published CAN IDSs
//! (Table I accuracy, Table II latency). This crate provides:
//!
//! * [`literature`] — the published rows, verbatim (the paper compares
//!   against reported numbers, and so do we),
//! * [`models`] — the layer shapes and exact MAC counts of the neural
//!   baselines (DCNN, GRU, MLIDS-LSTM, TCAN, NovelADS),
//! * [`platform`] — analytic Jetson/GPU/Raspberry-Pi execution models
//!   (spec-sheet compute rates and power, calibrated dispatch),
//! * [`workload`] — the model↔platform pairings that regenerate the
//!   Table II rows,
//! * [`mth`] — a trainable decision-tree + kNN detector (MTH-IDS style)
//!   that produces *measured* baseline rows on our synthetic captures.
//!
//! # Example
//!
//! ```
//! use canids_baselines::prelude::*;
//!
//! // The modelled Table II reproduces the published ordering among the
//! // per-message IDSs (block models amortise their invocation cost but
//! // cannot give a verdict before the whole block arrives).
//! let rows = table2_workloads();
//! let mth = rows.iter().find(|w| w.model.starts_with("MTH")).unwrap();
//! for row in rows.iter().filter(|w| w.frames_per_invocation == 1) {
//!     assert!(mth.latency_per_frame() <= row.latency_per_frame());
//! }
//! ```

pub mod literature;
pub mod models;
pub mod mth;
pub mod platform;
pub mod workload;

pub use literature::{
    paper_headlines, table1_dos, table1_fuzzy, table2_rows, AccuracyRow, LatencyRow,
};
pub use models::{Dcnn, GruIds, MlidsLstm, NovelAds, TcanIds};
pub use mth::{DecisionTree, Knn, MthIds};
pub use platform::Platform;
pub use workload::{table2_workloads, BaselineWorkload};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::literature::{
        paper_headlines, table1_dos, table1_fuzzy, table2_qmlp_paper, table2_rows, AccuracyRow,
        LatencyRow,
    };
    pub use crate::models::{Dcnn, GruIds, MlidsLstm, NovelAds, TcanIds};
    pub use crate::mth::{DecisionTree, Knn, MthIds};
    pub use crate::platform::Platform;
    pub use crate::workload::{table2_workloads, BaselineWorkload};
}
