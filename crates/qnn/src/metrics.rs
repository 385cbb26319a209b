//! Classification metrics: the precision / recall / F1 / FNR quartet the
//! paper's Table I reports.

use std::fmt;

/// A binary confusion matrix with the attack class as "positive".
///
/// # Example
///
/// ```
/// use canids_qnn::metrics::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new();
/// cm.record(true, true);   // detected attack
/// cm.record(false, false); // correctly passed normal frame
/// cm.record(false, true);  // missed attack (false negative)
/// assert_eq!(cm.recall(), 0.5);
/// assert_eq!(cm.fnr(), 0.5);
/// assert_eq!(cm.precision(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Attacks classified as attacks.
    pub tp: u64,
    /// Normal frames classified as attacks.
    pub fp: u64,
    /// Normal frames classified as normal.
    pub tn: u64,
    /// Attacks classified as normal (the safety-critical error).
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        ConfusionMatrix::default()
    }

    /// Records one decision: `predicted_attack` vs `truth_attack`.
    pub fn record(&mut self, predicted_attack: bool, truth_attack: bool) {
        match (predicted_attack, truth_attack) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Builds a matrix from parallel prediction/truth class indices
    /// (0 = normal, 1 = attack).
    pub fn from_predictions(preds: &[usize], truths: &[usize]) -> Self {
        let mut cm = ConfusionMatrix::new();
        for (&p, &t) in preds.iter().zip(truths) {
            cm.record(p != 0, t != 0);
        }
        cm
    }

    /// Total decisions recorded.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision: TP / (TP + FP). 1.0 when no positives were predicted.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            1.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Recall (true-positive rate): TP / (TP + FN). 1.0 with no attacks.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// F1 score: harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False-negative rate: FN / (TP + FN) — missed attacks.
    pub fn fnr(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.fn_ as f64 / denom as f64
        }
    }

    /// False-positive rate: FP / (FP + TN).
    pub fn fpr(&self) -> f64 {
        let denom = self.fp + self.tn;
        if denom == 0 {
            0.0
        } else {
            self.fp as f64 / denom as f64
        }
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// The Table-I row: `(precision %, recall %, F1 %, FNR %)`.
    pub fn table_row(&self) -> (f64, f64, f64, f64) {
        (
            100.0 * self.precision(),
            100.0 * self.recall(),
            100.0 * self.f1(),
            100.0 * self.fnr(),
        )
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (p, r, f1, fnr) = self.table_row();
        write!(
            f,
            "precision {p:6.2}%  recall {r:6.2}%  f1 {f1:6.2}%  fnr {fnr:5.2}%  (tp {} fp {} tn {} fn {})",
            self.tp, self.fp, self.tn, self.fn_
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let cm = ConfusionMatrix {
            tp: 50,
            fp: 0,
            tn: 950,
            fn_: 0,
        };
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.fnr(), 0.0);
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn known_values() {
        let cm = ConfusionMatrix {
            tp: 90,
            fp: 10,
            tn: 880,
            fn_: 20,
        };
        assert!((cm.precision() - 0.9).abs() < 1e-12);
        assert!((cm.recall() - 90.0 / 110.0).abs() < 1e-12);
        assert!((cm.fnr() - 20.0 / 110.0).abs() < 1e-12);
        assert!((cm.fpr() - 10.0 / 890.0).abs() < 1e-12);
        assert!((cm.accuracy() - 970.0 / 1000.0).abs() < 1e-12);
        let f1 = 2.0 * cm.precision() * cm.recall() / (cm.precision() + cm.recall());
        assert!((cm.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_defined() {
        let empty = ConfusionMatrix::new();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.fnr(), 0.0);
        assert_eq!(empty.accuracy(), 1.0);
        let all_negative = ConfusionMatrix {
            tn: 10,
            ..ConfusionMatrix::new()
        };
        assert_eq!(all_negative.precision(), 1.0);
        assert_eq!(all_negative.fpr(), 0.0);
    }

    #[test]
    fn from_predictions_counts() {
        let cm = ConfusionMatrix::from_predictions(&[1, 0, 1, 0], &[1, 0, 0, 1]);
        assert_eq!(cm.tp, 1);
        assert_eq!(cm.tn, 1);
        assert_eq!(cm.fp, 1);
        assert_eq!(cm.fn_, 1);
        assert_eq!(cm.total(), 4);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix {
            tp: 1,
            fp: 2,
            tn: 3,
            fn_: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.tp, 2);
        assert_eq!(a.fn_, 8);
    }

    #[test]
    fn table_row_is_percent() {
        let cm = ConfusionMatrix {
            tp: 9999,
            fp: 1,
            tn: 9999,
            fn_: 1,
        };
        let (p, r, f1, fnr) = cm.table_row();
        assert!(p > 99.9 && r > 99.9 && f1 > 99.9);
        assert!(fnr < 0.1);
    }

    #[test]
    fn display_contains_all_metrics() {
        let s = ConfusionMatrix::from_predictions(&[1], &[1]).to_string();
        assert!(s.contains("precision") && s.contains("fnr"));
    }
}
