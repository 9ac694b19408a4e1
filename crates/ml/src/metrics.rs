//! Classification metrics: confusion matrix, accuracy, PPV and FDR.
//!
//! Fig. 6(a) and Fig. 7 of the paper display MATLAB-style confusion charts
//! whose bottom rows are the per-class **PPV** (positive predictive value,
//! the diagonal share of each predicted-class column) and **FDR** (false
//! discovery rate, its complement). [`ConfusionMatrix`] reproduces those
//! numbers and renders a comparable text chart.

use std::fmt;

/// A `classes × classes` confusion matrix; rows = actual class,
/// columns = predicted class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Builds a confusion matrix from parallel label arrays.
    ///
    /// # Panics
    /// Panics if the arrays differ in length, are empty, or contain a label
    /// `>= classes`.
    #[must_use]
    pub fn from_predictions(actual: &[usize], predicted: &[usize], classes: usize) -> Self {
        assert_eq!(
            actual.len(),
            predicted.len(),
            "label arrays differ in length"
        );
        assert!(!actual.is_empty(), "empty label arrays");
        assert!(classes > 0, "need at least one class");
        let mut counts = vec![0u64; classes * classes];
        for (&a, &p) in actual.iter().zip(predicted) {
            assert!(a < classes, "actual label {a} out of range");
            assert!(p < classes, "predicted label {p} out of range");
            counts[a * classes + p] += 1;
        }
        Self { classes, counts }
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count of (actual = `a`, predicted = `p`).
    #[must_use]
    pub fn count(&self, a: usize, p: usize) -> u64 {
        self.counts[a * self.classes + p]
    }

    /// Total number of samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy: trace / total.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        correct as f64 / self.total() as f64
    }

    /// Positive predictive value of predicted class `p`:
    /// `count(p, p) / Σ_a count(a, p)`. Returns `None` if nothing was
    /// predicted as `p`.
    #[must_use]
    pub fn ppv(&self, p: usize) -> Option<f64> {
        let col: u64 = (0..self.classes).map(|a| self.count(a, p)).sum();
        (col > 0).then(|| self.count(p, p) as f64 / col as f64)
    }

    /// False discovery rate of predicted class `p`: `1 − PPV(p)`.
    #[must_use]
    pub fn fdr(&self, p: usize) -> Option<f64> {
        self.ppv(p).map(|v| 1.0 - v)
    }

    /// Per-predicted-class PPV row, with `NaN` for empty columns — the
    /// shape of the Fig. 6(a) bottom strip.
    #[must_use]
    pub fn ppv_row(&self) -> Vec<f64> {
        (0..self.classes)
            .map(|p| self.ppv(p).unwrap_or(f64::NAN))
            .collect()
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actual\\pred |")?;
        for p in 0..self.classes {
            write!(f, " {p:>6}")?;
        }
        writeln!(f)?;
        for a in 0..self.classes {
            write!(f, "{a:>11} |")?;
            for p in 0..self.classes {
                write!(f, " {:>6}", self.count(a, p))?;
            }
            writeln!(f)?;
        }
        write!(f, "        PPV |")?;
        for p in 0..self.classes {
            match self.ppv(p) {
                Some(v) => write!(f, " {:>5.1}%", v * 100.0)?,
                None => write!(f, "     --")?,
            }
        }
        writeln!(f)?;
        write!(f, "        FDR |")?;
        for p in 0..self.classes {
            match self.fdr(p) {
                Some(v) => write!(f, " {:>5.1}%", v * 100.0)?,
                None => write!(f, "     --")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let labels = vec![0, 1, 2, 0, 1, 2];
        let cm = ConfusionMatrix::from_predictions(&labels, &labels, 3);
        assert_eq!(cm.accuracy(), 1.0);
        for c in 0..3 {
            assert_eq!(cm.ppv(c), Some(1.0));
            assert_eq!(cm.fdr(c), Some(0.0));
        }
    }

    #[test]
    fn known_counts() {
        let actual = vec![0, 0, 0, 1, 1, 1];
        let predicted = vec![0, 0, 1, 1, 1, 0];
        let cm = ConfusionMatrix::from_predictions(&actual, &predicted, 2);
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 0), 1);
        assert_eq!(cm.count(1, 1), 2);
        assert!((cm.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert!((cm.ppv(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.fdr(0).unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_predicted_column_gives_none() {
        let actual = vec![0, 0, 1];
        let predicted = vec![0, 0, 0];
        let cm = ConfusionMatrix::from_predictions(&actual, &predicted, 2);
        assert_eq!(cm.ppv(1), None);
        assert_eq!(cm.fdr(1), None);
        assert!(cm.ppv_row()[1].is_nan());
    }

    #[test]
    fn total_counts_samples() {
        let actual = vec![0; 10];
        let predicted = vec![0; 10];
        let cm = ConfusionMatrix::from_predictions(&actual, &predicted, 1);
        assert_eq!(cm.total(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let _ = ConfusionMatrix::from_predictions(&[0], &[3], 2);
    }

    #[test]
    fn display_contains_ppv_and_fdr() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1], &[0, 1], 2);
        let s = cm.to_string();
        assert!(s.contains("PPV"));
        assert!(s.contains("FDR"));
        assert!(s.contains("100.0%"));
    }
}
