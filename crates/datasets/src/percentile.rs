//! Distance projection of datasets for percentile trimming.
//!
//! The multi-dimensional experiments (k-means, SVM, SOM) use *distance-based*
//! trimming: each point's distance to the data centroid is the scalar the
//! percentile game is played on (the classic distance-based sanitization of
//! Kloft & Laskov cited in the paper's introduction). [`centroid_distances`]
//! projects a dataset to those scalars.

use crate::dataset::Dataset;

/// Distances of every row to the dataset's own centroid — the scalar stream
/// the trimming game operates on for multi-dimensional data.
#[must_use]
pub fn centroid_distances(d: &Dataset) -> Vec<f64> {
    d.distances_to(&d.centroid())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            2,
            vec![0.0, 0.0, 2.0, 0.0, 4.0, 0.0, 6.0, 0.0, 8.0, 0.0],
            None,
            1,
        )
    }

    #[test]
    fn centroid_distances_are_symmetric_for_toy() {
        let d = toy();
        // Centroid is (4, 0); distances are 4, 2, 0, 2, 4.
        let dist = centroid_distances(&d);
        assert_eq!(dist, vec![4.0, 2.0, 0.0, 2.0, 4.0]);
    }
}
