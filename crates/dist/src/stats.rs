//! Weight post-processing and density estimation utilities shared by the
//! inference engines and the benchmark harness.

use crate::special::log_sum_exp;

/// Self-normalises a slice of log-weights into probabilities that sum to
/// one, returning them with the normaliser `ln Σᵢ exp(lwᵢ)` (the
/// [`log_sum_exp`] of the slice), so an evidence estimate needs no second
/// pass over the weights.
///
/// The probabilities are `None` when normalisation is impossible: the
/// slice is empty or every weight is zero (`-∞`), as happens when no
/// particle lands in the model's support.
pub fn normalize_log_weights(log_weights: &[f64]) -> (Option<Vec<f64>>, f64) {
    let lse = log_sum_exp(log_weights);
    if lse == f64::NEG_INFINITY {
        return (None, lse);
    }
    let normalized = log_weights.iter().map(|&lw| (lw - lse).exp()).collect();
    (Some(normalized), lse)
}

/// Kish's effective sample size `1 / Σᵢ wᵢ²` of *normalised* weights.
///
/// Uniform weights over `n` particles give `n`; a single particle carrying
/// all the mass gives `1`; an empty slice gives `0`.
pub fn effective_sample_size(normalized_weights: &[f64]) -> f64 {
    let sum_sq: f64 = normalized_weights.iter().map(|&w| w * w).sum();
    if sum_sq > 0.0 {
        1.0 / sum_sq
    } else {
        0.0
    }
}

/// A fixed-range weighted histogram over `[lo, hi)`, used as a density
/// estimator for posterior plots (the Fig. 2 series).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    weights: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over
    /// `[lo, hi)`.  Requires `lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            weights: vec![0.0; bins],
            total: 0.0,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.weights.len()
    }

    /// The width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.weights.len() as f64
    }

    /// Adds a weighted observation.  Values outside `[lo, hi)` are ignored
    /// (their weight does not contribute to [`Histogram::total_weight`]).
    pub fn add(&mut self, value: f64, weight: f64) {
        if !value.is_finite() || value < self.lo || value >= self.hi {
            return;
        }
        let idx = (((value - self.lo) / self.bin_width()) as usize).min(self.weights.len() - 1);
        self.weights[idx] += weight;
        self.total += weight;
    }

    /// The total weight accumulated inside the range.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// The accumulated weight per bin.
    pub fn bin_weights(&self) -> &[f64] {
        &self.weights
    }

    /// The midpoints of the bins.
    pub fn centers(&self) -> Vec<f64> {
        let w = self.bin_width();
        (0..self.weights.len())
            .map(|i| self.lo + (i as f64 + 0.5) * w)
            .collect()
    }

    /// The density estimate per bin: accumulated weight divided by the bin
    /// width.  When the added weights are normalised probabilities, the
    /// densities integrate (over the range) to the in-range probability
    /// mass.
    pub fn densities(&self) -> Vec<f64> {
        let w = self.bin_width();
        self.weights.iter().map(|&m| m / w).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_log_weights_is_a_softmax() {
        let log_weights = [0.0, 0.0, 2f64.ln()];
        let (normalized, lse) = normalize_log_weights(&log_weights);
        let normalized = normalized.unwrap();
        assert_eq!(normalized.len(), 3);
        assert!((normalized.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((normalized[0] - 0.25).abs() < 1e-12);
        assert!((normalized[2] - 0.5).abs() < 1e-12);
        // The normaliser is exactly the slice's log-sum-exp: ln 4.
        assert_eq!(lse.to_bits(), log_sum_exp(&log_weights).to_bits());
        assert!((lse - 4f64.ln()).abs() < 1e-12);
        // Shift-invariance: adding a huge constant changes nothing.
        let shifted = normalize_log_weights(&[900.0, 900.0, 900.0 + 2f64.ln()])
            .0
            .unwrap();
        for (a, b) in normalized.iter().zip(&shifted) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_log_weights_rejects_degenerate_input() {
        assert_eq!(normalize_log_weights(&[]), (None, f64::NEG_INFINITY));
        assert_eq!(
            normalize_log_weights(&[f64::NEG_INFINITY; 4]),
            (None, f64::NEG_INFINITY)
        );
        // A single zero-weight particle among finite ones is fine.
        let (w, lse) = normalize_log_weights(&[0.0, f64::NEG_INFINITY]);
        assert_eq!(w, Some(vec![1.0, 0.0]));
        assert_eq!(lse, 0.0);
    }

    #[test]
    fn effective_sample_size_on_uniform_and_degenerate_weights() {
        let n = 400;
        let uniform = vec![1.0 / n as f64; n];
        assert!((effective_sample_size(&uniform) - n as f64).abs() < 1e-6);
        let mut degenerate = vec![0.0; n];
        degenerate[17] = 1.0;
        assert!((effective_sample_size(&degenerate) - 1.0).abs() < 1e-12);
        assert_eq!(effective_sample_size(&[]), 0.0);
        assert_eq!(effective_sample_size(&[0.0, 0.0]), 0.0);
        // Two equal particles: ESS = 2.
        assert!((effective_sample_size(&[0.5, 0.5]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_accumulates_and_estimates_densities() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bins(), 4);
        assert!((h.bin_width() - 0.25).abs() < 1e-15);
        h.add(0.1, 0.5);
        h.add(0.9, 0.25);
        h.add(0.95, 0.25);
        h.add(5.0, 1.0); // out of range: ignored
        h.add(f64::NAN, 1.0); // ignored
        assert!((h.total_weight() - 1.0).abs() < 1e-12);
        assert_eq!(h.bin_weights(), &[0.5, 0.0, 0.0, 0.5]);
        let centers = h.centers();
        assert_eq!(centers, vec![0.125, 0.375, 0.625, 0.875]);
        let densities = h.densities();
        assert!((densities[0] - 2.0).abs() < 1e-12);
        // Densities integrate back to the in-range mass.
        let mass: f64 = densities.iter().map(|d| d * h.bin_width()).sum();
        assert!((mass - h.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn histogram_bin_edges() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.0, 1.0); // lower edge is inclusive
        h.add(1.0, 1.0); // interior edge goes to the upper bin
        h.add(2.0, 1.0); // upper edge is exclusive
        assert_eq!(h.bin_weights(), &[1.0, 1.0]);
    }
}
