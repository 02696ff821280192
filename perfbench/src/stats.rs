//! Order statistics over samples: nearest-rank percentiles and medians.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`: the
/// smallest value with at least `p`% of the samples at or below it.
/// `None` for an empty sample.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&xs, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&xs, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&xs, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&xs, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(50.0));
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        // Sorted: 1 1 2 3 3 4 5 5 6 9; p90 is rank ceil(9.0) = 9.
        assert_eq!(nearest_rank(&xs, 90.0), Some(6.0));
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn even_samples_take_the_lower_middle() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.0));
    }
}
