//! Order statistics over timing samples.

/// The `p`-quantile (`0..=1`) of `sorted` by nearest rank; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[k.min(sorted.len() - 1)]
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: Vec<f64>) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly beyond the `p`-quantile's rank: a tail percentile is
/// only reported where at least ten lie beyond it.
pub fn beyond(len: usize, p: f64) -> usize {
    if len == 0 {
        0
    } else {
        len - 1 - ((len as f64 - 1.0) * p).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 51.0);
        assert_eq!(quantile_sorted(&s, 0.99), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(beyond(1001, 0.99), 10);
    }
}
