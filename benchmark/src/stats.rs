//! Order statistics over a handful of repeat measurements.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the spreads this benchmark prints are the
//! ones a reader recomputes from the raw repeats with the standard library.

/// Median, quartiles and count of a set of repeat measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none. With one value both
    /// quartiles equal it.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        let (q1, q3) = if n < 2 {
            (median, median)
        } else {
            (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
        };
        Some(Summary { n, median, q1, q3 })
    }
}

/// Quartile `i` (1 or 3) of at least two sorted values, by the exclusive
/// method: linear interpolation at rank `i (n + 1) / 4`, extrapolated from
/// the outermost pair when that rank falls outside `[1, n]`.
fn exclusive_quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quartiles(values: &[f64]) -> (f64, f64) {
        let s = Summary::of(values).unwrap();
        (s.q1, s.q3)
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap().median, 2.5);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn one_value_is_its_own_spread() {
        let s = Summary::of(&[2.0]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (1, 2.0, 2.0, 2.0));
    }
}
