//! Order statistics over the repeats of one timing.

/// Median, quartiles, extremes and sample count. With n = 5 there is no
/// tail percentile to report: nothing lies beyond one.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(v, n=4)` gives them
    /// (exclusive method), so the harness and the noise protocol in
    /// README.md agree on what "spread" means.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let len = v.len();
        let quantile = |i: usize| {
            if len == 1 {
                return v[0];
            }
            let m = len + 1;
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: v[0],
            max: v[len - 1],
            n: len,
        }
    }

    /// A quantity that is not sampled (a count, a simulated rate).
    pub fn exact(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

#[cfg(test)]
mod tests {
    use super::Summary;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let s = Summary::exact(7.0);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }
}
