//! Order statistics shared by every workload.

/// Median of `xs` (the mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile mean of `xs`: the mean of the middle half, after the
/// lowest and the highest quarter (rounded down) are left out; 0 for an
/// empty slice.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// A per-call or per-candidate timing: the median, the highest percentile
/// that still has at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub p50: f64,
    /// The sample with exactly ten larger samples, i.e. the
    /// `(n − 10) / n` quantile; the maximum when `n ≤ 10`.
    pub tail: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary::default();
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Summary {
            p50: median(&v),
            tail: if n > 10 { v[n - 11] } else { v[n - 1] },
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_leaves_out_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, -50.0]), 2.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.n, 100);
        assert_eq!(Summary::of(&[5.0, 1.0, 9.0]).tail, 9.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(Summary::of(&eleven).tail, 1.0);
    }
}
