//! Order statistics over repetitions.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0.0 = minimum, 1.0 = maximum).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median with its quartiles and the sample count behind them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Self {
        Quartiles {
            q1: quantile(values, 0.25),
            median: median(values),
            q3: quantile(values, 0.75),
            n: values.len(),
        }
    }

    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0, which only a constant-zero sample produces).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 9.0, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_and_spread() {
        let q = Quartiles::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (10.0, 11.0, 12.0, 5));
        assert!((q.iqr_share() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[0.0, 0.0]).iqr_share(), 0.0);
    }
}
