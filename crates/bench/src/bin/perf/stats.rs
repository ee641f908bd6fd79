//! Order statistics over small sample vectors.
//!
//! Everything the harness reports is a median or a quantile of raw
//! samples kept in memory; nothing is bucketed, so a reported value
//! carries all the digits it was measured with.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// two nearest order statistics. Sorts `xs` in place; 0 for an empty
/// slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    [quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)]
}

/// Interquartile range as a share of the median (0 when the median is
/// 0): the spread figure the noise protocol compares against a bound.
pub fn iqr_share(xs: &mut [f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// splitmix64: the harness's only random source. Every input is a
/// function of `--seed` through this stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
