//! Order statistics and the simulated-output digest.

/// The nearest-rank `q`-quantile of unsorted `values`, by the serving
/// runtime's own percentile rule (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    safelight_serve::percentile(&sorted, q)
}

/// Median of `values` (mean of the two middle values on an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Running digest of everything a pass simulated: predictions, policy
/// decisions, virtual-time statistics, accuracies. Wall-clock values never
/// enter it, so it must be identical across thread counts and between the
/// traced and untraced passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0x51D1_6E57_BE4C_4A11)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn add(&mut self, word: u64) {
        self.0 = safelight::attack::fold(self.0, word);
    }

    /// Folds a string into the digest.
    pub fn add_str(&mut self, s: &str) {
        self.add(s.len() as u64);
        for b in s.bytes() {
            self.add(u64::from(b));
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&v), 5.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.add(1);
        a.add(2);
        let mut b = Digest::default();
        b.add(2);
        b.add(1);
        assert_ne!(a, b);
    }
}
