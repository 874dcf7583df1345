//! Photodetectors: optical summation and optical-to-electrical conversion.
//!
//! In a non-coherent ONN the per-wavelength products of a vector dot product
//! are summed "for free" by a photodetector (PD), whose photocurrent is the
//! responsivity-weighted total optical power across all incident channels
//! (Fig. 2(g) of the paper). Signed arithmetic uses a *balanced* pair of PDs
//! subtracting a negative rail from a positive rail.

use crate::PhotonicsError;

/// A photodetector converting incident optical power to photocurrent.
///
/// # Example
///
/// ```
/// use safelight_photonics::Photodetector;
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let pd = Photodetector::new(1.0)?; // 1 A/W responsivity
/// // Three WDM channels carrying the products 0.2, 0.5 and 0.1 (mW):
/// let current = pd.detect([0.2, 0.5, 0.1]);
/// assert!((current - 0.8).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Photodetector {
    responsivity_a_per_w: f64,
    dark_current_ma: f64,
}

impl Photodetector {
    /// Creates a detector with the given responsivity in amperes per watt.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] when the responsivity is
    /// not a positive finite number.
    pub fn new(responsivity_a_per_w: f64) -> Result<Self, PhotonicsError> {
        if !responsivity_a_per_w.is_finite() || responsivity_a_per_w <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "responsivity_a_per_w",
                value: responsivity_a_per_w,
            });
        }
        Ok(Self {
            responsivity_a_per_w,
            dark_current_ma: 0.0,
        })
    }

    /// Sets a constant dark current (mA) added to every detection.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] for negative or
    /// non-finite values.
    pub fn with_dark_current(mut self, dark_current_ma: f64) -> Result<Self, PhotonicsError> {
        if !dark_current_ma.is_finite() || dark_current_ma < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "dark_current_ma",
                value: dark_current_ma,
            });
        }
        self.dark_current_ma = dark_current_ma;
        Ok(self)
    }

    /// Responsivity in A/W.
    #[must_use]
    pub fn responsivity(&self) -> f64 {
        self.responsivity_a_per_w
    }

    /// Photocurrent (mA) for the given per-channel optical powers (mW).
    ///
    /// Summation across channels is the ONN's free accumulation: the detector
    /// cannot distinguish wavelengths, so corrupted channels are silently
    /// folded into the partial sum — which is exactly why MR-level attacks
    /// propagate into dot products.
    #[must_use]
    pub fn detect<I>(&self, channel_powers_mw: I) -> f64
    where
        I: IntoIterator<Item = f64>,
    {
        let total: f64 = channel_powers_mw.into_iter().sum();
        self.responsivity_a_per_w * total + self.dark_current_ma
    }
}

/// A balanced photodetector pair computing `positive − negative`.
///
/// Differential (two-rail) weight encoding maps a signed weight `w` to a
/// positive-rail magnitude (for `w ≥ 0`) or a negative-rail magnitude (for
/// `w < 0`); the balanced pair restores the sign in the photocurrent domain.
///
/// # Example
///
/// ```
/// use safelight_photonics::BalancedPhotodetector;
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let pd = BalancedPhotodetector::new(1.0)?;
/// let i = pd.detect([0.6, 0.2], [0.1, 0.3]); // (0.8) − (0.4)
/// assert!((i - 0.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BalancedPhotodetector {
    positive: Photodetector,
    negative: Photodetector,
}

impl BalancedPhotodetector {
    /// Creates a balanced pair with matched responsivity (A/W).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] when the responsivity is
    /// not a positive finite number.
    pub fn new(responsivity_a_per_w: f64) -> Result<Self, PhotonicsError> {
        Ok(Self {
            positive: Photodetector::new(responsivity_a_per_w)?,
            negative: Photodetector::new(responsivity_a_per_w)?,
        })
    }

    /// Differential photocurrent (mA): positive-rail minus negative-rail.
    #[must_use]
    pub fn detect<P, N>(&self, positive_mw: P, negative_mw: N) -> f64
    where
        P: IntoIterator<Item = f64>,
        N: IntoIterator<Item = f64>,
    {
        self.positive.detect(positive_mw) - self.negative.detect(negative_mw)
    }

    /// Per-rail monitor readout (mA): the `(positive, negative)` rail
    /// photocurrents *before* subtraction.
    ///
    /// The balanced output only carries the difference, so a trojan that
    /// darkens both rails equally is invisible there; a runtime monitor
    /// tapping each rail's photocurrent individually (this readout) sees
    /// the common-mode drop too. This is the device-level primitive behind
    /// the detection subsystem's drop-port telemetry.
    #[must_use]
    pub fn monitor<P, N>(&self, positive_mw: P, negative_mw: N) -> (f64, f64)
    where
        P: IntoIterator<Item = f64>,
        N: IntoIterator<Item = f64>,
    {
        (
            self.positive.detect(positive_mw),
            self.negative.detect(negative_mw),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_linear_in_power() {
        let pd = Photodetector::new(0.8).unwrap();
        let a = pd.detect([1.0, 2.0]);
        let b = pd.detect([2.0, 4.0]);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn empty_channel_set_gives_dark_current_only() {
        let pd = Photodetector::new(1.0)
            .unwrap()
            .with_dark_current(0.05)
            .unwrap();
        assert!((pd.detect(std::iter::empty()) - 0.05).abs() < 1e-15);
    }

    #[test]
    fn invalid_responsivity_is_rejected() {
        assert!(Photodetector::new(0.0).is_err());
        assert!(Photodetector::new(f64::NAN).is_err());
        assert!(Photodetector::new(-1.0).is_err());
    }

    #[test]
    fn balanced_detection_subtracts_rails() {
        let pd = BalancedPhotodetector::new(1.0).unwrap();
        let i = pd.detect([1.0], [0.25]);
        assert!((i - 0.75).abs() < 1e-12);
    }

    #[test]
    fn monitor_reads_rails_individually() {
        let pd = BalancedPhotodetector::new(1.0).unwrap();
        let (pos, neg) = pd.monitor([0.6, 0.2], [0.1, 0.3]);
        assert!((pos - 0.8).abs() < 1e-12);
        assert!((neg - 0.4).abs() < 1e-12);
        // A common-mode drop is invisible to the balanced output but plain
        // in the monitor readout.
        let clean = pd.detect([0.5], [0.5]);
        let tapped = pd.detect([0.25], [0.25]);
        assert!((clean - tapped).abs() < 1e-12);
        let (p1, _) = pd.monitor([0.5], [0.5]);
        let (p2, _) = pd.monitor([0.25], [0.25]);
        assert!(p1 > p2);
    }

    #[test]
    fn balanced_detection_can_go_negative() {
        let pd = BalancedPhotodetector::new(1.0).unwrap();
        assert!(pd.detect([0.1], [0.9]) < 0.0);
    }
}
