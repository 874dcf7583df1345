//! Waveguide propagation and insertion-loss bookkeeping.

use crate::PhotonicsError;

/// A silicon waveguide segment with propagation and coupling losses.
///
/// Loss does not corrupt ONN results by itself (it is calibrated out), but
/// it bounds how many microring banks can be chained before the signal
/// drops below the detector noise floor, so the accelerator model accounts
/// for it when sizing vector-dot-product units.
///
/// # Example
///
/// ```
/// use safelight_photonics::Waveguide;
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let wg = Waveguide::new(2.0, 1.0)?; // 2 mm long, 1 dB/cm
/// let out = wg.transmit(1.0);         // 1 mW in
/// assert!(out < 1.0 && out > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    length_mm: f64,
    loss_db_per_cm: f64,
    coupler_loss_db: f64,
}

impl Waveguide {
    /// Creates a waveguide of `length_mm` with `loss_db_per_cm` propagation
    /// loss and no coupler loss.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] for negative or
    /// non-finite lengths/losses.
    pub fn new(length_mm: f64, loss_db_per_cm: f64) -> Result<Self, PhotonicsError> {
        if !length_mm.is_finite() || length_mm < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "length_mm",
                value: length_mm,
            });
        }
        if !loss_db_per_cm.is_finite() || loss_db_per_cm < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "loss_db_per_cm",
                value: loss_db_per_cm,
            });
        }
        Ok(Self {
            length_mm,
            loss_db_per_cm,
            coupler_loss_db: 0.0,
        })
    }

    /// Adds a fixed coupler/splitter insertion loss in dB.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] for negative or
    /// non-finite losses.
    pub fn with_coupler_loss_db(mut self, loss_db: f64) -> Result<Self, PhotonicsError> {
        if !loss_db.is_finite() || loss_db < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "coupler_loss_db",
                value: loss_db,
            });
        }
        self.coupler_loss_db = loss_db;
        Ok(self)
    }

    /// Total insertion loss of the segment in dB.
    #[must_use]
    pub fn total_loss_db(&self) -> f64 {
        self.loss_db_per_cm * self.length_mm / 10.0 + self.coupler_loss_db
    }

    /// Linear power transmission factor of the segment (0..=1].
    #[must_use]
    pub fn transmission(&self) -> f64 {
        10f64.powf(-self.total_loss_db() / 10.0)
    }

    /// Propagates `power_mw` through the segment.
    #[must_use]
    pub fn transmit(&self, power_mw: f64) -> f64 {
        power_mw * self.transmission()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_is_lossless() {
        let wg = Waveguide::new(0.0, 2.0).unwrap();
        assert!((wg.transmit(3.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn three_db_halves_power() {
        let wg = Waveguide::new(30.0, 1.0).unwrap(); // 3 dB
        assert!((wg.transmit(1.0) - 0.501).abs() < 0.01);
    }

    #[test]
    fn losses_compose_in_db() {
        let wg = Waveguide::new(10.0, 1.0)
            .unwrap()
            .with_coupler_loss_db(2.0)
            .unwrap();
        assert!((wg.total_loss_db() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_parameters_are_rejected() {
        assert!(Waveguide::new(-1.0, 1.0).is_err());
        assert!(Waveguide::new(1.0, -1.0).is_err());
        assert!(Waveguide::new(1.0, 1.0)
            .unwrap()
            .with_coupler_loss_db(-0.1)
            .is_err());
    }
}
