//! Multi-wavelength laser source feeding the accelerator's waveguides.

use crate::wavelength::WdmGrid;
use crate::PhotonicsError;

/// A comb laser emitting equal power on every channel of a [`WdmGrid`].
///
/// # Example
///
/// ```
/// use safelight_photonics::{Laser, WdmGrid};
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let grid = WdmGrid::c_band(4)?;
/// let laser = Laser::new(grid, 1.0)?; // 1 mW per channel
/// assert_eq!(laser.channel_powers_mw().len(), 4);
/// assert!((laser.total_power_mw() - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Laser {
    grid: WdmGrid,
    power_per_channel_mw: f64,
    wall_plug_efficiency: f64,
}

impl Laser {
    /// Creates a comb laser over `grid` with `power_per_channel_mw` per line.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] when the power is not a
    /// positive finite number.
    pub fn new(grid: WdmGrid, power_per_channel_mw: f64) -> Result<Self, PhotonicsError> {
        if !power_per_channel_mw.is_finite() || power_per_channel_mw <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "power_per_channel_mw",
                value: power_per_channel_mw,
            });
        }
        Ok(Self {
            grid,
            power_per_channel_mw,
            wall_plug_efficiency: 0.2,
        })
    }

    /// Overrides the wall-plug efficiency used for electrical power figures.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] unless `0 < η ≤ 1`.
    pub fn with_wall_plug_efficiency(mut self, eta: f64) -> Result<Self, PhotonicsError> {
        if !eta.is_finite() || eta <= 0.0 || eta > 1.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "wall_plug_efficiency",
                value: eta,
            });
        }
        self.wall_plug_efficiency = eta;
        Ok(self)
    }

    /// The WDM grid this laser emits on.
    #[must_use]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    /// Optical power per channel in milliwatts.
    #[must_use]
    pub fn power_per_channel_mw(&self) -> f64 {
        self.power_per_channel_mw
    }

    /// Per-channel launch powers, in channel order.
    #[must_use]
    pub fn channel_powers_mw(&self) -> Vec<f64> {
        vec![self.power_per_channel_mw; self.grid.channels()]
    }

    /// Total optical output power in milliwatts.
    #[must_use]
    pub fn total_power_mw(&self) -> f64 {
        self.power_per_channel_mw * self.grid.channels() as f64
    }

    /// Electrical power drawn, given the wall-plug efficiency, in milliwatts.
    #[must_use]
    pub fn electrical_power_mw(&self) -> f64 {
        self.total_power_mw() / self.wall_plug_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laser_power_scales_with_channel_count() {
        let l4 = Laser::new(WdmGrid::c_band(4).unwrap(), 0.5).unwrap();
        let l8 = Laser::new(WdmGrid::c_band(8).unwrap(), 0.5).unwrap();
        assert!((l8.total_power_mw() - 2.0 * l4.total_power_mw()).abs() < 1e-12);
    }

    #[test]
    fn electrical_power_exceeds_optical_power() {
        let l = Laser::new(WdmGrid::c_band(4).unwrap(), 1.0).unwrap();
        assert!(l.electrical_power_mw() > l.total_power_mw());
    }

    #[test]
    fn invalid_efficiency_is_rejected() {
        let l = Laser::new(WdmGrid::c_band(1).unwrap(), 1.0).unwrap();
        assert!(l.clone().with_wall_plug_efficiency(0.0).is_err());
        assert!(l.with_wall_plug_efficiency(1.5).is_err());
    }
}
