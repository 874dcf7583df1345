//! Peripheral tuning circuits: electro-optic (EO) and thermo-optic (TO).
//!
//! Per the paper's §II.B, every microring carries two peripheral circuits —
//! a signal-modulation circuit and a bias/tuning circuit — realized either
//! electro-optically (fast, low power, small range) or thermo-optically
//! (slow, power hungry, full-FSR range). Both are attack surfaces: actuation
//! HTs subvert the EO modulation path, hotspot HTs subvert the TO heaters.

use crate::constants::SiliconProperties;
use crate::PhotonicsError;

/// The physical mechanism of a tuning circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningKind {
    /// Carrier-injection electro-optic tuning: nanosecond response,
    /// ~4 µW/nm, but a tuning range limited to a fraction of a nanometre.
    ElectroOptic,
    /// Thermo-optic tuning via an integrated heater: microsecond response,
    /// ~27 mW per free spectral range, full-FSR range.
    ThermoOptic,
}

/// Latency and power consumed by a tuning operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TuningBudget {
    /// Settling latency in nanoseconds.
    pub latency_ns: f64,
    /// Static power draw in milliwatts while the shift is held.
    pub power_mw: f64,
}

/// A peripheral circuit that biases a microring's resonance.
///
/// # Example
///
/// ```
/// use safelight_photonics::{TuningCircuit, TuningKind};
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let eo = TuningCircuit::new(TuningKind::ElectroOptic)?;
/// let budget = eo.budget_for_shift(0.2)?; // 0.2 nm bias
/// assert!(budget.latency_ns < 10.0);      // EO settles in nanoseconds
///
/// let to = TuningCircuit::new(TuningKind::ThermoOptic)?;
/// assert!(to.budget_for_shift(4.0)?.power_mw > 1.0); // heaters are hungry
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TuningCircuit {
    kind: TuningKind,
    max_shift_nm: f64,
    latency_ns: f64,
    /// Power per nanometre of shift, in milliwatts.
    power_mw_per_nm: f64,
}

/// Free spectral range assumed when quoting the paper's "27 mW/FSR" TO
/// power figure, in nanometres (default 10 µm-radius ring near 1550 nm).
const REFERENCE_FSR_NM: f64 = 9.1;

impl TuningCircuit {
    /// Creates a tuning circuit of the given kind with the paper's cited
    /// latency/power/range characteristics (§II.B).
    ///
    /// # Errors
    ///
    /// Currently infallible for the built-in kinds; returns an error only if
    /// internal parameters are invalid (kept for forward compatibility).
    pub fn new(kind: TuningKind) -> Result<Self, PhotonicsError> {
        let circuit = match kind {
            TuningKind::ElectroOptic => Self {
                kind,
                // Carrier injection covers only a fraction of a channel.
                max_shift_nm: 0.4,
                latency_ns: 2.0,
                // ≈4 µW/nm.
                power_mw_per_nm: 4.0e-3,
            },
            TuningKind::ThermoOptic => Self {
                kind,
                max_shift_nm: REFERENCE_FSR_NM,
                latency_ns: 4_000.0,
                // ≈27 mW per FSR.
                power_mw_per_nm: 27.0 / REFERENCE_FSR_NM,
            },
        };
        Ok(circuit)
    }

    /// The mechanism of this circuit.
    #[must_use]
    pub fn kind(&self) -> TuningKind {
        self.kind
    }

    /// Largest resonance shift this circuit can apply, in nanometres.
    #[must_use]
    pub fn max_shift_nm(&self) -> f64 {
        self.max_shift_nm
    }

    /// Latency and power needed to hold a resonance shift of `shift_nm`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::TuningRangeExceeded`] when the magnitude of
    /// `shift_nm` exceeds [`Self::max_shift_nm`], mirroring the EO circuit's
    /// limited range that the paper notes "cannot be used for large tuning
    /// ranges".
    pub fn budget_for_shift(&self, shift_nm: f64) -> Result<TuningBudget, PhotonicsError> {
        if !shift_nm.is_finite() {
            return Err(PhotonicsError::InvalidParameter {
                name: "shift_nm",
                value: shift_nm,
            });
        }
        if shift_nm.abs() > self.max_shift_nm {
            return Err(PhotonicsError::TuningRangeExceeded {
                requested_nm: shift_nm,
                max_nm: self.max_shift_nm,
            });
        }
        Ok(TuningBudget {
            latency_ns: self.latency_ns,
            power_mw: self.power_mw_per_nm * shift_nm.abs(),
        })
    }
}

/// Thermo-optic resonance shift of eq. (2):
/// `Δλ_MR = Γ_Si · (δn_Si/δT) · λ_MR / n_g · ΔT`.
///
/// Free function form used by attack models that compute shifts for many
/// rings from a temperature field without materializing device objects.
///
/// # Example
///
/// ```
/// use safelight_photonics::{thermal_resonance_shift_nm, SiliconProperties};
///
/// let si = SiliconProperties::default();
/// let shift = thermal_resonance_shift_nm(&si, 1550.0, 15.0);
/// assert!((shift - 0.823).abs() < 0.01); // ≈ one 0.8 nm channel spacing
/// ```
#[must_use]
pub fn thermal_resonance_shift_nm(
    silicon: &SiliconProperties,
    wavelength_nm: f64,
    delta_kelvin: f64,
) -> f64 {
    silicon.resonance_shift_per_kelvin_nm(wavelength_nm) * delta_kelvin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eo_is_fast_and_frugal() {
        let eo = TuningCircuit::new(TuningKind::ElectroOptic).unwrap();
        let b = eo.budget_for_shift(0.3).unwrap();
        assert!(b.latency_ns < 10.0);
        assert!(b.power_mw < 0.01);
    }

    #[test]
    fn to_is_slow_and_hungry_but_wide() {
        let to = TuningCircuit::new(TuningKind::ThermoOptic).unwrap();
        assert!(to.max_shift_nm() > 5.0);
        let b = to.budget_for_shift(REFERENCE_FSR_NM).unwrap();
        assert!(b.latency_ns > 1_000.0);
        assert!((b.power_mw - 27.0).abs() < 1e-9);
    }

    #[test]
    fn eo_range_is_enforced() {
        let eo = TuningCircuit::new(TuningKind::ElectroOptic).unwrap();
        assert!(matches!(
            eo.budget_for_shift(2.0),
            Err(PhotonicsError::TuningRangeExceeded { .. })
        ));
    }

    #[test]
    fn shift_is_symmetric_in_sign() {
        let to = TuningCircuit::new(TuningKind::ThermoOptic).unwrap();
        let up = to.budget_for_shift(1.5).unwrap();
        let down = to.budget_for_shift(-1.5).unwrap();
        assert_eq!(up, down);
    }

    #[test]
    fn eq2_shift_matches_slope_times_dt() {
        let si = SiliconProperties::default();
        let slope = si.resonance_shift_per_kelvin_nm(1550.0);
        let got = thermal_resonance_shift_nm(&si, 1550.0, 20.0);
        assert!((got - 20.0 * slope).abs() < 1e-12);
    }
}
