//! Physical constants and silicon material properties used across the crate.

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT_M_PER_S: f64 = 299_792_458.0;

/// Thermo-optic coefficient of silicon, `δn_Si/δT`, per kelvin.
///
/// This is the value commonly used for crystalline silicon near 1550 nm and
/// room temperature, and the quantity appearing in eq. (2) of the SafeLight
/// paper.
pub const DEFAULT_THERMO_OPTIC_COEFF: f64 = 1.86e-4;

/// Group refractive index `n_g` of a typical silicon strip waveguide.
pub const DEFAULT_GROUP_INDEX: f64 = 4.2;

/// Modal confinement factor `Γ_Si` of the microring core.
pub const DEFAULT_SI_CONFINEMENT: f64 = 0.8;

/// Effective refractive index `n_eff` of a typical silicon strip waveguide
/// near 1550 nm.
pub const DEFAULT_EFFECTIVE_INDEX: f64 = 2.4;

/// Material and modal properties of the silicon waveguide platform.
///
/// Bundles the three quantities entering the thermo-optic resonance shift of
/// the paper's eq. (2),
/// `Δλ_MR = Γ_Si · (δn_Si/δT) · λ_MR / n_g · ΔT`,
/// plus the effective index used by the resonance condition of eq. (1).
///
/// # Example
///
/// ```
/// use safelight_photonics::SiliconProperties;
///
/// let si = SiliconProperties::default();
/// // ~0.055 nm of red-shift per kelvin at 1550 nm.
/// let shift = si.resonance_shift_per_kelvin_nm(1550.0);
/// assert!((shift - 0.0549).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiliconProperties {
    /// Thermo-optic coefficient `δn_Si/δT` in 1/K.
    pub thermo_optic_coeff: f64,
    /// Group refractive index `n_g` (dimensionless).
    pub group_index: f64,
    /// Modal confinement factor `Γ_Si` in the silicon core (0..=1).
    pub confinement: f64,
    /// Effective refractive index `n_eff` (dimensionless).
    pub effective_index: f64,
}

impl Default for SiliconProperties {
    fn default() -> Self {
        Self {
            thermo_optic_coeff: DEFAULT_THERMO_OPTIC_COEFF,
            group_index: DEFAULT_GROUP_INDEX,
            confinement: DEFAULT_SI_CONFINEMENT,
            effective_index: DEFAULT_EFFECTIVE_INDEX,
        }
    }
}

impl SiliconProperties {
    /// Resonance red-shift in nanometres produced by a 1 K temperature rise
    /// for a ring resonant at `wavelength_nm` (the `Δλ/ΔT` slope of eq. 2).
    #[must_use]
    pub fn resonance_shift_per_kelvin_nm(&self, wavelength_nm: f64) -> f64 {
        self.confinement * self.thermo_optic_coeff * wavelength_nm / self.group_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_slope_matches_hand_computation() {
        let si = SiliconProperties::default();
        let expected = 0.8 * 1.86e-4 * 1550.0 / 4.2;
        assert!((si.resonance_shift_per_kelvin_nm(1550.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn shift_scales_linearly_with_wavelength() {
        let si = SiliconProperties::default();
        let a = si.resonance_shift_per_kelvin_nm(1550.0);
        let b = si.resonance_shift_per_kelvin_nm(3100.0);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }
}
