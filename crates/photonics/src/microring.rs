//! Add-drop microring resonator (MR) model.
//!
//! The microring is the workhorse of non-coherent ONN accelerators: each MR
//! in a bank is tuned to one WDM carrier and imprints one operand (an input
//! activation or a weight) onto that carrier's amplitude. This module models
//!
//! * the resonance condition of the paper's eq. (1),
//!   `λ_MR = 2πR·n_eff / m`;
//! * a Lorentzian through/drop transfer function parameterized by quality
//!   factor and extinction ratio;
//! * operand imprinting by resonance detuning (the signal-modulation circuit
//!   of §II.B);
//! * thermo-optic resonance shifts per eq. (2) — the physical channel
//!   through which hotspot attacks corrupt computations;
//! * the "parked off-resonance" failure state that an actuation-attack HT
//!   forces (§III.B.1).

use crate::constants::SiliconProperties;
use crate::wavelength::{Nanometers, WdmGrid};
use crate::PhotonicsError;

/// Geometric and optical parameters of a microring resonator.
///
/// # Example
///
/// ```
/// use safelight_photonics::MicroringGeometry;
///
/// let g = MicroringGeometry::default();
/// // Eq. (1): λ_MR = 2πR·n_eff/m, near the C band for the default geometry.
/// let lambda = g.resonance_for_order(g.order_near(1550.0));
/// assert!((lambda.value() - 1550.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroringGeometry {
    /// Ring radius in micrometres.
    pub radius_um: f64,
    /// Loaded quality factor; sets the Lorentzian linewidth `FWHM = λ/Q`.
    pub q_factor: f64,
    /// Through-port transmission at exact resonance (extinction floor),
    /// e.g. `0.01` for a 20 dB extinction ratio.
    pub extinction_floor: f64,
    /// Maximum detuning (in units of the channel spacing) that the signal
    /// modulation circuit may apply when imprinting an operand. Bounded well
    /// below one spacing so that an imprinting ring does not capture its
    /// neighbour's carrier.
    pub max_imprint_detuning_rel: f64,
    /// Silicon platform properties (thermo-optics, indices).
    pub silicon: SiliconProperties,
}

impl Default for MicroringGeometry {
    fn default() -> Self {
        Self {
            radius_um: 10.0,
            q_factor: 7750.0,
            extinction_floor: 0.01,
            max_imprint_detuning_rel: 0.35,
            silicon: SiliconProperties::default(),
        }
    }
}

impl MicroringGeometry {
    /// Resonance wavelength for azimuthal order `m` per the paper's eq. (1).
    #[must_use]
    pub fn resonance_for_order(&self, m: u32) -> Nanometers {
        let circumference_nm = 2.0 * std::f64::consts::PI * self.radius_um * 1e3;
        Nanometers::new(circumference_nm * self.silicon.effective_index / f64::from(m.max(1)))
    }

    /// The azimuthal order whose resonance lies closest to `target_nm`.
    #[must_use]
    pub fn order_near(&self, target_nm: f64) -> u32 {
        let circumference_nm = 2.0 * std::f64::consts::PI * self.radius_um * 1e3;
        let m = (circumference_nm * self.silicon.effective_index / target_nm).round();
        if m < 1.0 {
            1
        } else {
            m as u32
        }
    }

    /// Free spectral range near `wavelength_nm`, `FSR = λ²/(n_g·2πR)`.
    #[must_use]
    pub fn free_spectral_range_nm(&self, wavelength_nm: f64) -> f64 {
        let circumference_nm = 2.0 * std::f64::consts::PI * self.radius_um * 1e3;
        wavelength_nm * wavelength_nm / (self.silicon.group_index * circumference_nm)
    }

    fn validate(&self) -> Result<(), PhotonicsError> {
        if !self.radius_um.is_finite() || self.radius_um <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "radius_um",
                value: self.radius_um,
            });
        }
        if !self.q_factor.is_finite() || self.q_factor <= 1.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "q_factor",
                value: self.q_factor,
            });
        }
        if !self.extinction_floor.is_finite()
            || self.extinction_floor <= 0.0
            || self.extinction_floor >= 1.0
        {
            return Err(PhotonicsError::InvalidParameter {
                name: "extinction_floor",
                value: self.extinction_floor,
            });
        }
        if !self.max_imprint_detuning_rel.is_finite()
            || self.max_imprint_detuning_rel <= 0.0
            || self.max_imprint_detuning_rel >= 0.5
        {
            return Err(PhotonicsError::InvalidParameter {
                name: "max_imprint_detuning_rel",
                value: self.max_imprint_detuning_rel,
            });
        }
        Ok(())
    }
}

/// Operational state of a microring's peripheral circuitry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MicroringState {
    /// Tuning and modulation circuits behave nominally.
    #[default]
    Operational,
    /// An actuation-attack hardware trojan has hijacked the modulation
    /// circuit and parked the ring at the modulator's maximum detuning — the
    /// most transparent state the EO circuit can reach. The ring is "no
    /// longer tuned to function at the intended wavelength" (§III.B.1): its
    /// own carrier passes almost unattenuated regardless of the operand that
    /// should have been imprinted.
    ParkedOffResonance,
}

/// An add-drop microring resonator assigned to one WDM channel.
///
/// The ring's *effective* resonance is the sum of its fabricated resonance,
/// the operand-imprint detuning applied by the modulation circuit, and any
/// thermo-optic shift (eq. 2):
///
/// ```text
/// λ_eff = λ_base + δ_imprint + Δλ_thermal
/// ```
///
/// # Example
///
/// A hotspot attack that heats the ring by one channel spacing makes it
/// respond to its *neighbour's* carrier (Fig. 5 of the paper):
///
/// ```
/// use safelight_photonics::{Microring, WdmGrid};
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let grid = WdmGrid::c_band(8)?;
/// let mut ring = Microring::for_channel(&grid, 2)?;
/// ring.imprint_transmission(0.2)?;
///
/// let own = grid.channel_wavelength(2)?;
/// assert!(ring.through_transmission(own) < 0.25);
///
/// // ΔT large enough to shift the resonance by one channel spacing:
/// let dt = grid.channel_spacing_nm() / ring.thermal_shift_per_kelvin_nm();
/// ring.set_temperature_delta(dt);
/// // The ring no longer modulates its own carrier ...
/// assert!(ring.through_transmission(own) > 0.9);
/// // ... and instead crushes the neighbouring channel.
/// let neighbour = grid.channel_wavelength(3)?;
/// assert!(ring.through_transmission(neighbour) < 0.3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Microring {
    geometry: MicroringGeometry,
    /// Fabricated (trimmed) resonance — aligned with the assigned carrier.
    base_resonance_nm: f64,
    /// Carrier wavelength this ring is assigned to.
    carrier_nm: f64,
    /// Channel spacing of the owning grid (bounds imprint detuning).
    channel_spacing_nm: f64,
    /// Detuning applied by the modulation circuit to imprint an operand.
    imprint_detuning_nm: f64,
    /// Thermo-optic shift accumulated from the current temperature delta.
    thermal_shift_nm: f64,
    state: MicroringState,
}

impl Microring {
    /// Builds a ring trimmed to resonate exactly on `channel` of `grid`.
    ///
    /// The fabricated resonance from eq. (1) is first snapped to the nearest
    /// azimuthal order and the residual is absorbed by trimming, which is how
    /// fabricated banks are calibrated in practice.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::ChannelOutOfRange`] for a bad channel index.
    pub fn for_channel(grid: &WdmGrid, channel: usize) -> Result<Self, PhotonicsError> {
        Self::with_geometry(MicroringGeometry::default(), grid, channel)
    }

    /// Builds a ring with explicit `geometry`, trimmed onto `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] when the geometry is
    /// unphysical and [`PhotonicsError::ChannelOutOfRange`] for a bad
    /// channel index.
    pub fn with_geometry(
        geometry: MicroringGeometry,
        grid: &WdmGrid,
        channel: usize,
    ) -> Result<Self, PhotonicsError> {
        geometry.validate()?;
        let carrier = grid.channel_wavelength(channel)?;
        Ok(Self {
            geometry,
            base_resonance_nm: carrier.value(),
            carrier_nm: carrier.value(),
            channel_spacing_nm: grid.channel_spacing_nm(),
            imprint_detuning_nm: 0.0,
            thermal_shift_nm: 0.0,
            state: MicroringState::Operational,
        })
    }

    /// The ring's geometry.
    #[must_use]
    pub fn geometry(&self) -> &MicroringGeometry {
        &self.geometry
    }

    /// The carrier wavelength this ring is assigned to.
    #[must_use]
    pub fn carrier(&self) -> Nanometers {
        Nanometers::new(self.carrier_nm)
    }

    /// Current operational state.
    #[must_use]
    pub fn state(&self) -> MicroringState {
        self.state
    }

    /// Sets the operational state (used by attack injectors).
    pub fn set_state(&mut self, state: MicroringState) {
        self.state = state;
    }

    /// Lorentzian full width at half maximum, `FWHM = λ/Q`, in nanometres.
    #[must_use]
    pub fn fwhm_nm(&self) -> f64 {
        self.base_resonance_nm / self.geometry.q_factor
    }

    /// Thermo-optic resonance shift per kelvin (the slope of eq. 2).
    #[must_use]
    pub fn thermal_shift_per_kelvin_nm(&self) -> f64 {
        self.geometry
            .silicon
            .resonance_shift_per_kelvin_nm(self.base_resonance_nm)
    }

    /// Applies a temperature delta `ΔT` (kelvin above the calibrated
    /// operating point), red-shifting the resonance per eq. (2).
    pub fn set_temperature_delta(&mut self, delta_kelvin: f64) {
        self.thermal_shift_nm = self.thermal_shift_per_kelvin_nm() * delta_kelvin;
    }

    /// The currently applied thermo-optic shift in nanometres.
    #[must_use]
    pub fn thermal_shift_nm(&self) -> f64 {
        self.thermal_shift_nm
    }

    /// Effective resonance wavelength including imprint and thermal shifts.
    ///
    /// When the ring is [`MicroringState::ParkedOffResonance`] the imprint
    /// detuning is stuck at the modulation circuit's maximum (the EO range
    /// is far smaller than a free spectral range, so this is the most
    /// transparent state an actuation trojan can force); thermal shifts
    /// still apply on top.
    #[must_use]
    pub fn resonance_wavelength(&self) -> Nanometers {
        let imprint = match self.state {
            MicroringState::Operational => self.imprint_detuning_nm,
            MicroringState::ParkedOffResonance => {
                self.geometry.max_imprint_detuning_rel * self.channel_spacing_nm
            }
        };
        Nanometers::new(self.base_resonance_nm + imprint + self.thermal_shift_nm)
    }

    /// Smallest through-port transmission the ring can imprint (at `δ = 0`).
    #[must_use]
    pub fn min_transmission(&self) -> f64 {
        self.geometry.extinction_floor
    }

    /// Largest through-port transmission the modulation circuit can imprint,
    /// reached at the maximum allowed detuning.
    #[must_use]
    pub fn max_transmission(&self) -> f64 {
        let delta = self.geometry.max_imprint_detuning_rel * self.channel_spacing_nm;
        self.lorentzian_through(delta)
    }

    /// Through-port transmission at `wavelength` given the current state.
    #[must_use]
    pub fn through_transmission(&self, wavelength: Nanometers) -> f64 {
        let delta = wavelength.value() - self.resonance_wavelength().value();
        self.lorentzian_through(delta)
    }

    /// Drop-port transmission at `wavelength` (complement of the through
    /// port up to the extinction floor).
    #[must_use]
    pub fn drop_transmission(&self, wavelength: Nanometers) -> f64 {
        1.0 - self.through_transmission(wavelength)
    }

    /// Tunes the modulation circuit so the through port passes exactly
    /// `transmission` of the assigned carrier's power.
    ///
    /// This is the *imprint* operation of Fig. 1(c): the ONN encodes a
    /// normalized operand as a transmission in
    /// `[`[`Self::min_transmission`]`, `[`Self::max_transmission`]`]`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::TransmissionOutOfRange`] when `transmission`
    /// is outside the realizable interval.
    pub fn imprint_transmission(&mut self, transmission: f64) -> Result<(), PhotonicsError> {
        let t_min = self.min_transmission();
        let t_max = self.max_transmission();
        if !(t_min..=t_max).contains(&transmission) {
            return Err(PhotonicsError::TransmissionOutOfRange {
                requested: transmission,
                min: t_min,
            });
        }
        self.imprint_detuning_nm = self.detuning_for_transmission(transmission);
        Ok(())
    }

    /// The detuning (nm, red side) at which the through port transmits
    /// `transmission`; the inverse of the Lorentzian transfer.
    ///
    /// Saturates at the modulation circuit's maximum detuning; callers should
    /// validate the operand against [`Self::max_transmission`] first (as
    /// [`Self::imprint_transmission`] does).
    #[must_use]
    pub fn detuning_for_transmission(&self, transmission: f64) -> f64 {
        let t_min = self.geometry.extinction_floor;
        let t = transmission.clamp(t_min, 1.0 - 1e-12);
        // T(δ) = 1 − (1 − t_min)/(1 + (2δ/FWHM)²)  ⇒  solve for δ ≥ 0.
        let ratio = (1.0 - t_min) / (1.0 - t) - 1.0;
        let delta = 0.5 * self.fwhm_nm() * ratio.max(0.0).sqrt();
        let max = self.geometry.max_imprint_detuning_rel * self.channel_spacing_nm;
        delta.min(max)
    }

    /// The Lorentzian through-port response at detuning `delta_nm` from the
    /// effective resonance.
    fn lorentzian_through(&self, delta_nm: f64) -> f64 {
        let t_min = self.geometry.extinction_floor;
        let x = 2.0 * delta_nm / self.fwhm_nm();
        1.0 - (1.0 - t_min) / (1.0 + x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> WdmGrid {
        WdmGrid::c_band(8).unwrap()
    }

    #[test]
    fn resonance_order_is_physical() {
        let g = MicroringGeometry::default();
        let m = g.order_near(1550.0);
        // 2π·10 µm · 2.4 / 1550 nm ≈ 97.3
        assert!((90..=105).contains(&m), "order {m} not plausible");
    }

    #[test]
    fn eq1_resonance_matches_formula() {
        let g = MicroringGeometry::default();
        let m = 97;
        let expected = 2.0 * std::f64::consts::PI * 10.0e3 * 2.4 / 97.0;
        assert!((g.resonance_for_order(m).value() - expected).abs() < 1e-9);
    }

    #[test]
    fn fsr_near_nine_nanometres_for_default_geometry() {
        let g = MicroringGeometry::default();
        let fsr = g.free_spectral_range_nm(1550.0);
        assert!((8.0..12.0).contains(&fsr), "FSR {fsr} nm not plausible");
    }

    #[test]
    fn transmission_at_resonance_is_extinction_floor() {
        let ring = Microring::for_channel(&grid(), 0).unwrap();
        let t = ring.through_transmission(ring.carrier());
        assert!((t - ring.min_transmission()).abs() < 1e-12);
    }

    #[test]
    fn transmission_far_from_resonance_approaches_unity() {
        let ring = Microring::for_channel(&grid(), 0).unwrap();
        let far = Nanometers::new(ring.carrier().value() + 4.0);
        assert!(ring.through_transmission(far) > 0.995);
    }

    #[test]
    fn through_plus_drop_is_unity() {
        let ring = Microring::for_channel(&grid(), 2).unwrap();
        for d in [-0.5, -0.1, 0.0, 0.05, 0.3, 1.0] {
            let l = Nanometers::new(ring.carrier().value() + d);
            let sum = ring.through_transmission(l) + ring.drop_transmission(l);
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn imprint_round_trips_across_the_range() {
        let mut ring = Microring::for_channel(&grid(), 3).unwrap();
        let (lo, hi) = (ring.min_transmission(), ring.max_transmission());
        for i in 0..=20 {
            let t = lo + (hi - lo) * (i as f64) / 20.0;
            ring.imprint_transmission(t).unwrap();
            let got = ring.through_transmission(ring.carrier());
            assert!((got - t).abs() < 1e-9, "imprint {t} read back {got}");
        }
    }

    #[test]
    fn imprint_out_of_range_is_rejected() {
        let mut ring = Microring::for_channel(&grid(), 3).unwrap();
        let err = ring.imprint_transmission(0.9999).unwrap_err();
        assert!(matches!(err, PhotonicsError::TransmissionOutOfRange { .. }));
        let err = ring.imprint_transmission(0.0).unwrap_err();
        assert!(matches!(err, PhotonicsError::TransmissionOutOfRange { .. }));
    }

    #[test]
    fn parked_ring_is_maximally_transparent() {
        let g = grid();
        let mut ring = Microring::for_channel(&g, 4).unwrap();
        ring.imprint_transmission(0.05).unwrap();
        ring.set_state(MicroringState::ParkedOffResonance);
        // Its own carrier now passes at the modulator's maximum transmission,
        // independent of the operand that was imprinted before the attack.
        let own = g.channel_wavelength(4).unwrap();
        assert!((ring.through_transmission(own) - ring.max_transmission()).abs() < 1e-12);
        // And no channel of the comb is strongly modulated any more.
        for l in g.iter() {
            assert!(
                ring.through_transmission(l) > 0.85,
                "parked ring crushes {l}"
            );
        }
    }

    #[test]
    fn one_spacing_thermal_shift_captures_the_neighbour_channel() {
        let g = grid();
        let mut ring = Microring::for_channel(&g, 2).unwrap();
        ring.imprint_transmission(ring.min_transmission()).unwrap();
        let dt = g.channel_spacing_nm() / ring.thermal_shift_per_kelvin_nm();
        ring.set_temperature_delta(dt);
        let own = g.channel_wavelength(2).unwrap();
        let neighbour = g.channel_wavelength(3).unwrap();
        assert!(ring.through_transmission(own) > 0.9);
        assert!(ring.through_transmission(neighbour) < 0.05);
    }

    #[test]
    fn one_channel_shift_needs_about_fifteen_kelvin() {
        let g = grid();
        let ring = Microring::for_channel(&g, 0).unwrap();
        let dt = g.channel_spacing_nm() / ring.thermal_shift_per_kelvin_nm();
        assert!((12.0..18.0).contains(&dt), "ΔT for one channel = {dt} K");
    }

    #[test]
    fn crosstalk_on_adjacent_channel_is_small_when_untuned() {
        let g = grid();
        let mut ring = Microring::for_channel(&g, 2).unwrap();
        ring.imprint_transmission(ring.min_transmission()).unwrap();
        let neighbour = g.channel_wavelength(3).unwrap();
        assert!(ring.through_transmission(neighbour) > 0.98);
    }

    #[test]
    fn detuning_saturates_at_modulator_range() {
        let ring = Microring::for_channel(&grid(), 1).unwrap();
        let max = ring.geometry().max_imprint_detuning_rel * 0.8;
        assert!(ring.detuning_for_transmission(0.999_999) <= max + 1e-12);
    }
}
