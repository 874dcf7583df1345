//! Wavelengths and the WDM channel grid carried by an ONN waveguide.

use crate::PhotonicsError;

/// A wavelength expressed in nanometres.
///
/// A thin newtype so that wavelengths cannot be confused with temperatures,
/// powers or transmissions in the simulator's many `f64`-valued interfaces.
///
/// # Example
///
/// ```
/// use safelight_photonics::Nanometers;
///
/// let lambda = Nanometers::new(1550.0);
/// assert_eq!(lambda.value(), 1550.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanometers(f64);

impl Nanometers {
    /// Creates a wavelength from a value in nanometres.
    #[must_use]
    pub fn new(nm: f64) -> Self {
        Self(nm)
    }

    /// Returns the wavelength in nanometres.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl From<f64> for Nanometers {
    fn from(nm: f64) -> Self {
        Self(nm)
    }
}

impl std::fmt::Display for Nanometers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} nm", self.0)
    }
}

/// The comb of evenly spaced WDM carrier wavelengths in one waveguide.
///
/// A non-coherent ONN multiplexes one multiplication per channel; the number
/// of channels equals the number of columns of a microring bank (paper
/// §II.B). The paper's thermal attack (Fig. 5) works precisely because the
/// channels are *evenly spaced*: a uniform thermal red-shift of one channel
/// spacing slides every microring onto its neighbour's carrier.
///
/// # Example
///
/// ```
/// use safelight_photonics::WdmGrid;
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let grid = WdmGrid::c_band(4)?;
/// assert_eq!(grid.channels(), 4);
/// let spacing = grid.channel_spacing_nm();
/// let l0 = grid.channel_wavelength(0)?.value();
/// let l1 = grid.channel_wavelength(1)?.value();
/// assert!((l1 - l0 - spacing).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WdmGrid {
    start_nm: f64,
    spacing_nm: f64,
    channels: usize,
}

/// Conventional 100 GHz DWDM channel spacing near 1550 nm, in nanometres.
pub const DWDM_100GHZ_SPACING_NM: f64 = 0.8;

/// Start of the simulated C-band comb used by [`WdmGrid::c_band`].
pub const C_BAND_START_NM: f64 = 1546.0;

impl WdmGrid {
    /// Creates a grid of `channels` carriers starting at `start_nm` with
    /// uniform `spacing_nm`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::EmptyGrid`] when `channels == 0`, and
    /// [`PhotonicsError::InvalidParameter`] when `start_nm` or `spacing_nm`
    /// is not a positive finite number.
    pub fn new(start_nm: f64, spacing_nm: f64, channels: usize) -> Result<Self, PhotonicsError> {
        if channels == 0 {
            return Err(PhotonicsError::EmptyGrid);
        }
        if !start_nm.is_finite() || start_nm <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "start_nm",
                value: start_nm,
            });
        }
        if !spacing_nm.is_finite() || spacing_nm <= 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "spacing_nm",
                value: spacing_nm,
            });
        }
        Ok(Self {
            start_nm,
            spacing_nm,
            channels,
        })
    }

    /// Creates a C-band grid with the conventional 100 GHz (0.8 nm) spacing.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::EmptyGrid`] when `channels == 0`.
    pub fn c_band(channels: usize) -> Result<Self, PhotonicsError> {
        Self::new(C_BAND_START_NM, DWDM_100GHZ_SPACING_NM, channels)
    }

    /// Number of channels in the grid.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Uniform spacing between adjacent carriers, in nanometres.
    #[must_use]
    pub fn channel_spacing_nm(&self) -> f64 {
        self.spacing_nm
    }

    /// Carrier wavelength of channel `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::ChannelOutOfRange`] when `channel` is not
    /// below [`Self::channels`].
    pub fn channel_wavelength(&self, channel: usize) -> Result<Nanometers, PhotonicsError> {
        if channel >= self.channels {
            return Err(PhotonicsError::ChannelOutOfRange {
                channel,
                channels: self.channels,
            });
        }
        Ok(Nanometers::new(
            self.start_nm + self.spacing_nm * channel as f64,
        ))
    }

    /// The channel whose carrier is closest to `wavelength`, or `None` when
    /// the wavelength falls more than half a spacing outside the comb.
    ///
    /// A microring red-shifted past the end of the comb "operates on an
    /// unsupported wavelength" in the paper's terms (Fig. 5), which this
    /// method reports as `None`.
    #[must_use]
    pub fn nearest_channel(&self, wavelength: Nanometers) -> Option<usize> {
        let offset = (wavelength.value() - self.start_nm) / self.spacing_nm;
        let idx = offset.round();
        if (offset - idx).abs() > 0.5 + 1e-9 {
            return None;
        }
        if idx < -0.25 || idx > (self.channels as f64 - 1.0) + 0.25 {
            return None;
        }
        let idx = idx as isize;
        if idx < 0 || idx as usize >= self.channels {
            None
        } else {
            Some(idx as usize)
        }
    }

    /// Iterates over all carrier wavelengths in channel order.
    pub fn iter(&self) -> impl Iterator<Item = Nanometers> + '_ {
        (0..self.channels).map(move |c| Nanometers::new(self.start_nm + self.spacing_nm * c as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rejects_zero_channels() {
        assert_eq!(WdmGrid::new(1550.0, 0.8, 0), Err(PhotonicsError::EmptyGrid));
    }

    #[test]
    fn grid_rejects_nonpositive_spacing() {
        assert!(matches!(
            WdmGrid::new(1550.0, 0.0, 4),
            Err(PhotonicsError::InvalidParameter {
                name: "spacing_nm",
                ..
            })
        ));
        assert!(matches!(
            WdmGrid::new(1550.0, -0.8, 4),
            Err(PhotonicsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn channel_wavelengths_are_evenly_spaced() {
        let g = WdmGrid::c_band(16).unwrap();
        for c in 1..16 {
            let prev = g.channel_wavelength(c - 1).unwrap().value();
            let cur = g.channel_wavelength(c).unwrap().value();
            assert!((cur - prev - DWDM_100GHZ_SPACING_NM).abs() < 1e-12);
        }
    }

    #[test]
    fn channel_out_of_range_is_reported() {
        let g = WdmGrid::c_band(4).unwrap();
        assert!(matches!(
            g.channel_wavelength(4),
            Err(PhotonicsError::ChannelOutOfRange {
                channel: 4,
                channels: 4
            })
        ));
    }

    #[test]
    fn nearest_channel_round_trips() {
        let g = WdmGrid::c_band(8).unwrap();
        for c in 0..8 {
            let l = g.channel_wavelength(c).unwrap();
            assert_eq!(g.nearest_channel(l), Some(c));
        }
    }

    #[test]
    fn nearest_channel_after_one_spacing_shift_is_the_neighbour() {
        // The Fig. 5 thermal slide: +1 spacing moves ring k onto channel k+1's
        // carrier; seen from the channels, channel k is now served by ring k-1.
        let g = WdmGrid::c_band(8).unwrap();
        let l3 = g.channel_wavelength(3).unwrap().value();
        let shifted = Nanometers::new(l3 + g.channel_spacing_nm());
        assert_eq!(g.nearest_channel(shifted), Some(4));
    }

    #[test]
    fn nearest_channel_off_comb_is_none() {
        let g = WdmGrid::c_band(4).unwrap();
        let last = g.channel_wavelength(3).unwrap().value();
        assert_eq!(g.nearest_channel(Nanometers::new(last + 2.0)), None);
        let first = g.channel_wavelength(0).unwrap().value();
        assert_eq!(g.nearest_channel(Nanometers::new(first - 2.0)), None);
    }

    #[test]
    fn iter_matches_indexing() {
        let g = WdmGrid::c_band(5).unwrap();
        let via_iter: Vec<f64> = g.iter().map(Nanometers::value).collect();
        let via_index: Vec<f64> = (0..5)
            .map(|c| g.channel_wavelength(c).unwrap().value())
            .collect();
        assert_eq!(via_iter, via_index);
    }
}
