//! Data converters between the digital control plane and the analog
//! photonic datapath (Fig. 2(e)/(f)/(h) of the paper).
//!
//! DAC arrays turn buffered digital parameters into analog tuning signals
//! for the microrings; ADC arrays digitize the photodetector outputs. Both
//! quantize, and both are themselves known HT attack surfaces (§II.C cites
//! DAC and ADC trojan literature); this module provides the clean devices
//! that attack models can wrap.

use crate::PhotonicsError;

fn check_bits(bits: u8) -> Result<(), PhotonicsError> {
    if bits == 0 || bits > 24 {
        return Err(PhotonicsError::InvalidParameter {
            name: "bits",
            value: f64::from(bits),
        });
    }
    Ok(())
}

fn check_range(lo: f64, hi: f64) -> Result<(), PhotonicsError> {
    if !lo.is_finite() || !hi.is_finite() || hi <= lo {
        return Err(PhotonicsError::InvalidParameter {
            name: "range",
            value: hi - lo,
        });
    }
    Ok(())
}

/// A uniform digital-to-analog converter.
///
/// # Example
///
/// ```
/// use safelight_photonics::Dac;
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let dac = Dac::new(8, 0.0, 1.0)?;
/// let y = dac.convert(0.5);
/// assert!((y - 0.5).abs() < dac.lsb()); // within one LSB
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dac {
    bits: u8,
    lo: f64,
    hi: f64,
}

impl Dac {
    /// Creates a `bits`-bit DAC spanning `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] when `bits` is zero or
    /// above 24, or when the range is empty or non-finite.
    pub fn new(bits: u8, lo: f64, hi: f64) -> Result<Self, PhotonicsError> {
        check_bits(bits)?;
        check_range(lo, hi)?;
        Ok(Self { bits, lo, hi })
    }

    /// Resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// One least-significant-bit step in output units.
    #[must_use]
    pub fn lsb(&self) -> f64 {
        (self.hi - self.lo) / (f64::from(self.levels() - 1))
    }

    /// Number of quantization levels, `2^bits`.
    #[must_use]
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantizes `value` to the nearest representable level, clamping to the
    /// converter's range.
    #[must_use]
    pub fn convert(&self, value: f64) -> f64 {
        let clamped = value.clamp(self.lo, self.hi);
        let code = ((clamped - self.lo) / self.lsb()).round();
        self.lo + code * self.lsb()
    }
}

/// A uniform analog-to-digital converter.
///
/// Identical uniform-quantizer maths to [`Dac`], but `convert` additionally
/// exposes the digital code, which attack models on the readout path use.
///
/// # Example
///
/// ```
/// use safelight_photonics::Adc;
///
/// # fn main() -> Result<(), safelight_photonics::PhotonicsError> {
/// let adc = Adc::new(8, -1.0, 1.0)?;
/// let (code, value) = adc.convert(0.25);
/// assert!(code < adc.levels());
/// assert!((value - 0.25).abs() < adc.lsb());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u8,
    lo: f64,
    hi: f64,
}

impl Adc {
    /// Creates a `bits`-bit ADC spanning `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] when `bits` is zero or
    /// above 24, or when the range is empty or non-finite.
    pub fn new(bits: u8, lo: f64, hi: f64) -> Result<Self, PhotonicsError> {
        check_bits(bits)?;
        check_range(lo, hi)?;
        Ok(Self { bits, lo, hi })
    }

    /// Resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// One least-significant-bit step in input units.
    #[must_use]
    pub fn lsb(&self) -> f64 {
        (self.hi - self.lo) / (f64::from(self.levels() - 1))
    }

    /// Number of quantization levels, `2^bits`.
    #[must_use]
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Digitizes `value`, returning `(code, reconstructed_value)`.
    ///
    /// Values outside the range saturate at the end codes, as real converter
    /// front-ends do.
    #[must_use]
    pub fn convert(&self, value: f64) -> (u32, f64) {
        let clamped = value.clamp(self.lo, self.hi);
        let code = ((clamped - self.lo) / self.lsb()).round() as u32;
        let code = code.min(self.levels() - 1);
        (code, self.lo + f64::from(code) * self.lsb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac_quantization_error_is_within_half_lsb() {
        let dac = Dac::new(6, 0.0, 1.0).unwrap();
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            assert!((dac.convert(x) - x).abs() <= dac.lsb() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn dac_clamps_out_of_range() {
        let dac = Dac::new(8, 0.0, 1.0).unwrap();
        assert_eq!(dac.convert(-5.0), 0.0);
        assert_eq!(dac.convert(5.0), 1.0);
    }

    #[test]
    fn adc_codes_are_monotone() {
        let adc = Adc::new(8, -1.0, 1.0).unwrap();
        let mut last = 0u32;
        for i in 0..=200 {
            let x = -1.0 + 2.0 * (i as f64) / 200.0;
            let (code, _) = adc.convert(x);
            assert!(code >= last, "ADC code regressed at {x}");
            last = code;
        }
    }

    #[test]
    fn adc_end_codes_saturate() {
        let adc = Adc::new(4, 0.0, 1.0).unwrap();
        assert_eq!(adc.convert(9.0).0, adc.levels() - 1);
        assert_eq!(adc.convert(-9.0).0, 0);
    }

    #[test]
    fn zero_and_oversized_bits_are_rejected() {
        assert!(Dac::new(0, 0.0, 1.0).is_err());
        assert!(Dac::new(25, 0.0, 1.0).is_err());
        assert!(Adc::new(0, 0.0, 1.0).is_err());
    }

    #[test]
    fn empty_range_is_rejected() {
        assert!(Dac::new(8, 1.0, 1.0).is_err());
        assert!(Adc::new(8, 2.0, 1.0).is_err());
    }

    #[test]
    fn high_resolution_round_trip_is_tight() {
        let adc = Adc::new(16, 0.0, 1.0).unwrap();
        let (_, v) = adc.convert(0.123_456);
        assert!((v - 0.123_456).abs() < 1e-4);
    }
}
