//! Accelerator configuration: block shapes and device parameters.

use safelight_photonics::MicroringGeometry;

use crate::OnnError;

/// Which photonic block of the accelerator a resource belongs to.
///
/// The paper's accelerator (Fig. 3) splits the substrate into a CONV block
/// for convolution layers and an FC block for fully connected layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKind {
    /// The convolution block.
    Conv,
    /// The fully connected block.
    Fc,
}

impl std::fmt::Display for BlockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Conv => write!(f, "CONV"),
            Self::Fc => write!(f, "FC"),
        }
    }
}

/// How a weight magnitude is encoded on a microring.
///
/// The choice decides what an attacked ring *reads as*, which drives the
/// whole susceptibility analysis:
///
/// * [`DropPort`](Self::DropPort) — the weighted product is collected from
///   the ring's drop port; on-resonance = full weight, detuned = zero. An
///   off-resonance (attacked) ring's term never reaches the photodetector,
///   so corruption pulls weights toward **zero** (dropout-like). This
///   matches the paper's observed attack severity (e.g. only a 7.49 % drop
///   for the MNIST model at 10 % hotspot intensity) and is the default.
/// * [`ThroughPort`](Self::ThroughPort) — the product stays on the bus and
///   detuning *increases* transmission; an off-resonance ring reads as
///   **full scale**. Kept as an ablation: it makes every attack far more
///   destructive (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightEncoding {
    /// Drop-port collection: attacked weights decay toward zero.
    #[default]
    DropPort,
    /// Through-port modulation: attacked weights saturate to full scale.
    ThroughPort,
}

/// Shape of one photonic block: a set of identical VDP units whose MR banks
/// are `bank_rows × bank_cols` (one wavelength per column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockConfig {
    /// Number of vector-dot-product units in the block.
    pub vdp_units: usize,
    /// MR rows per bank.
    pub bank_rows: usize,
    /// MR columns per bank — equals the WDM channel count of the bank's
    /// waveguide.
    pub bank_cols: usize,
}

impl BlockConfig {
    /// Total number of weight-bearing microrings in the block.
    #[must_use]
    pub fn total_mrs(&self) -> u64 {
        self.vdp_units as u64 * self.bank_rows as u64 * self.bank_cols as u64
    }

    /// Microrings per VDP bank.
    #[must_use]
    pub fn mrs_per_bank(&self) -> usize {
        self.bank_rows * self.bank_cols
    }

    fn validate(&self, name: &'static str) -> Result<(), OnnError> {
        if self.vdp_units == 0 || self.bank_rows == 0 || self.bank_cols == 0 {
            return Err(OnnError::InvalidConfig { name, value: 0.0 });
        }
        Ok(())
    }
}

/// Full accelerator configuration.
///
/// # Example
///
/// ```
/// use safelight_onn::{AcceleratorConfig, BlockKind};
///
/// # fn main() -> Result<(), safelight_onn::OnnError> {
/// let paper = AcceleratorConfig::paper()?;
/// assert_eq!(paper.block(BlockKind::Conv).total_mrs(), 40_000);
/// assert_eq!(paper.block(BlockKind::Fc).total_mrs(), 1_350_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// CONV block shape.
    pub conv: BlockConfig,
    /// FC block shape.
    pub fc: BlockConfig,
    /// DAC resolution for weight imprinting, in bits.
    pub dac_bits: u8,
    /// ADC resolution for partial-sum readout, in bits.
    pub adc_bits: u8,
    /// Microring geometry shared by all banks.
    pub geometry: MicroringGeometry,
    /// WDM channel spacing in nanometres.
    pub channel_spacing_nm: f64,
    /// First carrier wavelength in nanometres.
    pub grid_start_nm: f64,
    /// Laser power per channel in milliwatts.
    pub laser_power_mw: f64,
    /// Photodetector responsivity in A/W.
    pub pd_responsivity: f64,
    /// Weight encoding convention (see [`WeightEncoding`]).
    pub encoding: WeightEncoding,
}

impl AcceleratorConfig {
    /// The paper's exact dimensions (§IV): CONV block of `m = 100` VDP
    /// units of 20×20 MRs; FC block of `n = 60` VDP units of 150×150 MRs.
    ///
    /// # Errors
    ///
    /// Infallible for the built-in values; kept fallible for parity with
    /// [`Self::custom`].
    pub fn paper() -> Result<Self, OnnError> {
        Self::custom(
            BlockConfig {
                vdp_units: 100,
                bank_rows: 20,
                bank_cols: 20,
            },
            BlockConfig {
                vdp_units: 60,
                bank_rows: 150,
                bank_cols: 150,
            },
        )
    }

    /// A width-scaled profile matched to the CPU-budget models of this
    /// reproduction (see DESIGN.md §4): the parameter-to-capacity ratios of
    /// the three evaluated models keep the paper's ordering (CNN_1 fits in
    /// one round; the ResNet variant reuses CONV MRs tens of times; the VGG
    /// variant reuses both blocks heavily).
    ///
    /// # Errors
    ///
    /// Infallible for the built-in values; kept fallible for parity with
    /// [`Self::custom`].
    pub fn scaled_experiment() -> Result<Self, OnnError> {
        Self::custom(
            BlockConfig {
                vdp_units: 25,
                bank_rows: 10,
                bank_cols: 10,
            },
            BlockConfig {
                vdp_units: 15,
                bank_rows: 60,
                bank_cols: 60,
            },
        )
    }

    /// Builds a configuration with explicit block shapes and default device
    /// parameters (10 µm rings, 0.8 nm spacing, 8-bit DACs, 12-bit ADCs).
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::InvalidConfig`] when a block dimension is zero.
    pub fn custom(conv: BlockConfig, fc: BlockConfig) -> Result<Self, OnnError> {
        conv.validate("conv")?;
        fc.validate("fc")?;
        Ok(Self {
            conv,
            fc,
            dac_bits: 8,
            adc_bits: 12,
            geometry: MicroringGeometry::default(),
            channel_spacing_nm: 0.8,
            grid_start_nm: 1546.0,
            laser_power_mw: 1.0,
            pd_responsivity: 1.0,
            encoding: WeightEncoding::DropPort,
        })
    }

    /// The configuration of `kind`'s block.
    #[must_use]
    pub fn block(&self, kind: BlockKind) -> &BlockConfig {
        match kind {
            BlockKind::Conv => &self.conv,
            BlockKind::Fc => &self.fc,
        }
    }

    /// Temperature rise that slides an MR resonance by exactly one channel
    /// spacing (the paper's Fig. 5 condition), in kelvin.
    #[must_use]
    pub fn one_channel_delta_kelvin(&self) -> f64 {
        let slope = self
            .geometry
            .silicon
            .resonance_shift_per_kelvin_nm(self.grid_start_nm);
        self.channel_spacing_nm / slope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions_match_section_iv() {
        let c = AcceleratorConfig::paper().unwrap();
        assert_eq!(c.conv.vdp_units, 100);
        assert_eq!(c.conv.mrs_per_bank(), 400);
        assert_eq!(c.fc.vdp_units, 60);
        assert_eq!(c.fc.mrs_per_bank(), 22_500);
    }

    #[test]
    fn zero_dimension_is_rejected() {
        let bad = BlockConfig {
            vdp_units: 0,
            bank_rows: 1,
            bank_cols: 1,
        };
        let ok = BlockConfig {
            vdp_units: 1,
            bank_rows: 1,
            bank_cols: 1,
        };
        assert!(AcceleratorConfig::custom(bad, ok).is_err());
        assert!(AcceleratorConfig::custom(ok, bad).is_err());
    }

    #[test]
    fn one_channel_shift_is_about_fifteen_kelvin() {
        let c = AcceleratorConfig::paper().unwrap();
        let dt = c.one_channel_delta_kelvin();
        assert!((10.0..20.0).contains(&dt), "ΔT {dt}");
    }

    #[test]
    fn block_lookup_selects_the_right_shape() {
        let c = AcceleratorConfig::paper().unwrap();
        assert_eq!(c.block(BlockKind::Conv).bank_cols, 20);
        assert_eq!(c.block(BlockKind::Fc).bank_cols, 150);
    }
}
