//! Floorplans: where microring banks sit on the thermal grid.

use crate::ThermalError;

/// An axis-aligned rectangle of grid cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left cell column.
    pub x: usize,
    /// Top cell row.
    pub y: usize,
    /// Width in cells.
    pub width: usize,
    /// Height in cells.
    pub height: usize,
}

impl Rect {
    /// Whether the rectangle contains the cell `(x, y)`.
    #[must_use]
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x && x < self.x + self.width && y >= self.y && y < self.y + self.height
    }

    /// Number of cells covered.
    #[must_use]
    pub fn area(&self) -> usize {
        self.width * self.height
    }

    /// Iterates over all `(x, y)` cells of the rectangle in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (x0, y0, w) = (self.x, self.y, self.width);
        (0..self.area()).map(move |i| (x0 + i % w, y0 + i / w))
    }
}

/// A microring bank placed on the floorplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankPlacement {
    /// Index of the bank in its block (row-major across the bank grid).
    pub bank: usize,
    /// Cells the bank occupies.
    pub rect: Rect,
}

/// A floorplan arranging a block's microring banks on a regular grid.
///
/// This mirrors how the paper's Fig. 6 lays out the CONV block's MR bank
/// arrays: `rows × cols` banks, each `bank_width × bank_height` cells (one
/// cell per microring), separated by `gap` cells of passive waveguide and
/// routing area.
///
/// # Example
///
/// ```
/// use safelight_thermal::Floorplan;
///
/// # fn main() -> Result<(), safelight_thermal::ThermalError> {
/// // 4×4 banks of 8×8 microrings with a 2-cell gap.
/// let plan = Floorplan::bank_grid(4, 4, 8, 8, 2)?;
/// assert_eq!(plan.banks().len(), 16);
/// // Grid size accounts for banks and gaps (plus a border gap all around).
/// assert_eq!(plan.grid_width(), 2 + 4 * (8 + 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    rows: usize,
    cols: usize,
    bank_width: usize,
    bank_height: usize,
    gap: usize,
    banks: Vec<BankPlacement>,
}

impl Floorplan {
    /// Lays out `rows × cols` banks of `bank_width × bank_height` cells with
    /// `gap` cells between banks and around the border.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyGrid`] when any of the counts or bank
    /// dimensions is zero.
    pub fn bank_grid(
        rows: usize,
        cols: usize,
        bank_width: usize,
        bank_height: usize,
        gap: usize,
    ) -> Result<Self, ThermalError> {
        if rows == 0 || cols == 0 || bank_width == 0 || bank_height == 0 {
            return Err(ThermalError::EmptyGrid);
        }
        let mut banks = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                banks.push(BankPlacement {
                    bank: r * cols + c,
                    rect: Rect {
                        x: gap + c * (bank_width + gap),
                        y: gap + r * (bank_height + gap),
                        width: bank_width,
                        height: bank_height,
                    },
                });
            }
        }
        Ok(Self {
            rows,
            cols,
            bank_width,
            bank_height,
            gap,
            banks,
        })
    }

    /// Width of the covering thermal grid in cells.
    #[must_use]
    pub fn grid_width(&self) -> usize {
        self.gap + self.cols * (self.bank_width + self.gap)
    }

    /// Height of the covering thermal grid in cells.
    #[must_use]
    pub fn grid_height(&self) -> usize {
        self.gap + self.rows * (self.bank_height + self.gap)
    }

    /// Bank rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bank columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cells per bank along x.
    #[must_use]
    pub fn bank_width(&self) -> usize {
        self.bank_width
    }

    /// Cells per bank along y.
    #[must_use]
    pub fn bank_height(&self) -> usize {
        self.bank_height
    }

    /// All bank placements in bank-index order.
    #[must_use]
    pub fn banks(&self) -> &[BankPlacement] {
        &self.banks
    }

    /// The placement of bank `bank`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::RegionOutOfBounds`] for an unknown index.
    pub fn bank(&self, bank: usize) -> Result<BankPlacement, ThermalError> {
        self.banks
            .get(bank)
            .copied()
            .ok_or(ThermalError::RegionOutOfBounds { index: bank })
    }

    /// The cell of microring `(row, col)` inside bank `bank`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::RegionOutOfBounds`] for an unknown bank and
    /// [`ThermalError::CellOutOfBounds`] for ring coordinates outside the
    /// bank.
    pub fn ring_cell(
        &self,
        bank: usize,
        row: usize,
        col: usize,
    ) -> Result<(usize, usize), ThermalError> {
        let placement = self.bank(bank)?;
        if col >= self.bank_width || row >= self.bank_height {
            return Err(ThermalError::CellOutOfBounds {
                x: col,
                y: row,
                width: self.bank_width,
                height: self.bank_height,
            });
        }
        Ok((placement.rect.x + col, placement.rect.y + row))
    }

    /// One thermal-sensor site per bank, at the bank's centre cell, in
    /// bank-index order.
    ///
    /// Real photonic dies embed a sparse grid of on-chip temperature
    /// sensors next to the microring banks; sampling a solved
    /// [`TemperatureField`](crate::TemperatureField) at these sites (see
    /// [`TemperatureField::sample_delta`](crate::TemperatureField::sample_delta))
    /// is the physical model behind the runtime-detection telemetry taps.
    #[must_use]
    pub fn sensor_sites(&self) -> Vec<(usize, usize)> {
        self.banks
            .iter()
            .map(|p| (p.rect.x + p.rect.width / 2, p.rect.y + p.rect.height / 2))
            .collect()
    }

    /// The bank containing cell `(x, y)`, if any.
    #[must_use]
    pub fn bank_at(&self, x: usize, y: usize) -> Option<usize> {
        // Banks are disjoint; a direct arithmetic lookup avoids a scan.
        let stride_x = self.bank_width + self.gap;
        let stride_y = self.bank_height + self.gap;
        if x < self.gap || y < self.gap {
            return None;
        }
        let c = (x - self.gap) / stride_x;
        let r = (y - self.gap) / stride_y;
        if c >= self.cols || r >= self.rows {
            return None;
        }
        let bank = r * self.cols + c;
        if self.banks[bank].rect.contains(x, y) {
            Some(bank)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_contains_its_cells_only() {
        let r = Rect {
            x: 2,
            y: 3,
            width: 2,
            height: 2,
        };
        assert!(r.contains(2, 3) && r.contains(3, 4));
        assert!(!r.contains(1, 3) && !r.contains(4, 3) && !r.contains(2, 5));
    }

    #[test]
    fn rect_cells_enumerates_area() {
        let r = Rect {
            x: 1,
            y: 1,
            width: 3,
            height: 2,
        };
        let cells: Vec<_> = r.cells().collect();
        assert_eq!(cells.len(), r.area());
        assert_eq!(cells[0], (1, 1));
        assert_eq!(cells[5], (3, 2));
    }

    #[test]
    fn banks_are_disjoint_and_complete() {
        let plan = Floorplan::bank_grid(3, 4, 5, 6, 2).unwrap();
        assert_eq!(plan.banks().len(), 12);
        for (i, a) in plan.banks().iter().enumerate() {
            for b in plan.banks().iter().skip(i + 1) {
                for (x, y) in a.rect.cells() {
                    assert!(!b.rect.contains(x, y), "banks {i} and {} overlap", b.bank);
                }
            }
        }
    }

    #[test]
    fn bank_at_inverts_placement() {
        let plan = Floorplan::bank_grid(3, 3, 4, 4, 1).unwrap();
        for placement in plan.banks() {
            for (x, y) in placement.rect.cells() {
                assert_eq!(plan.bank_at(x, y), Some(placement.bank));
            }
        }
    }

    #[test]
    fn gaps_belong_to_no_bank() {
        let plan = Floorplan::bank_grid(2, 2, 4, 4, 2).unwrap();
        assert_eq!(plan.bank_at(0, 0), None);
        assert_eq!(plan.bank_at(6, 3), None); // vertical gap column
    }

    #[test]
    fn ring_cell_maps_into_bank_rect() {
        let plan = Floorplan::bank_grid(2, 2, 4, 4, 2).unwrap();
        let (x, y) = plan.ring_cell(3, 2, 1).unwrap();
        let rect = plan.bank(3).unwrap().rect;
        assert!(rect.contains(x, y));
        assert_eq!((x - rect.x, y - rect.y), (1, 2));
    }

    #[test]
    fn ring_cell_bounds_are_checked() {
        let plan = Floorplan::bank_grid(2, 2, 4, 4, 2).unwrap();
        assert!(plan.ring_cell(9, 0, 0).is_err());
        assert!(plan.ring_cell(0, 4, 0).is_err());
    }

    #[test]
    fn sensor_sites_sit_one_per_bank_centre() {
        let plan = Floorplan::bank_grid(2, 3, 5, 4, 2).unwrap();
        let sites = plan.sensor_sites();
        assert_eq!(sites.len(), plan.banks().len());
        for (site, placement) in sites.iter().zip(plan.banks()) {
            assert!(placement.rect.contains(site.0, site.1));
            assert_eq!(plan.bank_at(site.0, site.1), Some(placement.bank));
        }
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        assert!(Floorplan::bank_grid(0, 1, 1, 1, 0).is_err());
        assert!(Floorplan::bank_grid(1, 1, 0, 1, 0).is_err());
    }
}
