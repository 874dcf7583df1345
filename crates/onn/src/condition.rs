//! Per-microring fault conditions and the sparse maps that hold them.

use std::collections::HashMap;

use crate::config::BlockKind;

/// The fault state of one microring's peripheral circuitry.
///
/// Attack injectors (the `safelight` crate) produce these; the accelerator
/// executor consumes them. `Healthy` is the implicit default for every MR
/// not present in a [`ConditionMap`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MrCondition {
    /// Nominal operation.
    #[default]
    Healthy,
    /// Actuation attack: the modulation circuit is hijacked and the ring is
    /// parked at its maximum detuning (§III.B.1).
    Parked,
    /// Thermal attack or spill-over: the ring sits `delta_kelvin` above its
    /// calibrated temperature, red-shifting its resonance per eq. (2).
    Heated {
        /// Temperature rise over the calibrated operating point, kelvin.
        delta_kelvin: f64,
    },
    /// Laser power-degradation attack: a trojan throttles the optical power
    /// feeding this ring's WDM channel, so the collected response (and with
    /// it the effective weight magnitude) scales by `factor`. The fault
    /// lives upstream of the ring, so its resonance — and its intact
    /// thermal response — are untouched: spill-over heat from a stacked
    /// hotspot attack still detunes it, recorded in `delta_kelvin`.
    Attenuated {
        /// Fraction of the nominal channel power that survives, in `(0, 1)`.
        factor: f64,
        /// Temperature rise over the calibrated operating point, kelvin
        /// (0 when no heat reaches the ring).
        delta_kelvin: f64,
    },
    /// Partial trim-drift attack: the trojan pins the ring's trim DAC a
    /// fixed `offset_nm` away from its calibrated set point — a graded
    /// detuning between `Healthy` and the binary `Parked` extreme. The
    /// thermo-optic shift is independent of the pinned DAC, so spill-over
    /// heat from a stacked hotspot attack still applies (`delta_kelvin`).
    Detuned {
        /// Resonance offset added to the imprint detuning, nanometres.
        offset_nm: f64,
        /// Temperature rise over the calibrated operating point, kelvin
        /// (0 when no heat reaches the ring).
        delta_kelvin: f64,
    },
}

impl MrCondition {
    /// Whether the condition deviates from nominal operation.
    #[must_use]
    pub fn is_faulty(&self) -> bool {
        !matches!(self, Self::Healthy)
    }
}

/// A sparse map from flat MR index to fault condition, per block.
///
/// Blocks hold up to millions of MRs but attacks touch at most a few
/// percent, so a hash map keyed by index is the right density trade-off.
///
/// # Example
///
/// ```
/// use safelight_onn::{BlockKind, ConditionMap, MrCondition};
///
/// let mut map = ConditionMap::new();
/// map.set(BlockKind::Conv, 42, MrCondition::Parked);
/// assert!(map.condition(BlockKind::Conv, 42).is_faulty());
/// assert!(!map.condition(BlockKind::Conv, 43).is_faulty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConditionMap {
    conv: HashMap<u64, MrCondition>,
    fc: HashMap<u64, MrCondition>,
}

impl ConditionMap {
    /// Creates an all-healthy map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn block(&self, kind: BlockKind) -> &HashMap<u64, MrCondition> {
        match kind {
            BlockKind::Conv => &self.conv,
            BlockKind::Fc => &self.fc,
        }
    }

    fn block_mut(&mut self, kind: BlockKind) -> &mut HashMap<u64, MrCondition> {
        match kind {
            BlockKind::Conv => &mut self.conv,
            BlockKind::Fc => &mut self.fc,
        }
    }

    /// Sets the condition of MR `index` in `kind`'s block. `Healthy`
    /// removes any stored entry.
    pub fn set(&mut self, kind: BlockKind, index: u64, condition: MrCondition) {
        let map = self.block_mut(kind);
        if condition.is_faulty() {
            map.insert(index, condition);
        } else {
            map.remove(&index);
        }
    }

    /// Adds heating to MR `index`, combining with any existing condition:
    /// heat on heat sums; `Parked` dominates spill-over heat (the ring
    /// already sits at the modulator's maximum detuning); `Detuned` and
    /// `Attenuated` rings accumulate the heat alongside their fault —
    /// the thermo-optic shift is independent of a pinned trim DAC, and an
    /// upstream power fault leaves the ring's thermal response intact.
    pub fn add_heat(&mut self, kind: BlockKind, index: u64, delta_kelvin: f64) {
        if delta_kelvin <= 0.0 {
            return;
        }
        let map = self.block_mut(kind);
        let updated = match map.get(&index) {
            Some(MrCondition::Parked) => MrCondition::Parked,
            Some(MrCondition::Detuned {
                offset_nm,
                delta_kelvin: existing,
            }) => MrCondition::Detuned {
                offset_nm: *offset_nm,
                delta_kelvin: existing + delta_kelvin,
            },
            Some(MrCondition::Attenuated {
                factor,
                delta_kelvin: existing,
            }) => MrCondition::Attenuated {
                factor: *factor,
                delta_kelvin: existing + delta_kelvin,
            },
            Some(MrCondition::Heated {
                delta_kelvin: existing,
            }) => MrCondition::Heated {
                delta_kelvin: existing + delta_kelvin,
            },
            _ => MrCondition::Heated { delta_kelvin },
        };
        map.insert(index, updated);
    }

    /// Merges a trojan state into MR `index`, composing stacked attack
    /// vectors whose site draws overlap:
    ///
    /// * a power fault ([`MrCondition::Attenuated`]) never displaces a
    ///   pinned resonance state (`Parked`, `Detuned`) — the tap is upstream
    ///   and cannot undo the hijacked control loop. The tap's factor on the
    ///   pinned ring's residual reading is dropped: exact for `Parked` at
    ///   max detuning (reads ≈ 0 either way under drop-port encoding), a
    ///   known conservative approximation for a graded `Detuned` ring,
    ///   whose residual weight keeps full power (the enum cannot carry a
    ///   factor and an offset at once);
    /// * a power fault lands on a heated or already-tapped ring by carrying
    ///   the recorded heat forward and multiplying tap factors (two taps in
    ///   series compose);
    /// * `Parked` is never displaced: the EO-actuation circuit holds the
    ///   ring at *maximum* detuning, which a pinned trim DAC (a different
    ///   circuit) cannot move — stacking more vectors can never weaken a
    ///   parked ring, in any order;
    /// * any other incoming pinned resonance fault replaces what is there —
    ///   the trojan that owns the control loop wins, matching
    ///   [`ConditionMap::add_heat`]'s dominance rule.
    pub fn stack(&mut self, kind: BlockKind, index: u64, condition: MrCondition) {
        // Stacking "no fault" is the identity — it must never displace (or
        // clear) a recorded trojan state, so stacking an empty map is a
        // no-op and `stack_map` is idempotent on empty right-hand sides.
        if !condition.is_faulty() {
            return;
        }
        let existing = self.condition(kind, index);
        let merged = match (existing, condition) {
            (MrCondition::Parked, _) => MrCondition::Parked,
            (MrCondition::Detuned { .. }, MrCondition::Attenuated { .. }) => existing,
            (
                MrCondition::Heated { delta_kelvin },
                MrCondition::Attenuated {
                    factor,
                    delta_kelvin: added,
                },
            ) => MrCondition::Attenuated {
                factor,
                delta_kelvin: delta_kelvin + added,
            },
            (
                MrCondition::Attenuated {
                    factor,
                    delta_kelvin,
                },
                MrCondition::Attenuated {
                    factor: tap,
                    delta_kelvin: added,
                },
            ) => MrCondition::Attenuated {
                factor: factor * tap,
                delta_kelvin: delta_kelvin + added,
            },
            // A pinned trim drift landing on a heated or tapped ring keeps
            // the heat (thermal response stays intact); the tap factor is
            // dropped per the pinned-dominance approximation above.
            (
                MrCondition::Heated { delta_kelvin } | MrCondition::Attenuated { delta_kelvin, .. },
                MrCondition::Detuned {
                    offset_nm,
                    delta_kelvin: added,
                },
            ) => MrCondition::Detuned {
                offset_nm,
                delta_kelvin: delta_kelvin + added,
            },
            _ => condition,
        };
        self.set(kind, index, merged);
    }

    /// Stacks every entry of `other` into this map via
    /// [`ConditionMap::stack`], in ascending index order per block (the
    /// merge rules are order-sensitive only through `stack`'s own algebra,
    /// so a deterministic order keeps composed injections reproducible).
    /// Stacking an empty map is a no-op.
    pub fn stack_map(&mut self, other: &ConditionMap) {
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            let mut entries: Vec<(u64, MrCondition)> = other.iter(kind).collect();
            entries.sort_unstable_by_key(|(index, _)| *index);
            for (index, condition) in entries {
                self.stack(kind, index, condition);
            }
        }
    }

    /// The condition of MR `index` (healthy when unset).
    #[must_use]
    pub fn condition(&self, kind: BlockKind, index: u64) -> MrCondition {
        self.block(kind).get(&index).copied().unwrap_or_default()
    }

    /// Number of faulty MRs recorded for `kind`'s block.
    #[must_use]
    pub fn faulty_count(&self, kind: BlockKind) -> usize {
        self.block(kind).len()
    }

    /// Whether the whole map is empty (no attack present).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.conv.is_empty() && self.fc.is_empty()
    }

    /// Iterates over the faulty MRs of `kind`'s block.
    pub fn iter(&self, kind: BlockKind) -> impl Iterator<Item = (u64, MrCondition)> + '_ {
        self.block(kind).iter().map(|(&i, &c)| (i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_healthy() {
        let map = ConditionMap::new();
        assert_eq!(map.condition(BlockKind::Fc, 7), MrCondition::Healthy);
        assert!(map.is_empty());
    }

    #[test]
    fn setting_healthy_clears_the_entry() {
        let mut map = ConditionMap::new();
        map.set(BlockKind::Conv, 1, MrCondition::Parked);
        assert_eq!(map.faulty_count(BlockKind::Conv), 1);
        map.set(BlockKind::Conv, 1, MrCondition::Healthy);
        assert!(map.is_empty());
    }

    #[test]
    fn heat_accumulates() {
        let mut map = ConditionMap::new();
        map.add_heat(BlockKind::Fc, 3, 10.0);
        map.add_heat(BlockKind::Fc, 3, 5.0);
        assert_eq!(
            map.condition(BlockKind::Fc, 3),
            MrCondition::Heated { delta_kelvin: 15.0 }
        );
    }

    #[test]
    fn heat_does_not_unpark() {
        let mut map = ConditionMap::new();
        map.set(BlockKind::Conv, 9, MrCondition::Parked);
        map.add_heat(BlockKind::Conv, 9, 30.0);
        assert_eq!(map.condition(BlockKind::Conv, 9), MrCondition::Parked);
    }

    #[test]
    fn heat_does_not_displace_pinned_trojan_states() {
        let mut map = ConditionMap::new();
        map.set(
            BlockKind::Conv,
            1,
            MrCondition::Detuned {
                offset_nm: 0.2,
                delta_kelvin: 0.0,
            },
        );
        map.add_heat(BlockKind::Conv, 1, 30.0);
        // The pinned DAC keeps its offset; the thermo-optic shift rides on
        // top of it.
        assert_eq!(
            map.condition(BlockKind::Conv, 1),
            MrCondition::Detuned {
                offset_nm: 0.2,
                delta_kelvin: 30.0
            }
        );
    }

    #[test]
    fn heat_accumulates_on_attenuated_rings() {
        // Stacked laser+hotspot regression: the power fault lives upstream,
        // so the ring's own thermal response still applies — spill-over
        // heat must be carried, not dropped.
        let mut map = ConditionMap::new();
        map.set(
            BlockKind::Conv,
            2,
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 0.0,
            },
        );
        map.add_heat(BlockKind::Conv, 2, 30.0);
        map.add_heat(BlockKind::Conv, 2, 5.0);
        assert_eq!(
            map.condition(BlockKind::Conv, 2),
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 35.0
            }
        );
    }

    #[test]
    fn stacking_a_tap_does_not_unpark_pinned_rings() {
        // Stacked actuation+laser / trim+laser regression: the tap sits
        // upstream and cannot undo a hijacked control loop.
        let mut map = ConditionMap::new();
        map.set(BlockKind::Conv, 1, MrCondition::Parked);
        map.set(
            BlockKind::Conv,
            2,
            MrCondition::Detuned {
                offset_nm: 0.2,
                delta_kelvin: 3.0,
            },
        );
        let tap = MrCondition::Attenuated {
            factor: 0.5,
            delta_kelvin: 0.0,
        };
        map.stack(BlockKind::Conv, 1, tap);
        map.stack(BlockKind::Conv, 2, tap);
        assert_eq!(map.condition(BlockKind::Conv, 1), MrCondition::Parked);
        assert_eq!(
            map.condition(BlockKind::Conv, 2),
            MrCondition::Detuned {
                offset_nm: 0.2,
                delta_kelvin: 3.0
            }
        );
    }

    #[test]
    fn stacking_carries_heat_and_composes_taps() {
        let mut map = ConditionMap::new();
        map.add_heat(BlockKind::Conv, 3, 10.0);
        let tap = |factor| MrCondition::Attenuated {
            factor,
            delta_kelvin: 0.0,
        };
        map.stack(BlockKind::Conv, 3, tap(0.5));
        assert_eq!(
            map.condition(BlockKind::Conv, 3),
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 10.0
            }
        );
        // A second tap in series composes multiplicatively, keeping heat.
        map.stack(BlockKind::Conv, 3, tap(0.5));
        assert_eq!(
            map.condition(BlockKind::Conv, 3),
            MrCondition::Attenuated {
                factor: 0.25,
                delta_kelvin: 10.0
            }
        );
    }

    #[test]
    fn stacking_never_weakens_a_parked_ring() {
        // Stacked actuation+trim regression: the trim DAC is a different
        // circuit and cannot move a ring the actuation trojan holds at
        // maximum detuning — in either stacking order.
        let drift = MrCondition::Detuned {
            offset_nm: 0.2,
            delta_kelvin: 0.0,
        };
        let mut map = ConditionMap::new();
        map.stack(BlockKind::Conv, 1, MrCondition::Parked);
        map.stack(BlockKind::Conv, 1, drift);
        assert_eq!(map.condition(BlockKind::Conv, 1), MrCondition::Parked);
        let mut map = ConditionMap::new();
        map.stack(BlockKind::Conv, 1, drift);
        map.stack(BlockKind::Conv, 1, MrCondition::Parked);
        assert_eq!(map.condition(BlockKind::Conv, 1), MrCondition::Parked);
    }

    #[test]
    fn stacking_a_pinned_state_replaces_weaker_faults() {
        let mut map = ConditionMap::new();
        map.set(
            BlockKind::Conv,
            4,
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 5.0,
            },
        );
        map.stack(BlockKind::Conv, 4, MrCondition::Parked);
        assert_eq!(map.condition(BlockKind::Conv, 4), MrCondition::Parked);
        // Onto a clean ring, stack is just set.
        map.stack(BlockKind::Conv, 5, MrCondition::Parked);
        assert_eq!(map.condition(BlockKind::Conv, 5), MrCondition::Parked);
    }

    #[test]
    fn stacking_healthy_is_a_no_op() {
        let mut map = ConditionMap::new();
        map.add_heat(BlockKind::Conv, 3, 12.0);
        map.stack(BlockKind::Conv, 3, MrCondition::Healthy);
        assert_eq!(
            map.condition(BlockKind::Conv, 3),
            MrCondition::Heated { delta_kelvin: 12.0 }
        );
        map.stack(BlockKind::Fc, 9, MrCondition::Healthy);
        assert_eq!(map.condition(BlockKind::Fc, 9), MrCondition::Healthy);
    }

    #[test]
    fn stack_map_composes_whole_maps() {
        let mut base = ConditionMap::new();
        base.set(BlockKind::Conv, 1, MrCondition::Parked);
        base.add_heat(BlockKind::Fc, 2, 5.0);
        let mut incoming = ConditionMap::new();
        incoming.set(
            BlockKind::Conv,
            1,
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 0.0,
            },
        );
        incoming.set(BlockKind::Fc, 7, MrCondition::Parked);
        base.stack_map(&incoming);
        // Per-site algebra applies: the tap cannot unpark ring 1.
        assert_eq!(base.condition(BlockKind::Conv, 1), MrCondition::Parked);
        assert_eq!(base.condition(BlockKind::Fc, 7), MrCondition::Parked);
        assert_eq!(
            base.condition(BlockKind::Fc, 2),
            MrCondition::Heated { delta_kelvin: 5.0 }
        );
        // Stacking an empty map changes nothing.
        let before = base.clone();
        base.stack_map(&ConditionMap::new());
        assert_eq!(base, before);
    }

    #[test]
    fn non_positive_heat_is_ignored() {
        let mut map = ConditionMap::new();
        map.add_heat(BlockKind::Conv, 2, 0.0);
        map.add_heat(BlockKind::Conv, 2, -4.0);
        assert!(map.is_empty());
    }

    #[test]
    fn blocks_are_independent() {
        let mut map = ConditionMap::new();
        map.set(BlockKind::Conv, 5, MrCondition::Parked);
        assert_eq!(map.condition(BlockKind::Fc, 5), MrCondition::Healthy);
    }
}
