//! The workload interface and the closed-loop pass that drives it.
//!
//! A workload is a fixed list of *units* — a serving window, an
//! incident-response episode, a sweep scenario — each carrying a fixed
//! number of *ops* (requests, episodes, scenarios). The unit list depends
//! only on the run length, never on the seed; the seed only permutes the
//! inputs inside the units. One caller runs the units back to back: each
//! unit's call is timed from outside, then checked outside the timing.

use std::collections::BTreeMap;
use std::time::Instant;

use safelight_neuro::linalg::kernel_stats;
use safelight_obs::{profile_phases, set_profile_enabled};

use crate::host::CpuTimes;
use crate::spans::{phase_delta, Spans};
use crate::stats::Digest;

/// One benchmark workload.
pub trait Workload {
    /// What a timed unit hands to its untimed check.
    type Unit;

    /// Set-ups per run; `setup_s` is their median. A set-up of a tenth
    /// of a second is mostly noise, so cheap set-ups repeat more often.
    const SETUPS: usize = 3;

    /// Name of the root span of one unit in the traced run.
    fn root_span(&self) -> &'static str;

    /// Number of units in one pass.
    fn units(&self) -> usize;

    /// Ops carried by unit `i`.
    fn unit_ops(&self, i: usize) -> usize;

    /// Units in one cycle of the op-kind mix.
    fn cycle(&self) -> usize {
        1
    }

    /// Op kind of unit `i` (the op-kind mix the seed must not change).
    fn unit_kind(&self, i: usize) -> &'static str;

    /// Resets all per-pass state so a second pass replays the first.
    fn begin_pass(&mut self);

    /// Readies unit `i`'s inputs: untimed.
    ///
    /// # Errors
    ///
    /// A description of the failure; every op of the unit counts as
    /// failed.
    fn prepare_unit(&mut self, _i: usize) -> Result<(), String> {
        Ok(())
    }

    /// Runs unit `i`: the timed part.
    ///
    /// # Errors
    ///
    /// A description of the failure; every op of the unit counts as
    /// failed.
    fn run_unit(&mut self, i: usize, spans: &mut Spans) -> Result<Self::Unit, String>;

    /// Checks unit `i`'s outputs and folds them into the pass digest and
    /// statistics: the untimed part. Returns the number of the unit's ops
    /// that failed their check.
    fn check_unit(&mut self, i: usize, unit: Self::Unit) -> usize;

    /// Named set-up phase timings in seconds.
    fn setup_times(&self) -> Vec<(&'static str, f64)>;

    /// Checks that belong to set-up rather than to any op.
    ///
    /// # Errors
    ///
    /// What failed, as text.
    fn setup_check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Digest of everything the pass simulated so far.
    fn digest(&self) -> Digest;

    /// Simulated statistics of the pass (identical under a pure
    /// speed-up), plus layer metrics derived from them.
    fn pass_metrics(&self, pass: &Pass) -> Vec<(&'static str, f64, &'static str)>;
}

/// Everything one pass measured.
pub struct Pass {
    /// Wall time of each unit's timed call, with its op count.
    pub unit_ns: Vec<(f64, usize)>,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops failed.
    pub failed: usize,
    /// Ops per kind.
    pub kinds: BTreeMap<&'static str, usize>,
    /// Digest at pass end.
    pub digest: Digest,
    /// Share of CPU time stolen during the pass.
    pub steal_share: f64,
    /// GEMM kernel calls per class during the pass.
    pub kernels: BTreeMap<&'static str, u64>,
    /// Profile phases during the pass (empty when untraced).
    pub phases: PhaseTotals,
    /// The span tree (empty when untraced).
    pub spans: Spans,
}

impl Pass {
    /// Total time of the timed calls in seconds.
    pub fn timed_s(&self) -> f64 {
        self.unit_ns.iter().map(|(ns, _)| ns).sum::<f64>() * 1e-9
    }

    /// Ops completed per second of timed calls: the median over
    /// consecutive segments of `segment` units, so a burst of outside load
    /// that covers less than half the run does not move it. `segment`
    /// should be a whole number of mix cycles, so every segment carries
    /// the same work.
    pub fn ops_per_s(&self, segment: usize) -> f64 {
        let rates: Vec<f64> = self
            .unit_ns
            .chunks(segment.max(1))
            .map(|c| {
                c.iter().map(|&(_, ops)| ops).sum::<usize>() as f64 * 1e9
                    / c.iter().map(|&(ns, _)| ns).sum::<f64>()
            })
            .collect();
        crate::stats::median(&rates)
    }

    /// Per-op latency samples in ms: every op of a unit sees that unit's
    /// call time.
    pub fn op_latencies_ms(&self) -> Vec<f64> {
        self.unit_ns
            .iter()
            .flat_map(|&(ns, ops)| std::iter::repeat_n(ns * 1e-6, ops))
            .collect()
    }

    /// Total ns and count of profile phase `name` (zeros when absent).
    pub fn phase(&self, name: &str) -> (f64, u64) {
        self.phases.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Kernel calls of class `name`.
    pub fn kernel(&self, name: &str) -> u64 {
        self.kernels.get(name).copied().unwrap_or(0)
    }
}

/// Runs one pass over the first `units` units of `w`, with spans and
/// profile phases recorded when `traced`.
pub fn run_pass<W: Workload>(w: &mut W, units: usize, traced: bool) -> Pass {
    w.begin_pass();
    let mut spans = Spans::new(traced);
    set_profile_enabled(traced);
    let kernels_before = kernel_stats::snapshot();
    let phases_before = profile_phases();
    let cpu_before = CpuTimes::now();
    let mut unit_ns = Vec::with_capacity(units);
    let (mut attempted, mut failed) = (0, 0);
    let mut kinds = BTreeMap::new();
    for i in 0..units.min(w.units()) {
        let ops = w.unit_ops(i);
        let prepared = w.prepare_unit(i);
        spans.enter(w.root_span());
        let start = Instant::now();
        let result = prepared.and_then(|()| w.run_unit(i, &mut spans));
        let ns = start.elapsed().as_nanos() as f64;
        spans.exit();
        unit_ns.push((ns, ops));
        attempted += ops;
        *kinds.entry(w.unit_kind(i)).or_insert(0) += ops;
        match result {
            Ok(unit) => failed += w.check_unit(i, unit).min(ops),
            Err(e) => {
                eprintln!("unit {i} ({}) failed: {e}", w.unit_kind(i));
                failed += ops;
            }
        }
    }
    let steal_share = cpu_before.steal_share_until(&CpuTimes::now());
    let phases = if traced {
        phase_delta(&phases_before, &profile_phases())
    } else {
        BTreeMap::new()
    };
    set_profile_enabled(false);
    let prior: BTreeMap<&str, u64> = kernels_before.into_iter().collect();
    let kernels = kernel_stats::snapshot()
        .into_iter()
        .map(|(name, n)| (name, n - prior.get(name).copied().unwrap_or(0)))
        .collect();
    Pass {
        unit_ns,
        attempted,
        failed,
        kinds,
        digest: w.digest(),
        steal_share,
        kernels,
        phases,
        spans,
    }
}

/// Profile-phase totals recorded during one call: `(total ns, count)`
/// keyed by phase name.
pub type PhaseTotals = BTreeMap<String, (f64, u64)>;

/// Total ns of `phase` in `totals` (0 when absent).
pub fn phase_ns(totals: &PhaseTotals, phase: &str) -> f64 {
    totals.get(phase).map_or(0.0, |&(ns, _)| ns)
}

/// Runs `call` inside a span named `name` and adds, as derived children,
/// the wall time `attribute` assigns to layers from the profile phases
/// the call recorded. Phases that ran on several pool threads at once
/// must be divided by that concurrency to be wall time.
pub fn opaque_call<R>(
    spans: &mut Spans,
    name: &'static str,
    attribute: impl FnOnce(&PhaseTotals, &R) -> Vec<(&'static str, f64)>,
    call: impl FnOnce() -> R,
) -> R {
    if !spans.on() {
        return call();
    }
    spans.enter(name);
    let before = profile_phases();
    let out = call();
    let delta = phase_delta(&before, &profile_phases());
    for (span, ns) in attribute(&delta, &out) {
        spans.derived(span, ns);
    }
    spans.exit();
    out
}
