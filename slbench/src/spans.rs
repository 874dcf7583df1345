//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark's own code around each call into a
//! layer, and nest by call order: a span's parent is whichever span was
//! open when it started. Work that happens inside an opaque library call
//! (the fleet's tick loop) is added as *derived* child spans whose
//! durations come from the program's existing `obs` profile phases.
//! With tracing off, every method returns at once and the clock is never
//! read.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    duration_ns: f64,
    start: Option<Instant>,
}

/// Span tree of one traced pass.
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            duration_ns: 0.0,
            start: Some(Instant::now()),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[idx];
        let start = span.start.take().expect("span closed twice");
        span.duration_ns = start.elapsed().as_nanos() as f64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds a child of the innermost open span whose duration was
    /// measured elsewhere (a profile phase inside an opaque call).
    pub fn derived(&mut self, name: &'static str, duration_ns: f64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            duration_ns,
            start: None,
        });
    }

    /// Self time per span name in nanoseconds: each span's duration
    /// minus the durations of its direct children, summed by name.
    /// Summed over all names this equals the total duration of the root
    /// spans.
    pub fn self_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns - c;
        }
        out
    }

    /// Total duration of the root spans in nanoseconds.
    pub fn root_ns(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns)
            .sum()
    }

    /// Number of root spans.
    pub fn roots(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none()).count()
    }
}

/// Wall time per profile phase between two `profile_phases` snapshots:
/// `(total ns, count)` keyed by phase name.
pub fn phase_delta(
    before: &[(String, safelight_obs::PhaseStats)],
    after: &[(String, safelight_obs::PhaseStats)],
) -> BTreeMap<String, (f64, u64)> {
    let prior: BTreeMap<&str, &safelight_obs::PhaseStats> =
        before.iter().map(|(n, s)| (n.as_str(), s)).collect();
    after
        .iter()
        .map(|(name, s)| {
            let (ns, count) = prior
                .get(name.as_str())
                .map_or((0, 0), |p| (p.total_ns, p.count));
            (
                name.clone(),
                (
                    s.total_ns.saturating_sub(ns) as f64,
                    s.count.saturating_sub(count),
                ),
            )
        })
        .collect()
}
