//! `respond`: incident-response episodes on CNN_1 with the fast backend.
//!
//! Each unit is one episode and one op: clone a fresh two-member fleet
//! from the prototype built at set-up, serve a short closed-loop stream
//! with a [`ServeObserver`] and an SLO attached, land one compromise or
//! benign fault at a fixed batch, then drain the trace and reconstruct
//! the incident with [`incidents_from_trace`]. Episodes cycle through a
//! fixed mix whose policy outcome does not depend on the seed; the seed
//! picks the request images, the noise streams and the attack sites.

use std::sync::Arc;

use safelight::attack::{fold, AttackTarget};
use safelight::fault::{inject_fault, FaultPlan, FaultSpec, FaultVector};
use safelight::models::{build_model, matched_accelerator, ModelKind};
use safelight_obs::{MetricsRegistry, SloSpec};
use safelight_onn::{
    AcceleratorConfig, BackendKind, BlockKind, ConditionMap, MrCondition, SensorChannel,
    SentinelPlan, WeightMapping,
};
use safelight_serve::{
    incidents_from_trace, Compromise, FleetMember, IncidentReport, MemberFault, PolicyConfig,
    ResponseAction, ServeObserver, StreamOutcome,
};

use crate::serve::{calibrate, concurrency, fleet_from, prototype, request_images, Streams};
use crate::spans::Spans;
use crate::stats::{mean, Digest};
use crate::workload::{opaque_call, phase_ns, Pass, Workload};

/// Micro-batches per episode stream.
const BATCHES: usize = 12;
/// Requests per micro-batch.
const BATCH: usize = 16;
/// Global batch index at which the compromise or fault lands.
const ONSET: u64 = 4;
/// Episodes per second of requested run length.
const EPISODES_PER_S: f64 = 14.0;

/// First CONV bank the failover episode may park: well clear of CNN_1's
/// seven weight-carrying banks (0–6), whose parking the guard bands
/// localize.
const IDLE_FROM: u64 = 20;
/// Idle banks the failover episode parks.
const IDLE_BANKS: u64 = 4;

/// Parks every ring of `count` adjacent CONV banks from `first`, with a
/// spec label for the trace header.
fn park_banks(config: &AcceleratorConfig, first: u64, count: u64) -> (String, ConditionMap) {
    let per_bank = config.block(BlockKind::Conv).mrs_per_bank() as u64;
    let mut conditions = ConditionMap::new();
    for ring in first * per_bank..(first + count) * per_bank {
        conditions.set(BlockKind::Conv, ring, MrCondition::Parked);
    }
    (
        format!("parked/conv/banks:{first}-{}", first + count - 1),
        conditions,
    )
}

/// What an episode injects, and so which policy outcome it must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeKind {
    /// Two parked weight-carrying CONV banks: localizable, remapped onto
    /// spares.
    Remap,
    /// Parked idle CONV banks: a persistent alarm the guard bands cannot
    /// localize, so the member fails over.
    Failover,
    /// Member crash: restart window, then cache recovery.
    Crash,
    /// Dead temperature sensors: maintenance, no spare spent.
    Sensor,
}

/// Episode kinds in cycle order. Sorted by latency the episodes form
/// three clusters: sensor (about 25 ms), failover (about 65 ms) and the
/// overlapping crash and remap episodes (about 110–125 ms). Sensor and
/// failover appear twice, so a third of the ops lies on either side of
/// the failover cluster and the per-op median falls in its middle. With
/// the median in the overlap's lower tail instead, it moved by 13 %
/// between runs.
pub const MIX: [EpisodeKind; 6] = [
    EpisodeKind::Remap,
    EpisodeKind::Sensor,
    EpisodeKind::Failover,
    EpisodeKind::Crash,
    EpisodeKind::Sensor,
    EpisodeKind::Failover,
];

impl EpisodeKind {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Remap => "remap",
            Self::Failover => "failover",
            Self::Crash => "crash",
            Self::Sensor => "sensor",
        }
    }

    /// The trojan conditions of a trojan kind, with a spec label for the
    /// trace header. `pick` is a seed-derived draw that chooses the sites.
    fn trojan(
        self,
        config: &AcceleratorConfig,
        mapping: &WeightMapping,
        pick: u64,
    ) -> Option<(String, ConditionMap)> {
        match self {
            Self::Remap => {
                // Two adjacent CONV banks that both carry weights: the guard
                // bands localize them and the spares absorb their rings.
                let block = config.block(BlockKind::Conv);
                let per_bank = block.mrs_per_bank() as u64;
                let full = (mapping.utilization(BlockKind::Conv) * block.total_mrs() as f64) as u64
                    / per_bank;
                Some(park_banks(config, pick % full.saturating_sub(1).max(1), 2))
            }
            Self::Failover => {
                // Four adjacent idle CONV banks well clear of the weights:
                // no bank's drop current moves, so the guard bands cannot
                // localize the attack. Sentinel sites sit every two to
                // three banks of the idle region, so the block holds at
                // least one, whose integrity check keeps alarming until the
                // member fails over once its patience runs out.
                let per_bank = config.block(BlockKind::Conv).mrs_per_bank() as u64;
                let banks = config.block(BlockKind::Conv).total_mrs() / per_bank;
                let first = IDLE_FROM + pick % (banks - IDLE_FROM - IDLE_BANKS);
                Some(park_banks(config, first, IDLE_BANKS))
            }
            Self::Crash | Self::Sensor => None,
        }
    }

    fn fault(self) -> Option<FaultSpec> {
        match self {
            Self::Crash => Some(FaultSpec::new(
                FaultVector::Crash,
                AttackTarget::Both,
                0.0,
                ONSET,
            )),
            Self::Sensor => Some(FaultSpec::new(
                FaultVector::DeadSensor {
                    channel: SensorChannel::DeltaKelvin,
                },
                AttackTarget::Both,
                0.5,
                ONSET,
            )),
            Self::Remap | Self::Failover => None,
        }
    }

    /// Whether the policy's decisions on member 0 are the ones this kind
    /// must produce.
    fn action_matches(self, events: &[(usize, &ResponseAction)]) -> bool {
        let on0 = |f: &dyn Fn(&ResponseAction) -> bool| {
            events.iter().any(|&(member, a)| member == 0 && f(a))
        };
        let remap = on0(&|a| matches!(a, ResponseAction::Remap { .. }));
        let failover = on0(&|a| matches!(a, ResponseAction::Failover));
        match self {
            Self::Remap => remap && !failover,
            Self::Failover => failover,
            Self::Crash => {
                on0(&|a| matches!(a, ResponseAction::Crash))
                    && on0(&|a| matches!(a, ResponseAction::Recover))
            }
            // A calibrated-rate false alarm may quarantine an idle bank; what
            // must not happen is a spare spent or a failover.
            Self::Sensor => {
                let spent = on0(
                    &|a| matches!(a, ResponseAction::Remap { remapped_rings, .. } if *remapped_rings > 0),
                );
                on0(&|a| matches!(a, ResponseAction::Maintenance { .. })) && !spent && !failover
            }
        }
    }
}

/// The `respond` workload.
pub struct Respond {
    seed: u64,
    threads: usize,
    config: AcceleratorConfig,
    mapping: WeightMapping,
    prototype: FleetMember,
    policy: PolicyConfig,
    sentinel_counts: (usize, usize),
    slo: SloSpec,
    streams: Streams,
    calibrate_s: f64,
    digest: Digest,
    stats: Stats,
}

#[derive(Default)]
struct Stats {
    trace_bytes: usize,
    matched: usize,
    detect_batches: Vec<f64>,
    recover_batches: Vec<f64>,
    remapped_rings: usize,
    unplaced_rings: usize,
}

/// One finished episode, handed to the check.
pub struct Episode {
    outcome: StreamOutcome,
    incidents: Vec<IncidentReport>,
    trace_bytes: usize,
}

impl Respond {
    /// Builds the model, mapping, calibrated detectors, the prototype
    /// member and every episode's request stream.
    ///
    /// # Errors
    ///
    /// Any setup failure, as text.
    pub fn setup(seed: u64, seconds: u64, threads: usize) -> Result<Self, String> {
        let kind = ModelKind::Cnn1;
        let bundle = build_model(kind, 7).map_err(|e| e.to_string())?;
        let config = matched_accelerator(kind).map_err(|e| e.to_string())?;
        let mapping =
            WeightMapping::new(&config, &bundle.layer_specs).map_err(|e| e.to_string())?;
        let backend = BackendKind::Fast.build(&config);
        let t = std::time::Instant::now();
        let cal = calibrate(&bundle.network, &mapping, backend.as_ref(), BATCHES)?;
        let prototype = prototype(&bundle.network, &mapping, backend.as_ref(), &cal)?;
        let calibrate_s = t.elapsed().as_secs_f64();
        let sentinels = SentinelPlan::new(&mapping, &config, 32, 0.7);
        let sentinel_counts = (
            sentinels.sites(BlockKind::Conv).len(),
            sentinels.sites(BlockKind::Fc).len(),
        );
        let cycles = ((seconds as f64 * EPISODES_PER_S / MIX.len() as f64).round() as usize).max(1);
        let streams = Streams::new(
            request_images(256)?,
            cycles * MIX.len(),
            BATCHES * BATCH,
            seed,
            |_| vec![0.0; BATCHES * BATCH],
        );
        Ok(Self {
            seed,
            threads,
            config,
            mapping,
            prototype,
            policy: PolicyConfig::new(cal.thresholds),
            sentinel_counts,
            slo: SloSpec::default(),
            streams,
            calibrate_s,
            digest: Digest::default(),
            stats: Stats::default(),
        })
    }

    fn kind(i: usize) -> EpisodeKind {
        MIX[i % MIX.len()]
    }
}

/// What an episode injects.
enum Injected {
    Trojan(String, ConditionMap),
    Fault(FaultSpec, FaultPlan),
}

impl Workload for Respond {
    const SETUPS: usize = 15;

    type Unit = Episode;

    fn root_span(&self) -> &'static str {
        "respond.episode"
    }

    fn units(&self) -> usize {
        self.streams.len()
    }

    fn unit_ops(&self, _: usize) -> usize {
        1
    }

    fn cycle(&self) -> usize {
        MIX.len()
    }

    fn unit_kind(&self, i: usize) -> &'static str {
        Self::kind(i).label()
    }

    fn prepare_unit(&mut self, i: usize) -> Result<(), String> {
        self.streams.prepare(i)
    }

    fn begin_pass(&mut self) {
        self.digest = Digest::default();
        self.stats = Stats::default();
    }

    fn run_unit(&mut self, i: usize, spans: &mut Spans) -> Result<Episode, String> {
        let kind = Self::kind(i);
        let episode_seed = fold(self.seed, i as u64);
        let mut fleet = spans.time("serve.fleet_spawn", || {
            fleet_from(&self.prototype, 2, &self.policy)
        })?;
        let injected = spans
            .time("attack.inject", || {
                match (
                    kind.trojan(&self.config, &self.mapping, episode_seed),
                    kind.fault(),
                ) {
                    (Some((label, conditions)), _) => Ok(Injected::Trojan(label, conditions)),
                    (None, Some(spec)) => {
                        inject_fault(&spec, &self.config, self.sentinel_counts, episode_seed)
                            .map(|plan| Injected::Fault(spec, plan))
                    }
                    (None, None) => unreachable!("every episode kind injects something"),
                }
            })
            .map_err(|e| e.to_string())?;
        let header = match &injected {
            Injected::Trojan(label, _) => {
                format!("case={i:04} kind=trojan fault= scenario={label} trojan_onset={ONSET}")
            }
            Injected::Fault(spec, _) => format!(
                "case={i:04} kind=fault fault={} scenario= trojan_onset={ONSET}",
                spec.to_spec_string()
            ),
        };
        let (compromise, fault) = match &injected {
            Injected::Trojan(_, conditions) => (
                Some(Compromise {
                    member: 0,
                    onset_batch: ONSET,
                    conditions,
                }),
                None,
            ),
            Injected::Fault(_, plan) => (None, Some(MemberFault { member: 0, plan })),
        };
        let observer = Arc::new(ServeObserver::with_scope_slo(
            Arc::new(MetricsRegistry::new()),
            &[("episode", kind.label())],
            Some(&self.slo),
        ));
        fleet.set_observer(Some(observer.clone()));
        let requests = self.streams.current();
        let threads = self.threads;
        let outcome = opaque_call(
            spans,
            "serve.runtime",
            |p, out: &Result<StreamOutcome, safelight::SafelightError>| {
                let par = out
                    .as_ref()
                    .map_or(1.0, |o| concurrency(requests, o, threads));
                vec![
                    ("neuro.forward", phase_ns(p, "serve_predict") / par),
                    ("detect.inline", phase_ns(p, "serve_detect") / par),
                    ("onn.derive", phase_ns(p, "derive_network")),
                    ("onn.probe_build", phase_ns(p, "probe_build")),
                    ("detect.calibrate", phase_ns(p, "recalibrate")),
                ]
            },
            || {
                fleet.serve_queue(
                    requests,
                    BATCH,
                    usize::MAX,
                    compromise,
                    fault,
                    fold(episode_seed, 0x57EA),
                    threads,
                )
            },
        )
        .map_err(|e| e.to_string())?;
        let (trace, _) = spans.time("obs.drain", || {
            observer.evaluate_alerts();
            observer.drain(&[header])
        });
        let incidents = spans.time("incident.forensics", || {
            incidents_from_trace(&trace, &self.slo)
        });
        Ok(Episode {
            outcome,
            incidents,
            trace_bytes: trace.len(),
        })
    }

    fn check_unit(&mut self, i: usize, ep: Episode) -> usize {
        let kind = Self::kind(i);
        let events: Vec<(usize, &ResponseAction)> = ep
            .outcome
            .events
            .iter()
            .map(|e| (e.member, &e.action))
            .collect();
        let matched = ep.incidents.len() == 1 && ep.incidents[0].root_cause_match;
        let ok = matched && kind.action_matches(&events) && ep.outcome.unserved == 0;
        if !ok {
            eprintln!(
                "episode {i} ({}): incidents={} matched={matched} unserved={} events={:?}",
                kind.label(),
                ep.incidents.len(),
                ep.outcome.unserved,
                ep.outcome.events
            );
        }
        self.stats.trace_bytes += ep.trace_bytes;
        self.stats.matched += usize::from(matched);
        if let Some(inc) = ep.incidents.first() {
            self.stats
                .detect_batches
                .push(inc.detection_latency_batches);
            self.stats
                .recover_batches
                .push(inc.recovery_latency_batches);
            self.digest.add(inc.detection_latency_batches.to_bits());
            self.digest.add(inc.recovery_latency_batches.to_bits());
            for cause in &inc.observed {
                self.digest.add_str(cause.label());
            }
        }
        for e in &ep.outcome.events {
            self.digest.add(e.batch);
            self.digest.add(e.member as u64);
            self.digest.add(e.score.to_bits());
            self.digest.add_str(&format!("{:?}", e.action));
            if let ResponseAction::Remap {
                remapped_rings,
                unplaced_rings,
                ..
            } = e.action
            {
                self.stats.remapped_rings += remapped_rings;
                self.stats.unplaced_rings += unplaced_rings;
            }
        }
        for o in &ep.outcome.outcomes {
            self.digest.add(o.prediction as u64);
            self.digest.add(o.member as u64);
        }
        self.digest.add(ep.trace_bytes as u64);
        usize::from(!ok)
    }

    fn setup_times(&self) -> Vec<(&'static str, f64)> {
        vec![("setup.calibrate_s", self.calibrate_s)]
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn pass_metrics(&self, pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
        let units = self.streams.len().max(1) as f64;
        let per_op_ms = |phase: &str| pass.phase(phase).0 * 1e-6 / units;
        let finite =
            |v: &[f64]| -> Vec<f64> { v.iter().copied().filter(|x| x.is_finite()).collect() };
        let rings = self.stats.remapped_rings + self.stats.unplaced_rings;
        vec![
            ("onn.remap_ms", per_op_ms("remap"), "ms"),
            (
                "onn.remap_placed_share",
                self.stats.remapped_rings as f64 / rings.max(1) as f64,
                "share",
            ),
            (
                "serve.rebuilds_per_op",
                pass.phase("probe_build").1 as f64 / units,
                "count",
            ),
            (
                "obs.trace_bytes_per_op",
                self.stats.trace_bytes as f64 / units,
                "bytes",
            ),
            (
                "respond.detect_batches",
                mean(&finite(&self.stats.detect_batches)),
                "batches",
            ),
            (
                "respond.recover_batches",
                mean(&finite(&self.stats.recover_batches)),
                "batches",
            ),
            (
                "respond.incidents_matched_share",
                self.stats.matched as f64 / units,
                "share",
            ),
        ]
    }
}
