//! `serve`: steady-state secure serving on a healthy two-member CNN_1
//! fleet with the quantized backend.
//!
//! Each unit is one fixed window of requests submitted through
//! [`Fleet::serve_queue`] with virtual-time Poisson arrivals below
//! saturation; every request of the window is one op, and its latency is
//! the window call that served it. Inline detection scores every batch
//! under [`PolicyConfig::baseline`], so a false alarm cannot change the
//! fleet. The arrival schedule of window `w` is fixed; the seed picks the
//! request images and the telemetry noise streams.

use safelight::attack::fold;
use safelight::detect::{default_detectors, Detector, GuardBandDetector};
use safelight::models::{build_model, dataset_kind_for, matched_accelerator, ModelKind};
use safelight_datasets::SyntheticSpec;
use safelight_neuro::{Dataset, InMemoryDataset, Network, SimRng, Tensor};
use safelight_onn::{
    BackendKind, ConditionMap, InferenceBackend, SentinelPlan, TapConfig, TelemetryFrame,
    WeightMapping,
};
use safelight_serve::eval::operating_thresholds;
use safelight_serve::{ArrivalModel, Fleet, FleetMember, PolicyConfig, Request, StreamOutcome};

use crate::spans::Spans;
use crate::stats::{quantile, Digest};
use crate::workload::{opaque_call, phase_ns, Pass, Workload};

/// Requests per window.
pub const WINDOW: usize = 256;
/// Requests per micro-batch.
pub const BATCH: usize = 16;
/// Fleet members.
pub const MEMBERS: usize = 2;
/// Poisson arrival rate in requests per virtual tick: two thirds of the
/// 2 × 16 per-tick drain, below the measured saturation point of 24.
pub const RATE: f64 = 16.0;
/// Windows per second of requested run length (sized so one window
/// takes about 1/`WINDOWS_PER_S` s on a 2-core host).
const WINDOWS_PER_S: f64 = 28.0;
/// Every `REPLAY_EVERY`-th window is replayed batch by batch.
const REPLAY_EVERY: usize = 8;
/// Fixed key of the arrival schedules: arrivals never follow the seed.
const ARRIVAL_KEY: u64 = 0xA771_7A15;
/// Multiply-accumulates per CNN_1 image: conv1 (8×1×5×5 at 28×28),
/// conv2 (16×8×3×3 at 14×14) and the three dense layers (784·48 + 48·24
/// + 24·10), following `safelight::models::build_cnn1`.
const CNN1_MACS: f64 =
    (8 * 25 * 28 * 28 + 16 * 8 * 9 * 14 * 14 + 784 * 48 + 48 * 24 + 24 * 10) as f64;

/// Attack-free frames the detectors and guard bands are calibrated on.
/// The serving evaluation's default of 48 leaves some bank's estimated σ
/// low enough that read noise alone crosses the 6σ implication threshold
/// about once in a few hundred `respond` failover episodes, turning the
/// failover into a spare-free remap; 256 frames put the noise maximum
/// near 4.3σ.
const CALIBRATION_FRAMES: u64 = 256;

/// Calibrated detector state shared by every member built from it.
pub struct Calibrated {
    pub suite: Vec<Box<dyn Detector>>,
    pub guard: GuardBandDetector,
    pub thresholds: Vec<f64>,
}

/// Calibrates the default detector suite on attack-free telemetry of
/// `(network, mapping)` and picks operating thresholds for a 5 %
/// per-stream false-positive target, the way the serving evaluation
/// does but on [`CALIBRATION_FRAMES`] frames.
pub fn calibrate(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    stream_batches: usize,
) -> Result<Calibrated, String> {
    let sentinels = SentinelPlan::new(mapping, backend.config(), 32, 0.7);
    let probe = backend
        .probe(
            network,
            mapping,
            &ConditionMap::new(),
            &sentinels,
            TapConfig::default(),
        )
        .map_err(|e| e.to_string())?;
    let frames: Vec<TelemetryFrame> = (0..CALIBRATION_FRAMES)
        .map(|b| probe.frame(b, 0xCA11_B8A7))
        .collect();
    let mut suite = default_detectors();
    for d in &mut suite {
        d.calibrate(&frames).map_err(|e| e.to_string())?;
    }
    let mut guard = GuardBandDetector::default();
    guard.calibrate(&frames).map_err(|e| e.to_string())?;
    let thresholds = operating_thresholds(&probe, &mut suite, 32, stream_batches, 0.05, 0xBE7C);
    Ok(Calibrated {
        suite,
        guard,
        thresholds,
    })
}

/// Builds fleet member 0 of `(network, mapping)` on `backend`.
pub fn prototype(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    cal: &Calibrated,
) -> Result<FleetMember, String> {
    FleetMember::new(
        0,
        network,
        mapping.clone(),
        backend.clone_box(),
        TapConfig::default(),
        32,
        0.7,
        cal.suite.iter().map(|d| d.clone_box()).collect(),
        cal.guard.clone(),
    )
    .map_err(|e| e.to_string())
}

/// Clones a fresh `size`-member fleet from `prototype`.
pub fn fleet_from(
    prototype: &FleetMember,
    size: usize,
    policy: &PolicyConfig,
) -> Result<Fleet, String> {
    let members = (0..size).map(|id| prototype.clone_as(id)).collect();
    Fleet::new(members, policy.clone()).map_err(|e| e.to_string())
}

/// Mean number of micro-batches that ran at once per served tick (at most
/// `threads`): the divisor that turns thread-summed member time inside a
/// serve call into wall time.
pub fn concurrency(requests: &[Request], out: &StreamOutcome, threads: usize) -> f64 {
    let mut ticks: Vec<u64> = Vec::new();
    let mut batches: Vec<u64> = Vec::new();
    for o in &out.outcomes {
        // queue_delay = dispatch tick − arrival, so the sum is the tick.
        ticks.push((requests[o.id as usize].arrived_at + o.queue_delay).round() as u64);
        batches.push(o.batch);
    }
    ticks.sort_unstable();
    ticks.dedup();
    batches.sort_unstable();
    batches.dedup();
    if ticks.is_empty() {
        return 1.0;
    }
    (batches.len() as f64 / ticks.len() as f64).clamp(1.0, threads.max(1) as f64)
}

/// Fixed-length request streams, kept as `(image, arrival)` plans so
/// memory does not grow with the run length; the tensors of one stream
/// are materialized, untimed, just before its unit runs.
pub struct Streams {
    images: InMemoryDataset,
    plans: Vec<Vec<(usize, f64)>>,
    current: Vec<Request>,
}

impl Streams {
    /// `count` streams of `len` requests each over `images`. Stream `s`
    /// takes a seed-permuted run of the images; `arrivals(s)` gives its
    /// arrival times, which must not depend on the seed.
    pub fn new(
        images: InMemoryDataset,
        count: usize,
        len: usize,
        seed: u64,
        arrivals: impl Fn(u64) -> Vec<f64>,
    ) -> Self {
        let plans = (0..count as u64)
            .map(|s| {
                let mut order: Vec<usize> = (0..images.len()).collect();
                SimRng::seed_from(seed).derive(s).shuffle(&mut order);
                let times = arrivals(s);
                (0..len)
                    .map(|i| (order[i % order.len()], times[i]))
                    .collect()
            })
            .collect();
        Self {
            images,
            plans,
            current: Vec::new(),
        }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Materializes stream `s` as the current requests.
    pub fn prepare(&mut self, s: usize) -> Result<(), String> {
        self.current = self.plans[s]
            .iter()
            .enumerate()
            .map(|(i, &(img, arrived_at))| {
                let (input, _) = self.images.item(img).map_err(|e| e.to_string())?;
                Ok(Request {
                    id: i as u64,
                    input,
                    arrived_at,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    /// The requests of the most recently prepared stream.
    pub fn current(&self) -> &[Request] {
        &self.current
    }
}

/// A fixed test split of the CNN_1 digits data to draw requests from.
pub fn request_images(count: usize) -> Result<InMemoryDataset, String> {
    safelight_datasets::generate(
        dataset_kind_for(ModelKind::Cnn1),
        &SyntheticSpec {
            train: 1,
            test: count,
            ..SyntheticSpec::default()
        },
    )
    .map(|d| d.test)
    .map_err(|e| e.to_string())
}

/// The `serve` workload.
pub struct Serve {
    seed: u64,
    threads: usize,
    prototype: FleetMember,
    policy: PolicyConfig,
    /// Clean-derived effective network for the replay check.
    replay: Network,
    backend: Box<dyn InferenceBackend>,
    windows: Streams,
    fleet: Option<Fleet>,
    calibrate_s: f64,
    digest: Digest,
    latencies_ticks: Vec<f64>,
    offered: usize,
    shed: usize,
    batches: usize,
}

/// One served window, handed to the check.
pub struct Window {
    outcome: StreamOutcome,
}

impl Serve {
    /// Builds the model, accelerator mapping, calibrated detectors,
    /// prototype member and the fixed request windows.
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
        let backend = BackendKind::quantized_default().build(&config);
        let windows_n = ((seconds as f64 * WINDOWS_PER_S).round() as usize).max(1);
        let per_window_batches = WINDOW.div_ceil(BATCH);
        let t = std::time::Instant::now();
        let cal = calibrate(
            &bundle.network,
            &mapping,
            backend.as_ref(),
            per_window_batches,
        )?;
        let prototype = prototype(&bundle.network, &mapping, backend.as_ref(), &cal)?;
        let calibrate_s = t.elapsed().as_secs_f64();
        let replay = backend
            .derive_network(&bundle.network, &mapping, &ConditionMap::new())
            .map_err(|e| e.to_string())?;
        let arrivals = ArrivalModel::Poisson { rate: RATE };
        let windows = Streams::new(request_images(512)?, windows_n, WINDOW, seed, |w| {
            arrivals.schedule(WINDOW, fold(ARRIVAL_KEY, w))
        });
        Ok(Self {
            seed,
            threads,
            prototype,
            policy: PolicyConfig::baseline(cal.thresholds),
            replay,
            backend,
            windows,
            fleet: None,
            calibrate_s,
            digest: Digest::default(),
            latencies_ticks: Vec::new(),
            offered: 0,
            shed: 0,
            batches: 0,
        })
    }

    /// Replays every micro-batch of `outcome` through a direct
    /// `predict_batch` on the clean-derived network; returns the number of
    /// requests whose served prediction differs.
    fn replay_mismatches(&mut self, outcome: &StreamOutcome) -> usize {
        let requests = self.windows.current();
        let mut mismatches = 0;
        let mut start = 0;
        while start < outcome.outcomes.len() {
            let batch = outcome.outcomes[start].batch;
            let end = outcome.outcomes[start..]
                .iter()
                .position(|o| o.batch != batch)
                .map_or(outcome.outcomes.len(), |n| start + n);
            let group = &outcome.outcomes[start..end];
            let inputs: Vec<&Tensor> = group
                .iter()
                .map(|o| &requests[o.id as usize].input)
                .collect();
            match self.backend.predict_batch(&mut self.replay, &inputs) {
                Ok(preds) => {
                    mismatches += group
                        .iter()
                        .zip(&preds)
                        .filter(|(o, &p)| o.prediction != p)
                        .count();
                }
                Err(_) => mismatches += group.len(),
            }
            start = end;
        }
        mismatches
    }
}

impl Workload for Serve {
    const SETUPS: usize = 15;

    type Unit = Window;

    fn root_span(&self) -> &'static str {
        "serve.window"
    }

    fn units(&self) -> usize {
        self.windows.len()
    }

    fn unit_ops(&self, _: usize) -> usize {
        WINDOW
    }

    fn unit_kind(&self, _: usize) -> &'static str {
        "request"
    }

    fn prepare_unit(&mut self, i: usize) -> Result<(), String> {
        self.windows.prepare(i)
    }

    fn begin_pass(&mut self) {
        self.fleet = fleet_from(&self.prototype, MEMBERS, &self.policy).ok();
        self.digest = Digest::default();
        self.latencies_ticks.clear();
        self.offered = 0;
        self.shed = 0;
        self.batches = 0;
    }

    fn run_unit(&mut self, i: usize, spans: &mut Spans) -> Result<Window, String> {
        let fleet = self.fleet.as_mut().ok_or("fleet construction failed")?;
        let requests = self.windows.current();
        let stream_seed = fold(self.seed, i as u64);
        let threads = self.threads;
        let outcome = opaque_call(
            spans,
            "serve.runtime",
            |p, out: &Result<StreamOutcome, safelight::SafelightError>| {
                let par = out
                    .as_ref()
                    .map_or(1.0, |o| concurrency(requests, o, threads));
                let frame = phase_ns(p, "probe_frame");
                vec![
                    ("neuro.forward", phase_ns(p, "serve_predict") / par),
                    ("onn.probe_frame", frame / par),
                    ("detect.score", (phase_ns(p, "serve_detect") - frame) / par),
                ]
            },
            || {
                fleet.serve_queue(
                    requests,
                    BATCH,
                    4 * MEMBERS * BATCH,
                    None,
                    None,
                    stream_seed,
                    self.threads,
                )
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(Window { outcome })
    }

    fn check_unit(&mut self, i: usize, unit: Window) -> usize {
        let out = unit.outcome;
        let mut failed = out.unserved + out.shed;
        if out.outcomes.len() + out.unserved + out.shed != WINDOW {
            failed = WINDOW;
        }
        if i.is_multiple_of(REPLAY_EVERY) {
            failed += self.replay_mismatches(&out);
        }
        let mut batches: Vec<(usize, u64)> = Vec::new();
        for o in &out.outcomes {
            self.digest.add(o.id);
            self.digest.add(o.prediction as u64);
            self.digest.add(o.member as u64);
            self.digest.add(o.batch);
            self.digest.add(o.service_latency.to_bits());
            if batches.last() != Some(&(o.member, o.batch)) {
                batches.push((o.member, o.batch));
            }
            self.latencies_ticks.push(o.service_latency);
        }
        self.digest.add(out.ticks);
        self.digest.add(out.shed as u64);
        self.digest.add(out.unserved as u64);
        self.offered += WINDOW;
        self.shed += out.shed;
        self.batches += batches.len();
        failed
    }

    fn setup_times(&self) -> Vec<(&'static str, f64)> {
        vec![("setup.calibrate_s", self.calibrate_s)]
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn pass_metrics(&self, pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
        let (predict_ns, _) = pass.phase("serve_predict");
        let (detect_ns, frames) = pass.phase("serve_detect");
        let (frame_ns, _) = pass.phase("probe_frame");
        let served = self.latencies_ticks.len() as f64;
        let runtime_wall: f64 = pass.timed_s() * 1e9;
        vec![
            (
                "serve.vt_p50_ticks",
                quantile(&self.latencies_ticks, 0.50),
                "ticks",
            ),
            (
                "serve.vt_p99_ticks",
                quantile(&self.latencies_ticks, 0.99),
                "ticks",
            ),
            (
                "serve.shed_share",
                self.shed as f64 / self.offered.max(1) as f64,
                "share",
            ),
            (
                "serve.batch_fill",
                served / (self.batches.max(1) * BATCH) as f64,
                "share",
            ),
            (
                "neuro.forward_gflops",
                2.0 * CNN1_MACS * served / predict_ns.max(1.0),
                "GFLOP/s",
            ),
            (
                "serve.member_busy_share",
                (predict_ns + detect_ns) / (self.threads as f64 * runtime_wall),
                "share",
            ),
            (
                "onn.probe_frame_us",
                frame_ns / frames.max(1) as f64 * 1e-3,
                "us",
            ),
            (
                "detect.score_us",
                (detect_ns - frame_ns) / frames.max(1) as f64 * 1e-3,
                "us",
            ),
        ]
    }
}
