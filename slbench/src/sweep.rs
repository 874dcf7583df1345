//! `sweep`: the paper's Fig. 7 susceptibility sweep on VGG16_v.
//!
//! Each unit is one scenario and one op: `inject_full` → `derive_network`
//! → `accuracy` over a fixed test slice at batch 32. Scenarios cycle
//! actuation and hotspot × CONV/FC/both × 1/5/10 %; the seed picks each
//! scenario's trial, i.e. its attack sites. Set-up trains the model
//! in-process (no disk cache) and warms the thermal solver for every
//! bank, so no scenario pays a cold solve.

use std::time::Instant;

use safelight::attack::{fold, inject_full, AttackTarget, ScenarioSpec, VectorSpec};
use safelight::defense::{train_variant, VariantKind};
use safelight::eval::run_susceptibility;
use safelight::experiment::ExperimentOptions;
use safelight::models::{build_model, dataset_kind_for, matched_accelerator, ModelKind};
use safelight_neuro::{accuracy, Dataset, InMemoryDataset, Network};
use safelight_onn::{
    AcceleratorConfig, BackendKind, ConditionMap, InferenceBackend, WeightMapping,
};

use crate::spans::Spans;
use crate::stats::Digest;
use crate::workload::{Pass, Workload};

/// Test images every scenario is scored on.
const SLICE: usize = 64;
/// Evaluation batch size, as in the paper sweep.
const BATCH: usize = 32;
/// Scenarios per second of requested run length.
const SCENARIOS_PER_S: f64 = 9.0;
/// Every `REPLAY_EVERY`-th scenario is replayed through the library's
/// own sweep at one thread (coprime with the 18-scenario grid, so every
/// grid cell gets sampled).
const REPLAY_EVERY: usize = 11;
/// Lowest acceptable clean accuracy of the trained model on the full test
/// split.
const CLEAN_FLOOR: f64 = 0.6;

/// The 18 grid cells in cycle order.
fn grid() -> Vec<(VectorSpec, AttackTarget, f64)> {
    let mut cells = Vec::new();
    for vector in [VectorSpec::Actuation, VectorSpec::Hotspot] {
        for target in [
            AttackTarget::ConvBlock,
            AttackTarget::FcBlock,
            AttackTarget::Both,
        ] {
            for fraction in [0.01, 0.05, 0.10] {
                cells.push((vector, target, fraction));
            }
        }
    }
    cells
}

/// The `sweep` workload.
pub struct Sweep {
    seed: u64,
    config: AcceleratorConfig,
    mapping: WeightMapping,
    network: Network,
    backend: Box<dyn InferenceBackend>,
    slice: InMemoryDataset,
    specs: Vec<ScenarioSpec>,
    baseline: f64,
    clean_accuracy: f64,
    library_baseline: f64,
    setup_times: Vec<(&'static str, f64)>,
    digest: Digest,
    worst: f64,
}

impl Sweep {
    /// Generates the data, trains VGG16_v, warms the thermal cache and
    /// measures the clean baseline.
    ///
    /// # Errors
    ///
    /// Any setup failure, as text.
    pub fn setup(seed: u64, seconds: u64, threads: usize) -> Result<Self, String> {
        let kind = ModelKind::Vgg16s;
        let opts = ExperimentOptions {
            cache_dir: None,
            threads,
            ..ExperimentOptions::default()
        };
        let data = safelight_datasets::generate(dataset_kind_for(kind), &opts.data_spec(kind))
            .map_err(|e| e.to_string())?;
        let config = matched_accelerator(kind).map_err(|e| e.to_string())?;
        let bundle = build_model(kind, opts.recipe(kind).seed).map_err(|e| e.to_string())?;
        let mapping =
            WeightMapping::new(&config, &bundle.layer_specs).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut network =
            train_variant(kind, VariantKind::Original, &data, &opts.recipe(kind), None)
                .map_err(|e| e.to_string())?;
        let train_s = t.elapsed().as_secs_f64();
        let clean_accuracy =
            accuracy(&mut network, &data.test, BATCH).map_err(|e| e.to_string())?;

        // Every bank of both blocks, once: the unit-field cache then
        // holds every solve any hotspot scenario can need.
        let t = Instant::now();
        let all_banks = ScenarioSpec::new(VectorSpec::Hotspot, AttackTarget::Both, 1.0, 0);
        inject_full(&all_banks, &config, None, 0).map_err(|e| e.to_string())?;
        let warm_s = t.elapsed().as_secs_f64();

        let backend = BackendKind::Fast.build(&config);
        let (images, labels): (Vec<_>, Vec<_>) = (0..SLICE.min(data.test.len()))
            .map(|i| data.test.item(i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?
            .into_iter()
            .unzip();
        let slice = InMemoryDataset::new(images, labels).map_err(|e| e.to_string())?;
        let mut clean = backend
            .derive_network(&network, &mapping, &ConditionMap::new())
            .map_err(|e| e.to_string())?;
        let baseline = accuracy(&mut clean, &slice, BATCH).map_err(|e| e.to_string())?;
        let library_baseline =
            run_susceptibility(&network, &mapping, backend.as_ref(), &slice, &[], seed, 1)
                .map_err(|e| e.to_string())?
                .baseline;

        let cells = grid();
        let count = ((seconds as f64 * SCENARIOS_PER_S / cells.len() as f64).round() as usize)
            .max(1)
            * cells.len();
        let specs = (0..count)
            .map(|i| {
                let (vector, target, fraction) = cells[i % cells.len()];
                ScenarioSpec::new(vector, target, fraction, fold(seed, i as u64))
            })
            .collect();
        Ok(Self {
            seed,
            config,
            mapping,
            network,
            backend,
            slice,
            specs,
            baseline,
            clean_accuracy,
            library_baseline,
            setup_times: vec![("neuro.train_s", train_s), ("thermal.warm_s", warm_s)],
            digest: Digest::default(),
            worst: f64::INFINITY,
        })
    }
}

impl Workload for Sweep {
    type Unit = f64;

    fn setup_times(&self) -> Vec<(&'static str, f64)> {
        self.setup_times.clone()
    }

    /// The trained model clears the accuracy floor and the clean baseline
    /// equals the library sweep's.
    fn setup_check(&self) -> Result<(), String> {
        if self.clean_accuracy < CLEAN_FLOOR {
            return Err(format!(
                "clean accuracy {} below the floor {CLEAN_FLOOR}",
                self.clean_accuracy
            ));
        }
        if self.baseline.to_bits() != self.library_baseline.to_bits() {
            return Err(format!(
                "clean baseline {} differs from the library sweep's {}",
                self.baseline, self.library_baseline
            ));
        }
        Ok(())
    }

    fn root_span(&self) -> &'static str {
        "sweep.scenario"
    }

    fn units(&self) -> usize {
        self.specs.len()
    }

    fn unit_ops(&self, _: usize) -> usize {
        1
    }

    fn cycle(&self) -> usize {
        grid().len()
    }

    fn unit_kind(&self, i: usize) -> &'static str {
        match (self.specs[i].vectors[0], self.specs[i].target) {
            (VectorSpec::Hotspot, AttackTarget::ConvBlock) => "hotspot/conv",
            (VectorSpec::Hotspot, AttackTarget::FcBlock) => "hotspot/fc",
            (VectorSpec::Hotspot, _) => "hotspot/both",
            (_, AttackTarget::ConvBlock) => "actuation/conv",
            (_, AttackTarget::FcBlock) => "actuation/fc",
            _ => "actuation/both",
        }
    }

    fn begin_pass(&mut self) {
        self.digest = Digest::default();
        self.digest.add(self.baseline.to_bits());
        self.worst = f64::INFINITY;
    }

    fn run_unit(&mut self, i: usize, spans: &mut Spans) -> Result<f64, String> {
        let spec = &self.specs[i];
        let injection = spans
            .time("attack.inject", || {
                inject_full(spec, &self.config, None, self.seed)
            })
            .map_err(|e| e.to_string())?;
        let mut attacked = spans
            .time("onn.derive", || {
                self.backend
                    .derive_network(&self.network, &self.mapping, &injection.conditions)
            })
            .map_err(|e| e.to_string())?;
        spans
            .time("neuro.accuracy", || {
                accuracy(&mut attacked, &self.slice, BATCH)
            })
            .map_err(|e| e.to_string())
    }

    fn check_unit(&mut self, i: usize, acc: f64) -> usize {
        let mut ok = (0.0..=1.0).contains(&acc);
        if i.is_multiple_of(REPLAY_EVERY) {
            let spec = std::slice::from_ref(&self.specs[i]);
            let replay = run_susceptibility(
                &self.network,
                &self.mapping,
                self.backend.as_ref(),
                &self.slice,
                spec,
                self.seed,
                1,
            );
            ok &= matches!(replay, Ok(r) if r.trials[0].accuracy.to_bits() == acc.to_bits());
        }
        if !ok {
            eprintln!(
                "scenario {i} ({}): accuracy {acc} failed its check",
                self.specs[i].to_spec_string()
            );
        }
        self.digest.add(acc.to_bits());
        self.worst = self.worst.min(acc);
        usize::from(!ok)
    }

    fn digest(&self) -> Digest {
        self.digest
    }

    fn pass_metrics(&self, _: &Pass) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("sweep.baseline_accuracy", self.baseline, "share"),
            ("sweep.worst_drop", self.baseline - self.worst, "share"),
        ]
    }
}
