//! `slbench`: the SafeLight end-to-end benchmark.
//!
//! ```text
//! slbench --workload serve|respond|sweep --seed N --seconds S --trace 0|1 [--threads T]
//! ```
//!
//! One process, one closed-loop caller. The run sets the workload up
//! several times (reporting the median as `setup_s`), warms up on the
//! first tenth of the units, then runs one pass over the workload's fixed
//! unit list, timing each unit's call and checking its outputs outside
//! the timer. With `--trace 1` it runs a second, traced pass over the same
//! units and reports the per-layer split instead of the end-to-end
//! metrics. The last line of standard output is the JSON result; header
//! lines before it start with `#`.

mod host;
mod respond;
mod serve;
mod spans;
mod stats;
mod sweep;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use safelight_neuro::GemmImpl;

use crate::stats::{median, quantile};
use crate::workload::{run_pass, Pass, Workload};

/// Segments the throughput median is taken over.
const SEGMENTS: usize = 10;

/// One in this many units is run once as an untimed warm-up.
const WARMUP_DIVISOR: usize = 10;

/// Per-layer metrics of the traced run, with units. Every traced run
/// reports all of them; a layer a workload never enters reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("neuro.forward_ms", "ms"),
    ("neuro.forward_gflops", "GFLOP/s"),
    ("neuro.accuracy_ms", "ms"),
    ("neuro.calls.int", "count"),
    ("neuro.calls.direct", "count"),
    ("neuro.calls.simd", "count"),
    ("neuro.calls.simd_parallel", "count"),
    ("neuro.calls.im2col", "count"),
    ("neuro.calls.fft", "count"),
    ("neuro.train_s", "s"),
    ("onn.probe_frame_us", "us"),
    ("onn.telemetry_ms", "ms"),
    ("detect.score_us", "us"),
    ("detect.score_ms", "ms"),
    ("detect.inline_ms", "ms"),
    ("serve.member_busy_share", "share"),
    ("serve.runtime_self_ms", "ms"),
    ("serve.batch_fill", "share"),
    ("onn.probe_build_ms", "ms"),
    ("onn.derive_ms", "ms"),
    ("onn.remap_ms", "ms"),
    ("onn.remap_placed_share", "share"),
    ("serve.rebuilds_per_op", "count"),
    ("detect.calibrate_ms", "ms"),
    ("serve.fleet_spawn_ms", "ms"),
    ("obs.trace_bytes_per_op", "bytes"),
    ("obs.drain_ms", "ms"),
    ("incident.forensics_ms", "ms"),
    ("attack.inject_ms", "ms"),
    ("thermal.warm_s", "s"),
    ("setup.calibrate_s", "s"),
    ("serve.vt_p50_ticks", "ticks"),
    ("serve.vt_p99_ticks", "ticks"),
    ("serve.shed_share", "share"),
    ("respond.detect_batches", "batches"),
    ("respond.recover_batches", "batches"),
    ("respond.incidents_matched_share", "share"),
    ("sweep.baseline_accuracy", "share"),
    ("sweep.worst_drop", "share"),
    ("trace.unit_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.accounted_share", "share"),
    ("trace.overhead_share", "share"),
    ("env.cpu_steal_share", "share"),
];

/// Span name → the per-unit self-time metric it reports as.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("neuro.forward", "neuro.forward_ms"),
    ("neuro.accuracy", "neuro.accuracy_ms"),
    ("onn.probe_frame", "onn.telemetry_ms"),
    ("detect.score", "detect.score_ms"),
    ("detect.inline", "detect.inline_ms"),
    ("serve.runtime", "serve.runtime_self_ms"),
    ("onn.probe_build", "onn.probe_build_ms"),
    ("onn.derive", "onn.derive_ms"),
    ("detect.calibrate", "detect.calibrate_ms"),
    ("serve.fleet_spawn", "serve.fleet_spawn_ms"),
    ("obs.drain", "obs.drain_ms"),
    ("incident.forensics", "incident.forensics_ms"),
    ("attack.inject", "attack.inject_ms"),
];

/// GEMM kernel class → per-op call-count metric.
const KERNEL_METRICS: &[(&str, &str)] = &[
    ("int", "neuro.calls.int"),
    ("direct", "neuro.calls.direct"),
    ("simd", "neuro.calls.simd"),
    ("simd_parallel", "neuro.calls.simd_parallel"),
    ("conv_im2col", "neuro.calls.im2col"),
    ("conv_fft", "neuro.calls.fft"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key, value);
    }
    let mut take = |key: &str, default: Option<&str>| -> Result<String, String> {
        map.remove(key)
            .or_else(|| default.map(str::to_string))
            .ok_or_else(|| format!("missing --{key}"))
    };
    let num = |key: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("--{key} expects a whole number, got `{v}`"))
    };
    let workload = take("workload", None)?;
    let seed = num("seed", take("seed", None)?)?;
    let seconds = num("seconds", take("seconds", None)?)?.max(1);
    let trace = match take("trace", Some("0"))?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let threads = num("threads", take("threads", Some("2"))?)?.max(1) as usize;
    if let Some(key) = map.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

/// Pins glibc's allocator to one arena. With glibc's default of an arena
/// per thread, how many arenas grow to hold the large buffers of a remap
/// depends on which pool thread happened to allocate them, so identical
/// `respond` runs read peak RSS in 8 MiB steps (about 54 vs 62 MiB).
/// Called before the process starts any other thread.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    /// glibc's `M_ARENA_MAX` parameter number.
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only changes an allocator tunable and accepts any
    // positive arena count; no other thread exists yet to race with it.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: slbench --workload serve|respond|sweep --seed N --seconds S --trace 0|1 [--threads T]"
            );
            return ExitCode::from(2);
        }
    };
    // The shared worker pool reads this once, on first use.
    std::env::set_var("SAFELIGHT_THREADS", args.threads.to_string());
    let (seed, seconds, threads) = (args.seed, args.seconds, args.threads);
    let result = match args.workload.as_str() {
        "serve" => run(&args, "quantized", || {
            serve::Serve::setup(seed, seconds, threads)
        }),
        "respond" => run(&args, "fast", || {
            respond::Respond::setup(seed, seconds, threads)
        }),
        "sweep" => run(&args, "fast", || {
            sweep::Sweep::setup(seed, seconds, threads)
        }),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sets `W` up [`Workload::SETUPS`] times, runs the untimed pass and, when traced,
/// the traced pass; prints the run header and returns the JSON result.
fn run<W: Workload>(
    args: &Args,
    backend: &str,
    setup: impl Fn() -> Result<W, String>,
) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(W::SETUPS);
    let mut setup_phases: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut w = None;
    for _ in 0..W::SETUPS {
        drop(w.take());
        let start = Instant::now();
        let built = setup()?;
        setup_s.push(start.elapsed().as_secs_f64());
        for (name, s) in built.setup_times() {
            setup_phases.entry(name).or_default().push(s);
        }
        w = Some(built);
    }
    // The thermal unit-field cache is process-wide, so only the first
    // set-up pays the cold solve; charge it to every set-up so that the
    // median still includes it.
    if let Some(warm) = setup_phases.get("thermal.warm_s") {
        let cold = warm.iter().copied().fold(0.0, f64::max);
        for (total, own) in setup_s.iter_mut().zip(warm) {
            *total += cold - own;
        }
    }
    let mut w = w.expect("at least one set-up ran");
    let setup_check = w.setup_check();
    if let Err(e) = &setup_check {
        eprintln!("set-up check failed: {e}");
    }

    let units = w.units();
    // Throughput is the median over segments of whole mix cycles,
    // about a tenth of the run each.
    let segment = units.div_ceil(SEGMENTS).div_ceil(w.cycle()) * w.cycle();
    // Warm-up: the first tenth of the units, untimed and discarded, so
    // lazily grown buffers and caches are in place before timing starts.
    let warm = run_pass(&mut w, units.div_ceil(WARMUP_DIVISOR), false);
    let plain = run_pass(&mut w, units, false);
    let traced = args.trace.then(|| run_pass(&mut w, units, true));
    let digests_agree = traced.as_ref().is_none_or(|t| t.digest == plain.digest);
    if !digests_agree {
        eprintln!("traced pass digest differs from the untraced pass");
    }

    let gemm = GemmImpl::active();
    println!(
        "# slbench workload={} seed={} seconds={} trace={} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::git_revision()
    );
    println!(
        "# gemm={} isa={} backend={backend} threads={} nproc={}",
        gemm.name(),
        gemm.isa(),
        args.threads,
        host::nproc()
    );
    println!(
        "# units={} ops={} kinds={:?} failed={} digest={} cpu_steal_share={:.4}",
        w.units(),
        plain.attempted,
        plain.kinds,
        plain.failed,
        plain.digest.hex(),
        plain.steal_share
    );

    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, &(ns, _)) in plain.unit_ns.iter().enumerate() {
        by_kind.entry(w.unit_kind(i)).or_default().push(ns * 1e-6);
    }
    let kind_p50: Vec<String> = by_kind
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}={:.2}[{:.1}-{:.1}]",
                median(v),
                quantile(v, 0.1),
                quantile(v, 0.9)
            )
        })
        .collect();
    println!("# unit_ms p50[p10-p90] {}", kind_p50.join(" "));

    let passes: Vec<&Pass> = [&warm, &plain].into_iter().chain(&traced).collect();
    let attempted: usize = passes.iter().map(|p| p.attempted).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && setup_check.is_ok() && digests_agree && attempted > 0;

    let metrics = match &traced {
        None => end_to_end(&plain, segment, &setup_s),
        Some(t) => per_layer(&w, &plain, t, segment, &setup_phases),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(pass: &Pass, segment: usize, setup_s: &[f64]) -> Vec<Metric> {
    let latencies = pass.op_latencies_ms();
    vec![
        ("ops_per_s", pass.ops_per_s(segment), "1/s"),
        ("op_p50_ms", quantile(&latencies, 0.50), "ms"),
        ("op_p90_ms", quantile(&latencies, 0.90), "ms"),
        ("setup_s", median(setup_s), "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

fn per_layer<W: Workload>(
    w: &W,
    plain: &Pass,
    traced: &Pass,
    segment: usize,
    setup_phases: &BTreeMap<&'static str, Vec<f64>>,
) -> Vec<Metric> {
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let units = traced.spans.roots().max(1) as f64;
    let self_ns = traced.spans.self_ns();
    let mut accounted = self_ns.get(w.root_span()).copied().unwrap_or(0.0);
    for &(span, metric) in SPAN_METRICS {
        let ns = self_ns.get(span).copied().unwrap_or(0.0);
        accounted += ns;
        values.insert(metric, ns * 1e-6 / units);
    }
    let root_ms = traced.spans.root_ns() * 1e-6 / units;
    values.insert("trace.unit_ms", root_ms);
    values.insert(
        "trace.unattributed_ms",
        self_ns.get(w.root_span()).copied().unwrap_or(0.0) * 1e-6 / units,
    );
    values.insert("trace.accounted_share", accounted * 1e-6 / units / root_ms);
    values.insert(
        "trace.overhead_share",
        1.0 - traced.ops_per_s(segment) / plain.ops_per_s(segment),
    );
    values.insert("env.cpu_steal_share", traced.steal_share);
    let ops = traced.attempted.max(1) as f64;
    for &(class, metric) in KERNEL_METRICS {
        values.insert(metric, traced.kernel(class) as f64 / ops);
    }
    for (name, samples) in setup_phases {
        // The thermal cache is process-wide: only the first set-up pays
        // the cold solve, so report that one rather than the median.
        let v = if *name == "thermal.warm_s" {
            samples.iter().copied().fold(0.0, f64::max)
        } else {
            median(samples)
        };
        values.insert(name, v);
    }
    for (name, v, _) in w.pass_metrics(traced) {
        values.insert(name, v);
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
