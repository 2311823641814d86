//! Drift-calibrated serving benchmark for the ABNN2 workspace.
//!
//! `abnn2-perfbench --workload W --seed S --seconds T --trace 0|1 [--quick]`
//! runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `bench/README.md`.

mod calib;
mod json;
mod load;
mod names;
mod probes;
mod stats;
mod trace;
mod workloads;

use calib::Calibrator;
use json::Metrics;
use load::{Loop, Outcome, Serving, Window};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;
/// A run keeps measuring past `--seconds` until it has this many
/// predictions, so that p90 always has five samples beyond it.
const MIN_PREDICTIONS: usize = 50;
const P90_MIN_BEYOND: usize = 5;
/// A run that cannot reach `MIN_PREDICTIONS` by then reports no p90 and
/// fails, well inside the driver's 180 s limit.
const HARD_CAP_S: f64 = 120.0;
const SETUP_REPS: usize = 5;
const PROBE_REPS: usize = 5;
const QUICK_PREDICTIONS: usize = 5;
/// Share of `--seconds` the traced run spends serving; the probes take
/// about the rest.
const TRACED_SHARE: f64 = 0.4;
/// Traced predictions at least, and as many untraced ones between them.
const MIN_TRACED: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("an integer")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The two RNG streams `--seed` feeds: input vectors, and the client's
/// protocol randomness.
fn seeded(seed: u64) -> (StdRng, StdRng) {
    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed ^ 0x636C_6965_6E74))
}

/// What one run reports.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Uncalibrated readings of the timed metrics, printed as `raw.*`
    /// beside the result (never inside it) so the correction stays visible.
    raw: Metrics,
}

/// The untraced run: set-up repetitions, warm-up, one measured window.
fn run_end_to_end(args: &Args) -> RunResult {
    let mut calib = Calibrator::new();
    let (mut input_rng, mut client_rng) = seeded(args.seed);
    let (mut metrics, mut raw) = (Metrics::default(), Metrics::default());
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: model from its seed → Server::start → pool to depth → one
    // checked prediction. The last repetition's server serves the run.
    let reference = workloads::Workload::build(&args.workload).expect("known workload");
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let (mut setups, mut raw_setups) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut serving = None;
    for _ in 0..reps {
        drop(serving.take());
        let input = reference.model.input(&mut input_rng);
        let expected = reference.model.forward_exact(&input);
        let ((started, result), sample) = calib::timed(&mut calib, || {
            let started = Serving::start(&args.workload);
            let result = started.client.run(started.addr(), &[input], &mut client_rng);
            (started, result)
        });
        attempted += 1;
        failed += u64::from(!load::check(reference.path, &expected, result).1);
        setups.push(sample.calibrated() / 1e3);
        raw_setups.push(sample.raw / 1e3);
        serving = Some(started);
    }
    let serving = serving.expect("at least one set-up repetition");
    metrics.put("setup_s", stats::median(&setups), "s");
    raw.put("raw.setup_s", stats::median(&raw_setups), "s");

    let mut lp = Loop::new(&serving, &mut calib, &mut input_rng, &mut client_rng);
    let warm_up = if args.quick { 1 } else { load::WARM_UP };
    let warm_failed = lp.warm_up(warm_up);
    let (quick, seconds) = (args.quick, args.seconds);
    // The peak is read after a fixed number of predictions: the heap
    // keeps growing a little with every session, and a time-boxed run
    // serves more of them on a fast host.
    let rss_at = if quick { QUICK_PREDICTIONS } else { MIN_PREDICTIONS };
    let mut peak_rss_mb = None;
    let window = Window::measure(
        &mut lp,
        (1 + warm_up) as u64,
        |n, t| {
            if quick {
                n < QUICK_PREDICTIONS
            } else {
                (t < seconds || n < MIN_PREDICTIONS) && t < HARD_CAP_S
            }
        },
        |i, _| {
            if i + 1 == rss_at {
                peak_rss_mb = Some(load::peak_rss_mb());
            }
        },
    );
    attempted += (warm_up + window.samples.len()) as u64;
    failed += warm_failed + window.failed;

    let n = window.samples.len() as f64;
    let raw_latencies: Vec<f64> = window.samples.iter().map(|s| s.raw).collect();
    let p90_beyond = if quick { 0 } else { P90_MIN_BEYOND };
    metrics.put("predictions_per_s", n / window.calibrated(window.wall_s), "1/s");
    raw.put("raw.predictions_per_s", n / window.wall_s, "1/s");
    for (out, prefix, latencies) in
        [(&mut metrics, "", &window.latencies_ms()), (&mut raw, "raw.", &raw_latencies)]
    {
        if let Some(p50) = stats::percentile(latencies, 50, 0) {
            out.put(&format!("{prefix}latency_p50_ms"), p50, "ms");
        }
        if let Some(p90) = stats::percentile(latencies, 90, p90_beyond) {
            out.put(&format!("{prefix}latency_p90_ms"), p90, "ms");
        }
    }
    metrics.put("cpu_s_per_prediction", window.calibrated(window.cpu_s) / n, "s");
    raw.put("raw.cpu_s_per_prediction", window.cpu_s / n, "s");
    // Every prediction of a workload moves the same bytes and frames; a
    // remainder means a retry or a shed attempt got into the window, and
    // the metric goes missing.
    let frames = window.traffic.messages_sent + window.traffic.messages_received;
    for (name, total, unit) in [
        ("wire_bytes_per_prediction", window.traffic.total_bytes(), "bytes"),
        ("online_bytes_per_prediction", window.online.total_bytes(), "bytes"),
        ("frames_per_prediction", frames, "count"),
    ] {
        match stats::exact_per(total, window.sessions) {
            Some(v) if window.sessions == window.samples.len() as u64 => {
                metrics.put(name, v as f64, unit);
            }
            _ => eprintln!("{name}: {total} over {} sessions does not divide", window.sessions),
        }
    }
    if let Some(mb) = peak_rss_mb {
        metrics.put("peak_rss_mb", mb, "MB");
    }
    let mut csv = String::from("raw_ms,calib_before_ms,calib_after_ms\n");
    for s in &window.samples {
        csv.push_str(&format!("{},{},{}\n", s.raw, s.calib_before_ms, s.calib_after_ms));
    }
    keep(&format!("samples-{}.csv", args.workload), &csv);

    eprintln!(
        "{}: {} predictions, calibration median {:.3} ms (iqr {:.3})",
        args.workload,
        window.samples.len(),
        window.calib_median_ms(),
        stats::iqr(&window.calib_readings()),
    );
    RunResult { attempted, failed, metrics, raw }
}

/// Operation kinds whose online step is a garbled circuit.
const GC_KINDS: [&str; 4] = ["relu", "softmax", "gelu", "layernorm"];
/// Operation kinds whose online step is share arithmetic and openings.
const LINEAR_KINDS: [&str; 4] = ["dense", "linear", "matmulss", "output"];

/// The figures `record_request` takes from one traced request, in its
/// order; each is reported as the median over the traced requests.
const TRACE_FIGURES: [(&str, &str); 10] = [
    ("trace.setup_ms", "ms"),
    ("trace.handshake_ms", "ms"),
    ("trace.bundle_ms", "ms"),
    ("trace.offline_ms", "ms"),
    ("trace.online_ms", "ms"),
    ("trace.online_gc_ms", "ms"),
    ("trace.online_linear_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("trace.offline_bytes", "bytes"),
    ("trace.online_gc_bytes", "bytes"),
];

/// Records one request's spans: a root per request with children `calib`
/// and `client.run`, and under `client.run` one span per phase label of
/// the client's report in first-seen order. Phase durations are the
/// client's own phase clock; the spans are laid end to end from the start
/// of `client.run`, so offsets inside it are approximate. Returns the
/// request's `TRACE_FIGURES`.
fn record_request(tracer: &mut Tracer, request: u64, outcome: &Outcome) -> Option<[f64; 10]> {
    let report = outcome.report.as_ref()?;
    let root = tracer.span("request", request, None, outcome.request.0, outcome.request.1, vec![]);
    for &(at, dur) in &outcome.kernel_runs {
        tracer.span("calib", request, Some(root), at, dur, vec![]);
    }
    let run = tracer.span("client.run", request, Some(root), outcome.run.0, outcome.run.1, vec![]);
    let mut at = outcome.run.0;
    let to_ms = |d: std::time::Duration| {
        let calib = (outcome.sample.calib_before_ms + outcome.sample.calib_after_ms) / 2.0;
        calib::scale(d.as_secs_f64() * 1e3, calib)
    };
    let (mut setup, mut handshake, mut bundle, mut offline, mut online) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut gc, mut linear, mut offline_bytes, mut gc_bytes) = (0.0, 0.0, 0u64, 0u64);
    for (label, s) in &report.phases {
        let args = vec![
            ("bytes_sent", s.bytes_sent),
            ("bytes_received", s.bytes_received),
            ("messages_sent", s.messages_sent),
            ("messages_received", s.messages_received),
        ];
        tracer.span(label, request, Some(run), at, s.elapsed, args);
        at += s.elapsed;
        let ms = to_ms(s.elapsed);
        match label.split(':').next().unwrap_or_default() {
            "setup" => setup += ms,
            "handshake" => handshake += ms,
            "bundle" => bundle += ms,
            "offline" => {
                offline += ms;
                offline_bytes += s.total_bytes();
            }
            "online" => {
                online += ms;
                let kind = label.split_once('/').map_or("", |(_, kind)| kind);
                if GC_KINDS.contains(&kind) {
                    gc += ms;
                    gc_bytes += s.total_bytes();
                } else if LINEAR_KINDS.contains(&kind) {
                    linear += ms;
                }
            }
            _ => {}
        }
    }
    let self_ms = to_ms(tracer.self_time(run));
    Some([
        setup,
        handshake,
        bundle,
        offline,
        online,
        gc,
        linear,
        self_ms,
        offline_bytes as f64,
        gc_bytes as f64,
    ])
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Writes a file under `bench/out/`; a failure is reported, not fatal.
fn keep(file: &str, contents: &str) {
    let path = out_dir().join(file);
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => eprintln!("kept {}", path.display()),
        Err(e) => eprintln!("abnn2-perfbench: cannot write {}: {e}", path.display()),
    }
}

/// The traced run: the workload served with every other request traced,
/// then the blocking baseline, then the per-layer probes.
fn run_traced(args: &Args) -> RunResult {
    let mut calib = Calibrator::new();
    let (mut input_rng, mut client_rng) = seeded(args.seed);
    let mut metrics = Metrics::default();
    let serving = Serving::start(&args.workload);

    let mut lp = Loop::new(&serving, &mut calib, &mut input_rng, &mut client_rng);
    let warm_up = if args.quick { 1 } else { load::WARM_UP };
    let warm_failed = lp.warm_up(warm_up);
    let mut tracer = Tracer::new();
    let mut figures = Vec::new();
    let (quick, budget) = (args.quick, args.seconds * TRACED_SHARE);
    let window = Window::measure(
        &mut lp,
        warm_up as u64,
        |n, t| {
            if quick {
                n < QUICK_PREDICTIONS
            } else {
                (t < budget || n < 2 * MIN_TRACED) && t < HARD_CAP_S
            }
        },
        // Odd requests are traced, even ones not: the two sets see the
        // same machine, so their ratio is the cost of tracing alone.
        |i, outcome| {
            if i % 2 == 1 {
                figures.extend(record_request(&mut tracer, i as u64 / 2, outcome));
            }
        },
    );
    let mut attempted = (warm_up + window.samples.len()) as u64;
    let mut failed = warm_failed + window.failed;

    let latencies = window.latencies_ms();
    let every_other =
        |from: usize| -> Vec<f64> { latencies.iter().skip(from).step_by(2).copied().collect() };
    let (untraced_p50, traced_p50) = (
        stats::percentile(&every_other(0), 50, 0).unwrap_or(f64::NAN),
        stats::percentile(&every_other(1), 50, 0).unwrap_or(f64::NAN),
    );
    if !figures.is_empty() {
        for (column, (name, unit)) in TRACE_FIGURES.into_iter().enumerate() {
            let values: Vec<f64> = figures.iter().map(|row| row[column]).collect();
            metrics.put(name, stats::median(&values), unit);
        }
    }
    metrics.put("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio");
    if !tracer.well_nested() {
        eprintln!("trace: a child span lies outside its parent");
        failed = failed.max(1);
    }
    keep(&format!("trace-{}.json", args.workload), &tracer.chrome_json());

    let attempts: u32 = window.reports.iter().map(|r| r.attempts).sum();
    let takes = window.pool_hits + window.pool_misses;
    let hit_ratio = if takes == 0 { 0.0 } else { window.pool_hits as f64 / takes as f64 };
    metrics.put("serve.pool_hit_ratio", hit_ratio, "ratio");
    metrics.put(
        "serve.attempts_per_prediction",
        f64::from(attempts) / window.reports.len().max(1) as f64,
        "ratio",
    );
    metrics.put("serve.sessions_failed", window.sessions_failed as f64, "count");
    metrics.put("serve.sessions_evicted", window.sessions_evicted as f64, "count");
    metrics.put("serve.worker_respawns", window.worker_respawns as f64, "count");
    metrics.put("host.calib_ms_median", window.calib_median_ms(), "ms");
    metrics.put("host.calib_ms_iqr", stats::iqr(&window.calib_readings()), "ms");
    metrics.put(
        "host.raw_latency_p50_ms",
        stats::median(&window.samples.iter().map(|s| s.raw).collect::<Vec<_>>()),
        "ms",
    );
    metrics.put(
        "host.nproc",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        "count",
    );
    // The server's threads are gone before the baseline and the probes run.
    let Serving { workload, server, .. } = serving;
    drop(server);

    let reps = if quick { 1 } else { PROBE_REPS };
    let (baseline, baseline_failed) =
        load::blocking_baseline(&workload, reps, &mut calib, &mut input_rng, &mut client_rng);
    attempted += reps as u64;
    failed += baseline_failed;
    metrics.put("serve.overhead_ms", untraced_p50 - stats::median(&baseline), "ms");

    probes::Probes { calib: &mut calib, reps, out: &mut metrics }.run_all();
    RunResult { attempted, failed, metrics, raw: Metrics::default() }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("abnn2-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (result, expected) = if args.trace {
        (run_traced(&args), &names::PER_LAYER[..])
    } else {
        (run_end_to_end(&args), &names::END_TO_END[..])
    };
    let missing = result.metrics.missing(expected);
    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for m in result.metrics.0.iter().chain(&result.raw.0) {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = result.failed == 0 && missing.is_empty();
    let line = json::result_line(correct, result.attempted, result.failed, &result.metrics);
    keep(&format!("result-{}-trace{}.json", args.workload, u8::from(args.trace)), &line);
    println!("{line}");
    if !missing.is_empty() {
        eprintln!("abnn2-perfbench: missing metrics {missing:?}");
    }
    if result.failed > 0 {
        eprintln!("abnn2-perfbench: {} of {} predictions failed", result.failed, result.attempted);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
