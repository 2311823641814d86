//! The closed-loop load generator: one `ServeClient` on this thread
//! against one in-process `Server`, one connection at a time.

use crate::calib::{self, Calibrator, Sample};
use crate::workloads::{Path, Workload};
use abnn2_core::bundle::{dealer_bundle_for, ClientBundle, ServerBundle};
use abnn2_core::driver::{drive_blocking, SessionDriver, SessionHost};
use abnn2_core::{
    ExecConfig, OfflineMode, ProtocolError, PublicModel, ResumeToken, SecureGraph, SecureServer,
    SessionParams,
};
use abnn2_math::Matrix;
use abnn2_net::{PhaseStats, TcpTransport};
use abnn2_serve::{MetricsSnapshot, ServeClient, ServeReport, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Unmeasured predictions before a run's first sample.
pub const WARM_UP: usize = 5;
/// The server's silent-OT frame tags (`SILENT_BASE_COLUMNS` ..
/// `SILENT_SPCOT_SUMS`).
const SILENT_TAGS: std::ops::RangeInclusive<u8> = 0x40..=0x43;
const POOL_WAIT: Duration = Duration::from_secs(60);

/// A started server with its workload.
pub struct Serving {
    pub workload: Workload,
    pub server: Server,
    pub client: ServeClient,
}

impl Serving {
    /// Everything a deployment does before its first answer: build the
    /// model from its seed, start the server, fill the pool to depth.
    pub fn start(name: &str) -> Self {
        let workload = Workload::build(name).expect("known workload");
        let server = Server::start(workload.model.served(), "127.0.0.1:0", workload.serve_config())
            .expect("bind loopback");
        let depth = workload.pool_depth();
        if depth > 0 {
            assert!(server.warm_up(1, depth, POOL_WAIT), "pool never reached depth {depth}");
        }
        let client = workload.client();
        Serving { workload, server, client }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Blocks until the pool is back at depth, so that the next request
    /// cannot miss. Outside every timed region.
    fn refill(&self) {
        let depth = self.workload.pool_depth();
        if depth > 0 {
            let _ = self.server.warm_up(1, depth, POOL_WAIT);
        }
    }

    /// Waits for the worker's bookkeeping of the last session, then
    /// snapshots the server's counters.
    pub fn settled_metrics(&self, completed: u64) -> MetricsSnapshot {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let m = self.server.metrics();
            if (m.completed + m.failed >= completed && m.active == 0) || Instant::now() > deadline {
                return m;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One request's timing, report and verdict.
pub struct Outcome {
    pub sample: Sample,
    pub report: Option<ServeReport>,
    pub ok: bool,
    /// Wall-clock boundaries, for the traced run's spans: the whole
    /// request (input generation to comparison), `client.run` inside it,
    /// and each calibration kernel run the request paid for.
    pub request: (Instant, Duration),
    pub run: (Instant, Duration),
    pub kernel_runs: Vec<(Instant, Duration)>,
}

/// Whether the client-side report shows the path the workload is for.
fn took_path(path: Path, report: &ServeReport) -> bool {
    match path {
        Path::Warm => report.warm && report.phase("offline").total_bytes() == 0,
        Path::Cold(_) => !report.warm && report.phase("bundle").total_bytes() == 0,
    }
}

/// A request's verdict: it returned, every logit equals the oracle's, and
/// it took the workload's path. Returns the report of a request that
/// returned.
pub fn check(
    path: Path,
    expected: &[u64],
    result: Result<(Matrix, ServeReport), ProtocolError>,
) -> (Option<ServeReport>, bool) {
    match result {
        Ok((y, report)) => {
            let ok = y.col(0) == expected && took_path(path, &report);
            (Some(report), ok)
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            (None, false)
        }
    }
}

/// The load loop. Input generation, the oracle and the comparison sit
/// outside the timed region; the calibration kernel runs right before
/// every request and once after the last, each reading shared by the two
/// requests around it.
pub struct Loop<'a> {
    serving: &'a Serving,
    calib: &'a mut Calibrator,
    input_rng: &'a mut StdRng,
    client_rng: &'a mut StdRng,
    last_calib_ms: Option<f64>,
}

impl<'a> Loop<'a> {
    pub fn new(
        serving: &'a Serving,
        calib: &'a mut Calibrator,
        input_rng: &'a mut StdRng,
        client_rng: &'a mut StdRng,
    ) -> Self {
        Loop { serving, calib, input_rng, client_rng, last_calib_ms: None }
    }

    pub fn request(&mut self) -> Outcome {
        let begun = Instant::now();
        let model = &self.serving.workload.model;
        let input = model.input(self.input_rng);
        let expected = model.forward_exact(&input);
        let inputs = [input];
        let mut kernel_runs = Vec::with_capacity(2);
        let mut kernel = |calib: &mut Calibrator| {
            let at = Instant::now();
            let ms = calib.run();
            kernel_runs.push((at, at.elapsed()));
            ms
        };
        let calib_before_ms = match self.last_calib_ms {
            Some(ms) => ms,
            None => kernel(self.calib),
        };
        let started = Instant::now();
        let result = self.serving.client.run(self.serving.addr(), &inputs, self.client_rng);
        let run = (started, started.elapsed());
        let calib_after_ms = kernel(self.calib);
        self.last_calib_ms = Some(calib_after_ms);
        let sample = Sample { raw: run.1.as_secs_f64() * 1e3, calib_before_ms, calib_after_ms };
        let (report, ok) = check(self.serving.workload.path, &expected, result);
        Outcome { sample, report, ok, request: (begun, begun.elapsed()), run, kernel_runs }
    }

    /// Forgets the shared reading: the next request takes a fresh one.
    /// Called after anything slow happens between two requests.
    pub fn break_chain(&mut self) {
        self.last_calib_ms = None;
    }

    /// `count` unmeasured predictions; returns how many failed.
    pub fn warm_up(&mut self, count: usize) -> u64 {
        (0..count).map(|_| u64::from(!self.request().ok)).sum()
    }
}

/// Process CPU time (user + system, every thread) in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).expect("cpu ticks");
    // USER_HZ is 100 on every Linux ABI.
    (ticks() + ticks()) / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM kB");
    kb / 1024.0
}

/// What a measured window of requests adds up to.
pub struct Window {
    pub samples: Vec<Sample>,
    pub reports: Vec<ServeReport>,
    pub failed: u64,
    /// Wall and CPU seconds of the window with the calibration kernel's
    /// own time taken out.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Server-side counters over the window.
    pub traffic: PhaseStats,
    pub online: PhaseStats,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub sessions: u64,
    pub sessions_failed: u64,
    pub sessions_evicted: u64,
    pub worker_respawns: u64,
}

fn minus(after: PhaseStats, before: PhaseStats) -> PhaseStats {
    PhaseStats {
        bytes_sent: after.bytes_sent - before.bytes_sent,
        bytes_received: after.bytes_received - before.bytes_received,
        messages_sent: after.messages_sent - before.messages_sent,
        messages_received: after.messages_received - before.messages_received,
        elapsed: after.elapsed.saturating_sub(before.elapsed),
    }
}

fn all_phases(m: &MetricsSnapshot) -> PhaseStats {
    let mut total = PhaseStats::default();
    for (_, s) in &m.phases {
        total.merge(s);
    }
    total
}

fn silent_bytes(m: &MetricsSnapshot) -> u64 {
    SILENT_TAGS.map(|t| m.tag(t).total_bytes()).sum()
}

impl Window {
    /// Sends requests until `keep_going(requests so far, seconds so far)`
    /// says stop; `each` sees every outcome as it arrives.
    pub fn measure(
        lp: &mut Loop<'_>,
        served_before: u64,
        mut keep_going: impl FnMut(usize, f64) -> bool,
        mut each: impl FnMut(usize, &Outcome),
    ) -> Window {
        let serving = lp.serving;
        serving.refill();
        let before = serving.settled_metrics(served_before);
        lp.break_chain();
        let (cpu_before, started) = (process_cpu_s(), Instant::now());
        let mut samples = Vec::new();
        let mut reports = Vec::new();
        let mut failed = 0u64;
        while keep_going(samples.len(), started.elapsed().as_secs_f64()) {
            let outcome = lp.request();
            each(samples.len(), &outcome);
            failed += u64::from(!outcome.ok);
            samples.push(outcome.sample);
            reports.extend(outcome.report);
        }
        let (wall, cpu) = (started.elapsed().as_secs_f64(), process_cpu_s() - cpu_before);
        // One kernel run per request plus the one before the first.
        let kernel_s = (samples.iter().map(|s| s.calib_after_ms).sum::<f64>()
            + samples.first().map_or(0.0, |s| s.calib_before_ms))
            / 1e3;
        let after = serving.settled_metrics(served_before + samples.len() as u64);

        // Run-level path checks on the server's own counters: a warm run
        // may not miss the pool, and the silent tags carry bytes exactly
        // when silent OT was negotiated.
        let silent = silent_bytes(&after) - silent_bytes(&before);
        let pool_misses = after.pool.misses - before.pool.misses;
        let wrong_mode = match serving.workload.path {
            Path::Cold(OfflineMode::Silent) => silent == 0,
            _ => silent != 0,
        };
        if wrong_mode {
            eprintln!("wrong OT extension: silent tags carried {silent} B");
            failed = samples.len() as u64;
        } else if serving.workload.path == Path::Warm {
            failed = failed.max(pool_misses);
        }

        Window {
            failed,
            wall_s: wall - kernel_s,
            cpu_s: cpu - kernel_s,
            traffic: minus(all_phases(&after), all_phases(&before)),
            online: minus(after.phase("online"), before.phase("online")),
            pool_hits: after.pool.hits - before.pool.hits,
            pool_misses,
            sessions: (after.completed + after.failed) - (before.completed + before.failed),
            sessions_failed: after.failed - before.failed,
            sessions_evicted: after.evicted - before.evicted,
            worker_respawns: after.worker_respawns - before.worker_respawns,
            samples,
            reports,
        }
    }

    /// Median calibration reading of the window.
    pub fn calib_median_ms(&self) -> f64 {
        crate::stats::median(&self.calib_readings())
    }

    pub fn calib_readings(&self) -> Vec<f64> {
        self.samples
            .first()
            .map(|s| s.calib_before_ms)
            .into_iter()
            .chain(self.samples.iter().map(|s| s.calib_after_ms))
            .collect()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::calibrated).collect()
    }

    /// A window total (wall or CPU seconds) in calibrated units: scaled
    /// by the window's time-weighted calibration, Σ calibrated latency ÷
    /// Σ raw latency.
    pub fn calibrated(&self, raw_total: f64) -> f64 {
        let raw: f64 = self.samples.iter().map(|s| s.raw).sum();
        raw_total * self.latencies_ms().iter().sum::<f64>() / raw
    }
}

/// A one-session host for the blocking baseline: no resume, and a bundle
/// dealt ahead of time where the real server would take one from its pool.
struct DealtHost {
    public: PublicModel,
    bundle: Mutex<Option<(ServerBundle, ClientBundle)>>,
}

impl SessionHost for DealtHost {
    fn params_for(&self, batch: usize) -> SessionParams {
        SessionParams::for_public(&self.public, ExecConfig::new().variant, batch)
    }

    fn claim_checkpoint(&self, _token: &ResumeToken) -> Option<ServerBundle> {
        None
    }

    fn take_bundle(
        &self,
        _params: &SessionParams,
        _mode: OfflineMode,
    ) -> Option<(ServerBundle, ClientBundle)> {
        self.bundle.lock().expect("bundle lock").take()
    }
}

/// The workload's session with the serving frontend taken away: the same
/// `ServeClient` over loopback TCP against a thread that accepts one
/// connection at a time and runs the same `SessionDriver` to completion
/// with blocking reads — no event loop, frame pump, pool thread, sweeps
/// or supervisor. Returns the calibrated latencies in milliseconds and
/// how many of the `count` sessions failed.
pub fn blocking_baseline(
    workload: &Workload,
    count: usize,
    calib: &mut Calibrator,
    input_rng: &mut StdRng,
    client_rng: &mut StdRng,
) -> (Vec<f64>, u64) {
    let served = workload.model.served();
    let graph = SecureGraph::new(served.graph(), 1).expect("served graph");
    let mut dealer = StdRng::seed_from_u64(0x6465_616C);
    let dealt = if workload.path == Path::Warm { count } else { 0 };
    let mut bundles: Vec<_> =
        (0..dealt).map(|_| dealer_bundle_for(&served, &graph, &mut dealer)).collect();
    let public = served.public();
    let server = Arc::new(SecureServer::for_model(served));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let client = workload.client();

    std::thread::scope(|scope| {
        scope.spawn(move || {
            for session in 0..count as u64 {
                let (stream, _) = listener.accept().expect("accept");
                let mut ch = TcpTransport::from_stream(stream).expect("transport");
                let host = DealtHost { public: public.clone(), bundle: Mutex::new(bundles.pop()) };
                let mut driver = SessionDriver::new(
                    Arc::clone(&server),
                    host,
                    StdRng::seed_from_u64(0x626C_6F63 + session),
                );
                if let Err(e) = drive_blocking(&mut ch, &mut driver) {
                    eprintln!("blocking baseline session failed: {e}");
                }
            }
        });
        let mut latencies = Vec::with_capacity(count);
        let mut failed = 0;
        for _ in 0..count {
            let input = workload.model.input(input_rng);
            let expected = workload.model.forward_exact(&input);
            let (result, sample) = calib::timed(calib, || client.run(addr, &[input], client_rng));
            failed += u64::from(!check(workload.path, &expected, result).1);
            latencies.push(sample.calibrated());
        }
        (latencies, failed)
    })
}
