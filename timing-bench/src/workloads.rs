//! The four workloads: set-up, the timed closed loop, the traced passes,
//! the correctness checks and the accuracy sample.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rlc_ceff_suite::charlib::DriverCell;
use rlc_ceff_suite::{
    AnalysisSession, BackendChoice, EngineConfig, EngineError, Stage, StageHandle, StageReport,
    StageResultCache, TimingEngine,
};
use rlc_service::protocol::{Request as WireRequest, Response, WireSessionOptions};
use rlc_service::{
    RemoteCell, RemoteReport, RemoteStage, ServiceClient, ServiceError, ShardServer, WorkerPool,
};

use crate::gen::{self, Input, Request, StageSpec};
use crate::layers;
use crate::stats::{self, latency_sample, Digest, Metrics, Tally, P90_SAMPLES};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WideBatch,
    DeepPaths,
    EcoEdit,
    RemoteBatch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WideBatch,
        Workload::DeepPaths,
        Workload::EcoEdit,
        Workload::RemoteBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WideBatch => "wide_batch",
            Workload::DeepPaths => "deep_paths",
            Workload::EcoEdit => "eco_edit",
            Workload::RemoteBatch => "remote_batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Rounds in the batch workloads' stage stream (each [`gen::ROUND_STAGES`]).
const BATCH_ROUNDS: usize = 8;
/// Distinct paths in the `deep_paths` pool.
const PATH_POOL: usize = 48;
/// Set-ups per untraced run, half before the timed loop and half after it;
/// `setup_s` is their median. The host's speed drifts in phases of a few
/// seconds, so set-ups spread over the whole run sample more of them than
/// back-to-back ones do.
const SETUP_REPS: usize = 16;
/// Seed of the fixed accuracy sample, the same for every `--seed`.
const ACCURACY_SEED: u64 = 2003;
/// Accuracy sample: batch stages and dependent paths.
const ACCURACY_STAGES: usize = 12;
const ACCURACY_PATHS: usize = 4;
/// ECO edits checked against a cold analysis of the edited design.
const ECO_COLD_CHECKS: usize = 2;
/// Upper limit on one timed loop, which otherwise runs until it has both
/// `--seconds` and enough samples for a p90.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// Scratch space inside the working directory: result stores and traces.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_tmp")
}

/// The stable name of an engine error's code.
pub fn engine_code_name(e: &EngineError) -> &'static str {
    rlc_service::code_name(rlc_service::error::engine_code(e))
}

fn service_code_name(e: &ServiceError) -> &'static str {
    e.code().map_or("transport", rlc_service::code_name)
}

/// The result bits a stage produced, compared across runs and transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bits {
    delay: u64,
    slew: u64,
    input_t50: u64,
    two_ramp: bool,
}

impl Bits {
    fn new(delay: f64, slew: f64, input_t50: f64, two_ramp: bool) -> Bits {
        Bits {
            delay: delay.to_bits(),
            slew: slew.to_bits(),
            input_t50: input_t50.to_bits(),
            two_ramp,
        }
    }

    fn of(report: &StageReport) -> Bits {
        Bits::new(
            report.delay,
            report.slew,
            report.input_t50,
            report.used_two_ramp,
        )
    }

    fn of_remote(report: &RemoteReport) -> Bits {
        Bits::new(
            report.delay,
            report.slew,
            report.input_t50,
            report.used_two_ramp,
        )
    }

    fn digest_into(&self, d: &mut Digest) {
        d.add(self.delay);
        d.add(self.slew);
        d.add(self.input_t50);
        d.add(u64::from(self.two_ramp));
    }
}

/// One stage's result: its bits, or the code name of its error.
pub type Outcome = Result<Bits, String>;

fn failure_codes(outcomes: &[Outcome]) -> Vec<&str> {
    outcomes
        .iter()
        .filter_map(|o| o.as_ref().err())
        .map(String::as_str)
        .collect()
}

/// Engine, characterized cells and worker count of one set-up.
pub struct Env {
    pub engine: TimingEngine,
    /// An engine without a result store, for reference analyses.
    pub plain: TimingEngine,
    cells: Vec<(f64, Arc<DriverCell>)>,
    pub threads: usize,
}

impl Env {
    pub fn cell(&self, size: f64) -> Arc<DriverCell> {
        self.cells
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, c)| c.clone())
            .expect("every drive size is characterized at set-up")
    }
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn engine_config(result_cache_dir: Option<&PathBuf>) -> EngineConfig {
    let builder = EngineConfig::builder().threads(threads());
    match result_cache_dir {
        Some(dir) => builder.result_cache_dir(dir),
        None => builder,
    }
    .build()
}

fn build_env(t: &mut Tracer, result_cache_dir: Option<&PathBuf>) -> Result<Env, String> {
    let engine = TimingEngine::new(engine_config(result_cache_dir));
    let mut library = engine.open_library().map_err(|e| e.to_string())?;
    let mut cells = Vec::new();
    for size in gen::DRIVE_SIZES {
        let cell = t
            .span("charlib.characterize", 0, |_| library.cell_shared(size))
            .map_err(|e| e.to_string())?;
        cells.push((size, cell));
    }
    Ok(Env {
        engine,
        plain: TimingEngine::new(engine_config(None)),
        cells,
        threads: threads(),
    })
}

fn build_stage(
    env: &Env,
    spec: &StageSpec,
    handles: &[Option<StageHandle>],
    backend: Option<&BackendChoice>,
) -> Result<Stage, String> {
    let builder =
        Stage::builder_shared(env.cell(spec.size), spec.load.model()).label(spec.label.clone());
    let producer = |p: usize| handles[p].ok_or_else(|| "upstream-failed".to_string());
    let builder = match &spec.input {
        Input::Slew(slew) => builder.input_slew(*slew),
        Input::FarEnd(p) => builder.input_from(producer(*p)?),
        Input::Sink(p, sink) => builder.input_from_sink(producer(*p)?, *sink),
    };
    let builder = match backend {
        Some(choice) => builder.backend(choice.clone()),
        None => builder,
    };
    builder
        .build()
        .map_err(|e| engine_code_name(&e).to_string())
}

/// Runs `request` through one in-process session: submit every stage, then
/// `wait_all`. Returns each stage's report or error code, in request order.
fn session_request(
    env: &Env,
    session: &mut AnalysisSession,
    request: &Request,
    mut t: Option<&mut Tracer>,
    id: u64,
    backend: Option<&BackendChoice>,
) -> Vec<Result<StageReport, String>> {
    let mut handles: Vec<Option<StageHandle>> = Vec::with_capacity(request.len());
    let mut rejected: Vec<Option<String>> = Vec::with_capacity(request.len());
    for spec in request {
        let submitted = build_stage(env, spec, &handles, backend).and_then(|stage| {
            match t.as_deref_mut() {
                Some(t) => t.span("session.submit", id, |_| session.submit(stage)),
                None => session.submit(stage),
            }
            .map_err(|e| engine_code_name(&e).to_string())
        });
        handles.push(submitted.as_ref().ok().copied());
        rejected.push(submitted.err());
    }
    let mut by_index: Vec<Option<Result<StageReport, EngineError>>> = match t {
        Some(t) => t.span("session.wait_all", id, |_| session.wait_all()),
        None => session.wait_all(),
    }
    .into_iter()
    .map(|(_, result)| Some(result))
    .collect();
    handles
        .iter()
        .zip(rejected)
        .map(|(handle, rejected)| match (handle, rejected) {
            (Some(h), _) => by_index[h.index()]
                .take()
                .expect("one outcome per handle")
                .map_err(|e| engine_code_name(&e).to_string()),
            (None, Some(code)) => Err(code),
            (None, None) => unreachable!("a stage is either submitted or rejected"),
        })
        .collect()
}

fn bits(results: &[Result<StageReport, String>]) -> Vec<Outcome> {
    results
        .iter()
        .map(|r| r.as_ref().map(Bits::of).map_err(Clone::clone))
        .collect()
}

fn remote_stage(spec: &StageSpec, handles: &[rlc_service::RemoteHandle]) -> RemoteStage {
    let builder = RemoteStage::builder(RemoteCell::characterized(spec.size), spec.load.remote())
        .label(spec.label.clone());
    match &spec.input {
        Input::Slew(slew) => builder.input_slew(*slew),
        Input::FarEnd(p) => builder.input_from(handles[*p]),
        Input::Sink(p, sink) => builder.input_from_sink(handles[*p], *sink),
    }
    .build()
}

fn frame_len(payload: &[u8]) -> u64 {
    let mut frame = Vec::new();
    rlc_service::wire::write_frame(&mut frame, payload).expect("in-memory frame");
    frame.len() as u64
}

/// Bytes a traced remote request put on the wire, each way.
#[derive(Debug, Default)]
struct WireBytes {
    request: u64,
    response: u64,
}

/// Runs `request` through one client connection: connect, submit every
/// stage, `wait_all`, close. A failed submission fails the whole request,
/// since its handle is needed by its dependents.
fn remote_request(
    addr: SocketAddr,
    request: &Request,
    mut t: Option<&mut Tracer>,
    id: u64,
    bytes: &mut WireBytes,
) -> Result<Vec<Outcome>, ServiceError> {
    let mut client = ServiceClient::connect(addr)?;
    let traced = t.is_some();
    if traced {
        bytes.request += frame_len(
            &WireRequest::Hello {
                options: WireSessionOptions::defaults(),
            }
            .encode(),
        );
        bytes.response += frame_len(&Response::HelloAck.encode());
    }
    let mut handles = Vec::with_capacity(request.len());
    for spec in request {
        let stage = remote_stage(spec, &handles);
        if traced {
            bytes.request +=
                frame_len(&WireRequest::Submit(Box::new(stage.clone().into_wire())).encode());
            bytes.response += frame_len(
                &Response::Submitted {
                    index: handles.len() as u64,
                }
                .encode(),
            );
        }
        let handle = match t.as_deref_mut() {
            Some(t) => t.span("service.submit", id, |_| client.submit(stage)),
            None => client.submit(stage),
        }?;
        handles.push(handle);
    }
    let results = match t {
        Some(t) => t.span("service.wait_all", id, |_| client.wait_all()),
        None => client.wait_all(),
    }?;
    client.close()?;
    if traced {
        let reports = results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let outcome = r
                    .clone()
                    .map_err(|e| (e.code().unwrap_or(0), e.to_string()));
                (i as u64, outcome)
            })
            .collect();
        bytes.request +=
            frame_len(&WireRequest::WaitAll.encode()) + frame_len(&WireRequest::Close.encode());
        bytes.response += frame_len(&Response::Reports { reports }.encode())
            + frame_len(
                &Response::Done {
                    count: results.len() as u64,
                }
                .encode(),
            )
            + frame_len(&Response::Bye.encode());
    }
    Ok(results
        .iter()
        .map(|r| match r {
            Ok(report) => Ok(Bits::of_remote(report)),
            Err(e) => Err(service_code_name(e).to_string()),
        })
        .collect())
}

/// A one-shard worker fleet; dropping it kills and reaps the worker.
struct Fleet {
    addr: SocketAddr,
    pool: Arc<Mutex<WorkerPool>>,
}

impl Fleet {
    fn spawn() -> Result<Fleet, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let server = ShardServer::spawn("127.0.0.1:0", 1, None, None, &exe)
            .map_err(|e| format!("spawning the shard fleet: {e}"))?;
        let (addr, pool) = server.serve_in_background();
        let fleet = Fleet { addr, pool };
        // Warm the worker's own library so characterization stays out of
        // the timed loop.
        let warm: Request = gen::DRIVE_SIZES
            .iter()
            .map(|&size| StageSpec {
                label: format!("warm-{size}"),
                size,
                load: gen::LoadSpec::Lumped { c: 1e-13 },
                input: Input::Slew(1e-10),
            })
            .collect();
        let outcomes = remote_request(addr, &warm, None, 0, &mut WireBytes::default())
            .map_err(|e| format!("warming the fleet: {e}"))?;
        if let Some(code) = failure_codes(&outcomes).first() {
            return Err(format!("warming the fleet failed: {code}"));
        }
        Ok(fleet)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Ok(mut pool) = self.pool.lock() {
            pool.kill(0);
        }
    }
}

/// Everything one set-up produces.
struct Setup {
    env: Env,
    fleet: Option<Fleet>,
    /// `eco_edit`: the result store directory of the timed sessions, the
    /// store of the traced replay, and the cold pass's outcomes.
    eco_dir: Option<PathBuf>,
    replay_store: Option<StageResultCache>,
    cold: Vec<Outcome>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        for dir in self
            .eco_dir
            .iter()
            .map(PathBuf::as_path)
            .chain(self.replay_store.iter().map(StageResultCache::dir))
        {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = scratch_dir().join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn setup(workload: Workload, seed: u64, t: &mut Tracer, traced: bool) -> Result<Setup, String> {
    match workload {
        Workload::WideBatch | Workload::DeepPaths => Ok(Setup {
            env: build_env(t, None)?,
            fleet: None,
            eco_dir: None,
            replay_store: None,
            cold: Vec::new(),
        }),
        Workload::RemoteBatch => Ok(Setup {
            env: build_env(t, None)?,
            fleet: Some(Fleet::spawn()?),
            eco_dir: None,
            replay_store: None,
            cold: Vec::new(),
        }),
        Workload::EcoEdit => {
            let dir = fresh_dir("eco");
            let mut setup = Setup {
                env: build_env(t, Some(&dir))?,
                fleet: None,
                eco_dir: Some(dir),
                replay_store: None,
                cold: Vec::new(),
            };
            let design = gen::eco_design(seed);
            let mut session = setup.env.engine.session();
            setup.cold = bits(&session_request(
                &setup.env,
                &mut session,
                &design,
                None,
                0,
                None,
            ));
            if let Some(code) = failure_codes(&setup.cold).first() {
                return Err(format!("the cold pass failed: {code}"));
            }
            if traced {
                // The layer replay gets its own store holding exactly what
                // the cold pass stored, so both see the same hits.
                let dir = fresh_dir("eco-replay");
                let store = StageResultCache::open(&dir).map_err(|e| e.to_string())?;
                let cold_dir = setup.eco_dir.as_ref().expect("eco store");
                for entry in std::fs::read_dir(cold_dir).map_err(|e| e.to_string())? {
                    let path = entry.map_err(|e| e.to_string())?.path();
                    let name = path.file_name().expect("entry name");
                    std::fs::copy(&path, dir.join(name)).map_err(|e| e.to_string())?;
                }
                setup.replay_store = Some(store);
            }
            Ok(setup)
        }
    }
}

/// The `eco_edit` request of edit number `n`: the design with one stage's
/// receiver capacitance set to a value no earlier edit used.
fn eco_request(design: &Request, order: &[usize], n: usize) -> (usize, Request) {
    let position = order[n % order.len()];
    let mut request = design.clone();
    let spec = &mut request[position];
    spec.load = spec
        .load
        .with_fanout(spec.load.fanout() * (1.0 + 1e-4 * (n + 1) as f64));
    (position, request)
}

/// The workload's requests.
struct Plan {
    /// The distinct requests, cycled through in order.
    pool: Vec<Request>,
    /// `eco_edit`: the base design and the seeded edit positions. Edit `n`
    /// gets a fresh value, so its requests never repeat exactly.
    eco: Option<(Request, Vec<usize>)>,
}

impl Plan {
    fn new(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::WideBatch | Workload::RemoteBatch => Plan {
                pool: gen::batch_rounds(seed, BATCH_ROUNDS),
                eco: None,
            },
            Workload::DeepPaths => Plan {
                pool: gen::paths(seed, PATH_POOL),
                eco: None,
            },
            Workload::EcoEdit => {
                let design = gen::eco_design(seed);
                let order = gen::eco_edit_order(seed, design.len());
                Plan {
                    pool: (0..order.len())
                        .map(|n| eco_request(&design, &order, n).1)
                        .collect(),
                    eco: Some((design, order)),
                }
            }
        }
    }

    /// Request `n` and, for an ECO edit, the design position it edits.
    fn request(&self, n: usize) -> (usize, Request) {
        match &self.eco {
            None => (0, self.pool[n % self.pool.len()].clone()),
            Some((design, order)) => eco_request(design, order, n),
        }
    }
}

/// What one run reports.
pub struct RunResult {
    pub metrics: Metrics,
    pub tally: Tally,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let mut result = RunResult {
        metrics: Metrics::default(),
        tally: Tally::default(),
        problems: Vec::new(),
        notes: Vec::new(),
    };
    let outcome = if traced {
        run_traced(workload, seed, seconds, &mut result)
    } else {
        run_timed(workload, seed, seconds, &mut result)
    };
    if let Err(problem) = outcome {
        result.problems.push(problem);
    }
    result
}

fn run_timed(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut RunResult,
) -> Result<(), String> {
    let plan = Plan::new(workload, seed);
    // Set up several times and keep the last; each discarded set-up is
    // dropped (fleet reaped, stores removed) before the next one starts.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = || -> Result<Setup, String> {
        let started = Instant::now();
        let s = setup(workload, seed, &mut Tracer::new(), false)?;
        setup_times.push(started.elapsed().as_secs_f64());
        Ok(s)
    };
    let mut kept = None;
    for _ in 0..SETUP_REPS / 2 {
        drop(kept.take());
        kept = Some(timed_setup()?);
    }
    let s = kept.expect("at least one set-up");

    let mut latencies = Vec::new();
    let mut stages_ok = 0usize;
    let mut first: Vec<Option<Vec<Outcome>>> = vec![None; plan.pool.len()];
    let mut repeat_mismatches = 0usize;
    let started = Instant::now();
    let mut n = 0usize;
    while n < plan.pool.len().max(P90_SAMPLES)
        || started.elapsed().as_secs_f64() < seconds && started.elapsed() < MAX_MEASURE
    {
        if started.elapsed() >= MAX_MEASURE {
            out.problems.push(format!(
                "only {n} requests fit in {} s; the p90 needs {P90_SAMPLES}",
                MAX_MEASURE.as_secs()
            ));
            break;
        }
        let (position, request) = plan.request(n);
        let t0 = Instant::now();
        let executed = execute(
            &s,
            workload,
            &request,
            None,
            n as u64,
            &mut WireBytes::default(),
        );
        let dt = t0.elapsed().as_secs_f64();
        if workload == Workload::EcoEdit {
            check_eco_cone(&executed, &request, position, n, out);
        }
        let outcomes = executed.outcomes;
        let codes = failure_codes(&outcomes);
        out.tally.record(&codes);
        let ok = codes.is_empty();
        latencies.push(latency_sample(dt, ok));
        if ok {
            stages_ok += request.len();
        }
        let k = n % plan.pool.len();
        match &first[k] {
            None => first[k] = Some(outcomes),
            Some(earlier) if plan.eco.is_none() && *earlier != outcomes => repeat_mismatches += 1,
            Some(_) => {}
        }
        n += 1;
    }
    let measured = started.elapsed().as_secs_f64();
    if repeat_mismatches > 0 {
        out.problems.push(format!(
            "{repeat_mismatches} repeated requests produced different result bits"
        ));
    }
    let first: Vec<Vec<Outcome>> = first.into_iter().map(|f| f.unwrap_or_default()).collect();
    let mut digest = Digest::default();
    for bits in s.cold.iter().chain(first.iter().flatten()).flatten() {
        bits.digest_into(&mut digest);
    }

    // Checks and the accuracy sample, outside the timed window.
    match workload {
        Workload::RemoteBatch => check_remote_against_in_process(&s, &plan, &first, out),
        Workload::EcoEdit => check_eco_against_cold(&s, seed, &plan, &first, out),
        _ => {}
    }
    let (delay_err, slew_err) = match workload {
        Workload::WideBatch | Workload::RemoteBatch => stage_accuracy(&s.env)?,
        Workload::DeepPaths | Workload::EcoEdit => path_accuracy(&s.env)?,
    };

    // Whole-run nearest-rank percentiles; a failed request's latency is
    // infinite, so it counts against every limit.
    let p50 = stats::percentile(&latencies, 50.0).unwrap_or(f64::INFINITY) * 1e3;
    let p90 = stats::percentile(&latencies, 90.0).unwrap_or(f64::INFINITY) * 1e3;
    let m = &mut out.metrics;
    m.put("stages_per_s", stages_ok as f64 / measured, "1/s");
    m.put("request_latency_p50_ms", p50, "ms");
    m.put("request_latency_p90_ms", p90, "ms");
    // The request latency under the name that fits the workload; printed,
    // not part of the JSON line, which carries the same value for every
    // workload as `request_latency_*`.
    let named = match workload {
        Workload::DeepPaths => Some("path_latency"),
        Workload::EcoEdit => Some("eco_latency"),
        Workload::WideBatch | Workload::RemoteBatch => None,
    };
    if let Some(named) = named {
        m.put(&format!("{named}_p50_ms"), p50, "ms");
        m.put(&format!("{named}_p90_ms"), p90, "ms");
    }
    m.put("failed_share", out.tally.failed_share(), "ratio");
    m.put("delay_err_pct_mean", delay_err, "%");
    m.put("slew_err_pct_mean", slew_err, "%");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    let threads = s.env.threads;
    drop(s);
    for _ in SETUP_REPS / 2..SETUP_REPS {
        drop(timed_setup()?);
    }
    out.metrics
        .put("setup_s", stats::median(&setup_times).unwrap_or(0.0), "s");

    let unit = match workload {
        Workload::WideBatch | Workload::RemoteBatch => "round",
        Workload::DeepPaths => "path",
        Workload::EcoEdit => "edit",
    };
    let tail = stats::tail_percentile(&latencies).map_or("none".to_string(), |(p, v)| {
        format!("p{p} = {:.3} ms", v * 1e3)
    });
    out.notes.push(format!(
        "{n} {unit}s in {measured:.2} s on {} threads; {} latency samples; the highest \
         percentile with >= 10 samples beyond it is {tail}",
        threads,
        latencies.len(),
    ));
    out.notes
        .push(format!("result digest: {:016x}", digest.value()));
    if !out.tally.by_code.is_empty() {
        out.notes
            .push(format!("failures by code: {:?}", out.tally.by_code));
    }
    Ok(())
}

/// One executed request: per-stage outcomes and, in process, how many
/// stages the session simulated and replayed from its result store.
struct Executed {
    outcomes: Vec<Outcome>,
    simulated: u64,
    hits: u64,
}

/// Runs one request of `workload` untraced, or as the session/client pass of
/// a traced run.
fn execute(
    s: &Setup,
    workload: Workload,
    request: &Request,
    t: Option<&mut Tracer>,
    id: u64,
    bytes: &mut WireBytes,
) -> Executed {
    match (workload, &s.fleet) {
        (Workload::RemoteBatch, Some(fleet)) => Executed {
            outcomes: remote_request(fleet.addr, request, t, id, bytes)
                .unwrap_or_else(|e| vec![Err(service_code_name(&e).to_string()); request.len()]),
            simulated: 0,
            hits: 0,
        },
        _ => {
            let mut session = s.env.engine.session();
            let outcomes = bits(&session_request(&s.env, &mut session, request, t, id, None));
            Executed {
                outcomes,
                simulated: session.stages_simulated(),
                hits: session.result_cache_hits(),
            }
        }
    }
}

/// An ECO edit must re-simulate exactly its dependency cone and replay the
/// rest of the design from the store.
fn check_eco_cone(
    executed: &Executed,
    request: &Request,
    position: usize,
    n: usize,
    out: &mut RunResult,
) {
    let cone = gen::eco_cone(position) as u64;
    let expected = (cone, request.len() as u64 - cone);
    if (executed.simulated, executed.hits) != expected {
        out.problems.push(format!(
            "edit {n} of design position {position}: simulated/replayed {}/{} stages, \
             expected {}/{}",
            executed.simulated, executed.hits, expected.0, expected.1
        ));
    }
}

fn check_remote_against_in_process(
    s: &Setup,
    plan: &Plan,
    first: &[Vec<Outcome>],
    out: &mut RunResult,
) {
    let mut mismatched = 0;
    for (request, remote) in plan.pool.iter().zip(first) {
        let mut session = s.env.engine.session();
        let local = bits(&session_request(
            &s.env,
            &mut session,
            request,
            None,
            0,
            None,
        ));
        mismatched += local.iter().zip(remote).filter(|(a, b)| a != b).count();
    }
    if mismatched > 0 {
        out.problems.push(format!(
            "{mismatched} remote stages differ from the in-process results of the same seed"
        ));
    }
}

fn check_eco_against_cold(
    s: &Setup,
    seed: u64,
    plan: &Plan,
    first: &[Vec<Outcome>],
    out: &mut RunResult,
) {
    let mut rng = gen::Rng::new(seed ^ 0xc01d);
    for _ in 0..ECO_COLD_CHECKS {
        let n = rng.below(first.len());
        let (_, request) = plan.request(n);
        let mut session = s.env.plain.session();
        let cold = bits(&session_request(
            &s.env,
            &mut session,
            &request,
            None,
            0,
            None,
        ));
        let differing: Vec<usize> = (0..cold.len())
            .filter(|&i| cold[i] != first[n][i])
            .collect();
        if !differing.is_empty() {
            out.problems.push(format!(
                "edit {n}: design stages {differing:?} differ from a cold analysis of the \
                 edited design"
            ));
        }
    }
}

fn pct_err(model: f64, golden: f64) -> f64 {
    ((model - golden) / golden).abs() * 100.0
}

/// Mean |analytic - SPICE| / SPICE stage delay and slew, in percent, over the
/// fixed batch sample.
fn stage_accuracy(env: &Env) -> Result<(f64, f64), String> {
    let round = &gen::batch_rounds(ACCURACY_SEED, 1)[0];
    let step = round.len() / ACCURACY_STAGES;
    let sample: Vec<&StageSpec> = round.iter().step_by(step).take(ACCURACY_STAGES).collect();
    let (mut delay, mut slew) = (0.0, 0.0);
    for spec in &sample {
        let analyze = |backend: Option<&BackendChoice>| {
            let stage = build_stage(env, spec, &[], backend)?;
            env.plain
                .analyze(&stage)
                .map_err(|e| format!("accuracy sample {}: {e}", spec.label))
        };
        let model = analyze(None)?;
        let golden = analyze(Some(&BackendChoice::Spice))?;
        delay += pct_err(model.delay, golden.delay);
        slew += pct_err(model.slew, golden.slew);
    }
    let n = sample.len() as f64;
    Ok((delay / n, slew / n))
}

/// Mean |analytic - SPICE| / SPICE path arrival (input 50 % to the last
/// driver's output 50 %) and final slew, in percent, over the fixed path
/// sample.
fn path_accuracy(env: &Env) -> Result<(f64, f64), String> {
    let paths = gen::paths(ACCURACY_SEED, ACCURACY_PATHS);
    let (mut delay, mut slew) = (0.0, 0.0);
    for path in &paths {
        let run = |backend: Option<&BackendChoice>| -> Result<(f64, f64), String> {
            let mut session = env.plain.session();
            let reports = session_request(env, &mut session, path, None, 0, backend);
            let first = reports[0].as_ref().map_err(Clone::clone)?;
            let last = reports[path.len() - 1].as_ref().map_err(Clone::clone)?;
            Ok((last.input_t50 + last.delay - first.input_t50, last.slew))
        };
        let (model_arrival, model_slew) = run(None)?;
        let (golden_arrival, golden_slew) = run(Some(&BackendChoice::Spice))?;
        delay += pct_err(model_arrival, golden_arrival);
        slew += pct_err(model_slew, golden_slew);
    }
    let n = paths.len() as f64;
    Ok((delay / n, slew / n))
}

/// Peak resident set size of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cost of recording one span, measured on a scratch tracer.
fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::new();
    let started = Instant::now();
    for i in 0..N {
        t.span("calibrate", i, |_| ());
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

/// The traced run: whole passes over the workload's requests until
/// `--seconds` is used up. Each request runs through the client (remote
/// only), then through an in-process session, then through the layer
/// replay, and all three must agree bit for bit. Every per-layer figure is
/// reported per pass, so counts repeat exactly for a seed.
fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &mut RunResult,
) -> Result<(), String> {
    let plan = Plan::new(workload, seed);
    let mut t = Tracer::new();
    let s = setup(workload, seed, &mut t, true)?;
    let span_ns = span_cost_ns();
    let store = s.replay_store.as_ref();

    let mut bytes = WireBytes::default();
    let (mut session_ns, mut remote_ns, mut critical_ns, mut session_self_ns, mut replay_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut replay_mismatches, mut remote_mismatches) = (0usize, 0usize);
    let mut passes = 0u32;
    let mut n = 0usize;
    let spans_before = t.spans().len();
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..plan.pool.len() {
            let (position, request) = plan.request(n);
            let id = n as u64;
            let remote = (workload == Workload::RemoteBatch).then(|| {
                let mark = Instant::now();
                let executed = t.span("service.request", id, |t| {
                    execute(&s, workload, &request, Some(t), id, &mut bytes)
                });
                remote_ns += mark.elapsed().as_nanos() as u64;
                executed.outcomes
            });
            let mark = Instant::now();
            let executed = t.span("session.request", id, |t| {
                let mut session = s.env.engine.session();
                let outcomes = bits(&session_request(
                    &s.env,
                    &mut session,
                    &request,
                    Some(t),
                    id,
                    None,
                ));
                Executed {
                    outcomes,
                    simulated: session.stages_simulated(),
                    hits: session.result_cache_hits(),
                }
            });
            let wall = mark.elapsed().as_nanos() as u64;
            if workload == Workload::EcoEdit {
                check_eco_cone(&executed, &request, position, n, out);
            }
            // A session runs its stages on fresh worker threads, and the
            // simulator keeps per-thread state that can move the last bits
            // of a far-end result, so the replay runs on a fresh thread too.
            let mark = Instant::now();
            let (replayed, layer_ns) = std::thread::scope(|scope| {
                scope
                    .spawn(|| layers::replay(&mut t, &s.env, &request, id, store))
                    .join()
                    .expect("layer replay thread")
            });
            replay_ns += mark.elapsed().as_nanos() as u64;
            let critical = layers::critical_path_ns(&request, &layer_ns, s.env.threads);
            session_ns += wall;
            critical_ns += critical;
            session_self_ns += wall.saturating_sub(critical);

            let replayed: Vec<Outcome> = replayed
                .iter()
                .map(|r| {
                    r.as_ref()
                        .map(|(report, _)| Bits::of(report))
                        .map_err(Clone::clone)
                })
                .collect();
            replay_mismatches += replayed
                .iter()
                .zip(&executed.outcomes)
                .filter(|(a, b)| a != b)
                .count();
            if let Some(remote) = &remote {
                remote_mismatches += remote
                    .iter()
                    .zip(&executed.outcomes)
                    .filter(|(a, b)| a != b)
                    .count();
            }
            let mut codes = failure_codes(&executed.outcomes);
            if let Some(remote) = &remote {
                codes.extend(failure_codes(remote));
            }
            out.tally.record(&codes);
            n += 1;
        }
        passes += 1;
    }
    let traced_ns = started.elapsed().as_nanos() as f64;
    if replay_mismatches > 0 {
        out.problems.push(format!(
            "{replay_mismatches} stages of the layer replay differ from the session's results"
        ));
    }
    if remote_mismatches > 0 {
        out.problems.push(format!(
            "{remote_mismatches} remote stages differ from the in-process session's results"
        ));
    }
    let spans_recorded = (t.spans().len() - spans_before) as f64;

    let per = |v: f64| v / f64::from(passes);
    let us_p50 = |name: &str| stats::median(&t.durations_s(name)).map_or(0.0, |v| v * 1e6);
    let m = &mut out.metrics;
    m.put(
        "charlib.rs_extract.calls",
        per(t.calls("charlib.rs_extract") as f64),
        "count",
    );
    m.put(
        "charlib.rs_extract.busy_s",
        per(t.busy_s("charlib.rs_extract")),
        "s",
    );
    m.put(
        "charlib.rs_extract.us_p50",
        us_p50("charlib.rs_extract"),
        "us",
    );
    m.put(
        "charlib.characterize.busy_s",
        t.busy_s("charlib.characterize"),
        "s",
    );
    m.put("lint.calls", per(t.calls("lint") as f64), "count");
    m.put("lint.busy_s", per(t.busy_s("lint")), "s");
    m.put("lint.findings", per(t.counted("lint.findings")), "count");
    m.put(
        "load.reduce.calls",
        per(t.calls("load.reduce") as f64),
        "count",
    );
    m.put("load.reduce.busy_s", per(t.busy_s("load.reduce")), "s");
    let models = t.calls("ceff.model") as f64;
    let share = |count: f64| if models > 0.0 { count / models } else { 0.0 };
    m.put("ceff.model.calls", per(models), "count");
    m.put("ceff.model.busy_s", per(t.busy_s("ceff.model")), "s");
    m.put(
        "ceff.iterations_mean",
        share(t.counted("ceff.iterations")),
        "count",
    );
    m.put(
        "ceff.two_ramp_share",
        share(t.counted("ceff.two_ramp")),
        "ratio",
    );
    m.put(
        "backend.analyze.self_s",
        per(t.self_s("backend.analyze")),
        "s",
    );
    m.put(
        "backend.far_end.calls",
        per(t.calls("backend.far_end") as f64),
        "count",
    );
    m.put(
        "backend.far_end.busy_s",
        per(t.busy_s("backend.far_end")),
        "s",
    );
    m.put(
        "backend.far_end.ms_p50",
        stats::median(&t.durations_s("backend.far_end")).map_or(0.0, |v| v * 1e3),
        "ms",
    );
    m.put(
        "backend.far_end_sinks.calls",
        per(t.calls("backend.far_end_sinks") as f64),
        "count",
    );
    m.put(
        "backend.far_end_sinks.busy_s",
        per(t.busy_s("backend.far_end_sinks")),
        "s",
    );
    m.put("spice.steps", per(t.counted("spice.steps")), "count");
    m.put(
        "spice.degraded_to_dense",
        per(t.counted("spice.degraded_to_dense")),
        "count",
    );
    m.put("eco.key.busy_s", per(t.busy_s("eco.key")), "s");
    m.put("eco.load.calls", per(t.calls("eco.load") as f64), "count");
    m.put("eco.load.busy_s", per(t.busy_s("eco.load")), "s");
    m.put("eco.store.calls", per(t.calls("eco.store") as f64), "count");
    m.put("eco.store.busy_s", per(t.busy_s("eco.store")), "s");
    let lookups = t.counted("eco.lookups");
    m.put(
        "eco.hit_ratio",
        if lookups > 0.0 {
            t.counted("eco.hits") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    m.put("eco.store_bytes", per(t.counted("eco.store_bytes")), "B");
    m.put("session.submit_us_p50", us_p50("session.submit"), "us");
    m.put("session.self_s", per(session_self_ns as f64 * 1e-9), "s");
    m.put(
        "session.wall_minus_replay_s",
        per((session_ns as f64 - replay_ns as f64) * 1e-9),
        "s",
    );
    m.put("service.submit_rtt_us_p50", us_p50("service.submit"), "us");
    m.put("service.drain_s", per(t.busy_s("service.wait_all")), "s");
    m.put("service.request_bytes", per(bytes.request as f64), "B");
    m.put("service.response_bytes", per(bytes.response as f64), "B");
    m.put(
        "service.self_s",
        if workload == Workload::RemoteBatch {
            per(remote_ns.saturating_sub(session_ns) as f64 * 1e-9)
        } else {
            0.0
        },
        "s",
    );
    // Layer spans summed over the stage spans of the layer replay.
    let spans = t.spans();
    let stage_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "stage")
        .map(|s| s.duration_ns())
        .sum();
    let layer_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "stage"))
        .map(|s| s.duration_ns())
        .sum();
    m.put(
        "trace.coverage",
        layer_ns as f64 / stage_ns.max(1) as f64,
        "ratio",
    );
    m.put(
        "trace.overhead_pct",
        spans_recorded * span_ns / traced_ns * 100.0,
        "%",
    );

    let trace_file = scratch_dir().join(format!("trace-{}-seed{seed}.tsv", workload.name()));
    std::fs::create_dir_all(scratch_dir())
        .and_then(|()| std::fs::write(&trace_file, t.dump()))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    out.notes.push(format!(
        "{passes} traced passes of {} requests on {} threads; {} spans written to {}",
        plan.pool.len(),
        s.env.threads,
        t.spans().len(),
        trace_file.display()
    ));
    out.notes.push(format!(
        "session wall {:.3} s/pass, layer replay wall {:.3} s/pass, modeled layer time on the \
         critical path {:.3} s/pass",
        per(session_ns as f64 * 1e-9),
        per(replay_ns as f64 * 1e-9),
        per(critical_ns as f64 * 1e-9)
    ));
    if workload == Workload::EcoEdit {
        out.notes.push(format!(
            "handoffs recomputed for producers replayed from the store: {} calls, {:.3} s/pass",
            per(t.counted("eco.replayed_handoffs")),
            per(t.counted("eco.replayed_handoff_s"))
        ));
    }
    Ok(())
}
