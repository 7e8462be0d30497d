//! The scenario service: a long-running batch server over the scenario
//! registry (`izhirisc serve`).
//!
//! The ROADMAP's north star is serving heavy traffic, so the service is
//! built around *graceful overload behaviour* rather than raw features:
//!
//! * **Bounded queue + explicit backpressure.** Submissions beyond
//!   [`ServeConfig::queue_cap`] are rejected with `429` and a
//!   `retry_after_ms` hint instead of queueing unboundedly — the client
//!   is told to come back, the server never falls over.
//! * **Supervised workers.** Every job runs through
//!   [`crate::supervise::run_supervised`]: panics, guest traps, cycle
//!   budgets and wall-clock stalls become structured per-job failures
//!   ([`RunErrorKind`]) while the worker (and every other job) survives.
//! * **Graceful shutdown.** `POST /shutdown` stops admissions, lets the
//!   workers drain queued and in-flight jobs, and keeps status/health
//!   queries answered throughout the drain.
//!
//! The whole stack is `std`-only: HTTP/1.1 on [`std::net::TcpListener`],
//! the crate's one JSON codec ([`crate::json`]) for job documents and
//! every response body, and a `Mutex<VecDeque> + Condvar` queue. The
//! workspace is offline, so no dependency was an option — and none is
//! needed at this size.
//!
//! ## Endpoints
//!
//! | Method & path | Purpose |
//! |---|---|
//! | `GET /health` | queue/worker counters; always answered, even while draining |
//! | `POST /jobs` | submit a job; `202` + id, `429` when the queue is full, `400` for an invalid document, `503` while draining |
//! | `GET /jobs/<id>` | status/result of one job (a done job's `wall_s` times its run, `build_s` the template lookup and instantiate before it); `400` for a non-numeric id, `404` for an unknown one |
//! | `POST /shutdown` | stop admissions, drain, exit |
//!
//! Every body, errors included, is a JSON object; an error is
//! `{"error": "<message>"}`, with client text escaped.
//!
//! A job document is one flat JSON object:
//! `{"scenario": "net8020", "seed": 5, "sched": "relaxed", "ticks": 20}`
//! with optional `n`, `n_cores`, `quick` (default `true`) and fault-
//! injection knobs `fault` (`"panic" | "trap" | "stall" | "corrupt"`),
//! `fault_core`, `fault_at`, `fault_arg` for chaos drills. [`parse_job`]
//! answers `400` for anything else: malformed JSON or trailing data, a
//! non-object, an unknown or repeated key, a value of the wrong type, a
//! number that is not a non-negative integer in its parameter's range, a
//! fault knob without `fault`, or a shape
//! [`izhi_programs::scenario::Scenario::validate`] rejects (checked at the
//! shape the job builds, its quick defaults merged in).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::template;
use izhi_sim::{FaultKind, FaultPlan, FaultSpec, SchedMode};

use crate::battery::SchedSpec;
use crate::json::Json;
use crate::supervise::{run_supervised, RunErrorKind, SuperviseConfig};

/// Most connections served at once, each on its own handler thread. A
/// connection accepted beyond the cap is answered `503` at once.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a handler thread waits for its next connection before it
/// exits. Reusing a waiting thread keeps thread start-up off the request
/// path, where a new thread can queue behind busy workers for a whole
/// scheduler slice.
const HANDLER_IDLE: Duration = Duration::from_secs(2);

/// Wall-clock budget for one connection, from accept to the last byte of
/// the response: a client that trickles or stalls loses its connection
/// when the budget runs out, however it paces its bytes.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Bounded queue capacity — the backpressure threshold.
    pub queue_cap: usize,
    /// Worker threads running supervised jobs.
    pub workers: usize,
    /// Supervision knobs applied to every job (wall limit, retry).
    pub supervise: SuperviseConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            queue_cap: 16,
            workers: 2,
            supervise: SuperviseConfig {
                wall_limit: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        }
    }
}

/// A validated job: everything a worker needs to build and run it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registered scenario name (validated at submit time).
    pub scenario: String,
    /// Parameter overrides (seed, n, ticks, n_cores).
    pub params: ScenarioParams,
    /// Scheduling mode (from its battery label).
    pub sched: SchedMode,
    /// The battery label the mode was requested under.
    pub sched_label: &'static str,
    /// Build at the scenario's quick (CI-sized) scale.
    pub quick: bool,
    /// Optional injected fault (chaos drills).
    pub fault: Option<FaultSpec>,
}

/// Where a job is in its life cycle.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Completed and verified.
    Done {
        /// Simulated cycles (the job's scheduling-mode clock).
        cycles: u64,
        /// Retired instructions.
        instret: u64,
        /// Total spikes.
        spikes: u64,
        /// Order-independent raster hash.
        raster_hash: u64,
        /// Host wall time of the run.
        wall_s: f64,
        /// Host wall time of the build before the run: template lookup
        /// plus instantiate/re-seed (or the cold build).
        build_s: f64,
        /// Supervised attempts it took.
        attempts: u32,
        /// Whether the worker reused a cached run template for the
        /// build (false on a cache miss or with the cache disabled).
        template_hit: bool,
    },
    /// Failed with a structured error.
    Failed {
        /// Failure class.
        kind: RunErrorKind,
        /// Detail message.
        message: String,
        /// Attempts made.
        attempts: u32,
    },
}

/// Shared server state.
struct ServerState {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<(u64, JobSpec)>>,
    not_empty: Condvar,
    jobs: Mutex<HashMap<u64, JobState>>,
    next_id: AtomicU64,
    /// Set by `POST /shutdown` (or [`ServerHandle::shutdown`]): no new
    /// admissions; workers exit once the queue is empty.
    draining: AtomicBool,
    /// Set once the workers have drained; the accept loop exits after
    /// its next wake-up.
    accept_done: AtomicBool,
    running: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    /// Accepted connections waiting for a handler, plus the handler pool.
    handlers: Mutex<Handlers>,
    /// Signalled when a connection is queued for an idle handler.
    handler_ready: Condvar,
}

/// Handler-pool bookkeeping (see [`accept_loop`]).
#[derive(Default)]
struct Handlers {
    pending: VecDeque<TcpStream>,
    /// Handler threads alive (serving or waiting), at most
    /// [`MAX_CONNECTIONS`].
    alive: usize,
    /// Handler threads waiting for a connection.
    idle: usize,
}

/// Lock helper: a poisoned mutex yields its data anyway — the service
/// must keep answering even if some thread died mid-update.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServerState {
    fn counters(&self) -> (usize, u64, u64, u64) {
        (
            lock(&self.queue).len(),
            self.running.load(Ordering::SeqCst),
            self.done.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
        )
    }
}

/// A started service: handles for address, shutdown and join.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

/// The scenario service.
pub struct Server;

impl Server {
    /// Bind, spawn the worker pool and the accept loop, return a handle.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let state = Arc::new(ServerState {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            handlers: Mutex::new(Handlers::default()),
            handler_ready: Condvar::new(),
        });
        let worker_threads = (0..workers)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_state));
        Ok(ServerHandle {
            addr,
            state,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a drain exactly as `POST /shutdown` would.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.not_empty.notify_all();
    }

    /// Wait for the service to finish: workers drain the queue (after a
    /// shutdown request), then the accept loop is released. Status and
    /// health queries are answered throughout the drain.
    pub fn join(mut self) {
        for w in self.worker_threads.drain(..) {
            let _ = w.join();
        }
        self.state.accept_done.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a no-op connection releases
        // it to observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Convenience for tests and in-process benchmarks: drain and join.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// Worker: claim jobs from the bounded queue until a drain empties it.
fn worker_loop(state: &ServerState) {
    loop {
        let (id, spec) = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = state
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        lock(&state.jobs).insert(id, JobState::Running);
        state.running.fetch_add(1, Ordering::SeqCst);
        let outcome = run_job(&spec, &state.cfg.supervise);
        state.running.fetch_sub(1, Ordering::SeqCst);
        match &outcome {
            JobState::Done { .. } => {
                state.done.fetch_add(1, Ordering::SeqCst);
            }
            _ => {
                state.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        lock(&state.jobs).insert(id, outcome);
    }
}

/// Build and run one job under supervision. Never panics outward: the
/// supervised runner isolates run panics, and build panics are caught
/// here.
fn run_job(spec: &JobSpec, sup: &SuperviseConfig) -> JobState {
    let build_start = Instant::now();
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sc = scenario::find(&spec.scenario)?;
        // Identical (scenario, shape) submissions share one cached build
        // through the process-wide template cache; only the
        // seed-dependent tables are patched per job. With the cache
        // disabled (`IZHI_TEMPLATE_CACHE=0`) every job builds cold, as
        // the workers did historically.
        let shape = sc.shape(spec.params, spec.quick);
        let (mut wl, template_hit): (Box<dyn Workload>, bool) = if template::cache_enabled() {
            let (tpl, hit) = template::lookup(sc, shape);
            let inst = match shape.seed {
                Some(seed) => tpl.instantiate(seed, spec.sched),
                None => tpl.instantiate_as_built(spec.sched),
            };
            (Box::new(inst), hit)
        } else {
            (sc.build(&shape), false)
        };
        wl.cfg_mut().system.sched = spec.sched;
        if let Some(fault) = spec.fault {
            wl.cfg_mut().system.faults = FaultPlan {
                faults: vec![fault],
            };
        }
        Some((wl, template_hit))
    }));
    let (mut wl, template_hit) = match built {
        Ok(Some(wl)) => wl,
        Ok(None) => {
            return JobState::Failed {
                kind: RunErrorKind::GuestTrap,
                message: format!("unknown scenario `{}`", spec.scenario),
                attempts: 1,
            }
        }
        Err(payload) => {
            return JobState::Failed {
                kind: RunErrorKind::Panic,
                message: crate::supervise::panic_message(&*payload),
                attempts: 1,
            }
        }
    };
    let build_s = build_start.elapsed().as_secs_f64();
    let start = Instant::now();
    match run_supervised(wl.as_mut(), sup) {
        Ok(sup) => JobState::Done {
            cycles: sup.result.cycles,
            instret: sup.result.instret,
            spikes: sup.result.raster.spikes.len() as u64,
            raster_hash: sup.result.raster_hash(),
            wall_s: start.elapsed().as_secs_f64(),
            build_s,
            attempts: sup.attempts,
            template_hit,
        },
        Err(e) => JobState::Failed {
            kind: e.kind,
            message: e.message,
            attempts: e.attempts,
        },
    }
}

/// Accept loop: hand each connection to its own handler thread (so an
/// idle or slow client never delays another), answer `503` beyond
/// [`MAX_CONNECTIONS`], and exit once released after the drain. A waiting
/// handler takes the connection if there is one; otherwise a new handler
/// starts.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.accept_done.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        let mut h = lock(&state.handlers);
        if h.idle > h.pending.len() {
            h.pending.push_back(stream);
            drop(h);
            state.handler_ready.notify_one();
        } else if h.alive < MAX_CONNECTIONS {
            h.alive += 1;
            h.pending.push_back(stream);
            drop(h);
            let state = Arc::clone(state);
            std::thread::spawn(move || handler_loop(&state));
        } else {
            drop(h);
            refuse(&mut stream);
        }
    }
}

/// One handler thread: serve queued connections one at a time, and exit
/// after [`HANDLER_IDLE`] without one.
fn handler_loop(state: &ServerState) {
    let mut h = lock(&state.handlers);
    loop {
        if let Some(stream) = h.pending.pop_front() {
            drop(h);
            serve_connection(stream, state);
            h = lock(&state.handlers);
            continue;
        }
        h.idle += 1;
        let (guard, wait) = state
            .handler_ready
            .wait_timeout(h, HANDLER_IDLE)
            .unwrap_or_else(PoisonError::into_inner);
        h = guard;
        h.idle -= 1;
        if wait.timed_out() && h.pending.is_empty() {
            h.alive -= 1;
            return;
        }
    }
}

/// Answer `503` without waiting on the client. Request bytes that have
/// already arrived are drained first: closing a socket with unread input
/// resets the connection, and the client would lose the response.
fn refuse(stream: &mut TcpStream) {
    let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
    let (status, body, _) = error(503, "too many connections");
    let _ = write_response(stream, status, &body.to_string(), None);
    if stream.set_nonblocking(true).is_ok() {
        let mut sink = [0u8; 1024];
        for _ in 0..64 {
            if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
}

/// Read one request, route it and write the response, all within
/// [`REQUEST_DEADLINE`].
fn serve_connection(mut stream: TcpStream, state: &ServerState) {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    if let Ok(req) = read_request(&mut stream, deadline) {
        let (status, body, retry_after) = handle_request(state, &req);
        if arm_deadline(&stream, deadline).is_ok() {
            let _ = write_response(&mut stream, status, &body.to_string(), retry_after);
        }
    }
}

/// Set the socket timeouts to the time left until `deadline`; an error
/// once it has passed.
fn arm_deadline(stream: &TcpStream, deadline: Instant) -> Result<(), String> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err("request deadline passed".into());
    }
    stream
        .set_read_timeout(Some(left))
        .and_then(|()| stream.set_write_timeout(Some(left)))
        .map_err(|e| e.to_string())
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Read one HTTP/1.1 request (headers + `Content-Length` body), giving
/// up at `deadline`.
fn read_request(stream: &mut TcpStream, deadline: Instant) -> Result<Request, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err("headers too large".into());
        }
        arm_deadline(stream, deadline)?;
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-request".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("no method")?.to_string();
    let path = parts.next().ok_or("no path")?.to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > 1024 * 1024 {
        return Err("body too large".into());
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        arm_deadline(stream, deadline)?;
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Write a JSON response; `retry_after` adds the backpressure hint
/// header.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    retry_after: Option<Duration>,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(d) = retry_after {
        head.push_str(&format!("Retry-After: {}\r\n", d.as_secs().max(1)));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A response: status, JSON body and the optional backpressure hint.
type Response = (u16, Json, Option<Duration>);

/// An `{"error": message}` response.
fn error(status: u16, message: impl Into<String>) -> Response {
    (status, Json::obj([("error", message.into().into())]), None)
}

/// Route one request.
fn handle_request(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let (queued, running, done, failed) = state.counters();
            let health = Json::obj([
                ("status", "ok".into()),
                ("queued", queued.into()),
                ("running", running.into()),
                ("done", done.into()),
                ("failed", failed.into()),
                ("draining", state.draining.load(Ordering::SeqCst).into()),
            ]);
            (200, health, None)
        }
        ("POST", "/jobs") => submit_job(state, &req.body),
        ("POST", "/shutdown") => {
            state.draining.store(true, Ordering::SeqCst);
            state.not_empty.notify_all();
            (202, Json::obj([("status", "draining".into())]), None)
        }
        ("GET", path) if path.starts_with("/jobs/") => job_status(state, &path["/jobs/".len()..]),
        (_, "/health" | "/jobs" | "/shutdown") => error(405, "method not allowed"),
        _ => error(404, "no such endpoint"),
    }
}

/// `POST /jobs`: validate, admit or push back.
fn submit_job(state: &ServerState, body: &str) -> Response {
    if state.draining.load(Ordering::SeqCst) {
        return error(503, "shutting down");
    }
    let spec = match parse_job(body) {
        Ok(spec) => spec,
        Err(e) => return error(400, e),
    };
    let mut q = lock(&state.queue);
    if q.len() >= state.cfg.queue_cap {
        // Explicit backpressure: the client is told when to come back
        // instead of the queue growing without bound. The hint scales
        // with the backlog a full queue represents.
        let hint = Duration::from_millis(
            100 * state.cfg.queue_cap as u64 / state.cfg.workers.max(1) as u64,
        );
        let body = Json::obj([
            ("error", "queue full".into()),
            ("retry_after_ms", (hint.as_millis() as u64).into()),
        ]);
        return (429, body, Some(hint));
    }
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    lock(&state.jobs).insert(id, JobState::Queued);
    q.push_back((id, spec));
    let queued = q.len();
    drop(q);
    state.not_empty.notify_one();
    (
        202,
        Json::obj([("id", id.into()), ("queued", queued.into())]),
        None,
    )
}

/// `GET /jobs/<id>`.
fn job_status(state: &ServerState, id_str: &str) -> Response {
    let Ok(id) = id_str.parse::<u64>() else {
        return error(400, "bad job id");
    };
    match lock(&state.jobs).get(&id) {
        None => error(404, "no such job"),
        Some(job) => (200, status_body(id, job), None),
    }
}

/// The status document of job `id`.
fn status_body(id: u64, job: &JobState) -> Json {
    let mut fields = vec![("id", id.into())];
    match job {
        JobState::Queued => fields.push(("status", "queued".into())),
        JobState::Running => fields.push(("status", "running".into())),
        JobState::Done {
            cycles,
            instret,
            spikes,
            raster_hash,
            wall_s,
            build_s,
            attempts,
            template_hit,
        } => fields.extend([
            ("status", "done".into()),
            ("sim_cycles", (*cycles).into()),
            ("sim_instret", (*instret).into()),
            ("spikes", (*spikes).into()),
            ("raster_hash", format!("{raster_hash:#018x}").into()),
            ("wall_s", Json::fixed(*wall_s, 6)),
            ("build_s", Json::fixed(*build_s, 6)),
            ("attempts", (*attempts).into()),
            ("template_hit", (*template_hit).into()),
        ]),
        JobState::Failed {
            kind,
            message,
            attempts,
        } => fields.extend([
            ("status", "failed".into()),
            ("error_kind", kind.label().into()),
            ("error", message.as_str().into()),
            ("attempts", (*attempts).into()),
        ]),
    }
    Json::obj(fields)
}

/// Every key a job document may carry.
const JOB_KEYS: &str =
    "scenario seed sched ticks n n_cores quick fault fault_core fault_at fault_arg";

/// Validate a job document into a [`JobSpec`]: one JSON object of
/// `JOB_KEYS`, each at most once, with integers that fit their
/// parameter, checked by [`scenario::Scenario::validate`] at the shape
/// the job will build (its quick defaults merged in for a quick job).
pub fn parse_job(body: &str) -> Result<JobSpec, String> {
    let doc = Json::parse(body)?;
    let fields = doc.as_obj().ok_or("a job document must be a JSON object")?;
    for (i, (key, _)) in fields.iter().enumerate() {
        if !JOB_KEYS.split(' ').any(|k| k == key) {
            return Err(format!("unknown key `{key}`"));
        }
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
    }
    let string = |key: &str| match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a string")),
    };
    let uint = |key: &str, max: u64| match doc.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) if n <= max => Ok(Some(n)),
            _ => Err(format!("`{key}` must be an integer in 0..={max}")),
        },
    };
    let uint32 = |key: &str| Ok::<_, String>(uint(key, u32::MAX.into())?.map(|n| n as u32));
    let scenario = string("scenario")?.ok_or("`scenario` (string) is required")?;
    let sc = scenario::find(scenario).ok_or_else(|| format!("unknown scenario `{scenario}`"))?;
    let sched_label = string("sched")?.unwrap_or("relaxed");
    let Some(spec) = SchedSpec::default_set()
        .into_iter()
        .find(|s| s.label == sched_label)
    else {
        return Err(format!("unknown sched label `{sched_label}`"));
    };
    let quick = match doc.get("quick") {
        None => true,
        Some(v) => v.as_bool().ok_or("`quick` must be a bool")?,
    };
    let params = ScenarioParams {
        seed: uint32("seed")?,
        n: uint32("n")?.map(|n| n as usize),
        ticks: uint32("ticks")?,
        n_cores: uint32("n_cores")?,
        ..Default::default()
    };
    sc.validate(&sc.shape(params, quick))
        .map_err(|e| format!("{scenario}: invalid parameters: {e}"))?;
    let fault = match string("fault")? {
        None => {
            if let Some(key) = ["fault_core", "fault_at", "fault_arg"]
                .into_iter()
                .find(|k| doc.get(k).is_some())
            {
                return Err(format!("`{key}` needs `fault`"));
            }
            None
        }
        Some(kind) => {
            let arg = uint32("fault_arg")?;
            let kind = match kind {
                "panic" => FaultKind::HostPanic,
                "trap" => FaultKind::GuestTrap,
                "stall" => FaultKind::StallMs(arg.map_or(200, u64::from)),
                "corrupt" => FaultKind::CorruptSpike(arg.unwrap_or(0xDEAD_BEEF)),
                k => return Err(format!("unknown fault kind `{k}`")),
            };
            Some(FaultSpec {
                core: uint32("fault_core")?.unwrap_or(0),
                at_instret: uint("fault_at", u64::MAX)?.unwrap_or(0),
                kind,
            })
        }
    };
    Ok(JobSpec {
        scenario: scenario.to_string(),
        params,
        sched: spec.mode,
        sched_label: spec.label,
        quick,
        fault,
    })
}

/// Minimal HTTP client for the load generator, tests and CI smoke:
/// one request, `Connection: close`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp)?;
    let text = String::from_utf8_lossy(&resp).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

/// What a load-generation burst observed (the `service` section of a
/// BENCH file, and the CI smoke assertions, come from this).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs submitted.
    pub submitted: usize,
    /// Accepted (`202`).
    pub accepted: usize,
    /// Rejected with backpressure (`429` + retry hint).
    pub rejected: usize,
    /// Accepted jobs that finished `done`.
    pub completed: usize,
    /// Accepted jobs that finished `failed` (with a structured kind).
    pub failed: usize,
    /// Structured failure kinds observed, in job order.
    pub failure_kinds: Vec<String>,
    /// Health checks answered `200` during the burst and drain.
    pub health_ok: usize,
    /// Health checks attempted.
    pub health_checks: usize,
    /// Whether every `429` carried a `retry_after_ms` hint.
    pub backpressure_hinted: bool,
    /// Wall time from first submission to last completion.
    pub wall_s: f64,
    /// Completed jobs per second of burst wall time.
    pub throughput_jobs_per_s: f64,
}

/// Submit a burst of job documents against a running service, poll every
/// accepted job to completion, and health-check throughout. Backpressured
/// submissions are *not* retried — the rejection count is the point.
pub fn generate_load(
    addr: &str,
    bodies: &[String],
    timeout: Duration,
) -> Result<LoadReport, String> {
    let start = Instant::now();
    let mut accepted_ids = Vec::new();
    let mut rejected = 0usize;
    let mut backpressure_hinted = true;
    let mut health_ok = 0usize;
    let mut health_checks = 0usize;
    let health = |ok: &mut usize, n: &mut usize| {
        *n += 1;
        if let Ok((200, _)) = http_request(addr, "GET", "/health", None) {
            *ok += 1;
        }
    };
    for body in bodies {
        let (status, resp) =
            http_request(addr, "POST", "/jobs", Some(body)).map_err(|e| e.to_string())?;
        let field = |key: &str| Json::parse(&resp).ok()?.get(key)?.as_u64();
        match status {
            202 => accepted_ids.push(field("id").ok_or("202 without an id")?),
            429 => {
                rejected += 1;
                if field("retry_after_ms").is_none() {
                    backpressure_hinted = false;
                }
            }
            other => return Err(format!("unexpected submit status {other}: {resp}")),
        }
        health(&mut health_ok, &mut health_checks);
    }
    // Poll accepted jobs to completion, health-checking as we go.
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut failure_kinds = Vec::new();
    let mut pending: VecDeque<u64> = accepted_ids.iter().copied().collect();
    while let Some(id) = pending.pop_front() {
        if start.elapsed() > timeout {
            return Err(format!(
                "burst timed out with {} jobs unfinished",
                pending.len() + 1
            ));
        }
        let (status, resp) =
            http_request(addr, "GET", &format!("/jobs/{id}"), None).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("status {status} for job {id}: {resp}"));
        }
        let resp = Json::parse(&resp).unwrap_or(Json::Null);
        let field = |key: &str| resp.get(key).and_then(Json::as_str);
        match field("status") {
            Some("done") => completed += 1,
            Some("failed") => {
                failed += 1;
                failure_kinds.push(field("error_kind").unwrap_or("?").to_string());
            }
            _ => {
                pending.push_back(id);
                health(&mut health_ok, &mut health_checks);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(LoadReport {
        submitted: bodies.len(),
        accepted: accepted_ids.len(),
        rejected,
        completed,
        failed,
        failure_kinds,
        health_ok,
        health_checks,
        backpressure_hinted,
        wall_s,
        throughput_jobs_per_s: if wall_s > 0.0 {
            completed as f64 / wall_s
        } else {
            0.0
        },
    })
}

/// A small, fast job document (quick net8020 at n = 60 and 10 ticks),
/// optionally with an injected fault.
fn tiny_job(seed: u32, fault: Option<&str>) -> String {
    let mut job = Json::obj([
        ("scenario", "net8020".into()),
        ("seed", seed.into()),
        ("sched", "relaxed".into()),
        ("ticks", 10u32.into()),
        ("n", 60u32.into()),
    ]);
    if let (Some(fault), Json::Obj(fields)) = (fault, &mut job) {
        fields.push(("fault".to_string(), fault.into()));
    }
    job.to_string()
}

/// A small, fast, clean job document at `seed`.
pub fn tiny_job_body(seed: u32) -> String {
    tiny_job(seed, None)
}

/// The job documents of a burst: tiny jobs at seeds `0..n_jobs`, except
/// that with `faults` (and at least two jobs) the first two are poisoned
/// with a host panic (seed 5) and a guest trap (seed 6).
pub fn burst_bodies(n_jobs: usize, faults: bool) -> Vec<String> {
    let poisoned = faults && n_jobs >= 2;
    (0..n_jobs as u32)
        .map(|i| match i {
            0 if poisoned => tiny_job(5, Some("panic")),
            1 if poisoned => tiny_job(6, Some("trap")),
            seed => tiny_job(seed, None),
        })
        .collect()
}

/// In-process service benchmark: burst `n_jobs` tiny jobs (two of them
/// deliberately faulty — a host panic and a guest trap) through a small
/// queue, and report throughput plus failure isolation. This is what the
/// perf baseline records into the BENCH `service` section.
pub fn service_benchmark(n_jobs: usize) -> Result<LoadReport, String> {
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_cap: 8,
        workers: 2,
        supervise: SuperviseConfig {
            wall_limit: Some(Duration::from_secs(30)),
            ..Default::default()
        },
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let report = generate_load(&addr, &burst_bodies(n_jobs, true), Duration::from_secs(180));
    handle.shutdown_and_join();
    report
}

/// Whether a load report demonstrates failure isolation: exactly the two
/// injected faults failed, *structurally* (one `panic`, one `guest-trap`),
/// every other accepted job completed, and the server answered every
/// health check. A third failure of any kind means a fault leaked into a
/// neighbour job (or a clean job failed on its own) and fails the check.
pub fn failure_isolated(report: &LoadReport) -> bool {
    let mut kinds: Vec<&str> = report.failure_kinds.iter().map(String::as_str).collect();
    kinds.sort_unstable();
    report.failed == 2
        && kinds == ["guest-trap", "panic"]
        && report.completed + report.failed == report.accepted
        && report.health_ok == report.health_checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_isolation_needs_exactly_the_two_injected_failures() {
        let report = |kinds: &[&str]| LoadReport {
            submitted: 10,
            accepted: 6,
            rejected: 4,
            completed: 6 - kinds.len(),
            failed: kinds.len(),
            failure_kinds: kinds.iter().map(|k| k.to_string()).collect(),
            health_ok: 12,
            health_checks: 12,
            backpressure_hinted: true,
            wall_s: 1.0,
            throughput_jobs_per_s: 4.0,
        };
        assert!(failure_isolated(&report(&["panic", "guest-trap"])));
        assert!(failure_isolated(&report(&["guest-trap", "panic"])));
        // A third failure means a neighbour job did not complete.
        assert!(!failure_isolated(&report(&[
            "panic",
            "guest-trap",
            "verify-failed"
        ])));
        assert!(!failure_isolated(&report(&["panic", "panic"])));
        assert!(!failure_isolated(&report(&["panic"])));
        let mut unanswered = report(&["panic", "guest-trap"]);
        unanswered.health_ok -= 1;
        assert!(!failure_isolated(&unanswered));
    }

    #[test]
    fn flat_json_parses_the_job_shapes() {
        let job =
            Json::parse("{\"scenario\": \"net8020\", \"seed\": 5, \"quick\": true, \"wall\": 1.5}")
                .unwrap();
        let fields = job.as_obj().unwrap();
        assert_eq!(fields.len(), 4);
        assert_eq!(fields[0].1, Json::Str("net8020".into()));
        assert_eq!(fields[1].1, Json::Num(5.0));
        assert_eq!(fields[2].1, Json::Bool(true));
        assert_eq!(fields[3].1, Json::Num(1.5));
        assert!(Json::parse("{\"k\": }").is_err());
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{}").unwrap().as_obj().unwrap().is_empty());
        // Every document a burst sends is a valid job.
        for body in burst_bodies(4, true) {
            parse_job(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
        }
    }

    #[test]
    fn job_documents_validate() {
        let job = parse_job("{\"scenario\": \"net8020\", \"seed\": 7}").unwrap();
        assert_eq!(job.scenario, "net8020");
        assert_eq!(job.params.seed, Some(7));
        assert_eq!(job.sched_label, "relaxed");
        assert!(job.quick);
        assert!(job.fault.is_none());

        let err = parse_job("{\"seed\": 7}").unwrap_err();
        assert!(err.contains("scenario"), "{err}");
        let err = parse_job("{\"scenario\": \"nope\"}").unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        let err = parse_job("{\"scenario\": \"net8020\", \"sched\": \"bogus\"}").unwrap_err();
        assert!(err.contains("unknown sched label"), "{err}");
        // The host-parallel labels are gone; old clients get the same
        // loud rejection instead of a silently different scheduler. The
        // labels are assembled from parts so the retired names appear
        // nowhere else in the source.
        for suffix in ["", "-est"] {
            let label = format!("relaxed-{}{suffix}", "par");
            let body = format!("{{\"scenario\": \"net8020\", \"sched\": \"{label}\"}}");
            let err = parse_job(&body).unwrap_err();
            assert!(err.contains("unknown sched label"), "{label}: {err}");
        }

        // Each document is rejected with a message naming the problem,
        // instead of being admitted and failing (or silently running
        // something else) in a worker.
        for (body, expect) in [
            // Past the standard memory map: `validate`'s message.
            (
                r#"{"scenario":"net8020","n_cores":40,"quick":false}"#,
                "exceeds the standard memory map's 8 core slots",
            ),
            // Past the 16-bit spike-log timestamps.
            (
                r#"{"scenario":"net8020","ticks":70000}"#,
                "spike-log timestamps are 16-bit",
            ),
            // A quick job is validated at the shape it builds: 3000
            // neurons on the quick shape's 2 cores overflow a core's
            // spike segment.
            (
                r#"{"scenario":"net8020","n":3000}"#,
                "per-core chunk 1500 exceeds",
            ),
            // Negative and fractional numbers are not cast.
            (
                r#"{"scenario":"net8020","seed":-5}"#,
                "`seed` must be an integer",
            ),
            (
                r#"{"scenario":"net8020","n":2.7}"#,
                "`n` must be an integer",
            ),
            (
                r#"{"scenario":"net8020","ticks":4294967296}"#,
                "`ticks` must be an integer in 0..=4294967295",
            ),
            (
                r#"{"scenario":"net8020","ticks":"10"}"#,
                "`ticks` must be an integer",
            ),
            (
                r#"{"scenario":"net8020","quick":1}"#,
                "`quick` must be a bool",
            ),
            // Unknown and repeated keys, trailing data, non-objects.
            (r#"{"scenario":"net8020","tick":10}"#, "unknown key `tick`"),
            (
                r#"{"scenario":"net8020","seed":1,"seed":2}"#,
                "duplicate key `seed`",
            ),
            (
                r#"{"scenario":"net8020"} trailing garbage"#,
                "trailing data",
            ),
            (r#"["net8020"]"#, "must be a JSON object"),
            // Fault knobs without a fault.
            (
                r#"{"scenario":"net8020","fault_at":5}"#,
                "`fault_at` needs `fault`",
            ),
        ] {
            let err = parse_job(body).expect_err(body);
            assert!(err.contains(expect), "{body}: {err}");
        }
    }

    #[test]
    fn job_documents_carry_fault_plans() {
        let job = parse_job(
            "{\"scenario\": \"net8020\", \"fault\": \"stall\", \"fault_core\": 1, \
             \"fault_at\": 500, \"fault_arg\": 80}",
        )
        .unwrap();
        let fault = job.fault.expect("fault parsed");
        assert_eq!(fault.core, 1);
        assert_eq!(fault.at_instret, 500);
        assert_eq!(fault.kind, FaultKind::StallMs(80));
        let err = parse_job("{\"scenario\": \"net8020\", \"fault\": \"meteor\"}").unwrap_err();
        assert!(err.contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn json_escaping_is_safe_for_messages() {
        let message = "a\"b\\c\nd\u{1}`";
        let body = status_body(
            3,
            &JobState::Failed {
                kind: RunErrorKind::Panic,
                message: message.to_string(),
                attempts: 1,
            },
        )
        .to_string();
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some(message));
        assert_eq!(
            parsed.get("error_kind").and_then(Json::as_str),
            Some("panic")
        );
        // Error bodies echo client text through the same writer.
        let (status, body, _) = error(400, "unknown scenario `a\"b`");
        assert_eq!(status, 400);
        assert_eq!(
            Json::parse(&body.to_string()).unwrap().get("error"),
            Some(&Json::Str("unknown scenario `a\"b`".into()))
        );
    }
}
