//! The serve section: the real `imcf serve` binary driven open-loop over
//! TCP by the benchmark's own generator, plus (in the traced run) the
//! in-process costs of `Router::handle` and `http::read_request` on a
//! router built the way `imcf serve` builds it.
//!
//! The generator is open-loop: each of its threads owns one keep-alive
//! connection and a fixed schedule of due times derived from the rate. A
//! request is sent at its due time or, when the previous response came
//! back late, as soon as possible after; its latency is timed from the due
//! time, so a stall is charged to every request it delays. Refusals,
//! timeouts, I/O errors and non-2xx answers count as failures and as
//! latency misses.

use crate::report::Report;
use crate::span::Recorder;
use crate::stats::{summarize, windowed_p99, WINDOWS};
use imcf_controller::api::Router;
use imcf_controller::controller::{ControllerConfig, LocalController};
use imcf_core::calendar::PaperCalendar;
use imcf_net::client::{ClientResponse, Connection};
use imcf_net::http::{read_request, Limits};
use imcf_obs::{default_rules, ObsConfig, ObsEngine};
use imcf_sim::meter::EnergyMeter;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Zones the server provisions.
const ZONES: u64 = 2;
/// Generator threads, each with one keep-alive connection (the machine
/// has two cores; load comes from one process with at most that many).
const THREADS: usize = 2;
/// The `nominal` rate: about a quarter of the 2-connection closed-loop
/// capacity of `imcf serve` (≈28.6k req/s on the 5-route mix, 2-core x86-64
/// VM, at the commit the benchmark was written against).
pub const NOMINAL_RPS: f64 = 7_000.0;
/// The `peak` rate: about three quarters of that capacity.
pub const PEAK_RPS: f64 = 21_000.0;
/// Latency limit for `max_rps`, on the p99 of all requests.
const LIMIT_US: f64 = 1_000.0;
/// Bisection probes above the highest passing rate.
const PROBES: usize = 5;
/// `imcf serve` set-ups timed per run.
const SETUPS: usize = 5;
/// Per-request socket timeout; a request that exceeds it has failed.
const TIMEOUT: Duration = Duration::from_secs(1);
/// The generator sleeps until this long before a request is due, then
/// yields until it is due. A sleep wakes up tens of microseconds late,
/// which would be charged to the server, and lets the VM's cores idle, so
/// that waking the server for the next request costs a varying extra
/// delay; yielding through the gap between requests at the fixed rates
/// keeps both out of the latency (run-to-run spread of the nominal p50s
/// fell from ≈35–50% to ≈5–10% of the median on the 2-core VM).
const SPIN: Duration = Duration::from_millis(1);
/// In-process calls per route in the traced run.
const ROUTER_CALLS: usize = 2_000;

/// The request mix: about 80% reads over four routes, 20% writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Items,
    Item,
    Firewall,
    Metrics,
    Post,
}

impl Route {
    const ALL: [Route; 5] = [
        Route::Items,
        Route::Item,
        Route::Firewall,
        Route::Metrics,
        Route::Post,
    ];

    fn label(self) -> &'static str {
        match self {
            Route::Items => "get_items",
            Route::Item => "get_item",
            Route::Firewall => "get_firewall",
            Route::Metrics => "get_metrics",
            Route::Post => "post_item",
        }
    }

    fn is_write(self) -> bool {
        self == Route::Post
    }
}

/// A concrete request of the mix.
struct Req {
    route: Route,
    method: &'static str,
    target: String,
    body: String,
}

/// splitmix64: the generator's request stream, a pure function of the seed.
struct Mix(u64);

impl Mix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn request(&mut self) -> Req {
        let r = self.next_u64();
        let zone = (r >> 32) % ZONES;
        let route = Route::ALL[(r % 5) as usize];
        let (method, target, body) = match route {
            Route::Items => ("GET", String::from("/rest/items"), String::new()),
            Route::Item => (
                "GET",
                format!("/rest/items/zone{zone}_SetPoint"),
                String::new(),
            ),
            Route::Firewall => ("GET", String::from("/rest/firewall"), String::new()),
            Route::Metrics => ("GET", String::from("/rest/metrics"), String::new()),
            Route::Post => (
                "POST",
                format!("/rest/items/zone{zone}_SetPoint"),
                format!("{}.5", 18 + (r >> 40) % 8),
            ),
        };
        Req {
            route,
            method,
            target,
            body,
        }
    }
}

/// Why a response is wrong for its route, if it is.
fn check_response(route: Route, response: &ClientResponse) -> Option<String> {
    if response.status != 200 {
        return Some(format!("{}: status {}", route.label(), response.status));
    }
    let json = response
        .header("content-type")
        .is_some_and(|t| t.starts_with("application/json"));
    if route == Route::Metrics {
        if json || response.body.is_empty() {
            return Some(String::from("get_metrics: expected a Prometheus text body"));
        }
        return None;
    }
    if !json {
        return Some(format!("{}: expected a JSON body", route.label()));
    }
    match serde_json::from_slice::<serde_json::Value>(&response.body) {
        Ok(_) => None,
        Err(e) => Some(format!("{}: body does not parse: {e}", route.label())),
    }
}

/// CPU time (user + system) of a process or thread from its `stat` file,
/// in clock ticks of 10 ms (USER_HZ = 100 on Linux).
fn cpu_ticks(stat_path: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(stat_path).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// A running `imcf serve` child. Dropping it shuts the server down on
/// every exit path: stdin is closed first (the server's own shutdown
/// signal), then the process is killed if it has not exited.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    drain: Option<std::thread::JoinHandle<()>>,
    addr: String,
}

impl Server {
    /// Spawns the server and returns once `/rest/readyz` answers 200.
    fn start(imcf: &Path) -> Result<Server, String> {
        let mut child = Command::new(imcf)
            .args(["serve", "--port", "0", "--zones", &ZONES.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", imcf.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("no stdout pipe")?;
        let mut server = Server {
            child,
            stdin,
            drain: None,
            addr: String::new(),
        };
        let mut lines = BufReader::new(stdout);
        let mut banner = String::new();
        lines
            .read_line(&mut banner)
            .map_err(|e| format!("reading the serve banner: {e}"))?;
        // "imcf-net: serving 2 zone(s) on 127.0.0.1:PORT (...)"
        server.addr = banner
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("no address in the serve banner {banner:?}"))?
            .to_string();
        // Keep reading the child's stdout so it never blocks on a full pipe.
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ready = Connection::open(&server.addr, TIMEOUT)
                .and_then(|mut c| c.round_trip("GET", "/rest/readyz", b""))
                .is_ok_and(|r| r.status == 200);
            if ready {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err(String::from("imcf serve never became ready"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a fresh connection (for probes outside the load).
    fn get(&self, target: &str) -> Result<ClientResponse, String> {
        Connection::open(&self.addr, TIMEOUT)
            .and_then(|mut c| c.round_trip("GET", target, b""))
            .map_err(|e| format!("GET {target}: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// What one generator phase measured.
#[derive(Default)]
struct Phase {
    /// Latency from due time by schedule window, µs; failures are +∞ (a
    /// miss).
    reads: [Vec<f64>; WINDOWS],
    writes: [Vec<f64>; WINDOWS],
    /// How late each request was sent, µs.
    lateness: Vec<f64>,
    /// Lateness of the sends in the last tenth of the phase, µs.
    late_tail: Vec<f64>,
    completed: u64,
    failed: u64,
    wrong: Vec<String>,
    reconnects: u64,
    cpu_ticks: u64,
    metrics_bytes: Vec<f64>,
    wall: Duration,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        for (mine, theirs) in self.reads.iter_mut().zip(other.reads) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.writes.iter_mut().zip(other.writes) {
            mine.extend(theirs);
        }
        self.lateness.extend(other.lateness);
        self.late_tail.extend(other.late_tail);
        self.completed += other.completed;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.reconnects += other.reconnects;
        self.cpu_ticks += other.cpu_ticks;
        self.metrics_bytes.extend(other.metrics_bytes);
    }

    fn attempted(&self) -> u64 {
        self.completed + self.failed
    }

    /// Whether the phase held the rate: p99 of all requests within the
    /// limit (failures count as misses) and the generator not falling
    /// behind its schedule by the end.
    fn holds(&self) -> bool {
        let all: Vec<Vec<f64>> = self
            .reads
            .iter()
            .zip(&self.writes)
            .map(|(r, w)| r.iter().chain(w).copied().collect())
            .collect();
        let p99_ok = windowed_p99(&all).is_some_and(|p99| p99 <= LIMIT_US);
        let behind = summarize(&self.late_tail).is_some_and(|s| s.p50 > LIMIT_US);
        p99_ok && !behind
    }

    fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }
}

/// One generator thread: its share of the schedule on its own connection.
fn drive(addr: &str, rate: f64, secs: f64, thread: usize, seed: u64, start: Instant) -> Phase {
    let cpu_before = cpu_ticks("/proc/thread-self/stat");
    let interval = Duration::from_secs_f64(THREADS as f64 / rate);
    let offset = interval.mul_f64(thread as f64 / THREADS as f64);
    let total = (secs * rate / THREADS as f64).round() as u64;
    let tail_from = total - total / 10;
    let mut mix = Mix(seed ^ (thread as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut phase = Phase::default();
    let mut conn: Option<Connection> = None;
    for i in 0..total {
        let req = mix.request();
        let due = start + offset + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            let wait = due - now;
            if wait > SPIN {
                std::thread::sleep(wait - SPIN);
            }
            while Instant::now() < due {
                std::thread::yield_now();
            }
        }
        let sent = Instant::now();
        let late_us = (sent - due).as_nanos() as f64 / 1e3;
        phase.lateness.push(late_us);
        if i >= tail_from {
            phase.late_tail.push(late_us);
        }
        let outcome = match conn.as_mut() {
            Some(c) => Ok(c),
            None => Connection::open(addr, TIMEOUT).map(|c| conn.insert(c)),
        }
        .and_then(|c| c.round_trip(req.method, &req.target, req.body.as_bytes()));
        let latency_us = (Instant::now() - due).as_nanos() as f64 / 1e3;
        let sample = match outcome {
            Ok(response) => {
                if response.closing {
                    conn = None;
                    phase.reconnects += 1;
                }
                match check_response(req.route, &response) {
                    None => {
                        phase.completed += 1;
                        if req.route == Route::Metrics {
                            phase.metrics_bytes.push(response.body.len() as f64);
                        }
                        latency_us
                    }
                    Some(why) => {
                        phase.failed += 1;
                        if phase.wrong.len() < 5 {
                            phase.wrong.push(why);
                        }
                        f64::INFINITY
                    }
                }
            }
            Err(_) => {
                conn = None;
                phase.failed += 1;
                f64::INFINITY
            }
        };
        let window = (i as usize * WINDOWS) / total as usize;
        if req.route.is_write() {
            phase.writes[window].push(sample);
        } else {
            phase.reads[window].push(sample);
        }
    }
    phase.cpu_ticks = cpu_ticks("/proc/thread-self/stat")
        .zip(cpu_before)
        .map_or(0, |(after, before)| after - before);
    phase
}

/// Drives the server at `rate` req/s for `secs` seconds.
fn run_phase(server: &Server, rate: f64, secs: f64, seed: u64) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let mut phase = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || drive(&server.addr, rate, secs, t, seed, start)))
            .collect();
        let mut merged = Phase::default();
        for handle in handles {
            merged.merge(handle.join().expect("generator thread panicked"));
        }
        merged
    });
    phase.wall = start.elapsed();
    phase
}

fn check_phase(report: &mut Report, name: &str, phase: &Phase) {
    report.attempt(phase.attempted(), phase.failed);
    report.gate(
        "serve.responses_match_routes",
        phase.wrong.is_empty(),
        format!("{name}: {}", phase.wrong.join("; ")),
    );
}

/// The untraced section: set-up, latency at the nominal rate in slices
/// between the other sections, then latency at the peak rate and
/// `max_rps` by bisection above the highest rate that holds.
pub struct Untraced {
    server: Server,
    nominal: Phase,
    seed: u64,
    phases: u64,
}

impl Untraced {
    /// Starts the server [`SETUPS`] times, timing each start, and keeps the
    /// last one running.
    pub fn start(report: &mut Report, imcf: &Path, seed: u64) -> Result<Untraced, String> {
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SETUPS {
            drop(server.take());
            let start = Instant::now();
            server = Some(Server::start(imcf)?);
            setups.push(start.elapsed().as_secs_f64());
        }
        report.setup("serve", &setups);
        Ok(Untraced {
            server: server.expect("SETUPS > 0"),
            nominal: Phase::default(),
            seed,
            phases: 0,
        })
    }

    fn phase(&mut self, rate: f64, secs: f64) -> Phase {
        self.phases += 1;
        run_phase(&self.server, rate, secs, self.seed ^ self.phases)
    }

    /// Drives the server at the nominal rate for `secs` seconds.
    pub fn nominal(&mut self, report: &mut Report, secs: f64) {
        let phase = self.phase(NOMINAL_RPS, secs);
        check_phase(report, "nominal", &phase);
        self.nominal.merge(phase);
    }

    /// Runs the peak phase and the `max_rps` bisection, then reports.
    pub fn finish(mut self, report: &mut Report, peak_s: f64, probe_s: f64) {
        let what = format!("at {NOMINAL_RPS} req/s, from due time");
        report.latency("read", "", &self.nominal.reads, &what);
        report.latency("write", "", &self.nominal.writes, &what);

        let peak = self.phase(PEAK_RPS, peak_s);
        check_phase(report, "peak", &peak);
        let what = format!("at {PEAK_RPS} req/s, from due time");
        report.latency("read", ".peak", &peak.reads, &what);
        report.latency("write", ".peak", &peak.writes, &what);

        // The highest rate that holds, bisected between the highest rate
        // seen to hold and the lowest seen to fail.
        let mut best = None;
        let (mut lo, mut hi) = (NOMINAL_RPS, PEAK_RPS);
        if peak.holds() {
            best = Some(peak.throughput());
            (lo, hi) = (PEAK_RPS, 2.0 * PEAK_RPS);
        } else if self.nominal.holds() {
            best = Some(NOMINAL_RPS);
        }
        for _ in 0..PROBES {
            if best.is_none() {
                break;
            }
            let rate = (lo + hi) / 2.0;
            let phase = self.phase(rate, probe_s);
            check_phase(report, "max_rps probe", &phase);
            if phase.holds() {
                best = Some(phase.throughput());
                lo = rate;
            } else {
                hi = rate;
            }
        }
        let what = format!("throughput at the highest rate holding p99 <= {LIMIT_US} us");
        match best {
            Some(rps) => report.value("max_rps", "1/s", rps, PROBES, &what, false),
            None => report.note(format!(
                "max_rps: no rate held, not even {NOMINAL_RPS} req/s"
            )),
        }
    }
}

/// Builds a router the way `imcf serve` does.
fn router() -> Result<Router, String> {
    let mut controller =
        LocalController::new(ControllerConfig::default(), PaperCalendar::january_start());
    for z in 0..ZONES {
        controller
            .provision_zone(&format!("zone{z}"))
            .map_err(|e| format!("provision: {e}"))?;
    }
    let engine = ObsEngine::in_memory(ObsConfig::default(), default_rules())
        .map_err(|e| format!("obs engine: {e}"))?;
    Ok(Router::new(
        controller.registry(),
        controller.firewall(),
        Arc::new(Mutex::new(EnergyMeter::new(PaperCalendar::january_start()))),
    )
    .with_breakers(controller.breakers(), controller.chaos_clock())
    .with_obs(Arc::new(Mutex::new(engine))))
}

/// The traced section, in-process half: `http::read_request` and
/// `Router::handle` per route, one trace per request.
pub fn run_router_traced(report: &mut Report, seed: u64, spans_out: &Path) -> Result<(), String> {
    let router = router()?;
    let limits = Limits::default();
    let rec = Recorder::new();
    let mut mix = Mix(seed);
    let mut per_route = [0usize; 5];
    let mut trace = 0u64;
    while per_route.iter().any(|&n| n < ROUTER_CALLS) {
        let req = mix.request();
        let idx = Route::ALL
            .iter()
            .position(|&r| r == req.route)
            .expect("known route");
        if per_route[idx] >= ROUTER_CALLS {
            continue;
        }
        per_route[idx] += 1;
        trace += 1;
        let wire = format!(
            "{} {} HTTP/1.1\r\nHost: imcf\r\nContent-Length: {}\r\n\r\n{}",
            req.method,
            req.target,
            req.body.len(),
            req.body
        );
        let root = rec.open("request", trace, None);
        let parsed = rec.time("http.parse", trace, Some(root), || {
            read_request(&mut std::io::Cursor::new(wire.as_bytes()), &limits)
        });
        let parsed = parsed.map_err(|e| format!("read_request: {e:?}"))?;
        let line = format!(
            "{} {} {}",
            parsed.method,
            parsed.target,
            String::from_utf8_lossy(&parsed.body)
        );
        let name = match req.route {
            Route::Items => "router.get_items",
            Route::Item => "router.get_item",
            Route::Firewall => "router.get_firewall",
            Route::Metrics => "router.get_metrics",
            Route::Post => "router.post_item",
        };
        let response = rec.time(name, trace, Some(root), || router.handle(&line));
        rec.close(root);
        report.gate(
            "serve.router_status_matches_route",
            response.status == 200,
            format!("{}: status {}", req.route.label(), response.status),
        );
    }
    report.attempt(trace, 0);
    for route in Route::ALL {
        let s = summarize(&rec.durations_us(&format!("router.{}", route.label())))
            .expect("every route ran");
        report.layer_summary(&format!("router.handle_us.{}", route.label()), "us", &s);
    }
    let parse = summarize(&rec.durations_us("http.parse")).expect("requests ran");
    report.layer_summary("http.parse_us", "us", &parse);
    report.write_spans(&rec, spans_out);
    Ok(())
}

/// The traced section, wire half: CPU per request on both sides, the
/// server's rejection and timeout counters, reconnects, lateness and the
/// metrics body size, at the nominal rate.
pub fn run_wire_traced(
    report: &mut Report,
    imcf: &Path,
    seed: u64,
    secs: f64,
) -> Result<(), String> {
    let server = Server::start(imcf)?;
    let stat = format!("/proc/{}/stat", server.pid());
    let before = cpu_ticks(&stat).ok_or("cannot read the server's CPU time")?;
    let phase = run_phase(&server, NOMINAL_RPS, secs, seed);
    let after = cpu_ticks(&stat).ok_or("cannot read the server's CPU time")?;
    report.attempt(phase.attempted(), phase.failed);
    report.gate(
        "serve.responses_match_routes",
        phase.wrong.is_empty(),
        phase.wrong.join("; "),
    );
    let per_req = |ticks: u64| ticks as f64 * 10_000.0 / phase.completed.max(1) as f64;
    report.layer("server.cpu_us_per_req", "us", per_req(after - before));
    report.layer("gen.cpu_us_per_req", "us", per_req(phase.cpu_ticks));
    report.layer("gen.reconnects", "count", phase.reconnects as f64);
    let lateness = summarize(&phase.lateness).expect("requests ran");
    report.layer_summary("gen.lateness_us", "us", &lateness);
    report.layer(
        "metrics.body_bytes",
        "bytes",
        phase.metrics_bytes.iter().sum::<f64>() / phase.metrics_bytes.len().max(1) as f64,
    );

    let snapshot = server.get("/rest/metrics?format=json")?;
    let value: serde_json::Value =
        serde_json::from_slice(&snapshot.body).map_err(|e| format!("metrics snapshot: {e}"))?;
    let total = |name: &str| -> f64 {
        value
            .get("metrics")
            .and_then(|m| m.as_array())
            .unwrap_or(&[])
            .iter()
            .filter(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
            .filter_map(|m| match m.get("value") {
                Some(serde_json::Value::Number(n)) => Some(n.as_f64()),
                _ => None,
            })
            .fold(0.0, |a, b| a + b)
    };
    report.layer("net.rejected", "count", total("net.rejected"));
    report.layer("net.timeouts", "count", total("net.timeouts"));
    drop(server);
    Ok(())
}
