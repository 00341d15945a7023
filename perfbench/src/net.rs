//! The load generator: open- and closed-loop senders over loopback TCP
//! speaking the engine's frame protocol, and a benchmark-owned responder
//! that measures the generator's own ceiling.
//!
//! Every connection holds one request in flight (the server reads a
//! connection's next frame only after answering the previous one). In an
//! open loop each request has a scheduled send time and its latency runs
//! from that time, so a send the previous answer delayed is charged to
//! the server; how late each send left is recorded as well.

use crate::stats;
use crate::workload::QueryStream;
use divtopk_engine::proto::{self, Request, Response};
use divtopk_engine::{Engine, Query, Server, ServerConfig};
use divtopk_text::search::SearchOptions;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hands out queries in one global order and logs each one by id, so
/// answers can be checked and the traffic replayed after the run.
pub struct Feed {
    inner: Mutex<(QueryStream, Vec<Query>)>,
    options: SearchOptions,
    seed: u64,
    /// Requests written to a socket so far (the writer records it to
    /// place its calls in the request stream).
    pub sent: AtomicUsize,
}

impl Feed {
    pub fn new(stream: QueryStream, options: SearchOptions, seed: u64) -> Feed {
        Feed {
            inner: Mutex::new((stream, Vec::new())),
            options,
            seed,
            sent: AtomicUsize::new(0),
        }
    }

    /// The next query of the stream as `(id, frame)`.
    pub fn draw(&self) -> (usize, Vec<u8>) {
        let mut guard = self
            .inner
            .lock()
            .expect("feed lock: no sender panics holding it");
        let (stream, log) = &mut *guard;
        let query = stream.next_query();
        log.push(query.clone());
        (log.len() - 1, frame(&self.request(query)))
    }

    /// Every query drawn so far, by id.
    pub fn log(&self) -> Vec<Query> {
        self.inner.lock().expect("feed lock").1.clone()
    }

    /// The frame of logged request `id`.
    pub fn frame_of(&self, id: usize) -> Vec<u8> {
        let query = self.inner.lock().expect("feed lock").1[id].clone();
        frame(&self.request(query))
    }

    fn request(&self, query: Query) -> Request {
        let o = &self.options;
        Request::Search {
            query,
            k: o.k as u32,
            tau: o.tau,
            bound_decay: o.bound_decay,
            mode: o.mode.clone(),
        }
    }

    /// Request `id`'s offset from its open-loop grid slot, in slots:
    /// uniform in ±0.25 and fixed by the seed. Arrivals on an exact grid
    /// can lock in phase with periodic activity of the machine; a quarter
    /// slot keeps each connection's gaps within 0.75–1.25 of nominal.
    fn jitter(&self, id: usize) -> f64 {
        let mut x = (id as u64 ^ self.seed.rotate_left(32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5 - 0.25
    }

    pub fn wraps(&self) -> usize {
        self.inner.lock().expect("feed lock").0.wraps
    }
}

/// Threads that wake every 50 µs while alive, one per core.
///
/// On a virtual machine an idle vCPU halts, and waking it again costs
/// from tens of microseconds to many milliseconds depending on the host.
/// At light load every request pays several such wake-ups (client,
/// connection thread, search worker), which buries the program's own
/// latency under the host's. Keeping every core from idling — the
/// software form of disabling deep idle states — removes that noise for
/// a few percent of each core.
pub struct Ticker {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Ticker {
    /// Returns once every ticker has settled on its core, so nothing the
    /// caller times next competes with the spin.
    pub fn start(cores: usize) -> Ticker {
        let stop = Arc::new(AtomicBool::new(false));
        let together = Arc::new(std::sync::Barrier::new(cores));
        let settled = Arc::new(std::sync::Barrier::new(cores + 1));
        let threads = (0..cores)
            .map(|_| {
                let (stop, together, settled) = (
                    Arc::clone(&stop),
                    Arc::clone(&together),
                    Arc::clone(&settled),
                );
                std::thread::spawn(move || {
                    // Spin together first, so the scheduler spreads the
                    // tickers over the cores; a sleeping thread wakes where
                    // it slept, so each then stays on its own core.
                    together.wait();
                    let spun = Instant::now();
                    while spun.elapsed() < Duration::from_millis(50) {
                        std::hint::spin_loop();
                    }
                    settled.wait();
                    // RELAXED: a stop flag; it publishes no data.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                })
            })
            .collect();
        settled.wait();
        Ticker { stop, threads }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        // RELAXED: a stop flag; it publishes no data.
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A request encoded as one complete frame (length prefix + payload),
/// written with a single `write_all`.
pub fn frame(request: &Request) -> Vec<u8> {
    let payload = proto::encode_request(request).expect("benchmark requests are in range");
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub id: usize,
    /// Scheduled send (open loop) or actual send (closed loop) to the
    /// decoded answer.
    pub latency_ns: u64,
    /// Actual send minus scheduled send (0 in a closed loop).
    pub late_ns: u64,
    /// `None`: the connection failed before an answer arrived.
    pub response: Option<Response>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        matches!(self.response, Some(Response::Hits(_)))
    }
}

/// What the server's own counters said about one phase.
#[derive(Debug, Clone, Default)]
pub struct ServerView {
    pub service_mean_ms: f64,
    pub service_p50_ms: f64,
    pub service_p99_ms: f64,
    pub overloaded: u64,
    pub protocol_errors: u64,
}

/// One phase: outcomes in id order plus the server's view of it.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    pub elapsed_s: f64,
    /// Sends skipped because the step had already failed.
    pub aborted: bool,
    pub server: ServerView,
}

impl Phase {
    /// Back-to-back phases (each on its own server) as one; the server's
    /// view is the median over the parts.
    pub fn concat(parts: Vec<Phase>) -> Phase {
        let of = |f: fn(&ServerView) -> f64| {
            stats::median(&parts.iter().map(|p| f(&p.server)).collect::<Vec<_>>())
        };
        let served: usize = parts.iter().map(|p| p.outcomes.len()).sum();
        let server = ServerView {
            service_mean_ms: parts
                .iter()
                .map(|p| p.server.service_mean_ms * p.outcomes.len() as f64)
                .sum::<f64>()
                / served.max(1) as f64,
            service_p50_ms: of(|v| v.service_p50_ms),
            service_p99_ms: of(|v| v.service_p99_ms),
            overloaded: parts.iter().map(|p| p.server.overloaded).sum(),
            protocol_errors: parts.iter().map(|p| p.server.protocol_errors).sum(),
        };
        let mut all = Phase {
            server,
            ..Phase::default()
        };
        for p in parts {
            all.outcomes.extend(p.outcomes);
            all.elapsed_s += p.elapsed_s;
            all.aborted |= p.aborted;
        }
        all
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .outcomes
                .iter()
                .map(|o| stats::ms(o.latency_ns))
                .collect::<Vec<_>>(),
        )
    }

    /// Client-observed mean minus the server's mean service time: the
    /// time spent outside the server's search path (means subtract;
    /// medians of two distributions do not).
    pub fn transport_wait_ms(&self) -> f64 {
        let client = self
            .outcomes
            .iter()
            .map(|o| stats::ms(o.latency_ns))
            .sum::<f64>()
            / self.outcomes.len() as f64;
        client - self.server.service_mean_ms
    }

    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok()).count()
    }

    pub fn completed_qps(&self) -> f64 {
        (self.outcomes.len() - self.failures()) as f64 / self.elapsed_s
    }

    /// Mean send lateness of the last third of sends minus that of the
    /// first third, milliseconds: positive and large when a backlog grows.
    pub fn late_growth_ms(&self) -> f64 {
        let n = self.outcomes.len() / 3;
        if n == 0 {
            return 0.0;
        }
        let mean = |os: &[Outcome]| os.iter().map(|o| stats::ms(o.late_ns)).sum::<f64>() / n as f64;
        mean(&self.outcomes[self.outcomes.len() - n..]) - mean(&self.outcomes[..n])
    }
}

/// Pause before a shutdown, so the search workers have settled into
/// their wait for work.
const SHUTDOWN_PAUSE: Duration = Duration::from_millis(2);
/// How long a shutdown may take before it is left behind.
const SHUTDOWN_PATIENCE: Duration = Duration::from_secs(5);
/// Shutdowns that did not finish within [`SHUTDOWN_PATIENCE`].
pub static STALLED_SHUTDOWNS: AtomicUsize = AtomicUsize::new(0);

/// Shuts `server` down without letting a lost wake-up hang the run.
///
/// `Server::shutdown` sets its flag and wakes the search workers without
/// holding the queue lock, so a worker between its flag check and its
/// wait misses the wake-up and never exits, and the shutdown then joins
/// it forever. Pausing first lets the workers reach their wait; a
/// shutdown that still hangs is left behind on its thread (which ends
/// with the process) and counted in [`STALLED_SHUTDOWNS`].
pub fn stop(server: Server) {
    std::thread::sleep(SHUTDOWN_PAUSE);
    let (done, finished) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let mut server = server;
        server.shutdown();
        let _ = done.send(());
    });
    match finished.recv_timeout(SHUTDOWN_PATIENCE) {
        Ok(()) => {
            let _ = stopper.join();
        }
        Err(_) => {
            // RELAXED: a counter read once, after every phase has ended.
            STALLED_SHUTDOWNS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs `body` against a fresh server around `engine` (so the server's
/// latency histogram covers this phase alone), then shuts it down.
pub fn with_server(
    engine: &Arc<Engine>,
    config: &ServerConfig,
    body: impl FnOnce(SocketAddr) -> Phase,
) -> Phase {
    let server = Server::start(Arc::clone(engine), "127.0.0.1:0", config.clone())
        .expect("bind a loopback port");
    let mut phase = body(server.addr());
    let m = server.metrics();
    phase.server = ServerView {
        service_mean_ms: m.search_latency.mean_ns() as f64 / 1e6,
        service_p50_ms: stats::histogram_quantile_ms(&m.search_latency, 0.50),
        service_p99_ms: stats::histogram_quantile_ms(&m.search_latency, 0.99),
        // RELAXED: the phase's senders have all been joined.
        overloaded: m.overloaded.load(Ordering::Relaxed),
        protocol_errors: m.protocol_errors.load(Ordering::Relaxed),
    };
    stop(server);
    phase
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn round_trip(&mut self, frame: &[u8]) -> Option<Response> {
        self.writer.write_all(frame).ok()?;
        let answer = proto::read_frame(&mut self.reader).ok()??;
        proto::decode_response(&answer).ok()
    }
}

/// Sleeps until shortly before `at`, then spins the rest of the way
/// (a plain sleep overshoots by tens of microseconds).
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    if let Some(left) = at.checked_duration_since(Instant::now()) {
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        }
        while Instant::now() < at {
            std::hint::spin_loop();
        }
    }
}

/// Open loop at `rate` requests per second in total for `count`
/// requests, spread round-robin over `connections`. A send more than
/// `abort_late` behind schedule stops the phase (the rest is skipped).
pub fn open_loop(
    addr: SocketAddr,
    feed: &Feed,
    connections: usize,
    rate: f64,
    count: usize,
    abort_late: Option<Duration>,
) -> Phase {
    let jobs: Vec<(usize, Vec<u8>)> = (0..count).map(|_| feed.draw()).collect();
    let start = Instant::now() + Duration::from_millis(2);
    let abort = AtomicBool::new(false);
    let began = Instant::now();
    let mut outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<(usize, &[u8], Instant)> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % connections == c)
                    .map(|(i, (id, f))| {
                        let at = (i as f64 + 0.25 + feed.jitter(*id)) / rate;
                        (*id, f.as_slice(), start + Duration::from_secs_f64(at))
                    })
                    .collect();
                let abort = &abort;
                s.spawn(move || {
                    let mut conn = Conn::open(addr).expect("connect to the server");
                    let mut out = Vec::with_capacity(mine.len());
                    for (id, frame, scheduled) in mine {
                        // RELAXED: a stop flag; it publishes no data.
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        wait_until(scheduled);
                        let late = scheduled.elapsed();
                        feed.sent.fetch_add(1, Ordering::Relaxed);
                        let response = conn.round_trip(frame);
                        if abort_late.is_some_and(|limit| late > limit) {
                            abort.store(true, Ordering::Relaxed);
                        }
                        out.push(Outcome {
                            id,
                            latency_ns: scheduled.elapsed().as_nanos() as u64,
                            late_ns: late.as_nanos() as u64,
                            response,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.id);
    Phase {
        aborted: outcomes.len() < count,
        outcomes,
        elapsed_s: began.elapsed().as_secs_f64(),
        server: ServerView::default(),
    }
}

/// Closed loop: every connection sends its next request as soon as the
/// previous answer arrives, for `duration`.
pub fn closed_loop(addr: SocketAddr, feed: &Feed, connections: usize, duration: Duration) -> Phase {
    closed_loop_with(addr, connections, duration, || {
        let (id, frame) = feed.draw();
        // RELAXED: a progress count; it publishes no other data.
        feed.sent.fetch_add(1, Ordering::Relaxed);
        (id, frame)
    })
}

/// Closed loop drawing each request from `next`.
fn closed_loop_with(
    addr: SocketAddr,
    connections: usize,
    duration: Duration,
    next: impl Fn() -> (usize, Vec<u8>) + Sync,
) -> Phase {
    let began = Instant::now();
    let deadline = began + duration;
    let mut outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn = Conn::open(addr).expect("connect to the server");
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let (id, frame) = next();
                        let sent = Instant::now();
                        let response = conn.round_trip(&frame);
                        out.push(Outcome {
                            id,
                            latency_ns: sent.elapsed().as_nanos() as u64,
                            late_ns: 0,
                            response,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    outcomes.sort_by_key(|o| o.id);
    Phase {
        outcomes,
        elapsed_s: began.elapsed().as_secs_f64(),
        ..Phase::default()
    }
}

/// Closed-loop pings on one connection: `(pings per second, p50 ms)`.
pub fn ping(addr: SocketAddr, duration: Duration) -> (f64, f64) {
    let ping = frame(&Request::Ping);
    let phase = closed_loop_with(addr, 1, duration, || (0, ping.clone()));
    let pongs = phase
        .outcomes
        .iter()
        .filter(|o| matches!(o.response, Some(Response::Pong)))
        .count();
    (
        pongs as f64 / phase.elapsed_s,
        stats::percentile(&phase.latencies_ms(), 50.0),
    )
}

/// The generator's ceiling: the same closed-loop sender against a
/// benchmark-owned responder that sets TCP_NODELAY and answers every
/// frame with `answer` at once. Returns requests per second.
pub fn generator_ceiling(
    connections: usize,
    request: &[u8],
    answer: &Response,
    duration: Duration,
) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let answer = proto::encode_response(answer);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (answer, done) = (&answer, &done);
        s.spawn(move || {
            std::thread::scope(|conns| {
                for stream in listener.incoming() {
                    // RELAXED: a stop flag; it publishes no data.
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    conns.spawn(move || {
                        let _ = stream.set_nodelay(true);
                        let mut writer = stream.try_clone().expect("clone accepted socket");
                        let mut reader = BufReader::new(stream);
                        while let Ok(Some(frame)) = proto::read_frame(&mut reader) {
                            if proto::decode_request(&frame).is_err()
                                || proto::write_frame(&mut writer, answer).is_err()
                            {
                                break;
                            }
                        }
                    });
                }
            });
        });
        let phase = closed_loop_with(addr, connections, duration, || (0, request.to_vec()));
        // RELAXED: a stop flag; it publishes no data.
        done.store(true, Ordering::Relaxed);
        // Wake the acceptor so it sees the flag.
        drop(TcpStream::connect(addr));
        phase.completed_qps()
    })
}
