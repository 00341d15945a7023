//! `divtopk-perfbench`: the repository benchmark.
//!
//! For one workload it builds an `Engine`, serves it with an in-process
//! `Server` on loopback TCP, drives it with an open-loop generator
//! (nominal rate, knee search) and a closed loop (saturation), checks
//! every answer against a twin engine, times the engine's mutation,
//! checkpoint and restart calls, and prints one JSON result line. With
//! `--trace 1` it also replays the traffic in-process with per-layer
//! timing and prints the per-layer metrics instead. METRICS.md lists
//! every metric, what it should respond to, and why each workload
//! exists.
//!
//! Run it from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_mix --seed 1 --seconds 15 --trace 0
//! ```

mod check;
mod net;
mod shadow;
mod stats;
mod workload;

use divtopk_core::rng::Pcg;
use divtopk_engine::{Engine, EngineConfig, Query, Server, ServerConfig};
use divtopk_text::persist::SaveReport;
use divtopk_text::search::SearchOptions;
use divtopk_text::synth::generate;
use net::{Feed, Outcome, Phase};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workload::{Spec, WriteOp};

const USAGE: &str = "usage: perfbench --workload <hot_mix|cold_ta|live_scan|all> --seed <n> \
--seconds <s> --trace <0|1> [--perturb-answer]";

/// The probe (see [`Probe`]) runs in this many slices; on the read-only
/// workloads each slice runs this many writer cycles.
const SLICES: usize = 12;
const SLICE_CYCLES: usize = 2;
/// Restarts after each slice.
const SLICE_RESTARTS: usize = 3;
/// Restarts from the last checkpoint at the end of a run with writes
/// beside its reads; `restart_s` is the median of every restart.
const RESTARTS: usize = 5;
/// Logged queries the last restart also answers and checks.
const RESTART_CHECKS: usize = 32;
/// The nominal phase is this many back-to-back windows, each this share
/// of `--seconds`; `latency_tail_ms` is the median of the windows' tails,
/// so one burst of host noise cannot set it.
const NOMINAL_WINDOWS: usize = 3;
const NOMINAL_WINDOW: f64 = 0.25;
/// Samples a knee step aims for (fewer at low rates, see `knee_search`).
const KNEE_SAMPLES: f64 = 60.0;
/// Knee-search rate resolution: steps stop below this ratio.
const KNEE_RESOLUTION: f64 = 1.03;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    perturb: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut perturb) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--perturb-answer" => perturb = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Spec::named(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        perturb,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The outcome of one workload run.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Machine shape, configuration and run details (not metrics).
    info: Vec<(String, String)>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn info_line(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"config\": {{{}}}}}", fields.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let spec = Spec::named(&args.workload).expect("validated in parse_args");
    let report = match run(&spec, &args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!("{:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.info_line());
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: {} of {} requests failed or were answered wrongly",
            spec.name, report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process (so `rss_peak_mb` is
/// that workload's), and ends with one combined result line whose
/// metrics are prefixed with the workload name.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in workload::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if args.perturb {
            cmd.arg("--perturb-answer");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("[{name}] {line}");
        }
        let Some(result) = last.strip_prefix("{\"correct\": ") else {
            eprintln!("perfbench: {name} printed no result");
            return ExitCode::FAILURE;
        };
        correct &= out.status.success() && result.starts_with("true");
        let field = |key: &str| -> u64 {
            result
                .split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        let body = result
            .split("\"metrics\": {")
            .nth(1)
            .unwrap_or("")
            .trim_end_matches("}}");
        metrics.extend(body.split("}, ").filter(|m| !m.is_empty()).map(|m| {
            format!(
                "\"{name}.{}}}",
                m.trim_start_matches('"').trim_end_matches('}')
            )
        }));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's private directory under `.perfbench/` in the working
/// directory; removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn new(workload: &str) -> Result<RunDir, String> {
        let dir = Path::new(".perfbench").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One executed writer call: where in the request stream it landed, how
/// long it took, and what a save wrote.
struct WriteRecord {
    op: usize,
    position: usize,
    ms: f64,
    save: Option<SaveReport>,
}

/// Runs `ops` against `engine`, one every `period` on average, until
/// done or `stop` is set.
fn run_writes(
    engine: &Engine,
    ops: &[WriteOp],
    period: Duration,
    stop: &AtomicBool,
    feed: &Feed,
    ckpt: &Path,
    seed: u64,
) -> Result<Vec<WriteRecord>, String> {
    let mut due = Instant::now();
    let mut rng = Pcg::new(seed ^ 0x7065_7269_6f64);
    let mut records = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        // Intervals uniform in 0.5–1.5 periods, so writes do not lock in
        // phase with the reads' schedule.
        due += period.mul_f64(0.5 + rng.unit_f64());
        // RELAXED: a stop flag; it publishes no data.
        while !stop.load(Ordering::Relaxed) && Instant::now() < due {
            std::thread::sleep((due - Instant::now()).min(Duration::from_millis(5)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let position = feed.sent.load(Ordering::Relaxed);
        let t = Instant::now();
        let save = check::apply(engine, op, ckpt)?;
        records.push(WriteRecord {
            op: i,
            position,
            ms: t.elapsed().as_secs_f64() * 1e3,
            save,
        });
    }
    Ok(records)
}

/// Restart times and the checks of the restarted engines' answers.
#[derive(Default)]
struct Restarts {
    seconds: Vec<f64>,
    load_ms: Vec<f64>,
    checks: usize,
    failed: usize,
    first_failure: Option<String>,
}

impl Restarts {
    /// Loads the checkpoint in `ckpt` and answers `queries`; the restart
    /// time runs to the first answer. Every answer must match `live`,
    /// which holds the checkpointed state.
    fn restart<'q>(
        &mut self,
        ckpt: &Path,
        config: &EngineConfig,
        live: &Engine,
        queries: impl IntoIterator<Item = &'q Query>,
        options: &SearchOptions,
    ) -> Result<(), String> {
        let t = Instant::now();
        let restarted = Engine::load_snapshot(ckpt, config).map_err(|e| format!("restart: {e}"))?;
        self.load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for (i, query) in queries.into_iter().enumerate() {
            let got = restarted
                .search(query, options)
                .map_err(|e| format!("restart search: {e}"))?;
            if i == 0 {
                self.seconds.push(t.elapsed().as_secs_f64());
            }
            let want = live
                .search_uncached(query, options)
                .map_err(|e| format!("live search: {e}"))?;
            self.checks += 1;
            if !check::same_answer(&check::wire(&got, 0), &check::wire(&want, 0)) {
                self.failed += 1;
                self.first_failure
                    .get_or_insert(format!("restart answer differs for {query:?}"));
            }
        }
        Ok(())
    }
}

/// One set-up: corpus generation, engine build, server ready. Returns
/// the engine and the seconds it took.
fn set_up(
    spec: &Spec,
    config: &EngineConfig,
    server_config: &ServerConfig,
) -> Result<(Arc<Engine>, f64), String> {
    let t = Instant::now();
    let engine = Arc::new(Engine::new(generate(&spec.corpus), config.clone()));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", server_config.clone())
        .map_err(|e| format!("start server: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    net::stop(server);
    Ok((engine, seconds))
}

/// Timed work run a slice at a time before each read phase and knee
/// step, the rest after the reads, so its medians sample the whole run,
/// not one moment of a shared host (whose speed moves within seconds).
/// Each slice is one more set-up and, on the read-only workloads, writer
/// cycles on an engine of their own (the served engine stays read-only)
/// ending with the schedule's checkpoint and [`SLICE_RESTARTS`] restarts
/// from it.
struct Probe<'a> {
    spec: &'a Spec,
    config: &'a EngineConfig,
    server_config: &'a ServerConfig,
    /// `None` when the workload's writer runs beside the reads instead.
    write_engine: Option<&'a Engine>,
    schedule: &'a [WriteOp],
    options: &'a SearchOptions,
    restart_query: &'a Query,
    ckpt: &'a Path,
    slices_done: usize,
    setup_s: Vec<f64>,
    records: Vec<WriteRecord>,
    restarts: Restarts,
    error: Option<String>,
}

impl Probe<'_> {
    /// Runs the next slice, if any is left; an error stops the probe and
    /// is reported by [`Probe::finish`].
    fn slice(&mut self) {
        if self.error.is_some() || self.slices_done == SLICES {
            return;
        }
        if let Err(e) = self.try_slice() {
            self.error = Some(e);
        }
    }

    fn try_slice(&mut self) -> Result<(), String> {
        let ops = SLICE_CYCLES * workload::CYCLE_OPS;
        let first = self.slices_done * ops;
        self.slices_done += 1;
        self.setup_s
            .push(set_up(self.spec, self.config, self.server_config)?.1);
        let Some(engine) = self.write_engine else {
            return Ok(());
        };
        for op in first..first + ops {
            let t = Instant::now();
            let save = check::apply(engine, &self.schedule[op], self.ckpt)?;
            self.records.push(WriteRecord {
                op,
                position: 0,
                ms: t.elapsed().as_secs_f64() * 1e3,
                save,
            });
        }
        for _ in 0..SLICE_RESTARTS {
            self.restarts.restart(
                self.ckpt,
                self.config,
                engine,
                [self.restart_query],
                self.options,
            )?;
        }
        Ok(())
    }

    /// Runs the slices left and hands back the set-up times, the write
    /// records and the restarts.
    fn finish(mut self) -> Result<(Vec<f64>, Vec<WriteRecord>, Restarts), String> {
        while self.slices_done < SLICES && self.error.is_none() {
            self.slice();
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.setup_s, self.records, self.restarts)),
        }
    }
}

/// Result of the knee search.
struct Knee {
    qps: f64,
    steps: Vec<String>,
    phases: Vec<Phase>,
}

/// Bisects log-rate between the nominal rate (which met the SLO) and
/// 1.25 × the saturated throughput until the bracket is narrower than
/// [`KNEE_RESOLUTION`]. A step passes when nothing failed, its tail is
/// within the SLO, and send lateness did not grow across it. `between`
/// runs before each step.
#[allow(clippy::too_many_arguments)]
fn knee_search(
    engine: &Arc<Engine>,
    config: &ServerConfig,
    feed: &Feed,
    spec: &Spec,
    connections: usize,
    nominal: f64,
    throughput: f64,
    seconds: f64,
    between: &mut dyn FnMut(),
) -> Knee {
    let (mut lo, mut hi) = (nominal, (throughput * 1.25).max(nominal * 1.25));
    let steps = ((hi / lo).ln() / KNEE_RESOLUTION.ln())
        .log2()
        .ceil()
        .clamp(3.0, 8.0) as usize;
    let mut knee = Knee {
        qps: lo,
        steps: Vec::new(),
        phases: Vec::new(),
    };
    for step in 0..steps {
        between();
        // Open-loop capacity with one request in flight per connection is
        // close to the closed-loop throughput, so probe there first.
        let first = throughput * 0.75;
        let rate = if step == 0 && lo < first && first < hi {
            first
        } else {
            (lo * hi).sqrt()
        };
        let duration = (KNEE_SAMPLES / rate).clamp(0.05 * seconds, 0.1 * seconds);
        let count = ((rate * duration).round() as usize).max(connections);
        let abort = Duration::from_secs_f64(spec.slo_ms * 5.0 / 1e3);
        let phase = net::with_server(engine, config, |addr| {
            net::open_loop(addr, feed, connections, rate, count, Some(abort))
        });
        let (pct, tail) = stats::tail(&phase.latencies_ms());
        let growth = phase.late_growth_ms();
        let pass = phase.failures() == 0
            && !phase.aborted
            && tail <= spec.slo_ms
            && growth <= 0.25 * spec.slo_ms;
        knee.steps.push(format!(
            "{{\"rate\": {rate:.3}, \"n\": {}, \"p{pct}_ms\": {tail:.3}, \"late_growth_ms\": {growth:.3}, \"pass\": {pass}}}",
            phase.outcomes.len()
        ));
        if pass {
            lo = rate;
        } else {
            hi = rate;
        }
        knee.phases.push(phase);
    }
    knee.qps = lo;
    knee
}

/// Percent of CPU time stolen by the host since `start`, or `null`.
fn steal_pct(start: Option<(u64, u64)>) -> String {
    match (start, stats::cpu_steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.2}", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".into(),
    }
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

fn run(spec: &Spec, args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = spec.connections.min(nproc).max(1);
    let seconds = args.seconds;
    let server_config = ServerConfig::default();
    let engine_config = EngineConfig::new(spec.shards);
    let options = spec.options();
    let dir = RunDir::new(spec.name)?;
    let ckpt = dir.0.join("checkpoint");
    // Keep the cores from idling while anything is timed (see `net::Ticker`).
    let ticker = net::Ticker::start(nproc);
    let steal_at_start = stats::cpu_steal_ticks();

    // The served engine and a spare; the read-only workloads write to
    // the spare. `setup_s` is the median of these and the probe's set-ups.
    let (engine, served_s) = set_up(spec, &engine_config, &server_config)?;
    let (spare, spare_s) = set_up(spec, &engine_config, &server_config)?;
    let write_engine = match spec.writer_period_ms {
        Some(_) => {
            drop(spare);
            Arc::clone(&engine)
        }
        None => spare,
    };
    let corpus = engine.corpus();
    let stream = workload::QueryStream::new(spec, &corpus, args.seed)?;
    let hot_terms = stream.hot_terms.clone();
    let restart_query = stream.probe.clone();
    // Warm the cache with the repeated queries: users of a running server
    // do not pay for its first misses.
    for query in stream.warm_set() {
        engine
            .search(&query, &options)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let feed = Feed::new(stream, options.clone(), args.seed);
    let warm = engine.stats();
    let schedule_cycles = match spec.writer_period_ms {
        // Enough cycles for the longest run the reads can take.
        Some(period) => {
            (seconds * 3e3 / period as f64 / workload::CYCLE_OPS as f64).ceil() as usize + 1
        }
        None => SLICES * SLICE_CYCLES,
    };
    let schedule = workload::write_schedule(&corpus, &hot_terms, args.seed, schedule_cycles);

    // Reads over TCP, with the writer beside them when the workload has one.
    let nominal_rate = spec.nominal_per_conn * connections as f64;
    let stop = AtomicBool::new(false);
    let mut ping = (f64::NAN, f64::NAN);
    let mut ceiling = f64::NAN;
    let mut windows: Vec<(f64, f64)> = Vec::new();
    let mut probe = Probe {
        spec,
        config: &engine_config,
        server_config: &server_config,
        write_engine: spec.writer_period_ms.is_none().then_some(&*write_engine),
        schedule: &schedule,
        options: &options,
        restart_query: &restart_query,
        ckpt: &ckpt,
        slices_done: 0,
        setup_s: vec![served_s, spare_s],
        records: Vec::new(),
        restarts: Restarts::default(),
        error: None,
    };
    let mut between = || probe.slice();
    let (nominal, saturated, knee, live_writes) = std::thread::scope(|s| {
        let writer = spec.writer_period_ms.map(|period| {
            let (engine, schedule, stop, feed, ckpt, seed) =
                (&engine, &schedule, &stop, &feed, &ckpt, args.seed);
            s.spawn(move || {
                run_writes(
                    engine,
                    schedule,
                    Duration::from_millis(period),
                    stop,
                    feed,
                    ckpt,
                    seed,
                )
            })
        });
        let count = (nominal_rate * NOMINAL_WINDOW * seconds).round() as usize;
        let parts: Vec<Phase> = (0..NOMINAL_WINDOWS)
            .map(|_| {
                between();
                net::with_server(&engine, &server_config, |addr| {
                    net::open_loop(addr, &feed, connections, nominal_rate, count, None)
                })
            })
            .collect();
        windows = parts
            .iter()
            .map(|p| stats::tail(&p.latencies_ms()))
            .collect();
        let nominal = Phase::concat(parts);
        between();
        let saturated = net::with_server(&engine, &server_config, |addr| {
            net::closed_loop(
                addr,
                &feed,
                connections,
                Duration::from_secs_f64(0.2 * seconds),
            )
        });
        let knee = if args.trace {
            let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", server_config.clone())
                .expect("bind a loopback port");
            ping = net::ping(server.addr(), Duration::from_secs_f64(0.05 * seconds));
            net::stop(server);
            let sample = saturated.outcomes.iter().find_map(|o| o.response.clone());
            if let (Some(answer), Some(first)) = (sample, saturated.outcomes.first()) {
                let request = feed.frame_of(first.id);
                ceiling = net::generator_ceiling(
                    connections,
                    &request,
                    &answer,
                    Duration::from_secs_f64(0.05 * seconds),
                );
            }
            None
        } else {
            Some(knee_search(
                &engine,
                &server_config,
                &feed,
                spec,
                connections,
                nominal_rate,
                saturated.completed_qps(),
                seconds,
                &mut between,
            ))
        };
        // RELAXED: a stop flag; it publishes no data.
        stop.store(true, Ordering::Relaxed);
        let live_writes = writer.map(|w| w.join().expect("writer thread panicked"));
        (nominal, saturated, knee, live_writes)
    });
    let rss_peak_mb = stats::rss_peak_mb();
    let served = engine.stats();
    let searches = (served.cache_hits + served.cache_misses - warm.cache_hits - warm.cache_misses)
        .max(1) as f64;
    let live_writes = live_writes.transpose()?;

    // Check every answer against the twin; nothing is timed here, so the
    // ticker rests and leaves the cores to the check.
    drop(ticker);
    let log = feed.log();
    let mut outcomes: Vec<&Outcome> = nominal.outcomes.iter().chain(&saturated.outcomes).collect();
    if let Some(knee) = &knee {
        outcomes.extend(knee.phases.iter().flat_map(|p| &p.outcomes));
    }
    let executed: Vec<WriteOp> = live_writes
        .iter()
        .flatten()
        .map(|w| schedule[w.op].clone())
        .collect();
    let twin = Engine::new(generate(&spec.corpus), engine_config.clone());
    let mut verdict = check::check_answers(
        &twin,
        &log,
        &options,
        &outcomes,
        &executed,
        &dir.0,
        args.perturb,
    )?;
    drop(twin);

    // The probe's last slices, then a final checkpoint, the rebuild
    // oracle, and restarts from the checkpoint.
    let _ticker = net::Ticker::start(nproc);
    let (setup_s, probe_writes, mut restarts) = probe.finish()?;
    let writes = live_writes.unwrap_or(probe_writes);
    let t = Instant::now();
    let final_save = write_engine
        .save_snapshot(&ckpt)
        .map_err(|e| format!("final checkpoint: {e}"))?;
    let final_save_ms = t.elapsed().as_secs_f64() * 1e3;
    write_engine
        .verify_rebuild_equivalence()
        .map_err(|e| format!("rebuild oracle: {e}"))?;
    let final_restarts = if spec.writer_period_ms.is_some() {
        RESTARTS
    } else {
        1
    };
    for attempt in 0..final_restarts {
        // The last restart also answers the first logged queries.
        let extra = if attempt + 1 == final_restarts {
            RESTART_CHECKS
        } else {
            0
        };
        restarts.restart(
            &ckpt,
            &engine_config,
            &write_engine,
            std::iter::once(&restart_query).chain(log.iter().take(extra)),
            &options,
        )?;
    }
    verdict.failed += restarts.failed;
    if verdict.first_failure.is_none() {
        verdict.first_failure = restarts.first_failure.take();
    }

    let attempted = outcomes.len() + restarts.checks;
    let correct = verdict.failed == 0;
    if let Some(why) = &verdict.first_failure {
        eprintln!("perfbench: {}: {why}", spec.name);
    }
    let write_ms: Vec<f64> = writes
        .iter()
        .filter(|w| w.save.is_none())
        .map(|w| w.ms)
        .collect();
    let mut save_ms: Vec<f64> = writes
        .iter()
        .filter(|w| w.save.is_some())
        .map(|w| w.ms)
        .collect();
    save_ms.push(final_save_ms);
    let saves: Vec<SaveReport> = writes
        .iter()
        .filter_map(|w| w.save)
        .chain([final_save])
        .collect();

    let nominal_p50 = stats::percentile(&nominal.latencies_ms(), 50.0);
    let tail_pct = windows[0].0;
    let nominal_tail = stats::median(&windows.iter().map(|w| w.1).collect::<Vec<_>>());
    let stats_now = write_engine.stats();
    let mut info: Vec<(String, String)> = vec![
        ("workload".into(), format!("\"{}\"", spec.name)),
        ("seed".into(), args.seed.to_string()),
        // Host contention during the run: runs with a high share are
        // noisy whatever the program does.
        ("cpu_steal_pct".into(), steal_pct(steal_at_start)),
        ("git_commit".into(), format!("\"{}\"", git_commit())),
        ("nproc".into(), nproc.to_string()),
        ("server_workers".into(), nproc.to_string()),
        (
            "queue_capacity".into(),
            server_config.queue_capacity.to_string(),
        ),
        ("pull_workers".into(), engine.pull_workers().to_string()),
        ("engine_threads".into(), engine.threads().to_string()),
        ("shards".into(), spec.shards.to_string()),
        ("segments_at_end".into(), stats_now.segments.to_string()),
        (
            "cache_capacity".into(),
            engine_config.cache_capacity.to_string(),
        ),
        ("docs".into(), corpus.num_docs().to_string()),
        ("connections".into(), connections.to_string()),
        (
            "nominal".into(),
            format!(
                "\"open loop, {nominal_rate} q/s total, {} requests\"",
                nominal.outcomes.len()
            ),
        ),
        (
            "saturation".into(),
            format!(
                "\"closed loop, {connections} connections, {:.2} s\"",
                saturated.elapsed_s
            ),
        ),
        ("slo_ms".into(), spec.slo_ms.to_string()),
        ("latency_tail_percentile".into(), tail_pct.to_string()),
        (
            "latency_tail_windows_ms".into(),
            format!("{:?}", windows.iter().map(|w| w.1).collect::<Vec<_>>()),
        ),
        (
            "error_rate".into(),
            (verdict.failed as f64 / attempted as f64).to_string(),
        ),
        ("answers_checked".into(), verdict.checked.to_string()),
        (
            "writes".into(),
            format!(
                "\"{} calls, {} checkpoints, {}\"",
                write_ms.len(),
                save_ms.len(),
                if spec.writer_period_ms.is_some() {
                    "beside the reads"
                } else {
                    "on an engine of their own, between the read phases"
                }
            ),
        ),
        ("distinct_query_wraps".into(), feed.wraps().to_string()),
        (
            "stalled_shutdowns".into(),
            // RELAXED: every server of the run has been stopped.
            net::STALLED_SHUTDOWNS.load(Ordering::Relaxed).to_string(),
        ),
    ];
    if let Some(knee) = &knee {
        info.push(("knee_steps".into(), format!("[{}]", knee.steps.join(", "))));
    }

    let mut metrics = Vec::new();
    if args.trace {
        let spans =
            Path::new(".perfbench").join(format!("spans-{}-seed{}.tsv", spec.name, args.seed));
        let positions: Vec<(usize, WriteOp)> = match spec.writer_period_ms {
            Some(_) => writes
                .iter()
                .map(|w| (w.position, schedule[w.op].clone()))
                .collect(),
            None => Vec::new(),
        };
        let replay_dir = dir.0.join("replay");
        std::fs::create_dir_all(&replay_dir).map_err(|e| e.to_string())?;
        let layers = shadow::replay(
            spec,
            generate(&spec.corpus),
            &log,
            &positions,
            Duration::from_secs_f64(0.4 * seconds),
            &replay_dir,
            &spans,
        )?;
        info.push(("spans".into(), format!("\"{}\"", spans.display())));
        let by_kind = |label: &str| {
            stats::median(
                &writes
                    .iter()
                    .filter(|w| schedule[w.op].label() == label)
                    .map(|w| w.ms)
                    .collect::<Vec<_>>(),
            )
        };
        let late: Vec<f64> = stats::sorted(
            &nominal
                .outcomes
                .iter()
                .map(|o| stats::ms(o.late_ns))
                .collect::<Vec<_>>(),
        );
        metrics.extend([
            metric("transport.ping_qps", ping.0, "1/s"),
            metric("transport.ping_p50_ms", ping.1, "ms"),
            metric("transport.wait_p50_ms", nominal.transport_wait_ms(), "ms"),
            metric("transport.wait_sat_ms", saturated.transport_wait_ms(), "ms"),
            metric("server.service_p50_ms", nominal.server.service_p50_ms, "ms"),
            metric("server.service_p99_ms", nominal.server.service_p99_ms, "ms"),
            metric(
                "server.overloaded",
                (nominal.server.overloaded + saturated.server.overloaded) as f64,
                "count",
            ),
            metric(
                "server.protocol_errors",
                (nominal.server.protocol_errors + saturated.server.protocol_errors) as f64,
                "count",
            ),
            metric(
                "cache.hit_rate",
                (served.cache_hits - warm.cache_hits) as f64 / searches,
                "ratio",
            ),
            metric(
                "cache.evictions",
                (served.cache_evictions - warm.cache_evictions) as f64 / searches,
                "count",
            ),
        ]);
        metrics.extend(
            layers
                .into_iter()
                .map(|(name, value, unit)| metric(name, value, unit)),
        );
        metrics.extend([
            metric("segments.add_ms", by_kind("add"), "ms"),
            metric("segments.delete_ms", by_kind("delete"), "ms"),
            metric("segments.compact_ms", by_kind("compact"), "ms"),
            metric("persist.save_ms", stats::median(&save_ms), "ms"),
            metric(
                "persist.bytes_written",
                stats::mean(
                    &saves
                        .iter()
                        .map(|s| s.bytes_written as f64)
                        .collect::<Vec<_>>(),
                ),
                "bytes",
            ),
            metric(
                "persist.files_written",
                stats::mean(
                    &saves
                        .iter()
                        .map(|s| s.files_written as f64)
                        .collect::<Vec<_>>(),
                ),
                "count",
            ),
            metric("persist.load_ms", stats::median(&restarts.load_ms), "ms"),
            metric("gen.late_p99_ms", stats::percentile(&late, 99.0), "ms"),
            metric("gen.ceiling_qps", ceiling, "1/s"),
        ]);
    } else {
        let knee = knee.expect("untraced runs search the knee");
        metrics.extend([
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("latency_p50_ms", nominal_p50, "ms"),
            metric("latency_tail_ms", nominal_tail, "ms"),
            metric("throughput_qps", saturated.completed_qps(), "1/s"),
            metric("knee_qps", knee.qps, "1/s"),
            metric("rss_peak_mb", rss_peak_mb, "MiB"),
            metric("restart_s", stats::median(&restarts.seconds), "s"),
        ]);
    }
    let mut correct = correct;
    for m in &mut metrics {
        if !m.value.is_finite() {
            eprintln!(
                "perfbench: {}: metric {} was not measured",
                spec.name, m.name
            );
            m.value = 0.0;
            correct = false;
        }
    }
    Ok(Report {
        correct,
        attempted,
        failed: verdict.failed,
        metrics,
        info,
    })
}
