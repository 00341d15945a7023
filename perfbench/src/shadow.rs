//! The traced run: replays a workload's logged traffic in-process and
//! times calls into each layer's public functions.
//!
//! Per request: `proto` encode/decode on the request and answer frames,
//! `Engine::search` (a hit or a miss by the engine's own counters), and
//! on a miss a *shadow* of the engine's route assembled from public
//! pieces — per-segment sources wrapped in timing adapters, the
//! tombstone-filtered `MergedSource`, `PrefetchedSource`s on a
//! `WorkerPool` when the engine would use one, and `ExactDiversifier`
//! with a timing similarity oracle. The shadow must return exactly what
//! `Engine::search_uncached` returns, or the run fails. Fine-grained
//! calls (pulls, similarity checks) are summed per request into one span
//! per layer; a layer's self time is its span minus its children.

use crate::check::{self, wire};
use crate::stats::{mean, median};
use crate::workload::{Spec, WriteOp};
use divtopk_core::diversify::{Diversifier, ExactDiversifier, SimilarityOracle};
use divtopk_core::{
    DEFAULT_PREFETCH_DEPTH, MergedSource, PrefetchedSource, ResultSource, Scored, UnseenBound,
    WorkerPool,
};
use divtopk_engine::proto::{self, Request, Response};
use divtopk_engine::{Engine, EngineConfig, Query};
use divtopk_text::corpus::Corpus;
use divtopk_text::document::DocId;
use divtopk_text::jaccard::{similar_above, weighted_jaccard};
use divtopk_text::mode::DiversifyMode;
use divtopk_text::search::{Hit, SearchOptions, SearchOutput, WeightTable};
use divtopk_text::segments::SegmentedIndex;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-request sums of the fine-grained calls, shared with pull workers.
#[derive(Debug, Default)]
pub struct Counters {
    /// Time inside per-segment source pulls, and their count.
    pull_ns: AtomicU64,
    pulls: AtomicU64,
    /// Time the merge spent inside its inputs' pulls (the pulls
    /// themselves when sequential; waiting on prefetch queues when not).
    wait_ns: AtomicU64,
    wait_calls: AtomicU64,
    /// Time inside the merged source's pulls, and their count.
    merge_ns: AtomicU64,
    merged: AtomicU64,
    /// Results dropped by the tombstone filter.
    filtered: AtomicU64,
    /// Time inside the similarity oracle, and its calls.
    sim_ns: AtomicU64,
    sim_calls: AtomicU64,
    /// Time inside `ExactDiversifier::run`.
    run_ns: AtomicU64,
}

fn get(a: &AtomicU64) -> u64 {
    // RELAXED: read after the scope that wrote it has joined.
    a.load(Ordering::Relaxed)
}

fn add(a: &AtomicU64, v: u64) {
    // RELAXED: a statistic; it publishes no other data.
    a.fetch_add(v, Ordering::Relaxed);
}

/// A result source whose pulls are timed into a pair of counters when
/// tracing (and passed straight through when not).
struct Timed<'c, S> {
    inner: S,
    clock: Option<(&'c AtomicU64, &'c AtomicU64)>,
}

impl<S: ResultSource> ResultSource for Timed<'_, S> {
    type Item = S::Item;

    fn next_result(&mut self) -> Option<Scored<S::Item>> {
        let Some((ns, calls)) = self.clock else {
            return self.inner.next_result();
        };
        let t = Instant::now();
        let r = self.inner.next_result();
        add(ns, t.elapsed().as_nanos() as u64);
        add(calls, 1);
        r
    }

    fn unseen_bound(&self) -> UnseenBound {
        self.inner.unseen_bound()
    }
}

fn timed<'c, S>(
    inner: S,
    c: Option<&'c Counters>,
    pick: fn(&Counters) -> (&AtomicU64, &AtomicU64),
) -> Timed<'c, S> {
    Timed {
        inner,
        clock: c.map(pick),
    }
}

fn pull_clock(c: &Counters) -> (&AtomicU64, &AtomicU64) {
    (&c.pull_ns, &c.pulls)
}
fn wait_clock(c: &Counters) -> (&AtomicU64, &AtomicU64) {
    (&c.wait_ns, &c.wait_calls)
}
fn merge_clock(c: &Counters) -> (&AtomicU64, &AtomicU64) {
    (&c.merge_ns, &c.merged)
}

/// The engine's search route rebuilt from public pieces, optionally
/// traced into `c`. Mirrors `Engine::search_uncached`: validation, then
/// a pooled merge when the engine has pull workers and the index has
/// more than one segment, else a sequential one.
pub fn shadow(
    index: &SegmentedIndex,
    pool: Option<&WorkerPool>,
    query: &Query,
    options: &SearchOptions,
    c: Option<&Counters>,
) -> Result<SearchOutput, String> {
    options.validate().map_err(|e| e.to_string())?;
    let terms = match query {
        Query::Scan(t) => std::slice::from_ref(t),
        Query::Keywords(q) => q.terms.as_slice(),
    };
    index.validate_terms(terms).map_err(|e| e.to_string())?;
    let pool = pool.filter(|_| index.num_segments() > 1);
    match (query, pool) {
        (Query::Scan(t), None) => merge(
            index,
            index
                .scan_sources(*t)
                .into_iter()
                .map(|s| sequential(s, c))
                .collect(),
            true,
            options,
            c,
        ),
        (Query::Keywords(q), None) => merge(
            index,
            index
                .ta_sources(q)
                .into_iter()
                .map(|s| sequential(s, c))
                .collect(),
            false,
            options,
            c,
        ),
        (Query::Scan(t), Some(pool)) => pool.scope(|scope| {
            let inputs = index
                .scan_sources(*t)
                .into_iter()
                .map(|s| {
                    let pre = PrefetchedSource::spawn(
                        scope,
                        timed(s, c, pull_clock),
                        DEFAULT_PREFETCH_DEPTH,
                    );
                    timed(pre, c, wait_clock)
                })
                .collect();
            merge(index, inputs, true, options, c)
        }),
        (Query::Keywords(q), Some(pool)) => pool.scope(|scope| {
            let inputs = index
                .ta_sources(q)
                .into_iter()
                .map(|s| {
                    let pre = PrefetchedSource::spawn(
                        scope,
                        timed(s, c, pull_clock),
                        DEFAULT_PREFETCH_DEPTH,
                    );
                    timed(pre, c, wait_clock)
                })
                .collect();
            merge(index, inputs, false, options, c)
        }),
    }
}

/// A segment source as a sequential merge input: its pulls are both the
/// segment's work and the merge's wait.
fn sequential<S>(source: S, c: Option<&Counters>) -> Timed<'_, Timed<'_, S>> {
    timed(timed(source, c, pull_clock), c, wait_clock)
}

fn merge<S: ResultSource<Item = DocId>>(
    index: &SegmentedIndex,
    inputs: Vec<S>,
    incremental: bool,
    options: &SearchOptions,
    c: Option<&Counters>,
) -> Result<SearchOutput, String> {
    let live = |d: &DocId| {
        let live = index.is_live(*d);
        if let (false, Some(c)) = (live, c) {
            add(&c.filtered, 1);
        }
        live
    };
    // Building the merge pulls each input's first result, so it counts
    // as merge time (its pulls count as the merge's wait).
    let t = Instant::now();
    let built = |merged| {
        if let Some(c) = c {
            add(&c.merge_ns, t.elapsed().as_nanos() as u64);
        }
        timed(merged, c, merge_clock)
    };
    if incremental {
        let merged = built(MergedSource::incremental_filtered(inputs, live));
        diversify(index, merged, options, c)
    } else {
        let merged = built(MergedSource::bounding_filtered(inputs, live));
        diversify(index, merged, options, c)
    }
}

fn diversify<S: ResultSource<Item = DocId>>(
    index: &SegmentedIndex,
    source: S,
    options: &SearchOptions,
    c: Option<&Counters>,
) -> Result<SearchOutput, String> {
    let DiversifyMode::Exact(algorithm) = &options.mode else {
        return Err(format!(
            "the shadow route covers exact modes only, not {}",
            options.mode.name()
        ));
    };
    let corpus = index.corpus();
    let weights = index.weights();
    let tau = options.tau;
    let above = |a: &DocId, b: &DocId| {
        let check = || {
            similar_above(
                corpus.idf_table(),
                corpus.doc(*a),
                weights.weight(*a),
                corpus.doc(*b),
                weights.weight(*b),
                tau,
            )
        };
        let Some(c) = c else { return check() };
        let t = Instant::now();
        let r = check();
        add(&c.sim_ns, t.elapsed().as_nanos() as u64);
        add(&c.sim_calls, 1);
        r
    };
    let oracle = SimilarityOracle {
        above,
        value: |a: &DocId, b: &DocId| weighted_jaccard(corpus, corpus.doc(*a), corpus.doc(*b)),
    };
    let diversifier = ExactDiversifier {
        algorithm: algorithm.clone(),
        limits: options.limits.clone(),
        bound_decay: options.bound_decay,
    };
    let t = Instant::now();
    let out = diversifier
        .run(source, oracle, options.k)
        .map_err(|e| e.to_string())?;
    if let Some(c) = c {
        add(&c.run_ns, t.elapsed().as_nanos() as u64);
    }
    Ok(SearchOutput {
        hits: out
            .selected
            .iter()
            .map(|r| Hit {
                doc: r.item,
                score: r.score,
            })
            .collect(),
        total_score: out.total_score,
        metrics: out.framework,
        diversifier: out.diversifier,
    })
}

/// Byte identity of two search outputs: doc ids, score bits, total
/// score bits and every framework and diversifier counter.
pub fn identical(a: &SearchOutput, b: &SearchOutput) -> bool {
    a.hits.len() == b.hits.len()
        && a.hits
            .iter()
            .zip(&b.hits)
            .all(|(x, y)| x.doc == y.doc && x.score.get().to_bits() == y.score.get().to_bits())
        && a.total_score.get().to_bits() == b.total_score.get().to_bits()
        && a.metrics == b.metrics
        && a.diversifier == b.diversifier
}

/// One span: a layer's time on one request. Fine-grained layers carry
/// the summed duration of their calls and the call count.
struct Span {
    request: usize,
    parent: &'static str,
    layer: &'static str,
    start_ns: u64,
    dur_ns: u64,
    count: u64,
}

/// Everything measured about one replayed request.
#[derive(Default)]
struct Record {
    encode_request_ns: f64,
    decode_request_ns: f64,
    encode_response_ns: f64,
    decode_response_ns: f64,
    response_bytes: f64,
    search_ns: f64,
    hit: bool,
    parallel: bool,
    segments: f64,
    miss: Option<MissRecord>,
}

struct MissRecord {
    uncached_ns: f64,
    shadow_ns: f64,
    traced_ns: f64,
    pull_ns: f64,
    pulls: f64,
    filtered: f64,
    wait_ns: f64,
    merge_self_ns: f64,
    sim_ns: f64,
    sim_calls: f64,
    diversify_self_ns: f64,
    out: SearchOutput,
}

/// Applies one writer call to the shadow index (saves have no effect on
/// the read path and are skipped).
fn apply_shadow(index: &mut SegmentedIndex, op: &WriteOp) {
    match op {
        WriteOp::Add(docs) => {
            index.add_docs(docs.clone());
        }
        WriteOp::Delete(docs) => {
            index.delete_docs(docs);
        }
        WriteOp::Compact => {
            index.compact();
        }
        WriteOp::Save => {}
    }
}

/// Replays `log` (with each write applied before the request index it
/// was recorded at) for at most `budget`, and returns the per-layer
/// metrics. Fails if the shadow ever differs from `search_uncached`.
pub fn replay(
    spec: &Spec,
    corpus: Corpus,
    log: &[Query],
    writes: &[(usize, WriteOp)],
    budget: Duration,
    scratch: &Path,
    spans_out: &Path,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let options = spec.options();
    let engine = Engine::new(corpus.clone(), EngineConfig::new(spec.shards));
    let mut index = SegmentedIndex::build_partitioned(corpus, spec.shards);
    let pool = (engine.pull_workers() > 0).then(|| WorkerPool::new(engine.pull_workers()));
    let epoch = Instant::now();
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut spans: Vec<Span> = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    let mut pending = writes.iter().peekable();
    for (i, query) in log.iter().enumerate() {
        if epoch.elapsed() > budget {
            break;
        }
        while let Some((_, op)) = pending.next_if(|(at, _)| *at <= i) {
            if !matches!(op, WriteOp::Save) {
                check::apply(&engine, op, scratch)?;
                apply_shadow(&mut index, op);
            }
        }
        let request = Request::Search {
            query: query.clone(),
            k: options.k as u32,
            tau: options.tau,
            bound_decay: options.bound_decay,
            mode: options.mode.clone(),
        };
        let mut r = Record::default();
        let t0 = Instant::now();
        let payload = proto::encode_request(&request).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let decoded = proto::decode_request(&payload).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        if decoded != request {
            return Err(format!("request {i}: decode(encode(request)) differs"));
        }
        let before = engine.stats();
        let t3 = Instant::now();
        let out = engine
            .search(query, &options)
            .map_err(|e| format!("request {i}: {e}"))?;
        let t4 = Instant::now();
        let after = engine.stats();
        let response = Response::Hits(wire(&out, after.generation));
        let t5 = Instant::now();
        let frame = proto::encode_response(&response);
        let t6 = Instant::now();
        let back = proto::decode_response(&frame).map_err(|e| e.to_string())?;
        let t7 = Instant::now();
        if back != response {
            return Err(format!("request {i}: decode(encode(answer)) differs"));
        }
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as f64;
        r.encode_request_ns = ns(t0, t1);
        r.decode_request_ns = ns(t1, t2);
        r.search_ns = ns(t3, t4);
        r.encode_response_ns = ns(t5, t6);
        r.decode_response_ns = ns(t6, t7);
        r.response_bytes = frame.len() as f64;
        r.hit = after.cache_hits > before.cache_hits;
        r.parallel = after.parallel_pulls > before.parallel_pulls;
        r.segments = after.segments as f64;
        for (layer, a, b) in [
            ("proto.encode_request", t0, t1),
            ("proto.decode_request", t1, t2),
            ("engine.search", t3, t4),
            ("proto.encode_response", t5, t6),
            ("proto.decode_response", t6, t7),
        ] {
            spans.push(Span {
                request: i,
                parent: "request",
                layer,
                start_ns: since(a),
                dur_ns: ns(a, b) as u64,
                count: 1,
            });
        }
        if !r.hit {
            r.miss = Some(shadow_miss(
                i,
                &engine,
                &index,
                pool.as_ref(),
                query,
                &options,
                &mut spans,
                &since,
            )?);
        }
        records.push(r);
    }
    let replayed = records.len();
    // Hit cost needs hits: where the traffic has few (cold_ta has none by
    // construction), re-ask up to 64 replayed queries, which now hit.
    let natural_hits = records.iter().filter(|r| r.hit).count();
    let mut hit_ns: Vec<f64> = records
        .iter()
        .filter(|r| r.hit)
        .map(|r| r.search_ns)
        .collect();
    if natural_hits < 32 {
        for query in log[..replayed].iter().take(64) {
            let t = Instant::now();
            engine.search(query, &options).map_err(|e| e.to_string())?;
            hit_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    write_spans(spans_out, &spans)?;
    Ok(layer_metrics(&records, &hit_ns))
}

#[allow(clippy::too_many_arguments)]
fn shadow_miss(
    i: usize,
    engine: &Engine,
    index: &SegmentedIndex,
    pool: Option<&WorkerPool>,
    query: &Query,
    options: &SearchOptions,
    spans: &mut Vec<Span>,
    since: &dyn Fn(Instant) -> u64,
) -> Result<MissRecord, String> {
    let c = Counters::default();
    let (mut uncached, mut plain, mut traced) = (None, None, None);
    let (mut uncached_ns, mut shadow_ns, mut traced_ns) = (0.0, 0.0, 0.0);
    let mut traced_at = 0;
    // Rotate the order of the three runs so that no one of them always
    // finds the caches warmed by the others.
    for step in 0..3 {
        let t = Instant::now();
        match (step + i) % 3 {
            0 => {
                uncached = Some(
                    engine
                        .search_uncached(query, options)
                        .map_err(|e| e.to_string())?,
                );
                uncached_ns = t.elapsed().as_nanos() as f64;
            }
            1 => {
                plain = Some(shadow(index, pool, query, options, None)?);
                shadow_ns = t.elapsed().as_nanos() as f64;
            }
            _ => {
                traced_at = since(t);
                traced = Some(shadow(index, pool, query, options, Some(&c))?);
                traced_ns = t.elapsed().as_nanos() as f64;
            }
        }
    }
    let (uncached, plain, traced) = (
        uncached.expect("ran above"),
        plain.expect("ran above"),
        traced.expect("ran above"),
    );
    if !identical(&plain, &uncached) || !identical(&traced, &uncached) {
        return Err(format!(
            "request {i}: shadow route differs from Engine::search_uncached for {query:?}"
        ));
    }
    let run = get(&c.run_ns);
    let merge_total = get(&c.merge_ns);
    let wait = get(&c.wait_ns);
    let sim = get(&c.sim_ns);
    for (parent, layer, dur_ns, count) in [
        ("request", "shadow", traced_ns as u64, 1),
        ("shadow", "diversify", run, 1),
        ("diversify", "merge", merge_total, get(&c.merged)),
        ("merge", "merge.wait", wait, get(&c.wait_calls)),
        (
            "merge.wait",
            "segments.pull",
            get(&c.pull_ns),
            get(&c.pulls),
        ),
        ("diversify", "jaccard", sim, get(&c.sim_calls)),
    ] {
        spans.push(Span {
            request: i,
            parent,
            layer,
            start_ns: traced_at,
            dur_ns,
            count,
        });
    }
    Ok(MissRecord {
        uncached_ns,
        shadow_ns,
        traced_ns,
        pull_ns: get(&c.pull_ns) as f64,
        pulls: get(&c.pulls) as f64,
        filtered: get(&c.filtered) as f64,
        wait_ns: wait as f64,
        merge_self_ns: merge_total.saturating_sub(wait) as f64,
        sim_ns: sim as f64,
        sim_calls: get(&c.sim_calls) as f64,
        diversify_self_ns: run.saturating_sub(merge_total + sim) as f64,
        out: traced,
    })
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::from("request\tparent\tlayer\tstart_ns\tdur_ns\tcount\n");
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            s.request, s.parent, s.layer, s.start_ns, s.dur_ns, s.count
        ));
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn layer_metrics(records: &[Record], hit_ns: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let all = |f: fn(&Record) -> f64| records.iter().map(f).collect::<Vec<f64>>();
    let misses: Vec<&MissRecord> = records.iter().filter_map(|r| r.miss.as_ref()).collect();
    let miss = |f: fn(&MissRecord) -> f64| misses.iter().map(|m| f(m)).collect::<Vec<f64>>();
    let fw = |f: fn(&SearchOutput) -> u64| {
        misses
            .iter()
            .map(|m| f(&m.out) as f64)
            .collect::<Vec<f64>>()
    };
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    vec![
        (
            "proto.encode_request_ns",
            median(&all(|r| r.encode_request_ns)),
            "ns",
        ),
        (
            "proto.decode_request_ns",
            median(&all(|r| r.decode_request_ns)),
            "ns",
        ),
        (
            "proto.encode_response_ns",
            median(&all(|r| r.encode_response_ns)),
            "ns",
        ),
        (
            "proto.decode_response_ns",
            median(&all(|r| r.decode_response_ns)),
            "ns",
        ),
        (
            "proto.response_bytes",
            mean(&all(|r| r.response_bytes)),
            "bytes",
        ),
        ("engine.search_hit_ns", median(hit_ns), "ns"),
        (
            "engine.search_miss_ns",
            median(
                &records
                    .iter()
                    .filter(|r| !r.hit)
                    .map(|r| r.search_ns)
                    .collect::<Vec<_>>(),
            ),
            "ns",
        ),
        (
            "engine.parallel_pull_share",
            records.iter().filter(|r| r.parallel).count() as f64 / misses.len().max(1) as f64,
            "ratio",
        ),
        ("segments.count", mean(&all(|r| r.segments)), "count"),
        ("segments.pull_ns", median(&miss(|m| m.pull_ns)), "ns"),
        ("segments.pulls", mean(&miss(|m| m.pulls)), "count"),
        ("segments.filtered", mean(&miss(|m| m.filtered)), "count"),
        ("merge.self_ns", median(&miss(|m| m.merge_self_ns)), "ns"),
        ("merge.wait_ns", median(&miss(|m| m.wait_ns)), "ns"),
        (
            "merge.useful_ratio",
            sum(fw(|o| o.metrics.results_generated)) / sum(miss(|m| m.pulls)).max(1.0),
            "ratio",
        ),
        ("jaccard.self_ns", median(&miss(|m| m.sim_ns)), "ns"),
        ("jaccard.calls", mean(&miss(|m| m.sim_calls)), "count"),
        (
            "jaccard.edge_ratio",
            sum(fw(|o| o.metrics.edges)) / sum(fw(|o| o.metrics.similarity_checks)).max(1.0),
            "ratio",
        ),
        (
            "diversify.self_ns",
            median(&miss(|m| m.diversify_self_ns)),
            "ns",
        ),
        (
            "framework.results_generated",
            mean(&fw(|o| o.metrics.results_generated)),
            "count",
        ),
        (
            "framework.inner_searches",
            mean(&fw(|o| o.metrics.inner_searches)),
            "count",
        ),
        (
            "framework.early_stop_rate",
            mean(&fw(|o| o.metrics.early_stopped as u64)),
            "ratio",
        ),
        (
            "inner.expansions",
            mean(&fw(|o| o.metrics.search.expansions)),
            "count",
        ),
        (
            "inner.astar_calls",
            mean(&fw(|o| o.metrics.search.astar_calls)),
            "count",
        ),
        (
            "inner.plus_ops",
            mean(&fw(|o| o.metrics.search.plus_ops)),
            "count",
        ),
        (
            "inner.otimes_ops",
            mean(&fw(|o| o.metrics.search.otimes_ops)),
            "count",
        ),
        (
            "inner.compressed_nodes",
            mean(&fw(|o| o.metrics.search.compressed_nodes)),
            "count",
        ),
        (
            "trace.shadow_ratio",
            sum(miss(|m| m.shadow_ns)) / sum(miss(|m| m.uncached_ns)),
            "ratio",
        ),
        (
            "trace.overhead",
            sum(miss(|m| m.traced_ns)) / sum(miss(|m| m.shadow_ns)),
            "ratio",
        ),
    ]
}
