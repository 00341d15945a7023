//! The three workloads: corpus fixture, seeded query stream, and the
//! fixed schedule of engine mutation calls.
//!
//! Each corpus is a fixed fixture (its own constant seed), so set-up
//! cost and index shape do not move with `--seed`; the seed drives the
//! traffic — which queries are drawn, in what order, and which documents
//! the writer copies and deletes.

use divtopk_core::ExactAlgorithm;
use divtopk_core::rng::Pcg;
use divtopk_engine::Query;
use divtopk_text::corpus::Corpus;
use divtopk_text::document::{DocId, Document, TermId};
use divtopk_text::mode::DiversifyMode;
use divtopk_text::query::{KeywordQuery, kfreq_band};
use divtopk_text::search::SearchOptions;
use divtopk_text::synth::SynthConfig;

/// Which traffic a workload draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf repeats from a small distinct pool: mostly cache hits.
    HotMix,
    /// Every query a distinct two-term TA query: the cache never hits.
    ColdTa,
    /// Scan-heavy Zipf reads beside a writer on a segmented index.
    LiveScan,
}

/// One workload's fixed configuration.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub corpus: SynthConfig,
    /// Base segments the corpus is partitioned into.
    pub shards: usize,
    /// Sender connections (capped at the machine's core count).
    pub connections: usize,
    /// Nominal open-loop rate per connection, requests per second.
    pub nominal_per_conn: f64,
    /// Latency limit on the tail percentile, milliseconds.
    pub slo_ms: f64,
    pub k: usize,
    pub tau: f64,
    /// Milliseconds between writer calls when writes run beside reads;
    /// `None` runs the same calls on an engine of their own instead, a
    /// slice at a time between the read phases.
    pub writer_period_ms: Option<u64>,
}

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["hot_mix", "cold_ta", "live_scan"];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "hot_mix" => Spec {
                name: "hot_mix",
                kind: Kind::HotMix,
                corpus: SynthConfig::reuters_like().with_num_docs(4_000),
                shards: 1,
                connections: 2,
                nominal_per_conn: 10.0,
                slo_ms: 100.0,
                k: 10,
                tau: 0.5,
                writer_period_ms: None,
            },
            "cold_ta" => Spec {
                name: "cold_ta",
                kind: Kind::ColdTa,
                corpus: SynthConfig::enwiki_like().with_num_docs(4_000),
                shards: 1,
                connections: 2,
                nominal_per_conn: 5.0,
                slo_ms: 150.0,
                k: 10,
                tau: 0.5,
                writer_period_ms: None,
            },
            "live_scan" => Spec {
                name: "live_scan",
                kind: Kind::LiveScan,
                corpus: SynthConfig::reuters_like(),
                shards: 8,
                connections: 1,
                nominal_per_conn: 10.0,
                slo_ms: 100.0,
                k: 10,
                tau: 0.5,
                writer_period_ms: Some(100),
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Search options every request of the workload carries.
    pub fn options(&self) -> SearchOptions {
        SearchOptions::new(self.k)
            .with_tau(self.tau)
            .with_mode(DiversifyMode::Exact(ExactAlgorithm::Cut))
    }
}

/// Zipf CDF over `n` ranks with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            acc
        })
        .collect()
}

/// `n` distinct terms drawn from `eligible`.
fn draw_terms(rng: &mut Pcg, eligible: &[TermId], n: usize) -> Vec<TermId> {
    let mut pool = eligible.to_vec();
    rng.shuffle(&mut pool);
    pool.truncate(n);
    pool
}

fn pairs_from(rng: &mut Pcg, terms: &[TermId], n: usize) -> Vec<Query> {
    (0..n)
        .map(|_| {
            let a = terms[rng.below(terms.len() as u32) as usize];
            let mut b = terms[rng.below(terms.len() as u32) as usize];
            while b == a {
                b = terms[rng.below(terms.len() as u32) as usize];
            }
            Query::Keywords(KeywordQuery { terms: vec![a, b] })
        })
        .collect()
}

/// The seeded, endless query stream of one workload.
pub struct QueryStream {
    kind: Kind,
    rng: Pcg,
    scans: Vec<Query>,
    scan_cdf: Vec<f64>,
    pairs: Vec<Query>,
    pair_cdf: Vec<f64>,
    /// `cold_ta`'s distinct queries and the next one to hand out.
    next_distinct: usize,
    /// Times `cold_ta` ran out of distinct queries and started over.
    pub wraps: usize,
    /// Terms the stream reads most (the writer's victims match them).
    pub hot_terms: Vec<TermId>,
    /// A query fixed for the workload, whatever the seed (the restart
    /// probe, so restart time does not depend on which query it asks).
    pub probe: Query,
}

impl QueryStream {
    /// The pools (which terms and pairs, and their Zipf ranks) are fixed
    /// for a workload; `seed` drives the draws from them.
    pub fn new(spec: &Spec, corpus: &Corpus, seed: u64) -> Result<QueryStream, String> {
        let mut rng = Pcg::new(seed ^ 0x7065_7266_6265_6e63);
        let mut fixed = Pcg::new(0x706f_6f6c);
        let terms = 0..corpus.num_terms() as TermId;
        let with_df = |min: u32| -> Vec<TermId> {
            terms
                .clone()
                .filter(|&t| corpus.doc_freq(t) >= min)
                .collect()
        };
        let mut stream = QueryStream {
            kind: spec.kind,
            rng: Pcg::new(0),
            scans: Vec::new(),
            scan_cdf: Vec::new(),
            pairs: Vec::new(),
            pair_cdf: Vec::new(),
            next_distinct: 0,
            wraps: 0,
            hot_terms: Vec::new(),
            probe: Query::Scan(0),
        };
        match spec.kind {
            Kind::HotMix => {
                let eligible = with_df(8);
                let hot = draw_terms(&mut fixed, &eligible, 24);
                stream.pairs = pairs_from(&mut fixed, &eligible, 12);
                stream.scans = hot.iter().map(|&t| Query::Scan(t)).collect();
                stream.hot_terms = hot;
            }
            Kind::ColdTa => {
                // The corpus has only a handful of band 2-3 terms, so each
                // query pairs one of them with a mid-frequency term (df at
                // least π/20): several hundred distinct queries of the
                // same cost class.
                let pi = corpus.max_doc_freq();
                let banded: Vec<TermId> = terms
                    .clone()
                    .filter(|&t| matches!(kfreq_band(corpus.doc_freq(t), pi), Some(2 | 3)))
                    .collect();
                let mid = with_df(pi / 20);
                for &a in &banded {
                    for &b in mid
                        .iter()
                        .filter(|&&b| b != a && !(banded.contains(&b) && b < a))
                    {
                        stream
                            .pairs
                            .push(Query::Keywords(KeywordQuery { terms: vec![a, b] }));
                    }
                }
                if stream.pairs.len() < 200 {
                    return Err(format!(
                        "cold_ta: only {} distinct queries",
                        stream.pairs.len()
                    ));
                }
                // A fixed order, with the seed permuting only within blocks
                // of 64: every seed sends nearly the same queries in each
                // phase, so phase statistics do not hinge on which costly
                // queries a seed happened to draw.
                fixed.shuffle(&mut stream.pairs);
                stream.probe = stream.pairs[0].clone();
                for block in stream.pairs.chunks_mut(64) {
                    rng.shuffle(block);
                }
                stream.hot_terms = banded;
            }
            Kind::LiveScan => {
                let eligible = with_df(20);
                let hot = draw_terms(&mut fixed, &eligible, 64);
                stream.pairs = pairs_from(&mut fixed, &eligible, 8);
                stream.scans = hot.iter().map(|&t| Query::Scan(t)).collect();
                stream.hot_terms = hot[..8].to_vec();
            }
        }
        if spec.kind != Kind::ColdTa {
            stream.probe = stream.scans[0].clone();
        }
        stream.scan_cdf = zipf_cdf(stream.scans.len(), 1.1);
        stream.pair_cdf = zipf_cdf(stream.pairs.len(), 1.1);
        stream.rng = rng;
        Ok(stream)
    }

    /// The repeated queries, which a warm-up puts in the cache before
    /// timing starts (`cold_ta` has none: it never repeats a query).
    pub fn warm_set(&self) -> Vec<Query> {
        match self.kind {
            Kind::ColdTa => Vec::new(),
            Kind::HotMix | Kind::LiveScan => {
                self.scans.iter().chain(&self.pairs).cloned().collect()
            }
        }
    }

    pub fn next_query(&mut self) -> Query {
        let rng = &mut self.rng;
        match self.kind {
            Kind::HotMix => {
                if rng.chance(0.7) {
                    self.scans[rng.sample_cdf(&self.scan_cdf)].clone()
                } else {
                    self.pairs[rng.sample_cdf(&self.pair_cdf)].clone()
                }
            }
            Kind::ColdTa => {
                if self.next_distinct == self.pairs.len() {
                    self.next_distinct = 0;
                    self.wraps += 1;
                }
                self.next_distinct += 1;
                self.pairs[self.next_distinct - 1].clone()
            }
            Kind::LiveScan => {
                if rng.chance(0.9) {
                    self.scans[rng.sample_cdf(&self.scan_cdf)].clone()
                } else {
                    self.pairs[rng.sample_cdf(&self.pair_cdf)].clone()
                }
            }
        }
    }
}

/// One engine mutation call of the writer schedule.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Near-duplicate copies of documents that match hot terms.
    Add(Vec<Document>),
    /// A delete storm over documents that match hot terms.
    Delete(Vec<DocId>),
    Compact,
    /// `Engine::save_snapshot` into the run's checkpoint directory.
    Save,
}

impl WriteOp {
    pub fn label(&self) -> &'static str {
        match self {
            WriteOp::Add(_) => "add",
            WriteOp::Delete(_) => "delete",
            WriteOp::Compact => "compact",
            WriteOp::Save => "save",
        }
    }
}

/// Calls in one cycle of the writer schedule; each cycle ends with a save.
pub const CYCLE_OPS: usize = 6;
/// Near-duplicate copies added per `Add` call.
const ADD_BATCH: usize = 8;
/// Documents tombstoned per `Delete` call.
const DELETE_BATCH: usize = 16;

/// The writer schedule: `cycles` repetitions of add, delete, add,
/// delete, compact, save, with victims drawn from documents that contain
/// the stream's hot terms.
pub fn write_schedule(
    corpus: &Corpus,
    hot_terms: &[TermId],
    seed: u64,
    cycles: usize,
) -> Vec<WriteOp> {
    let mut rng = Pcg::new(seed ^ 0x7772_6974_6572);
    let hot_docs: Vec<DocId> = corpus
        .docs()
        .enumerate()
        .filter(|(_, d)| hot_terms.iter().any(|&t| d.contains(t)))
        .map(|(i, _)| i as DocId)
        .collect();
    let pick = |rng: &mut Pcg| hot_docs[rng.below(hot_docs.len() as u32) as usize];
    let mut ops = Vec::with_capacity(cycles * CYCLE_OPS);
    for _ in 0..cycles {
        for _ in 0..2 {
            let copies = (0..ADD_BATCH)
                .map(|i| {
                    let source = corpus.doc(pick(&mut rng));
                    let mut tokens: Vec<TermId> = source
                        .terms
                        .iter()
                        .flat_map(|&(t, tf)| std::iter::repeat_n(t, tf as usize))
                        .collect();
                    // One token swapped for another of the same document:
                    // a near duplicate, not an exact copy.
                    let at = rng.below(tokens.len() as u32) as usize;
                    tokens[at] = tokens[rng.below(tokens.len() as u32) as usize];
                    Document::from_tokens(format!("{} (copy {i})", source.title), tokens)
                })
                .collect();
            ops.push(WriteOp::Add(copies));
            ops.push(WriteOp::Delete(
                (0..DELETE_BATCH).map(|_| pick(&mut rng)).collect(),
            ));
        }
        ops.push(WriteOp::Compact);
        ops.push(WriteOp::Save);
    }
    ops
}
