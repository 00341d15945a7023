//! The answer check: every served answer is compared with
//! `Engine::search_uncached` on a twin engine that replays the same
//! mutation calls, so an answer is judged against the exact generation
//! it was served from.

use crate::net::Outcome;
use crate::workload::WriteOp;
use divtopk_engine::proto::{Response, WireHits};
use divtopk_engine::{Engine, Query};
use divtopk_text::persist::SaveReport;
use divtopk_text::search::{SearchOptions, SearchOutput};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// An answer as the server puts it on the wire.
pub fn wire(out: &SearchOutput, generation: u64) -> WireHits {
    WireHits {
        generation,
        hits: out.hits.iter().map(|h| (h.doc, h.score.get())).collect(),
        total_score: out.total_score.get(),
        results_generated: out.metrics.results_generated,
        early_stopped: out.metrics.early_stopped,
    }
}

/// Doc ids, score bits, total-score bits and the framework counters the
/// wire carries; the generation tag is compared by the caller.
pub fn same_answer(a: &WireHits, b: &WireHits) -> bool {
    a.hits.len() == b.hits.len()
        && a.hits
            .iter()
            .zip(&b.hits)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        && a.total_score.to_bits() == b.total_score.to_bits()
        && a.results_generated == b.results_generated
        && a.early_stopped == b.early_stopped
}

/// Flips the lowest bit of the first score (or of the total): the
/// smallest change an answer can suffer.
pub fn perturb(answer: &mut WireHits) {
    match answer.hits.first_mut() {
        Some(hit) => hit.1 = f64::from_bits(hit.1.to_bits() ^ 1),
        None => answer.total_score = f64::from_bits(answer.total_score.to_bits() ^ 1),
    }
}

/// Applies one writer call to `engine`; a `Save` checkpoints into `dir`.
pub fn apply(engine: &Engine, op: &WriteOp, dir: &Path) -> Result<Option<SaveReport>, String> {
    match op {
        WriteOp::Add(docs) => {
            engine.add_docs(docs.clone());
        }
        WriteOp::Delete(docs) => {
            engine.delete_docs(docs);
        }
        WriteOp::Compact => {
            engine.compact();
        }
        WriteOp::Save => {
            return engine
                .save_snapshot(dir)
                .map(Some)
                .map_err(|e| e.to_string());
        }
    }
    Ok(None)
}

/// Result of checking a run's answers.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: usize,
    /// Requests that were refused, errored, lost, or answered wrongly.
    pub failed: usize,
    pub first_failure: Option<String>,
}

impl Verdict {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// The twin's answers to the distinct queries among `ids`, keyed by the
/// query's debug form, computed on one thread per core.
fn references(
    twin: &Engine,
    log: &[Query],
    options: &SearchOptions,
    ids: &[usize],
    generation: u64,
) -> Result<HashMap<String, WireHits>, String> {
    let mut distinct: HashMap<String, usize> = HashMap::new();
    for &id in ids {
        distinct.entry(format!("{:?}", log[id])).or_insert(id);
    }
    let work: Vec<(String, usize)> = distinct.into_iter().collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = work.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(key, id)| {
                            let out = twin.search_uncached(&log[*id], options).map_err(|e| {
                                format!("reference search for request {id} failed: {e}")
                            })?;
                            Ok((key.clone(), wire(&out, generation)))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut refs = HashMap::new();
        for h in handles {
            refs.extend(h.join().expect("reference thread panicked")?);
        }
        Ok(refs)
    })
}

/// Checks every outcome against `twin` (built like the served engine
/// and not yet mutated). `writes` are the mutation calls the served
/// engine executed, in order; the twin replays them and each answer is
/// compared at the generation it was tagged with. An answer may also
/// match the next generation: the server reads the generation tag just
/// before its search pins a snapshot, so a write can land in between.
/// With `perturb_one`, the first answer is corrupted before comparison.
pub fn check_answers(
    twin: &Engine,
    log: &[Query],
    options: &SearchOptions,
    outcomes: &[&Outcome],
    writes: &[WriteOp],
    scratch: &Path,
    perturb_one: bool,
) -> Result<Verdict, String> {
    let mut verdict = Verdict::default();
    let mut by_gen: BTreeMap<u64, Vec<(usize, WireHits)>> = BTreeMap::new();
    for o in outcomes {
        match &o.response {
            Some(Response::Hits(hits)) => {
                let mut hits = hits.clone();
                if perturb_one && verdict.checked == 0 && by_gen.is_empty() {
                    perturb(&mut hits);
                }
                by_gen
                    .entry(hits.generation)
                    .or_default()
                    .push((o.id, hits));
            }
            Some(other) => verdict.fail(format!("request {}: answered {other:?}", o.id)),
            None => verdict.fail(format!("request {}: connection lost", o.id)),
        }
    }
    let Some(&last_gen) = by_gen.keys().last() else {
        return Ok(verdict);
    };
    let mut writes = writes.iter();
    let mut retry: Vec<(usize, WireHits)> = Vec::new();
    let mut self_tested = false;
    loop {
        let generation = twin.generation();
        let bucket = by_gen.remove(&generation).unwrap_or_default();
        let ids: Vec<usize> = retry.iter().chain(&bucket).map(|(id, _)| *id).collect();
        let refs = references(twin, log, options, &ids, generation)?;
        let reference = |id: usize| &refs[&format!("{:?}", log[id])];
        let mut missed = Vec::new();
        for (id, answer) in retry.drain(..) {
            verdict.checked += 1;
            if !same_answer(&answer, reference(id)) {
                verdict.fail(format!("request {id}: answer differs from the reference at generations {} and {generation}", answer.generation));
            }
        }
        for (id, answer) in bucket {
            let want = reference(id);
            if same_answer(&answer, want) {
                verdict.checked += 1;
                if !self_tested {
                    // The check must be able to fail: a one-bit change to
                    // a matching answer has to be caught.
                    let mut bad = answer.clone();
                    perturb(&mut bad);
                    if same_answer(&bad, want) {
                        return Err("answer check self-test: a perturbed answer passed".into());
                    }
                    self_tested = true;
                }
            } else {
                missed.push((id, answer));
            }
        }
        retry = missed;
        if generation > last_gen && retry.is_empty() {
            break;
        }
        // Advance the twin to its next generation.
        let before = twin.generation();
        let mut advanced = false;
        for op in writes.by_ref() {
            if !matches!(op, WriteOp::Save) {
                apply(twin, op, scratch)?;
            }
            if twin.generation() != before {
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    for (id, answer) in retry {
        verdict.checked += 1;
        verdict.fail(format!(
            "request {id}: answer differs from the reference at generation {}",
            answer.generation
        ));
    }
    for answers in by_gen.values() {
        for (id, answer) in answers {
            verdict.fail(format!(
                "request {id}: tagged generation {} the writer never produced",
                answer.generation
            ));
        }
    }
    Ok(verdict)
}
