//! # divtopk-text — text-search substrate for diversified top-k
//!
//! Everything the evaluation of *Diversifying Top-K Results* (VLDB 2012)
//! needs around the core algorithms: a tokenizer and stop-word list, an
//! in-memory corpus with IDF statistics, an inverted index, Eq. 3's
//! length-normalized TF·IDF scoring, Eq. 4's weighted Jaccard similarity,
//! the two §8 result sources (threshold algorithm for multi-keyword
//! queries; posting-list scan for single keywords), deterministic synthetic
//! corpora standing in for enwiki/reuters (see `DESIGN.md` §3 for why the
//! substitution preserves the evaluation's shape), kfreq query banding
//! (Fig. 12), and the [`search::DiversifiedSearcher`] glue.
//!
//! ```
//! use divtopk_text::prelude::*;
//!
//! // Build a small corpus, index it, run a diversified search.
//! let mut builder = Corpus::builder();
//! builder.add_text("a1", "rust memory safety borrow checker");
//! builder.add_text("a2", "rust memory safety borrow checker ownership");
//! builder.add_text("a3", "rust web framework async");
//! builder.add_text("a4", "gardening tips tomato");
//! for i in 0..6 {
//!     // Filler documents keep idf("rust") > 0 in this tiny corpus.
//!     builder.add_text(&format!("f{i}"), "unrelated filler text");
//! }
//! let corpus = builder.build();
//! let index = InvertedIndex::build(&corpus);
//! let searcher = DiversifiedSearcher::new(&corpus, &index);
//!
//! let rust = corpus.term_id("rust").unwrap();
//! let out = searcher
//!     .search_scan(rust, &SearchOptions::new(2).with_tau(0.5))
//!     .unwrap();
//! // a1 and a2 are near-duplicates: only one of them may appear.
//! assert_eq!(out.hits.len(), 2);
//! ```

// This crate is pure safe Rust; keep it that way. The workspace's only
// unsafe lives in divtopk-core's scoped pool and the bench allocator,
// each behind a SAFETY argument checked by divtopk-lint.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod chunked;
pub mod corpus;
pub mod document;
pub mod index;
pub mod jaccard;
pub mod mode;
pub mod persist;
pub mod quality;
pub mod query;
pub mod scan;
pub mod search;
pub mod segments;
pub mod stopwords;
pub mod synth;
pub mod ta;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

/// One-stop imports.
pub mod prelude {
    pub use crate::chunked::{CHUNK, ChunkedVec};
    pub use crate::corpus::{Corpus, CorpusBuilder};
    pub use crate::document::{DocId, Document, TermId};
    pub use crate::index::{InvertedIndex, Posting};
    pub use crate::jaccard::{
        similar_above, total_weight, weighted_jaccard, weighted_jaccard_with,
    };
    pub use crate::mode::{DiversifyMode, KnnConfig, WindowConfig};
    pub use crate::persist::SnapshotError;
    pub use crate::quality::{diversified_score, redundancy};
    pub use crate::query::{KeywordQuery, kfreq_band, query_for_band, representative_terms};
    pub use crate::scan::ScanSource;
    pub use crate::search::{
        DiversifiedSearcher, Hit, SearchOptions, SearchOutput, WeightTable, doc_weights,
        search_with_source, validate_terms,
    };
    pub use crate::segments::{Segment, SegmentedIndex, Tombstones};
    pub use crate::synth::{SynthConfig, generate, generate_labeled};
    pub use crate::ta::TaSource;
    pub use crate::tfidf::{partial_score, score};
    pub use crate::tokenize::tokenize;
}

pub use prelude::*;

#[cfg(test)]
mod mmr {
    // MMR over document-id pools with a caller-supplied similarity, run
    // through the one implementation, `divtopk_core::diversify::mmr_select`,
    // the way `figures` and `baseline_comparison` call it.
    mod tests {
        use divtopk_core::diversify::mmr_select;
        use divtopk_core::{Score, Scored};

        fn scored(items: &[(u32, f64)]) -> Vec<Scored<u32>> {
            items
                .iter()
                .map(|&(id, s)| Scored::new(id, Score::new(s)))
                .collect()
        }

        fn ids(pool: &[Scored<u32>], order: &[usize]) -> Vec<u32> {
            order.iter().map(|&i| pool[i].item).collect()
        }

        #[test]
        fn pure_relevance_is_plain_topk() {
            let pool = scored(&[(1, 9.0), (2, 7.0), (0, 5.0), (3, 1.0)]);
            let order = mmr_select(&pool, |_, _| 1.0, 1.0, 2);
            assert_eq!(ids(&pool, &order), vec![1, 2]);
        }

        #[test]
        fn redundancy_penalty_demotes_duplicates() {
            // 0 and 1 are near-duplicates; 2 is distinct with a lower score.
            let pool = scored(&[(0, 10.0), (1, 9.9), (2, 6.0)]);
            let sim = |a: &u32, b: &u32| {
                if (*a, *b) == (0, 1) || (*a, *b) == (1, 0) {
                    0.95
                } else {
                    0.0
                }
            };
            let order = mmr_select(&pool, sim, 0.5, 2);
            assert_eq!(
                ids(&pool, &order),
                vec![0, 2],
                "the duplicate must lose to the distinct doc"
            );
        }

        #[test]
        fn mmr_does_not_exclude_duplicates_when_k_is_large() {
            // The key semantic difference from Definition 1: with room left,
            // MMR still emits the near-duplicate.
            let pool = scored(&[(0, 10.0), (1, 9.9), (2, 6.0)]);
            let sim = |a: &u32, b: &u32| if *a != *b && *a + *b == 1 { 0.95 } else { 0.0 };
            let order = mmr_select(&pool, sim, 0.5, 3);
            assert_eq!(order.len(), 3, "MMR penalizes but never drops");
            assert_eq!(ids(&pool, &order), vec![0, 2, 1]);
        }

        #[test]
        fn deterministic_tie_break() {
            let pool = scored(&[(0, 5.0), (1, 5.0), (2, 5.0)]);
            let a = mmr_select(&pool, |_, _| 0.0, 0.7, 2);
            let b = mmr_select(&pool, |_, _| 0.0, 0.7, 2);
            assert_eq!(a, b);
            // Utility ties go to the better relevance rank.
            assert_eq!(ids(&pool, &a), vec![0, 1]);
        }
    }
}
