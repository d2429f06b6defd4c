//! Seeded input generators. The seed is a CLI argument; the program
//! under test only ever receives what these functions return.
//!
//! Two properties hold for every corpus and are unit-tested below: the
//! same seed gives byte-identical inputs, and no two documents of one
//! corpus share their text. The second matters because identical texts
//! intern to one `DocId` and share IE-memo entries, so an un-perturbed
//! template corpus of thousands collapses to a few dozen documents.
//!
//! Sizes are the same for every seed (document count, the multiset of
//! document lengths, the number of planted matches, the request mix):
//! the seed decides *which* document is long and *what* it says, never
//! *how much* work a run has. That is what lets runs on different
//! seeds agree within the benchmark's bounds.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spannerlib_covid::corpus::{generate_corpus, CorpusDoc};

/// `n` clinical notes from the covid template generator, each made
/// unique by a benign trailing sentence carrying the seed and index
/// (the `parallel_smoke::scaled_corpus` trick, generalised). `first`
/// offsets the index so successive batches stay disjoint.
pub fn covid_notes(n: usize, first: usize, seed: u64) -> Vec<CorpusDoc> {
    // A different stream per batch start, or every batch would repeat
    // the first one's templates.
    let stream = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ first as u64;
    generate_corpus(n, stream)
        .into_iter()
        .enumerate()
        .map(|(i, mut doc)| {
            let k = first + i;
            doc.id = format!("note_{k:06}");
            doc.text = format!("{}Visit record v{seed}x{k} filed.\n", doc.text);
            doc
        })
        .collect()
}

/// What the generator planted in one extraction document: byte spans
/// of e-mail addresses and ISO dates, and the words after `error: `.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Planted {
    /// `(start, end)` of every e-mail address.
    pub emails: Vec<(usize, usize)>,
    /// `(start, end)` of every ISO date (the date, not its `due ` cue).
    pub dates: Vec<(usize, usize)>,
    /// The word following each `error: ` cue, in order of appearance.
    pub errors: Vec<String>,
}

/// One extraction document with its ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractDoc {
    /// Unique id (`doc_000017`).
    pub id: String,
    /// The text handed to the program.
    pub text: String,
    /// Ground truth, known because the generator put it there.
    pub planted: Planted,
}

/// Filler vocabulary: lowercase, no digits, no `@`. `error`, `overdue`
/// and `fatality` are decoys — they contain a rule's literal prefix
/// without completing it, so a prefilter still has candidates to
/// reject.
const VOCAB: &[&str] = &[
    "lorem",
    "ipsum",
    "dolor",
    "sit",
    "amet",
    "consectetur",
    "adipiscing",
    "elit",
    "sed",
    "tempor",
    "incididunt",
    "labore",
    "magna",
    "aliqua",
    "veniam",
    "nostrud",
    "ullamco",
    "laboris",
    "nisi",
    "aliquip",
    "commodo",
    "consequat",
    "duis",
    "aute",
    "irure",
    "voluptate",
    "velit",
    "esse",
    "cillum",
    "fugiat",
    "nulla",
    "pariatur",
    "error",
    "overdue",
    "fatality",
    "server",
    "request",
    "handler",
    "queue",
    "retry",
];

const ERROR_WORDS: &[&str] = &[
    "timeout",
    "refused",
    "overflow",
    "denied",
    "corrupt",
    "missing",
    "expired",
    "aborted",
    "locked",
    "stale",
    "truncated",
    "unreachable",
];

const USERS: &[&str] = &["ann", "bob", "carol", "dave", "eve", "frank", "grace"];
const DOMAINS: &[&str] = &["gmail", "work", "mail", "example", "corp"];

/// One planted item per this many words.
const PLANT_EVERY: usize = 40;

/// Word counts of an extraction corpus of `n` documents: the rank-size
/// form of Zipf's law, `max_words / rank^0.6`, floored at `min_words`.
/// Deterministic — the seed only decides which document gets which
/// length.
pub fn zipf_lengths(n: usize, min_words: usize, max_words: usize) -> Vec<usize> {
    (1..=n)
        .map(|rank| ((max_words as f64 / (rank as f64).powf(0.6)) as usize).max(min_words))
        .collect()
}

/// `n` e-mail/log documents with zipfian lengths between `min_words`
/// and `max_words`, each ending in a unique marker, with one planted
/// item (e-mail, `error: <word>`, or `due <ISO date>`) per
/// [`PLANT_EVERY`] words.
pub fn extract_docs(n: usize, min_words: usize, max_words: usize, seed: u64) -> Vec<ExtractDoc> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lengths = zipf_lengths(n, min_words, max_words);
    lengths.shuffle(&mut rng);
    lengths
        .into_iter()
        .enumerate()
        .map(|(i, words)| extract_doc(i, words, seed, &mut rng))
        .collect()
}

fn extract_doc(index: usize, words: usize, seed: u64, rng: &mut StdRng) -> ExtractDoc {
    let mut text = String::with_capacity(words * 8);
    let mut planted = Planted::default();
    let mut plant_at = 0;
    for w in 0..words {
        if w > 0 {
            text.push(' ');
        }
        // One plant per block of PLANT_EVERY words, at a random offset.
        if w % PLANT_EVERY == 0 {
            plant_at = rng.gen_range(0..PLANT_EVERY);
        }
        if w % PLANT_EVERY != plant_at {
            text.push_str(VOCAB.choose(rng).expect("vocabulary is non-empty"));
            continue;
        }
        match rng.gen_range(0..3) {
            0 => {
                let start = text.len();
                text.push_str(&format!(
                    "{}{}@{}.com",
                    USERS.choose(rng).expect("non-empty"),
                    rng.gen_range(0..1000),
                    DOMAINS.choose(rng).expect("non-empty"),
                ));
                planted.emails.push((start, text.len()));
            }
            1 => {
                let word = ERROR_WORDS.choose(rng).expect("non-empty");
                text.push_str("error: ");
                text.push_str(word);
                planted.errors.push((*word).to_string());
            }
            _ => {
                text.push_str("due ");
                let start = text.len();
                text.push_str(&format!(
                    "{:04}-{:02}-{:02}",
                    rng.gen_range(2000..2030),
                    rng.gen_range(1..13),
                    rng.gen_range(1..29),
                ));
                planted.dates.push((start, text.len()));
            }
        }
    }
    // The marker is what makes the text unique; it holds no `@`, no
    // dash and no cue word, so it plants nothing.
    text.push_str(&format!(" marker mk{seed}x{index} filed"));
    ExtractDoc {
        id: format!("doc_{index:06}"),
        text,
        planted,
    }
}

/// The seeded request mix of `serve_read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Ad-hoc `?Evidence("<id>", m, e)` for the document at this index.
    Point(usize),
    /// Prepared `?Status(d, "positive")`.
    Filtered,
    /// Prepared `?Status(d, s)` — the whole relation.
    Full,
}

/// A fixed sequence of `n` requests over `docs` documents: exactly
/// 60 % point lookups (document chosen zipfian, rank 1 most popular),
/// 25 % filtered scans and 15 % full scans, in seeded order.
pub fn read_mix(n: usize, docs: usize, seed: u64) -> Vec<ReadKind> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f1e);
    // Popularity rank → document index.
    let mut by_rank: Vec<usize> = (0..docs).collect();
    by_rank.shuffle(&mut rng);
    // Cumulative 1/rank weights for inverse-CDF sampling.
    let mut cumulative = Vec::with_capacity(docs);
    let mut total = 0.0f64;
    for rank in 1..=docs {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    let full = n * 15 / 100;
    let filtered = n * 25 / 100;
    let mut mix = Vec::with_capacity(n);
    mix.resize(full, ReadKind::Full);
    mix.resize(full + filtered, ReadKind::Filtered);
    while mix.len() < n {
        let u: f64 = rng.gen::<f64>() * total;
        let rank = cumulative.partition_point(|&c| c < u).min(docs - 1);
        mix.push(ReadKind::Point(by_rank[rank]));
    }
    mix.shuffle(&mut rng);
    mix
}

/// Seed of the one random graph shape `tc_join` uses.
const GRAPH_SHAPE_SEED: u64 = 7;

/// The `tc_join` graph: `random_graph(nodes, edges, 7)` with its nodes
/// relabelled and its edges reordered by the seed. Independently drawn
/// graphs of this density differ by ±10 % in `Path` tuples and ±25 %
/// in evaluation time (their giant component varies), which no bound
/// could hold across seeds; isomorphic copies derive exactly the same
/// number of tuples in the same number of rounds while still handing
/// the engine different keys in a different order.
pub fn graph(nodes: usize, edges: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut label: Vec<i64> = (0..nodes as i64).collect();
    label.shuffle(&mut rng);
    let mut graph: Vec<(i64, i64)> = spannerlib_bench::random_graph(nodes, edges, GRAPH_SHAPE_SEED)
        .into_iter()
        .map(|(a, b)| (label[a as usize], label[b as usize]))
        .collect();
    graph.shuffle(&mut rng);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_identical_inputs_and_other_seeds_differ() {
        assert_eq!(covid_notes(50, 0, 7), covid_notes(50, 0, 7));
        assert_ne!(covid_notes(50, 0, 7), covid_notes(50, 0, 8));
        assert_eq!(extract_docs(30, 20, 400, 7), extract_docs(30, 20, 400, 7));
        assert_ne!(extract_docs(30, 20, 400, 7), extract_docs(30, 20, 400, 8));
        assert_eq!(read_mix(200, 40, 7), read_mix(200, 40, 7));
        assert_ne!(read_mix(200, 40, 7), read_mix(200, 40, 8));
        assert_eq!(graph(20, 40, 7), graph(20, 40, 7));
        assert_ne!(graph(20, 40, 7), graph(20, 40, 8));
    }

    #[test]
    fn no_two_documents_share_text_or_id() {
        let mut notes = covid_notes(600, 0, 3);
        notes.extend(covid_notes(600, 600, 3));
        let texts: HashSet<&str> = notes.iter().map(|d| d.text.as_str()).collect();
        let ids: HashSet<&str> = notes.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(texts.len(), notes.len());
        assert_eq!(ids.len(), notes.len());

        let docs = extract_docs(300, 10, 200, 3);
        let texts: HashSet<&str> = docs.iter().map(|d| d.text.as_str()).collect();
        assert_eq!(texts.len(), docs.len());
    }

    #[test]
    fn sizes_do_not_depend_on_the_seed() {
        // Document lengths are a fixed multiset; only the last, partial
        // block of each document may or may not hold a plant.
        let totals = |seed| -> (usize, usize) {
            let docs = extract_docs(50, 20, 800, seed);
            let plants = |d: &ExtractDoc| {
                d.planted.emails.len() + d.planted.dates.len() + d.planted.errors.len()
            };
            (
                docs.iter().map(|d| d.text.len()).sum(),
                docs.iter().map(plants).sum(),
            )
        };
        let ((bytes_a, plants_a), (bytes_b, plants_b)) = (totals(1), totals(2));
        assert!(
            bytes_a.abs_diff(bytes_b) * 100 < bytes_a,
            "{bytes_a} vs {bytes_b}"
        );
        assert!(
            plants_a.abs_diff(plants_b) * 10 < plants_a,
            "{plants_a} vs {plants_b}"
        );
        let count = |seed, kind| {
            read_mix(1000, 40, seed)
                .iter()
                .filter(|k| std::mem::discriminant(*k) == std::mem::discriminant(&kind))
                .count()
        };
        assert_eq!(
            crate::oracle::reachability(&graph(60, 120, 1)).len(),
            crate::oracle::reachability(&graph(60, 120, 2)).len()
        );
        for seed in [1, 2] {
            assert_eq!(count(seed, ReadKind::Full), 150);
            assert_eq!(count(seed, ReadKind::Filtered), 250);
            assert_eq!(count(seed, ReadKind::Point(0)), 600);
        }
    }

    #[test]
    fn planted_positions_point_at_what_was_planted() {
        for doc in extract_docs(20, 50, 900, 11) {
            for &(s, e) in &doc.planted.emails {
                assert!(doc.text[s..e].contains('@') && doc.text[s..e].ends_with(".com"));
            }
            for &(s, e) in &doc.planted.dates {
                assert_eq!(e - s, 10);
                assert_eq!(&doc.text[s - 4..s], "due ");
            }
            assert_eq!(
                doc.text.matches("error: ").count(),
                doc.planted.errors.len()
            );
            assert!(!doc.planted.emails.is_empty() || doc.text.len() < 400);
        }
    }

    #[test]
    fn point_lookups_are_skewed() {
        let mix = read_mix(10_000, 500, 5);
        let mut hits = vec![0usize; 500];
        for k in &mix {
            if let ReadKind::Point(i) = k {
                hits[*i] += 1;
            }
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        // Under 1/rank over 500 documents the top ten take ~43 %.
        let top: usize = hits[..10].iter().sum();
        assert!(top * 100 / 6000 > 30, "top ten took {top} of 6000");
    }
}
