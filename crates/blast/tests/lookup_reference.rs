//! Equivalence of the flat seed table with a naive map.
//!
//! The naive table is a `HashMap<u64, Vec<SeedEntry>>` filled in the most
//! direct way: DNA words by sliding a window, protein neighbourhoods by
//! scoring every one of the 20^w candidate words against every query word.
//! `Lookup` must hold the same words with the same entries in the same
//! order, because the seed order decides which two-hit pairs extend first.

use std::collections::{HashMap, HashSet};

use bioseq::alphabet::Alphabet;
use bioseq::gen;
use blast::lookup::{Lookup, SeedEntry};
use blast::Scoring;
use rand::rngs::StdRng;
use rand::Rng;

type Naive = HashMap<u64, Vec<SeedEntry>>;

fn pack(word: &[u8], radix: u64) -> u64 {
    word.iter().fold(0u64, |acc, &c| acc * radix + u64::from(c))
}

fn naive_dna(contexts: &[(Vec<u8>, Vec<u8>)], w: usize) -> Naive {
    let mut table = Naive::new();
    for (ctx, (codes, mask)) in contexts.iter().enumerate() {
        for pos in 0..(codes.len() + 1).saturating_sub(w) {
            if mask[pos..pos + w].iter().all(|&m| m == 0) {
                table
                    .entry(pack(&codes[pos..pos + w], 4))
                    .or_default()
                    .push((ctx as u32, pos as u32));
            }
        }
    }
    table
}

fn naive_protein(contexts: &[(Vec<u8>, Vec<u8>)], t: i32, scoring: &Scoring) -> Naive {
    const W: usize = 3;
    let mut table = Naive::new();
    for (ctx, (codes, mask)) in contexts.iter().enumerate() {
        for pos in 0..(codes.len() + 1).saturating_sub(W) {
            if mask[pos..pos + W].iter().any(|&m| m != 0) {
                continue;
            }
            let q = &codes[pos..pos + W];
            let entry = (ctx as u32, pos as u32);
            for x in 0..20u8 {
                for y in 0..20u8 {
                    for z in 0..20u8 {
                        let cand = [x, y, z];
                        let score: i32 =
                            q.iter().zip(&cand).map(|(&a, &b)| scoring.score(a, b)).sum();
                        if score >= t && cand != q {
                            table.entry(pack(&cand, 24)).or_default().push(entry);
                        }
                    }
                }
            }
            // The exact query word is always registered, even below T.
            table.entry(pack(q, 24)).or_default().push(entry);
        }
    }
    // Each word's entries in (context, offset) order.
    for v in table.values_mut() {
        v.sort_unstable();
    }
    table
}

fn assert_same(lk: &Lookup, naive: &Naive, radix: u64, r: &mut StdRng, what: &str) {
    assert_eq!(lk.num_words(), naive.len(), "{what}: word count");
    let words: HashSet<u64> = lk.words().collect();
    assert_eq!(words.len(), lk.num_words(), "{what}: words() repeats a word");
    assert_eq!(words, naive.keys().copied().collect::<HashSet<u64>>(), "{what}: word set");
    for (&word, want) in naive {
        assert_eq!(lk.seeds(word), want.as_slice(), "{what}: entries of word {word}");
    }
    // Probes for absent words, including ones that share home slots.
    let space = radix.pow(lk.word_size() as u32);
    for _ in 0..2_000 {
        let word = r.random_range(0..space);
        if !naive.contains_key(&word) {
            assert!(lk.seeds(word).is_empty(), "{what}: absent word {word} has seeds");
        }
    }
}

/// Query contexts with random masks: runs of masked positions, as DUST
/// leaves them, over a fraction of the contexts.
fn contexts(
    r: &mut StdRng,
    alphabet: Alphabet,
    n: usize,
    max_len: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|_| {
            let len = r.random_range(0..max_len);
            let seq = match alphabet {
                Alphabet::Dna => gen::random_dna(r, len, 0.5),
                Alphabet::Protein => gen::random_protein(r, len),
            };
            let mut mask = vec![0u8; len];
            if len > 0 && r.random::<f64>() < 0.5 {
                for _ in 0..r.random_range(1..4) {
                    let start = r.random_range(0..len);
                    let end = (start + r.random_range(1..30)).min(len);
                    mask[start..end].fill(1);
                }
            }
            (alphabet.encode_seq(&seq), mask)
        })
        .collect()
}

fn refs(contexts: &[(Vec<u8>, Vec<u8>)]) -> Vec<(&[u8], &[u8])> {
    contexts.iter().map(|(c, m)| (c.as_slice(), m.as_slice())).collect()
}

#[test]
fn dna_lookup_equals_naive_map() {
    let mut r = gen::rng(31);
    for w in 4..=11 {
        for round in 0..3 {
            let ctxs = contexts(&mut r, Alphabet::Dna, 1 + round * 20, 400);
            let lk = Lookup::build_dna(&refs(&ctxs), w);
            assert_same(&lk, &naive_dna(&ctxs, w), 4, &mut r, &format!("dna w={w} round {round}"));
        }
    }
}

#[test]
fn dna_lookup_keeps_repeated_words_in_context_order() {
    // Low-complexity contexts: a handful of words, each seeded many times
    // across many contexts.
    let ctxs: Vec<(Vec<u8>, Vec<u8>)> = (0..12)
        .map(|i| {
            let unit: &[u8] = if i % 2 == 0 { b"ACGTAC" } else { b"AAAAAT" };
            let seq: Vec<u8> = unit.iter().copied().cycle().take(60 + i).collect();
            let len = seq.len();
            (Alphabet::Dna.encode_seq(&seq), vec![0u8; len])
        })
        .collect();
    let lk = Lookup::build_dna(&refs(&ctxs), 5);
    assert_same(&lk, &naive_dna(&ctxs, 5), 4, &mut gen::rng(32), "repeats");
}

#[test]
fn protein_lookup_equals_naive_map() {
    let scoring = Scoring::blastp_default();
    let mut r = gen::rng(33);
    for t in [11, 13, 100] {
        let ctxs = contexts(&mut r, Alphabet::Protein, 4, 60);
        let lk = Lookup::build_protein(&refs(&ctxs), 3, t, &scoring);
        assert_same(&lk, &naive_protein(&ctxs, t, &scoring), 24, &mut r, &format!("protein T={t}"));
    }
}

#[test]
fn empty_lookup_has_no_words() {
    let lk = Lookup::build_dna(&[], 11);
    assert_eq!(lk.num_words(), 0);
    assert_eq!(lk.words().count(), 0);
    assert!(lk.seeds(0).is_empty());
}
