//! Query word lookup tables — BLAST stage one.
//!
//! "The implementation iteratively loads the next concatenated subset of
//! query sequences, builds a word lookup table out of them, and streams the
//! database past this lookup table, storing the positions of matches"
//! (§II.B). The table maps a packed database word to every (query context,
//! query offset) that seeds there:
//!
//! * **DNA**: exact `word_size`-mers (default 11), 2 bits per residue;
//! * **protein**: all 3-mers whose BLOSUM score against some query 3-mer
//!   reaches the neighborhood threshold *T* — enumerated with
//!   branch-and-bound over the residue columns.
//!
//! Masked query positions (see [`crate::dust`]) contribute no words: that is
//! soft masking, seeding suppressed but extensions free to cross.

use crate::matrix::Scoring;

/// Number of residue codes participating in protein neighborhood expansion
/// (the 20 standard amino acids; B/Z/X/* never seed).
const NEIGHBOR_RADIX: usize = 20;

/// One query context registered in a lookup table: an index the application
/// interprets (e.g. query × strand) plus the offset of a seed word.
pub type SeedEntry = (u32, u32);

/// Index-table key of an empty slot. No packed word reaches it: DNA words
/// use at most 62 bits and protein words at most 24⁸ < 2³⁷.
const EMPTY: u64 = u64::MAX;

/// One index slot: a word and the range of its entries in `entries`.
#[derive(Clone, Copy)]
struct Slot {
    word: u64,
    start: u32,
    end: u32,
}

/// A query-side word lookup table.
///
/// Every seed entry lives in one contiguous array, grouped by word and in
/// (context, offset) order within a word. An open-addressing index with
/// linear probing maps each word to its range of that array.
pub struct Lookup {
    word_size: usize,
    radix: u64,
    entries: Vec<SeedEntry>,
    slots: Vec<Slot>,
    /// `slots.len() - 1`; the capacity is a power of two.
    mask: usize,
    /// `64 - log2(slots.len())`: the top bits of the hash pick the slot.
    shift: u32,
    num_words: usize,
}

impl Lookup {
    /// Residue count of one word.
    pub fn word_size(&self) -> usize {
        self.word_size
    }

    /// Number of distinct words registered.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Every registered word, in no particular order.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().filter(|s| s.word != EMPTY).map(|s| s.word)
    }

    /// Seed entries for a packed word (empty slice when absent).
    #[inline]
    pub fn seeds(&self, word: u64) -> &[SeedEntry] {
        let mut i = self.home(word);
        loop {
            let slot = self.slots[i];
            if slot.word == word {
                return &self.entries[slot.start as usize..slot.end as usize];
            }
            if slot.word == EMPTY {
                return &[];
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Pack a window of residue codes into a word key.
    #[inline]
    pub fn pack(&self, codes: &[u8]) -> u64 {
        debug_assert_eq!(codes.len(), self.word_size);
        codes.iter().fold(0u64, |acc, &c| acc * self.radix + u64::from(c))
    }

    /// Build an exact-match DNA lookup over query contexts. Each context is
    /// `(codes, mask)`; masked or out-of-alphabet positions break words.
    ///
    /// # Panics
    /// Panics if `word_size` is 0 or > 31.
    pub fn build_dna(contexts: &[(&[u8], &[u8])], word_size: usize) -> Lookup {
        assert!((1..=31).contains(&word_size), "DNA word size out of range");
        let windows = contexts.iter().map(|(codes, _)| (codes.len() + 1).saturating_sub(word_size));
        let mut triples = Vec::with_capacity(windows.sum());
        // 4^word_size: the weight a code has once it leaves the window.
        let leaving = 4u64.pow(word_size as u32);
        for (ctx, (codes, mask)) in contexts.iter().enumerate() {
            debug_assert_eq!(codes.len(), mask.len());
            // `word` packs the last `word_size` codes, as `pack` would;
            // `run` counts the unmasked positions ending at `end`.
            let (mut word, mut run) = (0u64, 0usize);
            for (end, (&c, &m)) in codes.iter().zip(mask.iter()).enumerate() {
                word = word.wrapping_mul(4).wrapping_add(u64::from(c));
                if end >= word_size {
                    let gone = u64::from(codes[end - word_size]);
                    word = word.wrapping_sub(gone.wrapping_mul(leaving));
                }
                run = if m == 0 { run + 1 } else { 0 };
                if run >= word_size {
                    triples.push((word, ctx as u32, (end + 1 - word_size) as u32));
                }
            }
        }
        Lookup::from_triples(triples, word_size, 4)
    }

    /// Build a protein neighborhood lookup: every database word scoring ≥
    /// `threshold` against a query word is registered for that query
    /// position. The exact query word is always registered as well (NCBI
    /// behaviour), even when its self-score is below *T*.
    ///
    /// # Panics
    /// Panics if `word_size` is 0 or > 8, or `scoring` is not a protein
    /// system.
    pub fn build_protein(
        contexts: &[(&[u8], &[u8])],
        word_size: usize,
        threshold: i32,
        scoring: &Scoring,
    ) -> Lookup {
        assert!((1..=8).contains(&word_size), "protein word size out of range");
        assert!(
            matches!(scoring, Scoring::Blosum62 { .. }),
            "protein lookup needs a protein scoring system"
        );
        let mut triples = Vec::new();
        // Column maxima for branch-and-bound: best achievable score of any
        // neighbor residue against a given query residue.
        let col_max: Vec<i32> = (0..24u8)
            .map(|q| (0..NEIGHBOR_RADIX as u8).map(|s| scoring.score(q, s)).max().unwrap_or(0))
            .collect();

        for (ctx, (codes, mask)) in contexts.iter().enumerate() {
            debug_assert_eq!(codes.len(), mask.len());
            if codes.len() < word_size {
                continue;
            }
            let mut word_buf = vec![0u8; word_size];
            for pos in 0..=codes.len() - word_size {
                if mask[pos..pos + word_size].iter().any(|&m| m != 0) {
                    continue;
                }
                let qword = &codes[pos..pos + word_size];
                // Always register the exact word.
                let exact = qword.iter().fold(0u64, |acc, &c| acc * 24 + u64::from(c));
                triples.push((exact, ctx as u32, pos as u32));
                // Remaining-score bound for pruning.
                let mut suffix_max = vec![0i32; word_size + 1];
                for i in (0..word_size).rev() {
                    suffix_max[i] = suffix_max[i + 1] + col_max[qword[i] as usize];
                }
                enumerate_neighbors(
                    scoring,
                    qword,
                    threshold,
                    &suffix_max,
                    &mut word_buf,
                    0,
                    0,
                    0,
                    &mut |packed| {
                        if packed != exact {
                            triples.push((packed, ctx as u32, pos as u32));
                        }
                    },
                );
            }
        }
        Lookup::from_triples(triples, word_size, 24)
    }

    /// Group `(word, context, offset)` triples, which the builders produce
    /// in (context, offset) order, into the flat table. A stable sort on the
    /// word keeps each word's entries in that order; repeats are dropped.
    fn from_triples(triples: Vec<(u64, u32, u32)>, word_size: usize, radix: u64) -> Lookup {
        let mut triples = sort_by_word(triples);
        triples.dedup();
        assert!(u32::try_from(triples.len()).is_ok(), "lookup holds more than 2^32 entries");
        let num_words = triples.chunk_by(|x, y| x.0 == y.0).count();
        // At most half full, so a probe for an absent word meets an empty
        // slot quickly.
        let capacity = (2 * num_words).next_power_of_two().max(2);
        let mut lookup = Lookup {
            word_size,
            radix,
            entries: triples.iter().map(|&(_, ctx, pos)| (ctx, pos)).collect(),
            slots: vec![Slot { word: EMPTY, start: 0, end: 0 }; capacity],
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
            num_words,
        };
        let mut start = 0usize;
        for group in triples.chunk_by(|x, y| x.0 == y.0) {
            let word = group[0].0;
            let mut i = lookup.home(word);
            while lookup.slots[i].word != EMPTY {
                i = (i + 1) & lookup.mask;
            }
            let end = start + group.len();
            lookup.slots[i] = Slot { word, start: start as u32, end: end as u32 };
            start = end;
        }
        lookup
    }

    /// Home slot of `word`: Fibonacci (multiplicative) hashing.
    #[inline]
    fn home(&self, word: u64) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }
}

/// Stable LSD radix sort of triples on their word, 11 bits per pass: linear
/// in the triple count (two passes for 11-mers), and equal words keep their
/// input order.
fn sort_by_word(mut triples: Vec<(u64, u32, u32)>) -> Vec<(u64, u32, u32)> {
    const BITS: u32 = 11;
    const DIGITS: usize = 1 << BITS;
    let key_bits = triples.iter().map(|t| 64 - t.0.leading_zeros()).max().unwrap_or(0);
    let mut out = vec![(0u64, 0u32, 0u32); triples.len()];
    let mut shift = 0;
    while shift < key_bits {
        let digit = |word: u64| (word >> shift) as usize & (DIGITS - 1);
        // Start of each digit's run in `out`.
        let mut next = [0usize; DIGITS];
        for t in &triples {
            next[digit(t.0)] += 1;
        }
        let mut start = 0;
        for n in next.iter_mut() {
            (start, *n) = (start + *n, start);
        }
        for &t in &triples {
            let d = digit(t.0);
            out[next[d]] = t;
            next[d] += 1;
        }
        std::mem::swap(&mut triples, &mut out);
        shift += BITS;
    }
    triples
}

/// Depth-first enumeration of all words scoring ≥ threshold against
/// `qword`, with branch-and-bound pruning on the achievable suffix score.
#[allow(clippy::too_many_arguments)]
fn enumerate_neighbors(
    scoring: &Scoring,
    qword: &[u8],
    threshold: i32,
    suffix_max: &[i32],
    word_buf: &mut [u8],
    depth: usize,
    score: i32,
    packed: u64,
    emit: &mut impl FnMut(u64),
) {
    if depth == qword.len() {
        if score >= threshold {
            emit(packed);
        }
        return;
    }
    for cand in 0..NEIGHBOR_RADIX as u8 {
        let s = score + scoring.score(qword[depth], cand);
        // Prune: even perfect suffix can't reach the threshold.
        if s + suffix_max[depth + 1] < threshold {
            continue;
        }
        word_buf[depth] = cand;
        enumerate_neighbors(
            scoring,
            qword,
            threshold,
            suffix_max,
            word_buf,
            depth + 1,
            s,
            packed * 24 + u64::from(cand),
            emit,
        );
    }
}

/// Stream a subject's residue codes, invoking `f(pos, packed_word)` for every
/// window (DNA rolling hash).
pub fn scan_words(codes: &[u8], word_size: usize, radix: u64, mut f: impl FnMut(usize, u64)) {
    if codes.len() < word_size {
        return;
    }
    if radix == 4 {
        // Rolling update for the common DNA case.
        let mask = (1u64 << (2 * word_size)) - 1;
        let mut word = 0u64;
        for (i, &c) in codes.iter().enumerate() {
            word = ((word << 2) | u64::from(c)) & mask;
            if i + 1 >= word_size {
                f(i + 1 - word_size, word);
            }
        }
    } else {
        for pos in 0..=codes.len() - word_size {
            let word =
                codes[pos..pos + word_size].iter().fold(0u64, |acc, &c| acc * radix + u64::from(c));
            f(pos, word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::alphabet::Alphabet;

    fn no_mask(len: usize) -> Vec<u8> {
        vec![0; len]
    }

    #[test]
    fn dna_lookup_finds_exact_words() {
        let q = Alphabet::Dna.encode_seq(b"ACGTACGTAAA");
        let mask = no_mask(q.len());
        let lk = Lookup::build_dna(&[(&q, &mask)], 4);
        // Word at position 0: ACGT.
        let word = lk.pack(&Alphabet::Dna.encode_seq(b"ACGT"));
        let seeds = lk.seeds(word);
        assert_eq!(seeds, &[(0, 0), (0, 4)]);
        // Absent word.
        let absent = lk.pack(&Alphabet::Dna.encode_seq(b"GGGG"));
        assert!(lk.seeds(absent).is_empty());
    }

    #[test]
    fn masked_positions_do_not_seed() {
        let q = Alphabet::Dna.encode_seq(b"ACGTACGT");
        let mut mask = no_mask(q.len());
        mask[2] = 1; // masks every 4-mer covering position 2
        let lk = Lookup::build_dna(&[(&q, &mask)], 4);
        let word = lk.pack(&Alphabet::Dna.encode_seq(b"ACGT"));
        assert_eq!(lk.seeds(word), &[(0, 4)]);
    }

    #[test]
    fn multiple_contexts_tracked_separately() {
        let a = Alphabet::Dna.encode_seq(b"AAAA");
        let b = Alphabet::Dna.encode_seq(b"AAAA");
        let (ma, mb) = (no_mask(4), no_mask(4));
        let lk = Lookup::build_dna(&[(&a, &ma), (&b, &mb)], 4);
        let word = lk.pack(&Alphabet::Dna.encode_seq(b"AAAA"));
        assert_eq!(lk.seeds(word), &[(0, 0), (1, 0)]);
    }

    #[test]
    fn scan_words_rolls_correctly() {
        let codes = Alphabet::Dna.encode_seq(b"ACGTA");
        let mut got = Vec::new();
        scan_words(&codes, 3, 4, |pos, w| got.push((pos, w)));
        // ACG, CGT, GTA
        let pack3 = |s: &[u8]| {
            Alphabet::Dna.encode_seq(s).iter().fold(0u64, |a, &c| a * 4 + u64::from(c))
        };
        assert_eq!(got, vec![(0, pack3(b"ACG")), (1, pack3(b"CGT")), (2, pack3(b"GTA"))]);
    }

    #[test]
    fn scan_too_short_is_empty() {
        let codes = Alphabet::Dna.encode_seq(b"AC");
        let mut n = 0;
        scan_words(&codes, 11, 4, |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn protein_neighborhood_contains_exact_and_similar_words() {
        let scoring = Scoring::blastp_default();
        let q = Alphabet::Protein.encode_seq(b"WWW");
        let mask = no_mask(3);
        let lk = Lookup::build_protein(&[(&q, &mask)], 3, 11, &scoring);
        // WWW self-scores 33 ≥ 11 → present.
        let www = lk.pack(&Alphabet::Protein.encode_seq(b"WWW"));
        assert_eq!(lk.seeds(www), &[(0, 0)]);
        // WWF: 11+11+1 = 23 ≥ 11 → present.
        let wwf = lk.pack(&Alphabet::Protein.encode_seq(b"WWF"));
        assert_eq!(lk.seeds(wwf), &[(0, 0)]);
        // PPP vs WWW: 3·(−4) — absent.
        let ppp = lk.pack(&Alphabet::Protein.encode_seq(b"PPP"));
        assert!(lk.seeds(ppp).is_empty());
    }

    #[test]
    fn protein_exact_word_registered_even_below_threshold() {
        let scoring = Scoring::blastp_default();
        // AAA self-score is 12; use a high threshold to exclude neighbors.
        let q = Alphabet::Protein.encode_seq(b"AAA");
        let mask = no_mask(3);
        let lk = Lookup::build_protein(&[(&q, &mask)], 3, 100, &scoring);
        let aaa = lk.pack(&Alphabet::Protein.encode_seq(b"AAA"));
        assert_eq!(lk.seeds(aaa), &[(0, 0)]);
        assert_eq!(lk.num_words(), 1, "only the exact word survives T=100");
    }

    #[test]
    fn neighborhood_matches_brute_force_on_small_example() {
        let scoring = Scoring::blastp_default();
        let q = Alphabet::Protein.encode_seq(b"MKV");
        let mask = no_mask(3);
        let t = 13;
        let lk = Lookup::build_protein(&[(&q, &mask)], 3, t, &scoring);
        // Brute force over all 20^3 words.
        let mut expect = std::collections::HashSet::new();
        for a in 0..20u8 {
            for b in 0..20u8 {
                for c in 0..20u8 {
                    let s = scoring.score(q[0], a) + scoring.score(q[1], b) + scoring.score(q[2], c);
                    if s >= t {
                        expect.insert(u64::from(a) * 576 + u64::from(b) * 24 + u64::from(c));
                    }
                }
            }
        }
        // The exact query word is always included.
        expect.insert(q.iter().fold(0u64, |acc, &c| acc * 24 + u64::from(c)));
        let got: std::collections::HashSet<u64> = lk.words().collect();
        assert_eq!(got, expect);
    }
}
