//! Reference equality of the two dynamic-programming kernels in
//! `blast::gapped`.
//!
//! `reference` holds the straightforward forms of both kernels: the X-drop
//! extension that computes every cell of the band on every row, and the
//! banded global alignment that visits every `(i, j)` of the full matrix and
//! asks per cell whether it lies in the band. They are test oracles only.
//! The library kernels skip work whose result cannot reach the output; the
//! properties below check that their results are identical, field for field
//! and operation for operation.

use bioseq::alphabet::Alphabet;
use bioseq::gen;
use blast::gapped::{banded_global_alignment, xdrop_extend_banded};
use blast::Scoring;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

mod reference {
    use blast::gapped::{BandedAlignment, ExtensionResult};
    use blast::Scoring;

    const NEG_INF: i32 = i32::MIN / 4;

    #[inline]
    fn guarded(v: i32) -> bool {
        v > NEG_INF / 2
    }

    /// Full-band affine X-drop extension: every band cell of every row.
    pub fn xdrop_extend_banded(
        a: &[u8],
        b: &[u8],
        scoring: &Scoring,
        xdrop: i32,
        band: usize,
    ) -> ExtensionResult {
        if a.is_empty() || b.is_empty() {
            return ExtensionResult { score: 0, a_len: 0, b_len: 0 };
        }
        let go = scoring.gap_open();
        let ge = scoring.gap_extend();
        let band = band.max(1);
        let width = 2 * band + 1;

        let mut best = 0i32;
        let (mut best_i, mut best_j) = (0usize, 0usize);

        // Row i window covers j in [i-band, i+band] ∩ [0, b.len()].
        // h[k], f[k] hold H(i-1, ·) and F(i-1, ·) at offset k = j - (i-1) + band.
        let mut h = vec![NEG_INF; width];
        let mut f = vec![NEG_INF; width];

        // Row 0: leading gaps in `a` (E-runs along the top edge).
        // Offsets for row 0: k = j + band.
        h[band] = 0;
        for j in 1..=band.min(b.len()) {
            let sc = -go - ge * j as i32;
            if -sc > xdrop {
                break;
            }
            h[band + j] = sc;
        }

        let mut h_new = vec![NEG_INF; width];
        let mut f_new = vec![NEG_INF; width];

        for i in 1..=a.len() {
            let j_lo = i.saturating_sub(band);
            let j_hi = (i + band).min(b.len());
            if j_lo > b.len() {
                break;
            }
            h_new.fill(NEG_INF);
            f_new.fill(NEG_INF);
            let mut e = NEG_INF; // horizontal gap run within this row
            let mut alive = false;

            for j in j_lo..=j_hi {
                // Offset of (i, j) in the current row's window.
                let k = j + band - i;
                // Diagonal predecessor (i-1, j-1): same offset k in the previous
                // row's window.
                let d = if j >= 1 && guarded(h[k]) {
                    h[k] + scoring.score(a[i - 1], b[j - 1])
                } else {
                    NEG_INF
                };
                // Vertical predecessor (i-1, j): offset k+1 in previous window.
                let fv = if k + 1 < width {
                    let open = if guarded(h[k + 1]) { h[k + 1] - go - ge } else { NEG_INF };
                    let ext = if guarded(f[k + 1]) { f[k + 1] - ge } else { NEG_INF };
                    open.max(ext)
                } else {
                    NEG_INF
                };
                // Horizontal predecessor (i, j-1): offset k-1 in current window.
                let ev = {
                    let open = if k >= 1 && guarded(h_new[k - 1]) {
                        h_new[k - 1] - go - ge
                    } else {
                        NEG_INF
                    };
                    let ext = if guarded(e) { e - ge } else { NEG_INF };
                    open.max(ext)
                };

                let mut cell = d.max(fv).max(ev);
                if guarded(cell) && best - cell > xdrop {
                    cell = NEG_INF;
                }
                h_new[k] = cell;
                f_new[k] = fv;
                e = ev;

                if guarded(cell) {
                    alive = true;
                    if cell > best {
                        best = cell;
                        best_i = i;
                        best_j = j;
                    }
                }
            }
            if !alive {
                break;
            }
            std::mem::swap(&mut h, &mut h_new);
            std::mem::swap(&mut f, &mut f_new);
        }

        ExtensionResult { score: best, a_len: best_i, b_len: best_j }
    }

    /// Banded global alignment over the full `(n+1) x (m+1)` loop.
    pub fn banded_global_alignment(
        a: &[u8],
        b: &[u8],
        scoring: &Scoring,
        extra: usize,
    ) -> BandedAlignment {
        let (n, m) = (a.len(), b.len());
        if n == 0 || m == 0 {
            let gaps = n + m;
            let open = if gaps > 0 { scoring.gap_open() } else { 0 };
            let mut ops = vec![b'I'; m];
            ops.extend(std::iter::repeat_n(b'D', n));
            return BandedAlignment { score: -open - scoring.gap_extend() * gaps as i32, ops };
        }
        let go = scoring.gap_open();
        let ge = scoring.gap_extend();
        let band = (n as i64 - m as i64).unsigned_abs() as usize + extra.max(8);

        // Full DP tables over the band; (n+1) x (2*band+1) window around the
        // diagonal j ≈ i * m / n. For the modest ranges BLAST extensions produce
        // this is cheap and simple.
        let width = 2 * band + 1;
        let idx = |i: usize, j: usize| -> Option<usize> {
            let center = (i as i64 * m as i64 / n as i64).clamp(0, m as i64);
            let off = j as i64 - center + band as i64;
            if off < 0 || off >= width as i64 {
                None
            } else {
                Some(i * width + off as usize)
            }
        };

        let cells = (n + 1) * width;
        let mut hmat = vec![NEG_INF; cells];
        let mut emat = vec![NEG_INF; cells];
        let mut fmat = vec![NEG_INF; cells];

        let set = |mat: &mut Vec<i32>, slot: Option<usize>, v: i32| {
            if let Some(s) = slot {
                mat[s] = v;
            }
        };
        let get = |mat: &[i32], slot: Option<usize>| slot.map_or(NEG_INF, |s| mat[s]);

        set(&mut hmat, idx(0, 0), 0);
        for j in 1..=m {
            let slot = idx(0, j);
            if slot.is_none() {
                break;
            }
            set(&mut emat, slot, -go - ge * j as i32);
            set(&mut hmat, slot, -go - ge * j as i32);
        }
        for i in 1..=n {
            if let Some(slot) = idx(i, 0) {
                fmat[slot] = -go - ge * i as i32;
                hmat[slot] = -go - ge * i as i32;
            }
            for j in 1..=m {
                let slot = match idx(i, j) {
                    Some(s) => s,
                    None => continue,
                };
                let h_diag = get(&hmat, idx(i - 1, j - 1));
                let h_up = get(&hmat, idx(i - 1, j));
                let f_up = get(&fmat, idx(i - 1, j));
                let h_left = get(&hmat, idx(i, j - 1));
                let e_left = get(&emat, idx(i, j - 1));

                let e = (h_left - go - ge).max(e_left - ge).max(NEG_INF);
                let f = (h_up - go - ge).max(f_up - ge).max(NEG_INF);
                let d = if h_diag <= NEG_INF / 2 {
                    NEG_INF
                } else {
                    h_diag + scoring.score(a[i - 1], b[j - 1])
                };
                emat[slot] = e;
                fmat[slot] = f;
                hmat[slot] = d.max(e).max(f);
            }
        }

        // Traceback from (n, m), recording the operation path in reverse.
        let (mut i, mut j) = (n, m);
        let mut ops: Vec<u8> = Vec::with_capacity(n + m);
        let score = get(&hmat, idx(n, m));
        let mut state = 0u8; // 0 = H, 1 = E (gap in a), 2 = F (gap in b)
        while i > 0 || j > 0 {
            match state {
                0 => {
                    let cur = get(&hmat, idx(i, j));
                    if i > 0 && j > 0 {
                        let d = get(&hmat, idx(i - 1, j - 1));
                        if d > NEG_INF / 2 && d + scoring.score(a[i - 1], b[j - 1]) == cur {
                            ops.push(b'M');
                            i -= 1;
                            j -= 1;
                            continue;
                        }
                    }
                    if j > 0 && get(&emat, idx(i, j)) == cur {
                        state = 1;
                        continue;
                    }
                    if i > 0 && get(&fmat, idx(i, j)) == cur {
                        state = 2;
                        continue;
                    }
                    // Degenerate: band edge; fall back to consuming remaining.
                    if j > 0 {
                        ops.push(b'I');
                        j -= 1;
                    } else {
                        ops.push(b'D');
                        i -= 1;
                    }
                }
                1 => {
                    // Gap in `a`: consumed b[j-1].
                    ops.push(b'I');
                    let cur = get(&emat, idx(i, j));
                    let from_open = get(&hmat, idx(i, j - 1)) - go - ge;
                    j -= 1;
                    if cur == from_open {
                        state = 0;
                    }
                }
                _ => {
                    ops.push(b'D');
                    let cur = get(&fmat, idx(i, j));
                    let from_open = get(&hmat, idx(i - 1, j)) - go - ge;
                    i -= 1;
                    if cur == from_open {
                        state = 0;
                    }
                }
            }
        }
        ops.reverse();
        BandedAlignment { score, ops }
    }
}

/// X-drop thresholds exercised for every pair: from one that stops at the
/// first mismatches to one that crosses long gaps.
const XDROPS: [i32; 4] = [5, 16, 33, 60];

/// The pair families the kernels must agree on.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Two unrelated sequences.
    Random,
    /// `b` is `a` with 1–15% substitutions plus sparse indels, followed by
    /// unrelated tail residues (as a subject slice runs past the homology).
    Mutated,
    /// `b` is `a` with dense indels and multi-residue gap blocks.
    GapHeavy,
    /// A homologous pair whose band is at least as wide as either side.
    WideBand,
    /// One side (or both) empty.
    Empty,
}

const KINDS: [Kind; 5] = [Kind::Random, Kind::Mutated, Kind::GapHeavy, Kind::WideBand, Kind::Empty];

/// Residue letters for `len` random residues of the alphabet.
fn random_residues(r: &mut StdRng, alphabet: Alphabet, len: usize) -> Vec<u8> {
    match alphabet {
        Alphabet::Dna => gen::random_dna(r, len, 0.5),
        Alphabet::Protein => gen::random_protein(r, len),
    }
}

/// Copy `seq`, substituting each residue with probability `sub` and
/// deleting or inserting a block of 1..=`max_gap` residues with probability
/// `indel` each per position.
fn mutate(
    r: &mut StdRng,
    alphabet: Alphabet,
    seq: &[u8],
    sub: f64,
    indel: f64,
    max_gap: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(seq.len() + 16);
    let mut i = 0;
    while i < seq.len() {
        let x = r.random::<f64>();
        if x < indel {
            i += r.random_range(1..=max_gap);
            continue;
        }
        if x < 2.0 * indel {
            let n = r.random_range(1..=max_gap);
            out.extend(random_residues(r, alphabet, n));
        }
        if r.random::<f64>() < sub {
            out.extend(random_residues(r, alphabet, 1));
        } else {
            out.push(seq[i]);
        }
        i += 1;
    }
    out
}

/// One seeded pair of residue-code sequences plus the band to use.
fn pair(seed: u64, kind: Kind, protein: bool) -> (Vec<u8>, Vec<u8>, usize) {
    let alphabet = if protein { Alphabet::Protein } else { Alphabet::Dna };
    let mut r = gen::rng(seed);
    let band = r.random_range(1..60usize);
    let (a, b, band) = match kind {
        Kind::Random => {
            let (la, lb) = (r.random_range(1..300), r.random_range(1..300));
            (random_residues(&mut r, alphabet, la), random_residues(&mut r, alphabet, lb), band)
        }
        Kind::Mutated => {
            let la = r.random_range(1..450);
            let a = random_residues(&mut r, alphabet, la);
            let sub = r.random_range(0.01..0.15);
            let mut b = mutate(&mut r, alphabet, &a, sub, 0.004, 2);
            let tail = r.random_range(0..120);
            b.extend(random_residues(&mut r, alphabet, tail));
            (a, b, band)
        }
        Kind::GapHeavy => {
            let la = r.random_range(1..300);
            let a = random_residues(&mut r, alphabet, la);
            let indel = r.random_range(0.02..0.12);
            let b = mutate(&mut r, alphabet, &a, 0.03, indel, 6);
            (a, b, band)
        }
        Kind::WideBand => {
            let la = r.random_range(1..120);
            let a = random_residues(&mut r, alphabet, la);
            let b = mutate(&mut r, alphabet, &a, 0.08, 0.03, 4);
            let wide = a.len().max(b.len()) + r.random_range(0..10usize);
            (a, b, wide)
        }
        Kind::Empty => {
            let len = r.random_range(0..50);
            let s = random_residues(&mut r, alphabet, len);
            match r.random_range(0..3u8) {
                0 => (s, Vec::new(), band),
                1 => (Vec::new(), s, band),
                _ => (Vec::new(), Vec::new(), band),
            }
        }
    };
    (alphabet.encode_seq(&a), alphabet.encode_seq(&b), band)
}

fn scoring(protein: bool) -> Scoring {
    if protein {
        Scoring::blastp_default()
    } else {
        Scoring::blastn_default()
    }
}

proptest! {
    #[test]
    fn xdrop_matches_full_band_reference(
        seed in any::<u64>(),
        kind in 0usize..KINDS.len(),
        protein in any::<bool>(),
    ) {
        let (a, b, band) = pair(seed, KINDS[kind], protein);
        let sc = scoring(protein);
        for xdrop in XDROPS {
            for (x, y) in [(&a, &b), (&b, &a)] {
                let got = xdrop_extend_banded(x, y, &sc, xdrop, band);
                let want = reference::xdrop_extend_banded(x, y, &sc, xdrop, band);
                let (lx, ly) = (x.len(), y.len());
                prop_assert_eq!(got, want, "xdrop {} band {} lens {}x{}", xdrop, band, lx, ly);
            }
        }
    }

    #[test]
    fn banded_global_matches_full_loop_reference(
        seed in any::<u64>(),
        kind in 0usize..KINDS.len(),
        protein in any::<bool>(),
        extra in 0usize..40,
    ) {
        let (a, b, band) = pair(seed, KINDS[kind], protein);
        let sc = scoring(protein);
        // The band-is-wide family also drives the traceback band wide.
        let extra = if matches!(KINDS[kind], Kind::WideBand) { band } else { extra };
        for (x, y) in [(&a, &b), (&b, &a)] {
            let got = banded_global_alignment(x, y, &sc, extra);
            let want = reference::banded_global_alignment(x, y, &sc, extra);
            prop_assert_eq!(got.score, want.score, "extra {} lens {}x{}", extra, x.len(), y.len());
            prop_assert_eq!(got.ops, want.ops, "extra {} lens {}x{}", extra, x.len(), y.len());
        }
    }
}

/// A denser deterministic sweep of the shapes the search driver produces:
/// a query suffix against a longer subject suffix that holds a homolog
/// followed by unrelated sequence, at the search's own band.
#[test]
fn xdrop_matches_reference_on_search_shaped_pairs() {
    let sc = Scoring::blastn_default();
    for seed in 0..300u64 {
        let mut r = gen::rng(9_000 + seed);
        let len = r.random_range(20..500);
        let q = gen::random_dna(&mut r, len, 0.5);
        let (sub, indel) = (r.random_range(0.01..0.15), r.random_range(0.0..0.02));
        let mut s = gen::mutate_dna(&mut r, &q, sub, indel);
        s.extend(gen::random_dna(&mut r, 300, 0.5));
        let (q, s) = (Alphabet::Dna.encode_seq(&q), Alphabet::Dna.encode_seq(&s));
        for xdrop in XDROPS {
            let got = xdrop_extend_banded(&q, &s, &sc, xdrop, blast::gapped::DEFAULT_BAND);
            let want =
                reference::xdrop_extend_banded(&q, &s, &sc, xdrop, blast::gapped::DEFAULT_BAND);
            assert_eq!(got, want, "seed {seed} xdrop {xdrop}");
        }
        let got = banded_global_alignment(&q, &s[..q.len().min(s.len())], &sc, 16);
        let want = reference::banded_global_alignment(&q, &s[..q.len().min(s.len())], &sc, 16);
        assert_eq!(got, want, "seed {seed} traceback");
    }
}

/// Many short, gap-dense pairs in a narrow band. Here the live window jumps
/// several offsets between rows, which is where an edge cell left holding
/// an older row's value would change the result. Besides the blastn
/// scores, a system with free gap opens and a harsh mismatch lets values
/// at the window's edges stay close to `best`.
#[test]
fn xdrop_matches_reference_on_short_gap_dense_pairs() {
    let cheap_gaps = Scoring::Dna { reward: 1, penalty: -6, gap_open: 0, gap_extend: 1 };
    for sc in [Scoring::blastn_default(), cheap_gaps] {
        for seed in 0..2_000u64 {
            let mut r = gen::rng(50_000 + seed);
            let len = r.random_range(5..60);
            let a = gen::random_dna(&mut r, len, 0.5);
            let b = mutate(&mut r, Alphabet::Dna, &a, 0.15, 0.1, 4);
            let (a, b) = (Alphabet::Dna.encode_seq(&a), Alphabet::Dna.encode_seq(&b));
            for xdrop in XDROPS {
                let got = xdrop_extend_banded(&a, &b, &sc, xdrop, 16);
                let want = reference::xdrop_extend_banded(&a, &b, &sc, xdrop, 16);
                assert_eq!(got, want, "{sc:?} seed {seed} xdrop {xdrop}");
            }
        }
    }
}

/// Pairs whose best global path runs along an edge of the band: `b` is `a`
/// shifted by exactly the band half-width, so the diagonal moves between
/// edge cells decide the alignment.
#[test]
fn banded_global_matches_reference_along_the_band_edge() {
    let sc = Scoring::blastn_default();
    for seed in 0..50u64 {
        let mut r = gen::rng(60_000 + seed);
        let len = r.random_range(20..120);
        let shared = gen::random_dna(&mut r, len, 0.5);
        let (x, y) = (gen::random_dna(&mut r, 8, 0.5), gen::random_dna(&mut r, 8, 0.5));
        let a = Alphabet::Dna.encode_seq(&[&shared[..], &x[..]].concat());
        let b = Alphabet::Dna.encode_seq(&[&y[..], &shared[..]].concat());
        for (p, q) in [(&a, &b), (&b, &a)] {
            let got = banded_global_alignment(p, q, &sc, 8);
            assert_eq!(got, reference::banded_global_alignment(p, q, &sc, 8), "seed {seed}");
        }
    }
}
