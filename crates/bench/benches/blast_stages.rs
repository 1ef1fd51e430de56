//! Microbenchmarks of the BLAST pipeline stages (§II.B's three stages plus
//! lookup construction). These back the calibration constants used by the
//! scaling simulator: the relative cost of seeding vs extension vs full
//! work units is what makes the skew model credible.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Small sample budget: these benches run on laptop-class single-core CI;
/// Criterion's defaults (100 samples, 5 s) would take an hour across the
/// suite.
fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

use bioseq::alphabet::Alphabet;
use bioseq::db::{partition_records, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use blast::extend::ungapped_extend;
use blast::gapped::{
    banded_global_alignment, banded_global_stats, xdrop_extend, xdrop_extend_banded, DEFAULT_BAND,
};
use blast::lookup::Lookup;
use blast::search::{BlastSearcher, SearchMode};
use blast::Scoring;

fn bench_lookup_build(c: &mut Criterion) {
    let mut rng = gen::rng(1);
    let queries: Vec<Vec<u8>> =
        (0..50).map(|_| Alphabet::Dna.encode_seq(&gen::random_dna(&mut rng, 400, 0.5))).collect();
    let masks: Vec<Vec<u8>> = queries.iter().map(|q| vec![0u8; q.len()]).collect();
    c.bench_function("lookup_build_dna_50x400bp_w11", |b| {
        b.iter(|| {
            let refs: Vec<(&[u8], &[u8])> =
                queries.iter().zip(&masks).map(|(q, m)| (q.as_slice(), m.as_slice())).collect();
            black_box(Lookup::build_dna(&refs, 11).num_words())
        })
    });

    let mut rng = gen::rng(2);
    let prots: Vec<Vec<u8>> =
        (0..10).map(|_| Alphabet::Protein.encode_seq(&gen::random_protein(&mut rng, 150))).collect();
    let pmasks: Vec<Vec<u8>> = prots.iter().map(|q| vec![0u8; q.len()]).collect();
    c.bench_function("lookup_build_protein_10x150aa_T11", |b| {
        b.iter(|| {
            let refs: Vec<(&[u8], &[u8])> =
                prots.iter().zip(&pmasks).map(|(q, m)| (q.as_slice(), m.as_slice())).collect();
            black_box(
                Lookup::build_protein(&refs, 3, 11, &Scoring::blastp_default()).num_words(),
            )
        })
    });
}

/// Per-block query set-up as a work unit pays it: encode both strands,
/// DUST-mask, and build the 11-mer seed table for a 100-read block.
fn bench_prepare(c: &mut Criterion) {
    let mut rng = gen::rng(7);
    let reads: Vec<SeqRecord> = (0..100)
        .map(|i| SeqRecord::new(format!("r{i}"), gen::random_dna(&mut rng, 400, 0.5)))
        .collect();
    let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
    c.bench_function("prepare_queries_100x400bp_dna", |b| {
        b.iter(|| black_box(searcher.prepare_queries(black_box(&reads))))
    });
}

/// The gapped kernels at the search's own X-drop and band: an extension
/// from a seed between unrelated sequences (the decoy case, which X-drop
/// should abandon within a few rows), one along a 400 bp homolog, and the
/// traceback over a 400 bp alignment with indels.
fn bench_gapped_kernels(c: &mut Criterion) {
    let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
    let scoring = searcher.params.scoring;
    let xdrop = (searcher.params.xdrop_gapped_bits * std::f64::consts::LN_2
        / searcher.karlin_gapped().lambda)
        .ceil() as i32;
    let mut rng = gen::rng(8);
    let decoy_q = Alphabet::Dna.encode_seq(&gen::random_dna(&mut rng, 400, 0.5));
    let decoy_s = Alphabet::Dna.encode_seq(&gen::random_dna(&mut rng, 450, 0.5));
    c.bench_function("xdrop_random_seed_decoy", |b| {
        b.iter(|| {
            black_box(xdrop_extend_banded(&decoy_q, &decoy_s, &scoring, xdrop, DEFAULT_BAND))
        })
    });

    let genome = gen::random_dna(&mut rng, 1000, 0.5);
    let homolog = gen::mutate_dna(&mut rng, &genome[100..500], 0.05, 0.005);
    let q = Alphabet::Dna.encode_seq(&homolog);
    let s = Alphabet::Dna.encode_seq(&genome[100..]);
    c.bench_function("xdrop_homolog_400bp", |b| {
        b.iter(|| black_box(xdrop_extend_banded(&q, &s, &scoring, xdrop, DEFAULT_BAND)))
    });
    c.bench_function("banded_global_400bp", |b| {
        b.iter(|| black_box(banded_global_alignment(&q, &s[..400], &scoring, 16)))
    });
}

fn bench_extensions(c: &mut Criterion) {
    let mut rng = gen::rng(3);
    let genome = gen::random_dna(&mut rng, 5000, 0.5);
    let q = Alphabet::Dna.encode_seq(&gen::mutate_dna(&mut rng, &genome[1000..1400], 0.05, 0.0));
    let s = Alphabet::Dna.encode_seq(&genome);
    let scoring = Scoring::blastn_default();

    c.bench_function("ungapped_extend_400bp_homolog", |b| {
        b.iter(|| black_box(ungapped_extend(&q, &s, 100, 1100, 11, &scoring, 40)))
    });
    c.bench_function("gapped_xdrop_400bp_homolog", |b| {
        b.iter(|| black_box(xdrop_extend(&q[200..], &s[1200..1700], &scoring, 60)))
    });
    c.bench_function("banded_traceback_400bp", |b| {
        b.iter(|| black_box(banded_global_stats(&q, &s[1000..1400], &scoring, 16)))
    });
}

fn bench_work_unit(c: &mut Criterion) {
    // One full (query block × partition) work unit, the paper's map() body.
    let cfg = WorkloadConfig {
        db_seqs: 6,
        db_seq_len: 2000,
        queries: 20,
        homolog_fraction: 0.5,
        ..Default::default()
    };
    let w = gen::dna_workload(4, &cfg);
    let part = partition_records(&w.db, &FormatDbConfig::dna(usize::MAX))
        .into_iter()
        .next()
        .expect("one partition");
    let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
    let prepared = searcher.prepare_queries(&w.queries);
    c.bench_function("work_unit_20q_x_12kbp_partition", |b| {
        b.iter(|| black_box(searcher.search_partition(&prepared, &part, 12_000, 6).len()))
    });

    // Protein work unit.
    let pw = gen::protein_workload(5, &WorkloadConfig {
        db_seqs: 4,
        db_seq_len: 500,
        queries: 8,
        query_len: 120,
        ..Default::default()
    });
    let ppart = partition_records(&pw.db, &FormatDbConfig::protein(usize::MAX))
        .into_iter()
        .next()
        .expect("one partition");
    let psearcher = BlastSearcher::with_mode(SearchMode::Blastp);
    let pprepared = psearcher.prepare_queries(&pw.queries);
    c.bench_function("work_unit_protein_8q_x_2kaa_partition", |b| {
        b.iter(|| black_box(psearcher.search_partition(&pprepared, &ppart, 2_000, 4).len()))
    });
}

fn bench_masking(c: &mut Criterion) {
    let mut rng = gen::rng(6);
    let seq = Alphabet::Dna.encode_seq(&gen::random_dna(&mut rng, 10_000, 0.5));
    c.bench_function("dust_mask_10kbp", |b| {
        b.iter(|| black_box(blast::dust::default_dust(&seq).len()))
    });
    let prot = Alphabet::Protein.encode_seq(&gen::random_protein(&mut rng, 2_000));
    c.bench_function("seg_mask_2kaa", |b| {
        b.iter(|| black_box(blast::dust::default_seg(&prot).len()))
    });
    let _ = SeqRecord::new("warm", b"ACGT".to_vec());
}

criterion_group!{
    name = benches;
    config = quick_config();
    targets =
    bench_lookup_build,
    bench_prepare,
    bench_gapped_kernels,
    bench_extensions,
    bench_work_unit,
    bench_masking

}
criterion_main!(benches);
