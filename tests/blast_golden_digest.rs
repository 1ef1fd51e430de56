//! Golden hit digests: the serial BLAST engine's tabular output on four
//! seeded workloads, hashed with FNV-1a and pinned. Any change to seeding,
//! extension, traceback or statistics that moves a single output byte
//! changes a digest. The pinned values were computed before the seed table
//! and the DP kernels were rewritten for speed, so these tests prove the
//! rewrite bit-for-bit.

use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::{shred_record, ShredConfig};
use blast::format::tabular_line;
use blast::search::BlastSearcher;
use blast::SearchParams;
use rand::Rng;

/// FNV-1a over every hit's tabular line, newline-terminated.
fn fnv1a(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Format `refs` into a partitioned DB, run `search_db_serial`, and return
/// (hit count, digest of the tabular lines).
fn digest(
    tag: &str,
    refs: &[SeqRecord],
    queries: &[SeqRecord],
    cfg: &FormatDbConfig,
    params: SearchParams,
) -> (usize, u64) {
    let dir = std::env::temp_dir().join(format!("it-golden-hits-{tag}-{}", std::process::id()));
    let db = format_db(refs, cfg, &dir, tag).expect("format db");
    assert!(db.num_partitions() > 1, "{tag}: want several partitions");
    let hits = BlastSearcher::new(params).search_db_serial(queries, &db).expect("search");
    std::fs::remove_dir_all(&dir).ok();
    let lines: Vec<String> = hits.iter().map(tabular_line).collect();
    (lines.len(), fnv1a(&lines))
}

/// Families of related strains, searched by overlapping 400 bp reads of one
/// more strain per family: every read has several gapped homologs.
#[test]
fn reads_family_workload_digest_is_pinned() {
    let mut r = gen::rng(7101);
    let mut refs = Vec::new();
    let mut queries = Vec::new();
    for f in 0..3 {
        let ancestor = gen::random_dna(&mut r, 3_000, 0.5);
        for s in 0..3 {
            let strain = gen::mutate_dna(&mut r, &ancestor, 0.06, 0.01);
            refs.push(SeqRecord::new(format!("fam{f}_strain{s}"), strain));
        }
        let sample = SeqRecord::new(
            format!("fam{f}_sample"),
            gen::mutate_dna(&mut r, &ancestor, 0.06, 0.01),
        );
        queries.extend(shred_record(&sample, &ShredConfig::default()));
    }
    let got = digest("reads", &refs, &queries, &FormatDbConfig::dna(5_000), SearchParams::blastn());
    assert_eq!(got, (171, 0x412c64bd489bee4b), "reads digest");
}

/// Many unrelated references and mostly decoy queries: the seed scan and
/// the X-drop's early exits dominate.
#[test]
fn decoy_heavy_wide_db_digest_is_pinned() {
    let cfg = WorkloadConfig {
        db_seqs: 24,
        db_seq_len: 3_000,
        queries: 40,
        homolog_fraction: 0.2,
        sub_rate: 0.08,
        indel_rate: 0.01,
        ..WorkloadConfig::default()
    };
    let w = gen::dna_workload(7102, &cfg);
    let got =
        digest("widedb", &w.db, &w.queries, &FormatDbConfig::dna(9_000), SearchParams::blastn());
    assert_eq!(got, (148, 0x1b60a3ee856d4220), "widedb digest");
}

#[test]
fn blastp_digest_is_pinned() {
    let cfg = WorkloadConfig {
        db_seqs: 12,
        db_seq_len: 400,
        queries: 12,
        query_len: 150,
        homolog_fraction: 0.6,
        sub_rate: 0.25,
        ..WorkloadConfig::default()
    };
    let w = gen::protein_workload(7103, &cfg);
    let got = digest(
        "blastp",
        &w.db,
        &w.queries,
        &FormatDbConfig::protein(1_500),
        SearchParams::blastp(),
    );
    assert_eq!(got, (10, 0x2631d82323b52f29), "blastp digest");
}

/// DNA reads carrying coding regions of database proteins (fixed codons,
/// then point mutations), plus decoys, against a partitioned protein DB.
#[test]
fn blastx_digest_is_pinned() {
    let codon = |aa: u8| -> &'static [u8] {
        match aa {
            b'A' => b"GCT",
            b'R' => b"CGT",
            b'N' => b"AAT",
            b'D' => b"GAT",
            b'C' => b"TGT",
            b'Q' => b"CAA",
            b'E' => b"GAA",
            b'G' => b"GGT",
            b'H' => b"CAT",
            b'I' => b"ATT",
            b'L' => b"CTT",
            b'K' => b"AAA",
            b'M' => b"ATG",
            b'F' => b"TTT",
            b'P' => b"CCT",
            b'S' => b"TCT",
            b'T' => b"ACT",
            b'W' => b"TGG",
            b'Y' => b"TAT",
            b'V' => b"GTT",
            _ => b"GCT",
        }
    };
    let mut r = gen::rng(7104);
    let proteins: Vec<SeqRecord> =
        (0..8).map(|i| SeqRecord::new(format!("p{i}"), gen::random_protein(&mut r, 300))).collect();
    let mut queries = Vec::new();
    for q in 0..12 {
        if q % 4 == 3 {
            queries.push(SeqRecord::new(format!("xq{q}"), gen::random_dna(&mut r, 360, 0.5)));
            continue;
        }
        let src = q % proteins.len();
        let start = r.random_range(0..200);
        let coding: Vec<u8> = proteins[src].seq[start..start + 90]
            .iter()
            .flat_map(|&aa| codon(aa).iter().copied())
            .collect();
        let mut dna = gen::random_dna(&mut r, 30 + q, 0.5);
        dna.extend(gen::mutate_dna(&mut r, &coding, 0.08, 0.0));
        dna.extend(gen::random_dna(&mut r, 40, 0.5));
        queries.push(SeqRecord::new(format!("xq{q}"), dna));
    }
    let got = digest(
        "blastx",
        &proteins,
        &queries,
        &FormatDbConfig::protein(700),
        SearchParams::blastx(),
    );
    assert_eq!(got, (9, 0x13a08deea383e9a9), "blastx digest");
}
