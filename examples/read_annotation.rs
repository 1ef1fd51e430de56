//! Read annotation: FASTQ quality filtering → translated search (blastx)
//! against a protein database → per-read annotation, plus a BLAST-style
//! pairwise alignment rendering of a nucleotide mapping.
//!
//! This is the other half of the paper's §I motivation: metagenomic reads
//! are searched as "predicted … protein fragments" against characterized
//! protein collections. Exercises the FASTQ reader, six-frame translation,
//! the parallel pipeline in blastx mode, and the alignment report writer.
//!
//! Run with: `cargo run --release --example read_annotation`

use bioseq::db::{format_db, FormatDbConfig};
use bioseq::fastq::load_reads;
use bioseq::gen::{self, rng};
use bioseq::seq::SeqRecord;
use bioseq::shred::query_blocks;
use blast::format::pairwise_alignment_text;
use blast::search::{BlastSearcher, SearchMode};
use blast::{Scoring, SearchParams};
use mpisim::World;
use mrbio::{run_mrblast, MrBlastConfig};
use rand::Rng;
use std::io::Write;
use std::sync::Arc;

fn main() {
    let mut r = rng(606);

    // A small "characterized protein" database: 5 protein families.
    let proteins: Vec<SeqRecord> = (0..5)
        .map(|i| SeqRecord::new(format!("family{i}"), gen::random_protein(&mut r, 220)))
        .collect();
    let dir = std::env::temp_dir().join(format!("annot-{}", std::process::id()));
    let db = format_db(&proteins, &FormatDbConfig::protein(2_000), &dir, "prots")
        .expect("format protein db");

    // Simulated sequencing reads: coding fragments of the proteins with
    // random synonymous-ish codons plus quality strings; a few junk reads.
    let codon_choices = |aa: u8| -> Vec<&'static [u8]> {
        match aa {
            b'L' => vec![b"CTT", b"CTA", b"CTG", b"CTC"],
            b'S' => vec![b"TCT", b"TCA", b"TCG", b"TCC"],
            b'R' => vec![b"CGT", b"CGA", b"CGG", b"CGC"],
            b'A' => vec![b"GCT", b"GCA", b"GCG", b"GCC"],
            b'G' => vec![b"GGT", b"GGA", b"GGG", b"GGC"],
            b'V' => vec![b"GTT", b"GTA", b"GTG", b"GTC"],
            b'T' => vec![b"ACT", b"ACA", b"ACG", b"ACC"],
            b'P' => vec![b"CCT", b"CCA", b"CCG", b"CCC"],
            b'K' => vec![b"AAA", b"AAG"],
            b'N' => vec![b"AAT", b"AAC"],
            b'D' => vec![b"GAT", b"GAC"],
            b'E' => vec![b"GAA", b"GAG"],
            b'Q' => vec![b"CAA", b"CAG"],
            b'H' => vec![b"CAT", b"CAC"],
            b'I' => vec![b"ATT", b"ATA", b"ATC"],
            b'F' => vec![b"TTT", b"TTC"],
            b'Y' => vec![b"TAT", b"TAC"],
            b'C' => vec![b"TGT", b"TGC"],
            b'M' => vec![b"ATG"],
            b'W' => vec![b"TGG"],
            _ => vec![b"GCT"],
        }
    };

    let fastq_path = dir.join("reads.fq");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&fastq_path).unwrap());
        let mut truth = Vec::new();
        for i in 0..20 {
            let (seq, label): (Vec<u8>, String) = if i % 5 == 4 {
                (gen::random_dna(&mut r, 240, 0.5), "junk".into())
            } else {
                let fam = i % proteins.len();
                let start = r.random_range(0..120);
                let coding: Vec<u8> = proteins[fam].seq[start..start + 60]
                    .iter()
                    .flat_map(|&aa| {
                        let cs = codon_choices(aa);
                        cs[r.random_range(0..cs.len())].to_vec()
                    })
                    .collect();
                (coding, format!("family{fam}"))
            };
            truth.push(label.clone());
            // Mostly good qualities with a low-quality tail on some reads.
            let qual: String = (0..seq.len())
                .map(|p| if i % 7 == 3 && p > seq.len() - 20 { '#' } else { 'I' })
                .collect();
            writeln!(f, "@read{i} true={label}\n{}\n+\n{qual}", String::from_utf8_lossy(&seq))
                .unwrap();
        }
    }

    // FASTQ → quality-filtered reads.
    let reads = load_reads(&fastq_path, 25.0, 10).expect("load FASTQ");
    println!("loaded {} quality-filtered reads from {}", reads.len(), fastq_path.display());

    // Parallel blastx annotation.
    let db = Arc::new(db);
    let blocks = Arc::new(query_blocks(reads, 5));
    let db2 = db.clone();
    let reports = World::new(3).run(move |comm| {
        let cfg = MrBlastConfig {
            params: SearchParams::blastx().with_evalue(1e-8),
            ..MrBlastConfig::blastp()
        };
        run_mrblast(comm, &db2, &blocks, &cfg).expect("fault-free run")
    });

    let mut annotated = 0usize;
    let mut seen = std::collections::HashSet::new();
    for rep in &reports {
        for hit in &rep.hits {
            if seen.insert(hit.query_id.clone()) {
                annotated += 1;
                println!(
                    "  {} → {} (E = {:.1e}, frame strand {:?})",
                    hit.query_id, hit.subject_id, hit.evalue, hit.strand
                );
            }
        }
    }
    println!("annotated {annotated} reads by translated search");
    assert!(annotated >= 12, "most coding reads should annotate, got {annotated}");

    // Bonus: a nucleotide mapping rendered as a classic pairwise alignment.
    let genome = SeqRecord::new("ref_genome", gen::random_dna(&mut r, 2_000, 0.5));
    let read = SeqRecord::new("mapped_read", {
        gen::mutate_dna(&mut r, &genome.seq[700..1000], 0.04, 0.004)
    });
    let searcher = BlastSearcher::with_mode(SearchMode::Blastn);
    let prepared = searcher.prepare_queries(std::slice::from_ref(&read));
    let part = bioseq::db::partition_records(
        std::slice::from_ref(&genome),
        &FormatDbConfig::dna(usize::MAX),
    )
    .into_iter()
    .next()
    .expect("partition");
    let hits = searcher.search_partition(&prepared, &part, 2_000, 1);
    let best = hits.first().expect("read must map");
    println!("\npairwise view of the best nucleotide mapping:\n");
    println!("{}", pairwise_alignment_text(best, &read, &genome, &Scoring::blastn_default()));

    std::fs::remove_dir_all(&dir).ok();
}
