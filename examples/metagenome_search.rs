//! The paper's primary BLAST use case: metagenomic taxonomic classification.
//!
//! Reference genomes are shredded into 400 bp reads overlapping by 200 bp
//! (exactly the paper's §IV.A procedure), searched against a partitioned
//! reference database with self-hits excluded, and each read is classified
//! to the taxon of its best remaining hit. The run uses the full MR-MPI
//! pipeline — master-worker map over (query block × partition) work units,
//! collate by read id, E-value-sorted per-rank output files — and prints a
//! classification accuracy summary.
//!
//! Run with: `cargo run --release --example metagenome_search`

use bioseq::gen::{self, rng};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::{query_blocks, shred_records, ShredConfig};
use mpisim::World;
use mrbio::{run_mrblast, MrBlastConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let mut r = rng(2026);

    // Two synthetic "taxa": each a family of genomes derived from a common
    // ancestor (high within-taxon identity, none across).
    let mut db_records = Vec::new();
    let mut taxon_of = HashMap::new();
    for taxon in ["alpha", "beta"] {
        let ancestor = gen::random_dna(&mut r, 6_000, 0.5);
        for strain in 0..3 {
            let genome = gen::mutate_dna(&mut r, &ancestor, 0.03, 0.002);
            let id = format!("{taxon}_strain{strain}");
            taxon_of.insert(id.clone(), taxon);
            db_records.push(SeqRecord::new(id, genome));
        }
    }

    let dir = std::env::temp_dir().join(format!("metagenome-{}", std::process::id()));
    let db = format_db(&db_records, &FormatDbConfig::dna(3_000), &dir, "refdb")
        .expect("format database");
    println!(
        "reference DB: {} genomes, {} partitions, {} residues",
        db.total_sequences,
        db.num_partitions(),
        db.total_residues
    );

    // Simulated reads: shred one strain of each taxon (the paper's 400/200
    // shredding), so every read's true taxon is known.
    let read_sources: Vec<SeqRecord> = db_records
        .iter()
        .filter(|rec| rec.id.ends_with("strain0"))
        .cloned()
        .collect();
    let reads = shred_records(&read_sources, &ShredConfig::default());
    println!("simulated reads: {} fragments of ≤400 bp", reads.len());

    let truth: HashMap<String, &str> = reads
        .iter()
        .map(|rd| {
            let src = rd.id.split_once('/').expect("fragment id").0;
            (rd.id.clone(), *taxon_of.get(src).expect("known source"))
        })
        .collect();

    // Parallel search with self-hit exclusion (reads come from DB genomes).
    let db = Arc::new(db);
    let blocks = Arc::new(query_blocks(reads, 8));
    let outdir = dir.join("hits");
    let od = outdir.clone();
    let reports = World::new(4).run(move |comm| {
        let cfg = MrBlastConfig {
            exclude_self: true,
            output_dir: Some(od.clone()),
            ..MrBlastConfig::blastn()
        };
        run_mrblast(comm, &db, &blocks, &cfg).expect("fault-free run")
    });

    // Classify each read by its best hit (hits arrive E-value-sorted per
    // query, so the first hit per query id wins).
    let mut correct = 0usize;
    let mut classified = 0usize;
    let mut seen = std::collections::HashSet::new();
    for rep in &reports {
        for hit in &rep.hits {
            if !seen.insert(hit.query_id.clone()) {
                continue; // best hit already taken
            }
            classified += 1;
            let predicted = taxon_of.get(&hit.subject_id).copied().unwrap_or("?");
            if truth.get(&hit.query_id).copied() == Some(predicted) {
                correct += 1;
            }
        }
        if let Some(path) = &rep.output_file {
            let lines = std::fs::read_to_string(path).map(|s| s.lines().count()).unwrap_or(0);
            println!("  rank {} wrote {} hit lines to {}", rep.rank, lines, path.display());
        }
    }
    let total = truth.len();
    println!(
        "classified {classified}/{total} reads; taxon accuracy {}/{classified} = {:.1}%",
        correct,
        100.0 * correct as f64 / classified.max(1) as f64
    );
    assert!(classified > 0, "search must classify reads");
    assert!(correct * 10 >= classified * 9, "within-taxon hits must dominate");
    std::fs::remove_dir_all(&dir).ok();
}
