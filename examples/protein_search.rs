//! Protein BLAST through the MR-MPI pipeline — the paper's second BLAST
//! benchmark ("a subset of NCBI non-redundant environmental sequences …
//! against Uniref100 … with the E-value cutoff of 10e-4").
//!
//! Demonstrates the protein-specific machinery: BLOSUM62 neighborhood
//! seeding with threshold T, the two-hit heuristic, SEG-style masking, and
//! a tight E-value cutoff, all passed through the parallel driver
//! unchanged — the paper's point that wrapping the serial engine keeps
//! "any of the multitudes of options" available.
//!
//! Run with: `cargo run --release --example protein_search`

use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{protein_workload, WorkloadConfig};
use bioseq::shred::query_blocks;
use blast::SearchParams;
use mpisim::World;
use mrbio::{run_mrblast, MrBlastConfig};
use std::sync::Arc;

fn main() {
    let cfg = WorkloadConfig {
        db_seqs: 20,
        db_seq_len: 400,
        queries: 30,
        query_len: 120,
        homolog_fraction: 0.6,
        sub_rate: 0.25, // remote homologs: 75% identity
        ..Default::default()
    };
    let w = protein_workload(321, &cfg);

    let dir = std::env::temp_dir().join(format!("protein-search-{}", std::process::id()));
    let db = format_db(&w.db, &FormatDbConfig::protein(2_000), &dir, "uniref-like")
        .expect("format database");
    println!(
        "protein DB: {} sequences in {} partitions",
        db.total_sequences,
        db.num_partitions()
    );

    let planted: usize = w.planted.iter().filter(|p| p.is_some()).count();
    let expected: Vec<(String, String)> = w
        .planted
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.as_ref().map(|src| (w.queries[i].id.clone(), src.clone())))
        .collect();

    let db = Arc::new(db);
    let blocks = Arc::new(query_blocks(w.queries, 10));
    let reports = World::new(3).run(move |comm| {
        let cfg = MrBlastConfig {
            // The paper's protein run: E-value cutoff 1e-4.
            params: SearchParams::blastp().with_evalue(1e-4),
            ..MrBlastConfig::blastp()
        };
        run_mrblast(comm, &db, &blocks, &cfg).expect("fault-free run")
    });

    let mut found = 0usize;
    let mut total_hits = 0usize;
    for rep in &reports {
        total_hits += rep.hits.len();
    }
    for (qid, src) in &expected {
        let hit = reports
            .iter()
            .flat_map(|r| r.hits.iter())
            .any(|h| &h.query_id == qid && &h.subject_id == src);
        if hit {
            found += 1;
        }
    }
    println!(
        "{total_hits} hits at E<1e-4; recovered {found}/{planted} planted remote homologs \
         (75% identity)"
    );
    assert!(found * 10 >= planted * 7, "BLOSUM62 seeding must recover most remote homologs");
    std::fs::remove_dir_all(&dir).ok();
}
