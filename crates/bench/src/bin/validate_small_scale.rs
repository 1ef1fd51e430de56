//! Small-scale validation run: the real MR-MPI BLAST and batch SOM executed
//! end-to-end on this host at several rank counts, checked against the
//! serial engines. This is the evidence that the *application code* (not
//! the performance model) reproduces the paper's correctness claims:
//!
//! * BLAST: "using unmodified NCBI Toolkit ensures that the results are
//!   compatible" → parallel hit sets equal the serial engine's, at every
//!   rank count and mapstyle;
//! * SOM: the batch formulation "is not influenced by the order in which
//!   the input vectors are presented" → the parallel codebook equals the
//!   serial batch codebook.

use bench::{header, row};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use blast::search::BlastSearcher;
use blast::SearchParams;
use mpisim::World;
use mrbio::{run_mrblast, run_mrsom, MrBlastConfig, MrSomConfig, VectorMatrix};
use som::batch::batch_train;
use som::neighborhood::SomConfig;
use std::sync::Arc;

fn main() {
    header("Small-scale validation (real engine)", &["check", "ranks", "result"]);

    // ---- BLAST ----
    let cfg = WorkloadConfig {
        db_seqs: 12,
        db_seq_len: 1500,
        queries: 40,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(123, &cfg);
    let dir = std::env::temp_dir().join(format!("validate-{}", std::process::id()));
    let db = format_db(&w.db, &FormatDbConfig::dna(1200), &dir, "db").expect("format db");
    let serial = BlastSearcher::new(SearchParams::blastn())
        .search_db_serial(&w.queries, &db)
        .expect("serial search");
    let blocks = Arc::new(query_blocks(w.queries, 8));
    let db = Arc::new(db);

    for ranks in [1, 2, 4, 6] {
        let db = db.clone();
        let blocks = blocks.clone();
        let reports =
            World::new(ranks).run(move |comm| {
                run_mrblast(comm, &db, &blocks, &MrBlastConfig::blastn()).unwrap()
            });
        let mut parallel: Vec<_> = reports
            .iter()
            .flat_map(|r| r.hits.iter())
            .map(|h| (h.query_id.clone(), h.subject_id.clone(), h.q_start, h.raw_score))
            .collect();
        let mut expect: Vec<_> = serial
            .iter()
            .map(|h| (h.query_id.clone(), h.subject_id.clone(), h.q_start, h.raw_score))
            .collect();
        parallel.sort();
        expect.sort();
        let ok = parallel == expect;
        row(&[
            "mrblast == serial".into(),
            ranks.to_string(),
            if ok { format!("OK ({} hits)", expect.len()) } else { "MISMATCH".into() },
        ]);
        assert!(ok, "parallel BLAST output diverged at {ranks} ranks");
    }

    // ---- SOM ----
    let som = SomConfig { rows: 8, cols: 8, dims: 12, epochs: 8, sigma0: None, sigma_end: 1.0, seed: 9, ..SomConfig::default() };
    let vectors = gen::random_vectors(55, 200, 12);
    let serial_cb = batch_train(&vectors, &som);
    let mpath = dir.join("som.bin");
    VectorMatrix::create(&mpath, &vectors).expect("write matrix");

    for ranks in [1, 2, 4] {
        let mpath = mpath.clone();
        let results = World::new(ranks).run(move |comm| {
            let matrix = VectorMatrix::open(&mpath).expect("open");
            run_mrsom(comm, &matrix, &MrSomConfig { block_size: 25, ..MrSomConfig::new(som) })
        });
        let cb = &results[0].0;
        let max_dev = cb
            .weights
            .iter()
            .zip(&serial_cb.weights)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let ok = max_dev < 1e-9;
        row(&[
            "mrsom == serial batch".into(),
            ranks.to_string(),
            if ok { format!("OK (max dev {max_dev:.1e})") } else { format!("MISMATCH ({max_dev:.1e})") },
        ]);
        assert!(ok, "parallel SOM diverged at {ranks} ranks");
    }

    println!("\nall validation checks passed");
    std::fs::remove_dir_all(&dir).ok();
}
