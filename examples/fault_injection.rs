//! Fault injection: kill workers mid-run and still get the right answer.
//!
//! Builds a synthetic workload, runs the fault-tolerant MR-MPI BLAST on
//! eight simulated ranks while a seeded fault plan kills two workers
//! mid-map, and cross-checks the survivors' merged output against the
//! serial engine. Then repeats with every worker dead to show the failure
//! is reported as a typed error, not a hang or silent truncation.
//!
//! Run with: `cargo run --release --example fault_injection`

use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{dna_workload, WorkloadConfig};
use bioseq::shred::query_blocks;
use blast::search::BlastSearcher;
use blast::SearchParams;
use mpisim::{FaultPlan, RankOutcome, World};
use mrbio::{run_mrblast, MrBlastConfig};
use std::sync::Arc;

fn main() {
    let workload = dna_workload(42, &WorkloadConfig::default());
    let dir = std::env::temp_dir().join(format!("fault-demo-{}", std::process::id()));
    let db = Arc::new(
        format_db(&workload.db, &FormatDbConfig::dna(8_192), &dir, "demo")
            .expect("format database"),
    );
    let blocks = Arc::new(query_blocks(workload.queries.clone(), 25));

    let serial = BlastSearcher::new(SearchParams::blastn())
        .search_db_serial(&workload.queries, &db)
        .expect("serial search");

    // Ranks 3 and 6 die at the given virtual-clock times, mid-map. Same
    // seed, same deaths, same schedule: the run is fully reproducible.
    let plan = FaultPlan::new(42).kill(3, 1e-4).kill(6, 2e-4);
    let (db2, blocks2) = (db.clone(), blocks.clone());
    let outcomes = World::new(8).with_faults(plan).run_faulty(move |comm| {
        run_mrblast(comm, &db2, &blocks2, &MrBlastConfig::blastn())
    });

    let mut hits = Vec::new();
    for (rank, out) in outcomes.iter().enumerate() {
        match out {
            RankOutcome::Done(Ok(report)) => {
                println!("rank {rank}: survived, {} hits", report.hits.len());
                hits.extend(report.hits.iter().cloned());
            }
            RankOutcome::Done(Err(e)) => println!("rank {rank}: failed: {e}"),
            RankOutcome::Died { at } => println!("rank {rank}: died at t={at:.4}s"),
        }
    }
    let key =
        |h: &blast::Hit| (h.query_id.clone(), h.subject_id.clone(), h.q_start, h.s_start);
    let mut got: Vec<_> = hits.iter().map(key).collect();
    let mut want: Vec<_> = serial.iter().map(key).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "survivors' output must match the serial engine");
    println!(
        "with 2 of 7 workers dead: {} hits, identical to the serial engine\n",
        hits.len()
    );

    // Now kill every worker: the job cannot finish, and the contract is a
    // typed error on the master — never a hang, never partial output
    // passed off as complete.
    let mut plan = FaultPlan::new(7);
    for w in 1..8 {
        plan = plan.kill(w, 0.0);
    }
    let (db3, blocks3) = (db.clone(), blocks.clone());
    let outcomes = World::new(8).with_faults(plan).run_faulty(move |comm| {
        run_mrblast(comm, &db3, &blocks3, &MrBlastConfig::blastn())
    });
    match &outcomes[0] {
        RankOutcome::Done(Err(e)) => println!("all workers dead -> master reports: {e}"),
        other => panic!("expected a typed error on the master, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
