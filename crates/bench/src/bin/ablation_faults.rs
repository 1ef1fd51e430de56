//! Ablation: worker failure and re-dispatch cost at paper scale.
//!
//! The paper rules fault tolerance out of scope: "the price for this extra
//! flexibility and portability is a lack of fault-tolerance inherent in the
//! underlying MPI execution model" (§II.A) — one dead rank kills the whole
//! 1024-core run and every core-minute already spent. This ablation
//! quantifies the alternative implemented in `mrmpi::sched`: detect the
//! death, re-dispatch the dead worker's units (in flight *and* completed,
//! since its emitted key-values die with it) to survivors, and finish.
//!
//! Two levels: the DES at the paper's 80K-query nucleotide workload on 1024
//! cores (failure count and timing swept), and a real small-scale run with
//! injected deaths cross-checking that the recovered output is identical.

use bench::{header, minutes, percent, row};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use mpisim::{FaultPlan, RankOutcome, World};
use mrbio::{run_mrblast, MrBlastConfig};
use perfmodel::{
    simulate_master_worker, simulate_master_worker_faulty, BlastScenario, ClusterModel, Failure,
};
use std::sync::Arc;

fn main() {
    let cluster = ClusterModel::ranger();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let tasks = scenario.tasks();
    let cores = 1024;
    let detect_s = 0.5;

    let base = simulate_master_worker(&cluster, cores, &tasks, scenario.partition_gb);
    println!(
        "Fault-free baseline: {} work units on {} cores -> {} min\n",
        tasks.len(),
        cores,
        minutes(base.makespan_s)
    );

    // Failures spread evenly over the worker ranks, all striking at the
    // same fraction of the fault-free makespan. Late deaths are the
    // expensive ones: every unit the dead workers finished must be redone.
    header(
        "Model: failures at 1024 cores (80K-query nucleotide workload)",
        &["failures", "strike_at", "makespan_min", "redone_units", "overhead"],
    );
    for &(nfail, frac) in
        &[(1usize, 0.5f64), (4, 0.5), (16, 0.5), (16, 0.1), (16, 0.9), (64, 0.5)]
    {
        let workers = cores - 1;
        let failures: Vec<Failure> = (0..nfail)
            .map(|i| Failure {
                worker: i * workers / nfail,
                at_s: base.makespan_s * frac,
            })
            .collect();
        let r = simulate_master_worker_faulty(
            &cluster,
            cores,
            &tasks,
            scenario.partition_gb,
            &failures,
            detect_s,
        );
        row(&[
            nfail.to_string(),
            format!("{:.0}% of run", frac * 100.0),
            minutes(r.makespan_s),
            r.redispatched.to_string(),
            percent(r.makespan_s / base.makespan_s - 1.0),
        ]);
    }
    println!(
        "\nRestarting the whole job instead (the MPI default) always costs \
         the full strike time plus a complete rerun: a 90%-point failure \
         wastes {} min of core time before the restart even begins.",
        minutes(base.makespan_s * 0.9)
    );

    // ---- real small-scale cross-check: inject deaths, diff the output ----
    let cfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 24,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(777, &cfg);
    let dir = std::env::temp_dir().join(format!("faults-bench-{}", std::process::id()));
    let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").expect("format"));
    let blocks = Arc::new(query_blocks(w.queries, 4));

    let db2 = db.clone();
    let blocks2 = blocks.clone();
    let healthy = World::new(4).run(move |comm| {
        run_mrblast(comm, &db2, &blocks2, &MrBlastConfig::blastn()).unwrap()
    });
    let mut healthy_hits: Vec<String> = healthy
        .iter()
        .flat_map(|r| r.hits.iter().map(|h| format!("{h:?}")))
        .collect();
    healthy_hits.sort();

    println!();
    header("Real small-scale check (4 ranks, recovering driver)", &["deaths", "hits", "identical"]);
    for deaths in [0usize, 1, 2] {
        let db = db.clone();
        let blocks = blocks.clone();
        let mut plan = FaultPlan::new(4242);
        for d in 0..deaths {
            plan = plan.kill(d + 1, 0.0);
        }
        let outcomes = World::new(4).with_faults(plan).run_faulty(move |comm| {
            run_mrblast(comm, &db, &blocks, &MrBlastConfig::blastn())
        });
        let mut hits: Vec<String> = Vec::new();
        for out in &outcomes {
            if let RankOutcome::Done(Ok(rep)) = out {
                hits.extend(rep.hits.iter().map(|h| format!("{h:?}")));
            }
        }
        hits.sort();
        row(&[
            deaths.to_string(),
            hits.len().to_string(),
            if hits == healthy_hits { "yes".into() } else { "NO".to_string() },
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
