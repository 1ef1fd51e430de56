//! Ablation: what does crash-consistent checkpoint/restart cost, and what
//! does it save?
//!
//! The paper accepts MPI's fail-stop model (§II.A): one dead rank kills the
//! whole run and every core-minute spent. PR 1 added worker-death recovery;
//! this PR adds the orthogonal half — durable per-iteration checkpoints, so
//! that even a *full-job* crash (head node, power, wall-time limit) resumes
//! from the last completed MapReduce iteration instead of from zero.
//!
//! Two levels, mirroring `ablation_faults`:
//!
//! * a model sweep at the paper's 80K-query nucleotide workload on 1024
//!   cores: core-minutes lost by a full-job crash at various points, with
//!   and without iteration checkpoints (restart-from-zero vs
//!   restart-from-last-iteration), for several iteration granularities;
//! * a real small-scale run measuring the checkpoint write overhead
//!   directly (same workload, checkpointing on vs off) and verifying the
//!   restarted output is bit-for-bit identical.

use bench::{header, minutes, percent, row};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use mpisim::World;
use mrbio::{run_mrblast, MrBlastConfig, Schedule};
use perfmodel::{simulate_master_worker, BlastScenario, ClusterModel};
use std::sync::Arc;

fn main() {
    let cluster = ClusterModel::ranger();
    let scenario = BlastScenario::paper_nucleotide(80_000, 1000);
    let tasks = scenario.tasks();
    let cores = 1024;

    let base = simulate_master_worker(&cluster, cores, &tasks, scenario.partition_gb);
    println!(
        "Fault-free baseline: {} work units on {} cores -> {} min\n",
        tasks.len(),
        cores,
        minutes(base.makespan_s)
    );

    // Model: a full-job crash at `frac` of the makespan. Without
    // checkpoints the whole prefix is recomputed; with per-iteration
    // checkpoints only the unfinished iteration is. An iteration covering
    // 1/k of the blocks completes (to first order) every makespan/k.
    header(
        "Model: full-job crash, restart cost (core-minutes recomputed)",
        &["crash_at", "no_ckpt", "ckpt_4_iters", "ckpt_16_iters", "ckpt_64_iters"],
    );
    for &frac in &[0.1f64, 0.5, 0.9] {
        let lost_no_ckpt = base.makespan_s * frac;
        let per_iter_cost = |iters: f64| -> f64 {
            let iter_len = base.makespan_s / iters;
            // Work since the last completed iteration boundary.
            (lost_no_ckpt / iter_len).fract() * iter_len
        };
        let core_min = |s: f64| format!("{:.0}", s * cores as f64 / 60.0);
        row(&[
            format!("{:.0}% of run", frac * 100.0),
            core_min(lost_no_ckpt),
            core_min(per_iter_cost(4.0)),
            core_min(per_iter_cost(16.0)),
            core_min(per_iter_cost(64.0)),
        ]);
    }
    println!(
        "\nThe checkpoint bounds recomputation by one iteration regardless of \
         when the crash lands; finer iterations shrink the bound (and the KV \
         working set) at the price of more shuffles and checkpoint writes."
    );

    // ---- real small-scale overhead + bit-for-bit restart check ----
    let wcfg = WorkloadConfig {
        db_seqs: 10,
        db_seq_len: 1200,
        queries: 24,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(778, &wcfg);
    let dir = std::env::temp_dir().join(format!("ckpt-bench-{}", std::process::id()));
    let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").expect("format"));
    let blocks = Arc::new(query_blocks(w.queries, 4));

    let run = |tag: &str, ckpt: bool, stop: Option<usize>| {
        let db = db.clone();
        let blocks = blocks.clone();
        let out = dir.join(format!("out-{tag}"));
        let ck = dir.join("ck");
        let t0 = std::time::Instant::now();
        World::new(4).run(move |comm| {
            let cfg = MrBlastConfig {
                blocks_per_iteration: 2,
                schedule: Schedule::Chunk, // reproducible output order
                output_dir: Some(out.clone()),
                checkpoint_dir: ckpt.then(|| ck.clone()),
                stop_after_iterations: stop,
                ..MrBlastConfig::blastn()
            };
            run_mrblast(comm, &db, &blocks, &cfg).unwrap();
        });
        t0.elapsed().as_secs_f64()
    };
    let read_out = |tag: &str| -> Vec<Vec<u8>> {
        (0..4)
            .map(|r| {
                std::fs::read(dir.join(format!("out-{tag}/hits.rank{r:04}.tsv")))
                    .unwrap_or_default()
            })
            .collect()
    };

    println!();
    header(
        "Real small-scale (4 ranks, 3 iterations)",
        &["run", "wall_s", "vs_no_ckpt", "bit_for_bit"],
    );
    let t_plain = run("plain", false, None);
    row(&["no checkpoint".into(), format!("{t_plain:.3}"), "-".into(), "-".into()]);
    let t_ckpt = run("ckpt", true, None);
    row(&[
        "checkpoint every iteration".into(),
        format!("{t_ckpt:.3}"),
        percent(t_ckpt / t_plain - 1.0),
        if read_out("ckpt") == read_out("plain") { "yes" } else { "NO" }.into(),
    ]);
    // Kill after iteration 1, restart to completion against the same files.
    std::fs::remove_dir_all(dir.join("ck")).ok();
    std::fs::remove_dir_all(dir.join("out-resume")).ok();
    let t_part = run("resume", true, Some(1));
    let t_rest = run("resume", true, None);
    row(&[
        "crash after iter 1 + restart".into(),
        format!("{:.3}", t_part + t_rest),
        percent((t_part + t_rest) / t_plain - 1.0),
        if read_out("resume") == read_out("plain") { "yes" } else { "NO" }.into(),
    ]);

    std::fs::remove_dir_all(&dir).ok();
}
