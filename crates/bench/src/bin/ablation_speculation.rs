//! Ablation: what does a straggler cost, and what does speculative
//! re-execution buy back?
//!
//! The paper's tail-idling observation (§IV.A: "the entire MPI program then
//! has to wait for that longest unit of work to finish") gets strictly worse
//! when a unit is long not because of its content but because its *worker*
//! is sick — a GC pause, a flaky NIC, a contended node. Fail-stop recovery
//! (PR 1) never fires: the rank is alive, just late. This bench quantifies
//! the heartbeat + speculation layer of `mrmpi::sched`:
//!
//! * a model sweep at the paper's 80K-query nucleotide workload on 1024
//!   cores: one worker freezes mid-run for various durations; makespan with
//!   speculation off vs on;
//! * a real 9-rank run (8 workers) with one worker stalled mid-map,
//!   speculation off vs on, verifying the speculative output is bit-for-bit
//!   the fault-free output and the wall clock no longer tracks the stall.
//!
//! Results also land as hand-rolled JSON in `target/figures/`.

use bench::{artifact_dir, header, minutes, percent, row, stage_json};
use bioseq::db::{format_db, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::shred::query_blocks;
use mpisim::{FaultPlan, RankOutcome, World};
use mrbio::{run_mrblast, FaultConfig, MrBlastConfig, Schedule};
use mrmpi::FtConfig;
use perfmodel::{
    simulate_master_worker, simulate_master_worker_speculative, BlastScenario, ClusterModel,
    Stall,
};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

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

    // ---- model sweep: one frozen worker, speculation off vs on ----
    header(
        "Model: one worker frozen mid-run (1024 cores, makespan minutes)",
        &["stall", "spec_off", "spec_on", "hidden", "backups"],
    );
    let mut json_rows = Vec::new();
    for &stall_min in &[5.0f64, 15.0, 60.0] {
        let stalls =
            [Stall { worker: 17, at_s: base.makespan_s * 0.3, dur_s: stall_min * 60.0 }];
        let off = simulate_master_worker_speculative(
            &cluster,
            cores,
            &tasks,
            scenario.partition_gb,
            &stalls,
            15.0,
            false,
        );
        let on = simulate_master_worker_speculative(
            &cluster,
            cores,
            &tasks,
            scenario.partition_gb,
            &stalls,
            15.0,
            true,
        );
        let hidden = (off.makespan_s - on.makespan_s) / (off.makespan_s - base.makespan_s);
        row(&[
            format!("{stall_min:.0} min"),
            minutes(off.makespan_s),
            minutes(on.makespan_s),
            percent(hidden.clamp(0.0, 1.0)),
            format!("{}", on.speculated),
        ]);
        json_rows.push(format!(
            "    {{\"stall_min\": {stall_min}, \"spec_off_s\": {:.1}, \"spec_on_s\": {:.1}, \"speculated\": {}}}",
            off.makespan_s, on.makespan_s, on.speculated
        ));
    }
    println!(
        "\nThe frozen worker's in-flight unit is re-launched on an idle peer \
         once it misses its deadline; the first completion wins, so the run \
         stops tracking the stall entirely.\n"
    );

    // ---- real 9-rank run: stall 1 of 8 workers mid-map ----
    let wcfg = WorkloadConfig {
        db_seqs: 12,
        db_seq_len: 1300,
        queries: 30,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(811, &wcfg);
    let dir = std::env::temp_dir().join(format!("spec-bench-{}", std::process::id()));
    let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(1000), &dir, "db").expect("format"));
    let blocks = Arc::new(query_blocks(w.queries, 6));
    let stall_s = 2.5f64;

    // Fast detector for a small run: suspect after 100 ms of silence.
    let ft = FtConfig {
        rpc_timeout: Duration::from_millis(25),
        suspect_after: Duration::from_millis(100),
        spec_backoff: Duration::from_millis(50),
        ..FtConfig::default()
    };

    let run = |speculate: bool, plan: Option<FaultPlan>| {
        let db = db.clone();
        let blocks = blocks.clone();
        let ft = FtConfig { speculate, ..ft.clone() };
        let collector = obs::Collector::new();
        let world = match plan {
            Some(p) => World::new(9).with_faults(p),
            None => World::new(9),
        }
        .with_obs(collector.clone());
        let t0 = std::time::Instant::now();
        let outcomes = world.run_faulty(move |comm| {
            let schedule = Schedule::MasterWorker(FaultConfig { ft: ft.clone() });
            let cfg = MrBlastConfig { schedule, ..MrBlastConfig::blastn() };
            run_mrblast(comm, &db, &blocks, &cfg)
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut lines: Vec<String> = Vec::new();
        for out in outcomes {
            if let RankOutcome::Done(Ok(rep)) = out {
                lines.extend(rep.hits.iter().map(blast::format::tabular_line));
            }
        }
        lines.sort();
        let trace = collector.trace();
        trace.validate().expect("bench trace must be well-formed");
        (wall, lines, trace)
    };

    let (t_clean, hits_clean, trace_clean) = run(false, None);
    let stall_plan = || FaultPlan::new(3).stall(4, 0.002, stall_s);
    let (t_off, hits_off, trace_off) = run(false, Some(stall_plan()));
    let (t_on, hits_on, trace_on) = run(true, Some(stall_plan()));
    assert_eq!(
        trace_clean.counter_total("sched.speculative_dispatch"),
        0,
        "a fault-free run must not speculate"
    );
    assert_eq!(
        trace_off.counter_total("sched.speculative_dispatch"),
        0,
        "speculation off must never dispatch a backup"
    );

    header(
        "Real 9-rank run, one worker stalled 2.5 s mid-map",
        &["run", "wall_s", "vs_clean", "bit_for_bit"],
    );
    row(&["fault-free".into(), format!("{t_clean:.3}"), "-".into(), "-".into()]);
    row(&[
        "stall, speculation off".into(),
        format!("{t_off:.3}"),
        percent(t_off / t_clean - 1.0),
        if hits_off == hits_clean { "yes" } else { "NO" }.into(),
    ]);
    row(&[
        "stall, speculation on".into(),
        format!("{t_on:.3}"),
        percent(t_on / t_clean - 1.0),
        if hits_on == hits_clean { "yes" } else { "NO" }.into(),
    ]);
    println!(
        "\nWith speculation off the run waits out the stall; with it on, the \
         straggler's unit is re-run on an idle worker and the stalled rank is \
         fenced when the backup commits."
    );

    let json = format!(
        "{{\n  \"model_1024_cores\": [\n{}\n  ],\n  \"real_9_ranks\": {{\n    \
         \"stall_s\": {stall_s}, \"clean_s\": {t_clean:.3}, \"spec_off_s\": {t_off:.3}, \
         \"spec_on_s\": {t_on:.3},\n    \"spec_off_bit_for_bit\": {}, \
         \"spec_on_bit_for_bit\": {},\n    \"stages_clean\": {},\n    \
         \"stages_spec_off\": {},\n    \"stages_spec_on\": {}\n  }}\n}}\n",
        json_rows.join(",\n"),
        hits_off == hits_clean,
        hits_on == hits_clean,
        stage_json(&trace_clean),
        stage_json(&trace_off),
        stage_json(&trace_on),
    );
    let path = artifact_dir().join("ablation_speculation.json");
    let mut f = std::fs::File::create(&path).expect("create json artifact");
    f.write_all(json.as_bytes()).expect("write json artifact");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bench_root = root.join("BENCH_speculation.json");
    std::fs::File::create(&bench_root)
        .expect("create BENCH_speculation.json")
        .write_all(json.as_bytes())
        .expect("write BENCH_speculation.json");
    println!("\nwrote {}\nwrote {}", path.display(), bench_root.display());

    std::fs::remove_dir_all(&dir).ok();
}
