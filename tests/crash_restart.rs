//! Crash-consistency integration tests: kill a run partway, restart it, and
//! demand bit-for-bit the output of a run that was never interrupted.
//!
//! The BLAST side exercises the durable restart checkpoint of
//! [`mrbio::ckpt`] (iteration skipping + output-truncation invariant); the
//! SOM side exercises checkpoint fallback past a deliberately corrupted
//! newest checkpoint. Disk faults — torn checkpoint writes, transient EIO —
//! are injected with [`mrmpi::DiskFaultPlan`] on top of the crash.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bioseq::db::{format_db, BlastDb, FormatDbConfig};
use bioseq::gen::{self, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::query_blocks;
use mpisim::World;
use mrbio::ckpt::BlastCheckpoint;
use mrbio::{
    checkpoint_path, disk_faults, run_mrblast, run_mrsom, MrBlastConfig, MrSomConfig, Schedule,
};
use mrmpi::DiskFaultPlan;
use som::neighborhood::SomConfig;

const RANKS: usize = 3;

struct BlastFixture {
    db: Arc<BlastDb>,
    blocks: Arc<Vec<Vec<SeqRecord>>>,
    dir: PathBuf,
}

fn blast_fixture(seed: u64, tag: &str) -> BlastFixture {
    let cfg = WorkloadConfig {
        db_seqs: 8,
        db_seq_len: 1100,
        queries: 18,
        homolog_fraction: 0.7,
        ..Default::default()
    };
    let w = gen::dna_workload(seed, &cfg);
    let dir = std::env::temp_dir().join(format!("crash-restart-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = format_db(&w.db, &FormatDbConfig::dna(900), &dir, "db").unwrap();
    BlastFixture {
        db: Arc::new(db),
        blocks: Arc::new(query_blocks(w.queries, 6)),
        dir,
    }
}

/// One `run_mrblast` invocation writing to `out`, checkpointing into `ck`,
/// optionally stopping after `stop` iterations and/or injecting disk faults.
fn blast_run(
    fx: &BlastFixture,
    out: &Path,
    ck: Option<&PathBuf>,
    stop: Option<usize>,
    faults: Option<DiskFaultPlan>,
) {
    let db = fx.db.clone();
    let blocks = fx.blocks.clone();
    let out = out.to_path_buf();
    let ck = ck.cloned();
    World::new(RANKS).run(move |comm| {
        let mut cfg = MrBlastConfig {
            blocks_per_iteration: 2,
            // Chunk assignment is reproducible run-to-run; the master-worker
            // schedule depends on measured task durations, which would make
            // *any* two runs differ in output order, interrupted or not.
            schedule: Schedule::Chunk,
            output_dir: Some(out.clone()),
            checkpoint_dir: ck.clone(),
            stop_after_iterations: stop,
            ..MrBlastConfig::blastn()
        };
        if let Some(plan) = &faults {
            cfg.mr_settings = disk_faults(cfg.mr_settings.clone(), plan.clone_plan());
        }
        run_mrblast(comm, &db, &blocks, &cfg).unwrap();
    });
}

/// Per-rank output file bytes, rank-indexed.
fn rank_outputs(dir: &Path) -> Vec<Vec<u8>> {
    (0..RANKS)
        .map(|r| std::fs::read(dir.join(format!("hits.rank{r:04}.tsv"))).unwrap())
        .collect()
}

#[test]
fn blast_crash_restart_bit_for_bit() {
    let fx = blast_fixture(61, "bitforbit");
    // Reference: one uninterrupted run, no checkpointing.
    let ref_out = fx.dir.join("ref-out");
    blast_run(&fx, &ref_out, None, None, None);
    let want = rank_outputs(&ref_out);
    assert!(want.iter().any(|b| !b.is_empty()), "workload must produce hits");

    // Crash after 1 of 3 iterations, then again after 1 more, then restart
    // to completion: two kill-and-restart cycles through the checkpoint.
    let out = fx.dir.join("ck-out");
    let ck = fx.dir.join("ck");
    blast_run(&fx, &out, Some(&ck), Some(1), None);
    let mid = BlastCheckpoint::load(&ck).expect("checkpoint after iteration 1");
    assert_eq!(mid.completed_blocks, 2, "2 blocks per iteration");
    blast_run(&fx, &out, Some(&ck), Some(1), None);
    blast_run(&fx, &out, Some(&ck), None, None);

    assert_eq!(rank_outputs(&out), want, "restarted output must be bit-for-bit");
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn restart_truncates_partial_output_back_to_checkpoint() {
    let fx = blast_fixture(62, "truncate");
    let ref_out = fx.dir.join("ref-out");
    blast_run(&fx, &ref_out, None, None, None);
    let want = rank_outputs(&ref_out);

    let out = fx.dir.join("ck-out");
    let ck = fx.dir.join("ck");
    blast_run(&fx, &out, Some(&ck), Some(1), None);
    // Simulate a crash mid-iteration-2: garbage (a torn half-line plus junk)
    // lands past the checkpointed offset in every rank's file.
    for r in 0..RANKS {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(out.join(format!("hits.rank{r:04}.tsv")))
            .unwrap();
        write!(f, "query7\tgarbage-partial-li").unwrap();
    }
    blast_run(&fx, &out, Some(&ck), None, None);
    assert_eq!(
        rank_outputs(&out),
        want,
        "partial bytes past the checkpoint offset must be truncated away"
    );
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn corrupt_blast_checkpoint_restarts_cleanly_bit_for_bit() {
    let fx = blast_fixture(63, "corruptck");
    let ref_out = fx.dir.join("ref-out");
    blast_run(&fx, &ref_out, None, None, None);
    let want = rank_outputs(&ref_out);

    let out = fx.dir.join("ck-out");
    let ck = fx.dir.join("ck");
    blast_run(&fx, &out, Some(&ck), Some(2), None);
    // Bit-rot the checkpoint file itself.
    let ck_file = BlastCheckpoint::path(&ck);
    let mut bytes = std::fs::read(&ck_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ck_file, &bytes).unwrap();
    assert!(BlastCheckpoint::load(&ck).is_none(), "corrupt checkpoint must not load");

    // Restart: falls back to a clean full recompute, still bit-for-bit.
    blast_run(&fx, &out, Some(&ck), None, None);
    assert_eq!(rank_outputs(&out), want, "clean recompute after checkpoint corruption");
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn blast_restart_survives_torn_checkpoint_write_and_transient_eio() {
    let fx = blast_fixture(64, "diskfaults");
    let ref_out = fx.dir.join("ref-out");
    blast_run(&fx, &ref_out, None, None, None);
    let want = rank_outputs(&ref_out);

    // Tear the very first checkpoint write (crash before rename) and make
    // the second attempt fail with a transient EIO (retried internally).
    let out = fx.dir.join("ck-out");
    let ck = fx.dir.join("ck");
    let plan = DiskFaultPlan::new(99).torn_at(0, 6).eio_at(1);
    blast_run(&fx, &out, Some(&ck), Some(2), Some(plan));
    // The torn iteration-1 checkpoint was discarded; iteration 2's survived
    // its transient EIO, so the newest durable state covers all 3 blocks
    // ([0,2) then [2,3)).
    let ck_state = BlastCheckpoint::load(&ck).expect("surviving checkpoint");
    assert_eq!(ck_state.completed_blocks, 3);

    blast_run(&fx, &out, Some(&ck), None, None);
    assert_eq!(rank_outputs(&out), want, "bit-for-bit despite torn + EIO checkpoints");
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn som_resume_with_corrupt_newest_checkpoint_falls_back() {
    let dims = 5;
    let vectors = bioseq::gen::random_vectors(71, 90, dims);
    let base = std::env::temp_dir().join(format!("crash-restart-som-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    let mpath = base.join("inputs.bin");
    mrbio::VectorMatrix::create(&mpath, &vectors).unwrap();
    let som = SomConfig {
        rows: 5,
        cols: 5,
        dims,
        epochs: 8,
        sigma0: None,
        sigma_end: 1.0,
        seed: 13,
        ..SomConfig::default()
    };

    // Reference: uninterrupted training.
    let p = mpath.clone();
    let full = World::new(2).run(move |comm| {
        let matrix = mrbio::VectorMatrix::open(&p).unwrap();
        run_mrsom(comm, &matrix, &MrSomConfig { block_size: 15, ..MrSomConfig::new(som) })
    });

    // Interrupted mid-training: checkpoints at epochs 2 and 4, killed after 4.
    let ckdir = base.join("ck");
    let p = mpath.clone();
    let ck = ckdir.clone();
    World::new(2).run(move |comm| {
        let matrix = mrbio::VectorMatrix::open(&p).unwrap();
        let cfg = MrSomConfig {
            block_size: 15,
            checkpoint_dir: Some(ck.clone()),
            checkpoint_every: 2,
            stop_after_epochs: Some(4),
            ..MrSomConfig::new(som)
        };
        run_mrsom(comm, &matrix, &cfg)
    });

    // The crash also corrupted the newest checkpoint (epoch 4): flip a bit
    // inside its payload. Resume must fall back to epoch 2, retrain epochs
    // 3..8, and still match the uninterrupted run exactly.
    let newest = checkpoint_path(&ckdir, 4);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).unwrap();
    assert!(checkpoint_path(&ckdir, 2).exists(), "older checkpoint expected");

    let p = mpath.clone();
    let ck = ckdir.clone();
    let resumed = World::new(2).run(move |comm| {
        let matrix = mrbio::VectorMatrix::open(&p).unwrap();
        let cfg = MrSomConfig {
            block_size: 15,
            checkpoint_dir: Some(ck.clone()),
            checkpoint_every: 2,
            ..MrSomConfig::new(som)
        };
        run_mrsom(comm, &matrix, &cfg)
    });
    // 6 blocks per epoch; fallback to epoch 2 leaves 6 epochs to retrain.
    let blocks: u64 = resumed.iter().map(|(_, r)| r.blocks_processed).sum();
    assert_eq!(blocks, 6 * 6, "resume must restart from the older valid checkpoint");
    assert_eq!(
        resumed[0].0.weights, full[0].0.weights,
        "fallback-resumed codebook must equal the uninterrupted run"
    );
    std::fs::remove_dir_all(&base).ok();
}
