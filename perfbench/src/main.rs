//! `perfbench` — the repository's benchmark.
//!
//! Runs the user-facing CLIs (`mb-formatdb`, `mb-blast`, `mb-som`) as child
//! processes on inputs generated from `--seed`, times each run from outside,
//! and checks every output against the serial engines. With `--trace 1` it
//! instead rebuilds the same work in-process from the layers' public calls
//! and reports where the time goes, layer by layer (see `traced`).
//!
//! ```text
//! bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                       [--record <file.jsonl>]
//! bash perfbench/run.sh compare <base.jsonl> <new.jsonl>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--record` also appends
//! the full record (samples, host context, input digest) to a JSON-lines
//! file; `compare` reads two such files.

mod check;
mod compare;
mod inputs;
mod json;
mod stats;
mod sys;
mod traced;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use bioseq::db::BlastDb;
use bioseq::fasta::{read_fasta_file, write_fasta_file};
use mrbio::VectorMatrix;

use check::{BlastReference, SomCheck};
use inputs::{BlastInputs, Inputs, SomInputs, PARALLEL_RANKS, WORKLOADS};
use json::quote;
use stats::{median, quartiles};
use sys::{digest_files, loadavg_1m, run_timed, ChildRun};

/// Set-ups timed after each measured pair, so that the set-up samples span
/// the whole run as the CLI samples do; the median is reported.
const SETUPS_PER_PAIR: usize = 2;
/// Fewest parallel/serial pairs a run measures, however short `--seconds`.
const MIN_PAIRS: usize = 3;
/// 3-rank CLI runs whose wall time a traced run's is compared with.
const TRACE_CLI_RUNS: usize = 3;
/// Fewest traced runs.
const MIN_TRACED: usize = 2;
const CLIS: [&str; 3] = ["mb-formatdb", "mb-blast", "mb-som"];
/// Where runs leave span files; inputs live in a per-run subdirectory that
/// is removed when the run ends.
const OUT_DIR: &str = ".bench_out";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    record: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let get = |flag: &str| -> Result<Option<String>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => args
                    .get(i + 1)
                    .cloned()
                    .map(Some)
                    .ok_or(format!("{flag} needs a value")),
            }
        };
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--bin-dir",
            "--record",
        ];
        if let Some(bad) = args
            .iter()
            .step_by(2)
            .find(|a| !known.contains(&a.as_str()))
        {
            return Err(format!("unknown argument '{bad}'"));
        }
        let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
        let num = |v: String, flag: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: '{v}' is not a number"))
        };
        let workload = need(get("--workload")?, "--workload")?;
        let seed = need(get("--seed")?, "--seed")?;
        let seed = seed
            .parse::<u64>()
            .map_err(|_| format!("--seed: '{seed}' is not an integer"))?;
        let seconds = num(need(get("--seconds")?, "--seconds")?, "--seconds")?;
        let trace = match need(get("--trace")?, "--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        };
        let bin_dir = PathBuf::from(need(
            get("--bin-dir")?,
            "--bin-dir (run through perfbench/run.sh)",
        )?);
        let record = get("--record")?.map(PathBuf::from);
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Opts {
            workload,
            seed,
            seconds,
            trace,
            bin_dir,
            record,
        })
    }
}

/// One reported metric; `samples` is empty for a value that is not a
/// median of this run's samples, and `note` is shown in the report.
struct Reported {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
    note: String,
}

impl Reported {
    fn median_of(name: &str, unit: &'static str, samples: Vec<f64>) -> Reported {
        Reported {
            name: name.into(),
            unit,
            value: median(&samples),
            samples,
            note: String::new(),
        }
    }
}

/// Host state around a run: recorded, never used to drop or repeat a sample.
struct Host {
    nproc: usize,
    load_start: f64,
    load_end: f64,
    cli_hash: String,
}

struct Outcome {
    workload: String,
    started_unix: f64,
    digest: String,
    host: Host,
    attempted: u64,
    failed: u64,
    metrics: Vec<Reported>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..])
    } else {
        Opts::parse(&args).and_then(|o| run(&o))
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run(o: &Opts) -> Result<(), String> {
    let names: Vec<&str> = if o.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![o.workload.as_str()]
    };
    if let Some(bad) = names.iter().find(|n| !WORKLOADS.contains(n)) {
        return Err(format!(
            "unknown workload '{bad}' (known: {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    let mut outcomes = Vec::new();
    for name in names {
        let outcome = run_workload(name, o)?;
        report(&outcome, o);
        if let Some(path) = &o.record {
            append_record(path, &outcome, o)?;
        }
        outcomes.push(outcome);
    }
    let prefix = outcomes.len() > 1;
    let attempted: u64 = outcomes.iter().map(|x| x.attempted).sum();
    let failed: u64 = outcomes.iter().map(|x| x.failed).sum();
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|x| {
            x.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}/{}", x.workload, m.name)
                } else {
                    m.name.clone()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&name),
                    m.value,
                    quote(m.unit)
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    Ok(())
}

/// A per-run scratch directory, removed when dropped.
struct Work(PathBuf);

impl Work {
    fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_dir(p: &Path) -> Result<(), String> {
    if p.exists() {
        std::fs::remove_dir_all(p).map_err(|e| format!("{}: {e}", p.display()))?;
    }
    std::fs::create_dir_all(p).map_err(|e| format!("{}: {e}", p.display()))
}

fn run_workload(name: &str, o: &Opts) -> Result<Outcome, String> {
    let started_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let load_start = loadavg_1m();
    let bins: Vec<PathBuf> = CLIS.iter().map(|c| o.bin_dir.join(c)).collect();
    if let Some(missing) = bins.iter().find(|b| !b.is_file()) {
        return Err(format!(
            "{} not found; build the CLIs first (perfbench/run.sh does)",
            missing.display()
        ));
    }
    let cli_hash = digest_files(&bins.iter().map(PathBuf::as_path).collect::<Vec<_>>())?;
    let work = Work(Path::new(OUT_DIR).join(format!("work-{}-{name}", std::process::id())));
    fresh_dir(&work.0)?;
    let bench = Bench {
        o,
        work: &work,
        name,
    };
    let (digest, attempted, failed, metrics) = match inputs::generate(name, o.seed)? {
        Inputs::Blast(b) => bench.blast(&b)?,
        Inputs::Som(s) => bench.som(&s)?,
    };
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        load_start,
        load_end: loadavg_1m(),
        cli_hash,
    };
    Ok(Outcome {
        workload: name.into(),
        started_unix,
        digest,
        host,
        attempted,
        failed,
        metrics,
    })
}

/// (input digest, attempted, failed, metrics)
type Measured = (String, u64, u64, Vec<Reported>);

struct Bench<'a> {
    o: &'a Opts,
    work: &'a Work,
    name: &'a str,
}

/// One checked CLI run: its measurement and how many operations failed.
struct Checked {
    run: ChildRun,
    failed: u64,
}

impl Bench<'_> {
    fn cli(&self, name: &str) -> Command {
        Command::new(self.o.bin_dir.join(name))
    }

    fn run_cli(&self, cmd: Command, tag: &str) -> Result<(ChildRun, String), String> {
        let (out, err) = (
            self.work.join(&format!("{tag}.out")),
            self.work.join(&format!("{tag}.err")),
        );
        let run = run_timed(cmd, &out, &err)?;
        let stdout = std::fs::read_to_string(&out).unwrap_or_default();
        if run.code != Some(0) {
            let stderr = std::fs::read_to_string(&err).unwrap_or_default();
            eprintln!("{tag} exited with {:?}: {}", run.code, stderr.trim());
        }
        Ok((run, stdout))
    }

    fn blast(&self, b: &BlastInputs) -> Result<Measured, String> {
        let (refs, reads, db_dir) = (
            self.work.join("refs.fa"),
            self.work.join("reads.fa"),
            self.work.join("db"),
        );
        write_fasta_file(&refs, &b.refs).map_err(|e| format!("write refs: {e}"))?;
        write_fasta_file(&reads, &b.queries).map_err(|e| format!("write reads: {e}"))?;
        let digest = digest_files(&[&refs, &reads])?;

        // Set-up: format the references. Later samples format into a spare
        // directory, leaving the searched database untouched.
        let set_up = |dir: &Path| -> Result<f64, String> {
            fresh_dir(dir)?;
            let mut cmd = self.cli("mb-formatdb");
            cmd.arg("--in")
                .arg(&refs)
                .arg("--out")
                .arg(dir)
                .args(["--name", "refdb"]);
            cmd.args(["--partition-bytes", &b.partition_bytes.to_string()]);
            let (run, _) = self.run_cli(cmd, "formatdb")?;
            if run.code != Some(0) {
                return Err("mb-formatdb failed".into());
            }
            Ok(run.wall_s)
        };
        let first_setup = set_up(&db_dir)?;

        let db = BlastDb::open(&db_dir, "refdb").map_err(|e| format!("open db: {e}"))?;
        let queries = read_fasta_file(&reads).map_err(|e| format!("read queries: {e}"))?;
        let reference = BlastReference::compute(&db, &queries)?;
        eprintln!(
            "{}: {} queries x {} refs ({} partitions), {} reference hits",
            self.name,
            queries.len(),
            b.refs.len(),
            db.num_partitions(),
            reference.hit_count()
        );
        let nq = reference.queries.len() as u64;
        let hits_dir = self.work.join("hits");
        let run_once = |ranks: usize| -> Result<Checked, String> {
            fresh_dir(&hits_dir)?;
            let mut cmd = self.cli("mb-blast");
            cmd.arg("--db")
                .arg(&db_dir)
                .args(["--name", "refdb"])
                .arg("--queries")
                .arg(&reads);
            cmd.args([
                "--ranks",
                &ranks.to_string(),
                "--block-size",
                &b.block_size.to_string(),
            ]);
            cmd.arg("--out").arg(&hits_dir);
            let (run, _) = self.run_cli(cmd, "blast")?;
            let failed = if run.code == Some(0) {
                reference.failures(&hits_dir)? as u64
            } else {
                nq
            };
            Ok(Checked { run, failed })
        };

        let (attempted, failed, metrics) = if self.o.trace {
            let traced_dir = self.work.join("traced");
            let trace_once = || -> Result<(traced::TracedRun, u64), String> {
                fresh_dir(&traced_dir)?;
                let run = traced::blast(&db_dir, "refdb", &reads, b.block_size, &traced_dir)?;
                Ok((run, reference.failures(&traced_dir)? as u64))
            };
            self.traced(nq, &run_once, &trace_once, true)?
        } else {
            let spare = self.work.join("db-setup");
            self.measure(nq, b.work(), &run_once, first_setup, &|| set_up(&spare))?
        };
        Ok((digest, attempted, failed, metrics))
    }

    fn som(&self, s: &SomInputs) -> Result<Measured, String> {
        let matrix = self.work.join("vectors.bin");
        // Set-up: write the dense matrix. Later samples write a spare file,
        // leaving the trained-on matrix untouched.
        let set_up = |path: &Path| -> Result<f64, String> {
            let _ = std::fs::remove_file(path);
            let t0 = Instant::now();
            VectorMatrix::create(path, &s.vectors).map_err(|e| format!("write matrix: {e}"))?;
            Ok(t0.elapsed().as_secs_f64())
        };
        let first_setup = set_up(&matrix)?;
        let digest = digest_files(&[&matrix])?;
        let reference = SomCheck::compute(s);
        eprintln!(
            "{}: {} x {}-d vectors, {}x{} map, {} epochs, reference QE {:.5}",
            self.name,
            s.vectors.len(),
            s.vectors[0].len(),
            s.rows,
            s.cols,
            s.epochs,
            reference.qe
        );
        let run_once = |ranks: usize| -> Result<Checked, String> {
            let mut cmd = self.cli("mb-som");
            cmd.arg("--input").arg(&matrix);
            for (flag, v) in [
                ("--rows", s.rows),
                ("--cols", s.cols),
                ("--epochs", s.epochs),
                ("--ranks", ranks),
                ("--block-size", s.block_size),
            ] {
                cmd.args([flag, &v.to_string()]);
            }
            cmd.args(["--seed", &s.seed.to_string()]);
            let (run, stdout) = self.run_cli(cmd, "som")?;
            let ok = run.code == Some(0) && reference.accepts_cli_output(&stdout);
            Ok(Checked {
                run,
                failed: u64::from(!ok),
            })
        };
        let work = (s.vectors.len() * s.epochs) as f64;
        let (attempted, failed, metrics) = if self.o.trace {
            let cfg = check::som_config(s);
            let trace_once = || -> Result<(traced::TracedRun, u64), String> {
                let run = traced::som(&matrix, cfg, s.block_size)?;
                let ok = reference.accepts(run.qe);
                Ok((run, u64::from(!ok)))
            };
            self.traced(1, &run_once, &trace_once, false)?
        } else {
            let spare = self.work.join("vectors-setup.bin");
            self.measure(1, work, &run_once, first_setup, &|| set_up(&spare))?
        };
        Ok((digest, attempted, failed, metrics))
    }

    /// The end-to-end measurement: after one checked warm-up run, parallel
    /// and serial runs alternate in pairs (which goes first alternates too),
    /// each pair followed by set-up samples, until `--seconds` is used.
    /// `ops` is the operation count of one run; `work` the work units one run
    /// completes; `first_setup` the set-up that prepared the inputs.
    fn measure(
        &self,
        ops: u64,
        work: f64,
        run_once: &dyn Fn(usize) -> Result<Checked, String>,
        first_setup: f64,
        set_up: &dyn Fn() -> Result<f64, String>,
    ) -> Result<(u64, u64, Vec<Reported>), String> {
        let warm = run_once(PARALLEL_RANKS)?;
        let (mut attempted, mut failed) = (ops, warm.failed);
        let (mut wall, mut serial, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let mut setup = vec![first_setup];
        let t0 = Instant::now();
        let mut pair_s = 0.0f64;
        for i in 0.. {
            let used = t0.elapsed().as_secs_f64();
            if i >= MIN_PAIRS && used + pair_s > self.o.seconds {
                break;
            }
            let order = if i % 2 == 0 {
                [PARALLEL_RANKS, 1]
            } else {
                [1, PARALLEL_RANKS]
            };
            for ranks in order {
                let c = run_once(ranks)?;
                attempted += ops;
                failed += c.failed;
                if ranks == 1 {
                    serial.push(c.run.wall_s);
                } else {
                    wall.push(c.run.wall_s);
                    rss.push(c.run.peak_rss_mib);
                }
            }
            for _ in 0..SETUPS_PER_PAIR {
                setup.push(set_up()?);
            }
            pair_s = pair_s.max(t0.elapsed().as_secs_f64() - used);
        }
        let work_per_s = wall.iter().map(|w| work / w).collect();
        Ok((
            attempted,
            failed,
            vec![
                Reported::median_of("wall_s", "s", wall),
                Reported::median_of("serial_wall_s", "s", serial),
                Reported::median_of("work_per_s", "work/s", work_per_s),
                Reported::median_of("peak_rss_mib", "MiB", rss),
                Reported::median_of("setup_s", "s", setup),
            ],
        ))
    }

    /// The traced measurement: a few checked 3-rank CLI runs for the
    /// untraced wall time, then traced in-process runs until `--seconds`
    /// is used.
    fn traced(
        &self,
        ops: u64,
        run_once: &dyn Fn(usize) -> Result<Checked, String>,
        trace_once: &dyn Fn() -> Result<(traced::TracedRun, u64), String>,
        blast: bool,
    ) -> Result<(u64, u64, Vec<Reported>), String> {
        let t0 = Instant::now();
        let (mut attempted, mut failed) = (0, 0);
        let mut cli_wall = Vec::new();
        for _ in 0..TRACE_CLI_RUNS {
            let c = run_once(PARALLEL_RANKS)?;
            attempted += ops;
            failed += c.failed;
            cli_wall.push(c.run.wall_s);
        }
        let mut runs = Vec::new();
        let mut run_s = 0.0f64;
        loop {
            let used = t0.elapsed().as_secs_f64();
            if runs.len() >= MIN_TRACED && used + run_s > self.o.seconds {
                break;
            }
            let (run, f) = trace_once()?;
            attempted += ops;
            failed += f;
            runs.push(run);
            run_s = run_s.max(t0.elapsed().as_secs_f64() - used);
        }
        let spans = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", self.name, self.o.seed));
        traced::write_spans(&spans, &runs)?;
        eprintln!(
            "{}: {} traced runs; spans written to {}",
            self.name,
            runs.len(),
            spans.display()
        );
        let metrics = traced::layer_metrics(&runs, median(&cli_wall), blast);
        Ok((attempted, failed, metrics))
    }
}

/// Human-readable report: every metric by name with unit and sample count.
fn report(x: &Outcome, o: &Opts) {
    println!(
        "== {} (seed {}, {} s, trace {})",
        x.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    println!(
        "   inputs fnv1a {} | nproc {} | load1 {:.2} -> {:.2} | CLI binaries fnv1a {}",
        x.digest, x.host.nproc, x.host.load_start, x.host.load_end, x.host.cli_hash
    );
    for m in &x.metrics {
        let spread = if m.samples.len() > 1 {
            let (q1, q3) = quartiles(&m.samples);
            format!("median of n={}, p25 {q1:.6}, p75 {q3:.6}", m.samples.len())
        } else if !m.note.is_empty() {
            m.note.clone()
        } else {
            String::new()
        };
        println!("   {:<26} {:>16.6} {:<8} {spread}", m.name, m.value, m.unit);
    }
    let rate = if x.attempted > 0 {
        x.failed as f64 / x.attempted as f64
    } else {
        0.0
    };
    println!(
        "   fail_rate {rate} ({} of {} operations failed)",
        x.failed, x.attempted
    );
}

fn append_record(path: &Path, x: &Outcome, o: &Opts) -> Result<(), String> {
    use std::io::Write;
    let metrics: Vec<String> = x
        .metrics
        .iter()
        .map(|m| {
            let samples: Vec<String> = m.samples.iter().map(f64::to_string).collect();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": [{}], \"note\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit),
                samples.join(", "),
                quote(&m.note)
            )
        })
        .collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"started_unix\": {}, \
         \"inputs_fnv1a\": {}, \"host\": {{\"nproc\": {}, \"load1_start\": {}, \"load1_end\": {}, \
         \"cli_fnv1a\": {}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        quote(&x.workload),
        o.seed,
        u8::from(o.trace),
        o.seconds,
        x.started_unix,
        quote(&x.digest),
        x.host.nproc,
        x.host.load_start,
        x.host.load_end,
        quote(&x.host.cli_hash),
        x.failed == 0,
        x.attempted,
        x.failed,
        metrics.join(", ")
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(line.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))
}
