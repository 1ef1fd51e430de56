//! The traced run: the work of one 3-rank CLI run, rebuilt in-process from
//! the layers' public calls with a host-time span around each call.
//!
//! The rank bodies mirror `mrbio::run_mrblast` and `mrbio::run_mrsom` with
//! the CLIs' default settings: the same task order (partition-major for
//! BLAST), the same one-slot partition and query caches, the same engine
//! and collective calls, on a world with an `obs` collector attached so the
//! program's own counters are read back. Spans stay in memory until the run
//! ends; each records wall time on the host monotonic clock and the
//! thread's CPU time.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bioseq::db::{BlastDb, DbPartition};
use bioseq::fasta::read_fasta_file;
use bioseq::seq::SeqRecord;
use bioseq::shred::query_blocks;
use blast::format::tabular_line;
use blast::hsp::{sort_and_truncate, Hit};
use blast::search::{BlastSearcher, PreparedQueries};
use mpisim::{Comm, ReduceOp, World};
use mrbio::VectorMatrix;
use mrmpi::{MapReduce, MapStyle, Settings};
use som::batch::{init_codebook, BatchAccumulator};
use som::codebook::Codebook;
use som::neighborhood::{sigma_schedule, SomConfig};
use som::quality::quantization_error;
use som::umatrix::{ridge_valley_ratio, umatrix};

use crate::check::blastn_params;
use crate::inputs::PARALLEL_RANKS;
use crate::stats::{median, tail};
use crate::sys::thread_cpu_s;
use crate::Reported;

/// Rank label of spans recorded on the launching thread, outside the world.
pub const MAIN: usize = usize::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub rank: usize,
    /// Index within the rank's spans.
    pub id: usize,
    /// The enclosing span on the same rank.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Host seconds since the run started.
    pub start: f64,
    pub end: f64,
    /// Thread CPU seconds spent inside the span.
    pub cpu: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-thread span recorder.
struct Tracer {
    rank: usize,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new(rank: usize, epoch: Instant) -> Self {
        Tracer {
            rank,
            epoch,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.stack.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                rank: self.rank,
                id,
                parent,
                name,
                start: self.epoch.elapsed().as_secs_f64(),
                end: f64::NAN,
                cpu: thread_cpu_s(),
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let (end, cpu) = (self.epoch.elapsed().as_secs_f64(), thread_cpu_s());
        let mut spans = self.spans.borrow_mut();
        spans[id].end = end;
        spans[id].cpu = cpu - spans[id].cpu;
        out
    }

    fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Work counted by the benchmark where the program has no counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub hits_raw: u64,
    pub scanned_residues: u64,
    pub kv_bytes: u64,
    pub output_bytes: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.hits_raw += o.hits_raw;
        self.scanned_residues += o.scanned_residues;
        self.kv_bytes += o.kv_bytes;
        self.output_bytes += o.output_bytes;
    }
}

/// One traced run.
pub struct TracedRun {
    /// Host wall time of the whole job, from opening the inputs to the
    /// final result (the CLI's work without process start-up).
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub trace: obs::Trace,
    /// SOM only: seconds of the separate `Codebook::bmu` pass.
    pub bmu_s: f64,
    /// SOM only: 3 · vectors · neurons · dims · epochs.
    pub bmu_flop: f64,
    /// SOM only: the reported quantisation error.
    pub qe: f64,
}

// ------------------------------------------------------------------ BLAST

/// Traced equivalent of `mb-blast --ranks 3 --block-size <b> --out <out>`.
pub fn blast(
    db_dir: &Path,
    name: &str,
    queries_path: &Path,
    block_size: usize,
    out_dir: &Path,
) -> Result<TracedRun, String> {
    let collector = obs::Collector::new();
    let epoch = Instant::now();
    let main = Tracer::new(MAIN, epoch);
    let db = main.span("bioseq.open_db", || BlastDb::open(db_dir, name));
    let db = Arc::new(db.map_err(|e| format!("open db: {e}"))?);
    let queries = main.span("bioseq.read_fasta", || read_fasta_file(queries_path));
    let queries = queries.map_err(|e| format!("read {}: {e}", queries_path.display()))?;
    let blocks = Arc::new(query_blocks(queries, block_size));
    let out: PathBuf = out_dir.to_path_buf();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let ranks = main.span("mpisim.world_run", || {
        World::new(PARALLEL_RANKS)
            .with_obs(collector.clone())
            .run(move |comm| blast_rank(comm, &db, &blocks, &out, epoch))
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    Ok(assemble(main, ranks, wall_s, &collector))
}

fn blast_rank(
    comm: &Comm,
    db: &BlastDb,
    blocks: &[Vec<SeqRecord>],
    out_dir: &Path,
    epoch: Instant,
) -> (Vec<Span>, Counts) {
    let tr = Tracer::new(comm.rank(), epoch);
    let counts = RefCell::new(Counts::default());
    tr.span("rank", || {
        let searcher = BlastSearcher::new(blastn_params());
        let max_hits = searcher.params.max_hits_per_query;
        let nblocks = blocks.len();
        let ntasks = nblocks * db.num_partitions();
        let path = out_dir.join(format!("hits.rank{:04}.tsv", comm.rank()));
        let mut out = tr.span("mrbio.open_output", || {
            std::io::BufWriter::new(std::fs::File::create(&path).expect("create rank output"))
        });
        let db_cache: RefCell<Option<(usize, DbPartition)>> = RefCell::new(None);
        let q_cache: RefCell<Option<(usize, PreparedQueries)>> = RefCell::new(None);

        let mut mr = MapReduce::with_settings(comm, Settings::default());
        tr.span("mrmpi.map_tasks", || {
            mr.map_tasks(ntasks, MapStyle::MasterWorker, &mut |task, kv| {
                tr.span("mrbio.map_unit", || {
                    // Partition-major order, as in `run_mrblast`.
                    let (part_idx, block_idx) = (task / nblocks, task % nblocks);
                    let mut db_slot = db_cache.borrow_mut();
                    if !matches!(&*db_slot, Some((i, _)) if *i == part_idx) {
                        let t0 = Instant::now();
                        let part = tr.span("bioseq.load_partition", || {
                            db.load_partition(part_idx).expect("load DB partition")
                        });
                        comm.charge(t0.elapsed().as_secs_f64());
                        if let Some(o) = comm.obs() {
                            o.add("blast.db_loads", 1);
                        }
                        *db_slot = Some((part_idx, part));
                    }
                    let (_, part) = db_slot.as_ref().expect("cache just filled");
                    let mut q_slot = q_cache.borrow_mut();
                    if !matches!(&*q_slot, Some((i, _)) if *i == block_idx) {
                        let t0 = Instant::now();
                        let prepared = tr.span("blast.prepare_queries", || {
                            searcher.prepare_queries(&blocks[block_idx])
                        });
                        comm.charge(t0.elapsed().as_secs_f64());
                        *q_slot = Some((block_idx, prepared));
                    }
                    let (_, prepared) = q_slot.as_ref().expect("cache just filled");
                    let t0 = Instant::now();
                    let hits = tr.span("blast.search_partition", || {
                        searcher.search_partition(
                            prepared,
                            part,
                            db.total_residues,
                            db.total_sequences,
                        )
                    });
                    comm.charge(t0.elapsed().as_secs_f64());
                    let mut c = counts.borrow_mut();
                    c.hits_raw += hits.len() as u64;
                    c.scanned_residues += part.residues;
                    for hit in hits {
                        let value = hit.encode();
                        c.kv_bytes += (hit.query_id.len() + value.len()) as u64;
                        kv.emit(hit.query_id.as_bytes(), &value);
                    }
                });
            })
        });

        // collate() is aggregate() then convert(); timed separately here.
        tr.span("mrmpi.aggregate", || mr.aggregate());
        tr.span("mrmpi.convert", || mr.convert());
        tr.span("mrmpi.reduce", || {
            mr.reduce(&mut |_key, values, _out| {
                tr.span("mrbio.reduce_unit", || {
                    let mut hits: Vec<Hit> = values.map(Hit::decode).collect();
                    tr.span("mrbio.topk", || sort_and_truncate(&mut hits, max_hits));
                    tr.span("mrbio.output", || {
                        for h in &hits {
                            let line = tabular_line(h);
                            counts.borrow_mut().output_bytes += line.len() as u64 + 1;
                            writeln!(out, "{line}").expect("write hit line");
                        }
                    });
                });
            })
        });
        tr.span("mrbio.flush", || out.flush().expect("flush rank output"));
        tr.span("mpisim.barrier", || comm.barrier());
    });
    (tr.into_spans(), counts.into_inner())
}

// -------------------------------------------------------------------- SOM

/// Traced equivalent of `mb-som --input <matrix> --ranks 3`, including the
/// CLI's quality step. The `Codebook::bmu` pass that isolates BMU time runs
/// after the timed job.
pub fn som(matrix_path: &Path, som: SomConfig, block_size: usize) -> Result<TracedRun, String> {
    let collector = obs::Collector::new();
    let epoch = Instant::now();
    let main = Tracer::new(MAIN, epoch);
    let mp = matrix_path.to_path_buf();
    let mut results = main.span("mpisim.world_run", || {
        World::new(PARALLEL_RANKS)
            .with_obs(collector.clone())
            .run(move |comm| {
                let matrix = VectorMatrix::open(&mp).expect("open matrix");
                som_rank(comm, &matrix, &som, block_size, epoch)
            })
    });
    let epoch_codebooks = std::mem::take(&mut results[0].1);
    let ranks = results
        .into_iter()
        .map(|(spans, _)| (spans, Counts::default()))
        .collect();
    let cb = epoch_codebooks.last().expect("at least one epoch").clone();
    let qe = main.span("som.quality", || {
        let matrix = VectorMatrix::open(matrix_path).expect("open matrix");
        let sample = matrix
            .read_rows(0, matrix.n.min(2000))
            .expect("read sample");
        let qe = quantization_error(&cb, &sample);
        black_box(ridge_valley_ratio(&umatrix(&cb)));
        qe
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut run = assemble(main, ranks, wall_s, &collector);
    run.qe = qe;

    // The BMU pass: every epoch-start codebook against every input vector,
    // as the epoch's accumulate calls see them.
    let matrix = VectorMatrix::open(matrix_path).map_err(|e| e.to_string())?;
    let all = matrix.read_rows(0, matrix.n).map_err(|e| e.to_string())?;
    let starts = &epoch_codebooks[..epoch_codebooks.len() - 1];
    let t0 = Instant::now();
    for cb in starts {
        for x in &all {
            black_box(cb.bmu(black_box(x)));
        }
    }
    run.bmu_s = t0.elapsed().as_secs_f64();
    run.bmu_flop = 3.0 * (all.len() * starts.len() * cb.num_neurons() * cb.dims) as f64;
    Ok(run)
}

/// One rank of `run_mrsom`. Rank 0 also returns every epoch-start codebook
/// followed by the trained one.
fn som_rank(
    comm: &Comm,
    matrix: &VectorMatrix,
    som: &SomConfig,
    block_size: usize,
    epoch: Instant,
) -> (Vec<Span>, Vec<Codebook>) {
    let tr = Tracer::new(comm.rank(), epoch);
    let mut kept = Vec::new();
    tr.span("rank", || {
        let mut start_epoch = [0.0f64];
        let mut cb = if comm.rank() == 0 {
            tr.span("som.init", || init_codebook(som, &[]))
        } else {
            Codebook::zeros(som.rows, som.cols, som.dims).with_torus(som.torus)
        };
        tr.span("mpisim.bcast", || comm.bcast_f64s(0, &mut start_epoch));
        let sigma0 = som.sigma0_for(cb.half_diagonal());
        let blocks = matrix.blocks(block_size);
        let (nn, dims) = (cb.num_neurons(), cb.dims);
        for e in 0..som.epochs {
            tr.span("mpisim.bcast", || comm.bcast_f64s(0, &mut cb.weights));
            if comm.rank() == 0 {
                kept.push(cb.clone());
            }
            let sigma = sigma_schedule(sigma0, som.sigma_end, som.epochs, e);
            let acc = RefCell::new(BatchAccumulator::zeros(&cb));
            let mut mr = MapReduce::with_settings(comm, Settings::default());
            tr.span("mrmpi.map_tasks", || {
                mr.map_tasks(blocks.len(), MapStyle::MasterWorker, &mut |b, _kv| {
                    tr.span("mrbio.map_unit", || {
                        let (start, end) = blocks[b];
                        let t0 = Instant::now();
                        let inputs = tr.span("mrbio.read_rows", || {
                            matrix.read_rows(start, end).expect("read vector block")
                        });
                        comm.charge(t0.elapsed().as_secs_f64());
                        let t0 = Instant::now();
                        tr.span("som.accumulate", || {
                            acc.borrow_mut()
                                .accumulate_block_with(&cb, &inputs, sigma, som.kernel)
                        });
                        comm.charge(t0.elapsed().as_secs_f64());
                    });
                })
            });
            let acc = acc.into_inner();
            let mut packed = acc.numerator;
            packed.extend_from_slice(&acc.denominator);
            let mut summed = vec![0.0; packed.len()];
            let is_root = tr.span("mpisim.reduce", || {
                comm.reduce_f64(0, &packed, &mut summed, ReduceOp::Sum)
            });
            if is_root {
                let merged = BatchAccumulator::from_parts(
                    summed[..nn * dims].to_vec(),
                    summed[nn * dims..].to_vec(),
                    dims,
                );
                tr.span("som.apply", || merged.apply(&mut cb));
            }
        }
        tr.span("mpisim.bcast", || comm.bcast_f64s(0, &mut cb.weights));
        tr.span("mpisim.barrier", || comm.barrier());
        if comm.rank() == 0 {
            kept.push(cb);
        }
    });
    (tr.into_spans(), kept)
}

fn assemble(
    main: Tracer,
    ranks: Vec<(Vec<Span>, Counts)>,
    wall_s: f64,
    collector: &obs::Collector,
) -> TracedRun {
    let mut spans = main.into_spans();
    let mut counts = Counts::default();
    for (s, c) in ranks {
        spans.extend(s);
        counts.add(&c);
    }
    TracedRun {
        wall_s,
        spans,
        counts,
        trace: collector.trace(),
        bmu_s: 0.0,
        bmu_flop: 0.0,
        qe: 0.0,
    }
}

// ---------------------------------------------------------------- metrics

/// Index of a run's spans by (rank, id) with each span's children.
struct Tree<'a> {
    spans: &'a [Span],
    children: HashMap<(usize, usize), Vec<&'a Span>>,
}

impl<'a> Tree<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<(usize, usize), Vec<&Span>> = HashMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry((s.rank, p)).or_default().push(s);
            }
        }
        Tree { spans, children }
    }

    fn named(&self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    // Folds start from +0.0: an empty f64 `sum()` is -0.0.
    fn total(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |a, s| a + s.dur())
    }

    fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    fn kids(&self, s: &Span) -> &[&'a Span] {
        self.children
            .get(&(s.rank, s.id))
            .map_or(&[], Vec::as_slice)
    }

    /// Duration minus the time direct children cover (children of one span
    /// run one after another on its thread).
    fn self_time(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |a, s| {
            a + s.dur() - self.kids(s).iter().map(|k| k.dur()).sum::<f64>()
        })
    }

    /// Map-phase overhead and imbalance summed over worker ranks: time in
    /// `map_tasks` up to the worker's last unit minus the units, and time
    /// from the last unit to `map_tasks` returning.
    fn map_split(&self) -> (f64, f64) {
        let (mut overhead, mut imbalance) = (0.0, 0.0);
        for m in self.named("mrmpi.map_tasks").filter(|s| s.rank != 0) {
            let units = self.kids(m);
            let last = units.iter().map(|u| u.end).fold(m.start, f64::max);
            overhead += (last - m.start) - units.iter().map(|u| u.dur()).sum::<f64>();
            imbalance += m.end - last;
        }
        (overhead, imbalance)
    }

    /// Share of `rank`'s wall time that no named span covers.
    fn uncovered(&self, rank: usize) -> f64 {
        self.named("rank")
            .find(|s| s.rank == rank)
            .map_or(0.0, |r| {
                1.0 - self.kids(r).iter().map(|k| k.dur()).sum::<f64>() / r.dur()
            })
    }
}

/// Per-layer metrics over repeated traced runs of one workload: the median
/// over runs of each value, with per-unit times pooled across runs.
/// `cli_wall_s` is the median untraced 3-rank CLI wall time.
pub fn layer_metrics(runs: &[TracedRun], cli_wall_s: f64, blast: bool) -> Vec<Reported> {
    let trees: Vec<Tree> = runs.iter().map(|r| Tree::new(&r.spans)).collect();
    let med = |f: &dyn Fn(&TracedRun, &Tree) -> f64| -> f64 {
        median(
            &runs
                .iter()
                .zip(&trees)
                .map(|(r, t)| f(r, t))
                .collect::<Vec<_>>(),
        )
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let units: Vec<f64> = trees
        .iter()
        .flat_map(|t| t.named("mrbio.map_unit").map(Span::dur))
        .collect();
    let (unit_p50, (tail_label, unit_tail)) = if units.is_empty() {
        (0.0, ("none".into(), 0.0))
    } else {
        (median(&units), tail(&units))
    };
    // Unit metrics are named per engine; the other engine's read zero.
    let only = |applies: bool, v: f64| if applies { v } else { 0.0 };
    let only_note = |applies: bool| {
        if applies {
            tail_label.clone()
        } else {
            String::new()
        }
    };
    let counter = |name: &'static str| med(&|r, _| r.trace.counter_total(name) as f64);
    let n_units = med(&|_, t| t.count("mrbio.map_unit") as f64);
    let loads = counter("blast.db_loads");
    let search_s = med(&|_, t| t.total("blast.search_partition"));
    let hits_raw = med(&|r, _| r.counts.hits_raw as f64);
    let scanned = med(&|r, _| r.counts.scanned_residues as f64);
    let traced_wall = med(&|r, _| r.wall_s);

    let m = |name: &str, value, unit| Reported {
        name: name.into(),
        unit,
        value,
        samples: vec![],
        note: String::new(),
    };
    let mut out = vec![
        m(
            "bioseq.load_s",
            med(&|_, t| t.total("bioseq.load_partition")),
            "s",
        ),
        m("bioseq.loads", loads, "count"),
        m(
            "bioseq.cache_hit_ratio",
            only(blast, 1.0 - ratio(loads, n_units)),
            "ratio",
        ),
        m(
            "blast.prepare_s",
            med(&|_, t| t.total("blast.prepare_queries")),
            "s",
        ),
        m(
            "blast.prepares",
            med(&|_, t| t.count("blast.prepare_queries") as f64),
            "count",
        ),
        m("blast.search_s", search_s, "s"),
        m("blast.units", only(blast, n_units), "count"),
        m("blast.hits_raw", hits_raw, "count"),
        m(
            "blast.scan_mres_per_s",
            ratio(scanned * 1e-6, search_s),
            "Mres/s",
        ),
        m("blast.hsps_per_s", ratio(hits_raw, search_s), "1/s"),
        m("blast.unit_p50_s", only(blast, unit_p50), "s"),
        Reported {
            note: only_note(blast),
            ..m("blast.unit_tail_s", only(blast, unit_tail), "s")
        },
        m("mrmpi.map_overhead_s", med(&|_, t| t.map_split().0), "s"),
        m("mrmpi.map_imbalance_s", med(&|_, t| t.map_split().1), "s"),
        m(
            "mrmpi.aggregate_s",
            med(&|_, t| t.self_time("mrmpi.aggregate")),
            "s",
        ),
        m(
            "mrmpi.convert_s",
            med(&|_, t| t.self_time("mrmpi.convert")),
            "s",
        ),
        m(
            "mrmpi.reduce_s",
            med(&|_, t| t.self_time("mrmpi.reduce")),
            "s",
        ),
        m("mrmpi.kv_pairs", counter("mr.kv_pairs"), "count"),
        m("mrmpi.kv_bytes", med(&|r, _| r.counts.kv_bytes as f64), "B"),
        m("mrmpi.spills", counter("mr.spool_spills"), "count"),
        m("mpisim.msgs", counter("net.sends"), "count"),
        m("mpisim.bytes", counter("net.bytes_sent"), "B"),
        m("mpisim.collectives", counter("net.collectives"), "count"),
        m(
            "mpisim.collective_bytes",
            counter("net.collective_bytes"),
            "B",
        ),
        m("mpisim.bcast_s", med(&|_, t| t.total("mpisim.bcast")), "s"),
        m(
            "mpisim.reduce_s",
            med(&|_, t| t.total("mpisim.reduce")),
            "s",
        ),
        m(
            "som.accumulate_s",
            med(&|_, t| t.total("som.accumulate")),
            "s",
        ),
        m("som.bmu_s", med(&|r, _| r.bmu_s), "s"),
        m("som.apply_s", med(&|_, t| t.total("som.apply")), "s"),
        m("som.units", only(!blast, n_units), "count"),
        m("som.unit_p50_s", only(!blast, unit_p50), "s"),
        Reported {
            note: only_note(!blast),
            ..m("som.unit_tail_s", only(!blast, unit_tail), "s")
        },
        m(
            "som.bmu_gflop_per_s",
            med(&|r, _| ratio(r.bmu_flop * 1e-9, r.bmu_s)),
            "GFLOP/s",
        ),
        m("mrbio.topk_s", med(&|_, t| t.total("mrbio.topk")), "s"),
        m("mrbio.output_s", med(&|_, t| t.total("mrbio.output")), "s"),
        m(
            "mrbio.output_bytes",
            med(&|r, _| r.counts.output_bytes as f64),
            "B",
        ),
        m(
            "mrbio.read_rows_s",
            med(&|_, t| t.total("mrbio.read_rows")),
            "s",
        ),
        m("obs.traced_wall_s", traced_wall, "s"),
        m(
            "obs.trace_overhead",
            ratio(traced_wall, cli_wall_s),
            "ratio",
        ),
    ];
    for (rank, name) in [(1, "obs.uncovered_rank1"), (2, "obs.uncovered_rank2")] {
        out.push(m(name, med(&|_, t| t.uncovered(rank)), "ratio"));
    }
    out
}

/// Write every run's spans as TSV: run, rank, id, parent, name, start,
/// end, CPU (seconds).
pub fn write_spans(path: &Path, runs: &[TracedRun]) -> Result<(), String> {
    let mut text = String::from("run\trank\tid\tparent\tname\tstart_s\tend_s\tcpu_s\n");
    for (i, r) in runs.iter().enumerate() {
        for s in &r.spans {
            let rank = if s.rank == MAIN {
                "main".to_string()
            } else {
                s.rank.to_string()
            };
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{i}\t{rank}\t{}\t{parent}\t{}\t{:.9}\t{:.9}\t{:.9}\n",
                s.id, s.name, s.start, s.end, s.cpu
            ));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
