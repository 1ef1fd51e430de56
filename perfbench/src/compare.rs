//! `compare`: judge a change from two record sets (the `--record` files of
//! the parent and of the change), by the rules the benchmark is gated with.
//!
//! Runs are paired by workload and seed. For every end-to-end metric of
//! `BENCHMARK.json` and every workload, a row is labelled
//!
//! * `improved`: at least ten pairs, the change wins at least 9/10 of them
//!   (ties count for neither side), and the medians differ by more than the
//!   parent's interquartile range;
//! * `worse`: the change's median is worse than the parent's by more than
//!   the metric's bound;
//! * `unresolved`: fewer than ten pairs, or the parent's own spread is wider
//!   than the bound and not every run of the change beats every run of the
//!   parent;
//! * `unchanged`: otherwise.
//!
//! Every ratio is printed with its base.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Json};
use crate::stats::{median, quartiles};

const MIN_PAIRS: usize = 10;

struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// One record: workload, seed, start time and end-to-end metric values.
struct Record {
    workload: String,
    seed: u64,
    started: f64,
    values: BTreeMap<String, f64>,
}

pub fn run(args: &[String]) -> Result<(), String> {
    let [base, new] = args else {
        return Err("usage: compare <base.jsonl> <new.jsonl>".into());
    };
    let specs = load_specs(Path::new("BENCHMARK.json"))?;
    let (base, new) = (
        load_records(Path::new(base))?,
        load_records(Path::new(new))?,
    );
    println!(
        "{:<14} {:<14} {:>32} {:>32} {:>10} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "base median [p25, p75]",
        "new median [p25, p75]",
        "new/base",
        "wins",
        "pairs"
    );
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        for spec in &specs {
            let pairs = pair_up(&base, &new, w, &spec.name);
            if pairs.is_empty() {
                continue;
            }
            let row = judge(spec, &pairs);
            println!("{:<14} {:<14} {row}", w, spec.name);
        }
    }
    Ok(())
}

fn load_specs(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(list) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    list.arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without '{k}'"));
            Ok(MetricSpec {
                name: field("name")?.str().unwrap_or_default().to_string(),
                unit: field("unit")?.str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.str() == Some("lower"),
                bound: field("bound")?.num().unwrap_or(0.0),
            })
        })
        .collect()
}

fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let r = parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if r.get("trace").and_then(Json::num) != Some(0.0) {
            continue; // traced runs carry per-layer metrics only
        }
        let num = |k: &str| r.get(k).and_then(Json::num);
        let values = r
            .get("metrics")
            .and_then(Json::obj)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
                    .collect()
            })
            .unwrap_or_default();
        out.push(Record {
            workload: r
                .get("workload")
                .and_then(Json::str)
                .unwrap_or_default()
                .to_string(),
            seed: num("seed").unwrap_or(0.0) as u64,
            started: num("started_unix").unwrap_or(0.0),
            values,
        });
    }
    Ok(out)
}

/// A (base, new) value pair and whether the base ran first.
struct Pair {
    base: f64,
    new: f64,
    base_first: bool,
}

/// Pair the runs of one workload by seed, in record order within a seed.
fn pair_up(base: &[Record], new: &[Record], workload: &str, metric: &str) -> Vec<Pair> {
    let pick = |set: &[Record]| -> BTreeMap<u64, Vec<(f64, f64)>> {
        let mut by_seed: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for r in set.iter().filter(|r| r.workload == workload) {
            if let Some(&v) = r.values.get(metric) {
                by_seed.entry(r.seed).or_default().push((v, r.started));
            }
        }
        by_seed
    };
    let (b, n) = (pick(base), pick(new));
    let mut pairs = Vec::new();
    for (seed, bs) in &b {
        for (bv, nv) in bs.iter().zip(n.get(seed).map_or(&[][..], Vec::as_slice)) {
            pairs.push(Pair {
                base: bv.0,
                new: nv.0,
                base_first: bv.1 <= nv.1,
            });
        }
    }
    pairs
}

fn judge(spec: &MetricSpec, pairs: &[Pair]) -> String {
    let base: Vec<f64> = pairs.iter().map(|p| p.base).collect();
    let new: Vec<f64> = pairs.iter().map(|p| p.new).collect();
    let (bm, nm) = (median(&base), median(&new));
    let ((b1, b3), (n1, n3)) = (quartiles(&base), quartiles(&new));
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    let wins = pairs.iter().filter(|p| better(p.new, p.base)).count();
    let n = pairs.len();
    // Improvement and worsening as positive shares of the base median.
    let gain = if spec.lower_is_better {
        bm - nm
    } else {
        nm - bm
    };
    let base_iqr = b3 - b1;
    let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let verdict = if n < MIN_PAIRS {
        format!("unresolved ({n} pairs < {MIN_PAIRS})")
    } else if 10 * wins >= 9 * n && gain > base_iqr {
        "improved".to_string()
    } else if -gain > spec.bound * bm {
        format!("worse (by more than the {:.0}% bound)", 100.0 * spec.bound)
    } else if base_iqr > spec.bound * bm && !all_better {
        format!(
            "unresolved (base spread {:.1}% > bound)",
            100.0 * base_iqr / bm
        )
    } else {
        "unchanged".to_string()
    };
    let first = pairs.iter().filter(|p| p.base_first).count();
    format!(
        "{:>32} {:>32} {:>10.4} {:>7} {:>6}  {verdict}; base ran first in {first} of {n} pairs",
        format!("{bm:.4} [{b1:.4}, {b3:.4}] {}", spec.unit),
        format!("{nm:.4} [{n1:.4}, {n3:.4}] {}", spec.unit),
        nm / bm,
        format!("{wins}/{n}"),
        n
    )
}
