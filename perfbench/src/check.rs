//! Output checks against the serial engines. References are computed once
//! per benchmark run, outside every timed interval.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use bioseq::db::BlastDb;
use bioseq::seq::SeqRecord;
use blast::format::tabular_line;
use blast::search::BlastSearcher;
use blast::SearchParams;
use som::batch::batch_train;
use som::neighborhood::SomConfig;
use som::quality::quantization_error;

use crate::inputs::SomInputs;

/// The engine parameters `mb-blast` uses with default flags.
pub fn blastn_params() -> SearchParams {
    SearchParams::blastn().with_evalue(10.0).with_max_hits(500)
}

/// Serial BLAST reference: every query's tabular lines, sorted.
pub struct BlastReference {
    lines: HashMap<String, Vec<String>>,
    /// Every query id, in input order (queries without hits included).
    pub queries: Vec<String>,
}

impl BlastReference {
    /// Search every query against the whole database with
    /// [`BlastSearcher::search_db_serial`].
    pub fn compute(db: &BlastDb, queries: &[SeqRecord]) -> Result<Self, String> {
        let hits = BlastSearcher::new(blastn_params())
            .search_db_serial(queries, db)
            .map_err(|e| format!("serial reference search: {e}"))?;
        let mut lines: HashMap<String, Vec<String>> = HashMap::new();
        for h in &hits {
            lines
                .entry(h.query_id.clone())
                .or_default()
                .push(tabular_line(h));
        }
        for v in lines.values_mut() {
            v.sort();
        }
        Ok(BlastReference {
            lines,
            queries: queries.iter().map(|q| q.id.clone()).collect(),
        })
    }

    /// Total reference hit lines.
    pub fn hit_count(&self) -> usize {
        self.lines.values().map(Vec::len).sum()
    }

    /// Compare the union of the per-rank `hits.rank*.tsv` files in `dir`,
    /// query by query. Returns how many queries fail: their lines differ from
    /// the reference, or they appear in more than one rank's file. A line
    /// for a query that is not in the input fails every query.
    pub fn failures(&self, dir: &Path) -> Result<usize, String> {
        let mut got: BTreeMap<String, (Vec<String>, Vec<usize>)> = BTreeMap::new();
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("hits.rank"))
            })
            .collect();
        files.sort();
        for (fi, path) in files.iter().enumerate() {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            for line in text.lines() {
                let query = line.split('\t').next().unwrap_or_default();
                let entry = got.entry(query.to_string()).or_default();
                entry.0.push(line.to_string());
                if !entry.1.contains(&fi) {
                    entry.1.push(fi);
                }
            }
        }
        if got.keys().any(|q| !self.queries.contains(q)) {
            return Ok(self.queries.len());
        }
        let empty = Vec::new();
        let mut failed = 0;
        for q in &self.queries {
            let want = self.lines.get(q).unwrap_or(&empty);
            let ok = match got.get_mut(q) {
                None => want.is_empty(),
                Some((lines, files)) => {
                    lines.sort();
                    files.len() == 1 && lines == want
                }
            };
            failed += usize::from(!ok);
        }
        Ok(failed)
    }
}

/// The SOM shape `mb-som` trains for these inputs.
pub fn som_config(s: &SomInputs) -> SomConfig {
    SomConfig {
        rows: s.rows,
        cols: s.cols,
        dims: s.vectors[0].len(),
        epochs: s.epochs,
        seed: s.seed,
        ..SomConfig::default()
    }
}

/// Serial SOM reference: [`batch_train`] on the same inputs, seed and
/// schedule, then the quantisation error as `mb-som` reports it (over the
/// first 2,000 inputs).
pub struct SomCheck {
    pub qe: f64,
}

impl SomCheck {
    pub fn compute(s: &SomInputs) -> Self {
        let cb = batch_train(&s.vectors, &som_config(s));
        SomCheck {
            qe: quantization_error(&cb, &s.vectors[..s.vectors.len().min(2000)]),
        }
    }

    /// Does a quantisation error agree with the reference at the five
    /// decimals `mb-som` prints? The parallel sum order may move the last
    /// bits, so a value that rounds differently only at a half-way point
    /// passes too.
    pub fn accepts(&self, qe: f64) -> bool {
        format!("{qe:.5}") == format!("{:.5}", self.qe) || (qe - self.qe).abs() <= 5e-6
    }

    /// Check the quantisation error line of `mb-som`'s stdout.
    pub fn accepts_cli_output(&self, stdout: &str) -> bool {
        parse_som_qe(stdout).is_some_and(|qe| self.accepts(qe))
    }
}

fn parse_som_qe(stdout: &str) -> Option<f64> {
    let rest = stdout.split("quantization error").nth(1)?;
    let value = rest.split(" = ").nth(1)?;
    value.split(';').next()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cli_quality_line() {
        let out = "trained in 1.23s; quantization error (first 600 vectors) = 2.34567; \
                   U-matrix ridge/valley = 1.10\n";
        assert_eq!(parse_som_qe(out), Some(2.34567));
        assert_eq!(parse_som_qe("no such line"), None);
        let check = SomCheck { qe: 2.345671 };
        assert!(check.accepts(2.34567));
        assert!(check.accepts(2.345674));
        assert!(!check.accepts(2.34569));
    }
}
