//! The workloads and their seeded input generator. The same seed gives
//! byte-identical input files; the CLIs receive only those files.

use bioseq::gen::{dna_workload, mutate_dna, random_dna, random_vectors, rng, WorkloadConfig};
use bioseq::seq::SeqRecord;
use bioseq::shred::{shred_record, ShredConfig};

/// Ranks of every parallel run: one dedicated master plus two workers, so
/// the busy threads match a two-core host. The serial baseline uses one.
pub const PARALLEL_RANKS: usize = 3;

/// A BLAST workload's generated inputs and CLI settings.
pub struct BlastInputs {
    /// Reference sequences, formatted by `mb-formatdb`.
    pub refs: Vec<SeqRecord>,
    /// Query reads, searched by `mb-blast`.
    pub queries: Vec<SeqRecord>,
    /// `mb-formatdb --partition-bytes`.
    pub partition_bytes: usize,
    /// `mb-blast --block-size`.
    pub block_size: usize,
}

/// The SOM workload's generated vectors and CLI settings.
pub struct SomInputs {
    /// Input vectors, written as a dense matrix for `mb-som --input`.
    pub vectors: Vec<Vec<f64>>,
    pub rows: usize,
    pub cols: usize,
    pub epochs: usize,
    pub block_size: usize,
    /// `mb-som --seed` (codebook initialisation), the workload seed.
    pub seed: u64,
}

pub enum Inputs {
    Blast(BlastInputs),
    Som(SomInputs),
}

pub const WORKLOADS: [&str; 3] = ["blastn-reads", "blastn-widedb", "som-paper"];

/// Generate the inputs of workload `name` from `seed`.
pub fn generate(name: &str, seed: u64) -> Result<Inputs, String> {
    match name {
        "blastn-reads" => Ok(Inputs::Blast(metagenome_reads(seed))),
        "blastn-widedb" => Ok(Inputs::Blast(wide_db(seed))),
        "som-paper" => Ok(Inputs::Som(SomInputs {
            vectors: random_vectors(seed, 700, 256),
            rows: 50,
            cols: 50,
            epochs: 3,
            block_size: 40,
            seed,
        })),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The paper's §IV.A shape: reference genomes come in families of related
/// strains, and the reads are 400 bp / 200 bp-overlap shreds of one more,
/// unsequenced strain per family, so every read has several homologs. The
/// families' reads are interleaved, each family's in genome order, so every
/// query block holds overlapping reads of every family: the work units stay
/// alike, and a block's distinct words stay clear of the lookup table's
/// capacity steps, which would otherwise make peak RSS jump between seeds.
fn metagenome_reads(seed: u64) -> BlastInputs {
    const FAMILIES: usize = 6;
    const STRAINS: usize = 4;
    const GENOME_LEN: usize = 6_000;
    let mut r = rng(seed);
    let mut refs = Vec::new();
    let mut shreds = Vec::new();
    for f in 0..FAMILIES {
        let ancestor = random_dna(&mut r, GENOME_LEN, 0.5);
        for s in 0..STRAINS {
            let strain = mutate_dna(&mut r, &ancestor, 0.04, 0.002);
            refs.push(SeqRecord::new(format!("fam{f}_strain{s}"), strain));
        }
        let sampled = SeqRecord::new(
            format!("fam{f}_sample"),
            mutate_dna(&mut r, &ancestor, 0.04, 0.002),
        );
        shreds.push(shred_record(&sampled, &ShredConfig::default()));
    }
    let longest = shreds.iter().map(Vec::len).max().unwrap_or(0);
    let queries = (0..longest)
        .flat_map(|i| shreds.iter().filter_map(move |fam| fam.get(i).cloned()))
        .collect();
    BlastInputs {
        refs,
        queries,
        partition_bytes: 4_800,
        block_size: 100,
    }
}

/// Many unrelated references in many small partitions, searched by a few
/// hundred queries of which about 90% are random decoys.
fn wide_db(seed: u64) -> BlastInputs {
    let cfg = WorkloadConfig {
        db_seqs: 60,
        db_seq_len: 20_000,
        queries: 300,
        homolog_fraction: 0.1,
        ..WorkloadConfig::default()
    };
    let w = dna_workload(seed, &cfg);
    BlastInputs {
        refs: w.db,
        queries: w.queries,
        partition_bytes: 15_000,
        block_size: 100,
    }
}

impl BlastInputs {
    /// Query residues × reference residues, in units of 10⁹.
    pub fn work(&self) -> f64 {
        let q: usize = self.queries.iter().map(SeqRecord::len).sum();
        let d: usize = self.refs.iter().map(SeqRecord::len).sum();
        q as f64 * d as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FASTA bytes of `records`, as the benchmark writes them to files.
    fn fasta_bytes(records: &[SeqRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        bioseq::fasta::write_fasta(&mut out, records).expect("writing to a Vec cannot fail");
        out
    }

    fn blast_bytes(name: &str, seed: u64) -> (Vec<u8>, Vec<u8>) {
        match generate(name, seed).unwrap() {
            Inputs::Blast(b) => (fasta_bytes(&b.refs), fasta_bytes(&b.queries)),
            Inputs::Som(_) => unreachable!("{name} is a BLAST workload"),
        }
    }

    fn som_bits(seed: u64) -> Vec<u64> {
        match generate("som-paper", seed).unwrap() {
            Inputs::Som(s) => s.vectors.iter().flatten().map(|x| x.to_bits()).collect(),
            Inputs::Blast(_) => unreachable!("som-paper is a SOM workload"),
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for name in ["blastn-reads", "blastn-widedb"] {
            assert_eq!(blast_bytes(name, 7), blast_bytes(name, 7), "{name}");
            let (a, b) = (blast_bytes(name, 7), blast_bytes(name, 8));
            assert!(
                a.0 != b.0 && a.1 != b.1,
                "{name}: seeds 7 and 8 gave equal inputs"
            );
        }
        assert_eq!(som_bits(7), som_bits(7));
        assert_ne!(som_bits(7), som_bits(8));
    }

    #[test]
    fn reads_have_the_papers_shape() {
        let Inputs::Blast(b) = generate("blastn-reads", 1).unwrap() else {
            unreachable!()
        };
        assert!(b.queries.iter().all(|q| q.len() <= 400));
        assert!(b.queries.len() > b.block_size, "more than one query block");
        assert!(generate("nope", 1).is_err());
    }
}
