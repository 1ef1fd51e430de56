//! # mrmpi-bio — parallel BLAST and batch SOM on a MapReduce-MPI library
//!
//! A full Rust reproduction of *Sul & Tovchigrechko, "Parallelizing BLAST
//! and SOM algorithms with MapReduce-MPI library", IPDPS 2011* — the two
//! applications, every substrate they depend on, and the harness that
//! regenerates every figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members; see each crate's
//! documentation for details:
//!
//! * [`mpisim`] — in-process MPI-like runtime (ranks as threads, collectives,
//!   virtual clocks);
//! * [`mrmpi`] — the MapReduce-MPI library port (paged KV/KMV stores,
//!   map/collate/reduce, master-worker scheduling, out-of-core paging);
//! * [`bioseq`] — FASTA IO, 2-bit encoding, database partitioning
//!   (`formatdb`), read shredding, tetranucleotide composition vectors,
//!   synthetic workload generators;
//! * [`blast`] — a from-scratch BLAST engine (lookup tables, two-hit
//!   seeding, X-drop extensions, Karlin–Altschul statistics, DUST/SEG
//!   masking);
//! * [`som`] — self-organizing maps, online and batch, with U-matrix and
//!   quality metrics;
//! * [`mrbio`] — **the paper's contribution**: the MR-MPI BLAST and MR-MPI
//!   batch SOM parallel applications plus the HTC matrix-split baseline;
//! * [`perfmodel`] — the Ranger cluster model and discrete-event scheduler
//!   simulation behind the scaling figures.
//!
//! ## Quickstart
//!
//! ```
//! use bioseq::db::{format_db, FormatDbConfig};
//! use bioseq::gen::{dna_workload, WorkloadConfig};
//! use bioseq::shred::query_blocks;
//! use mpisim::World;
//! use mrbio::{run_mrblast, MrBlastConfig};
//! use std::sync::Arc;
//!
//! // A small synthetic workload with planted homologies.
//! let w = dna_workload(7, &WorkloadConfig::default());
//! let dir = std::env::temp_dir().join("mrmpi-bio-doc");
//! let db = Arc::new(format_db(&w.db, &FormatDbConfig::dna(8_192), &dir, "demo").unwrap());
//! let blocks = Arc::new(query_blocks(w.queries, 25));
//!
//! // Run the parallel search on 4 simulated MPI ranks.
//! let reports = World::new(4).run(move |comm| {
//!     run_mrblast(comm, &db, &blocks, &MrBlastConfig::blastn()).unwrap()
//! });
//! let hits: usize = reports.iter().map(|r| r.hits.len()).sum();
//! assert!(hits > 0);
//! ```

pub use bioseq;
pub use blast;
pub use mpisim;
pub use mrbio;
pub use mrmpi;
pub use perfmodel;
pub use som;
