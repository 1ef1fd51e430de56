//! Golden SOM digests: the trained codebook and its quantization error,
//! hashed with FNV-1a over their IEEE-754 bits and pinned, for the serial
//! `batch_train` and for a 3-rank `run_mrsom`. Any change to the BMU search,
//! the neighbourhood kernel, the accumulation order or the update that moves
//! a single bit of a single weight changes a digest.
//!
//! The pinned values were computed before the BMU search and the batch
//! accumulation were rewritten as blocked kernels, so these tests prove the
//! rewrite bit-for-bit against the per-vector code, not only that parallel
//! runs agree with serial ones.

use mpisim::World;
use mrbio::{run_mrsom, MrSomConfig, VectorMatrix};
use mrmpi::MapStyle;
use som::batch::batch_train;
use som::codebook::Codebook;
use som::neighborhood::{InitMethod, Kernel, SomConfig};
use som::quality::quantization_error;

/// FNV-1a over the little-endian bytes of every weight, then of the QE.
fn digest(cb: &Codebook, inputs: &[Vec<f64>]) -> u64 {
    let qe = quantization_error(cb, inputs);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in cb.weights.iter().chain(std::iter::once(&qe)) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Train `som` on `inputs` serially and on 3 ranks; return both digests.
/// The parallel run uses the static `Chunk` map style so every rank sums
/// the same blocks in the same order on every run, which makes its
/// rank-ordered reduce, and so its digest, reproducible.
fn digests(tag: &str, inputs: &[Vec<f64>], som: SomConfig, block_size: usize) -> (u64, u64) {
    let serial = digest(&batch_train(inputs, &som), inputs);
    let path =
        std::env::temp_dir().join(format!("it-som-golden-{tag}-{}.bin", std::process::id()));
    VectorMatrix::create(&path, inputs).expect("write matrix");
    let p = path.clone();
    let results = World::new(3).run(move |comm| {
        let matrix = VectorMatrix::open(&p).expect("open matrix");
        let cfg = MrSomConfig { block_size, map_style: MapStyle::Chunk, ..MrSomConfig::new(som) };
        run_mrsom(comm, &matrix, &cfg).0
    });
    std::fs::remove_file(&path).ok();
    let parallel = digest(&results[0], inputs);
    for cb in &results[1..] {
        assert_eq!(cb, &results[0], "{tag}: every rank returns the same codebook");
    }
    (serial, parallel)
}

/// The Fig. 6 shape, reduced: uniform vectors, Gaussian kernel, planar
/// grid, blocks of 40, σ shrinking from the half-diagonal to one cell.
#[test]
fn fig6_shape_gaussian_planar_digest_is_pinned() {
    let inputs = bioseq::gen::random_vectors(6006, 200, 48);
    let som = SomConfig {
        rows: 12,
        cols: 10,
        dims: 48,
        epochs: 6,
        seed: 606,
        ..SomConfig::default()
    };
    let got = digests("fig6", &inputs, som, 40);
    let want = (0x53b5_7cf2_28ef_2f0a, 0x6711_74e9_951c_62ec);
    assert_eq!(got, want, "fig6 digests (serial, 3-rank)");
}

/// PCA-plane initialization on a toroidal grid with the bubble kernel:
/// exercises the torus fold, the cut-off kernel and its zero weights.
#[test]
fn pca_torus_bubble_digest_is_pinned() {
    let inputs = bioseq::gen::random_vectors(6007, 150, 9);
    let som = SomConfig {
        rows: 7,
        cols: 9,
        dims: 9,
        epochs: 7,
        sigma0: Some(4.5),
        sigma_end: 0.8,
        seed: 707,
        kernel: Kernel::Bubble,
        init: InitMethod::PcaPlane,
        torus: true,
    };
    let got = digests("pca-torus", &inputs, som, 17);
    let want = (0xaa7b_1348_cf3b_3536, 0x87bb_f0e1_7b72_074a);
    assert_eq!(got, want, "pca-torus-bubble digests (serial, 3-rank)");
}
