//! Batch SOM training (Eq. 5) — the formulation the paper parallelizes.
//!
//! One epoch: for every input vector find its BMU against the *epoch-start*
//! codebook, accumulate `h_bmu,i · x` into the numerator and `h_bmu,i` into
//! the denominator of every neuron `i`, then set each weight vector to
//! numerator / denominator. The accumulation is a sum over inputs, hence
//! order-independent and splittable across workers — the parallel driver in
//! the `mrbio` crate sums per-rank accumulators with `MPI_Reduce`, exactly
//! as Fig. 2 of the paper shows.

use crate::codebook::{chunk_len, Codebook, Isa};
use crate::neighborhood::{sigma_schedule, InitMethod, Kernel, SomConfig};

/// Per-epoch accumulator: the numerator matrix (same shape as the codebook)
/// and the denominator vector (one scalar per neuron). "Each worker has its
/// own copy of a new codebook, initialized to zero at the start of an epoch,
/// plus a matrix of floating point scalars with the same shape" (§III.B).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAccumulator {
    /// Σ h·x per neuron, flat `neurons × dims`.
    pub numerator: Vec<f64>,
    /// Σ h per neuron.
    pub denominator: Vec<f64>,
    dims: usize,
}

impl BatchAccumulator {
    /// Reassemble an accumulator from raw parts (e.g. after an MPI reduce of
    /// the packed arrays).
    ///
    /// # Panics
    /// Panics on inconsistent shapes.
    pub fn from_parts(numerator: Vec<f64>, denominator: Vec<f64>, dims: usize) -> Self {
        assert_eq!(numerator.len(), denominator.len() * dims, "accumulator shape mismatch");
        BatchAccumulator { numerator, denominator, dims }
    }

    /// Zeroed accumulator matching a codebook's shape.
    pub fn zeros(cb: &Codebook) -> Self {
        BatchAccumulator {
            numerator: vec![0.0; cb.num_neurons() * cb.dims],
            denominator: vec![0.0; cb.num_neurons()],
            dims: cb.dims,
        }
    }

    /// Accumulate one input vector's contribution (BMU against `cb`,
    /// Gaussian neighborhood of width `sigma`).
    pub fn accumulate(&mut self, cb: &Codebook, input: &[f64], sigma: f64) {
        self.accumulate_with(cb, input, sigma, Kernel::Gaussian);
    }

    /// Accumulate with an explicit neighborhood kernel.
    pub fn accumulate_with(&mut self, cb: &Codebook, input: &[f64], sigma: f64, kernel: Kernel) {
        self.accumulate_block_with(cb, &[input], sigma, kernel);
    }

    /// Accumulate a block of inputs (a MapReduce work unit).
    pub fn accumulate_block(&mut self, cb: &Codebook, inputs: &[Vec<f64>], sigma: f64) {
        self.accumulate_block_with(cb, inputs, sigma, Kernel::Gaussian);
    }

    /// Accumulate a block with an explicit kernel: for every input, its BMU
    /// against `cb`, then `h_bmu,n · x` into the numerator and `h_bmu,n`
    /// into the denominator of every neuron `n` whose weight `h` is not
    /// negligible.
    ///
    /// The loop is neuron-major over each chunk of inputs: a neuron's
    /// numerator row stays hot while the chunk's inputs are added to it, in
    /// input order, so every numerator and denominator element receives the
    /// same terms in the same order as a per-input loop would give it. `h`
    /// depends only on the grid offset between BMU and neuron, so it is
    /// evaluated once per offset, through the same `grid_dist_sq` and
    /// `Kernel::eval`, instead of once per input and neuron. Both loops run
    /// as AVX2 code when the CPU has it, with the same bits.
    ///
    /// # Panics
    /// Panics if the accumulator's shape is not the codebook's, or if an
    /// input's length is not `dims`.
    pub fn accumulate_block_with<V: AsRef<[f64]>>(
        &mut self,
        cb: &Codebook,
        inputs: &[V],
        sigma: f64,
        kernel: Kernel,
    ) {
        self.accumulate_block_on(Isa::detect(), cb, inputs, sigma, kernel);
    }

    /// [`BatchAccumulator::accumulate_block_with`] with its BMU search and
    /// numerator/denominator loop compiled for `isa`.
    ///
    /// # Panics
    /// Panics if the accumulator's shape is not the codebook's, if an
    /// input's length is not `dims`, or if `isa` is AVX2 and the CPU lacks
    /// it.
    pub(crate) fn accumulate_block_on<V: AsRef<[f64]>>(
        &mut self,
        isa: Isa,
        cb: &Codebook,
        inputs: &[V],
        sigma: f64,
        kernel: Kernel,
    ) {
        assert_eq!(
            (self.dims, self.denominator.len(), self.numerator.len()),
            (cb.dims, cb.num_neurons(), cb.weights.len()),
            "accumulator shape (dims, neurons, numerator length) differs from the codebook's"
        );
        // h_by_offset[|dy| * cols + |dx|]: neuron `|dy| * cols + |dx|` sits
        // at grid offset (|dx|, |dy|) from neuron 0, and `grid_dist_sq`
        // depends on nothing but that offset (and folds it on a torus).
        let h_by_offset: Vec<f64> =
            (0..cb.num_neurons()).map(|off| kernel.eval(cb.grid_dist_sq(0, off), sigma)).collect();
        for chunk in inputs.chunks(chunk_len(self.dims)) {
            let bmus: Vec<(usize, usize)> =
                cb.bmus_on(isa, chunk).into_iter().map(|(bmu, _)| cb.coords(bmu)).collect();
            match isa {
                Isa::Baseline => self.accumulate_pass(cb, &h_by_offset, chunk, &bmus),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => {
                    assert!(std::is_x86_feature_detected!("avx2"), "AVX2 kernel on a CPU without AVX2");
                    // SAFETY: the CPU has AVX2, asserted just above.
                    unsafe { self.accumulate_pass_avx2(cb, &h_by_offset, chunk, &bmus) }
                }
            }
        }
    }

    /// Add every input of `chunk` into every neuron's numerator row and
    /// denominator, neuron-major, inputs in order; `bmus[i]` is the grid
    /// position of input `i`'s BMU on `cb`.
    #[inline(always)]
    fn accumulate_pass<V: AsRef<[f64]>>(
        &mut self,
        cb: &Codebook,
        h_by_offset: &[f64],
        chunk: &[V],
        bmus: &[(usize, usize)],
    ) {
        let rows = self.numerator.chunks_exact_mut(self.dims);
        for (n, (row, den)) in rows.zip(self.denominator.iter_mut()).enumerate() {
            let (nx, ny) = cb.coords(n);
            for (x, &(bx, by)) in chunk.iter().zip(bmus) {
                let h = h_by_offset[by.abs_diff(ny) * cb.cols + bx.abs_diff(nx)];
                if h < 1e-12 {
                    continue; // negligible neighborhood weight
                }
                *den += h;
                for (acc, &x) in row.iter_mut().zip(x.as_ref()) {
                    *acc += h * x;
                }
            }
        }
    }

    /// [`BatchAccumulator::accumulate_pass`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn accumulate_pass_avx2<V: AsRef<[f64]>>(
        &mut self,
        cb: &Codebook,
        h_by_offset: &[f64],
        chunk: &[V],
        bmus: &[(usize, usize)],
    ) {
        self.accumulate_pass(cb, h_by_offset, chunk, bmus);
    }

    /// Merge another accumulator into this one (the MPI_Reduce sum).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &BatchAccumulator) {
        assert_eq!(self.numerator.len(), other.numerator.len());
        assert_eq!(self.denominator.len(), other.denominator.len());
        for (a, b) in self.numerator.iter_mut().zip(&other.numerator) {
            *a += b;
        }
        for (a, b) in self.denominator.iter_mut().zip(&other.denominator) {
            *a += b;
        }
    }

    /// Apply Eq. 5: replace every weight vector whose denominator is
    /// non-negligible by numerator/denominator; starved neurons keep their
    /// previous weights (the standard convention).
    pub fn apply(&self, cb: &mut Codebook) {
        for n in 0..cb.num_neurons() {
            let den = self.denominator[n];
            if den <= 1e-12 {
                continue;
            }
            let row = &self.numerator[n * self.dims..(n + 1) * self.dims];
            for (w, &num) in cb.neuron_mut(n).iter_mut().zip(row) {
                *w = num / den;
            }
        }
    }
}

/// Serial batch training: the reference implementation the parallel version
/// must match bit-for-bit (floating-point summation order inside one epoch
/// is per-neuron accumulation in input order; the parallel version preserves
/// it within blocks and sums block results, which is associative only up to
/// rounding — the comparison tests use an exact block split that keeps
/// summation order identical, plus epsilon comparisons elsewhere).
pub fn batch_train(inputs: &[Vec<f64>], config: &SomConfig) -> Codebook {
    let mut cb = init_codebook(config, inputs);
    let sigma0 = config.sigma0_for(cb.half_diagonal());
    for epoch in 0..config.epochs {
        let sigma = sigma_schedule(sigma0, config.sigma_end, config.epochs, epoch);
        let mut acc = BatchAccumulator::zeros(&cb);
        acc.accumulate_block_with(&cb, inputs, sigma, config.kernel);
        acc.apply(&mut cb);
    }
    cb
}

/// Initialize a codebook per the configuration: seeded-random weights or
/// the PCA plane of `pca_inputs` ("assigned random values or linearly
/// generated from the first two PCA eigen-vectors", §II.D). The topology
/// flag is applied either way.
///
/// # Panics
/// Panics if PCA initialization is requested with no inputs.
pub fn init_codebook(config: &SomConfig, pca_inputs: &[Vec<f64>]) -> Codebook {
    let cb = match config.init {
        InitMethod::Random => {
            let mut rng = rand_seeded(config.seed);
            Codebook::random(config.rows, config.cols, config.dims, &mut rng, 0.0, 1.0)
        }
        InitMethod::PcaPlane => {
            assert!(!pca_inputs.is_empty(), "PCA initialization needs input vectors");
            crate::pca::pca_init(pca_inputs, config.rows, config.cols)
        }
    };
    cb.with_torus(config.torus)
}

/// Deterministic RNG used across the SOM drivers so serial and parallel
/// runs initialize identical codebooks.
pub fn rand_seeded(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SomConfig {
        SomConfig { rows: 4, cols: 4, dims: 3, epochs: 8, sigma0: None, sigma_end: 1.0, seed: 9, ..SomConfig::default() }
    }

    fn clustered_inputs() -> Vec<Vec<f64>> {
        // Two tight clusters in opposite corners of the unit cube.
        let mut v = Vec::new();
        for i in 0..20 {
            let e = (i as f64) * 1e-3;
            v.push(vec![0.1 + e, 0.1, 0.1]);
            v.push(vec![0.9 - e, 0.9, 0.9]);
        }
        v
    }

    #[test]
    fn batch_update_is_order_independent() {
        let cfg = small_config();
        let inputs = clustered_inputs();
        let mut reversed = inputs.clone();
        reversed.reverse();
        // Same initial codebook, one epoch accumulated in different orders.
        let mut rng = rand_seeded(cfg.seed);
        let cb = Codebook::random(cfg.rows, cfg.cols, cfg.dims, &mut rng, 0.0, 1.0);
        let mut a1 = BatchAccumulator::zeros(&cb);
        a1.accumulate_block(&cb, &inputs, 2.0);
        let mut a2 = BatchAccumulator::zeros(&cb);
        a2.accumulate_block(&cb, &reversed, 2.0);
        for (x, y) in a1.denominator.iter().zip(&a2.denominator) {
            assert!((x - y).abs() < 1e-9);
        }
        for (x, y) in a1.numerator.iter().zip(&a2.numerator) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_equals_joint_accumulation_on_split() {
        let cfg = small_config();
        let inputs = clustered_inputs();
        let mut rng = rand_seeded(cfg.seed);
        let cb = Codebook::random(cfg.rows, cfg.cols, cfg.dims, &mut rng, 0.0, 1.0);
        let mut joint = BatchAccumulator::zeros(&cb);
        joint.accumulate_block(&cb, &inputs, 3.0);
        let (left, right) = inputs.split_at(inputs.len() / 2);
        let mut a = BatchAccumulator::zeros(&cb);
        a.accumulate_block(&cb, left, 3.0);
        let mut b = BatchAccumulator::zeros(&cb);
        b.accumulate_block(&cb, right, 3.0);
        a.merge(&b);
        for (x, y) in joint.numerator.iter().zip(&a.numerator) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn codebook_converges_into_input_hull() {
        let cfg = small_config();
        let cb = batch_train(&clustered_inputs(), &cfg);
        // After training, every weight must lie within the input range
        // (convex combinations of inputs).
        for &w in &cb.weights {
            assert!(
                (0.0..=1.0).contains(&w),
                "weight {w} escaped the convex hull of inputs"
            );
        }
    }

    #[test]
    fn training_reduces_quantization_error() {
        let cfg = SomConfig { epochs: 15, ..small_config() };
        let inputs = clustered_inputs();
        let mut rng = rand_seeded(cfg.seed);
        let initial = Codebook::random(cfg.rows, cfg.cols, cfg.dims, &mut rng, 0.0, 1.0);
        let trained = batch_train(&inputs, &cfg);
        let qe = |cb: &Codebook| -> f64 {
            inputs.iter().map(|x| cb.dist_sq(cb.bmu(x), x).sqrt()).sum::<f64>()
                / inputs.len() as f64
        };
        assert!(
            qe(&trained) < 0.5 * qe(&initial),
            "training should cut quantization error: {} vs {}",
            qe(&trained),
            qe(&initial)
        );
    }

    #[test]
    fn starved_neurons_keep_weights() {
        let mut cb = Codebook::zeros(2, 2, 1);
        cb.neuron_mut(3).copy_from_slice(&[7.0]);
        let acc = BatchAccumulator::zeros(&cb);
        let mut cb2 = cb.clone();
        acc.apply(&mut cb2);
        assert_eq!(cb, cb2, "empty accumulator must not move weights");
    }

    #[test]
    #[should_panic(expected = "accumulator shape")]
    fn accumulating_into_an_accumulator_of_other_dims_panics() {
        let mut acc = BatchAccumulator::zeros(&Codebook::zeros(2, 2, 3));
        acc.accumulate(&Codebook::zeros(2, 2, 4), &[1.0; 4], 1.0);
    }

    #[test]
    #[should_panic(expected = "accumulator shape")]
    fn accumulating_into_an_accumulator_of_other_neurons_panics() {
        let mut acc = BatchAccumulator::zeros(&Codebook::zeros(2, 2, 3));
        acc.accumulate(&Codebook::zeros(2, 3, 3), &[1.0; 3], 1.0);
    }

    #[test]
    fn maps_narrower_than_one_cell_train() {
        // Half-diagonals 0, 0.5 and 0.71 are all below σ_end = 1.
        for (rows, cols) in [(1, 1), (1, 2), (2, 2)] {
            let cfg = SomConfig { rows, cols, ..small_config() };
            let cb = batch_train(&clustered_inputs(), &cfg);
            assert_eq!(cb.num_neurons(), rows * cols);
            assert!(cb.weights.iter().all(|w| (0.0..=1.0).contains(w)), "{rows}x{cols}");
        }
    }

    #[test]
    fn two_clusters_map_to_distant_neurons() {
        let cfg = SomConfig { epochs: 20, ..small_config() };
        let cb = batch_train(&clustered_inputs(), &cfg);
        let b1 = cb.bmu(&[0.1, 0.1, 0.1]);
        let b2 = cb.bmu(&[0.9, 0.9, 0.9]);
        assert_ne!(b1, b2);
        assert!(cb.grid_dist_sq(b1, b2) >= 4.0, "clusters should separate on the grid");
    }
}
