//! Both compilations of the blocked kernels against the per-vector loops.
//!
//! `Codebook::bmus` and `BatchAccumulator::accumulate_block_with` run
//! whichever [`Isa`] the CPU supports, so a test through them only ever
//! sees one variant. These tests run every variant this CPU can execute
//! directly and require each to give, bit for bit, what the per-vector
//! `bmu` / `dist_sq` / accumulation loop gives, and the same bits as the
//! baseline variant (NaN results only as NaN, see [`bits_of`]). On a CPU
//! without AVX2 only the baseline half runs.

use crate::batch::BatchAccumulator;
use crate::codebook::{Codebook, Isa};
use crate::neighborhood::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every variant this CPU runs, baseline first.
fn variants() -> Vec<Isa> {
    let widest = Isa::detect();
    if widest == Isa::Baseline {
        eprintln!("skipping the AVX2 kernel variant: this CPU lacks AVX2");
        vec![widest]
    } else {
        vec![Isa::Baseline, widest]
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    rows: usize,
    cols: usize,
    dims: usize,
    len: usize,
    torus: bool,
    kernel: Kernel,
    sigma: f64,
    /// Small-integer weights and inputs with duplicated neurons, so
    /// distances tie exactly and the lowest-index rule decides.
    ties: bool,
    /// NaN, ±1e300 (whose square overflows) and ±∞ in some inputs.
    non_finite: bool,
    seed: u64,
}

fn fixture(c: &Case) -> (Codebook, Vec<Vec<f64>>) {
    let mut r = StdRng::seed_from_u64(c.seed);
    let draw = |r: &mut StdRng| if c.ties { r.random_range(0..3u8) as f64 } else { r.random_range(-1.0..1.0) };
    let mut cb = Codebook::zeros(c.rows, c.cols, c.dims).with_torus(c.torus);
    for w in cb.weights.iter_mut() {
        *w = draw(&mut r);
    }
    let nn = cb.num_neurons();
    if c.ties {
        for _ in 0..nn.div_ceil(3) {
            let (src, dst) = (r.random_range(0..nn), r.random_range(0..nn));
            let row = cb.neuron(src).to_vec();
            cb.neuron_mut(dst).copy_from_slice(&row);
        }
    }
    let mut inputs: Vec<Vec<f64>> = (0..c.len).map(|_| (0..c.dims).map(|_| draw(&mut r)).collect()).collect();
    if c.non_finite {
        let specials = [f64::NAN, 1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY];
        for (x, s) in inputs.iter_mut().step_by(3).zip(specials.into_iter().cycle()) {
            let d = r.random_range(0..c.dims);
            x[d] = s;
        }
    }
    (cb, inputs)
}

/// The per-vector accumulation: one BMU and one kernel evaluation per input
/// and neuron.
fn reference_accumulate(cb: &Codebook, inputs: &[Vec<f64>], sigma: f64, kernel: Kernel) -> BatchAccumulator {
    let mut acc = BatchAccumulator::zeros(cb);
    for x in inputs {
        let bmu = cb.bmu(x);
        for n in 0..cb.num_neurons() {
            let h = kernel.eval(cb.grid_dist_sq(bmu, n), sigma);
            if h < 1e-12 {
                continue;
            }
            acc.denominator[n] += h;
            for (a, &x) in acc.numerator[n * cb.dims..(n + 1) * cb.dims].iter_mut().zip(x) {
                *a += h * x;
            }
        }
    }
    acc
}

/// The bits of `x`, except that every NaN reads as `f64::NAN`. Rust leaves
/// the sign and payload of a NaN result unspecified: where a NaN input meets
/// the NaN of `∞ − ∞`, the add propagates whichever operand the compiler put
/// first, and the vectorized and scalar code order them differently. Every
/// non-NaN result is compared bit for bit.
fn bits_of(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().copied().map(bits_of).collect()
}

/// BMUs as (index, distance bits) plus numerator and denominator bits, all
/// through [`bits_of`].
type Bits = (Vec<(usize, u64)>, Vec<u64>, Vec<u64>);

fn run(isa: Isa, cb: &Codebook, inputs: &[Vec<f64>], c: &Case) -> Bits {
    let bmus = cb.bmus_on(isa, inputs).into_iter().map(|(b, d)| (b, bits_of(d))).collect();
    let mut acc = BatchAccumulator::zeros(cb);
    acc.accumulate_block_on(isa, cb, inputs, c.sigma, c.kernel);
    (bmus, bits(&acc.numerator), bits(&acc.denominator))
}

fn check(c: &Case) {
    let (cb, inputs) = fixture(c);
    let want_bmus: Vec<(usize, u64)> = inputs
        .iter()
        .map(|x| {
            let b = cb.bmu(x);
            (b, bits_of(cb.dist_sq(b, x)))
        })
        .collect();
    let want_acc = reference_accumulate(&cb, &inputs, c.sigma, c.kernel);
    let want = (want_bmus, bits(&want_acc.numerator), bits(&want_acc.denominator));
    let mut baseline = None;
    for isa in variants() {
        let got = run(isa, &cb, &inputs, c);
        assert!(got.0 == want.0, "{isa:?} {c:?}: BMUs differ from the per-vector bmu/dist_sq");
        assert!(got.1 == want.1, "{isa:?} {c:?}: numerator differs from the per-vector loop");
        assert!(got.2 == want.2, "{isa:?} {c:?}: denominator differs from the per-vector loop");
        let baseline = baseline.get_or_insert_with(|| got.clone());
        assert!(got == *baseline, "{isa:?} {c:?}: differs from the baseline variant");
    }
}

/// The shapes of `tests/kernel_reference.rs`: dims around the 8-lane group
/// and the paper's 256, blocks around the group and the paper's 40, both
/// topologies and kernels, ties and non-finite inputs.
#[test]
fn every_variant_matches_the_per_vector_loops() {
    let mut seed = 0;
    for dims in [1, 7, 8, 9, 256, 257] {
        for len in [0, 1, 7, 8, 9, 40, 65] {
            for torus in [false, true] {
                for kernel in [Kernel::Gaussian, Kernel::Bubble] {
                    seed += 1;
                    let mut pick = StdRng::seed_from_u64(seed);
                    let c = Case {
                        rows: 5,
                        cols: 6,
                        dims,
                        len,
                        torus,
                        kernel,
                        sigma: [0.3, 1.0, 2.5, 40.0][pick.random_range(0..4)],
                        ties: pick.random(),
                        non_finite: pick.random(),
                        seed,
                    };
                    check(&c);
                }
            }
        }
    }
}

/// The paper's work unit: 40 inputs of 256 dims on a 50×50 map, at the
/// widest neighbourhood of its schedule, where every neuron accumulates.
#[test]
fn every_variant_matches_on_the_paper_map() {
    check(&Case {
        rows: 50,
        cols: 50,
        dims: 256,
        len: 40,
        torus: false,
        kernel: Kernel::Gaussian,
        sigma: 34.6,
        ties: false,
        non_finite: false,
        seed: 77,
    });
}
