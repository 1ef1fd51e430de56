//! Reference equality of the blocked SOM kernels: `Codebook::bmus`,
//! `BatchAccumulator::accumulate_block_with` and `quality::quantization_error`.
//!
//! `reference` holds the per-vector forms these replaced, copied verbatim:
//! the BMU search that streams the whole codebook once per input, the grid
//! distance with its torus fold, the accumulation loop that evaluates the
//! neighbourhood kernel once per input and neuron, and the quantization
//! error built on them. They are test oracles only. The properties below
//! check that the library's results are identical to theirs bit for bit:
//! every numerator and denominator element, every BMU index, every distance
//! and the quantization error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use som::batch::BatchAccumulator;
use som::codebook::Codebook;
use som::neighborhood::Kernel;
use som::quality::quantization_error;

mod reference {
    use som::batch::BatchAccumulator;
    use som::codebook::Codebook;
    use som::neighborhood::Kernel;

    pub fn dist_sq(cb: &Codebook, idx: usize, input: &[f64]) -> f64 {
        debug_assert_eq!(input.len(), cb.dims);
        cb.neuron(idx).iter().zip(input).map(|(w, x)| (w - x) * (w - x)).sum()
    }

    pub fn bmu(cb: &Codebook, input: &[f64]) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for i in 0..cb.num_neurons() {
            let d = dist_sq(cb, i, input);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    pub fn grid_dist_sq(cb: &Codebook, a: usize, b: usize) -> f64 {
        let (ax, ay) = cb.coords(a);
        let (bx, by) = cb.coords(b);
        let mut dx = (ax as f64 - bx as f64).abs();
        let mut dy = (ay as f64 - by as f64).abs();
        if cb.torus {
            dx = dx.min(cb.cols as f64 - dx);
            dy = dy.min(cb.rows as f64 - dy);
        }
        dx * dx + dy * dy
    }

    pub fn accumulate_with(
        acc: &mut BatchAccumulator,
        cb: &Codebook,
        input: &[f64],
        sigma: f64,
        kernel: Kernel,
    ) {
        let bmu = bmu(cb, input);
        for n in 0..cb.num_neurons() {
            let h = kernel.eval(grid_dist_sq(cb, bmu, n), sigma);
            if h < 1e-12 {
                continue; // negligible neighborhood weight
            }
            acc.denominator[n] += h;
            let row = &mut acc.numerator[n * cb.dims..(n + 1) * cb.dims];
            for (acc, &x) in row.iter_mut().zip(input) {
                *acc += h * x;
            }
        }
    }

    pub fn quantization_error(cb: &Codebook, inputs: &[Vec<f64>]) -> f64 {
        if inputs.is_empty() {
            return 0.0;
        }
        inputs.iter().map(|x| dist_sq(cb, bmu(cb, x), x).sqrt()).sum::<f64>() / inputs.len() as f64
    }
}

/// One kernel configuration: map shape and topology, neighbourhood, data.
#[derive(Debug, Clone, Copy)]
struct Case {
    rows: usize,
    cols: usize,
    dims: usize,
    len: usize,
    torus: bool,
    kernel: Kernel,
    sigma: f64,
    /// Small-integer weights and inputs, with duplicated neurons: distances
    /// tie exactly, often, so the lowest-index rule decides many BMUs.
    ties: bool,
    seed: u64,
}

fn fixture(c: &Case) -> (Codebook, Vec<Vec<f64>>) {
    let mut r = StdRng::seed_from_u64(c.seed);
    let draw = |r: &mut StdRng| {
        if c.ties {
            r.random_range(0..3u8) as f64
        } else {
            r.random_range(-1.0..1.0)
        }
    };
    let mut cb = Codebook::zeros(c.rows, c.cols, c.dims).with_torus(c.torus);
    for w in cb.weights.iter_mut() {
        *w = draw(&mut r);
    }
    let nn = cb.num_neurons();
    if c.ties && nn > 1 {
        // Copy earlier neurons over later ones: exact duplicates must lose
        // every tie to the lower index.
        for _ in 0..nn.div_ceil(3) {
            let (src, dst) = (r.random_range(0..nn), r.random_range(0..nn));
            let row = cb.neuron(src).to_vec();
            cb.neuron_mut(dst).copy_from_slice(&row);
        }
    }
    let inputs = (0..c.len).map(|_| (0..c.dims).map(|_| draw(&mut r)).collect()).collect();
    (cb, inputs)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Compare every kernel against its reference on one case; `Err` names the
/// first difference.
fn check(c: &Case) -> Result<(), String> {
    let (cb, inputs) = fixture(c);

    let got = cb.bmus(&inputs);
    if got.len() != inputs.len() {
        return Err(format!("bmus returned {} results for {} inputs", got.len(), inputs.len()));
    }
    for (i, (x, &(b, d))) in inputs.iter().zip(&got).enumerate() {
        let want_b = reference::bmu(&cb, x);
        let want_d = reference::dist_sq(&cb, want_b, x);
        if b != want_b || d.to_bits() != want_d.to_bits() {
            return Err(format!("input {i}: bmus ({b}, {d:e}) vs reference ({want_b}, {want_d:e})"));
        }
    }

    let qe = quantization_error(&cb, &inputs);
    let want_qe = reference::quantization_error(&cb, &inputs);
    if qe.to_bits() != want_qe.to_bits() {
        return Err(format!("quantization error {qe:e} vs reference {want_qe:e}"));
    }

    let mut acc = BatchAccumulator::zeros(&cb);
    acc.accumulate_block_with(&cb, &inputs, c.sigma, c.kernel);
    let mut want = BatchAccumulator::zeros(&cb);
    for x in &inputs {
        reference::accumulate_with(&mut want, &cb, x, c.sigma, c.kernel);
    }
    if bits(&acc.denominator) != bits(&want.denominator) {
        return Err("denominator differs from the per-vector loop".into());
    }
    if bits(&acc.numerator) != bits(&want.numerator) {
        return Err("numerator differs from the per-vector loop".into());
    }

    // The single-vector entry points are the same kernel on a block of one.
    if let Some(x) = inputs.first() {
        let mut one = BatchAccumulator::zeros(&cb);
        one.accumulate_with(&cb, x, c.sigma, c.kernel);
        let mut want_one = BatchAccumulator::zeros(&cb);
        reference::accumulate_with(&mut want_one, &cb, x, c.sigma, c.kernel);
        if bits(&one.numerator) != bits(&want_one.numerator)
            || bits(&one.denominator) != bits(&want_one.denominator)
        {
            return Err("accumulate_with differs from the per-vector loop".into());
        }
    }
    Ok(())
}

const DIMS: [usize; 6] = [1, 7, 8, 9, 256, 257];
/// Around the lane width (8) and the internal chunk (64 inputs at 256 dims,
/// 56 at 257).
const LENS: [usize; 9] = [0, 1, 7, 8, 9, 40, 64, 65, 130];
const SIGMAS: [f64; 4] = [0.3, 1.0, 2.5, 40.0];

/// Every dimensionality × block length, on 1×1, 1×N, N×1 and a small 2-D
/// map, planar and torus, Gaussian and bubble, with and without ties.
#[test]
fn blocked_kernels_match_reference_on_small_maps() {
    let mut seed = 0;
    for dims in DIMS {
        for len in LENS {
            for (rows, cols) in [(1, 1), (1, 7), (7, 1), (5, 6)] {
                for torus in [false, true] {
                    for kernel in [Kernel::Gaussian, Kernel::Bubble] {
                        seed += 1;
                        let mut pick = StdRng::seed_from_u64(seed);
                        let c = Case {
                            rows,
                            cols,
                            dims,
                            len,
                            torus,
                            kernel,
                            sigma: SIGMAS[pick.random_range(0..SIGMAS.len())],
                            ties: pick.random(),
                            seed,
                        };
                        check(&c).unwrap_or_else(|e| panic!("{c:?}: {e}"));
                    }
                }
            }
        }
    }
}

/// The paper's 50×50 map: wide and narrow neighbourhoods on both
/// topologies, lengths that cross the lane width and (57 at 257 dims) the
/// chunk.
#[test]
fn blocked_kernels_match_reference_on_the_paper_map() {
    let cases = [
        (256, 9, false, Kernel::Gaussian, 40.0, false),
        (257, 57, true, Kernel::Gaussian, 1.0, false),
        (9, 130, true, Kernel::Bubble, 2.5, true),
        (8, 64, false, Kernel::Bubble, 40.0, true),
        (1, 40, true, Kernel::Gaussian, 0.3, true),
        (7, 7, false, Kernel::Gaussian, 12.0, false),
    ];
    for (i, (dims, len, torus, kernel, sigma, ties)) in cases.into_iter().enumerate() {
        let c = Case {
            rows: 50,
            cols: 50,
            dims,
            len,
            torus,
            kernel,
            sigma,
            ties,
            seed: 500 + i as u64,
        };
        check(&c).unwrap_or_else(|e| panic!("{c:?}: {e}"));
    }
}

/// Exact ties resolve to the lowest index: every neuron identical, or the
/// input equidistant from two distinct neurons.
#[test]
fn ties_resolve_to_the_lowest_neuron_index() {
    let cb = Codebook::zeros(3, 4, 9);
    let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64; 9]).collect();
    assert!(cb.bmus(&inputs).iter().all(|&(b, _)| b == 0));

    let mut cb = Codebook::zeros(1, 4, 1);
    for (n, w) in [3.0, 1.0, 5.0, 1.0].into_iter().enumerate() {
        cb.neuron_mut(n)[0] = w;
    }
    // 2.0 is 1 away from neurons 0, 1 and 3: neuron 0 wins; 1.0 is an exact
    // match for neurons 1 and 3: neuron 1 wins.
    let got = cb.bmus(&[vec![2.0], vec![1.0], vec![4.0]]);
    assert_eq!(got, vec![(0, 1.0), (1, 0.0), (0, 1.0)]);
}

/// Distances that never beat infinity (NaN or overflowing inputs) give
/// neuron 0 and the distance `dist_sq` reports for it, as the reference
/// does.
#[test]
fn non_finite_distances_match_reference() {
    let (cb, _) = fixture(&Case {
        rows: 3,
        cols: 3,
        dims: 5,
        len: 0,
        torus: false,
        kernel: Kernel::Gaussian,
        sigma: 1.0,
        ties: false,
        seed: 9,
    });
    let inputs = vec![
        vec![f64::NAN, 0.0, 0.0, 0.0, 0.0],
        vec![1e300, 0.0, 0.0, 0.0, 0.0],
        vec![0.5; 5],
        vec![f64::INFINITY; 5],
    ];
    for (x, (b, d)) in inputs.iter().zip(cb.bmus(&inputs)) {
        let want_b = reference::bmu(&cb, x);
        assert_eq!(b, want_b);
        assert_eq!(d.to_bits(), reference::dist_sq(&cb, want_b, x).to_bits());
    }
}

proptest! {
    #[test]
    fn blocked_kernels_match_reference(
        seed in any::<u64>(),
        rows in 1usize..13,
        cols in 1usize..13,
        dims in prop_oneof![1usize..20, 250usize..260],
        len in 0usize..140,
        torus in any::<bool>(),
        bubble in any::<bool>(),
        sigma in 0.3f64..40.0,
        ties in any::<bool>(),
    ) {
        let kernel = if bubble { Kernel::Bubble } else { Kernel::Gaussian };
        let c = Case { rows, cols, dims, len, torus, kernel, sigma, ties, seed };
        prop_assert_eq!(check(&c), Ok(()), "{:?}", c);
    }
}
