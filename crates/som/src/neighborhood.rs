//! Neighborhood kernel and training schedules.

/// Gaussian neighborhood function (Eq. 4): `exp(-d² / σ(t)²)` where `d` is
/// the grid distance between the BMU and the updated neuron.
///
/// (The paper's Eq. 4 writes the kernel with σ² in the denominator without
/// the conventional factor 2; we follow the paper.)
#[inline]
pub fn gaussian(grid_dist_sq: f64, sigma: f64) -> f64 {
    (-grid_dist_sq / (sigma * sigma)).exp()
}

/// Bubble (cut-off) neighborhood: 1 inside radius σ, 0 outside — the
/// classic cheap alternative ("often the Gaussian is used", §II.D, but
/// SOM_PAK-style bubble kernels are standard too).
#[inline]
pub fn bubble(grid_dist_sq: f64, sigma: f64) -> f64 {
    if grid_dist_sq <= sigma * sigma {
        1.0
    } else {
        0.0
    }
}

/// Neighborhood kernel selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Gaussian kernel (Eq. 4) — the paper's choice and the default.
    #[default]
    Gaussian,
    /// Bubble (cut-off) kernel.
    Bubble,
}

impl Kernel {
    /// Evaluate the kernel at a squared grid distance.
    #[inline]
    pub fn eval(self, grid_dist_sq: f64, sigma: f64) -> f64 {
        match self {
            Kernel::Gaussian => gaussian(grid_dist_sq, sigma),
            Kernel::Bubble => bubble(grid_dist_sq, sigma),
        }
    }
}

/// Codebook initialization method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMethod {
    /// Uniform random weights — "assigned random values" (§II.D).
    #[default]
    Random,
    /// Plane spanned by the first two principal components — "linearly
    /// generated from the first two PCA eigen-vectors" (§II.D).
    PcaPlane,
}

/// σ schedule: linear decay from `sigma0` ("no less than half of the largest
/// diagonal of the map") down to `sigma_end` ("the width of a single cell")
/// over `epochs` steps.
pub fn sigma_schedule(sigma0: f64, sigma_end: f64, epochs: usize, epoch: usize) -> f64 {
    assert!(sigma0 >= sigma_end && sigma_end > 0.0, "schedule must decrease to a positive width");
    if epochs <= 1 {
        return sigma_end;
    }
    let t = (epoch.min(epochs - 1)) as f64 / (epochs - 1) as f64;
    sigma0 + (sigma_end - sigma0) * t
}

/// Learning-rate schedule for the online algorithm: monotone decay from
/// `alpha0` toward `alpha0 * 0.01`.
pub fn alpha_schedule(alpha0: f64, steps: usize, step: usize) -> f64 {
    assert!(alpha0 > 0.0 && alpha0 < 1.0, "0 < alpha < 1 required");
    if steps <= 1 {
        return alpha0;
    }
    let t = (step.min(steps - 1)) as f64 / (steps - 1) as f64;
    alpha0 * (1.0 - 0.99 * t)
}

/// Training configuration shared by the serial and parallel SOM drivers.
#[derive(Debug, Clone, Copy)]
pub struct SomConfig {
    /// Grid rows (paper benchmark: 50).
    pub rows: usize,
    /// Grid cols (paper benchmark: 50).
    pub cols: usize,
    /// Input dimensionality (paper benchmark: 256).
    pub dims: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial neighborhood width; `None` = half the grid diagonal.
    pub sigma0: Option<f64>,
    /// Final neighborhood width (single cell).
    pub sigma_end: f64,
    /// RNG seed for initialization.
    pub seed: u64,
    /// Neighborhood kernel.
    pub kernel: Kernel,
    /// Codebook initialization.
    pub init: InitMethod,
    /// Toroidal grid topology.
    pub torus: bool,
}

impl Default for SomConfig {
    fn default() -> Self {
        SomConfig {
            rows: 10,
            cols: 10,
            dims: 2,
            epochs: 10,
            sigma0: None,
            sigma_end: 1.0,
            seed: 42,
            kernel: Kernel::Gaussian,
            init: InitMethod::Random,
            torus: false,
        }
    }
}

impl SomConfig {
    /// A 50×50 map as in the paper's benchmarks.
    pub fn paper_default(dims: usize, epochs: usize) -> Self {
        SomConfig { rows: 50, cols: 50, dims, epochs, ..SomConfig::default() }
    }

    /// Effective σ0 for a given codebook shape: the explicit `sigma0`, or
    /// else the half-diagonal, but never below `sigma_end` — on maps whose
    /// half-diagonal is under one cell (1×1, 1×2, 2×2) the schedule starts
    /// and stays at "the width of a single cell" (§II.D).
    pub fn sigma0_for(&self, half_diagonal: f64) -> f64 {
        self.sigma0.unwrap_or_else(|| half_diagonal.max(self.sigma_end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_peaks_at_zero_and_decays() {
        assert_eq!(gaussian(0.0, 3.0), 1.0);
        assert!(gaussian(1.0, 3.0) > gaussian(4.0, 3.0));
        assert!(gaussian(100.0, 1.0) < 1e-20);
    }

    #[test]
    fn wider_sigma_flattens_kernel() {
        assert!(gaussian(9.0, 10.0) > gaussian(9.0, 2.0));
    }

    #[test]
    fn sigma_schedule_monotone_and_bounded() {
        let epochs = 20;
        let mut prev = f64::INFINITY;
        for e in 0..epochs {
            let s = sigma_schedule(25.0, 1.0, epochs, e);
            assert!(s <= prev, "sigma must not increase");
            assert!((1.0..=25.0).contains(&s));
            prev = s;
        }
        assert_eq!(sigma_schedule(25.0, 1.0, epochs, 0), 25.0);
        assert_eq!(sigma_schedule(25.0, 1.0, epochs, epochs - 1), 1.0);
        // Past the end stays at the floor.
        assert_eq!(sigma_schedule(25.0, 1.0, epochs, 1000), 1.0);
    }

    #[test]
    fn single_epoch_schedule_is_final_width() {
        assert_eq!(sigma_schedule(25.0, 1.0, 1, 0), 1.0);
    }

    #[test]
    fn alpha_decays() {
        let a0 = alpha_schedule(0.5, 100, 0);
        let a99 = alpha_schedule(0.5, 100, 99);
        assert_eq!(a0, 0.5);
        assert!(a99 < 0.01 && a99 > 0.0);
    }

    #[test]
    fn paper_default_shape() {
        let cfg = SomConfig::paper_default(256, 10);
        assert_eq!((cfg.rows, cfg.cols, cfg.dims), (50, 50, 256));
        let half = 0.5 * (2.0f64 * 49.0 * 49.0).sqrt();
        assert_eq!(cfg.sigma0_for(half), half);
    }

    #[test]
    fn default_sigma0_never_starts_below_the_final_width() {
        let cfg = SomConfig::default();
        assert_eq!(cfg.sigma0_for(0.0), cfg.sigma_end);
        assert_eq!(cfg.sigma0_for(0.5), cfg.sigma_end);
        assert_eq!(cfg.sigma0_for(3.0), 3.0);
        assert_eq!(SomConfig { sigma0: Some(2.0), ..cfg }.sigma0_for(0.5), 2.0);
    }
}
