//! Affine-invariant ensemble MCMC (Goodman & Weare stretch move).
//!
//! This is the same sampler family as the `emcee` package used by the
//! reference implementation of the learning-curve model
//! (pylearningcurvepredictor). §5.2 of the paper runs it with
//! `nwalkers = 100` and reduces `nsamples` from 2500 to 700 as an
//! optimization; both operating points are presets in
//! [`crate::PredictorConfig`].
//!
//! The implementation uses the standard two-half ("red-black") update: the
//! ensemble is split in two, and each half is moved by stretching toward
//! walkers sampled from the *other* half, which keeps the update valid.
//!
//! [`sample`] is the reference sampler. [`sample_into`], the production
//! sampler, runs the same chain allocation-free and lets its evaluator stop
//! a proposal early once an upper bound on the log-probability proves the
//! move rejected (exact early rejection; see DESIGN.md §8).

use rand::Rng;

/// Options for an ensemble-sampler run.
#[derive(Debug, Clone, Copy)]
pub struct SamplerOptions {
    /// Number of steps each walker takes (total likelihood evaluations are
    /// `walkers * steps`).
    pub steps: usize,
    /// Leading fraction of steps discarded as burn-in.
    pub burn_in_frac: f64,
    /// Keep every `thin`-th post-burn-in ensemble snapshot.
    pub thin: usize,
    /// Stretch-move scale parameter `a` (standard value 2.0).
    pub stretch: f64,
}

impl Default for SamplerOptions {
    fn default() -> Self {
        SamplerOptions { steps: 700, burn_in_frac: 0.3, thin: 2, stretch: 2.0 }
    }
}

/// Result of a sampler run.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Retained posterior draws (flattened across walkers and steps).
    pub draws: Vec<Vec<f64>>,
    /// Log-probabilities of the retained draws.
    pub log_probs: Vec<f64>,
    /// Fraction of proposed moves accepted.
    pub acceptance_rate: f64,
}

impl Chain {
    /// The draw with the highest log-probability (MAP estimate among
    /// retained draws).
    pub fn map_draw(&self) -> Option<&[f64]> {
        let mut best: Option<usize> = None;
        for (i, lp) in self.log_probs.iter().enumerate() {
            if best.is_none_or(|b| *lp > self.log_probs[b]) {
                best = Some(i);
            }
        }
        best.map(|i| self.draws[i].as_slice())
    }
}

/// Runs the stretch-move ensemble sampler.
///
/// `init` supplies one starting position per walker; every position must
/// have finite log-probability (the caller is responsible for initializing
/// inside the prior support — see [`crate::fit`]).
///
/// # Panics
///
/// Panics if fewer than 4 walkers are supplied, walkers have inconsistent
/// dimensions, or no initial position has finite log-probability.
pub fn sample<F, R>(log_prob: F, init: Vec<Vec<f64>>, opts: SamplerOptions, rng: &mut R) -> Chain
where
    F: Fn(&[f64]) -> f64,
    R: Rng + ?Sized,
{
    let n_walkers = init.len();
    assert!(n_walkers >= 4, "need at least 4 walkers, got {n_walkers}");
    let dim = init[0].len();
    assert!(init.iter().all(|w| w.len() == dim), "walkers must share dimension");

    let mut positions = init;
    let mut lps: Vec<f64> = positions.iter().map(|p| log_prob(p)).collect();
    assert!(
        lps.iter().any(|lp| lp.is_finite()),
        "no initial walker position has finite log-probability"
    );
    // Walkers that start at -inf are snapped to the best initial position so
    // the ensemble does not carry dead weight.
    let best0 = (0..n_walkers)
        .max_by(|&a, &b| lps[a].partial_cmp(&lps[b]).expect("log probs comparable"))
        .expect("non-empty ensemble");
    let (best_pos, best_lp) = (positions[best0].clone(), lps[best0]);
    for i in 0..n_walkers {
        if !lps[i].is_finite() {
            positions[i] = best_pos.clone();
            lps[i] = best_lp;
        }
    }

    let burn_in = ((opts.steps as f64) * opts.burn_in_frac).floor() as usize;
    let thin = opts.thin.max(1);
    let a = opts.stretch.max(1.0 + 1e-6);

    let mut draws = Vec::new();
    let mut draw_lps = Vec::new();
    let mut accepted = 0usize;
    let mut proposed = 0usize;

    let half = n_walkers / 2;
    for step in 0..opts.steps {
        // Update each half by stretching toward the complementary half.
        for (start, end, comp_start, comp_end) in
            [(0, half, half, n_walkers), (half, n_walkers, 0, half)]
        {
            for i in start..end {
                let j = rng.gen_range(comp_start..comp_end);
                // z ~ g(z) ∝ 1/sqrt(z) on [1/a, a].
                let u: f64 = rng.gen();
                let z = {
                    let s = u * (a.sqrt() - 1.0 / a.sqrt()) + 1.0 / a.sqrt();
                    s * s
                };
                let mut proposal = vec![0.0; dim];
                for d in 0..dim {
                    proposal[d] = positions[j][d] + z * (positions[i][d] - positions[j][d]);
                }
                let lp_new = log_prob(&proposal);
                proposed += 1;
                let log_accept = (dim as f64 - 1.0) * z.ln() + lp_new - lps[i];
                if lp_new.is_finite() && log_accept >= 0.0 || rng.gen::<f64>().ln() < log_accept {
                    positions[i] = proposal;
                    lps[i] = lp_new;
                    accepted += 1;
                }
            }
        }
        if step >= burn_in && (step - burn_in).is_multiple_of(thin) {
            for i in 0..n_walkers {
                draws.push(positions[i].clone());
                draw_lps.push(lps[i]);
            }
        }
    }

    Chain {
        draws,
        log_probs: draw_lps,
        acceptance_rate: if proposed == 0 { 0.0 } else { accepted as f64 / proposed as f64 },
    }
}

/// Reusable buffers for [`sample_into`]. Sized on first use and reused
/// across fits, so steady-state sampling performs zero heap allocations —
/// including for the retained draws, which live flattened in `draws`.
#[derive(Debug, Default)]
pub struct McmcScratch {
    /// Current walker positions, flattened `n_walkers × dim`.
    positions: Vec<f64>,
    /// Current per-walker log-probabilities.
    lps: Vec<f64>,
    /// Proposal buffer for the stretch move.
    proposal: Vec<f64>,
    /// Retained draws, flattened `n_retained × dim`.
    draws: Vec<f64>,
    /// Log-probabilities of the retained draws.
    draw_lps: Vec<f64>,
}

/// A borrowed view over a chain whose draws live flattened in a
/// [`McmcScratch`]; the zero-copy counterpart of [`Chain`].
#[derive(Debug)]
pub struct FlatChain<'a> {
    draws: &'a [f64],
    log_probs: &'a [f64],
    dim: usize,
    /// Fraction of proposed moves accepted.
    pub acceptance_rate: f64,
}

impl<'a> FlatChain<'a> {
    /// Builds a chain view over externally managed flat buffers. Used by
    /// the cross-curve batched fitter ([`crate::batch`]), whose lockstep
    /// sampler keeps per-curve walker state outside [`McmcScratch`] but
    /// funnels results through the same posterior-collection code.
    pub(crate) fn from_raw(
        draws: &'a [f64],
        log_probs: &'a [f64],
        dim: usize,
        acceptance_rate: f64,
    ) -> Self {
        FlatChain { draws, log_probs, dim, acceptance_rate }
    }

    /// Number of retained draws.
    #[must_use]
    pub fn n_draws(&self) -> usize {
        self.draws.len() / self.dim
    }

    /// The `i`-th retained draw.
    #[must_use]
    pub fn draw(&self, i: usize) -> &[f64] {
        &self.draws[i * self.dim..(i + 1) * self.dim]
    }

    /// Log-probabilities of the retained draws.
    #[must_use]
    pub fn log_probs(&self) -> &[f64] {
        self.log_probs
    }
}

/// The early-rejection test [`sample_into`] hands its evaluator with every
/// proposal. The evaluator calls it with an upper bound on the value it is
/// computing; `true` means the move is certainly rejected whatever the
/// exact value, so the evaluator may stop and return `-inf`.
pub type RejectTest<'a> = dyn FnMut(f64) -> bool + 'a;

/// Allocation-free variant of [`sample`] with exact early rejection:
/// identical proposal arithmetic, identical RNG call sequence, identical
/// accept/reject decisions — bitwise the same retained draws — with
/// walker state and retained draws living in `scratch`. The draw buffer
/// is reserved up front from the retention schedule, so the sampling loop
/// itself never touches the allocator.
///
/// `log_prob(theta, reject)` returns the log-probability of `theta`. It
/// may call `reject(bound)` with any `bound` that is no less than the
/// value it would return, and stop (returning `-inf`) once the call
/// answers `true`; an evaluator that never calls it is the plain sampler.
/// The answer is `true` only when even `bound` fails the acceptance test
/// against the accept draw `u`. That draw is taken at the first call whose
/// bound proves `log_accept < 0` — exactly the proposals on which
/// [`sample`] draws it — and reused for the rest of the proposal, so the
/// RNG stream and every decision match the reference.
///
/// # Panics
///
/// Same contract as [`sample`]: at least 4 walkers of equal dimension, at
/// least one with finite log-probability.
pub fn sample_into<'s, F, R>(
    mut log_prob: F,
    init: &[Vec<f64>],
    opts: SamplerOptions,
    rng: &mut R,
    s: &'s mut McmcScratch,
) -> FlatChain<'s>
where
    F: FnMut(&[f64], &mut RejectTest<'_>) -> f64,
    R: Rng + ?Sized,
{
    let n_walkers = init.len();
    assert!(n_walkers >= 4, "need at least 4 walkers, got {n_walkers}");
    let dim = init[0].len();
    assert!(init.iter().all(|w| w.len() == dim), "walkers must share dimension");

    s.positions.clear();
    s.positions.reserve(n_walkers * dim);
    s.lps.clear();
    s.lps.reserve(n_walkers);
    for w in init {
        s.positions.extend_from_slice(w);
        s.lps.push(log_prob(w, &mut |_| false));
    }
    assert!(
        s.lps.iter().any(|lp| lp.is_finite()),
        "no initial walker position has finite log-probability"
    );
    // Walkers that start at -inf are snapped to the best initial position so
    // the ensemble does not carry dead weight.
    let lps = &s.lps;
    let best0 = (0..n_walkers)
        .max_by(|&a, &b| lps[a].partial_cmp(&lps[b]).expect("log probs comparable"))
        .expect("non-empty ensemble");
    let best_lp = s.lps[best0];
    for i in 0..n_walkers {
        if !s.lps[i].is_finite() {
            s.positions.copy_within(best0 * dim..(best0 + 1) * dim, i * dim);
            s.lps[i] = best_lp;
        }
    }

    let burn_in = ((opts.steps as f64) * opts.burn_in_frac).floor() as usize;
    let thin = opts.thin.max(1);
    let a = opts.stretch.max(1.0 + 1e-6);

    // Exact retention schedule: one snapshot per post-burn-in step that
    // lands on the thinning stride.
    let retained_steps =
        if opts.steps > burn_in { (opts.steps - burn_in).div_ceil(thin) } else { 0 };
    s.draws.clear();
    s.draws.reserve(retained_steps * n_walkers * dim);
    s.draw_lps.clear();
    s.draw_lps.reserve(retained_steps * n_walkers);
    s.proposal.clear();
    s.proposal.resize(dim, 0.0);

    let mut accepted = 0usize;
    let mut proposed = 0usize;

    let half = n_walkers / 2;
    for step in 0..opts.steps {
        // Update each half by stretching toward the complementary half.
        for (start, end, comp_start, comp_end) in
            [(0, half, half, n_walkers), (half, n_walkers, 0, half)]
        {
            for i in start..end {
                let j = rng.gen_range(comp_start..comp_end);
                // z ~ g(z) ∝ 1/sqrt(z) on [1/a, a].
                let u: f64 = rng.gen();
                let z = {
                    let s = u * (a.sqrt() - 1.0 / a.sqrt()) + 1.0 / a.sqrt();
                    s * s
                };
                for d in 0..dim {
                    let pj = s.positions[j * dim + d];
                    s.proposal[d] = pj + z * (s.positions[i * dim + d] - pj);
                }
                let stretch = (dim as f64 - 1.0) * z.ln();
                let lp_i = s.lps[i];
                // `ln u` once drawn: at most one accept draw per proposal.
                let mut ln_u: Option<f64> = None;
                let lp_new = log_prob(&s.proposal, &mut |bound| {
                    // `log_accept` is monotone in `lp_new` in floating
                    // point, so this caps it. Below zero, the reference
                    // draws `u` too, and rejects if `ln u` reaches the cap.
                    let cap = stretch + bound - lp_i;
                    if cap.is_nan() || cap >= 0.0 {
                        return false;
                    }
                    *ln_u.get_or_insert_with(|| rng.gen::<f64>().ln()) >= cap
                });
                proposed += 1;
                let log_accept = stretch + lp_new - lp_i;
                let accept = match ln_u {
                    // A drawn `u` means a bound already proved
                    // `log_accept < 0`: the reference's first clause fails.
                    Some(ln_u) => ln_u < log_accept,
                    None => {
                        lp_new.is_finite() && log_accept >= 0.0
                            || rng.gen::<f64>().ln() < log_accept
                    }
                };
                if accept {
                    s.positions[i * dim..(i + 1) * dim].copy_from_slice(&s.proposal);
                    s.lps[i] = lp_new;
                    accepted += 1;
                }
            }
        }
        if step >= burn_in && (step - burn_in).is_multiple_of(thin) {
            s.draws.extend_from_slice(&s.positions);
            s.draw_lps.extend_from_slice(&s.lps);
        }
    }

    FlatChain {
        draws: &s.draws,
        log_probs: &s.draw_lps,
        dim,
        acceptance_rate: if proposed == 0 { 0.0 } else { accepted as f64 / proposed as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperdrive_types::stats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Standard normal in `dim` dimensions.
    fn gaussian_lp(x: &[f64]) -> f64 {
        -0.5 * x.iter().map(|v| v * v).sum::<f64>()
    }

    fn init_walkers(rng: &mut StdRng, n: usize, dim: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n).map(|_| (0..dim).map(|_| stats::sample_normal(rng, 0.0, spread)).collect()).collect()
    }

    #[test]
    fn recovers_gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(17);
        let init = init_walkers(&mut rng, 32, 3, 0.5);
        let chain = sample(
            gaussian_lp,
            init,
            SamplerOptions { steps: 600, burn_in_frac: 0.4, thin: 1, stretch: 2.0 },
            &mut rng,
        );
        assert!(chain.acceptance_rate > 0.2 && chain.acceptance_rate < 0.9);
        for d in 0..3 {
            let vals: Vec<f64> = chain.draws.iter().map(|w| w[d]).collect();
            let m = stats::mean(&vals).unwrap();
            let s = stats::std_dev(&vals).unwrap();
            assert!(m.abs() < 0.15, "dim {d} mean {m}");
            assert!((s - 1.0).abs() < 0.2, "dim {d} std {s}");
        }
    }

    #[test]
    fn handles_bounded_support() {
        // Uniform on [0, 1]: -inf outside.
        let lp = |x: &[f64]| {
            if (0.0..=1.0).contains(&x[0]) {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut rng = StdRng::seed_from_u64(3);
        let init: Vec<Vec<f64>> = (0..16).map(|i| vec![0.3 + 0.4 * (i as f64 / 15.0)]).collect();
        let chain = sample(
            lp,
            init,
            SamplerOptions { steps: 500, burn_in_frac: 0.3, thin: 1, stretch: 2.0 },
            &mut rng,
        );
        assert!(chain.draws.iter().all(|w| (0.0..=1.0).contains(&w[0])));
        let vals: Vec<f64> = chain.draws.iter().map(|w| w[0]).collect();
        let m = stats::mean(&vals).unwrap();
        assert!((m - 0.5).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn dead_walkers_are_revived() {
        let lp = |x: &[f64]| {
            if x[0].abs() < 5.0 {
                -x[0] * x[0]
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut rng = StdRng::seed_from_u64(9);
        // Half the walkers start outside the support.
        let init: Vec<Vec<f64>> =
            (0..8).map(|i| if i % 2 == 0 { vec![100.0] } else { vec![0.1 * i as f64] }).collect();
        let chain = sample(lp, init, SamplerOptions::default(), &mut rng);
        assert!(chain.draws.iter().all(|w| w[0].abs() < 5.0));
    }

    #[test]
    fn map_draw_is_best() {
        let mut rng = StdRng::seed_from_u64(21);
        let init = init_walkers(&mut rng, 16, 2, 1.0);
        let chain = sample(gaussian_lp, init, SamplerOptions::default(), &mut rng);
        let map = chain.map_draw().unwrap();
        let map_lp = gaussian_lp(map);
        assert!(chain.log_probs.iter().all(|lp| *lp <= map_lp + 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least 4 walkers")]
    fn too_few_walkers_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample(gaussian_lp, vec![vec![0.0]; 2], SamplerOptions::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "finite log-probability")]
    fn all_dead_initialization_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let lp = |_: &[f64]| f64::NEG_INFINITY;
        let _ = sample(lp, vec![vec![0.0]; 8], SamplerOptions::default(), &mut rng);
    }

    #[test]
    fn sample_into_is_bitwise_identical_to_sample() {
        let mut scratch = McmcScratch::default();
        for (steps, burn_in_frac, thin) in [(40, 0.3, 2), (24, 0.5, 1), (7, 0.9, 3)] {
            let opts = SamplerOptions { steps, burn_in_frac, thin, stretch: 2.0 };
            let mut rng_a = StdRng::seed_from_u64(23);
            let init = init_walkers(&mut rng_a, 16, 3, 0.5);
            let reference = sample(gaussian_lp, init.clone(), opts, &mut rng_a);

            let mut rng_b = StdRng::seed_from_u64(23);
            let init_b = init_walkers(&mut rng_b, 16, 3, 0.5);
            let flat = sample_into(|x, _| gaussian_lp(x), &init_b, opts, &mut rng_b, &mut scratch);

            assert_eq!(reference.draws.len(), flat.n_draws());
            for (i, d) in reference.draws.iter().enumerate() {
                assert_eq!(d.as_slice(), flat.draw(i), "draw {i} diverged");
            }
            assert_eq!(reference.log_probs, flat.log_probs());
            assert_eq!(reference.acceptance_rate.to_bits(), flat.acceptance_rate.to_bits());
        }
    }

    /// A standard normal whose log-density is summed term by term and
    /// offers the partial sum (every remaining term is `<= 0`) as its
    /// early-rejection bound before each term.
    fn gaussian_lp_bounded(x: &[f64], reject: &mut RejectTest<'_>, aborts: &mut usize) -> f64 {
        let mut acc = 0.0;
        for v in x {
            if reject(-0.5 * acc) {
                *aborts += 1;
                return f64::NEG_INFINITY;
            }
            acc += v * v;
        }
        -0.5 * acc
    }

    #[test]
    fn early_rejection_keeps_the_reference_chain() {
        let mut scratch = McmcScratch::default();
        let opts = SamplerOptions { steps: 60, burn_in_frac: 0.3, thin: 2, stretch: 2.0 };
        // A wide start puts most proposals far out in the tails.
        let mut rng_a = StdRng::seed_from_u64(31);
        let init = init_walkers(&mut rng_a, 16, 6, 4.0);
        let reference = sample(gaussian_lp, init.clone(), opts, &mut rng_a);

        let mut rng_b = StdRng::seed_from_u64(31);
        let init_b = init_walkers(&mut rng_b, 16, 6, 4.0);
        let mut aborts = 0;
        let flat = sample_into(
            |x, reject| gaussian_lp_bounded(x, reject, &mut aborts),
            &init_b,
            opts,
            &mut rng_b,
            &mut scratch,
        );
        for (i, d) in reference.draws.iter().enumerate() {
            assert_eq!(d.as_slice(), flat.draw(i), "draw {i} diverged");
        }
        assert_eq!(reference.log_probs, flat.log_probs());
        assert_eq!(reference.acceptance_rate.to_bits(), flat.acceptance_rate.to_bits());
        assert!(aborts > 0, "no proposal was rejected early");
        // The RNG streams stayed in lockstep to the end.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn sample_into_revives_dead_walkers() {
        let lp = |x: &[f64]| {
            if x[0].abs() < 5.0 {
                -x[0] * x[0]
            } else {
                f64::NEG_INFINITY
            }
        };
        let mut rng = StdRng::seed_from_u64(9);
        let init: Vec<Vec<f64>> =
            (0..8).map(|i| if i % 2 == 0 { vec![100.0] } else { vec![0.1 * i as f64] }).collect();
        let mut scratch = McmcScratch::default();
        let flat =
            sample_into(|x, _| lp(x), &init, SamplerOptions::default(), &mut rng, &mut scratch);
        for i in 0..flat.n_draws() {
            assert!(flat.draw(i)[0].abs() < 5.0);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = init_walkers(&mut rng, 16, 2, 0.5);
            sample(gaussian_lp, init, SamplerOptions::default(), &mut rng).draws
        };
        assert_eq!(run(5), run(5));
    }
}
