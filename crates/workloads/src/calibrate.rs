//! Calibration of the imbalance spread.
//!
//! For each application we must choose the work-spread `w` so that the
//! generated trace's *measured* baseline barrier imbalance equals the
//! paper's Table 2 value. The mapping `w → imbalance` is monotone (more
//! spread, more stall) and continuous for a fixed random stream, so a
//! simple bisection over `w ∈ [0, 1)` converges quickly. The bisection runs
//! on one set of random draws ([`Draws`]): each probe is an arithmetic pass
//! over them, and the trace is built from the same draws once, at the
//! solved spread. The measurement used during calibration is
//! [`crate::AppTrace::analytic_imbalance`], which matches the full machine
//! simulation to well under a percentage point because barrier entry/exit
//! overheads are microseconds against millisecond intervals.

use crate::trace::Draws;

/// Upper bound of the spread parameter (exclusive); at `w → 1` every
/// thread's work goes to zero except the stragglers'.
const W_MAX: f64 = 0.999;

/// Bisection iterations; 40 halvings of `[0,1]` reach ~1e-12 resolution.
const ITERATIONS: u32 = 40;

/// Solves the spread `w` for which the trace drawn in `draws` has imbalance
/// `target`.
///
/// A target beyond the largest imbalance the draws can give (Volrend's
/// 48.2 % on two processors) saturates: the spread converges to `W_MAX`,
/// the most imbalanced trace the model makes.
pub(crate) fn calibrate_spread(draws: &Draws, target: f64) -> f64 {
    let (mut lo, mut hi) = (0.0_f64, W_MAX);
    for _ in 0..ITERATIONS {
        let mid = 0.5 * (lo + hi);
        if draws.imbalance(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AppSpec, PhaseSpec, Variability};
    use tb_sim::Cycles;

    fn spec(target: f64) -> AppSpec {
        AppSpec {
            name: "Cal".into(),
            problem_size: "x".into(),
            target_imbalance: target,
            setup_phases: vec![],
            loop_phases: vec![PhaseSpec::new(
                1,
                Cycles::from_micros(1000),
                0,
                Variability::Stable { jitter: 0.0 },
            )],
            iterations: 30,
            skew: 2.0,
        }
    }

    #[test]
    fn hits_low_and_high_targets() {
        for target in [0.01, 0.05, 0.16, 0.30, 0.482] {
            let t = spec(target).generate(64, 11);
            let got = t.analytic_imbalance();
            assert!(
                (got - target).abs() < 0.005,
                "target {target}: got {got} at w={}",
                t.spread
            );
        }
    }

    #[test]
    fn spread_grows_with_target() {
        let w_small = spec(0.05).generate(32, 3).spread;
        let w_large = spec(0.30).generate(32, 3).spread;
        assert!(w_small < w_large);
    }

    #[test]
    fn calibration_is_thread_count_aware() {
        // The same target should be achievable at different machine sizes.
        for threads in [16, 32, 64] {
            let got = spec(0.20).generate(threads, 5).analytic_imbalance();
            assert!((got - 0.20).abs() < 0.01, "threads={threads}: {got}");
        }
    }

    #[test]
    fn unreachable_target_saturates_at_max_spread() {
        // Two threads cannot reach 48.2 % at this skew: the spread runs up
        // to W_MAX and the trace is as imbalanced as the model allows.
        let s = spec(0.482);
        let t = s.generate(2, 7);
        assert!(W_MAX - t.spread < 1e-9, "spread {}", t.spread);
        let at_max = s.generate_with_spread(2, 7, W_MAX).analytic_imbalance();
        assert!(t.analytic_imbalance() < 0.482);
        assert!((t.analytic_imbalance() - at_max).abs() < 1e-6);
    }
}
