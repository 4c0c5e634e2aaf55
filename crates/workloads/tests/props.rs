//! Property-based tests of workload generation and calibration.

use proptest::prelude::*;
use tb_sim::{Cycles, SimRng};
use tb_workloads::{AppSpec, AppTrace, PhaseSpec, TraceStep, Variability};

/// The generator as it was before calibration drew its random numbers
/// once: every probe of the bisection regenerates the whole trace at its
/// spread. The differential properties below hold the current generator
/// to it bit for bit. (The old bisection also panicked when even the
/// largest spread missed the target; the probes themselves are unchanged.)
mod reference {
    use super::*;

    fn instance_compute(
        phase: &PhaseSpec,
        iteration: u32,
        threads: usize,
        spread: f64,
        skew: f64,
        rng: &mut SimRng,
    ) -> Vec<Cycles> {
        let is_low = match phase.variability {
            Variability::Swing { low_prob, .. } => rng.chance(low_prob),
            _ => false,
        };
        let jitter = phase.variability.jitter();
        let jitter_scale = if jitter > 0.0 {
            (1.0 + rng.normal(0.0, jitter)).max(0.05)
        } else {
            1.0
        };
        let scale = phase.variability.base_scale(iteration, is_low) * jitter_scale;
        let base = phase.base_interval.as_u64() as f64 * scale;
        (0..threads)
            .map(|_| {
                let x = rng.uniform().powf(skew);
                let t = base * ((1.0 - spread) + spread * x);
                Cycles::new(t.max(1.0).round() as u64)
            })
            .collect()
    }

    pub fn generate_with_spread(
        spec: &AppSpec,
        threads: usize,
        seed: u64,
        spread: f64,
    ) -> AppTrace {
        let root = SimRng::new(seed).derive(&spec.name, 0);
        let mut steps = Vec::new();
        for (i, phase) in spec.setup_phases.iter().enumerate() {
            let mut rng = root.derive("setup", i as u64);
            steps.push(TraceStep {
                pc: phase.pc,
                compute: instance_compute(phase, 0, threads, spread, spec.skew, &mut rng),
                dirty_lines: phase.dirty_lines,
            });
        }
        for iter in 0..spec.iterations {
            for (p, phase) in spec.loop_phases.iter().enumerate() {
                let mut rng = root.derive("loop", (iter as u64) << 16 | p as u64);
                steps.push(TraceStep {
                    pc: phase.pc,
                    compute: instance_compute(phase, iter, threads, spread, spec.skew, &mut rng),
                    dirty_lines: phase.dirty_lines,
                });
            }
        }
        AppTrace {
            app_name: spec.name.clone(),
            threads,
            steps,
            spread,
        }
    }

    pub fn generate(spec: &AppSpec, threads: usize, seed: u64) -> AppTrace {
        let imbalance_at =
            |w: f64| generate_with_spread(spec, threads, seed, w).analytic_imbalance();
        let (mut lo, mut hi) = (0.0_f64, 0.999);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if imbalance_at(mid) < spec.target_imbalance {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        generate_with_spread(spec, threads, seed, 0.5 * (lo + hi))
    }
}

fn arb_spec() -> impl Strategy<Value = AppSpec> {
    (
        1usize..4,     // loop phases
        1u32..12,      // iterations
        100u64..5_000, // base interval µs
        0.02f64..0.40, // target imbalance
        1.0f64..3.0,   // skew
    )
        .prop_map(|(phases, iterations, base_us, target, skew)| AppSpec {
            name: "Prop".into(),
            problem_size: "prop".into(),
            target_imbalance: target,
            setup_phases: vec![],
            loop_phases: (0..phases)
                .map(|i| {
                    PhaseSpec::new(
                        0x100 + i as u64,
                        Cycles::from_micros(base_us + i as u64 * 100),
                        8,
                        Variability::Stable { jitter: 0.02 },
                    )
                })
                .collect(),
            iterations,
            skew,
        })
}

fn arb_jitter() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.001f64..0.2]
}

fn arb_variability() -> impl Strategy<Value = Variability> {
    prop_oneof![
        arb_jitter().prop_map(|jitter| Variability::Stable { jitter }),
        (0.05f64..0.6, 0.0f64..1.0, arb_jitter()).prop_map(|(low_scale, low_prob, jitter)| {
            Variability::Swing {
                low_scale,
                low_prob,
                jitter,
            }
        }),
        (-0.05f64..0.05, arb_jitter())
            .prop_map(|(per_iter, jitter)| Variability::Drift { per_iter, jitter }),
    ]
}

/// Specs over every variability model, with and without jitter, with
/// setup phases, loop phases, or both.
fn arb_mixed_spec() -> impl Strategy<Value = AppSpec> {
    let phases = |n| collection::vec((100u64..5_000, 0u32..64, arb_variability()), n);
    (
        phases(0..3),
        phases(0..4),
        1u32..10,
        0.01f64..0.6,
        prop_oneof![Just(1.0), 1.0f64..4.0],
    )
        .prop_filter("at least one barrier", |(setup, main, ..)| {
            !setup.is_empty() || !main.is_empty()
        })
        .prop_map(|(setup, main, iterations, target, skew)| {
            let to_phases = |phases: Vec<(u64, u32, Variability)>, pc0: u64| {
                phases
                    .into_iter()
                    .enumerate()
                    .map(|(i, (us, dirty, v))| {
                        PhaseSpec::new(pc0 + i as u64, Cycles::from_micros(us), dirty, v)
                    })
                    .collect()
            };
            AppSpec {
                name: "Mixed".into(),
                problem_size: "prop".into(),
                target_imbalance: target,
                setup_phases: to_phases(setup, 0x10),
                loop_phases: to_phases(main, 0x100),
                iterations,
                skew,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Calibrating on one set of draws gives the very trace that per-probe
    /// regeneration gave: same steps, same spread bits.
    #[test]
    fn generate_matches_reference(
        spec in arb_mixed_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
    ) {
        let new = spec.generate(threads, seed);
        let old = reference::generate(&spec, threads, seed);
        prop_assert_eq!(new.spread.to_bits(), old.spread.to_bits());
        prop_assert_eq!(&new.steps, &old.steps);
        prop_assert_eq!(new, old);
    }

    /// At an explicit spread, too, the trace is the reference's.
    #[test]
    fn generate_with_spread_matches_reference(
        spec in arb_mixed_spec(),
        threads in 2usize..=64,
        seed in any::<u64>(),
        w in 0.0f64..1.0,
    ) {
        let new = spec.generate_with_spread(threads, seed, w);
        let old = reference::generate_with_spread(&spec, threads, seed, w);
        prop_assert_eq!(new, old);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generation is a pure function of (spec, threads, seed).
    #[test]
    fn generation_deterministic(spec in arb_spec(), seed in any::<u64>()) {
        let a = spec.generate(8, seed);
        let b = spec.generate(8, seed);
        prop_assert_eq!(a, b);
    }

    /// The trace layout always matches the spec: episode count, per-step
    /// thread count, positive compute times, and PCs cycling through the
    /// loop phases.
    #[test]
    fn trace_layout_matches_spec(spec in arb_spec(), seed in any::<u64>()) {
        let threads = 8;
        let t = spec.generate(threads, seed);
        prop_assert_eq!(t.len(), spec.total_instances());
        for (i, step) in t.steps.iter().enumerate() {
            prop_assert_eq!(step.compute.len(), threads);
            prop_assert!(step.compute.iter().all(|&c| c > Cycles::ZERO));
            let phase = &spec.loop_phases[i % spec.loop_phases.len()];
            prop_assert_eq!(step.pc, phase.pc);
            prop_assert_eq!(step.dirty_lines, phase.dirty_lines);
        }
    }

    /// Calibration hits the requested Table-2-style imbalance within one
    /// percentage point for any feasible spec.
    #[test]
    fn calibration_converges(spec in arb_spec(), seed in any::<u64>()) {
        let t = spec.generate(32, seed);
        prop_assert!(
            (t.analytic_imbalance() - spec.target_imbalance).abs() < 0.01,
            "target {} got {}",
            spec.target_imbalance,
            t.analytic_imbalance()
        );
        prop_assert!((0.0..1.0).contains(&t.spread));
    }

    /// Imbalance is monotone in the spread knob.
    #[test]
    fn imbalance_monotone_in_spread(
        spec in arb_spec(),
        seed in any::<u64>(),
        w1 in 0.0f64..0.99,
        w2 in 0.0f64..0.99,
    ) {
        let (lo, hi) = (w1.min(w2), w1.max(w2));
        prop_assume!(hi - lo > 0.05);
        let a = spec.generate_with_spread(16, seed, lo).analytic_imbalance();
        let b = spec.generate_with_spread(16, seed, hi).analytic_imbalance();
        prop_assert!(a <= b + 1e-9, "imbalance({lo})={a} > imbalance({hi})={b}");
    }

    /// Per-step stall identities: `ideal_stall(t) = max_compute − compute[t]`
    /// and the slowest thread has zero stall.
    #[test]
    fn stall_identities(spec in arb_spec(), seed in any::<u64>()) {
        let t = spec.generate(8, seed);
        for step in &t.steps {
            let max = step.max_compute();
            let mut any_zero = false;
            for (i, &c) in step.compute.iter().enumerate() {
                prop_assert_eq!(step.ideal_stall(i), max - c);
                any_zero |= step.ideal_stall(i) == Cycles::ZERO;
            }
            prop_assert!(any_zero, "the slowest thread stalls zero");
        }
    }

    /// Disturbances only ever lengthen compute times, never shorten them.
    #[test]
    fn disturbance_monotone(spec in arb_spec(), seed in any::<u64>(), prob in 0.0f64..1.0) {
        let t = spec.generate(8, seed);
        let d = t.with_disturbance(seed ^ 1, prob, Cycles::from_millis(10));
        for (a, b) in t.steps.iter().zip(&d.steps) {
            for (ca, cb) in a.compute.iter().zip(&b.compute) {
                prop_assert!(cb >= ca);
            }
        }
    }
}
