//! Newton–Raphson nonlinear solve and the DC operating point.
//!
//! The operating point tries plain Newton first, then gmin stepping
//! (sweeping a node-shunt conductance down in decades), then source
//! stepping (ramping all independent sources from zero) — the classic
//! SPICE fallback ladder. The transient has its own ladder over the
//! same solver (see [`crate::tran`]).
//!
//! ## The exact cycle exit
//!
//! One Newton attempt ([`solve_newton_in`]) ends early when its iterate
//! repeats bit for bit. While the linear solver keeps its factorisation
//! path (no re-pivot, no dense rescue, no demotion), an iteration is a
//! pure function of the iterate: the stamps, the refactorisation and
//! the damped update all read nothing else. So once `x` comes back to
//! an earlier value, the remaining iterations would replay a cycle that
//! already failed the convergence test, and would leave the solver in
//! the same state. The attempt then returns exactly the error it would
//! have returned after `max_iter` iterations. Brent's algorithm finds
//! the repeat with one saved iterate; the saved iterate is replaced
//! whenever the solver's path changes, since an earlier iterate then
//! proves nothing about the later ones. Failing transient rungs often
//! settle into such cycles long before their iteration cap, so the exit
//! removes most of their linear solves without moving any result.

use crate::devices::{
    stamp_all_planned, stamp_linear, stamp_nonlinear, StampParams, StampPlan, UnknownMap,
};
use crate::mna::Stamper;
use crate::netlist::Circuit;
use crate::sparse::{MnaSolver, PatternCache, SolverBackend, SolverKind};
use crate::SpiceError;

/// Newton iteration controls.
#[derive(Debug, Clone)]
pub struct NewtonOpts {
    /// Maximum iterations per solve.
    pub max_iter: usize,
    /// Absolute voltage tolerance (V).
    pub vabstol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Maximum voltage change applied per iteration (damping clamp).
    pub max_step: f64,
}

impl Default for NewtonOpts {
    fn default() -> Self {
        NewtonOpts {
            max_iter: 200,
            vabstol: 1e-6,
            reltol: 1e-3,
            max_step: 1.0,
        }
    }
}

/// Runs damped Newton–Raphson from the initial guess `x0`. Returns the
/// solution together with the number of iterations spent (the kernel
/// work measure the runtime experiments report).
///
/// Convenience wrapper constructing a fresh solver and stamp plan per
/// call; the hot paths build both once and call [`solve_newton_in`].
///
/// # Errors
/// [`SpiceError::NoConvergence`] after `max_iter` iterations,
/// [`SpiceError::Singular`] when the Jacobian factorisation fails.
pub fn solve_newton(
    ckt: &Circuit,
    map: &UnknownMap,
    x0: &[f64],
    params: &StampParams<'_>,
    opts: &NewtonOpts,
    analysis: &str,
) -> Result<(Vec<f64>, usize), SpiceError> {
    let plan = StampPlan::new(ckt)?;
    let mut solver = MnaSolver::for_circuit(ckt, map, SolverKind::Auto, None);
    solve_newton_in(&mut solver, ckt, map, &plan, x0, params, opts, analysis)
}

/// Runs damped Newton–Raphson inside a caller-owned solver: the
/// symbolic factorisation (sparse path) and the resolved stamp plan
/// are reused across every iteration — and, when the caller loops over
/// timesteps or gmin/source steps, across all of those solves too.
///
/// On the sparse path the step-constant (linear) stamps are assembled
/// once up front and restored by memcpy each iteration; only the
/// MOSFET linearisations are re-stamped per iterate. An attempt whose
/// iterate repeats bit for bit ends at once with the `max_iter` error
/// (see the module docs); `x0` is never modified.
///
/// # Errors
/// [`SpiceError::NoConvergence`] after `max_iter` iterations (or their
/// exact equivalent, a repeating iterate), [`SpiceError::Singular`]
/// when the Jacobian factorisation fails.
#[allow(clippy::too_many_arguments)]
pub fn solve_newton_in(
    solver: &mut MnaSolver,
    ckt: &Circuit,
    map: &UnknownMap,
    plan: &StampPlan,
    x0: &[f64],
    params: &StampParams<'_>,
    opts: &NewtonOpts,
    analysis: &str,
) -> Result<(Vec<f64>, usize), SpiceError> {
    let mut x = x0.to_vec();
    let mut x_new = vec![0.0; x.len()];
    let mut cycle = CycleDetector::new(&x, solver.stats().path_changes());
    if let Some(sys) = solver.sparse_mut() {
        sys.clear();
        stamp_linear(ckt, map, sys, params);
        sys.snapshot_baseline();
    }
    for iter in 0..opts.max_iter {
        match solver.backend_mut() {
            SolverBackend::Sparse(sys) => {
                sys.restore_baseline();
                stamp_nonlinear(plan, &x, sys, params);
            }
            SolverBackend::Dense(sys) => {
                stamp_all_planned(ckt, map, plan, &x, sys, params);
            }
        }
        solver.solve(analysis, &mut x_new)?;
        // A non-finite iterate means the solve overflowed (e.g.
        // inf − inf in back-substitution). NaN comparisons would
        // otherwise read as "converged" and hand a poisoned solution
        // to the caller — fail the analysis instead.
        if x_new.iter().any(|v| !v.is_finite()) {
            NONFINITE_ABORTS.inc();
            return Err(SpiceError::NoConvergence {
                analysis: analysis.to_string(),
                detail: format!("non-finite solution at iteration {}", iter + 1),
            });
        }
        if newton_update(&mut x, &x_new, opts) {
            return Ok((x, iter + 1));
        }
        if cycle.repeats(&x, solver.stats().path_changes()) {
            CYCLE_EXITS.inc();
            break;
        }
    }
    CONVERGENCE_FAILURES.inc();
    Err(SpiceError::NoConvergence {
        analysis: analysis.to_string(),
        detail: format!("no convergence in {} iterations", opts.max_iter),
    })
}

/// Brent's cycle detection over a sequence of iterates, comparing bit
/// patterns. Feed it every iterate in order with the solver's
/// [`crate::SolverStats::path_changes`] count at that point.
#[derive(Debug)]
struct CycleDetector {
    /// The iterate the later ones are compared against.
    saved: Vec<f64>,
    /// Path changes when `saved` was taken.
    path: u64,
    /// Iterates since `saved` was taken, and the count at which it is
    /// replaced next (doubling each time).
    since: usize,
    power: usize,
}

impl CycleDetector {
    fn new(x0: &[f64], path: u64) -> Self {
        CycleDetector {
            saved: x0.to_vec(),
            path,
            since: 0,
            power: 1,
        }
    }

    /// True when `x` equals, bit for bit, an earlier iterate reached
    /// along the same solver path — the sequence from there on is
    /// periodic. A changed path restarts the detection at `x`.
    fn repeats(&mut self, x: &[f64], path: u64) -> bool {
        if path != self.path {
            self.saved.copy_from_slice(x);
            self.path = path;
            self.since = 0;
            self.power = 1;
            return false;
        }
        self.since += 1;
        if x.iter()
            .zip(&self.saved)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return true;
        }
        if self.since == self.power {
            self.saved.copy_from_slice(x);
            self.since = 0;
            self.power *= 2;
        }
        false
    }
}

/// One damped Newton update: moves `x` towards `x_new` with each
/// component's step clamped to `opts.max_step`, and reports whether the
/// *unclamped* update already satisfied the mixed relative/absolute
/// tolerance. Shared with the batched engine ([`crate::batch`]) so a
/// lane's convergence decision is bit-identical to the scalar path.
pub(crate) fn newton_update(x: &mut [f64], x_new: &[f64], opts: &NewtonOpts) -> bool {
    let mut converged = true;
    for i in 0..x.len() {
        let dx = x_new[i] - x[i];
        let limited = dx.clamp(-opts.max_step, opts.max_step);
        if dx.abs() > opts.reltol * x_new[i].abs() + opts.vabstol {
            converged = false;
        }
        x[i] += limited;
    }
    converged
}

/// Newton runs that exhausted `max_iter` or ended on a repeating
/// iterate (includes rungs of the dcop ladder that are *expected* to
/// fail before a later rung succeeds).
static CONVERGENCE_FAILURES: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.convergence_failures");
/// The subset of those failures that ended early on a bit-exact cycle.
static CYCLE_EXITS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.cycle_exits");
/// Newton runs aborted on a non-finite iterate.
static NONFINITE_ABORTS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.nonfinite_aborts");
static DCOP_RUNS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.dcop.runs");

/// Computes the DC operating point (capacitors open, sources at their
/// DC values).
///
/// # Errors
/// Propagates the last failure when plain Newton, gmin stepping and
/// source stepping all fail.
pub fn dc_operating_point(ckt: &Circuit) -> Result<Vec<f64>, SpiceError> {
    dc_operating_point_with(ckt, SolverKind::Auto, None)
}

/// [`dc_operating_point`] with an explicit solver choice and an
/// optional campaign-wide [`PatternCache`]. One solver (one symbolic
/// factorisation) serves the whole fallback ladder — plain Newton, all
/// gmin decades and all source steps share the matrix structure.
///
/// # Errors
/// Propagates the last failure when plain Newton, gmin stepping and
/// source stepping all fail.
pub fn dc_operating_point_with(
    ckt: &Circuit,
    kind: SolverKind,
    cache: Option<&PatternCache>,
) -> Result<Vec<f64>, SpiceError> {
    let _span = cat_telemetry::span!("spice.dcop");
    DCOP_RUNS.inc();
    let map = UnknownMap::new(ckt);
    let plan = StampPlan::new(ckt)?;
    let mut solver = MnaSolver::for_circuit(ckt, &map, kind, cache);
    let out = dcop_ladder(ckt, &map, &plan, &mut solver);
    solver.stats().flush_to_telemetry();
    out
}

/// The fallback ladder itself, over a caller-owned solver.
fn dcop_ladder(
    ckt: &Circuit,
    map: &UnknownMap,
    plan: &StampPlan,
    solver: &mut MnaSolver,
) -> Result<Vec<f64>, SpiceError> {
    let opts = NewtonOpts::default();
    let zeros = vec![0.0; map.dim()];

    // 1. Plain Newton from zero.
    let base = StampParams::default();
    if let Ok((x, _)) = solve_newton_in(solver, ckt, map, plan, &zeros, &base, &opts, "dc op") {
        return Ok(x);
    }

    // 2. gmin stepping: strong shunts make the circuit nearly linear;
    //    relax them decade by decade, carrying the solution.
    let mut x = zeros.clone();
    let mut ok = true;
    let mut gshunt = 1e-2;
    while gshunt >= 1e-12 {
        let params = StampParams {
            gshunt,
            ..StampParams::default()
        };
        match solve_newton_in(
            solver,
            ckt,
            map,
            plan,
            &x,
            &params,
            &opts,
            "dc op (gmin stepping)",
        ) {
            Ok((next, _)) => x = next,
            Err(_) => {
                ok = false;
                break;
            }
        }
        gshunt /= 10.0;
    }
    if ok {
        let params = StampParams::default();
        if let Ok((final_x, _)) = solve_newton_in(
            solver,
            ckt,
            map,
            plan,
            &x,
            &params,
            &opts,
            "dc op (gmin final)",
        ) {
            return Ok(final_x);
        }
    }

    // 3. Source stepping: ramp the supplies from 10 % to 100 %.
    let mut x = zeros;
    for pct in 1..=10 {
        let params = StampParams {
            source_scale: pct as f64 / 10.0,
            ..StampParams::default()
        };
        x = solve_newton_in(
            solver,
            ckt,
            map,
            plan,
            &x,
            &params,
            &opts,
            "dc op (source stepping)",
        )?
        .0;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{ElementKind, MosModel, Waveform};
    use crate::sparse::SolverStats;

    /// Feeds `seq` to a fresh detector (seeded with `seq[0]`, a constant
    /// path) and returns the index of the iterate it fired on.
    fn first_repeat(seq: &[Vec<f64>]) -> Option<usize> {
        let mut det = CycleDetector::new(&seq[0], 0);
        (1..seq.len()).find(|&k| det.repeats(&seq[k], 0))
    }

    #[test]
    fn cycle_detector_fires_on_a_bit_exact_repeat_of_any_period() {
        for period in 1..=9usize {
            for prefix in 0..=6usize {
                let seq: Vec<Vec<f64>> = (0..200)
                    .map(|k| {
                        if k < prefix {
                            vec![k as f64, 0.5]
                        } else {
                            vec![100.0 + ((k - prefix) % period) as f64, -1.0]
                        }
                    })
                    .collect();
                let k = first_repeat(&seq)
                    .unwrap_or_else(|| panic!("period {period}, prefix {prefix}: no exit"));
                // It fires only on a true repeat, and within Brent's
                // bound of a few times prefix + period.
                assert!(
                    k >= prefix + period,
                    "period {period}, prefix {prefix}: {k}"
                );
                assert!(seq[..k].contains(&seq[k]));
                assert!(
                    k <= 2 * (prefix + period) + period,
                    "period {period}, prefix {prefix}: fired late at {k}"
                );
            }
        }
    }

    #[test]
    fn cycle_detector_never_fires_on_a_non_repeating_sequence() {
        // Neighbouring doubles one ULP apart, and +0.0 against −0.0
        // (equal as numbers, different bits): no repeat in either.
        let ulps: Vec<Vec<f64>> = (0..5000u64)
            .map(|k| vec![f64::from_bits(1.0f64.to_bits() + k), 2.0])
            .collect();
        assert_eq!(first_repeat(&ulps), None);
        let zeros = vec![vec![0.0, 1.0], vec![-0.0, 1.0], vec![0.5, 1.0]];
        assert_eq!(first_repeat(&zeros), None);
        // A slow drift that nearly returns (the 200-iteration failures
        // that only step control can remove) is not a cycle either.
        let drift: Vec<Vec<f64>> = (0..5000)
            .map(|k| vec![(k as f64 * 0.37).sin(), 1e-9 * k as f64])
            .collect();
        assert_eq!(first_repeat(&drift), None);
    }

    #[test]
    fn cycle_detector_restarts_after_a_repivot_rescue_or_demotion() {
        let bumps: [fn(&mut SolverStats); 3] = [
            |s| s.repivots += 1,
            |s| s.dense_fallbacks += 1,
            |s| s.demotions += 1,
        ];
        for bump in bumps {
            let x = vec![0.25, -3.0];
            let mut stats = SolverStats::default();
            let mut det = CycleDetector::new(&x, stats.path_changes());
            // The same iterate, but the solver changed its path before
            // each one: an earlier iterate proves nothing.
            for _ in 0..8 {
                bump(&mut stats);
                assert!(!det.repeats(&x, stats.path_changes()));
            }
            // Once the path holds, the next repeat fires.
            assert!(det.repeats(&x, stats.path_changes()));
        }
    }

    /// A CMOS Schmitt trigger (no capacitances): with the input at 1 V,
    /// damped Newton from all-zero node voltages never converges and
    /// falls into a bit-exact cycle.
    fn schmitt_trigger(vin: f64) -> Circuit {
        let mut c = Circuit::new("schmitt");
        c.add_model(MosModel::default_nmos("n1"));
        c.add_model(MosModel::default_pmos("p1"));
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        let x = c.node("x");
        let y = c.node("y");
        let gnd = Circuit::GROUND;
        for (name, node, v) in [("Vdd", vdd, 5.0), ("Vin", inp, vin)] {
            c.add(
                name,
                vec![node, gnd],
                ElementKind::Vsource {
                    wave: Waveform::Dc(v),
                },
            );
        }
        let mos = |model: &str, w: f64| ElementKind::Mosfet {
            model: model.into(),
            w,
            l: 1e-6,
        };
        c.add("M1", vec![x, inp, gnd, gnd], mos("n1", 10e-6));
        c.add("M2", vec![out, inp, x, gnd], mos("n1", 10e-6));
        c.add("M3", vec![vdd, out, x, gnd], mos("n1", 10e-6));
        c.add("M4", vec![y, inp, vdd, vdd], mos("p1", 25e-6));
        c.add("M5", vec![out, inp, y, vdd], mos("p1", 25e-6));
        c.add("M6", vec![gnd, out, y, vdd], mos("p1", 25e-6));
        c
    }

    #[test]
    fn cycling_newton_attempt_ends_with_the_max_iter_error() {
        let c = schmitt_trigger(1.0);
        let map = UnknownMap::new(&c);
        let plan = StampPlan::new(&c).unwrap();
        let params = StampParams::default();
        let damped = NewtonOpts {
            max_iter: 600,
            max_step: 0.1,
            ..NewtonOpts::default()
        };
        let x0 = vec![0.0; map.dim()];
        let caller_x = x0.clone();

        let mut solver = MnaSolver::for_circuit(&c, &map, SolverKind::Sparse, None);
        let err = solve_newton_in(
            &mut solver,
            &c,
            &map,
            &plan,
            &x0,
            &params,
            &damped,
            "dc test",
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpiceError::NoConvergence {
                analysis: "dc test".into(),
                detail: "no convergence in 600 iterations".into(),
            }
        );
        let spent = solver.stats();
        assert!(
            spent.refactorisations < damped.max_iter as u64,
            "exit after {} refactorisations",
            spent.refactorisations
        );
        assert_eq!(x0, caller_x, "the caller's iterate is untouched");

        // The same attempt run to its cap without the exit: it never
        // converges, never errors, and takes the same solver path.
        let mut reference = MnaSolver::for_circuit(&c, &map, SolverKind::Sparse, None);
        let sys = reference.sparse_mut().unwrap();
        stamp_linear(&c, &map, sys, &params);
        sys.snapshot_baseline();
        let (mut x, mut x_new) = (x0.clone(), vec![0.0; map.dim()]);
        for iter in 0..damped.max_iter {
            let sys = reference.sparse_mut().expect("stays sparse");
            sys.restore_baseline();
            stamp_nonlinear(&plan, &x, sys, &params);
            reference.solve("reference", &mut x_new).unwrap();
            assert!(x_new.iter().all(|v| v.is_finite()));
            assert!(
                !newton_update(&mut x, &x_new, &damped),
                "converged at iteration {iter}"
            );
        }
        let full = reference.stats();
        assert_eq!(full.refactorisations, damped.max_iter as u64);
        assert_eq!(full.path_changes(), spent.path_changes());

        // The exit point depends on the iterates, not on the cap.
        let longer = NewtonOpts {
            max_iter: 5000,
            ..damped.clone()
        };
        let mut solver = MnaSolver::for_circuit(&c, &map, SolverKind::Sparse, None);
        let err = solve_newton_in(
            &mut solver,
            &c,
            &map,
            &plan,
            &x0,
            &params,
            &longer,
            "dc test",
        )
        .unwrap_err();
        assert!(
            matches!(&err, SpiceError::NoConvergence { detail, .. }
                if detail == "no convergence in 5000 iterations"),
            "{err:?}"
        );
        assert_eq!(solver.stats(), spent);
    }

    #[test]
    fn non_finite_iterate_fails_instead_of_converging() {
        // An infinite source drive overflows the solution. NaN/inf
        // comparisons must not read as "converged": the solve has to
        // report NoConvergence, not hand back a poisoned vector.
        let mut c = Circuit::new("inf");
        let a = c.node("a");
        c.add(
            "I1",
            vec![Circuit::GROUND, a],
            ElementKind::Isource {
                wave: Waveform::Dc(f64::INFINITY),
            },
        );
        c.add(
            "R1",
            vec![a, Circuit::GROUND],
            ElementKind::Resistor { r: 1e3 },
        );
        let map = UnknownMap::new(&c);
        let err = solve_newton(
            &c,
            &map,
            &vec![0.0; map.dim()],
            &StampParams::default(),
            &NewtonOpts::default(),
            "inf test",
        )
        .unwrap_err();
        assert!(matches!(err, SpiceError::NoConvergence { .. }), "{err:?}");
    }

    #[test]
    fn linear_divider_op() {
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(10.0),
            },
        );
        c.add("R1", vec![a, b], ElementKind::Resistor { r: 1e3 });
        c.add(
            "R2",
            vec![b, Circuit::GROUND],
            ElementKind::Resistor { r: 3e3 },
        );
        let x = dc_operating_point(&c).unwrap();
        let map = UnknownMap::new(&c);
        assert!((map.voltage(&x, b) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        // NMOS with resistive pull-up: input low -> out high; input high
        // -> out pulled low.
        let build = |vin: f64| {
            let mut c = Circuit::new("inv");
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_model(MosModel::default_nmos("n1"));
            c.add(
                "Vdd",
                vec![vdd, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(5.0),
                },
            );
            c.add(
                "Vin",
                vec![inp, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(vin),
                },
            );
            c.add("RL", vec![vdd, out], ElementKind::Resistor { r: 10e3 });
            c.add(
                "M1",
                vec![out, inp, Circuit::GROUND, Circuit::GROUND],
                ElementKind::Mosfet {
                    model: "n1".into(),
                    w: 10e-6,
                    l: 1e-6,
                },
            );
            c
        };
        let c_low = build(0.0);
        let x = dc_operating_point(&c_low).unwrap();
        let map = UnknownMap::new(&c_low);
        let out = c_low.find_node("out").unwrap();
        assert!(
            (map.voltage(&x, out) - 5.0).abs() < 1e-3,
            "off transistor leaves out high"
        );

        let c_high = build(5.0);
        let x = dc_operating_point(&c_high).unwrap();
        let v_out = map.voltage(&x, out);
        assert!(v_out < 0.5, "on transistor pulls out low, got {v_out}");
    }

    #[test]
    fn cmos_inverter_rails() {
        let build = |vin: f64| {
            let mut c = Circuit::new("cmosinv");
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_model(MosModel::default_nmos("n1"));
            c.add_model(MosModel::default_pmos("p1"));
            c.add(
                "Vdd",
                vec![vdd, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(5.0),
                },
            );
            c.add(
                "Vin",
                vec![inp, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(vin),
                },
            );
            c.add(
                "Mn",
                vec![out, inp, Circuit::GROUND, Circuit::GROUND],
                ElementKind::Mosfet {
                    model: "n1".into(),
                    w: 10e-6,
                    l: 1e-6,
                },
            );
            c.add(
                "Mp",
                vec![out, inp, vdd, vdd],
                ElementKind::Mosfet {
                    model: "p1".into(),
                    w: 25e-6,
                    l: 1e-6,
                },
            );
            c
        };
        let c0 = build(0.0);
        let map = UnknownMap::new(&c0);
        let out = c0.find_node("out").unwrap();
        let x = dc_operating_point(&c0).unwrap();
        assert!(map.voltage(&x, out) > 4.9, "low in -> high out");
        let c5 = build(5.0);
        let x = dc_operating_point(&c5).unwrap();
        assert!(map.voltage(&x, out) < 0.1, "high in -> low out");
    }

    #[test]
    fn diode_connected_nmos_settles_near_vth() {
        // Current source into a diode-connected NMOS: v ≈ vth + vov.
        let mut c = Circuit::new("diode");
        let d = c.node("d");
        c.add_model(MosModel::default_nmos("n1"));
        c.add(
            "I1",
            vec![Circuit::GROUND, d],
            ElementKind::Isource {
                wave: Waveform::Dc(50e-6),
            },
        );
        c.add(
            "M1",
            vec![d, d, Circuit::GROUND, Circuit::GROUND],
            ElementKind::Mosfet {
                model: "n1".into(),
                w: 10e-6,
                l: 1e-6,
            },
        );
        let x = dc_operating_point(&c).unwrap();
        let map = UnknownMap::new(&c);
        let v = map.voltage(&x, d);
        // vov = sqrt(2 I / beta) ≈ sqrt(2*50µ/800µ) ≈ 0.35 V, vth = 0.8.
        assert!(v > 0.9 && v < 1.5, "diode voltage {v}");
    }

    #[test]
    fn floating_node_handled_by_gshunt() {
        // A node connected only through a capacitor would be singular
        // without the gshunt.
        let mut c = Circuit::new("float");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(1.0),
            },
        );
        c.add(
            "C1",
            vec![a, b],
            ElementKind::Capacitor { c: 1e-12, ic: None },
        );
        let x = dc_operating_point(&c).unwrap();
        let map = UnknownMap::new(&c);
        assert!(
            map.voltage(&x, b).abs() < 1.0,
            "floating node pulled to ground"
        );
    }
}
