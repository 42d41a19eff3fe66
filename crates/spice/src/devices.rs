//! Device evaluation and MNA stamping.
//!
//! Stamping splits along what a Newton iteration changes:
//! [`stamp_linear`] loads everything that is constant within one
//! Newton solve (shunts, capacitance companions, resistors, sources),
//! and [`stamp_nonlinear`] re-linearises the MOSFETs about the current
//! estimate from a [`StampPlan`] resolved once per analysis.
//! [`stamp_all_planned`] does both, for backends that re-assemble the
//! whole matrix every iteration.

use crate::mna::Stamper;
use crate::netlist::{Circuit, ElementKind, MosModel, MosPolarity, NodeId};
use crate::SpiceError;
use std::collections::HashMap;

/// Maps circuit nodes and voltage-source branches to unknown indices.
#[derive(Debug, Clone)]
pub struct UnknownMap {
    node_count: usize,
    vsrc_rows: HashMap<usize, usize>,
}

impl UnknownMap {
    /// Builds the map for a circuit: nodes 1..N become unknowns 0..N-1,
    /// every V-source element gets a branch-current row after them.
    pub fn new(ckt: &Circuit) -> Self {
        let mut vsrc_rows = HashMap::new();
        let mut next = ckt.node_count() - 1;
        for (ei, e) in ckt.elements().iter().enumerate() {
            if matches!(e.kind, ElementKind::Vsource { .. }) {
                vsrc_rows.insert(ei, next);
                next += 1;
            }
        }
        UnknownMap {
            node_count: ckt.node_count(),
            vsrc_rows,
        }
    }

    /// Total number of unknowns.
    pub fn dim(&self) -> usize {
        self.node_count - 1 + self.vsrc_rows.len()
    }

    /// Number of circuit nodes including ground (the node rows are
    /// `0..node_count() - 1`).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The unknown index for a node (`None` for ground).
    pub fn node_var(&self, n: NodeId) -> Option<usize> {
        if n == Circuit::GROUND {
            None
        } else {
            Some(n - 1)
        }
    }

    /// The branch-current row of the V-source at element index `ei`.
    ///
    /// # Panics
    /// Panics if `ei` is not a voltage source.
    pub fn branch_row(&self, ei: usize) -> usize {
        self.vsrc_rows[&ei]
    }

    /// Voltage of node `n` in solution vector `x`.
    pub fn voltage(&self, x: &[f64], n: NodeId) -> f64 {
        match self.node_var(n) {
            None => 0.0,
            Some(i) => x[i],
        }
    }
}

/// Companion model of a capacitance for the current timestep, bound to
/// a node pair. Covers both explicit capacitor elements and
/// device-internal capacitances (MOS gate caps).
#[derive(Debug, Clone, Copy)]
pub struct CapCompanion {
    /// First node.
    pub a: NodeId,
    /// Second node.
    pub b: NodeId,
    /// Equivalent conductance (C/dt for BE, 2C/dt for TRAP).
    pub geq: f64,
    /// Equivalent current source from `a` to `b`.
    pub ieq: f64,
}

/// Inputs describing the analysis point being stamped.
#[derive(Debug, Clone)]
pub struct StampParams<'a> {
    /// Simulation time used to evaluate source waveforms.
    pub time: f64,
    /// Capacitance companions for this timestep. `None` means DC:
    /// capacitances are open circuits.
    pub cap_companions: Option<&'a [CapCompanion]>,
    /// Conductance added in parallel with nonlinear device channels.
    pub gmin: f64,
    /// Conductance from every non-ground node to ground (keeps floating
    /// subcircuits — e.g. a stuck-open gate — solvable).
    pub gshunt: f64,
    /// Scale factor applied to independent sources (source stepping).
    pub source_scale: f64,
}

impl Default for StampParams<'_> {
    fn default() -> Self {
        StampParams {
            time: 0.0,
            cap_companions: None,
            gmin: 1e-12,
            gshunt: 1e-12,
            source_scale: 1.0,
        }
    }
}

/// Result of evaluating a MOS transistor at a bias point (primed —
/// polarity- and swap-normalised — frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain–source current (A), ≥ 0 in normal operation.
    pub ids: f64,
    /// ∂ids/∂vgs.
    pub gm: f64,
    /// ∂ids/∂vds.
    pub gds: f64,
    /// ∂ids/∂vbs.
    pub gmbs: f64,
}

/// The instance constants of one MOSFET's level-1 evaluation, derived
/// from its model card and geometry once per analysis instead of once
/// per Newton iteration.
#[derive(Debug, Clone, Copy)]
struct MosParams {
    /// kp·W/L.
    beta: f64,
    /// |vto|: the primed frame uses a positive threshold.
    vto: f64,
    /// Surface potential, floored at 1 mV.
    phi: f64,
    sqrt_phi: f64,
    gamma: f64,
    lambda: f64,
}

impl MosParams {
    fn new(model: &MosModel, w: f64, l: f64) -> Self {
        let phi = model.phi.max(1e-3);
        MosParams {
            beta: model.kp * w / l,
            vto: model.vto.abs(),
            phi,
            sqrt_phi: phi.sqrt(),
            gamma: model.gamma,
            lambda: model.lambda,
        }
    }

    /// The Shichman–Hodges level-1 equations in the primed frame.
    fn eval(&self, vgs: f64, vds: f64, vbs: f64) -> MosEval {
        debug_assert!(vds >= 0.0);
        let beta = self.beta;
        // Body effect: vth = vto' + gamma (sqrt(phi - vbs) - sqrt(phi)).
        let arg = (self.phi - vbs).max(1e-6);
        let sqrt_arg = arg.sqrt();
        let vth = self.vto + self.gamma * (sqrt_arg - self.sqrt_phi);
        let dvth_dvbs = -self.gamma / (2.0 * sqrt_arg);

        let vov = vgs - vth;
        if vov <= 0.0 {
            // Cutoff.
            return MosEval {
                ids: 0.0,
                gm: 0.0,
                gds: 0.0,
                gmbs: 0.0,
            };
        }
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            // Triode.
            let core = vov * vds - 0.5 * vds * vds;
            let ids = beta * core * clm;
            let gm = beta * vds * clm;
            let gds = beta * (vov - vds) * clm + beta * core * self.lambda;
            let gmbs = -gm_body(gm, dvth_dvbs);
            MosEval { ids, gm, gds, gmbs }
        } else {
            // Saturation.
            let ids = 0.5 * beta * vov * vov * clm;
            let gm = beta * vov * clm;
            let gds = 0.5 * beta * vov * vov * self.lambda;
            let gmbs = -gm_body(gm, dvth_dvbs);
            MosEval { ids, gm, gds, gmbs }
        }
    }
}

/// Evaluates the Shichman–Hodges level-1 model in the primed frame
/// (voltages already normalised so that NMOS equations apply and
/// `vds ≥ 0`).
pub fn mos_eval(model: &MosModel, w: f64, l: f64, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    MosParams::new(model, w, l).eval(vgs, vds, vbs)
}

/// gmbs = ∂ids/∂vbs = gm · (−∂vth/∂vbs); helper keeps the sign in one
/// place.
fn gm_body(gm: f64, dvth_dvbs: f64) -> f64 {
    gm * dvth_dvbs
}

/// One MOSFET with everything its per-iteration stamp needs resolved:
/// terminal unknowns, polarity and the evaluation constants.
#[derive(Debug, Clone, Copy)]
struct MosDevice {
    /// Unknown indices of drain, gate, source and bulk (`None` =
    /// ground).
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    b: Option<usize>,
    /// +1 for NMOS, −1 for PMOS.
    sign: f64,
    params: MosParams,
}

/// Per-analysis stamp plan: one resolved device record per MOSFET, in
/// element order, so the per-iteration assembly does no model lookup,
/// no W/L division and no square root of φ. Build it alongside the
/// [`crate::sparse::MnaSolver`] and reuse it for every Newton iteration
/// of the analysis.
#[derive(Debug, Clone)]
pub struct StampPlan {
    mos: Vec<MosDevice>,
}

impl StampPlan {
    /// Resolves every MOSFET up front.
    ///
    /// # Errors
    /// [`SpiceError::Elaboration`] when a MOS references an unknown
    /// model.
    pub fn new(ckt: &Circuit) -> Result<Self, SpiceError> {
        let map = UnknownMap::new(ckt);
        let mut mos = Vec::new();
        for e in ckt.elements() {
            if let ElementKind::Mosfet { model, w, l } = &e.kind {
                let m = ckt.models.get(&model.to_ascii_lowercase()).ok_or_else(|| {
                    SpiceError::Elaboration(format!(
                        "element {} references undefined model `{model}`",
                        e.name
                    ))
                })?;
                mos.push(MosDevice {
                    d: map.node_var(e.nodes[0]),
                    g: map.node_var(e.nodes[1]),
                    s: map.node_var(e.nodes[2]),
                    b: map.node_var(e.nodes[3]),
                    sign: match m.polarity {
                        MosPolarity::Nmos => 1.0,
                        MosPolarity::Pmos => -1.0,
                    },
                    params: MosParams::new(m, *w, *l),
                });
            }
        }
        Ok(StampPlan { mos })
    }
}

/// Loads the linearised circuit at solution estimate `x` into `sys`.
/// Compatibility wrapper that resolves MOS models on every call; the
/// hot paths build a [`StampPlan`] once and use
/// [`stamp_all_planned`].
///
/// # Errors
/// [`SpiceError::Elaboration`] when a MOS references an unknown model.
pub fn stamp_all<S: Stamper>(
    ckt: &Circuit,
    map: &UnknownMap,
    x: &[f64],
    sys: &mut S,
    params: &StampParams<'_>,
) -> Result<(), SpiceError> {
    let plan = StampPlan::new(ckt)?;
    stamp_all_planned(ckt, map, &plan, x, sys, params);
    Ok(())
}

/// Loads the linearised circuit at solution estimate `x` into `sys`,
/// using the pre-resolved `plan` — the allocation-free assembly the
/// Newton loop runs every iteration.
pub fn stamp_all_planned<S: Stamper>(
    ckt: &Circuit,
    map: &UnknownMap,
    plan: &StampPlan,
    x: &[f64],
    sys: &mut S,
    params: &StampParams<'_>,
) {
    sys.clear();
    stamp_linear(ckt, map, sys, params);
    stamp_nonlinear(plan, x, sys, params);
}

/// Stamps everything that does **not** depend on the Newton iterate:
/// gshunt, capacitance companions, resistors and the independent
/// sources. Within one Newton solve these values are constant, so the
/// sparse engine loads them once per timestep and restores the snapshot
/// each iteration instead of re-stamping.
pub fn stamp_linear<S: Stamper>(
    ckt: &Circuit,
    map: &UnknownMap,
    sys: &mut S,
    params: &StampParams<'_>,
) {
    // Node-to-ground shunts keep isolated nodes from making the matrix
    // singular (a stuck-open fault can float whole subcircuits).
    if params.gshunt > 0.0 {
        for n in 1..map.node_count {
            sys.stamp_conductance(Some(n - 1), None, params.gshunt);
        }
    }

    // Capacitance companions (explicit capacitors and MOS gate caps) —
    // nothing in DC, where capacitances are open.
    if let Some(companions) = params.cap_companions {
        for cc in companions {
            let a = map.node_var(cc.a);
            let b = map.node_var(cc.b);
            sys.stamp_conductance(a, b, cc.geq);
            sys.stamp_current(a, b, cc.ieq);
        }
    }

    for (ei, e) in ckt.elements().iter().enumerate() {
        match &e.kind {
            ElementKind::Resistor { r } => {
                let g = 1.0 / *r;
                sys.stamp_conductance(map.node_var(e.nodes[0]), map.node_var(e.nodes[1]), g);
            }
            ElementKind::Capacitor { .. } => {
                // Handled through the companion list above.
            }
            ElementKind::Vsource { wave } => {
                let v = wave.value_at(params.time) * params.source_scale;
                sys.stamp_vsource(
                    map.branch_row(ei),
                    map.node_var(e.nodes[0]),
                    map.node_var(e.nodes[1]),
                    v,
                );
            }
            ElementKind::Isource { wave } => {
                let i = wave.value_at(params.time) * params.source_scale;
                sys.stamp_current(map.node_var(e.nodes[0]), map.node_var(e.nodes[1]), i);
            }
            ElementKind::Mosfet { .. } => {}
        }
    }
}

/// Stamps the iterate-dependent devices (the MOSFET linearisations) at
/// solution estimate `x`.
pub fn stamp_nonlinear<S: Stamper>(
    plan: &StampPlan,
    x: &[f64],
    sys: &mut S,
    params: &StampParams<'_>,
) {
    for dev in &plan.mos {
        stamp_mosfet(dev, x, sys, params.gmin);
    }
}

/// Linearises and stamps one MOSFET.
fn stamp_mosfet<S: Stamper>(dev: &MosDevice, x: &[f64], sys: &mut S, gmin: f64) {
    let voltage = |var: Option<usize>| match var {
        None => 0.0,
        Some(i) => x[i],
    };
    let sign = dev.sign;
    let vd = voltage(dev.d);
    let vg = voltage(dev.g);
    let vs = voltage(dev.s);
    let vb = voltage(dev.b);

    // The MOS is symmetric: operate in the frame where vds' >= 0.
    let (vnd_i, vns_i, vnd, vns) = if sign * (vd - vs) >= 0.0 {
        (dev.d, dev.s, vd, vs)
    } else {
        (dev.s, dev.d, vs, vd)
    };
    let vgs_p = sign * (vg - vns);
    let vds_p = sign * (vnd - vns);
    let vbs_p = sign * (vb - vns);

    let ev = dev.params.eval(vgs_p, vds_p, vbs_p);

    // Translate the primed-frame linearisation into unprimed stamps (see
    // DESIGN.md §5.5): every sign cancels because both the controlling
    // voltage and the injected current flip together.
    //
    // The three textbook stamps (channel conductance + two VCCSs
    // controlled against the source) are emitted pre-combined — eight
    // accumulations instead of sixteen, with the gate/bulk columns
    // skipped entirely for cutoff devices. This is the kernel's hottest
    // loop; aliasing (diode-connected gates) stays correct because
    // every write is `+=`.
    let g_ch = ev.gds + gmin;
    let g_sum = ev.gm + ev.gmbs;
    let ieq = sign * (ev.ids - ev.gm * vgs_p - ev.gds * vds_p - ev.gmbs * vbs_p);
    if let Some(r) = vnd_i {
        sys.add(r, r, g_ch);
        if let Some(c) = vns_i {
            sys.add(r, c, -g_ch - g_sum);
        }
        if ev.gm != 0.0 {
            if let Some(c) = dev.g {
                sys.add(r, c, ev.gm);
            }
        }
        if ev.gmbs != 0.0 {
            if let Some(c) = dev.b {
                sys.add(r, c, ev.gmbs);
            }
        }
        sys.add_rhs(r, -ieq);
    }
    if let Some(r) = vns_i {
        if let Some(c) = vnd_i {
            sys.add(r, c, -g_ch);
        }
        sys.add(r, r, g_ch + g_sum);
        if ev.gm != 0.0 {
            if let Some(c) = dev.g {
                sys.add(r, c, -ev.gm);
            }
        }
        if ev.gmbs != 0.0 {
            if let Some(c) = dev.b {
                sys.add(r, c, -ev.gmbs);
            }
        }
        sys.add_rhs(r, ieq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> MosModel {
        MosModel::default_nmos("n")
    }

    #[test]
    fn cutoff_has_zero_current() {
        let m = nmos();
        let ev = mos_eval(&m, 10e-6, 1e-6, 0.5, 2.0, 0.0);
        assert_eq!(ev.ids, 0.0);
        assert_eq!(ev.gm, 0.0);
    }

    #[test]
    fn saturation_current_matches_formula() {
        let m = nmos();
        let (w, l) = (10e-6, 1e-6);
        let (vgs, vds) = (2.0, 3.0);
        let ev = mos_eval(&m, w, l, vgs, vds, 0.0);
        let beta = m.kp * w / l;
        let vov = vgs - m.vto;
        let expect = 0.5 * beta * vov * vov * (1.0 + m.lambda * vds);
        assert!((ev.ids - expect).abs() < 1e-12);
        assert!(ev.gm > 0.0 && ev.gds > 0.0);
    }

    #[test]
    fn triode_current_matches_formula() {
        let m = nmos();
        let (w, l) = (10e-6, 1e-6);
        let (vgs, vds) = (3.0, 0.5);
        let ev = mos_eval(&m, w, l, vgs, vds, 0.0);
        let beta = m.kp * w / l;
        let vov = vgs - m.vto;
        let expect = beta * (vov * vds - 0.5 * vds * vds) * (1.0 + m.lambda * vds);
        assert!((ev.ids - expect).abs() < 1e-12);
    }

    #[test]
    fn triode_saturation_continuous_at_boundary() {
        let m = nmos();
        let (w, l) = (10e-6, 1e-6);
        let vgs = 2.0;
        let vdsat = vgs - m.vto;
        let below = mos_eval(&m, w, l, vgs, vdsat - 1e-9, 0.0);
        let above = mos_eval(&m, w, l, vgs, vdsat + 1e-9, 0.0);
        assert!((below.ids - above.ids).abs() < 1e-9);
        assert!((below.gm - above.gm).abs() < 1e-6);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let m = nmos();
        // Reverse body bias (vbs < 0) raises vth, lowering the current.
        let no_bias = mos_eval(&m, 10e-6, 1e-6, 2.0, 3.0, 0.0);
        let rev_bias = mos_eval(&m, 10e-6, 1e-6, 2.0, 3.0, -2.0);
        assert!(rev_bias.ids < no_bias.ids);
        assert!(rev_bias.gmbs > 0.0, "gmbs positive: raising vbs raises ids");
    }

    #[test]
    fn numeric_derivatives_match_analytic() {
        let m = nmos();
        let (w, l) = (20e-6, 2e-6);
        for &(vgs, vds, vbs) in &[(2.5, 4.0, -1.0), (3.0, 0.4, -0.5), (1.2, 1.0, 0.0)] {
            let ev = mos_eval(&m, w, l, vgs, vds, vbs);
            let h = 1e-7;
            let dgm = (mos_eval(&m, w, l, vgs + h, vds, vbs).ids
                - mos_eval(&m, w, l, vgs - h, vds, vbs).ids)
                / (2.0 * h);
            let dgds = (mos_eval(&m, w, l, vgs, vds + h, vbs).ids
                - mos_eval(&m, w, l, vgs, vds - h, vbs).ids)
                / (2.0 * h);
            let dgmbs = (mos_eval(&m, w, l, vgs, vds, vbs + h).ids
                - mos_eval(&m, w, l, vgs, vds, vbs - h).ids)
                / (2.0 * h);
            assert!(
                (ev.gm - dgm).abs() < 1e-6 * (1.0 + dgm.abs()),
                "gm at {vgs},{vds},{vbs}"
            );
            assert!((ev.gds - dgds).abs() < 1e-6 * (1.0 + dgds.abs()), "gds");
            assert!((ev.gmbs - dgmbs).abs() < 1e-6 * (1.0 + dgmbs.abs()), "gmbs");
        }
    }

    #[test]
    fn unknown_map_layout() {
        use crate::netlist::Waveform;
        let mut c = Circuit::new("t");
        let a = c.node("a");
        let b = c.node("b");
        c.add("R1", vec![a, b], ElementKind::Resistor { r: 1.0 });
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(1.0),
            },
        );
        let map = UnknownMap::new(&c);
        assert_eq!(map.dim(), 3); // 2 nodes + 1 branch
        assert_eq!(map.node_var(Circuit::GROUND), None);
        assert_eq!(map.node_var(a), Some(0));
        assert_eq!(map.branch_row(1), 2);
    }
}
