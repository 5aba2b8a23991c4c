//! Level-1 (Shichman–Hodges) MOSFET evaluation and Newton stamps.
//!
//! The paper's benchmark circuits are CMOS gates; a level-1 model with
//! channel-length modulation plus fixed gate and drain/source-to-body
//! junction capacitances reproduces the behaviours the evaluation needs:
//! inverter switching (Figures 3–4) and substrate current injection
//! through the junction capacitances (Figure 6).

use pact_netlist::MosModel;

use crate::StampSink;

/// A MOSFET instance with resolved model parameters and node indices
/// (`None` = ground).
#[derive(Clone, Debug)]
pub struct Mosfet {
    /// Drain node.
    pub d: Option<usize>,
    /// Gate node.
    pub g: Option<usize>,
    /// Source node.
    pub s: Option<usize>,
    /// Body node.
    pub b: Option<usize>,
    /// `true` for NMOS.
    pub nmos: bool,
    /// Threshold voltage (sign per polarity).
    pub vto: f64,
    /// `β = KP·W/L`.
    pub beta: f64,
    /// Channel-length modulation `λ`.
    pub lambda: f64,
    /// Gate–source capacitance (F).
    pub cgs: f64,
    /// Gate–drain capacitance (F).
    pub cgd: f64,
    /// Drain–body junction capacitance (F).
    pub cdb: f64,
    /// Source–body junction capacitance (F).
    pub csb: f64,
}

impl Mosfet {
    /// Builds an instance from a model card and geometry.
    pub fn from_model(
        model: &MosModel,
        d: Option<usize>,
        g: Option<usize>,
        s: Option<usize>,
        b: Option<usize>,
        w: f64,
        l: f64,
    ) -> Self {
        let cg = model.cox * w * l;
        Mosfet {
            d,
            g,
            s,
            b,
            nmos: model.nmos,
            vto: model.vto,
            beta: model.kp * w / l,
            lambda: model.lambda,
            cgs: 0.5 * cg,
            cgd: 0.5 * cg,
            cdb: model.cjb * w,
            csb: model.cjb * w,
        }
    }
}

/// Linearization of a MOSFET at an operating point: current plus
/// conductances for the Newton iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MosOp {
    /// Drain current flowing drain→source (A), sign per polarity.
    pub ids: f64,
    /// `∂ids/∂vgs`.
    pub gm: f64,
    /// `∂ids/∂vds`.
    pub gds: f64,
}

/// Evaluates the level-1 equations at terminal voltages `(vd, vg, vs)`,
/// returning current and small-signal conductances *with respect to the
/// actual drain/source terminals* (internal source/drain swap and PMOS
/// mirroring are handled inside).
pub fn eval_level1(m: &Mosfet, vd: f64, vg: f64, vs: f64) -> MosOp {
    let sign = if m.nmos { 1.0 } else { -1.0 };
    // Mirror into NMOS-normal space.
    let (ud, ug, us) = (sign * vd, sign * vg, sign * vs);
    let vto = sign * m.vto; // positive in u-space for both polarities
                            // Source/drain swap so u_ds ≥ 0.
    let swapped = ud < us;
    let (ue_d, ue_s) = if swapped { (us, ud) } else { (ud, us) };
    let vgs = ug - ue_s;
    let vds = ue_d - ue_s;
    let vov = vgs - vto;
    let (i, gm_u, gds_u) = if vov <= 0.0 {
        (0.0, 0.0, 0.0)
    } else if vds < vov {
        // Triode region.
        let cm = 1.0 + m.lambda * vds;
        let i = m.beta * (vov * vds - 0.5 * vds * vds) * cm;
        let gm = m.beta * vds * cm;
        let gds = m.beta * (vov - vds) * cm + m.beta * (vov * vds - 0.5 * vds * vds) * m.lambda;
        (i, gm, gds)
    } else {
        // Saturation.
        let cm = 1.0 + m.lambda * vds;
        let i = 0.5 * m.beta * vov * vov * cm;
        let gm = m.beta * vov * cm;
        let gds = 0.5 * m.beta * vov * vov * m.lambda;
        (i, gm, gds)
    };
    // Undo the swap: current flowed effective-drain → effective-source.
    let i_u = if swapped { -i } else { i };
    // Undo the mirror: real drain→source current.
    let ids = sign * i_u;
    // Conductances are invariant under both transformations in the sense
    // used by the stamp (they apply to the *effective* gate/source pair);
    // the stamping code re-derives the terminal mapping from `swapped`.
    MosOp {
        ids,
        gm: gm_u,
        gds: gds_u,
    }
}

/// Newton companion stamp for a MOSFET at the voltages in `v` (ground
/// implied 0): emits the linearized device's conductances into `sink`
/// and adds its current terms to `rhs`.
///
/// The rows/columns follow the standard MNA transistor stamp with the
/// effective drain/source orientation resolved internally. The entries
/// are always emitted as `(d,d) (d,s) (d,g) (s,d) (s,s) (s,g)`, ground
/// rows and columns skipped, whatever the orientation: the order depends
/// on the device's terminals alone, as [`StampSink`] requires.
pub fn stamp_level1(m: &Mosfet, v: &[f64], sink: &mut impl StampSink, rhs: &mut [f64]) {
    let vt = |n: Option<usize>| n.map_or(0.0, |i| v[i]);
    let (vd, vg, vs) = (vt(m.d), vt(m.g), vt(m.s));
    let sign = if m.nmos { 1.0 } else { -1.0 };
    let swapped = sign * vd < sign * vs;
    // Effective terminals in real space.
    let (ed, es) = if swapped { (m.s, m.d) } else { (m.d, m.s) };
    let op = eval_level1(m, vd, vg, vs);
    // In effective orientation the device current flows ed→es with
    // magnitude |ids| and linearization (gm, gds) against (v_g−v_es,
    // v_ed−v_es) in u-space. Transform to real voltages: u = sign·v, so
    // ∂/∂v = sign·∂/∂u, and the current in real space from ed to es is
    // i_eff = sign · i_u(effective) — equal to `op.ids` when not swapped
    // and `−op.ids` when swapped.
    let i_eff = if swapped { -op.ids } else { op.ids };
    let (ved, vges) = {
        let ves = vt(es);
        (vt(ed) - ves, vg - ves)
    };
    // Real-space conductances for the effective orientation: both gm and
    // gds are positive and independent of polarity (sign² = 1).
    let gm = op.gm;
    let gds = op.gds;
    // i(v) ≈ i_eff + gm·(Δvges) + gds·(Δved)  with sign-mirroring folded:
    // in real space di/dvges = gm, di/dved = gds for both polarities.
    let ieq = i_eff - gm * vges - gds * ved;
    // KCL rows: current i flows out of node ed, into node es. Over the
    // columns (ed, es, g) the ed row reads [gds, −(gds+gm), gm] and the
    // es row [−gds, gds+gm, −gm]; mapped onto the real terminals'
    // columns (d, s, g), the drain row is the ed row unless swapped.
    let (drain, source) = if swapped {
        ([gds + gm, -gds, -gm], [-(gds + gm), gds, gm])
    } else {
        ([gds, -(gds + gm), gm], [-gds, gds + gm, -gm])
    };
    for (row, vals) in [(m.d, drain), (m.s, source)] {
        let Some(r) = row else { continue };
        for (col, val) in [m.d, m.s, m.g].into_iter().zip(vals) {
            if let Some(c) = col {
                sink.add(r, c, val);
            }
        }
    }
    if let Some(ri) = ed {
        rhs[ri] -= ieq;
    }
    if let Some(ri) = es {
        rhs[ri] += ieq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::MosModel;

    fn nmos() -> Mosfet {
        Mosfet::from_model(
            &MosModel::default_nmos("n"),
            Some(0),
            Some(1),
            Some(2),
            None,
            10e-6,
            1e-6,
        )
    }

    fn pmos() -> Mosfet {
        Mosfet::from_model(
            &MosModel::default_pmos("p"),
            Some(0),
            Some(1),
            Some(2),
            None,
            20e-6,
            1e-6,
        )
    }

    #[test]
    fn cutoff_region_zero_current() {
        let m = nmos();
        let op = eval_level1(&m, 5.0, 0.0, 0.0);
        assert_eq!(op.ids, 0.0);
        assert_eq!(op.gm, 0.0);
    }

    #[test]
    fn saturation_current_value() {
        let m = nmos();
        // vgs = 2, vds = 5 > vov = 1.3: saturation.
        let op = eval_level1(&m, 5.0, 2.0, 0.0);
        let beta = 110e-6 * 10.0;
        let expect = 0.5 * beta * 1.3 * 1.3 * (1.0 + 0.04 * 5.0);
        assert!((op.ids - expect).abs() < 1e-12);
        assert!(op.gm > 0.0);
        assert!(op.gds > 0.0);
    }

    #[test]
    fn triode_region() {
        let m = nmos();
        // vgs = 3, vds = 0.5 < vov = 2.3: triode.
        let op = eval_level1(&m, 0.5, 3.0, 0.0);
        let beta = 110e-6 * 10.0;
        let cm = 1.0 + 0.04 * 0.5;
        let expect = beta * (2.3 * 0.5 - 0.125) * cm;
        assert!((op.ids - expect).abs() < 1e-12);
    }

    #[test]
    fn current_continuity_at_region_boundary() {
        let m = nmos();
        let vov = 2.0 - 0.7;
        let below = eval_level1(&m, vov - 1e-9, 2.0, 0.0);
        let above = eval_level1(&m, vov + 1e-9, 2.0, 0.0);
        assert!((below.ids - above.ids).abs() < 1e-9);
        assert!((below.gm - above.gm).abs() < 1e-6);
    }

    #[test]
    fn symmetric_under_source_drain_swap() {
        // Swapping D and S terminals with mirrored voltages negates ids.
        let m = nmos();
        let a = eval_level1(&m, 1.5, 3.0, 0.0);
        let b = eval_level1(&m, 0.0, 3.0, 1.5);
        assert!((a.ids + b.ids).abs() < 1e-15);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let mp = pmos();
        // PMOS with source at 5 V, gate at 2.5 V, drain at 0: |vgs|=2.5 >
        // |vto|=0.9 → conducts, current flows source→drain, i.e. ids
        // (drain→source) is negative.
        let op = eval_level1(&mp, 0.0, 2.5, 5.0);
        assert!(op.ids < 0.0, "PMOS ids should be negative, got {}", op.ids);
        assert!(op.gm > 0.0);
    }

    #[test]
    fn stamp_consistent_with_finite_difference() {
        // The Newton stamp must satisfy: for small dv, the linear model
        // current ≈ the re-evaluated device current.
        let m = nmos();
        let v = [1.2, 2.4, 0.3];
        let op0 = eval_level1(&m, v[0], v[1], v[2]);
        let h = 1e-7;
        // dIds/dVg via finite difference equals stamp's gm.
        let opg = eval_level1(&m, v[0], v[1] + h, v[2]);
        let gm_fd = (opg.ids - op0.ids) / h;
        let opd = eval_level1(&m, v[0] + h, v[1], v[2]);
        let gds_fd = (opd.ids - op0.ids) / h;
        assert!((gm_fd - op0.gm).abs() < 1e-4 * op0.gm.max(1e-12), "gm fd");
        assert!(
            (gds_fd - op0.gds).abs() < 1e-4 * op0.gds.max(1e-12),
            "gds fd"
        );
    }

    #[test]
    fn stamp_conserves_current() {
        // Sum of stamped RHS contributions must be zero (KCL).
        let m = nmos();
        let v = vec![2.0, 3.0, 0.5];
        let mut trips = Vec::new();
        let mut rhs = vec![0.0; 3];
        stamp_level1(&m, &v, &mut trips, &mut rhs);
        let total: f64 = rhs.iter().sum();
        assert!(total.abs() < 1e-15);
        // Per column, the drain-row and source-row stamps cancel (the
        // device injects what it draws).
        let mut colsum = [0.0; 3];
        for &(_, c, val) in &trips {
            colsum[c] += val;
        }
        for (c, s) in colsum.iter().enumerate() {
            assert!(s.abs() < 1e-15, "column {c} sum {s}");
        }
    }

    #[test]
    fn junction_caps_scale_with_geometry() {
        let model = MosModel::default_nmos("n");
        let small = Mosfet::from_model(&model, None, None, None, None, 1e-6, 1e-6);
        let big = Mosfet::from_model(&model, None, None, None, None, 4e-6, 1e-6);
        assert!((big.cdb / small.cdb - 4.0).abs() < 1e-12);
        assert!((big.cgs / small.cgs - 4.0).abs() < 1e-12);
    }
}
