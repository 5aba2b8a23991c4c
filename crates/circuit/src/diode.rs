//! Junction diode evaluation and Newton companion stamps.
//!
//! A Shockley diode with exponential limiting: beyond a critical forward
//! voltage the exponential is continued linearly, which keeps Newton
//! updates finite without changing the converged solution (the limit sits
//! far above any physical operating point the damped iteration visits).

use pact_netlist::DiodeModel;

use crate::plan::stamp_conductance;
use crate::StampSink;

/// Thermal voltage `kT/q` at 300 K (V).
pub const VTHERM: f64 = 0.025852;

/// Exponent cap: the diode characteristic is continued linearly above
/// `vmax = EXP_LIMIT · n · Vt` (≈ 1.03 V for an ideal silicon diode).
const EXP_LIMIT: f64 = 40.0;

/// A diode instance with resolved model parameters and node indices
/// (`None` = ground). Anode is `p`, cathode `n`.
#[derive(Clone, Debug)]
pub struct Diode {
    /// Anode node.
    pub p: Option<usize>,
    /// Cathode node.
    pub n: Option<usize>,
    /// Area-scaled saturation current `IS · area` (A).
    pub is_sat: f64,
    /// Emission-scaled thermal voltage `n · Vt` (V).
    pub nvt: f64,
    /// Area-scaled zero-bias junction capacitance (F).
    pub cj: f64,
}

impl Diode {
    /// Builds an instance from a model card and an area factor.
    pub fn from_model(model: &DiodeModel, p: Option<usize>, n: Option<usize>, area: f64) -> Self {
        Diode {
            p,
            n,
            is_sat: model.is * area,
            nvt: model.n * VTHERM,
            cj: model.cj0 * area,
        }
    }
}

/// Linearization of a diode at a junction voltage: current plus
/// small-signal conductance for the Newton iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiodeOp {
    /// Anode→cathode current (A).
    pub id: f64,
    /// `∂id/∂v` (S).
    pub gd: f64,
}

/// Evaluates the limited Shockley characteristic at junction voltage `v`.
pub fn eval_diode(d: &Diode, v: f64) -> DiodeOp {
    let vmax = EXP_LIMIT * d.nvt;
    if v <= vmax {
        let e = (v / d.nvt).exp();
        DiodeOp {
            id: d.is_sat * (e - 1.0),
            gd: d.is_sat / d.nvt * e,
        }
    } else {
        // Linear continuation: value and slope match at vmax.
        let e = EXP_LIMIT.exp();
        let g = d.is_sat / d.nvt * e;
        DiodeOp {
            id: d.is_sat * (e - 1.0) + g * (v - vmax),
            gd: g,
        }
    }
}

/// Newton companion stamp at the node voltages in `v` (ground implied 0):
/// emits the linearized conductance into `sink` (in an order set by the
/// terminals alone) and adds the equivalent-current RHS terms.
pub fn stamp_diode(d: &Diode, v: &[f64], sink: &mut impl StampSink, rhs: &mut [f64]) {
    let vp = d.p.map_or(0.0, |i| v[i]);
    let vn = d.n.map_or(0.0, |i| v[i]);
    let vd = vp - vn;
    let op = eval_diode(d, vd);
    let ieq = op.id - op.gd * vd;
    stamp_conductance(sink, d.p, d.n, op.gd);
    if let Some(i) = d.p {
        rhs[i] -= ieq;
    }
    if let Some(j) = d.n {
        rhs[j] += ieq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diode() -> Diode {
        Diode::from_model(&DiodeModel::default_diode("d"), Some(0), None, 1.0)
    }

    #[test]
    fn reverse_bias_blocks() {
        let d = diode();
        let op = eval_diode(&d, -5.0);
        assert!((op.id + d.is_sat).abs() < 1e-20, "reverse current ≈ −IS");
        assert!(op.gd >= 0.0);
    }

    #[test]
    fn forward_bias_conducts_exponentially() {
        let d = diode();
        let a = eval_diode(&d, 0.6);
        let b = eval_diode(&d, 0.7);
        assert!(a.id > 0.0);
        // One decade of bias ≈ e^(0.1/0.0259) ≈ 48× more current.
        assert!(b.id / a.id > 40.0 && b.id / a.id < 60.0);
    }

    #[test]
    fn limiting_is_continuous_in_value_and_slope() {
        let d = diode();
        let vmax = 40.0 * d.nvt;
        let below = eval_diode(&d, vmax - 1e-9);
        let above = eval_diode(&d, vmax + 1e-9);
        assert!((below.id - above.id).abs() < 1e-6 * below.id);
        assert!((below.gd - above.gd).abs() < 1e-6 * below.gd);
        // And far beyond the limit the current stays finite and linear.
        let far = eval_diode(&d, 100.0);
        assert!(far.id.is_finite());
        assert_eq!(far.gd, above.gd);
    }

    #[test]
    fn gd_matches_finite_difference() {
        let d = diode();
        for v in [-1.0, 0.3, 0.65, 0.8] {
            let op = eval_diode(&d, v);
            let h = 1e-9;
            let fd = (eval_diode(&d, v + h).id - op.id) / h;
            assert!(
                (fd - op.gd).abs() <= 1e-4 * op.gd.abs().max(1e-18),
                "v={v}: fd={fd}, gd={}",
                op.gd
            );
        }
    }

    #[test]
    fn stamp_conserves_current() {
        let d = Diode::from_model(&DiodeModel::default_diode("d"), Some(0), Some(1), 1.0);
        let v = vec![0.7, 0.0];
        let mut trips = Vec::new();
        let mut rhs = vec![0.0; 2];
        stamp_diode(&d, &v, &mut trips, &mut rhs);
        assert!(rhs.iter().sum::<f64>().abs() < 1e-18);
        let mut colsum = [0.0; 2];
        for &(_, c, val) in &trips {
            colsum[c] += val;
        }
        for s in colsum {
            assert!(s.abs() < 1e-18);
        }
    }

    #[test]
    fn area_scales_current_and_capacitance() {
        let m = DiodeModel {
            name: "d".into(),
            is: 1e-14,
            n: 1.0,
            cj0: 1e-15,
        };
        let small = Diode::from_model(&m, Some(0), None, 1.0);
        let big = Diode::from_model(&m, Some(0), None, 3.0);
        assert!((big.is_sat / small.is_sat - 3.0).abs() < 1e-12);
        assert!((big.cj / small.cj - 3.0).abs() < 1e-12);
        let sv = eval_diode(&small, 0.6).id;
        let bv = eval_diode(&big, 0.6).id;
        assert!((bv / sv - 3.0).abs() < 1e-9);
    }
}
