//! # pact-circuit
//!
//! A SPICE-class circuit simulator standing in for HSPICE in the PACT
//! paper's evaluation: DC operating point (Newton–Raphson with gmin
//! stepping), transient analysis (trapezoidal/backward-Euler companion
//! models with source-breakpoint alignment), and small-signal AC sweeps —
//! all over the sparse LU kernel of `pact-sparse`.
//!
//! Devices: resistors, capacitors, inductors, independent V/I sources
//! (DC, PULSE, PWL, SIN), linear controlled sources (E/G/F/H), junction
//! diodes, and level-1 MOSFETs with gate and drain/source-to-body
//! junction capacitances (the substrate-noise injection path of the
//! paper's Figure 6 experiment). Inductors, VCVS and CCVS elements add
//! branch-current unknowns to the MNA system; inductors and diodes use
//! companion models (backward-Euler/trapezoidal and Newton
//! linearization respectively) in transient and DC.
//!
//! The simulator exists so that every table and figure comparing
//! "HSPICE on the original network" vs "HSPICE on the reduced network"
//! can be regenerated: both netlists run through the same engine, so the
//! relative speed/memory/waveform comparisons are faithful.
//!
//! ```
//! use pact_circuit::Circuit;
//! use pact_netlist::parse;
//!
//! // RC low-pass step response: v(out) rises toward 1 V with τ = 1 ns.
//! let deck = "* rc\nV1 in 0 pwl(0 0 1p 1)\nR1 in out 1k\nC1 out 0 1p\n.end\n";
//! let ckt = Circuit::from_netlist(&parse(deck)?)?;
//! let tr = ckt.transient(10e-12, 5e-9)?;
//! let v = tr.voltage("out").unwrap();
//! assert!(*v.last().unwrap() > 0.98);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod diode;
mod mosfet;
mod plan;

use std::time::Instant;

use pact_netlist::{is_ground, ElementKind, Netlist, NodeTable, Waveform};
use pact_sparse::{Complex64, CscPencil, LuCache, ParCtx, SparseLu};

pub use diode::{eval_diode, stamp_diode, Diode, DiodeOp, VTHERM};
pub use mosfet::{eval_level1, stamp_level1, MosOp, Mosfet};
pub use plan::StampSink;

use plan::{stamp_conductance, MnaPlan};

/// Minimum conductance from every node to ground (SPICE `GMIN`).
const GMIN: f64 = 1e-12;
/// Newton voltage-update limit per iteration (V).
const STEP_LIMIT: f64 = 1.0;
/// Newton convergence: `|Δv| ≤ VNTOL + RELTOL·|v|`.
const VNTOL: f64 = 1e-6;
/// Relative part of the Newton convergence criterion.
const RELTOL: f64 = 1e-4;
/// Maximum Newton iterations per solve stage.
const MAX_NEWTON: usize = 100;

/// Error from building or simulating a circuit.
#[derive(Clone, Debug)]
pub enum CircuitError {
    /// A MOSFET references a model with no `.MODEL` card.
    UnknownModel {
        /// Element name.
        element: String,
        /// Missing model name.
        model: String,
    },
    /// A current-controlled source (F/H) references a voltage source
    /// that does not exist in the deck.
    UnknownControl {
        /// Element name.
        element: String,
        /// Missing controlling voltage-source name.
        ctrl: String,
    },
    /// The Newton iteration failed to converge.
    NoConvergence {
        /// Analysis phase that failed (e.g. "dc", "transient t=...").
        context: String,
    },
    /// The MNA matrix was singular.
    Singular {
        /// Analysis phase.
        context: String,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::UnknownModel { element, model } => {
                write!(f, "element {element} references unknown model `{model}`")
            }
            CircuitError::UnknownControl { element, ctrl } => {
                write!(
                    f,
                    "element {element} references unknown controlling source `{ctrl}`"
                )
            }
            CircuitError::NoConvergence { context } => {
                write!(f, "newton iteration failed to converge ({context})")
            }
            CircuitError::Singular { context } => write!(f, "singular MNA matrix ({context})"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// A two-terminal linear branch with `None` = ground terminals.
#[derive(Clone, Copy, Debug)]
struct Branch2 {
    a: Option<usize>,
    b: Option<usize>,
    value: f64,
}

/// Branch voltage `v_a − v_b` of a two-terminal element.
fn vab2(c: &Branch2, xx: &[f64]) -> f64 {
    let va = c.a.map_or(0.0, |i| xx[i]);
    let vb = c.b.map_or(0.0, |i| xx[i]);
    va - vb
}

/// An independent source instance.
#[derive(Clone, Debug)]
struct Source {
    p: Option<usize>,
    n: Option<usize>,
    wave: Waveform,
    name: String,
}

/// A voltage-controlled source (VCVS `E` / VCCS `G`): output pair plus a
/// sensed voltage pair and a gain (V/V or S).
#[derive(Clone, Copy, Debug)]
struct VoltCtl {
    p: Option<usize>,
    n: Option<usize>,
    cp: Option<usize>,
    cn: Option<usize>,
    gain: f64,
}

/// A current-controlled source (CCCS `F` / CCVS `H`): output pair plus
/// the index of the controlling voltage source whose branch current is
/// sensed, and a gain (A/A or Ω).
#[derive(Clone, Copy, Debug)]
struct CurrCtl {
    p: Option<usize>,
    n: Option<usize>,
    ctrl: usize,
    gain: f64,
}

/// A compiled circuit ready for analysis.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Non-ground node names, index = MNA unknown.
    nodes: Vec<String>,
    resistors: Vec<Branch2>,
    /// Physical + MOSFET parasitic + diode junction capacitors.
    capacitors: Vec<Branch2>,
    inductors: Vec<Branch2>,
    vsources: Vec<Source>,
    isources: Vec<Source>,
    vcvs: Vec<VoltCtl>,
    vccs: Vec<VoltCtl>,
    cccs: Vec<CurrCtl>,
    ccvs: Vec<CurrCtl>,
    diodes: Vec<Diode>,
    mosfets: Vec<Mosfet>,
}

/// Work statistics from an analysis, feeding the paper's tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Fresh full matrix factorizations (symbolic analysis + numerics).
    pub factorizations: usize,
    /// Numeric-only refactorizations that reused the cached symbolic
    /// analysis (the cheap path; see `pact_sparse::SymbolicLu`).
    pub refactorizations: usize,
    /// Total Newton iterations.
    pub newton_iterations: usize,
    /// Time steps (transient) or frequency points (AC).
    pub steps: usize,
    /// Nonzeros in the last LU factorization (fill-in).
    pub factor_nnz: usize,
    /// Largest LU fill-in seen across the whole run (peak, not last —
    /// a nonlinear run's pivots, and so its fill, may move).
    pub peak_factor_nnz: usize,
    /// Modelled peak memory in bytes: the peak LU factor, the MNA
    /// plan (pattern, values, base values and stamp slots), solution
    /// storage and, for a transient, the stored waves.
    pub modelled_memory_bytes: usize,
    /// Wall-clock seconds.
    pub elapsed_seconds: f64,
}

impl SimStats {
    /// Records one factor-or-refactor event.
    fn record_factor(&mut self, nnz: usize, refactored: bool) {
        if refactored {
            self.refactorizations += 1;
        } else {
            self.factorizations += 1;
        }
        self.factor_nnz = nnz;
        self.peak_factor_nnz = self.peak_factor_nnz.max(nnz);
    }
}

/// Reusable solver state threaded through every Newton stage of a run.
/// The MNA structure is fixed for the whole run — MOSFET stamps cover
/// `{d,s}×{d,s,g}` in every operating region, and capacitor companion
/// patterns are always stamped, with zero conductance at DC — so one
/// [`MnaPlan`], built at the run's first stage, assembles every matrix,
/// and one [`LuCache`] holds the symbolic analysis. Nonlinear circuits
/// refactor one kept factor in place; linear circuits keep a small store
/// of numeric factorizations so repeating step sizes skip even the
/// numeric pass.
#[derive(Clone, Debug, Default)]
struct SolveCtx {
    cache: LuCache,
    plan: Option<MnaPlan>,
    /// The factor every nonlinear Newton iteration refactors into.
    lu: Option<SparseLu<f64>>,
    /// Numeric factorizations of linear-circuit matrices, keyed by the
    /// exact bits of `(gmin, cap_geq)` — the only values the matrix
    /// depends on when no nonlinear devices (MOSFETs, diodes) are
    /// present; inductor companion resistances are `cap_geq · L`.
    /// Most-recently-used first.
    numeric: Vec<((u64, u64), SparseLu<f64>)>,
}

impl SolveCtx {
    /// Bytes held by the plan, once built.
    fn plan_bytes(&self) -> usize {
        self.plan.as_ref().map_or(0, MnaPlan::memory_bytes)
    }
}

/// The analysis a Newton stage belongs to: its error context, formatted
/// only on failure.
#[derive(Clone, Copy, Debug)]
enum Stage {
    Dc,
    Transient(f64),
}

impl Stage {
    fn context(self) -> String {
        match self {
            Stage::Dc => "dc".to_owned(),
            Stage::Transient(t) => format!("transient t={t:.3e}"),
        }
    }
}

/// Bound on distinct `(gmin, step-size)` numeric factorizations kept by
/// the linear fast path (gmin stepping needs 5; a transient's BE and
/// trapezoidal steps and its shortened breakpoint steps add a few).
const NUMERIC_CACHE_CAP: usize = 16;

impl Circuit {
    /// Compiles a parsed netlist into a simulatable circuit.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownModel`] for MOSFETs without a model card.
    pub fn from_netlist(nl: &Netlist) -> Result<Self, CircuitError> {
        // Hierarchical decks are flattened transparently.
        if !nl.instances.is_empty() {
            let flat = nl.clone().flatten().map_err(|e| CircuitError::Singular {
                context: format!("flatten: {e}"),
            })?;
            return Self::from_netlist(&flat);
        }
        // MNA node order is the order of first appearance in the deck.
        let mut table = NodeTable::default();
        let mut lookup = |name| table.intern(name);
        let mut ckt = Circuit {
            nodes: Vec::new(),
            resistors: Vec::new(),
            capacitors: Vec::new(),
            inductors: Vec::new(),
            vsources: Vec::new(),
            isources: Vec::new(),
            vcvs: Vec::new(),
            vccs: Vec::new(),
            cccs: Vec::new(),
            ccvs: Vec::new(),
            diodes: Vec::new(),
            mosfets: Vec::new(),
        };
        // Pre-scan voltage-source names so F/H elements can reference a
        // controlling source defined later in the deck. Indexes match
        // `ckt.vsources` because both walk elements in deck order.
        let vnames: Vec<&str> = nl
            .elements
            .iter()
            .filter(|e| matches!(e.kind, ElementKind::VSource { .. }))
            .map(|e| e.name.as_str())
            .collect();
        let find_ctrl = |element: &str, ctrl: &str| -> Result<usize, CircuitError> {
            vnames
                .iter()
                .position(|v| v.eq_ignore_ascii_case(ctrl))
                .ok_or_else(|| CircuitError::UnknownControl {
                    element: element.to_owned(),
                    ctrl: ctrl.to_owned(),
                })
        };
        for e in &nl.elements {
            match &e.kind {
                ElementKind::Resistor { a, b, ohms } => {
                    let a = lookup(a);
                    let b = lookup(b);
                    ckt.resistors.push(Branch2 { a, b, value: *ohms });
                }
                ElementKind::Capacitor { a, b, farads } => {
                    let a = lookup(a);
                    let b = lookup(b);
                    ckt.capacitors.push(Branch2 {
                        a,
                        b,
                        value: *farads,
                    });
                }
                ElementKind::VSource { p, n, wave } => {
                    let p = lookup(p);
                    let n = lookup(n);
                    ckt.vsources.push(Source {
                        p,
                        n,
                        wave: (**wave).clone(),
                        name: e.name.clone(),
                    });
                }
                ElementKind::ISource { p, n, wave } => {
                    let p = lookup(p);
                    let n = lookup(n);
                    ckt.isources.push(Source {
                        p,
                        n,
                        wave: (**wave).clone(),
                        name: e.name.clone(),
                    });
                }
                ElementKind::Inductor { a, b, henries } => {
                    let a = lookup(a);
                    let b = lookup(b);
                    ckt.inductors.push(Branch2 {
                        a,
                        b,
                        value: *henries,
                    });
                }
                ElementKind::Vcvs {
                    p,
                    n,
                    control,
                    gain,
                } => {
                    let ctl = VoltCtl {
                        p: lookup(p),
                        n: lookup(n),
                        cp: lookup(&control[0]),
                        cn: lookup(&control[1]),
                        gain: *gain,
                    };
                    ckt.vcvs.push(ctl);
                }
                ElementKind::Vccs { p, n, control, gm } => {
                    let ctl = VoltCtl {
                        p: lookup(p),
                        n: lookup(n),
                        cp: lookup(&control[0]),
                        cn: lookup(&control[1]),
                        gain: *gm,
                    };
                    ckt.vccs.push(ctl);
                }
                ElementKind::Cccs { p, n, ctrl, gain } => {
                    let ctl = CurrCtl {
                        p: lookup(p),
                        n: lookup(n),
                        ctrl: find_ctrl(&e.name, ctrl)?,
                        gain: *gain,
                    };
                    ckt.cccs.push(ctl);
                }
                ElementKind::Ccvs { p, n, ctrl, ohms } => {
                    let ctl = CurrCtl {
                        p: lookup(p),
                        n: lookup(n),
                        ctrl: find_ctrl(&e.name, ctrl)?,
                        gain: *ohms,
                    };
                    ckt.ccvs.push(ctl);
                }
                ElementKind::Diode { p, n, model, area } => {
                    let dm = nl.diode_models.get(&**model).ok_or_else(|| {
                        CircuitError::UnknownModel {
                            element: e.name.clone(),
                            model: model.to_string(),
                        }
                    })?;
                    let p = lookup(p);
                    let n = lookup(n);
                    let d = Diode::from_model(dm, p, n, *area);
                    // The zero-bias junction capacitance becomes a plain
                    // capacitor, like MOSFET parasitics.
                    if d.cj > 0.0 && p != n {
                        ckt.capacitors.push(Branch2 {
                            a: p,
                            b: n,
                            value: d.cj,
                        });
                    }
                    ckt.diodes.push(d);
                }
                ElementKind::Mosfet(m) => {
                    let mm = nl
                        .models
                        .get(&m.model)
                        .ok_or_else(|| CircuitError::UnknownModel {
                            element: e.name.clone(),
                            model: m.model.clone(),
                        })?;
                    let d = lookup(&m.d);
                    let g = lookup(&m.g);
                    let s = lookup(&m.s);
                    let b = lookup(&m.b);
                    let mos = Mosfet::from_model(mm, d, g, s, b, m.w, m.l);
                    // Parasitic capacitances become plain capacitors.
                    for (x, y, c) in [
                        (mos.g, mos.s, mos.cgs),
                        (mos.g, mos.d, mos.cgd),
                        (mos.d, mos.b, mos.cdb),
                        (mos.s, mos.b, mos.csb),
                    ] {
                        if c > 0.0 && x != y {
                            ckt.capacitors.push(Branch2 {
                                a: x,
                                b: y,
                                value: c,
                            });
                        }
                    }
                    ckt.mosfets.push(mos);
                }
            }
        }
        ckt.nodes = table.names().iter().map(|&n| n.to_owned()).collect();
        Ok(ckt)
    }

    /// Non-ground node names in MNA order.
    pub fn node_names(&self) -> &[String] {
        &self.nodes
    }

    /// Index of a node by name.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n == name)
    }

    /// Number of MNA unknowns: node voltages plus one branch current
    /// per voltage source, inductor, VCVS and CCVS (in that order).
    pub fn dim(&self) -> usize {
        self.nodes.len()
            + self.vsources.len()
            + self.inductors.len()
            + self.vcvs.len()
            + self.ccvs.len()
    }

    /// MNA row/column of inductor `k`'s branch current.
    fn row_ind(&self, k: usize) -> usize {
        self.nodes.len() + self.vsources.len() + k
    }

    /// MNA row/column of VCVS `k`'s branch current.
    fn row_vcvs(&self, k: usize) -> usize {
        self.nodes.len() + self.vsources.len() + self.inductors.len() + k
    }

    /// MNA row/column of CCVS `k`'s branch current.
    fn row_ccvs(&self, k: usize) -> usize {
        self.nodes.len() + self.vsources.len() + self.inductors.len() + self.vcvs.len() + k
    }

    /// Counts: `(nodes, resistors, capacitors incl. parasitics, mosfets)`.
    pub fn device_counts(&self) -> (usize, usize, usize, usize) {
        (
            self.nodes.len(),
            self.resistors.len(),
            self.capacitors.len(),
            self.mosfets.len(),
        )
    }

    /// Stamps the time-invariant linear parts (resistors + gmin).
    fn stamp_linear_g(&self, sink: &mut impl StampSink, gmin: f64) {
        for r in &self.resistors {
            stamp_conductance(sink, r.a, r.b, 1.0 / r.value);
        }
        for i in 0..self.nodes.len() {
            sink.add(i, i, gmin);
        }
    }

    /// Stamps voltage-source constraint rows/columns (pattern + unit
    /// values; the source values live on the RHS only).
    fn stamp_vsource_pattern(&self, sink: &mut impl StampSink) {
        let nn = self.nodes.len();
        for (k, src) in self.vsources.iter().enumerate() {
            let row = nn + k;
            if let Some(p) = src.p {
                sink.add(row, p, 1.0);
                sink.add(p, row, 1.0);
            }
            if let Some(n) = src.n {
                sink.add(row, n, -1.0);
                sink.add(n, row, -1.0);
            }
        }
    }

    /// Stamps the branch-row elements: inductors (companion resistance
    /// `req = cap_geq · L`, an exact short at DC where `cap_geq = 0`),
    /// and the four linear controlled-source families. Like
    /// [`Circuit::stamp_cap_pattern`], this is always called with the
    /// same pattern so one symbolic analysis serves the whole run.
    fn stamp_branch_elements(&self, sink: &mut impl StampSink, cap_geq: f64) {
        let nn = self.nodes.len();
        for (k, l) in self.inductors.iter().enumerate() {
            let row = self.row_ind(k);
            if let Some(a) = l.a {
                sink.add(a, row, 1.0);
                sink.add(row, a, 1.0);
            }
            if let Some(b) = l.b {
                sink.add(b, row, -1.0);
                sink.add(row, b, -1.0);
            }
            sink.add(row, row, -(cap_geq * l.value));
        }
        for (k, e) in self.vcvs.iter().enumerate() {
            let row = self.row_vcvs(k);
            if let Some(p) = e.p {
                sink.add(p, row, 1.0);
                sink.add(row, p, 1.0);
            }
            if let Some(n) = e.n {
                sink.add(n, row, -1.0);
                sink.add(row, n, -1.0);
            }
            if let Some(cp) = e.cp {
                sink.add(row, cp, -e.gain);
            }
            if let Some(cn) = e.cn {
                sink.add(row, cn, e.gain);
            }
        }
        for g in &self.vccs {
            for (out, sgn) in [(g.p, 1.0), (g.n, -1.0)] {
                if let Some(r) = out {
                    if let Some(cp) = g.cp {
                        sink.add(r, cp, sgn * g.gain);
                    }
                    if let Some(cn) = g.cn {
                        sink.add(r, cn, -sgn * g.gain);
                    }
                }
            }
        }
        for fsrc in &self.cccs {
            let cv = nn + fsrc.ctrl;
            if let Some(p) = fsrc.p {
                sink.add(p, cv, fsrc.gain);
            }
            if let Some(n) = fsrc.n {
                sink.add(n, cv, -fsrc.gain);
            }
        }
        for (k, h) in self.ccvs.iter().enumerate() {
            let row = self.row_ccvs(k);
            let cv = nn + h.ctrl;
            if let Some(p) = h.p {
                sink.add(p, row, 1.0);
                sink.add(row, p, 1.0);
            }
            if let Some(n) = h.n {
                sink.add(n, row, -1.0);
                sink.add(row, n, -1.0);
            }
            sink.add(row, cv, -h.gain);
        }
    }

    /// Stamps capacitor companion conductances `geq = cap_geq · C`.
    ///
    /// Always called — with `cap_geq = 0.0` at DC — so the MNA sparsity
    /// structure is identical across DC, backward-Euler and trapezoidal
    /// stages and one symbolic analysis serves the whole run. Explicit
    /// zeros change neither pivots nor solutions (bitwise).
    fn stamp_cap_pattern(&self, sink: &mut impl StampSink, cap_geq: f64) {
        for c in &self.capacitors {
            stamp_conductance(sink, c.a, c.b, cap_geq * c.value);
        }
    }

    /// Stamps current sources at time `t`.
    fn stamp_isources(&self, rhs: &mut [f64], t: f64) {
        for src in &self.isources {
            let i = src.wave.eval(t);
            if let Some(p) = src.p {
                rhs[p] -= i;
            }
            if let Some(n) = src.n {
                rhs[n] += i;
            }
        }
    }

    /// Assembles the matrix-independent RHS: V-source values, current
    /// sources at `t`, capacitor companion currents, and inductor
    /// companion branch voltages (`None` at DC, where an inductor's
    /// branch row reads `v_a − v_b = 0`).
    fn assemble_rhs(
        &self,
        rhs: &mut [f64],
        vvals: &[f64],
        t: f64,
        cap_ieq: Option<&[f64]>,
        ind_veq: Option<&[f64]>,
    ) {
        let nn = self.nodes.len();
        for (k, _) in self.vsources.iter().enumerate() {
            rhs[nn + k] = vvals[k];
        }
        self.stamp_isources(rhs, t);
        if let Some(ieq) = cap_ieq {
            for (ci, c) in self.capacitors.iter().enumerate() {
                match (c.a, c.b) {
                    (Some(i), Some(j)) if i != j => {
                        rhs[i] += ieq[ci];
                        rhs[j] -= ieq[ci];
                    }
                    (Some(i), None) => rhs[i] += ieq[ci],
                    (None, Some(j)) => rhs[j] -= ieq[ci],
                    _ => {}
                }
            }
        }
        if let Some(veq) = ind_veq {
            for k in 0..self.inductors.len() {
                rhs[self.row_ind(k)] = veq[k];
            }
        }
    }

    /// Stamps the linear MNA matrix at `(gmin, cap_geq)`: resistors and
    /// gmin, V-source rows, capacitor and inductor companions, and the
    /// controlled sources. The emission order, like the structure, does
    /// not depend on the values.
    fn stamp_linear(&self, sink: &mut impl StampSink, gmin: f64, cap_geq: f64) {
        self.stamp_linear_g(sink, gmin);
        self.stamp_vsource_pattern(sink);
        self.stamp_cap_pattern(sink, cap_geq);
        self.stamp_branch_elements(sink, cap_geq);
    }

    /// Stamps every MOSFET's and diode's Newton companion at the node
    /// voltages `v`, adding their currents to `rhs`.
    fn stamp_devices(&self, sink: &mut impl StampSink, v: &[f64], rhs: &mut [f64]) {
        for m in &self.mosfets {
            stamp_level1(m, v, sink, rhs);
        }
        for d in &self.diodes {
            stamp_diode(d, v, sink, rhs);
        }
    }

    /// Solves one Newton stage at fixed linear stamps: `x` holds the
    /// initial guess on entry and the solution on return.
    ///
    /// The run's [`MnaPlan`] (built at its first stage) keeps the linear
    /// values of the current `(gmin, cap_geq)` as a base; an iteration
    /// copies the base, adds the device companions through their slots,
    /// refactors the kept factor in place and solves into the plan's
    /// buffer.
    ///
    /// Linear circuits (no MOSFETs, no diodes) take a fast path: the
    /// matrix depends only on `(gmin, cap_geq)` — inductor companion
    /// resistances are `cap_geq · L` — so a numeric factorization is
    /// cached per distinct pair and a repeat step size costs one RHS
    /// assembly plus one triangular solve — no factorization at all.
    #[allow(clippy::too_many_arguments)]
    fn newton(
        &self,
        x: &mut [f64],
        gmin: f64,
        vvals: &[f64],
        t: f64,
        cap_geq: f64,
        cap_ieq: Option<&[f64]>,
        ind_veq: Option<&[f64]>,
        stage: Stage,
        slv: &mut SolveCtx,
        stats: &mut SimStats,
    ) -> Result<(), CircuitError> {
        let nn = self.nodes.len();
        let SolveCtx {
            cache,
            plan,
            lu,
            numeric,
        } = slv;
        let plan = plan.get_or_insert_with(|| MnaPlan::new(self));
        plan.rhs_base.fill(0.0);
        self.assemble_rhs(&mut plan.rhs_base, vvals, t, cap_ieq, ind_veq);
        let singular = |_| CircuitError::Singular {
            context: stage.context(),
        };
        if self.mosfets.is_empty() && self.diodes.is_empty() {
            let key = (gmin.to_bits(), cap_geq.to_bits());
            if let Some(pos) = numeric.iter().position(|(k, _)| *k == key) {
                // Move-to-front LRU; no factorization work at all.
                let entry = numeric.remove(pos);
                numeric.insert(0, entry);
            } else {
                plan.set_linear(self, gmin, cap_geq);
                plan.assemble(self, &x[..nn]);
                // A full store evicts its least recently used factor;
                // its storage takes the new one.
                let mut slot = if numeric.len() == NUMERIC_CACHE_CAP {
                    numeric.pop().map(|(_, f)| f)
                } else {
                    None
                };
                let refactored = cache.factor_into(&plan.mat, &mut slot).map_err(singular)?;
                let f = slot.expect("factor_into fills the slot");
                stats.record_factor(f.factor_nnz(), refactored);
                numeric.insert(0, (key, f));
            }
            stats.newton_iterations += 1;
            numeric[0].1.solve_into(&plan.rhs_base, x);
            return Ok(());
        }
        plan.set_linear(self, gmin, cap_geq);
        for iter in 0..MAX_NEWTON {
            plan.assemble(self, &x[..nn]);
            let refactored = cache.factor_into(&plan.mat, lu).map_err(singular)?;
            let f = lu.as_ref().expect("factor_into fills the slot");
            stats.record_factor(f.factor_nnz(), refactored);
            f.solve_into(&plan.rhs, &mut plan.sol);
            stats.newton_iterations += 1;
            // Damped update + convergence test on node voltages.
            let mut converged = true;
            for (i, (xi, &si)) in x.iter_mut().zip(&plan.sol).enumerate() {
                let mut dv = si - *xi;
                if i < nn {
                    dv = dv.clamp(-STEP_LIMIT, STEP_LIMIT);
                    if dv.abs() > VNTOL + RELTOL * (*xi + dv).abs() {
                        converged = false;
                    }
                }
                *xi += dv;
            }
            if converged && iter > 0 {
                return Ok(());
            }
        }
        Err(CircuitError::NoConvergence {
            context: stage.context(),
        })
    }

    /// Computes the DC operating point with gmin stepping.
    ///
    /// # Errors
    ///
    /// [`CircuitError`] on Newton failure or singular matrices.
    pub fn dc_operating_point(&self) -> Result<DcSolution, CircuitError> {
        let mut slv = SolveCtx::default();
        self.dc_with(&mut slv)
    }

    /// DC operating point reusing the caller's solver state — transient
    /// runs pass their own [`SolveCtx`] so the plan and the single
    /// symbolic analysis captured during gmin stepping serve every later
    /// timestep.
    fn dc_with(&self, slv: &mut SolveCtx) -> Result<DcSolution, CircuitError> {
        let start = Instant::now();
        let mut stats = SimStats::default();
        let vvals: Vec<f64> = self.vsources.iter().map(|s| s.wave.dc_value()).collect();
        let mut x = vec![0.0; self.dim()];
        for gmin in [1e-3, 1e-5, 1e-7, 1e-9, GMIN] {
            self.newton(
                &mut x,
                gmin,
                &vvals,
                0.0,
                0.0,
                None,
                None,
                Stage::Dc,
                slv,
                &mut stats,
            )?;
        }
        stats.elapsed_seconds = start.elapsed().as_secs_f64();
        stats.modelled_memory_bytes =
            stats.peak_factor_nnz * 16 + slv.plan_bytes() + self.dim() * 8 * 4;
        Ok(DcSolution {
            x,
            nodes: self.nodes.clone(),
            stats,
        })
    }

    /// Runs a transient analysis with fixed step `tstep` (snapped to
    /// source breakpoints) from 0 to `tstop`, trapezoidal integration
    /// with backward-Euler starts.
    ///
    /// # Errors
    ///
    /// [`CircuitError`] on Newton failure or singular matrices.
    pub fn transient(&self, tstep: f64, tstop: f64) -> Result<TranResult, CircuitError> {
        let start = Instant::now();
        // One SolveCtx for the whole run: the plan and the symbolic
        // analysis captured by the DC gmin ramp serve every timestep, and
        // (for linear circuits) each distinct step size factors
        // numerically at most once.
        let mut slv = SolveCtx::default();
        let dc = self.dc_with(&mut slv)?;
        let mut stats = dc.stats;
        let nn = self.nodes.len();
        let mut x = dc.x;
        // The solution of each step, and the companion sources it is
        // solved at.
        let mut xn = vec![0.0; x.len()];
        let mut ieqs = vec![0.0; self.capacitors.len()];
        let mut ind_veqs = vec![0.0; self.inductors.len()];
        let mut vvals = vec![0.0; self.vsources.len()];

        // Collect and sort breakpoints from all sources.
        let mut breakpoints: Vec<f64> = Vec::new();
        for s in self.vsources.iter().chain(&self.isources) {
            breakpoints.extend(s.wave.breakpoints(tstop));
        }
        breakpoints.retain(|&t| t > 0.0);
        breakpoints.sort_by(|a, b| a.partial_cmp(b).unwrap());
        breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-18);

        let mut times = vec![0.0];
        let mut waves: Vec<Vec<f64>> = vec![x[..nn].to_vec()];
        // Per-capacitor branch current (trapezoidal memory).
        let mut icap = vec![0.0; self.capacitors.len()];
        // Per-inductor memory: branch current (an MNA unknown, read from
        // the committed solution) and branch voltage (trapezoidal).
        let mut il_prev: Vec<f64> = (0..self.inductors.len())
            .map(|k| x[self.row_ind(k)])
            .collect();
        let mut vl_prev: Vec<f64> = self.inductors.iter().map(|l| vab2(l, &x)).collect();
        let mut t = 0.0;
        let mut bp_idx = 0;
        // A step leaving t=0 or a breakpoint uses backward Euler
        // (trapezoidal needs a consistent capacitor current history).
        let mut use_be = true;
        while t < tstop - 1e-18 {
            let mut h = tstep;
            let mut hit_bp = false;
            if bp_idx < breakpoints.len() && t + h >= breakpoints[bp_idx] - 1e-18 {
                let bph = breakpoints[bp_idx] - t;
                if bph > 1e-18 {
                    h = bph;
                }
                hit_bp = true;
            }
            if t + h > tstop {
                h = tstop - t;
            }
            let tn = t + h;
            // Companion current per capacitor.
            let geq_per_c = if use_be { 1.0 / h } else { 2.0 / h };
            for (ci, c) in self.capacitors.iter().enumerate() {
                let i = geq_per_c * c.value * vab2(c, &x);
                ieqs[ci] = if use_be { i } else { i + icap[ci] };
            }
            // Inductor companion branch voltages: the branch row reads
            // `v_a − v_b − req·i = veq` with `req = geq·L`; BE:
            // `veq = −req·i_prev`, trapezoidal adds `−v_prev`.
            for (k, l) in self.inductors.iter().enumerate() {
                let req = geq_per_c * l.value;
                ind_veqs[k] = if use_be {
                    -req * il_prev[k]
                } else {
                    -req * il_prev[k] - vl_prev[k]
                };
            }
            for (v, s) in vvals.iter_mut().zip(&self.vsources) {
                *v = s.wave.eval(tn);
            }
            xn.copy_from_slice(&x);
            self.newton(
                &mut xn,
                GMIN,
                &vvals,
                tn,
                geq_per_c,
                Some(&ieqs),
                Some(&ind_veqs),
                Stage::Transient(tn),
                &mut slv,
                &mut stats,
            )?;
            // Commit the step.
            for (ci, c) in self.capacitors.iter().enumerate() {
                let dv = vab2(c, &xn) - vab2(c, &x);
                let g = if use_be { 1.0 } else { 2.0 } / h * c.value;
                icap[ci] = if use_be { g * dv } else { g * dv - icap[ci] };
            }
            for (k, l) in self.inductors.iter().enumerate() {
                il_prev[k] = xn[self.row_ind(k)];
                vl_prev[k] = vab2(l, &xn);
            }
            std::mem::swap(&mut x, &mut xn);
            t = tn;
            times.push(t);
            waves.push(x[..nn].to_vec());
            stats.steps += 1;
            if hit_bp {
                while bp_idx < breakpoints.len() && breakpoints[bp_idx] <= t + 1e-18 {
                    bp_idx += 1;
                }
                use_be = true;
            } else {
                use_be = false;
            }
        }
        stats.elapsed_seconds = start.elapsed().as_secs_f64();
        stats.modelled_memory_bytes = stats.peak_factor_nnz * 16
            + slv.plan_bytes()
            + self.dim() * 8 * 4
            + waves.len() * nn * 8;
        Ok(TranResult {
            times,
            waves,
            nodes: self.nodes.clone(),
            stats,
        })
    }

    /// Small-signal AC sweep: linearizes MOSFETs at the DC operating
    /// point and solves the complex MNA system at each frequency with a
    /// unit excitation. Equivalent to [`Circuit::ac_sweep_with`] at the
    /// default options (all available cores).
    ///
    /// # Errors
    ///
    /// [`CircuitError`] on DC failure, unknown excitation targets, or
    /// singular complex matrices.
    pub fn ac_sweep(
        &self,
        freqs: &[f64],
        excitation: &AcExcitation,
    ) -> Result<AcResult, CircuitError> {
        self.ac_sweep_with(freqs, excitation, &AcOptions::default())
    }

    /// AC sweep with an explicit thread count.
    ///
    /// The `G + jωC` pencil is assembled once as a fixed union
    /// structure; the sparse LU is analyzed symbolically at the first
    /// frequency and every point pays only a numeric refactorization (a
    /// fresh factorization where a cached pivot is rejected). The grid
    /// is fanned across worker threads
    /// with results in grid order — voltages and all [`SimStats`]
    /// counters are bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// [`CircuitError`] on DC failure, unknown excitation targets, or
    /// singular complex matrices.
    pub fn ac_sweep_with(
        &self,
        freqs: &[f64],
        excitation: &AcExcitation,
        opt: &AcOptions,
    ) -> Result<AcResult, CircuitError> {
        let start = Instant::now();
        let dc = self.dc_operating_point()?;
        let mut stats = dc.stats;
        let nn = self.nodes.len();
        let dim = self.dim();

        // Real conductance stamps: resistors + gmin + linearized MOSFETs
        // and diodes + V-source constraint rows (AC value 0 unless
        // excited) + controlled sources and inductor branch rows.
        let mut gtrips: Vec<(usize, usize, f64)> = Vec::new();
        let mut dummy_rhs = vec![0.0; dim];
        self.stamp_linear_g(&mut gtrips, GMIN);
        for m in &self.mosfets {
            stamp_level1(m, &dc.x[..nn], &mut gtrips, &mut dummy_rhs);
        }
        for d in &self.diodes {
            stamp_diode(d, &dc.x[..nn], &mut gtrips, &mut dummy_rhs);
        }
        self.stamp_vsource_pattern(&mut gtrips);
        // `cap_geq = 0`: inductor branch rows carry their incidence and
        // constraint entries; the `−jωL` part goes on the C side below.
        self.stamp_branch_elements(&mut gtrips, 0.0);
        // Capacitor susceptance pattern, plus `−L` on each inductor
        // branch diagonal so the pencil row reads `v_a − v_b − jωL·i`.
        let mut ctrips: Vec<(usize, usize, f64)> = Vec::new();
        for c in &self.capacitors {
            stamp_conductance(&mut ctrips, c.a, c.b, c.value);
        }
        for (k, l) in self.inductors.iter().enumerate() {
            let row = self.row_ind(k);
            ctrips.push((row, row, -l.value));
        }
        let pencil = CscPencil::from_triplets(dim, &gtrips, &ctrips);

        let mut rhs_template = vec![Complex64::ZERO; dim];
        match excitation {
            AcExcitation::CurrentInto(node) => {
                let idx = self
                    .node_index(node)
                    .ok_or_else(|| CircuitError::Singular {
                        context: format!("ac: unknown node {node}"),
                    })?;
                rhs_template[idx] = Complex64::ONE;
            }
            AcExcitation::VSource(name) => {
                let k = self
                    .vsources
                    .iter()
                    .position(|s| s.name.eq_ignore_ascii_case(name))
                    .ok_or_else(|| CircuitError::Singular {
                        context: format!("ac: unknown source {name}"),
                    })?;
                rhs_template[nn + k] = Complex64::ONE;
            }
        }

        if freqs.is_empty() {
            stats.elapsed_seconds = start.elapsed().as_secs_f64();
            stats.modelled_memory_bytes = stats.peak_factor_nnz * 16 + dim * 16 * 4;
            return Ok(AcResult {
                freqs: Vec::new(),
                voltages: Vec::new(),
                nodes: self.nodes.clone(),
                stats,
            });
        }

        // One symbolic analysis serves the whole grid.
        let w0 = 2.0 * std::f64::consts::PI * freqs[0];
        let (_, symbolic) =
            SparseLu::factor_analyzed(&pencil.eval(w0)).map_err(|_| CircuitError::Singular {
                context: format!("ac f={:e}", freqs[0]),
            })?;
        stats.factorizations += 1;

        let ctx = ParCtx::new(opt.threads);
        let results = ctx.map_items(
            freqs.len(),
            || {
                (
                    pencil.eval(0.0),
                    symbolic.prepared::<Complex64>(),
                    vec![Complex64::ZERO; dim],
                )
            },
            |(mat, prep, x), k| {
                let w = 2.0 * std::f64::consts::PI * freqs[k];
                pencil.eval_into(w, mat);
                let refactored = symbolic.refactor_into(mat, prep).is_ok();
                let (fresh, nnz);
                let lu: &SparseLu<Complex64> = if refactored {
                    nnz = prep.factor_nnz();
                    prep
                } else {
                    fresh = SparseLu::factor(mat).map_err(|_| CircuitError::Singular {
                        context: format!("ac f={:e}", freqs[k]),
                    })?;
                    nnz = fresh.factor_nnz();
                    &fresh
                };
                lu.solve_into(&rhs_template, x);
                Ok::<_, CircuitError>((x[..nn].to_vec(), refactored, nnz))
            },
        );
        let mut voltages = Vec::with_capacity(freqs.len());
        for r in results {
            let (v, refactored, nnz) = r?;
            stats.record_factor(nnz, refactored);
            voltages.push(v);
            stats.steps += 1;
        }
        stats.elapsed_seconds = start.elapsed().as_secs_f64();
        stats.modelled_memory_bytes =
            stats.peak_factor_nnz * 32 + dim * 16 * 4 + voltages.len() * nn * 16;
        Ok(AcResult {
            freqs: freqs.to_vec(),
            voltages,
            nodes: self.nodes.clone(),
            stats,
        })
    }
}

/// Options for [`Circuit::ac_sweep_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AcOptions {
    /// Worker threads for the frequency fan-out (`None` = all cores).
    /// Results are bit-identical at every thread count.
    pub threads: Option<usize>,
}

/// AC excitation selector.
#[derive(Clone, Debug)]
pub enum AcExcitation {
    /// Inject a unit AC current into the named node (for transimpedance).
    CurrentInto(String),
    /// Drive the named voltage source with unit AC magnitude.
    VSource(String),
}

/// DC operating-point solution.
#[derive(Clone, Debug)]
pub struct DcSolution {
    /// Full MNA solution (node voltages then source currents).
    pub x: Vec<f64>,
    nodes: Vec<String>,
    /// Work statistics.
    pub stats: SimStats,
}

impl DcSolution {
    /// Voltage of a named node (0 for ground), `None` if unknown.
    pub fn voltage(&self, name: &str) -> Option<f64> {
        if is_ground(name) {
            return Some(0.0);
        }
        self.nodes.iter().position(|n| n == name).map(|i| self.x[i])
    }
}

/// Transient waveform set.
#[derive(Clone, Debug)]
pub struct TranResult {
    /// Time points.
    pub times: Vec<f64>,
    /// Node-voltage vectors per time point.
    pub waves: Vec<Vec<f64>>,
    nodes: Vec<String>,
    /// Work statistics.
    pub stats: SimStats,
}

impl TranResult {
    /// The waveform of one node across all time points.
    pub fn voltage(&self, name: &str) -> Option<Vec<f64>> {
        if is_ground(name) {
            return Some(vec![0.0; self.times.len()]);
        }
        let i = self.nodes.iter().position(|n| n == name)?;
        Some(self.waves.iter().map(|w| w[i]).collect())
    }

    /// Linear interpolation of a node voltage at an arbitrary time.
    pub fn voltage_at(&self, name: &str, t: f64) -> Option<f64> {
        let v = self.voltage(name)?;
        if t <= self.times[0] {
            return Some(v[0]);
        }
        for k in 1..self.times.len() {
            if t <= self.times[k] {
                let (t0, t1) = (self.times[k - 1], self.times[k]);
                let frac = if t1 > t0 { (t - t0) / (t1 - t0) } else { 1.0 };
                return Some(v[k - 1] + (v[k] - v[k - 1]) * frac);
            }
        }
        v.last().copied()
    }
}

/// AC sweep result: complex node voltages per frequency.
#[derive(Clone, Debug)]
pub struct AcResult {
    /// Swept frequencies in Hz.
    pub freqs: Vec<f64>,
    /// Complex node voltages per frequency.
    pub voltages: Vec<Vec<Complex64>>,
    nodes: Vec<String>,
    /// Work statistics.
    pub stats: SimStats,
}

impl AcResult {
    /// Complex voltage of a node across the sweep.
    pub fn voltage(&self, name: &str) -> Option<Vec<Complex64>> {
        if is_ground(name) {
            return Some(vec![Complex64::ZERO; self.freqs.len()]);
        }
        let i = self.nodes.iter().position(|n| n == name)?;
        Some(self.voltages.iter().map(|w| w[i]).collect())
    }
}

/// Logarithmically spaced frequency points, `points_per_decade` per
/// decade from `fstart` to `fstop` inclusive (the `.AC DEC` grid; the
/// paper's Figure 5 sweep uses 81 points over 3 decades).
///
/// # Panics
///
/// Panics on a non-positive or empty range.
pub fn log_frequencies(points_per_decade: usize, fstart: f64, fstop: f64) -> Vec<f64> {
    assert!(fstart > 0.0 && fstop > fstart && points_per_decade > 0);
    let decades = (fstop / fstart).log10();
    let total = (decades * points_per_decade as f64).round() as usize;
    (0..=total)
        .map(|k| fstart * 10f64.powf(k as f64 / points_per_decade as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_netlist::parse;

    #[test]
    fn resistive_divider_dc() {
        let deck = "* div\nV1 in 0 10\nR1 in mid 1k\nR2 mid 0 1k\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        assert!((dc.voltage("mid").unwrap() - 5.0).abs() < 1e-6);
        assert!((dc.voltage("in").unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rc_step_response_time_constant() {
        let deck = "* rc\nV1 in 0 pwl(0 0 1p 1)\nR1 in out 1k\nC1 out 0 1p\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(5e-12, 5e-9).unwrap();
        // v(τ) = 1 − e⁻¹ ≈ 0.632 at t = 1 ns (+1 ps ramp offset).
        let v_tau = tr.voltage_at("out", 1.001e-9).unwrap();
        assert!(
            (v_tau - 0.632).abs() < 0.01,
            "v(tau) = {v_tau}, expected ~0.632"
        );
        let v_end = *tr.voltage("out").unwrap().last().unwrap();
        assert!(v_end > 0.99);
    }

    #[test]
    fn inverter_dc_transfer() {
        let deck = "\
* inv
.model nch nmos (vto=0.7 kp=110u lambda=0.04)
.model pch pmos (vto=-0.9 kp=40u lambda=0.05)
Vdd vdd 0 5
Vin in 0 0
M1 out in 0 0 nch w=4u l=1u
M2 out in vdd vdd pch w=8u l=1u
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        // Input low → output high.
        assert!(
            dc.voltage("out").unwrap() > 4.9,
            "out = {}",
            dc.voltage("out").unwrap()
        );
    }

    #[test]
    fn inverter_switches_in_transient() {
        let deck = "\
* inv tran
.model nch nmos (vto=0.7 kp=110u lambda=0.04)
.model pch pmos (vto=-0.9 kp=40u lambda=0.05)
Vdd vdd 0 5
Vin in 0 pulse(0 5 1n 0.1n 0.1n 4n 10n)
M1 out in 0 0 nch w=4u l=1u
M2 out in vdd vdd pch w=8u l=1u
Cl out 0 20f
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(50e-12, 8e-9).unwrap();
        // Before the pulse: out high. During the pulse: out low.
        assert!(tr.voltage_at("out", 0.9e-9).unwrap() > 4.5);
        assert!(tr.voltage_at("out", 4.0e-9).unwrap() < 0.5);
        // After the pulse falls: recovers high.
        assert!(tr.voltage_at("out", 7.9e-9).unwrap() > 4.0);
    }

    #[test]
    fn ac_rc_lowpass_pole() {
        let deck = "* rc\nV1 in 0 dc 0\nR1 in out 1k\nC1 out 0 1p\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-12);
        let freqs = vec![f3db / 100.0, f3db, f3db * 100.0];
        let ac = ckt
            .ac_sweep(&freqs, &AcExcitation::VSource("V1".into()))
            .unwrap();
        let v = ac.voltage("out").unwrap();
        assert!((v[0].abs() - 1.0).abs() < 1e-3);
        assert!((v[1].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(v[2].abs() < 0.02);
    }

    #[test]
    fn ac_transimpedance_of_resistor() {
        // Unit current into node through 50Ω to ground: Z = 50.
        let deck = "* z\nR1 a 0 50\nI1 0 a dc 0\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let ac = ckt
            .ac_sweep(&[1e6], &AcExcitation::CurrentInto("a".into()))
            .unwrap();
        let v = ac.voltage("a").unwrap();
        assert!((v[0].re - 50.0).abs() < 1e-6);
        assert!(v[0].im.abs() < 1e-6);
    }

    #[test]
    fn unknown_model_is_error() {
        let deck = "* e\nM1 a b 0 0 nosuch\n.end\n";
        let r = Circuit::from_netlist(&parse(deck).unwrap());
        assert!(matches!(r, Err(CircuitError::UnknownModel { .. })));
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let deck = "* bp\nV1 a 0 pulse(0 1 1n 0 0 2n 10n)\nR1 a 0 1k\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(0.3e-9, 5e-9).unwrap();
        // There must be time points at the pulse edges (1n, 3n).
        assert!(tr.times.iter().any(|&t| (t - 1e-9).abs() < 1e-15));
        assert!(tr.times.iter().any(|&t| (t - 3e-9).abs() < 1e-15));
    }

    #[test]
    fn log_frequency_grid() {
        let f = log_frequencies(27, 1e7, 1e10);
        assert_eq!(f.len(), 82); // 3 decades * 27 + 1
        assert!((f[0] - 1e7).abs() < 1.0);
        assert!((f.last().unwrap() - 1e10).abs() / 1e10 < 1e-9);
    }

    #[test]
    fn stats_are_reported() {
        let deck = "* s\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1p\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(1e-10, 1e-9).unwrap();
        assert!(tr.stats.steps >= 10);
        assert!(tr.stats.factorizations > 0);
        assert!(tr.stats.modelled_memory_bytes > 0);
    }

    #[test]
    fn capacitor_coupling_injects_charge() {
        // A fast edge couples through a floating cap into a resistive
        // node — the mechanism of substrate noise injection.
        let deck = "\
* coupling
V1 a 0 pulse(0 5 1n 0.2n 0.2n 3n 10n)
C1 a sub 10f
Rsub sub 0 10k
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(20e-12, 3e-9).unwrap();
        let v = tr.voltage("sub").unwrap();
        let peak = v.iter().cloned().fold(0.0f64, f64::max);
        assert!(peak > 0.05, "expected coupling spike, peak = {peak}");
        // And it decays back toward zero.
        assert!(v.last().unwrap().abs() < 0.05);
    }

    #[test]
    fn linear_transient_factors_once_per_step_size() {
        // Linear deck: exactly one symbolic analysis (= one fresh
        // factorization) for the entire run; every other distinct
        // (gmin, step-size) pair costs at most one numeric
        // refactorization, and repeated step sizes cost none.
        let deck = "* s\nV1 in 0 pwl(0 0 1p 1)\nR1 in out 1k\nC1 out 0 1p\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(1e-10, 2e-9).unwrap();
        assert_eq!(
            tr.stats.factorizations, 1,
            "linear run must analyze symbolically exactly once"
        );
        // Distinct matrices: 4 extra gmin-ramp stages + a handful of
        // distinct step sizes (breakpoint-clipped starts, BE vs trap,
        // final clip) — far fewer than the number of steps.
        assert!(
            tr.stats.refactorizations <= 10,
            "refactorizations = {} (expected one per distinct step size)",
            tr.stats.refactorizations
        );
        assert!(tr.stats.steps > tr.stats.refactorizations + tr.stats.factorizations);
        assert!(tr.stats.peak_factor_nnz >= tr.stats.factor_nnz);
    }

    #[test]
    fn repeated_linear_transients_are_bit_identical() {
        // A 40-segment RC line under a pulsed current drive: the drive
        // keeps the MNA diagonally dominant, so the pivot order captured
        // at the first gmin stage serves the whole run.
        let mut deck = String::from("* line\nIin in 0 pulse(0 1m 0.1n 0.1n 0.1n 1n 4n)\n");
        for i in 0..40 {
            let a = if i == 0 {
                "in".to_owned()
            } else {
                format!("n{i}")
            };
            deck.push_str(&format!(
                "R{i} {a} n{} 6.25\nC{i} n{} 0 33.75f\n",
                i + 1,
                i + 1
            ));
        }
        deck.push_str(".end\n");
        let ckt = Circuit::from_netlist(&parse(&deck).unwrap()).unwrap();
        let first = ckt.transient(2e-11, 4e-9).unwrap();
        let again = ckt.transient(2e-11, 4e-9).unwrap();
        assert_eq!(first.times, again.times);
        for (a, b) in first.waves.iter().zip(&again.waves) {
            let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "repeated transient drifted");
        }
        assert_eq!(first.stats.factorizations, 1);
        assert!(first.stats.refactorizations <= 12);
    }

    #[test]
    fn ac_sweep_bit_identical_across_threads() {
        let deck = "\
* ladder
V1 in 0 dc 0
R1 in n1 100
C1 n1 0 1p
R2 n1 n2 100
C2 n2 0 2p
R3 n2 out 100
C3 out 0 1p
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let freqs = log_frequencies(9, 1e6, 1e9);
        let exc = AcExcitation::VSource("V1".into());
        let base = ckt
            .ac_sweep_with(&freqs, &exc, &AcOptions { threads: Some(1) })
            .unwrap();
        // DC gmin ramp: 1 fresh + 4 refactors; AC grid: 1 fresh symbolic
        // capture + one refactor per frequency point.
        assert_eq!(base.stats.factorizations, 2);
        assert_eq!(base.stats.refactorizations, 4 + freqs.len());
        for threads in [2usize, 4, 8] {
            let par = ckt
                .ac_sweep_with(
                    &freqs,
                    &exc,
                    &AcOptions {
                        threads: Some(threads),
                    },
                )
                .unwrap();
            assert_eq!(par.stats.factorizations, base.stats.factorizations);
            assert_eq!(par.stats.refactorizations, base.stats.refactorizations);
            for (a, b) in base.voltages.iter().zip(&par.voltages) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "threads={threads}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn rl_step_response_time_constant() {
        // Series RL driven by a step: i(t) = (V/R)(1 − e^(−tR/L)),
        // v(mid) = V·e^(−t/τ) with τ = L/R = 1 ns.
        let deck = "* rl\nV1 in 0 pwl(0 0 1p 1)\nR1 in mid 1k\nL1 mid 0 1u\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(5e-12, 5e-9).unwrap();
        let v_tau = tr.voltage_at("mid", 1.001e-9).unwrap();
        assert!(
            (v_tau - (-1.0f64).exp()).abs() < 0.01,
            "v(tau) = {v_tau}, expected ~0.368"
        );
        // Long after the step the inductor is a short.
        assert!(tr.voltage("mid").unwrap().last().unwrap().abs() < 0.01);
    }

    #[test]
    fn inductor_is_dc_short_and_ac_open() {
        let deck = "* lc\nV1 in 0 dc 1\nR1 in out 1k\nL1 out 0 1m\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        assert!(dc.voltage("out").unwrap().abs() < 1e-9, "DC short");
        // At f >> R/(2πL) the divider passes nearly everything.
        let ac = ckt
            .ac_sweep(&[1e9], &AcExcitation::VSource("V1".into()))
            .unwrap();
        let v = ac.voltage("out").unwrap()[0];
        assert!(v.abs() > 0.99, "|v| = {} at high f", v.abs());
        // And at f << R/(2πL) almost nothing.
        let ac = ckt
            .ac_sweep(&[1e3], &AcExcitation::VSource("V1".into()))
            .unwrap();
        let v = ac.voltage("out").unwrap()[0];
        assert!(v.abs() < 0.05, "|v| = {} at low f", v.abs());
    }

    #[test]
    fn lc_resonance_peak() {
        // Series RLC: |v(cap)| peaks near f0 = 1/(2π√(LC)) ≈ 5.03 MHz.
        let deck = "* rlc\nV1 in 0 dc 0\nR1 in mid 10\nL1 mid out 1u\nC1 out 0 1n\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let ac = ckt
            .ac_sweep(
                &[f0 / 10.0, f0, f0 * 10.0],
                &AcExcitation::VSource("V1".into()),
            )
            .unwrap();
        let v = ac.voltage("out").unwrap();
        // Q = (1/R)·√(L/C) ≈ 3.2 of gain at resonance.
        assert!(v[1].abs() > 2.0 * v[0].abs());
        assert!(v[1].abs() > 2.0 * v[2].abs());
    }

    #[test]
    fn vcvs_amplifies() {
        let deck = "* e\nV1 a 0 2\nR1 a 0 1k\nE1 out 0 a 0 5\nRl out 0 1k\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        assert!((dc.voltage("out").unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_injects_current() {
        // G1 drives gm·v(a) = 1e-3·2 = 2 mA into out through 1k → 2 V
        // (current flows from n to p through the external resistor).
        let deck = "* g\nV1 a 0 2\nG1 0 out a 0 1m\nRl out 0 1k\n.end\n";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        assert!((dc.voltage("out").unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cccs_and_ccvs_sense_branch_current() {
        // V1 pushes 1 mA through R1; F1 mirrors 2× that into Rf.
        // i(V1) in MNA convention flows p→n inside the source, so the
        // branch current is −1 mA; gains below account for the sign.
        let deck = "\
* fh
V1 a 0 1
R1 a 0 1k
F1 0 fo V1 -2
Rf fo 0 1k
H1 ho 0 V1 -4k
Rh ho 0 1k
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        // F: 2·1mA into fo through 1k → 2 V.
        assert!(
            (dc.voltage("fo").unwrap() - 2.0).abs() < 1e-6,
            "fo = {}",
            dc.voltage("fo").unwrap()
        );
        // H: 4kΩ·1mA = 4 V source driving ho.
        assert!(
            (dc.voltage("ho").unwrap() - 4.0).abs() < 1e-6,
            "ho = {}",
            dc.voltage("ho").unwrap()
        );
    }

    #[test]
    fn unknown_control_is_error() {
        let deck = "* f\nV1 a 0 1\nR1 a 0 1k\nF1 0 b V9 2\nRb b 0 1k\n.end\n";
        let r = Circuit::from_netlist(&parse(deck).unwrap());
        assert!(matches!(r, Err(CircuitError::UnknownControl { .. })));
    }

    #[test]
    fn diode_rectifies_dc() {
        let deck = "\
* d
.model dx d (is=1e-14 n=1)
V1 in 0 5
R1 in out 1k
D1 out 0 dx
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        let v = dc.voltage("out").unwrap();
        // Forward drop of a silicon diode passing ~4.3 mA: 0.6–0.8 V.
        assert!(v > 0.5 && v < 0.9, "forward drop = {v}");
        // Reverse-biased: the diode blocks and out floats to the rail.
        let deck_r = deck.replace("D1 out 0 dx", "D1 0 out dx");
        let ckt_r = Circuit::from_netlist(&parse(&deck_r).unwrap()).unwrap();
        let vr = ckt_r.dc_operating_point().unwrap().voltage("out").unwrap();
        assert!(vr > 4.9, "reverse-biased node = {vr}");
    }

    #[test]
    fn diode_clips_transient() {
        // A sine through a resistor into a grounded diode clips the
        // negative excursion near one forward drop.
        let deck = "\
* clip
.model dx d (is=1e-14 n=1)
V1 in 0 sin(0 5 1e6)
R1 in out 1k
D1 0 out dx
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(5e-9, 2e-6).unwrap();
        let v = tr.voltage("out").unwrap();
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 4.0, "positive half passes, max = {max}");
        assert!(min > -1.0 && min < -0.4, "negative half clips, min = {min}");
    }

    #[test]
    fn diode_junction_cap_loads_ac() {
        // Reverse-biased diode: only cj0 loads the node; pole at
        // 1/(2πRC) with C = cj0 = 10 pF, R = 1k → 15.9 MHz.
        let deck = "\
* djc
.model dx d (is=1e-14 n=1 cj0=10p)
V1 in 0 dc 0
R1 in out 1k
D1 0 out dx
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 10e-12);
        let ac = ckt
            .ac_sweep(&[f3db], &AcExcitation::VSource("V1".into()))
            .unwrap();
        let v = ac.voltage("out").unwrap()[0];
        assert!(
            (v.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01,
            "|v| = {} at f3db",
            v.abs()
        );
    }

    #[test]
    fn linear_fast_path_covers_l_and_controlled_sources() {
        // A deck with L + E + G (no nonlinear devices) must still take
        // the one-symbolic-analysis fast path.
        let deck = "\
* lin
V1 in 0 pwl(0 0 1p 1)
R1 in a 100
L1 a b 10n
C1 b 0 1p
E1 e 0 b 0 2
Re e 0 1k
G1 0 go b 0 1m
Rg go 0 1k
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let tr = ckt.transient(1e-11, 1e-9).unwrap();
        // Branch-row diagonals swing from 0 (DC) to req (transient), so
        // threshold pivoting may re-capture the analysis a few times —
        // but repeated step sizes must hit the numeric cache: far fewer
        // factor events than steps.
        assert!(
            tr.stats.factorizations <= 4,
            "factorizations = {}",
            tr.stats.factorizations
        );
        assert!(
            tr.stats.steps > tr.stats.factorizations + tr.stats.refactorizations,
            "numeric cache must absorb repeated step sizes: {} steps, {} factor events",
            tr.stats.steps,
            tr.stats.factorizations + tr.stats.refactorizations
        );
        // VCVS follows 2× its sensed node at every time point.
        let vb = tr.voltage("b").unwrap();
        let ve = tr.voltage("e").unwrap();
        for (b, e) in vb.iter().zip(&ve) {
            assert!((e - 2.0 * b).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_rc_from_reduced_models_is_accepted() {
        // Reduced netlists legitimately contain negative R/C; the MNA
        // solver must handle them (only the aggregate model is passive).
        let deck = "\
* neg
V1 a 0 1
R1 a b 100
Rn b c -500
R2 c 0 100
.end
";
        let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
        let dc = ckt.dc_operating_point().unwrap();
        // Series: 100 - 500 + 100 = -300 total; i = 1/-300; v(c) = i*100.
        let vc = dc.voltage("c").unwrap();
        assert!((vc - 100.0 / -300.0).abs() < 1e-6);
    }
}
