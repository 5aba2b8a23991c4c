//! One MNA pattern per analysis run.
//!
//! Every stamp emits its matrix entries through a [`StampSink`], in an
//! order fixed by the circuit's topology alone — never by an operating
//! point, a `gmin` step or a step size. A triplet `Vec` is one sink: it
//! records the pattern once per run (and feeds the AC sweep's pencil).
//! [`MnaPlan`] compresses that record into a CSC pattern and remembers
//! the value slot of every emitted entry; from then on its slot writer,
//! the other sink, adds the k-th emitted value into the k-th slot, so a
//! Newton iteration assembles its matrix with no sorting and no
//! allocation.
//!
//! The slot writer adds in emission order, and
//! [`CscMat::from_triplets`] sums duplicates in input order, so the
//! plan's matrix equals the triplet assembly bit for bit.

use pact_sparse::CscMat;

use crate::Circuit;

/// Where the stamp functions put their matrix entries.
///
/// Stamps call [`StampSink::add`] once per entry, in an order that
/// depends only on the circuit's topology, so that one recorded emission
/// sequence describes the matrix at every operating point. A
/// `Vec<(row, col, value)>` records the entries as triplets.
pub trait StampSink {
    /// Adds `value` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, value: f64);
}

impl StampSink for Vec<(usize, usize, f64)> {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        self.push((row, col, value));
    }
}

/// Stamps a conductance `g` between two terminals (`None` = ground).
pub(crate) fn stamp_conductance(
    sink: &mut impl StampSink,
    a: Option<usize>,
    b: Option<usize>,
    g: f64,
) {
    match (a, b) {
        (Some(i), Some(j)) if i != j => {
            sink.add(i, i, g);
            sink.add(j, j, g);
            sink.add(i, j, -g);
            sink.add(j, i, -g);
        }
        (Some(i), None) | (None, Some(i)) => sink.add(i, i, g),
        _ => {}
    }
}

/// The other sink: adds the k-th emitted value into `values[slots[k]]`.
struct SlotWriter<'a> {
    values: &'a mut [f64],
    slots: std::slice::Iter<'a, usize>,
}

impl StampSink for SlotWriter<'_> {
    fn add(&mut self, _row: usize, _col: usize, value: f64) {
        let &slot = self.slots.next().expect("stamp emitted past its plan");
        self.values[slot] += value;
    }
}

/// The MNA system of one analysis run on its fixed pattern, with the
/// buffers every Newton iteration reuses.
#[derive(Clone, Debug)]
pub(crate) struct MnaPlan {
    /// The matrix; every assembly rewrites its values.
    pub(crate) mat: CscMat<f64>,
    /// Value slot of each emitted entry, in emission order: the linear
    /// stamps' first `linear` entries, then MOSFETs, then diodes.
    slots: Vec<usize>,
    linear: usize,
    /// The linear stamps' values on the pattern for `key`.
    base: Vec<f64>,
    /// Bits of the `(gmin, cap_geq)` that `base` holds.
    key: Option<(u64, u64)>,
    /// The current stage's right-hand side without device currents.
    pub(crate) rhs_base: Vec<f64>,
    /// The current iteration's right-hand side.
    pub(crate) rhs: Vec<f64>,
    /// The current iteration's solution.
    pub(crate) sol: Vec<f64>,
}

impl MnaPlan {
    /// Records `ckt`'s emission sequence and compresses it into the
    /// pattern. The values stamped here are irrelevant: every assembly
    /// overwrites them.
    pub(crate) fn new(ckt: &Circuit) -> Self {
        let dim = ckt.dim();
        let mut trips = Vec::new();
        ckt.stamp_linear(&mut trips, 0.0, 0.0);
        let linear = trips.len();
        let volts = vec![0.0; ckt.node_names().len()];
        ckt.stamp_devices(&mut trips, &volts, &mut vec![0.0; dim]);
        let mat = CscMat::from_triplets(dim, dim, &trips);
        let (indptr, indices) = (mat.indptr(), mat.indices());
        let slots = trips
            .iter()
            .map(|&(r, c, _)| {
                let col = &indices[indptr[c]..indptr[c + 1]];
                indptr[c] + col.binary_search(&r).expect("entry in its own pattern")
            })
            .collect();
        MnaPlan {
            base: vec![0.0; mat.nnz()],
            mat,
            slots,
            linear,
            key: None,
            rhs_base: vec![0.0; dim],
            rhs: vec![0.0; dim],
            sol: vec![0.0; dim],
        }
    }

    /// Writes the linear stamps' values at `(gmin, cap_geq)` into the
    /// base, unless it already holds them.
    pub(crate) fn set_linear(&mut self, ckt: &Circuit, gmin: f64, cap_geq: f64) {
        let key = (gmin.to_bits(), cap_geq.to_bits());
        if self.key == Some(key) {
            return;
        }
        self.base.fill(0.0);
        let mut sink = SlotWriter {
            values: &mut self.base,
            slots: self.slots[..self.linear].iter(),
        };
        ckt.stamp_linear(&mut sink, gmin, cap_geq);
        self.key = Some(key);
    }

    /// Assembles one Newton iteration at node voltages `v`: the matrix is
    /// the base plus every device companion, the right-hand side the
    /// stage's plus every device current.
    pub(crate) fn assemble(&mut self, ckt: &Circuit, v: &[f64]) {
        let values = self.mat.values_mut();
        values.copy_from_slice(&self.base);
        self.rhs.copy_from_slice(&self.rhs_base);
        let mut sink = SlotWriter {
            values,
            slots: self.slots[self.linear..].iter(),
        };
        ckt.stamp_devices(&mut sink, v, &mut self.rhs);
    }

    /// Bytes held by the pattern, the value and base arrays and the slot
    /// list.
    pub(crate) fn memory_bytes(&self) -> usize {
        let words = self.mat.indptr().len()
            + self.mat.indices().len()
            + self.mat.nnz()
            + self.base.len()
            + self.slots.len();
        words * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval_level1, GMIN};
    use pact_netlist::parse;
    use pact_sparse::XorShiftRng;

    const INVERTER_CHAIN: &str = "\
* inverter chain
.model nch nmos (vto=0.7 kp=110u lambda=0.04)
.model pch pmos (vto=-0.9 kp=40u lambda=0.05)
Vdd vdd 0 5
Vin in 0 pulse(0 5 1n 0.1n 0.1n 4n 10n)
M1 a in 0 0 nch w=4u l=1u
M2 a in vdd vdd pch w=8u l=1u
R1 a b 100
C1 b 0 10f
M3 c b 0 0 nch w=4u l=1u
M4 c b vdd vdd pch w=8u l=1u
R2 c d 100
C2 d 0 10f
M5 out d 0 0 nch w=4u l=1u
M6 out d vdd vdd pch w=8u l=1u
Cl out 0 20f
.end
";

    const DIODE_CLIPPER: &str = "\
* diode clipper
.model dx d (is=1e-14 n=1 cj0=1p)
V1 in 0 sin(0 5 1e6)
R1 in out 1k
D1 0 out dx
D2 out clip dx
Vc clip 0 2
C1 out 0 1p
.end
";

    /// A pass gate: its two transistors' source and drain swap whenever
    /// the output rises above the input.
    const TRANSMISSION_GATE: &str = "\
* transmission gate
.model nch nmos (vto=0.7 kp=110u lambda=0.04)
.model pch pmos (vto=-0.9 kp=40u lambda=0.05)
Vdd vdd 0 5
Ven en 0 pulse(0 5 1n 0.1n 0.1n 4n 10n)
Vin in 0 pulse(5 0 2n 0.1n 0.1n 4n 10n)
M1 enb en 0 0 nch w=4u l=1u
M2 enb en vdd vdd pch w=8u l=1u
M3 in en out 0 nch w=4u l=1u
M4 in enb out vdd pch w=8u l=1u
Cl out 0 50f
.end
";

    const INDUCTOR_AND_CONTROLLED_SOURCES: &str = "\
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

    /// The matrix and device currents the triplet sink assembles.
    fn by_triplets(ckt: &Circuit, gmin: f64, cap_geq: f64, v: &[f64]) -> (CscMat<f64>, Vec<f64>) {
        let mut trips = Vec::new();
        let mut rhs = vec![0.0; ckt.dim()];
        ckt.stamp_linear(&mut trips, gmin, cap_geq);
        ckt.stamp_devices(&mut trips, v, &mut rhs);
        (CscMat::from_triplets(ckt.dim(), ckt.dim(), &trips), rhs)
    }

    #[test]
    fn plan_matrix_equals_the_triplet_assembly_bitwise() {
        let h = 50e-12;
        // DC at two gmin steps, backward Euler and trapezoidal.
        let stages = [(1e-3, 0.0), (GMIN, 0.0), (GMIN, 1.0 / h), (GMIN, 2.0 / h)];
        for deck in [
            INVERTER_CHAIN,
            DIODE_CLIPPER,
            TRANSMISSION_GATE,
            INDUCTOR_AND_CONTROLLED_SOURCES,
        ] {
            let ckt = Circuit::from_netlist(&parse(deck).unwrap()).unwrap();
            let nn = ckt.node_names().len();
            let mut plan = MnaPlan::new(&ckt);
            // Random node voltages and their negations: a device whose
            // drain sits above its source in one sits below it in the
            // other, and likewise for a diode's anode and cathode.
            let mut rng = XorShiftRng::seed_from_u64(7);
            let mut mos_seen = vec![[false; 2]; ckt.mosfets.len()];
            let mut diode_seen = vec![[false; 2]; ckt.diodes.len()];
            for _ in 0..24 {
                let v: Vec<f64> = (0..nn).map(|_| 10.0 * rng.gen_f64() - 5.0).collect();
                for v in [v.clone(), v.iter().map(|x| -x).collect()] {
                    let at = |n: Option<usize>| n.map_or(0.0, |i| v[i]);
                    for (seen, m) in mos_seen.iter_mut().zip(&ckt.mosfets) {
                        let sign = if m.nmos { 1.0 } else { -1.0 };
                        let swapped = sign * at(m.d) < sign * at(m.s);
                        if eval_level1(m, at(m.d), at(m.g), at(m.s)).gm > 0.0 {
                            seen[usize::from(swapped)] = true;
                        }
                    }
                    for (seen, d) in diode_seen.iter_mut().zip(&ckt.diodes) {
                        seen[usize::from(at(d.p) > at(d.n))] = true;
                    }
                    for &(gmin, cap_geq) in &stages {
                        plan.set_linear(&ckt, gmin, cap_geq);
                        plan.rhs_base.fill(0.0);
                        plan.assemble(&ckt, &v);
                        let (mat, rhs) = by_triplets(&ckt, gmin, cap_geq, &v);
                        assert!(plan.mat.structure_eq(&mat));
                        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(plan.mat.values()), bits(mat.values()));
                        assert_eq!(bits(&plan.rhs), bits(&rhs));
                    }
                }
            }
            assert!(
                mos_seen.iter().all(|s| s[0] && s[1]),
                "some MOSFET never conducted in both orientations"
            );
            assert!(
                diode_seen.iter().all(|s| s[0] && s[1]),
                "some diode never saw both biases"
            );
        }
    }

    #[test]
    fn transmission_gate_passes_both_ways() {
        // With the gate enabled the output charges through the pass
        // transistors, then discharges once the input falls: the second
        // half runs every Newton iteration with source and drain swapped.
        let ckt = Circuit::from_netlist(&parse(TRANSMISSION_GATE).unwrap()).unwrap();
        let tr = ckt.transient(20e-12, 5e-9).unwrap();
        let up = tr.voltage_at("out", 2.0e-9).unwrap();
        let down = tr.voltage_at("out", 4.5e-9).unwrap();
        assert!(up > 4.5, "charged to {up} V");
        assert!(down < 0.5, "discharged to {down} V");
    }
}
