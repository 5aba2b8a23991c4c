//! Refactorization equivalence: a `SymbolicLu` numeric refactorization
//! must be **bit-identical** to a fresh Gilbert–Peierls factorization of
//! the same matrix — same pivot sequence, same L/U values down to the
//! last ulp — on every generator family (substrate mesh, power grid,
//! RC line), for both real (`G + αC`) and complex (`G + jωC`)
//! matrices. This is the contract that lets the AC/transient sweeps and
//! the verification grid reuse one symbolic analysis without changing
//! any result: "one symbolic, many numerics".
//!
//! Also covered: the pivot-rejection fallback — when a value change
//! invalidates the remembered pivot order, `LuCache` transparently
//! falls back to a fresh factorization and re-captures the analysis.

use pact_gen::{
    inverter_pair_deck, power_grid_deck, substrate_mesh, LineSpec, MeshSpec, PowerGridSpec,
};
use pact_netlist::{extract_rc, RcNetwork, Stamped};
use pact_sparse::{Complex64, CscMat, CscPencil, LuCache, RefactorError, SparseLu};

fn mesh_fixture() -> RcNetwork {
    substrate_mesh(&MeshSpec {
        nx: 8,
        ny: 8,
        nz: 3,
        num_contacts: 8,
        ..MeshSpec::table2()
    })
}

fn powergrid_fixture() -> RcNetwork {
    let deck = power_grid_deck(&PowerGridSpec {
        nx: 10,
        ny: 10,
        num_taps: 6,
        ..PowerGridSpec::default()
    });
    extract_rc(&deck.netlist, &[]).unwrap().network
}

fn line_fixture() -> RcNetwork {
    let deck = inverter_pair_deck(&LineSpec {
        segments: 60,
        ..LineSpec::default()
    });
    extract_rc(&deck, &[]).unwrap().network
}

/// `G + αC` as a real CSC matrix. The triplet order (all of G, then all
/// of C) is shared with [`csc_complex`] so both builds produce the same
/// union structure and one symbolic analysis serves either scalar type.
fn csc_real(st: &Stamped, alpha: f64) -> CscMat<f64> {
    let n = st.g.nrows();
    let mut trips = Vec::with_capacity(st.g.nnz() + st.c.nnz());
    for i in 0..n {
        for (j, v) in st.g.row_iter(i) {
            trips.push((i, j, v));
        }
    }
    for i in 0..n {
        for (j, v) in st.c.row_iter(i) {
            trips.push((i, j, alpha * v));
        }
    }
    CscMat::from_triplets(n, n, &trips)
}

/// `G + jωC` as a complex CSC matrix with the same structure as
/// [`csc_real`].
fn csc_complex(st: &Stamped, omega: f64) -> CscMat<Complex64> {
    let n = st.g.nrows();
    let mut trips = Vec::with_capacity(st.g.nnz() + st.c.nnz());
    for i in 0..n {
        for (j, v) in st.g.row_iter(i) {
            trips.push((i, j, Complex64::new(v, 0.0)));
        }
    }
    for i in 0..n {
        for (j, v) in st.c.row_iter(i) {
            trips.push((i, j, Complex64::new(0.0, omega * v)));
        }
    }
    CscMat::from_triplets(n, n, &trips)
}

fn assert_real_bits_equal(fresh: &SparseLu<f64>, refac: &SparseLu<f64>, what: &str) {
    assert_eq!(
        fresh.row_permutation(),
        refac.row_permutation(),
        "{what}: pivot order differs"
    );
    let (fl, rl) = (fresh.l_values(), refac.l_values());
    assert_eq!(fl.len(), rl.len(), "{what}: L nnz differs");
    for (k, (a, b)) in fl.iter().zip(rl).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: L[{k}] differs");
    }
    let (fu, ru) = (fresh.u_values(), refac.u_values());
    assert_eq!(fu.len(), ru.len(), "{what}: U nnz differs");
    for (k, (a, b)) in fu.iter().zip(ru).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: U[{k}] differs");
    }
}

fn assert_complex_bits_equal(fresh: &SparseLu<Complex64>, refac: &SparseLu<Complex64>, what: &str) {
    assert_eq!(
        fresh.row_permutation(),
        refac.row_permutation(),
        "{what}: pivot order differs"
    );
    for (which, (fs, rs)) in [
        ("L", (fresh.l_values(), refac.l_values())),
        ("U", (fresh.u_values(), refac.u_values())),
    ] {
        assert_eq!(fs.len(), rs.len(), "{what}: {which} nnz differs");
        for (k, (a, b)) in fs.iter().zip(rs).enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "{what}: {which}[{k}] differs"
            );
        }
    }
}

/// For one deck: capture the analysis from a real base matrix, then
/// check that refactorizations reproduce fresh factorizations bit for
/// bit across a spread of real shifts and complex frequencies.
fn check_family(net: &RcNetwork, label: &str) {
    let st = net.stamp();
    let base = csc_real(&st, 1e9);
    let (lu0, sym) = SparseLu::factor_analyzed(&base).unwrap();
    assert_eq!(sym.n(), st.g.nrows(), "{label}: analysis dimension");
    assert_eq!(
        sym.factor_nnz(),
        lu0.factor_nnz(),
        "{label}: analysis fill count"
    );

    // Refactoring the *same* values must reproduce the factor exactly.
    let re0 = sym.refactor(&base).unwrap();
    assert_real_bits_equal(&lu0, &re0, &format!("{label}: identity refactor"));

    // Real sweeps: G + αC across six decades of α.
    for alpha in [1e6, 1e8, 1e10, 1e12] {
        let a = csc_real(&st, alpha);
        let fresh = SparseLu::factor(&a).unwrap();
        let refac = sym.refactor(&a).unwrap();
        assert_real_bits_equal(&fresh, &refac, &format!("{label}: real α={alpha:.0e}"));
    }

    // Complex sweeps: the symbolic captured from the *real* matrix must
    // serve G + jωC (same union structure, different scalar type).
    for omega in [2e7, 2e9, 2e11] {
        let y = csc_complex(&st, omega);
        assert!(sym.matches(&y), "{label}: complex structure must match");
        let fresh = SparseLu::factor(&y).unwrap();
        let refac = sym.refactor(&y).unwrap();
        assert_complex_bits_equal(&fresh, &refac, &format!("{label}: complex ω={omega:.0e}"));
        // And the solves built on them agree bitwise too.
        let n = y.nrows();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0 / (i + 1) as f64, 0.25))
            .collect();
        let xf = fresh.solve(&b);
        let xr = refac.solve(&b);
        for (k, (a, c)) in xf.iter().zip(&xr).enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (c.re.to_bits(), c.im.to_bits()),
                "{label}: solve[{k}] differs at ω={omega:.0e}"
            );
        }
    }
}

#[test]
fn mesh_refactor_is_bit_identical_to_fresh_factor() {
    check_family(&mesh_fixture(), "mesh");
}

#[test]
fn powergrid_refactor_is_bit_identical_to_fresh_factor() {
    check_family(&powergrid_fixture(), "powergrid");
}

#[test]
fn line_refactor_is_bit_identical_to_fresh_factor() {
    check_family(&line_fixture(), "line");
}

/// The AC-sweep path: one `CscPencil`, the symbolic analysis captured
/// from the `s = 0` evaluation, then numeric refactorizations at
/// imaginary-axis shifts. Each must be bit-identical to a fresh
/// factorization of the same shifted matrix.
#[test]
fn pencil_refactor_at_nonzero_shifts_is_bit_identical() {
    for (label, net) in [
        ("mesh", mesh_fixture()),
        ("powergrid", powergrid_fixture()),
        ("line", line_fixture()),
    ] {
        // The internal (D, E) block — the full G can have zero
        // conductance rows, but D is SPD, so the s = 0 capture is always
        // well posed.
        let parts = pact::Partitions::split(&net.stamp());
        let n = parts.n;
        let gtrips: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| parts.d.row_iter(i).map(move |(j, v)| (i, j, v)))
            .collect();
        let ctrips: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| parts.e.row_iter(i).map(move |(j, v)| (i, j, v)))
            .collect();
        let pencil = CscPencil::from_triplets(n, &gtrips, &ctrips);
        let (_, sym) = SparseLu::factor_analyzed(&pencil.eval(0.0)).unwrap();

        // Imaginary-axis shifts: complex refactor through the symbolic
        // captured at s = 0.
        for omega in [2e8, 2e10] {
            let a_s = pencil.eval(omega);
            assert!(sym.matches(&a_s), "{label}: complex shift structure");
            let fresh = SparseLu::factor(&a_s).unwrap();
            let refac = sym.refactor(&a_s).unwrap();
            assert_complex_bits_equal(&fresh, &refac, &format!("{label}: pencil jω={omega:.0e}"));
        }
    }
}

/// A value change that invalidates the remembered pivot order must be
/// rejected by `refactor` (not silently produce a low-quality factor),
/// and `LuCache` must fall back to a fresh factorization and re-capture
/// the new analysis.
#[test]
fn pivot_rejection_falls_back_to_fresh_factorization() {
    // Diagonally dominant: every column pivots on its diagonal.
    let good = CscMat::from_triplets(
        3,
        3,
        &[
            (0, 0, 4.0),
            (1, 0, 1.0),
            (0, 1, 1.0),
            (1, 1, 4.0),
            (2, 1, 1.0),
            (1, 2, 1.0),
            (2, 2, 4.0),
        ],
    );
    // Same structure, but the (0,0) entry collapses: the remembered
    // diagonal pivot fails the threshold test against the subdiagonal.
    let bad = CscMat::from_triplets(
        3,
        3,
        &[
            (0, 0, 1e-14),
            (1, 0, 1.0),
            (0, 1, 1.0),
            (1, 1, 4.0),
            (2, 1, 1.0),
            (1, 2, 1.0),
            (2, 2, 4.0),
        ],
    );
    let (_, sym) = SparseLu::<f64>::factor_analyzed(&good).unwrap();
    match sym.refactor(&bad) {
        Err(RefactorError::PivotRejected { column }) => assert_eq!(column, 0),
        other => panic!("expected pivot rejection, got {other:?}"),
    }

    // The cache hides the fallback: the caller always gets a factor.
    let mut cache = LuCache::new();
    let (_, refactored) = cache.factor(&good).unwrap();
    assert!(!refactored, "first factorization captures the analysis");
    let (lu_bad, refactored) = cache.factor(&bad).unwrap();
    assert!(!refactored, "pivot rejection must fall back to fresh");
    let fresh_bad = SparseLu::factor(&bad).unwrap();
    assert_real_bits_equal(&fresh_bad, &lu_bad, "fallback factor");
    // The fallback re-captured `bad`'s pivot order, so factoring it
    // again is now a pure refactorization.
    let (_, refactored) = cache.factor(&bad).unwrap();
    assert!(refactored, "fallback must re-capture the analysis");
}
