//! Randomized property tests of the linear-algebra kernels against each
//! other and against mathematical invariants: the factorizations must
//! agree with the dense oracle, eigendecompositions must reconstruct, and
//! the sparse structures must round-trip.
//!
//! Each property sweeps a deterministic set of [`XorShiftRng`] seeds, so
//! failures reproduce exactly. The default sweep is small enough for the
//! tier-1 suite; the `slow-tests` feature widens it.

use pact_sparse::{
    sym_eig, CscMat, CsrMat, DMat, DenseLu, SparseCholesky, SparseLu, TripletMat, XorShiftRng,
};

#[cfg(feature = "slow-tests")]
const CASES: u64 = 64;
#[cfg(not(feature = "slow-tests"))]
const CASES: u64 = 12;

fn seeds() -> impl Iterator<Item = u64> {
    (0..CASES).map(|k| 0x5ca1e * 1000 + k)
}

/// A random symmetric positive-definite matrix, built as a Laplacian plus
/// positive diagonal from random edges.
fn spd_matrix(n: usize, rng: &mut XorShiftRng) -> CsrMat {
    let mut t = TripletMat::new(n, n);
    let edges = 1 + rng.gen_index(4 * n);
    for _ in 0..edges {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n);
        if a != b {
            t.stamp_conductance(Some(a), Some(b), rng.gen_range_f64(0.01, 10.0));
        }
    }
    for i in 0..n {
        t.push(i, i, rng.gen_range_f64(0.1, 5.0));
    }
    t.to_csr()
}

/// A random well-conditioned unsymmetric matrix (diagonally dominated)
/// as triplets.
fn dominant_matrix(n: usize, rng: &mut XorShiftRng) -> Vec<(usize, usize, f64)> {
    let mut trips: Vec<(usize, usize, f64)> = Vec::new();
    let off = rng.gen_index(4 * n);
    for _ in 0..off {
        let a = rng.gen_index(n);
        let b = rng.gen_index(n);
        if a != b {
            trips.push((a, b, rng.gen_range_f64(-1.0, 1.0)));
        }
    }
    for i in 0..n {
        trips.push((i, i, rng.gen_range_f64(5.0, 20.0)));
    }
    trips
}

fn random_vec(n: usize, lo: f64, hi: f64, rng: &mut XorShiftRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range_f64(lo, hi)).collect()
}

#[test]
fn cholesky_solve_matches_dense_lu() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let a = spd_matrix(12, &mut rng);
        let b = random_vec(12, -5.0, 5.0, &mut rng);
        let chol = SparseCholesky::factor(&a).unwrap();
        let x_sparse = chol.solve(&b);
        let lu = DenseLu::factor(&a.to_dense()).unwrap();
        let x_dense = lu.solve(&b);
        for (u, v) in x_sparse.iter().zip(&x_dense) {
            assert!(
                (u - v).abs() < 1e-8 * v.abs().max(1.0),
                "seed {seed}: {u} vs {v}"
            );
        }
    }
}

/// Factoring `P A Pᵀ` for seeded random relabelings `P` gives the same
/// solution, mapped back through `P`.
#[test]
fn cholesky_relabelings_agree() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let a = spd_matrix(10, &mut rng);
        let b = random_vec(10, -1.0, 1.0, &mut rng);
        let x1 = SparseCholesky::factor(&a).unwrap().solve(&b);
        for _ in 0..2 {
            let p = rng.permutation(10);
            let pb: Vec<f64> = p.iter().map(|&i| b[i]).collect();
            let y = SparseCholesky::factor(&a.permute_sym(&p))
                .unwrap()
                .solve(&pb);
            for (k, &i) in p.iter().enumerate() {
                assert!(
                    (x1[i] - y[k]).abs() < 1e-8 * x1[i].abs().max(1.0),
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn sparse_lu_residual_small() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let trips = dominant_matrix(15, &mut rng);
        let b = random_vec(15, -3.0, 3.0, &mut rng);
        let a = CscMat::from_triplets(15, 15, &trips);
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!(
                (ri - bi).abs() < 1e-9,
                "seed {seed}: residual {}",
                (ri - bi).abs()
            );
        }
    }
}

#[test]
fn sym_eig_reconstructs() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let a = spd_matrix(9, &mut rng);
        let d = a.to_dense();
        let e = sym_eig(&d).unwrap();
        // Eigenvalues of an SPD matrix are positive.
        for &v in &e.values {
            assert!(v > -1e-10, "seed {seed}");
        }
        // Reconstruction A = ZΛZᵀ.
        let lam = DMat::from_diag(&e.values);
        let rec = e.vectors.matmul(&lam).matmul(&e.vectors.transpose());
        assert!(
            (&rec - &d).norm_max() < 1e-9 * d.norm_max().max(1.0),
            "seed {seed}"
        );
    }
}

#[test]
fn csr_transpose_involution() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let a = spd_matrix(8, &mut rng);
        assert_eq!(a.transpose().transpose(), a, "seed {seed}");
    }
}

#[test]
fn csr_matvec_linear() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let a = spd_matrix(8, &mut rng);
        let x = random_vec(8, -2.0, 2.0, &mut rng);
        let y = random_vec(8, -2.0, 2.0, &mut rng);
        let alpha = rng.gen_range_f64(-3.0, 3.0);
        // A(αx + y) = αAx + Ay
        let mixed: Vec<f64> = x.iter().zip(&y).map(|(a_, b_)| alpha * a_ + b_).collect();
        let lhs = a.matvec(&mixed);
        let ax = a.matvec(&x);
        let ay = a.matvec(&y);
        for i in 0..8 {
            assert!(
                (lhs[i] - (alpha * ax[i] + ay[i])).abs() < 1e-10,
                "seed {seed}"
            );
        }
    }
}

#[test]
fn permute_sym_preserves_spectrum() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let a = spd_matrix(7, &mut rng);
        let perm = rng.permutation(7);
        let pap = a.permute_sym(&perm);
        let e1 = sym_eig(&a.to_dense()).unwrap();
        let e2 = sym_eig(&pap.to_dense()).unwrap();
        for (u, v) in e1.values.iter().zip(&e2.values) {
            assert!((u - v).abs() < 1e-9 * u.abs().max(1.0), "seed {seed}");
        }
    }
}

#[test]
fn log_det_consistent_with_lu() {
    for seed in seeds() {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let a = spd_matrix(8, &mut rng);
        let chol = SparseCholesky::factor(&a).unwrap();
        let lu = DenseLu::factor(&a.to_dense()).unwrap();
        let det = lu.det();
        if det <= 0.0 {
            continue;
        }
        assert!(
            (chol.log_det() - det.ln()).abs() < 1e-7 * det.ln().abs().max(1.0),
            "seed {seed}"
        );
    }
}
