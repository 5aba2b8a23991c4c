//! Matrix-free PACT: pole analysis on the generalized pencil
//! `E u = λ D u` with a Lanczos recursion in the **D-inner product**,
//! requiring only solves against `D` — no Cholesky factor of `D` is ever
//! formed.
//!
//! Where the paper's RCFIT applies `E' = L⁻¹EL⁻ᵀ` through triangular
//! solves, this extension works with the operator `A = D⁻¹E`, which is
//! self-adjoint under `⟨x, y⟩_D = xᵀDy`. Its Ritz vectors `y` relate to
//! `E'`-eigenvectors by `u = Fᵀy`, so the reduced-model quantities come
//! out directly:
//!
//! ```text
//! R''[i, :] = Rᵀ yᵢ − Qᵀ D⁻¹ (E yᵢ)      (no factor needed)
//! ```
//!
//! Pair it with [`pact_sparse::pcg`] and the whole reduction runs in the
//! memory of the original sparse matrices plus a handful of vectors —
//! the logical endpoint of the paper's Section-4 memory argument, and an
//! extension recorded in DESIGN.md §6.

use std::time::Instant;

use pact_sparse::{axpy, dot, eig_tridiagonal, CsrMat, DMat, FactorError, IncompleteCholesky};

use crate::cutoff::CutoffSpec;
use crate::model::ReducedModel;
use crate::partition::Partitions;
use crate::reduce::{ReduceError, ReduceOptions, Reduction};
use crate::session::{finish_reduction, ReductionSession};
use crate::telemetry::Telemetry;

/// Abstraction over "solve `D x = b`" so both a direct factorization and
/// PCG can drive the matrix-free reduction.
pub trait DSolver {
    /// Solves `D x = b`.
    fn solve(&self, b: &[f64]) -> Vec<f64>;
    /// Modelled working memory in bytes.
    fn memory_bytes(&self) -> usize;
}

impl DSolver for pact_sparse::SparseCholesky {
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        pact_sparse::SparseCholesky::solve(self, b)
    }
    fn memory_bytes(&self) -> usize {
        pact_sparse::SparseCholesky::memory_bytes(self)
    }
}

/// A PCG-backed `D`-solver with IC(0) preconditioning.
#[derive(Clone, Debug)]
pub struct PcgSolver {
    d: CsrMat,
    precond: IncompleteCholesky,
    /// Relative residual tolerance per solve.
    pub rel_tol: f64,
    /// Iteration cap per solve.
    pub max_iters: usize,
}

impl PcgSolver {
    /// Builds the solver (computes IC(0) of `D`).
    ///
    /// # Errors
    ///
    /// [`FactorError`] when `D` is structurally unsuitable (non-square or
    /// non-positive diagonal).
    pub fn new(d: &CsrMat) -> Result<Self, FactorError> {
        let precond = IncompleteCholesky::factor(d)?;
        Ok(PcgSolver {
            d: d.clone(),
            precond,
            rel_tol: 1e-12,
            max_iters: 10_000,
        })
    }
}

impl DSolver for PcgSolver {
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        pact_sparse::pcg(&self.d, b, &self.precond, self.rel_tol, self.max_iters).x
    }
    fn memory_bytes(&self) -> usize {
        // IC(0) (zero fill) + a few CG work vectors.
        self.precond.nnz() * 16 + 6 * self.d.nrows() * 8
    }
}

/// Matrix-free PACT reduction: same contract as [`crate::reduce`], but
/// every interaction with `D` goes through `solver` and the pole
/// analysis runs on the `(E, D)` pencil in the D-inner product.
///
/// One-shot convenience over [`ReductionSession::reduce_matrix_free`].
///
/// # Errors
///
/// [`ReduceError::Lanczos`] when the pencil Lanczos cannot resolve the
/// spectrum near the cutoff.
pub fn reduce_matrix_free(
    parts: &Partitions,
    port_names: &[String],
    spec: &CutoffSpec,
    solver: &impl DSolver,
) -> Result<Reduction, ReduceError> {
    ReductionSession::new(ReduceOptions::new(*spec))
        .reduce_matrix_free(parts, port_names, spec, solver)
}

impl ReductionSession {
    /// Matrix-free PACT through this session: the moment and projection
    /// right-hand-side buffers come from the session's scratch pool, and
    /// the pencil-Lanczos backend choice is recorded in telemetry.
    ///
    /// # Errors
    ///
    /// [`ReduceError::Lanczos`] when the pencil Lanczos cannot resolve
    /// the spectrum near the cutoff.
    pub fn reduce_matrix_free(
        &mut self,
        parts: &Partitions,
        port_names: &[String],
        spec: &CutoffSpec,
        solver: &impl DSolver,
    ) -> Result<Reduction, ReduceError> {
        let start = Instant::now();
        let mut tel = Telemetry::new();
        let m = parts.m;
        let n = parts.n;
        // ---- moments, column at a time: the paper's algebra, three
        //      solves per port. Transform1 reads the second and third off
        //      an |S|×m panel of X instead; this path holds no m-wide
        //      buffer, by design ----
        let moments_start = Instant::now();
        let mut a1 = parts.a.to_dense();
        let mut b1 = parts.b.to_dense();
        let qt = parts.q.transpose();
        let rt = parts.r.transpose();
        let mut rhs = self.scratch.take(n);
        let fill_col = |t: &CsrMat, j: usize, v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x = 0.0);
            for (i, val) in t.row_iter(j) {
                v[i] = val;
            }
        };
        for j in 0..m {
            fill_col(&qt, j, &mut rhs);
            let x = solver.solve(&rhs);
            fill_col(&rt, j, &mut rhs);
            let y = solver.solve(&rhs);
            let z = solver.solve(&parts.e.matvec(&x));
            let qtx = parts.q.matvec_t(&x);
            let rtx = parts.r.matvec_t(&x);
            let qty = parts.q.matvec_t(&y);
            let qtz = parts.q.matvec_t(&z);
            for i in 0..m {
                a1[(i, j)] -= qtx[i];
                b1[(i, j)] += -rtx[i] - qty[i] + qtz[i];
            }
        }
        self.scratch.put(rhs);
        a1.symmetrize();
        b1.symmetrize();
        tel.record_phase("moments", moments_start.elapsed().as_secs_f64());

        // ---- pencil Lanczos in the D-inner product ----
        let eigen_start = Instant::now();
        let lambda_c = spec.lambda_c();
        let pairs = pencil_eigs_above(parts, solver, lambda_c).map_err(|iterations| {
            ReduceError::Lanczos(pact_lanczos::LanczosError::NotConverged { iterations })
        })?;
        tel.record_phase("eigen", eigen_start.elapsed().as_secs_f64());
        tel.record_eigen_choice("pencil", "pencil_lanczos", n, pairs.len());

        // ---- R'' rows straight from the pencil Ritz vectors ----
        let projection_start = Instant::now();
        let k = pairs.len();
        let mut r2 = DMat::zeros(k, m);
        let mut lambdas = Vec::with_capacity(k);
        for (p, (lam, y)) in pairs.iter().enumerate() {
            lambdas.push(*lam);
            let ey = parts.e.matvec(y);
            let z = solver.solve(&ey);
            let ry = parts.r.matvec_t(y);
            let qz = parts.q.matvec_t(&z);
            for j in 0..m {
                r2[(p, j)] = ry[j] - qz[j];
            }
        }
        tel.record_phase("projection", projection_start.elapsed().as_secs_f64());
        let model = ReducedModel {
            a1,
            b1,
            r2,
            lambdas,
            port_names: port_names.to_vec(),
        };
        Ok(finish_reduction(
            tel,
            start,
            model,
            n,
            0,
            solver.memory_bytes(),
            solver.memory_bytes() + 2 * m * m * 8 + (k + 4) * n * 8,
            None,
        ))
    }
}

/// Eigenpairs of `E y = λ D y` with `λ > lambda_min`, via D-inner-product
/// Lanczos with full reorthogonalization (the basis stays small — only
/// the retained poles' neighborhood is iterated).
///
/// Returns `(λ, y)` pairs sorted descending, with `y` normalized to
/// `yᵀDy = 1`; on failure returns the iteration count.
#[allow(clippy::type_complexity)]
fn pencil_eigs_above(
    parts: &Partitions,
    solver: &impl DSolver,
    lambda_min: f64,
) -> Result<Vec<(f64, Vec<f64>)>, usize> {
    let n = parts.n;
    if n == 0 {
        return Ok(Vec::new());
    }
    let d = &parts.d;
    let e = &parts.e;
    let max_iters = n.min(300);
    // Deterministic pseudo-random start.
    let mut w: Vec<f64> = (0..n)
        .map(|i| (((i * 2654435761) % 1000) as f64 / 500.0) - 1.0)
        .collect();
    // D-normalize.
    let d_norm = |v: &[f64]| dot(v, &d.matvec(v)).max(0.0).sqrt();
    let nrm = d_norm(&w);
    if nrm == 0.0 {
        return Ok(Vec::new());
    }
    pact_sparse::scale(1.0 / nrm, &mut w);

    let mut basis: Vec<Vec<f64>> = vec![w];
    let mut dbasis: Vec<Vec<f64>> = vec![d.matvec(&basis[0])]; // D·w cached
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    for j in 0..max_iters {
        // A w = D⁻¹ E w.
        let aw = solver.solve(&e.matvec(&basis[j]));
        let alpha = dot(&dbasis[j], &aw);
        alphas.push(alpha);
        let mut wt = aw;
        axpy(-alpha, &basis[j], &mut wt);
        if j > 0 {
            axpy(-betas[j - 1], &basis[j - 1], &mut wt);
        }
        // Full reorthogonalization in the D-inner product (two passes).
        for _ in 0..2 {
            for (b, db) in basis.iter().zip(&dbasis) {
                let proj = dot(db, &wt);
                axpy(-proj, b, &mut wt);
            }
        }
        let beta = d_norm(&wt);
        let k = alphas.len();
        let t_scale = alphas
            .iter()
            .fold(0.0f64, |m, a| m.max(a.abs()))
            .max(betas.iter().fold(0.0f64, |m, b| m.max(b.abs())))
            .max(1e-300);
        let breakdown = beta <= 1e-14 * t_scale.max(1.0);
        betas.push(if breakdown { 0.0 } else { beta });
        let at_end = breakdown || k == max_iters;
        if at_end || k.is_multiple_of(5) {
            let (vals, z) = eig_tridiagonal(&alphas, &betas[..k - 1], true).map_err(|_| k)?;
            let beta_k = betas[k - 1];
            let conv = |idx: usize| beta_k * z[(k - 1, idx)].abs() <= 1e-10 * t_scale;
            let all_above_done = vals
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v > lambda_min)
                .all(|(idx, _)| conv(idx));
            let boundary = vals.iter().enumerate().any(|(idx, &v)| {
                v <= lambda_min && beta_k * z[(k - 1, idx)].abs() <= 1e-5 * t_scale
            }) || breakdown;
            let resolved = all_above_done && boundary;
            if resolved || at_end {
                if !resolved && !breakdown {
                    return Err(k);
                }
                // Assemble Ritz vectors for retained eigenvalues.
                let mut out = Vec::new();
                for (idx, &lam) in vals.iter().enumerate().rev() {
                    if lam <= lambda_min {
                        break;
                    }
                    let mut y = vec![0.0; n];
                    for (row, b) in basis.iter().enumerate() {
                        axpy(z[(row, idx)], b, &mut y);
                    }
                    // D-normalize (should already be ≈1).
                    let nn = d_norm(&y);
                    if nn > 0.0 {
                        pact_sparse::scale(1.0 / nn, &mut y);
                    }
                    out.push((lam, y));
                }
                return Ok(out);
            }
        }
        if breakdown {
            break;
        }
        pact_sparse::scale(1.0 / beta, &mut wt);
        dbasis.push(d.matvec(&wt));
        basis.push(wt);
    }
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reduce_network, ReduceOptions};
    use pact_netlist::{extract_rc, parse};
    use pact_sparse::{Ordering, SparseCholesky};

    fn ladder(nseg: usize) -> pact_netlist::RcNetwork {
        let mut deck = String::from("* l\nV1 p0 0 1\nM1 q pN 0 0 n\n.model n nmos()\n");
        for i in 0..nseg {
            let a = if i == 0 { "p0".into() } else { format!("n{i}") };
            let b = if i == nseg - 1 {
                "pN".into()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!(
                "R{i} {a} {b} {}\nC{i} {b} 0 {}\n",
                250.0 / nseg as f64,
                1.35e-12 / nseg as f64
            ));
        }
        extract_rc(&parse(&deck).unwrap(), &[]).unwrap().network
    }

    #[test]
    fn matrix_free_matches_factored_reduction() {
        let net = ladder(60);
        let spec = CutoffSpec::new(5e9, 0.05).unwrap();
        let factored = reduce_network(&net, &ReduceOptions::new(spec)).unwrap();
        let parts = Partitions::split(&net.stamp());
        let ports = net.node_names[..net.num_ports].to_vec();
        // Direct solver through the DSolver trait.
        let chol = SparseCholesky::factor(&parts.d, Ordering::NestedDissection).unwrap();
        let mf = reduce_matrix_free(&parts, &ports, &spec, &chol).unwrap();
        assert_eq!(mf.model.num_poles(), factored.model.num_poles());
        for (a, b) in mf.model.lambdas.iter().zip(&factored.model.lambdas) {
            assert!((a - b).abs() < 1e-8 * a, "{a} vs {b}");
        }
        for &f in &[1e8, 1e9, 5e9] {
            let ya = mf.model.y_at(f);
            let yb = factored.model.y_at(f);
            for i in 0..parts.m {
                for j in 0..parts.m {
                    assert!(
                        (ya[(i, j)] - yb[(i, j)]).abs() < 1e-7 * yb[(i, j)].abs().max(1e-12),
                        "Y mismatch at f={f:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn pcg_solver_reduction_matches_direct() {
        let net = ladder(40);
        let spec = CutoffSpec::new(5e9, 0.05).unwrap();
        let parts = Partitions::split(&net.stamp());
        let ports = net.node_names[..net.num_ports].to_vec();
        let chol = SparseCholesky::factor(&parts.d, Ordering::NestedDissection).unwrap();
        let direct = reduce_matrix_free(&parts, &ports, &spec, &chol).unwrap();
        let pcg = PcgSolver::new(&parts.d).unwrap();
        let iterative = reduce_matrix_free(&parts, &ports, &spec, &pcg).unwrap();
        assert_eq!(direct.model.num_poles(), iterative.model.num_poles());
        for (a, b) in direct.model.lambdas.iter().zip(&iterative.model.lambdas) {
            assert!((a - b).abs() < 1e-6 * a);
        }
        let f = 2e9;
        let ya = direct.model.y_at(f);
        let yb = iterative.model.y_at(f);
        for i in 0..parts.m {
            for j in 0..parts.m {
                assert!((ya[(i, j)] - yb[(i, j)]).abs() < 1e-6 * ya[(i, j)].abs().max(1e-12));
            }
        }
    }

    #[test]
    fn matrix_free_model_is_passive() {
        let net = ladder(50);
        let spec = CutoffSpec::new(10e9, 0.05).unwrap();
        let parts = Partitions::split(&net.stamp());
        let ports = net.node_names[..net.num_ports].to_vec();
        let pcg = PcgSolver::new(&parts.d).unwrap();
        let red = reduce_matrix_free(&parts, &ports, &spec, &pcg).unwrap();
        assert!(red.model.num_poles() >= 2);
        assert!(red.model.is_passive(1e-7));
    }

    #[test]
    fn pcg_memory_is_fill_free() {
        // The iterative solver's modelled memory must be proportional to
        // the input nonzeros, not to a factor's fill.
        let net = ladder(80);
        let parts = Partitions::split(&net.stamp());
        let pcg = PcgSolver::new(&parts.d).unwrap();
        let chol = SparseCholesky::factor(&parts.d, Ordering::Natural).unwrap();
        // On a tridiagonal ladder both are linear; just sanity-bound PCG.
        assert!(pcg.memory_bytes() <= 4 * chol.memory_bytes() + 64 * parts.n);
    }
}
