//! Ablation benches for the design choices DESIGN.md §5 calls out:
//! dense QL vs Lanczos on `E'`, and the sparsification heuristic (the
//! Cholesky-ordering results are recorded in DESIGN.md §5 item 3).
//!
//! Plain `main()` harness (no external bench framework); run with
//! `cargo bench -p pact-bench --bench ablation`.

use pact::{CutoffSpec, Partitions, ReduceOptions, Transform1};
use pact_bench::{min_median, print_table, sample_secs, secs};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::eigs_above;
use pact_netlist::sparsify_preserving_passivity;
use pact_sparse::{sym_eig, ParCtx};

const SAMPLES: usize = 10;

fn mesh(nx: usize, ny: usize, nz: usize, m: usize) -> pact_netlist::RcNetwork {
    substrate_mesh(&MeshSpec {
        nx,
        ny,
        nz,
        num_contacts: m,
        ..MeshSpec::table2()
    })
}

fn row(label: String, samples: &[f64]) -> Vec<String> {
    let (min, med) = min_median(samples);
    vec![label, secs(min), secs(med)]
}

/// Dense QL against block Lanczos on the same `E'`, both at the
/// `Transform1` layer: the factor and the moments are computed once,
/// outside the timed region.
fn bench_eigen_strategy(rows: &mut Vec<Vec<String>>) {
    let net = mesh(8, 8, 5, 12); // n ≈ 300: both solvers feasible
    let parts = Partitions::split(&net.stamp());
    let t1 = Transform1::compute(&parts).expect("transform");
    let lambda_c = CutoffSpec::new(1e9, 0.05).expect("spec").lambda_c();
    let dense = sample_secs(SAMPLES, || {
        sym_eig(&t1.e_prime_dense(&parts)).expect("dense QL")
    });
    rows.push(row("eigen/dense".to_owned(), &dense));
    let lanczos = sample_secs(SAMPLES, || {
        eigs_above(&t1.e_prime_operator(&parts), lambda_c, &ParCtx::serial()).expect("lanczos")
    });
    rows.push(row("eigen/lanczos".to_owned(), &lanczos));
}

fn bench_sparsify(rows: &mut Vec<Vec<String>>) {
    let net = mesh(12, 12, 5, 25);
    let opts = ReduceOptions::new(CutoffSpec::new(3e9, 0.05).expect("spec"));
    let red = pact::reduce_network(&net, &opts).expect("reduce");
    let (g, _) = red.model.to_matrices_normalized();
    for &tol in &[0.0, 1e-9, 1e-6, 1e-3] {
        let s = sample_secs(SAMPLES, || {
            let mut gg = g.clone();
            if tol > 0.0 {
                sparsify_preserving_passivity(&mut gg, tol);
            }
            gg
        });
        rows.push(row(format!("sparsify/{tol:e}"), &s));
    }
}

fn main() {
    let mut rows = Vec::new();
    bench_eigen_strategy(&mut rows);
    bench_sparsify(&mut rows);
    print_table(
        "Ablation timings",
        &["case", "min (s)", "median (s)"],
        &rows,
    );
}
