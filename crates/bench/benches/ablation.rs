//! Ablation benches for the design choices DESIGN.md §5 calls out:
//! Cholesky ordering, dense vs Lanczos pole analysis, and the
//! sparsification heuristic.
//!
//! Plain `main()` harness (no external bench framework); run with
//! `cargo bench -p pact-bench --bench ablation`.

use pact::{CutoffSpec, EigenSelect, ReduceOptions};
use pact_bench::{min_median, print_table, sample_secs, secs};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_netlist::sparsify_preserving_passivity;
use pact_sparse::{Ordering, SparseCholesky};

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

fn bench_ordering(rows: &mut Vec<Vec<String>>) {
    let net = mesh(12, 12, 6, 16);
    let parts = pact::Partitions::split(&net.stamp());
    for ord in [
        Ordering::Natural,
        Ordering::Rcm,
        Ordering::MinDegree,
        Ordering::NestedDissection,
    ] {
        let s = sample_secs(SAMPLES, || {
            SparseCholesky::factor(&parts.d, ord).expect("factor")
        });
        rows.push(row(format!("ordering/{ord:?}"), &s));
    }
}

fn bench_eigen_strategy(rows: &mut Vec<Vec<String>>) {
    let net = mesh(8, 8, 5, 12); // n ≈ 300: both strategies feasible
    for (label, eigen) in [
        ("dense", EigenSelect::LowRank),
        ("lanczos", EigenSelect::Lanczos(LanczosConfig::default())),
    ] {
        let opts = ReduceOptions {
            cutoff: CutoffSpec::new(1e9, 0.05).expect("spec"),
            eigen_backend: eigen,
            ordering: Ordering::Rcm,
            dense_threshold: 0,
            threads: None,
            pivot_relief: None,
            strategy: pact::ReduceStrategy::Flat,
        };
        let s = sample_secs(SAMPLES, || {
            pact::reduce_network(&net, &opts).expect("reduce")
        });
        rows.push(row(format!("eigen/{label}"), &s));
    }
}

fn bench_sparsify(rows: &mut Vec<Vec<String>>) {
    let net = mesh(12, 12, 5, 25);
    let opts = ReduceOptions {
        cutoff: CutoffSpec::new(3e9, 0.05).expect("spec"),
        eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
        ordering: Ordering::Rcm,
        dense_threshold: 0,
        threads: None,
        pivot_relief: None,
        strategy: pact::ReduceStrategy::Flat,
    };
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
    bench_ordering(&mut rows);
    bench_eigen_strategy(&mut rows);
    bench_sparsify(&mut rows);
    print_table(
        "Ablation timings",
        &["case", "min (s)", "median (s)"],
        &rows,
    );
}
