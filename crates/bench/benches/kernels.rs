//! Timing bench for the numerical kernels underlying PACT: sparse
//! Cholesky factorization of `D`, Lanczos pole analysis, the first
//! congruence transform, and the end-to-end reduction.
//!
//! Plain `main()` harness (no external bench framework): each case runs a
//! warm-up pass plus a fixed number of timed iterations and reports
//! min/median wall-clock seconds.
//!
//! Run with `cargo bench -p pact-bench --bench kernels`.

use pact::{CutoffSpec, Partitions, ReduceOptions, Transform1};
use pact_bench::{min_median, print_table, sample_secs, secs};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::eigs_above;
use pact_sparse::{ldl_update_trapezoid, CholKernel, ParCtx, PivotPolicy, SparseCholesky};

const SAMPLES: usize = 10;

fn mesh_parts(
    nx: usize,
    ny: usize,
    nz: usize,
    contacts: usize,
) -> (pact_netlist::RcNetwork, Partitions) {
    let spec = MeshSpec {
        nx,
        ny,
        nz,
        num_contacts: contacts,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    let parts = Partitions::split(&net.stamp());
    (net, parts)
}

fn row(label: &str, samples: &[f64]) -> Vec<String> {
    let (min, med) = min_median(samples);
    vec![label.to_owned(), secs(min), secs(med)]
}

fn bench_cholesky(rows: &mut Vec<Vec<String>>) {
    for (label, dims) in [
        ("cholesky/mesh_500", (10, 10, 5)),
        ("cholesky/mesh_2k", (16, 16, 8)),
    ] {
        let (_, parts) = mesh_parts(dims.0, dims.1, dims.2, 16);
        // A/B the two numeric kernels over the production (nested
        // dissection) ordering: the supernodal blocked panels vs the
        // scalar up-looking reference.
        for kernel in [CholKernel::Supernodal, CholKernel::Scalar] {
            let s = sample_secs(SAMPLES, || {
                SparseCholesky::factor_analyzed_with_kernel(&parts.d, PivotPolicy::Error, kernel)
                    .expect("factor")
            });
            rows.push(row(&format!("{label}/{kernel:?}"), &s));
        }
    }
}

/// The supernodal hot loop in isolation: one trapezoidal panel-panel
/// update `out = L_panel · D · L_blockᵀ` at representative panel shapes
/// (descendant rows × supernode width), the cache-blocked kernel that
/// replaces the scalar dot-product inner loop.
fn bench_panel_update(rows: &mut Vec<Vec<String>>) {
    for (m, width) in [(64usize, 8usize), (256, 16), (1024, 32)] {
        let ld = m + width;
        let mut panel = vec![0.0f64; ld * width];
        for (i, v) in panel.iter_mut().enumerate() {
            *v = ((i % 97) as f64 - 48.0) * 1e-2;
        }
        let dvals: Vec<f64> = (0..width).map(|t| 1.0 + t as f64).collect();
        let nc = width.min(m);
        let mut out = vec![0.0f64; m * nc];
        let s = sample_secs(SAMPLES, || {
            ldl_update_trapezoid(&panel, ld, width, m, nc, width, &dvals, &mut out);
            out[0]
        });
        rows.push(row(&format!("panel_update/{m}x{width}"), &s));
    }
}

fn bench_transform1(rows: &mut Vec<Vec<String>>) {
    for &m in &[8usize, 32] {
        let (_, parts) = mesh_parts(14, 14, 5, m);
        let s = sample_secs(SAMPLES, || Transform1::compute(&parts).expect("t1"));
        rows.push(row(&format!("transform1/ports_{m}"), &s));
    }
}

fn bench_lanczos(rows: &mut Vec<Vec<String>>) {
    let (_, parts) = mesh_parts(14, 14, 5, 16);
    let t1 = Transform1::compute(&parts).expect("t1");
    let lambda_c = CutoffSpec::new(1e9, 0.05).expect("spec").lambda_c();
    let op = t1.e_prime_operator(&parts);
    let s = sample_secs(SAMPLES, || {
        eigs_above(&op, lambda_c, &ParCtx::serial()).expect("lanczos")
    });
    rows.push(row("lanczos/mesh_1k_cutoff_1GHz", &s));
}

fn bench_reduce(rows: &mut Vec<Vec<String>>) {
    for (label, dims) in [
        ("reduce/mesh_500", (10, 10, 5)),
        ("reduce/mesh_1k", (14, 14, 5)),
    ] {
        let spec = MeshSpec {
            nx: dims.0,
            ny: dims.1,
            nz: dims.2,
            num_contacts: 25,
            ..MeshSpec::table2()
        };
        let net = substrate_mesh(&spec);
        let opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).expect("spec"));
        let s = sample_secs(SAMPLES, || {
            pact::reduce_network(&net, &opts).expect("reduce")
        });
        rows.push(row(label, &s));
    }
}

fn main() {
    let mut rows = Vec::new();
    bench_cholesky(&mut rows);
    bench_panel_update(&mut rows);
    bench_transform1(&mut rows);
    bench_lanczos(&mut rows);
    bench_reduce(&mut rows);
    print_table("Kernel timings", &["case", "min (s)", "median (s)"], &rows);
}
