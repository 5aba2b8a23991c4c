//! Section 4: computational complexity of PACT versus the Padé-based
//! methods as the number of ports grows. Sweeps the contact count of a
//! fixed-size substrate mesh and reports measured time plus the
//! measured/modelled memory of both approaches — the paper's claim is
//! that the Padé block memory and orthogonalization work grow with `m`
//! while PACT's do not. PACT's one `m`-wide buffer, the `X_S` panel of
//! the first transform (`|S|·m` for the `|S|` capacitive internal nodes),
//! is printed next to the Padé block it is the counterpart of.

use pact::{CutoffSpec, EigenSelect, ReduceOptions};
use pact_baselines::{block_krylov_reduce, mpvl_memory, pact_lanczos_memory};
use pact_bench::{mb, print_table, secs, timed};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;
use pact_sparse::Ordering;

fn main() {
    println!("# Section 4: complexity vs number of ports m (fixed mesh)");
    let mut rows = Vec::new();
    for &m in &[8usize, 16, 32, 64, 128] {
        let spec = MeshSpec {
            nx: 20,
            ny: 20,
            nz: 5,
            num_contacts: m,
            ..MeshSpec::table2()
        };
        let net = substrate_mesh(&spec);
        let stamped = net.stamp();
        let parts = pact::Partitions::split(&stamped);
        let ports: Vec<String> = net.node_names[..net.num_ports].to_vec();
        let n = parts.n;

        let opts = ReduceOptions {
            cutoff: CutoffSpec::new(1e9, 0.05).expect("cutoff"),
            eigen_backend: EigenSelect::Lanczos(LanczosConfig::default()),
            ordering: Ordering::NestedDissection,
            dense_threshold: 0,
            threads: None,
            pivot_relief: None,
            strategy: pact::ReduceStrategy::Flat,
            expansion_points: None,
            chol_kernel: pact::CholKernel::Auto,
        };
        let (pact_red, t_pact) = timed(|| pact::reduce_network(&net, &opts).expect("pact"));
        let lanczos = pact_red.stats.lanczos.unwrap_or_default();

        // Same reduction with the scalar up-looking Cholesky kernel:
        // isolates the supernodal speedup on the factorization hot path.
        let scalar_opts = ReduceOptions {
            expansion_points: None,
            chol_kernel: pact::CholKernel::Scalar,
            ..opts.clone()
        };
        let (_, t_scalar) =
            timed(|| pact::reduce_network(&net, &scalar_opts).expect("pact scalar"));

        let (krylov, t_kry) =
            timed(|| block_krylov_reduce(&parts, &ports, 2, Ordering::Rcm).expect("krylov"));

        // Transform 1's X_S panel: D⁻¹Q on the capacitive internal nodes.
        let xs_bytes = parts.capacitive_internals().len() * m * 8;
        rows.push(vec![
            format!("{m}"),
            format!("{n}"),
            format!("{}", pact_red.model.num_poles()),
            secs(t_pact),
            secs(t_scalar),
            format!("{}", lanczos.orthogonalizations),
            mb(pact_lanczos_memory(n, pact_red.model.num_poles())),
            mb(pact_red.stats.modelled_memory_bytes),
            secs(t_kry),
            format!("{}", krylov.orthogonalizations),
            mb(krylov.basis_memory_bytes),
            format!("{:.2}", xs_bytes as f64 / 1e6),
            mb(mpvl_memory(m, n)),
        ]);
    }
    print_table(
        "PACT (Lanczos) vs block-Krylov Padé vs MPVL model — paper: Padé memory/ops grow as m², PACT's do not",
        &[
            "ports m",
            "internal n",
            "poles",
            "supernodal (s)",
            "scalar chol (s)",
            "PACT orth ops",
            "PACT eig mem (MB)",
            "RCFIT mem (MB)",
            "Padé time (s)",
            "Padé orth ops",
            "Padé basis mem (MB)",
            "PACT X_S mem (MB)",
            "MPVL model mem (MB)",
        ],
        &rows,
    );
    println!(
        "(measured columns from the implementations; 'PACT eig mem' and 'MPVL model mem' from \
         the Section-4 formulas; 'RCFIT mem' is the reduction's modelled peak, factor included)"
    );
    println!(
        "(PACT X_S = |S|·m·8 bytes: the rows of D⁻¹Q that Transform 1 keeps, one per internal \
         node with capacitance; it grows with m like the Padé block, but over |S| rows, not n)"
    );
}
