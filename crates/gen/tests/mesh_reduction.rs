//! Validates PACT on the mesh operator class the paper targets: Lanczos and
//! the dense eigensolver must find the same poles, the reduced model must
//! track the exact admittance, and the mesh's pole ladder must behave as
//! designed (wells dominate the low-frequency spectrum).

use pact::{CutoffSpec, EigenSelect, FullAdmittance, Partitions, ReduceOptions};
use pact_gen::{substrate_mesh, MeshSpec};
use pact_lanczos::LanczosConfig;

fn small_mesh() -> pact_netlist::RcNetwork {
    substrate_mesh(&MeshSpec {
        nx: 8,
        ny: 8,
        nz: 4,
        num_contacts: 9,
        ..MeshSpec::table2()
    })
}

#[test]
fn laso_matches_dense_oracle_on_mesh() {
    let net = small_mesh();
    let spec = CutoffSpec::new(2e9, 0.05).unwrap();
    let mut opts = ReduceOptions::new(spec);
    opts.eigen_backend = EigenSelect::LowRank;
    let dense = pact::reduce_network(&net, &opts).unwrap();
    opts.eigen_backend = EigenSelect::Lanczos(LanczosConfig::default());
    let laso = pact::reduce_network(&net, &opts).unwrap();
    assert_eq!(
        dense.model.num_poles(),
        laso.model.num_poles(),
        "pole count disagreement"
    );
    for (a, b) in dense.model.lambdas.iter().zip(&laso.model.lambdas) {
        assert!(
            (a - b).abs() < 1e-6 * a,
            "pole mismatch: dense {a:e} vs laso {b:e}"
        );
    }
}

#[test]
fn mesh_reduction_tracks_exact_admittance() {
    let net = small_mesh();
    let parts = Partitions::split(&net.stamp());
    let full = FullAdmittance::new(&parts);
    let fmax = 1e9;
    let red = pact::reduce_network(
        &net,
        &ReduceOptions::new(CutoffSpec::new(fmax, 0.05).unwrap()),
    )
    .unwrap();
    for k in 1..=6 {
        let f = fmax * k as f64 / 6.0;
        let ye = full.y_at(f).unwrap();
        let yr = red.model.y_at(f);
        let m = parts.m;
        let scale = (0..m)
            .flat_map(|i| (0..m).map(move |j| (i, j)))
            .map(|(i, j)| ye[(i, j)].abs())
            .fold(1e-300, f64::max);
        for i in 0..m {
            for j in 0..m {
                assert!(
                    (yr[(i, j)] - ye[(i, j)]).abs() / scale < 0.06,
                    "f={f:e} ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn well_count_bounds_low_frequency_poles() {
    // The generator's well sites create the slow poles; the retained pole
    // count at a cutoff covering the whole well ladder must be close to
    // the well count (plus possibly a few mesh modes).
    let spec = MeshSpec {
        nx: 12,
        ny: 12,
        nz: 4,
        num_contacts: 16,
        num_wells: 5,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    let red = pact::reduce_network(
        &net,
        &ReduceOptions::new(CutoffSpec::new(4e9, 0.05).unwrap()),
    )
    .unwrap();
    let poles = red.model.num_poles();
    assert!(
        (3..=12).contains(&poles),
        "expected a handful of well poles, got {poles}"
    );
}

#[test]
fn backside_contact_is_required_for_definiteness() {
    // Without any DC path (no backside, no grounded resistor), D is
    // singular and the reduction must report it rather than mis-compute.
    let spec = MeshSpec {
        nx: 5,
        ny: 5,
        nz: 2,
        num_contacts: 4,
        backside: false,
        ..MeshSpec::table2()
    };
    let net = substrate_mesh(&spec);
    // With contacts present internal nodes still reach ports through the
    // mesh, so this configuration is reducible...
    let ok = pact::reduce_network(
        &net,
        &ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap()),
    );
    assert!(ok.is_ok(), "mesh with surface contacts must be reducible");
}

#[test]
fn matrix_free_pcg_reduction_works_on_mesh() {
    // The fully matrix-free path (pencil Lanczos + PCG D-solves, no
    // factorization at all) must agree with the standard reduction on the
    // paper's mesh operator class.
    let net = small_mesh();
    let spec = CutoffSpec::new(2e9, 0.05).unwrap();
    let standard = pact::reduce_network(&net, &ReduceOptions::new(spec)).unwrap();
    let parts = Partitions::split(&net.stamp());
    let ports = net.node_names[..net.num_ports].to_vec();
    let solver = pact::PcgSolver::new(&parts.d).unwrap();
    let mf = pact::reduce_matrix_free(&parts, &ports, &spec, &solver).unwrap();
    assert_eq!(mf.model.num_poles(), standard.model.num_poles());
    for (a, b) in mf.model.lambdas.iter().zip(&standard.model.lambdas) {
        assert!((a - b).abs() < 1e-5 * a, "{a} vs {b}");
    }
    assert!(mf.model.is_passive(1e-7));
    // Admittance agreement at the band edge.
    let f = 2e9;
    let ya = mf.model.y_at(f);
    let yb = standard.model.y_at(f);
    let m = parts.m;
    let scale = (0..m)
        .flat_map(|i| (0..m).map(move |j| (i, j)))
        .map(|(i, j)| yb[(i, j)].abs())
        .fold(1e-300, f64::max);
    for i in 0..m {
        for j in 0..m {
            assert!((ya[(i, j)] - yb[(i, j)]).abs() < 1e-5 * scale);
        }
    }
}
