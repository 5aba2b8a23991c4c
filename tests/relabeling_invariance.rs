//! Relabeling a network's internal nodes changes the order nested
//! dissection meets them in, and so the Cholesky factor of `D`, but not
//! what PACT computes from it: `A′`, `B′` and the spectrum of `E′` agree
//! up to rounding. The line family is held to 1e-12 in `pact`'s own unit
//! tests; here the mesh, power-grid and multiplier-net families are.
//! Each bound is 100× the largest relative difference measured over the
//! three seeded relabelings, rounded up to one digit; the measured value
//! is written next to it.

use pact::{sanitize_network, Partitions, Transform1};
use pact_gen::{
    multiplier_like_deck, power_grid_deck, substrate_mesh, MeshSpec, MultiplierSpec, PowerGridSpec,
};
use pact_netlist::{extract_rc, Netlist, RcNetwork, Stamped};
use pact_sparse::{sym_eig, DMat, XorShiftRng};

/// The sanitized RC network of a deck, every node a port or internal.
fn deck_network(deck: &Netlist) -> RcNetwork {
    let raw = extract_rc(deck, &[]).unwrap().network;
    sanitize_network(&raw).unwrap().network
}

/// `A′`, `B′` and the ascending spectrum of the dense `E′` of `stamped`
/// with its internal nodes relabeled by `p` (internal node `k` of the
/// result is internal node `p[k]` of the input).
fn transform(stamped: &Stamped, p: &[usize]) -> (DMat<f64>, DMat<f64>, Vec<f64>) {
    let m = stamped.num_ports;
    let full: Vec<usize> = (0..m).chain(p.iter().map(|&k| m + k)).collect();
    let parts = Partitions::split(&Stamped {
        g: stamped.g.permute_sym(&full),
        c: stamped.c.permute_sym(&full),
        num_ports: m,
    });
    let t = Transform1::compute(&parts).unwrap();
    let poles = sym_eig(&t.e_prime_dense(&parts)).unwrap();
    (t.a1, t.b1, poles.values)
}

/// The largest differences of `A′`, `B′` and the spectrum over three
/// seeded relabelings, each relative to the identity labeling's largest
/// entry (largest eigenvalue).
fn worst_relative_differences(net: &RcNetwork) -> [f64; 3] {
    let stamped = net.stamp();
    let n = net.num_internal();
    let (a1, b1, lambdas) = transform(&stamped, &(0..n).collect::<Vec<_>>());
    let top = lambdas[lambdas.len() - 1];
    let mut rng = XorShiftRng::seed_from_u64(0x1abe1);
    let mut worst = [0.0f64; 3];
    for _ in 0..3 {
        let (a1o, b1o, lambdas_o) = transform(&stamped, &rng.permutation(n));
        worst[0] = worst[0].max((&a1o - &a1).norm_max() / a1.norm_max());
        worst[1] = worst[1].max((&b1o - &b1).norm_max() / b1.norm_max());
        for (x, y) in lambdas_o.iter().zip(&lambdas) {
            worst[2] = worst[2].max((x - y).abs() / top);
        }
    }
    worst
}

fn assert_within(family: &str, net: &RcNetwork, bounds: [f64; 3]) {
    let worst = worst_relative_differences(net);
    for ((what, got), bound) in ["A′", "B′", "E′ spectrum"].iter().zip(worst).zip(bounds) {
        assert!(
            got <= bound,
            "{family}: {what} moved by {got:e} under relabeling (bound {bound:e})"
        );
    }
}

#[test]
fn mesh_moments_and_poles_ignore_internal_labels() {
    let mesh = substrate_mesh(&MeshSpec {
        nx: 6,
        ny: 6,
        nz: 3,
        num_contacts: 6,
        ..MeshSpec::table2()
    });
    // Measured: 2.8e-16, 5.4e-16, 1.13e-15.
    assert_within("mesh", &mesh, [3e-14, 6e-14, 2e-13]);
}

#[test]
fn power_grid_moments_and_poles_ignore_internal_labels() {
    let grid = power_grid_deck(&PowerGridSpec {
        nx: 10,
        ny: 10,
        num_taps: 4,
        ..PowerGridSpec::default()
    });
    // Measured: 3.31e-15, 8.4e-16, 7.01e-16.
    assert_within(
        "powergrid",
        &deck_network(&grid.netlist),
        [4e-13, 9e-14, 8e-14],
    );
}

#[test]
fn multiplier_nets_moments_and_poles_ignore_internal_labels() {
    let (mult, _) = multiplier_like_deck(&MultiplierSpec {
        chains: 3,
        stages: 4,
        ..MultiplierSpec::scaled_down()
    });
    // Measured: 1.04e-15, 3.1e-16, 5.7e-16.
    assert_within("multiplier", &deck_network(&mult), [2e-13, 4e-14, 6e-14]);
}
