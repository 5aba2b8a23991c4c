//! The Elmore certificate never drops a pole.
//!
//! A flat reduction skips Lanczos when `pact::elmore_bound` proves the
//! block keeps no pole (`pact::certifies_pole_free`). These tests hold
//! the bound above the largest eigenvalue of the dense `E'` on every
//! generator family and on random cores at several capacitance scales,
//! check that Lanczos on the same `Transform1` finds nothing whenever the
//! bound certifies (also at cutoffs just past the bound), and check that
//! the bound declines when its premises fail: a `D` with a positive
//! off-diagonal entry, or a factor with perturbed pivots.

use pact::{
    certifies_pole_free, elmore_bound, lanczos_poles, reduce, sanitize_network, CutoffSpec,
    Partitions, ReduceOptions, Transform1,
};
use pact_gen::{
    chain_heavy_deck, full_adder_deck, inverter_pair_deck, multiplier_like_deck, power_grid_deck,
    rich_mixed_deck, substrate_mesh, ChainDeckSpec, LineSpec, MeshSpec, MultiplierSpec,
    PowerGridSpec, RichDeckSpec,
};
use pact_netlist::{extract_rc, Branch, Netlist, RcNetwork, Stamped};
use pact_sparse::{sym_eig, ParCtx, PivotPolicy, SparseCholesky, TripletMat, XorShiftRng};

/// The connected components with ports and internal nodes of a deck's
/// sanitized RC network: the blocks a reduction runs the pole analysis on.
fn deck_blocks(name: &str, deck: &Netlist, ports: &[&str]) -> Vec<(String, RcNetwork)> {
    let raw = extract_rc(deck, ports).unwrap().network;
    network_blocks(name, &sanitize_network(&raw).unwrap().network)
}

fn network_blocks(name: &str, net: &RcNetwork) -> Vec<(String, RcNetwork)> {
    let comps = net.components();
    (0..comps.len())
        .map(|k| comps.network(net, k))
        .filter(|c| c.num_ports > 0 && c.num_internal() > 0)
        .enumerate()
        .map(|(k, c)| (format!("{name}/component{k}"), c))
        .collect()
}

/// A connected random RC core: a grounded spanning resistor tree plus
/// cross links, a capacitor to ground on every node and coupling
/// capacitors between random node pairs, all scaled by `cap_scale`.
fn random_core(seed: u64, ports: usize, internals: usize, cap_scale: f64) -> RcNetwork {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let n = ports + internals;
    let mut resistors = vec![Branch {
        a: Some(0),
        b: None,
        value: rng.gen_range_f64(10.0, 1_000.0),
    }];
    for k in 1..n {
        resistors.push(Branch {
            a: Some(k),
            b: Some(rng.gen_index(k)),
            value: rng.gen_range_f64(1.0, 5_000.0),
        });
    }
    let mut capacitors: Vec<Branch> = (0..n)
        .map(|k| Branch {
            a: Some(k),
            b: None,
            value: cap_scale * rng.gen_range_f64(1e-15, 5e-12),
        })
        .collect();
    for _ in 0..n / 2 {
        let (a, b) = (rng.gen_index(n), rng.gen_index(n));
        if a != b {
            resistors.push(Branch {
                a: Some(a),
                b: Some(b),
                value: rng.gen_range_f64(100.0, 50_000.0),
            });
            capacitors.push(Branch {
                a: Some(a),
                b: Some(b),
                value: cap_scale * rng.gen_range_f64(1e-16, 1e-12),
            });
        }
    }
    let mut node_names: Vec<String> = (0..ports).map(|i| format!("p{i}")).collect();
    node_names.extend((0..internals).map(|i| format!("n{i}")));
    RcNetwork {
        node_names,
        num_ports: ports,
        resistors,
        capacitors,
    }
}

/// Every generator family, kept small enough for dense eigenvalues.
fn blocks() -> Vec<(String, RcNetwork)> {
    let mut out = Vec::new();
    let line = inverter_pair_deck(&LineSpec {
        segments: 60,
        ..LineSpec::default()
    });
    out.extend(deck_blocks("line", &line, &[]));
    let mesh = substrate_mesh(&MeshSpec {
        nx: 6,
        ny: 6,
        nz: 3,
        num_contacts: 6,
        ..MeshSpec::table2()
    });
    out.extend(network_blocks("mesh", &mesh));
    let grid = power_grid_deck(&PowerGridSpec {
        nx: 10,
        ny: 10,
        num_taps: 4,
        ..PowerGridSpec::default()
    });
    out.extend(deck_blocks("powergrid", &grid.netlist, &[]));
    let (mult, _) = multiplier_like_deck(&MultiplierSpec {
        chains: 3,
        stages: 4,
        ..MultiplierSpec::scaled_down()
    });
    out.extend(deck_blocks("multiplier", &mult, &[]));
    let adder = full_adder_deck(&MeshSpec {
        nx: 7,
        ny: 7,
        nz: 2,
        num_contacts: 25,
        ..MeshSpec::table2()
    });
    out.extend(deck_blocks(
        "adder",
        &adder.netlist,
        &[adder.monitor_port.as_str()],
    ));
    let chain = chain_heavy_deck(&ChainDeckSpec {
        chains: 3,
        segments: 40,
        ..ChainDeckSpec::default()
    });
    out.extend(deck_blocks("chain", &chain, &[]));
    let rich = rich_mixed_deck(&RichDeckSpec {
        segments: 40,
        ..RichDeckSpec::default()
    });
    out.extend(deck_blocks("embedded", &rich, &[]));
    for (seed, scale) in (0..6).zip([1e-3, 1.0, 1e3].into_iter().cycle()) {
        let core = random_core(seed, 1 + seed as usize % 3, 12 + 5 * seed as usize, scale);
        out.extend(network_blocks(&format!("random{seed}x{scale:e}"), &core));
    }
    out
}

#[test]
fn the_bound_is_above_every_pole_and_certified_blocks_have_none() {
    let ctx = ParCtx::serial();
    let mut certified = 0;
    let blocks = blocks();
    for (name, net) in &blocks {
        let parts = Partitions::split(&net.stamp());
        let n = parts.n;
        assert!(
            n <= 400,
            "{name}: {n} nodes is too large for the dense oracle"
        );
        let (chol, diag) = SparseCholesky::factor_diagnosed(&parts.d, PivotPolicy::Error).unwrap();
        let t1 = Transform1::with_factor(&parts, chol, &ctx);
        let tau = elmore_bound(&t1.chol, &diag, &parts)
            .unwrap_or_else(|| panic!("{name}: a resistor network's D is a Z-matrix"));
        let eig = sym_eig(&t1.e_prime_dense(&parts)).unwrap();
        let lam_max = eig.values.iter().copied().fold(0.0, f64::max);
        assert!(
            tau >= lam_max * (1.0 - 1e-12),
            "{name}: bound {tau:e} below the largest eigenvalue {lam_max:e}"
        );
        // Cutoffs just past the bound must certify and find nothing;
        // one just below the largest pole must do neither.
        for lambda_c in [tau * (1.0 + 2.5e-6), tau * 1.1, tau * 4.0] {
            assert!(
                certifies_pole_free(tau, lambda_c, n),
                "{name}: {lambda_c:e}"
            );
            let sol = lanczos_poles(&t1, &parts, lambda_c, &ctx).unwrap();
            assert!(
                sol.lambdas.is_empty(),
                "{name}: certified pole-free at {lambda_c:e}, Lanczos kept {:?}",
                sol.lambdas
            );
            certified += 1;
        }
        if lam_max > 0.0 {
            let lambda_c = lam_max * (1.0 - 1e-3);
            assert!(!certifies_pole_free(tau, lambda_c, n), "{name}");
            let sol = lanczos_poles(&t1, &parts, lambda_c, &ctx).unwrap();
            assert!(
                !sol.lambdas.is_empty(),
                "{name}: Lanczos missed the top pole"
            );
        }
        // The cutoffs a 5 % reduction uses at 0.1–10 GHz.
        for f_max in [1e8, 1e9, 1e10] {
            let lambda_c = CutoffSpec::new(f_max, 0.05).unwrap().lambda_c();
            if certifies_pole_free(tau, lambda_c, n) {
                let sol = lanczos_poles(&t1, &parts, lambda_c, &ctx).unwrap();
                assert!(sol.lambdas.is_empty(), "{name}: {f_max:e} Hz");
            }
        }
    }
    let families = [
        "line",
        "mesh",
        "powergrid",
        "multiplier",
        "adder",
        "chain",
        "embedded",
        "random",
    ];
    for family in families {
        assert!(
            blocks.iter().any(|(name, _)| name.starts_with(family)),
            "no block from {family}"
        );
    }
    assert_eq!(certified, 3 * blocks.len());
}

/// Two ports and two internal nodes whose `D` has the off-diagonal `d01`.
fn two_node_block(d01: f64) -> Stamped {
    let mut g = TripletMat::new(4, 4);
    for (i, j, v) in [
        (0, 0, 1e-3),
        (1, 1, 1e-3),
        (0, 2, -1e-3),
        (2, 0, -1e-3),
        (1, 3, -1e-3),
        (3, 1, -1e-3),
        (2, 2, 3e-3),
        (3, 3, 3e-3),
        (2, 3, d01),
        (3, 2, d01),
    ] {
        g.push(i, j, v);
    }
    let mut c = TripletMat::new(4, 4);
    c.push(2, 2, 1e-15);
    c.push(3, 3, 1e-15);
    Stamped {
        g: g.to_csr(),
        c: c.to_csr(),
        num_ports: 2,
    }
}

#[test]
fn the_bound_declines_without_its_premises() {
    // A positive off-diagonal in D: still positive definite, no bound.
    for (d01, bounded) in [(-1e-3, true), (1e-3, false)] {
        let parts = Partitions::split(&two_node_block(d01));
        let (chol, diag) = SparseCholesky::factor_diagnosed(&parts.d, PivotPolicy::Error).unwrap();
        assert_eq!(
            elmore_bound(&chol, &diag, &parts).is_some(),
            bounded,
            "{d01}"
        );

        // Through a reduction: Lanczos runs and no ratio is recorded.
        let names = vec!["p0".to_owned(), "p1".to_owned()];
        let opts = ReduceOptions::new(CutoffSpec::new(1e9, 0.05).unwrap());
        let red = reduce(&two_node_block(d01), &names, &opts).unwrap();
        let choice = &red.telemetry.eigen_choices[0];
        if bounded {
            assert_eq!(choice.backend, "elmore_bound");
            assert!(choice.elmore_ratio.is_some_and(|r| r < 1.0));
            assert_eq!(red.telemetry.counters.eigen_certified, 1);
        } else {
            assert_eq!(choice.backend, "lanczos");
            assert_eq!(choice.elmore_ratio, None);
            assert_eq!(red.telemetry.counters.eigen_certified, 0);
        }
    }

    // Perturbed pivots: an internal node with no resistive path (a zero
    // row of D) is raised to the relief floor; the factor is of D + ΔD.
    let mut g = TripletMat::new(3, 3);
    g.stamp_conductance(Some(0), Some(1), 1e-3);
    g.stamp_conductance(Some(0), None, 1e-3);
    let mut c = TripletMat::new(3, 3);
    c.stamp_conductance(Some(1), Some(2), 1e-15);
    c.stamp_conductance(Some(2), None, 1e-15);
    let parts = Partitions::split(&Stamped {
        g: g.to_csr(),
        c: c.to_csr(),
        num_ports: 1,
    });
    let relief = PivotPolicy::Perturb {
        rel_threshold: 1e-12,
    };
    let (chol, diag) = SparseCholesky::factor_diagnosed(&parts.d, relief).unwrap();
    assert_eq!(
        diag.perturbed.len(),
        1,
        "the floating node's pivot is relieved"
    );
    assert_eq!(elmore_bound(&chol, &diag, &parts), None);
}
