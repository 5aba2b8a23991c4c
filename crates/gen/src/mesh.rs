//! 3-D substrate mesh generator — the stand-in for the paper's
//! Voronoi-tessellated substrate macromodels (Tables 2–4).
//!
//! The substrate is modelled as a uniform 3-D resistor grid. Contact
//! (port) nodes sit on the top surface; junction capacitance loads each
//! contact and oxide/field capacitance loads the remaining surface
//! nodes. The resulting pole structure — a handful of poles in the
//! 100 MHz–10 GHz range set by contact capacitance against spreading
//! resistance — is what PACT exploits.

use pact_netlist::{Branch, Element, RcNetwork};
use pact_sparse::XorShiftRng;

/// Parameters for [`substrate_mesh`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeshSpec {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z (depth).
    pub nz: usize,
    /// Resistance of one lateral grid edge (Ω).
    pub r_edge: f64,
    /// Resistance of one vertical grid edge (Ω) — bulk silicon is more
    /// conductive downward in this simple model.
    pub r_edge_z: f64,
    /// Number of surface contact nodes that become ports.
    pub num_contacts: usize,
    /// Junction capacitance at each contact (F).
    pub c_contact: f64,
    /// Field/oxide capacitance at each non-contact surface node (F).
    pub c_surface: f64,
    /// Number of internal surface "well/diffusion" sites carrying a large
    /// junction capacitance — these create the handful of low-GHz poles
    /// the paper's Table 2 retains.
    pub num_wells: usize,
    /// Base well junction capacitance (F); well `k` carries
    /// `c_well / (1 + well_spread·k)` so the poles ladder over a band.
    pub c_well: f64,
    /// Relative pole spacing of consecutive wells (see `c_well`).
    pub well_spread: f64,
    /// Fraction of bottom-plane nodes grounded through a resistance
    /// (backside contact); 0 disables.
    pub backside: bool,
    /// RNG seed for contact placement jitter.
    pub seed: u64,
}

impl MeshSpec {
    /// A mesh sized like Table 2's: ≈1525 nodes, ≈25 ports.
    pub fn table2() -> Self {
        MeshSpec {
            nx: 16,
            ny: 16,
            nz: 6,
            r_edge: 350.0,
            r_edge_z: 120.0,
            num_contacts: 25,
            c_contact: 0.35e-12,
            c_surface: 12e-15,
            num_wells: 7,
            c_well: 2.4e-12,
            well_spread: 1.05,
            backside: true,
            seed: 42,
        }
    }

    /// A mesh sized like Table 4's: ≈20k nodes, 469 ports.
    pub fn table4() -> Self {
        MeshSpec {
            nx: 53,
            ny: 48,
            nz: 8,
            r_edge: 350.0,
            r_edge_z: 120.0,
            num_contacts: 469,
            c_contact: 0.35e-12,
            c_surface: 12e-15,
            num_wells: 16,
            c_well: 5.5e-12,
            well_spread: 0.15,
            backside: true,
            seed: 7,
        }
    }

    /// Total node count of the grid.
    pub fn num_nodes(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// Generates the substrate mesh as an [`RcNetwork`] with contacts as
/// ports (ordered first). Port names are `port0…port{k-1}`; internal
/// nodes are `sub_x_y_z`.
///
/// # Panics
///
/// Panics if `num_contacts` exceeds the surface node count or any
/// dimension is zero.
pub fn substrate_mesh(spec: &MeshSpec) -> RcNetwork {
    assert!(spec.nx > 0 && spec.ny > 0 && spec.nz > 0, "empty mesh");
    assert!(
        spec.num_contacts <= spec.nx * spec.ny,
        "more contacts than surface nodes"
    );
    let id = |x: usize, y: usize, z: usize| (z * spec.ny + y) * spec.nx + x;
    let total = spec.num_nodes();

    // Choose contact sites on a jittered grid over the surface.
    let contacts = contact_sites(spec);
    let mut is_contact = vec![false; total];
    let mut contact_order = vec![usize::MAX; total];
    for (k, &(x, y)) in contacts.iter().enumerate() {
        let node = id(x, y, 0);
        is_contact[node] = true;
        contact_order[node] = k;
    }

    // Node numbering: ports first (contact order), then the rest.
    let m = contacts.len();
    let mut index = vec![usize::MAX; total];
    let mut node_names: Vec<String> = vec![String::new(); m];
    for (k, &(x, y)) in contacts.iter().enumerate() {
        index[id(x, y, 0)] = k;
        node_names[k] = format!("port{k}");
    }
    let mut next = m;
    for z in 0..spec.nz {
        for y in 0..spec.ny {
            for x in 0..spec.nx {
                let n = id(x, y, z);
                if index[n] == usize::MAX {
                    index[n] = next;
                    node_names.push(format!("sub_{x}_{y}_{z}"));
                    next += 1;
                }
            }
        }
    }

    // Well/diffusion sites: the first `num_wells` non-contact surface
    // nodes on a coarse diagonal, with deterministically varied values.
    let mut well_cap = vec![0.0f64; total];
    {
        let mut placed = 0usize;
        let mut step = 0usize;
        while placed < spec.num_wells && step < spec.nx * spec.ny {
            let x = (step * 7 + 3) % spec.nx;
            let y = (step * 5 + 2) % spec.ny;
            let node = id(x, y, 0);
            if !is_contact[node] && well_cap[node] == 0.0 {
                // Geometric-ish spread: well k is ~(1 + k) times faster
                // than well 0, giving a pole ladder over ~a decade.
                well_cap[node] = spec.c_well / (1.0 + spec.well_spread * placed as f64);
                placed += 1;
            }
            step += 1;
        }
    }

    let mut resistors = Vec::new();
    let mut capacitors = Vec::new();
    for z in 0..spec.nz {
        for y in 0..spec.ny {
            for x in 0..spec.nx {
                let n = index[id(x, y, z)];
                if x + 1 < spec.nx {
                    resistors.push(Branch {
                        a: Some(n),
                        b: Some(index[id(x + 1, y, z)]),
                        value: spec.r_edge,
                    });
                }
                if y + 1 < spec.ny {
                    resistors.push(Branch {
                        a: Some(n),
                        b: Some(index[id(x, y + 1, z)]),
                        value: spec.r_edge,
                    });
                }
                if z + 1 < spec.nz {
                    resistors.push(Branch {
                        a: Some(n),
                        b: Some(index[id(x, y, z + 1)]),
                        value: spec.r_edge_z,
                    });
                }
                if z == 0 {
                    // Surface capacitance: junction at contacts, well
                    // junction at well sites, field oxide elsewhere.
                    let c = if is_contact[id(x, y, z)] {
                        spec.c_contact
                    } else if well_cap[id(x, y, z)] > 0.0 {
                        well_cap[id(x, y, z)]
                    } else {
                        spec.c_surface
                    };
                    if c > 0.0 {
                        capacitors.push(Branch {
                            a: Some(n),
                            b: None,
                            value: c,
                        });
                    }
                }
                if spec.backside && z == spec.nz - 1 {
                    // Backside contact: low-resistance path to ground so
                    // every internal node has a DC path (D stays PD).
                    resistors.push(Branch {
                        a: Some(n),
                        b: None,
                        value: spec.r_edge_z * 4.0,
                    });
                }
            }
        }
    }
    RcNetwork {
        node_names,
        num_ports: m,
        resistors,
        capacitors,
    }
}

/// Contact positions: a jittered sub-grid over the surface.
fn contact_sites(spec: &MeshSpec) -> Vec<(usize, usize)> {
    let mut rng = XorShiftRng::seed_from_u64(spec.seed);
    let k = spec.num_contacts;
    // Grid of ceil(sqrt(k)) × ceil(sqrt(k)) candidate cells.
    let side = (k as f64).sqrt().ceil() as usize;
    let mut sites = Vec::with_capacity(k);
    let mut used = std::collections::BTreeSet::new();
    'outer: for gy in 0..side {
        for gx in 0..side {
            if sites.len() >= k {
                break 'outer;
            }
            let cx =
                ((gx * spec.nx) / side + rng.gen_index((spec.nx / side).max(1))).min(spec.nx - 1);
            let cy =
                ((gy * spec.ny) / side + rng.gen_index((spec.ny / side).max(1))).min(spec.ny - 1);
            let mut p = (cx, cy);
            // Resolve collisions by scanning forward.
            while used.contains(&p) {
                p = (
                    (p.0 + 1) % spec.nx,
                    if p.0 + 1 == spec.nx {
                        (p.1 + 1) % spec.ny
                    } else {
                        p.1
                    },
                );
            }
            used.insert(p);
            sites.push(p);
        }
    }
    // Fill any shortfall deterministically.
    'fill: for y in 0..spec.ny {
        for x in 0..spec.nx {
            if sites.len() >= k {
                break 'fill;
            }
            if !used.contains(&(x, y)) {
                used.insert((x, y));
                sites.push((x, y));
            }
        }
    }
    sites
}

/// Adds a coupling capacitor of `c_couple` farads alongside every
/// resistor that joins two nodes which already carry capacitance — on a
/// [`substrate_mesh`], the lateral coupling between neighbouring
/// surface nodes. Contacts are ports, so the result has port–port,
/// port–internal (a nonzero `R` block) and internal–internal (an
/// off-diagonal `E`) coupling, while the nodes below the surface stay
/// capacitance-free.
pub fn with_neighbour_coupling(mut net: RcNetwork, c_couple: f64) -> RcNetwork {
    let mut capacitive = vec![false; net.num_nodes()];
    for c in &net.capacitors {
        for v in [c.a, c.b].into_iter().flatten() {
            capacitive[v] = true;
        }
    }
    let coupling: Vec<Branch> = net
        .resistors
        .iter()
        .filter_map(|r| match (r.a, r.b) {
            (Some(a), Some(b)) if capacitive[a] && capacitive[b] => Some(Branch {
                a: Some(a),
                b: Some(b),
                value: c_couple,
            }),
            _ => None,
        })
        .collect();
    net.capacitors.extend(coupling);
    net
}

/// Converts an [`RcNetwork`] into SPICE elements (for splicing a mesh
/// into a transistor-level deck). Element names get `prefix`.
pub fn network_to_elements(net: &RcNetwork, prefix: &str) -> Vec<Element> {
    let name_of = |n: Option<usize>| -> String {
        match n {
            Some(i) => net.node_names[i].clone(),
            None => "0".to_owned(),
        }
    };
    let mut out = Vec::with_capacity(net.resistors.len() + net.capacitors.len());
    for (k, r) in net.resistors.iter().enumerate() {
        out.push(Element::resistor(
            format!("R{prefix}{k}"),
            name_of(r.a),
            name_of(r.b),
            r.value,
        ));
    }
    for (k, c) in net.capacitors.iter().enumerate() {
        out.push(Element::capacitor(
            format!("C{prefix}{k}"),
            name_of(c.a),
            name_of(c.b),
            c.value,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_sparse::Ordering;

    #[test]
    fn table2_mesh_counts_near_paper() {
        let spec = MeshSpec::table2();
        let net = substrate_mesh(&spec);
        // Paper: 1525 total nodes, 25 ports, 4970 R's, 253 C's.
        assert_eq!(net.num_ports, 25);
        let nodes = net.num_nodes();
        assert!(
            (1300..=1700).contains(&nodes),
            "nodes = {nodes}, paper has 1525"
        );
        let (r, c) = net.element_counts();
        assert!((3500..=6500).contains(&r), "R count {r}, paper 4970");
        assert!((200..=300).contains(&c), "C count {c}, paper 253");
    }

    #[test]
    fn mesh_is_reducible() {
        // D must be positive definite (backside contact gives DC paths).
        let spec = MeshSpec {
            nx: 6,
            ny: 6,
            nz: 3,
            num_contacts: 5,
            ..MeshSpec::table2()
        };
        let net = substrate_mesh(&spec);
        let st = net.stamp();
        let parts = pact::Partitions::split(&st);
        assert!(pact::Transform1::compute(&parts, Ordering::Rcm).is_ok());
    }

    #[test]
    fn ports_are_distinct_surface_nodes() {
        let spec = MeshSpec {
            nx: 8,
            ny: 8,
            nz: 2,
            num_contacts: 10,
            ..MeshSpec::table2()
        };
        let net = substrate_mesh(&spec);
        assert_eq!(net.num_ports, 10);
        // All port names unique.
        let mut names: Vec<&String> = net.node_names[..10].iter().collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn stamped_matrices_are_well_formed() {
        let spec = MeshSpec {
            nx: 5,
            ny: 4,
            nz: 3,
            num_contacts: 6,
            ..MeshSpec::table2()
        };
        let net = substrate_mesh(&spec);
        let st = net.stamp();
        assert!(st.g.is_symmetric(0.0));
        assert!(st.c.is_symmetric(0.0));
        assert!(st.g.is_diag_dominant(1e-12));
    }

    #[test]
    fn elements_roundtrip_through_netlist() {
        let spec = MeshSpec {
            nx: 4,
            ny: 4,
            nz: 2,
            num_contacts: 3,
            ..MeshSpec::table2()
        };
        let net = substrate_mesh(&spec);
        let els = network_to_elements(&net, "m");
        let (r, c) = net.element_counts();
        assert_eq!(els.len(), r + c);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = substrate_mesh(&MeshSpec::table2());
        let b = substrate_mesh(&MeshSpec::table2());
        assert_eq!(a, b);
    }
}
