//! RC network extraction and matrix stamping.
//!
//! Implements the front half of RCFIT's flow (Figure 1): pull every
//! resistor and capacitor out of a deck, classify nodes as *port* or
//! *internal* (a node is a port when it touches both an RC element and a
//! non-RC device — it connects the network to the rest of the circuit),
//! and stamp the network into the partitioned conductance/susceptance
//! matrices `G` and `C` with ports ordered first.

use std::collections::HashMap;

use pact_sparse::{CsrMat, TripletMat};

use crate::ast::{is_ground, Element, ElementKind, Netlist, NoCase};

/// A two-terminal RC branch inside an [`RcNetwork`]; `None` terminals are
/// the common/ground node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Branch {
    /// First terminal (index into [`RcNetwork::node_names`]), or ground.
    pub a: Option<usize>,
    /// Second terminal, or ground.
    pub b: Option<usize>,
    /// Element value: ohms for resistors, farads for capacitors.
    pub value: f64,
}

/// A multiport RC network extracted from a netlist, ports first.
///
/// Node index `i < num_ports` is a port; the rest are internal. The
/// ground/common node is implicit (it is the paper's "node 0").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RcNetwork {
    /// Node names; indices `0..num_ports` are ports.
    pub node_names: Vec<String>,
    /// Number of port nodes `m`.
    pub num_ports: usize,
    /// Resistor branches.
    pub resistors: Vec<Branch>,
    /// Capacitor branches.
    pub capacitors: Vec<Branch>,
}

/// Error from extracting or stamping an RC network.
#[derive(Clone, Debug, PartialEq)]
pub enum NetworkError {
    /// The deck still contains unexpanded subcircuit instances; call
    /// [`crate::Netlist::flatten`] first (RC elements hidden inside
    /// subcircuits would otherwise be silently missed).
    NotFlattened {
        /// Name of the first unexpanded instance.
        instance: String,
    },
    /// A resistor has a non-positive value; the stamped `G` would not be
    /// non-negative definite.
    NonPositiveResistor {
        /// Element name.
        name: String,
        /// Offending value in ohms.
        ohms: f64,
    },
    /// A capacitor has a negative value.
    NegativeCapacitor {
        /// Element name.
        name: String,
        /// Offending value in farads.
        farads: f64,
    },
    /// An element value is NaN or infinite; stamping it would poison the
    /// matrices (and NaN eigenvalues are unorderable downstream).
    NonFiniteValue {
        /// Element name.
        name: String,
        /// The offending value.
        value: f64,
    },
    /// The network has no port nodes; reduction would erase it entirely.
    NoPorts,
    /// A requested port names no node of the deck (in any ASCII case);
    /// reducing without it would silently change which nodes are kept.
    UnknownPort {
        /// The requested name.
        name: String,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::NonPositiveResistor { name, ohms } => {
                write!(f, "resistor {name} has non-positive value {ohms}")
            }
            NetworkError::NegativeCapacitor { name, farads } => {
                write!(f, "capacitor {name} has negative value {farads}")
            }
            NetworkError::NonFiniteValue { name, value } => {
                write!(f, "element {name} has non-finite value {value}")
            }
            NetworkError::NoPorts => write!(f, "RC network has no port nodes"),
            NetworkError::UnknownPort { name } => {
                write!(f, "requested port `{name}` names no node of the deck")
            }
            NetworkError::NotFlattened { instance } => write!(
                f,
                "deck contains unexpanded subcircuit instance {instance}; flatten() first"
            ),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Result of [`extract_rc`]: the RC network plus the remaining (non-RC)
/// elements of the deck.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The multiport RC network, ports first.
    pub network: RcNetwork,
    /// The elements that were *not* absorbed into the network.
    pub rest: Vec<Element>,
}

/// The non-ground node names of a deck, borrowed from its elements,
/// each with a dense index in order of first appearance.
///
/// Names hash with the standard library's randomly seeded hasher: decks
/// come from clients, and a fixed-seed hash would let a crafted deck
/// pile every name into one bucket.
#[derive(Clone, Debug, Default)]
pub struct NodeTable<'a> {
    index: HashMap<&'a str, usize>,
    names: Vec<&'a str>,
}

impl<'a> NodeTable<'a> {
    /// The index of `name`, assigning the next free one on first sight;
    /// `None` for ground (see [`is_ground`]).
    pub fn intern(&mut self, name: &'a str) -> Option<usize> {
        if is_ground(name) {
            return None;
        }
        let next = self.names.len();
        let i = *self.index.entry(name).or_insert(next);
        if i == next {
            self.names.push(name);
        }
        Some(i)
    }

    /// The interned names in index order.
    pub fn names(&self) -> &[&'a str] {
        &self.names
    }
}

/// Extracts all resistors and capacitors from a netlist into an
/// [`RcNetwork`], applying the paper's port rule: *any node connected to a
/// resistor or capacitor as well as to a device other than a resistor or
/// capacitor is made a port node*.
///
/// Additional node names can be forced to be ports via `extra_ports`
/// (e.g. observation nodes like the paper's substrate monitor port),
/// matched without regard to ASCII case; a name that matches a node
/// without RC elements is no port and no error. Ports and internal nodes
/// each follow the byte order of their names.
///
/// # Errors
///
/// Returns [`NetworkError`] for non-physical element values, for an
/// `extra_ports` name that matches no node of the deck
/// ([`NetworkError::UnknownPort`], the first in the given order), or for
/// a network with no ports ([`NetworkError::NoPorts`]). The requested
/// ports are checked first: a deck without ports and with an unmatched
/// requested port is `UnknownPort`.
pub fn extract_rc(netlist: &Netlist, extra_ports: &[&str]) -> Result<Extraction, NetworkError> {
    if let Some(inst) = netlist.instances.first() {
        return Err(NetworkError::NotFlattened {
            instance: inst.name.clone(),
        });
    }
    // Which kinds of element touch each node, and whether it was requested
    // as a port.
    const RC: u8 = 1;
    const OTHER: u8 = 2;
    const REQUESTED: u8 = 4;
    let mut table = NodeTable::default();
    let mut touches: Vec<u8> = Vec::new();
    // Table indices of each element's first two terminals (an RC
    // element's two), so no terminal is looked up twice.
    let mut ends: Vec<[Option<usize>; 2]> = Vec::with_capacity(netlist.elements.len());
    for e in &netlist.elements {
        let kind = if e.is_rc() { RC } else { OTHER };
        let mut first_two = [None; 2];
        for (k, node) in e.nodes().into_iter().enumerate() {
            let i = table.intern(node);
            if let Some(i) = i {
                if i == touches.len() {
                    touches.push(0);
                }
                touches[i] |= kind;
            }
            if k < 2 {
                first_two[k] = i;
            }
        }
        ends.push(first_two);
    }
    let names = table.names();
    if !extra_ports.is_empty() {
        // One case-folded lookup per node; each entry records whether
        // some node carries its name.
        let mut requested: HashMap<NoCase<'_>, bool> =
            extra_ports.iter().map(|&p| (NoCase(p), false)).collect();
        for (i, &name) in names.iter().enumerate() {
            if let Some(found) = requested.get_mut(&NoCase(name)) {
                *found = true;
                touches[i] |= REQUESTED;
            }
        }
        if let Some(name) = extra_ports.iter().find(|&&p| !requested[&NoCase(p)]) {
            return Err(NetworkError::UnknownPort {
                name: (*name).to_owned(),
            });
        }
    }
    // Port = RC-connected ∧ (other-connected ∨ explicitly requested).
    let mut rc_nodes: Vec<usize> = (0..names.len()).filter(|&i| touches[i] & RC != 0).collect();
    rc_nodes.sort_unstable_by_key(|&i| names[i]);
    let (ports, internals): (Vec<usize>, Vec<usize>) = rc_nodes
        .into_iter()
        .partition(|&i| touches[i] & (OTHER | REQUESTED) != 0);
    if ports.is_empty() {
        return Err(NetworkError::NoPorts);
    }
    let num_ports = ports.len();
    // `slot[i]`: the network index of table node `i` (RC nodes only).
    let mut slot = vec![usize::MAX; names.len()];
    let mut node_names = Vec::with_capacity(num_ports + internals.len());
    for (k, &i) in ports.iter().chain(&internals).enumerate() {
        slot[i] = k;
        node_names.push(names[i].to_owned());
    }
    let lookup = |terminal: Option<usize>| terminal.map(|i| slot[i]);

    let mut network = RcNetwork {
        node_names,
        num_ports,
        resistors: Vec::new(),
        capacitors: Vec::new(),
    };
    let mut rest = Vec::new();
    for (e, &[a, b]) in netlist.elements.iter().zip(&ends) {
        match &e.kind {
            ElementKind::Resistor { ohms, .. } => {
                if !ohms.is_finite() {
                    return Err(NetworkError::NonFiniteValue {
                        name: e.name.clone(),
                        value: *ohms,
                    });
                }
                if *ohms <= 0.0 {
                    return Err(NetworkError::NonPositiveResistor {
                        name: e.name.clone(),
                        ohms: *ohms,
                    });
                }
                network.resistors.push(Branch {
                    a: lookup(a),
                    b: lookup(b),
                    value: *ohms,
                });
            }
            ElementKind::Capacitor { farads, .. } => {
                if !farads.is_finite() {
                    return Err(NetworkError::NonFiniteValue {
                        name: e.name.clone(),
                        value: *farads,
                    });
                }
                if *farads < 0.0 {
                    return Err(NetworkError::NegativeCapacitor {
                        name: e.name.clone(),
                        farads: *farads,
                    });
                }
                network.capacitors.push(Branch {
                    a: lookup(a),
                    b: lookup(b),
                    value: *farads,
                });
            }
            _ => rest.push(e.clone()),
        }
    }
    Ok(Extraction { network, rest })
}

/// The stamped matrices of an RC network: `(G + sC) x = b` with ports
/// ordered first (eq. 1–2 of the paper).
#[derive(Clone, Debug)]
pub struct Stamped {
    /// Conductance matrix `G`, `(m+n) × (m+n)`, symmetric non-negative
    /// definite.
    pub g: CsrMat,
    /// Susceptance (capacitance) matrix `C`, same shape and properties.
    pub c: CsrMat,
    /// Number of ports `m` (leading block).
    pub num_ports: usize,
}

impl RcNetwork {
    /// Total node count `m + n` (excluding ground).
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of internal nodes `n`.
    pub fn num_internal(&self) -> usize {
        self.node_names.len() - self.num_ports
    }

    /// Stamps the network into its `G` and `C` matrices.
    pub fn stamp(&self) -> Stamped {
        stamp_branches(
            self.num_nodes(),
            self.num_ports,
            self.resistors.iter().copied(),
            self.capacitors.iter().copied(),
        )
    }

    /// Index of a node by name, if present.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.node_names.iter().position(|n| n == name)
    }

    /// FNV-1a fingerprint of the network *topology*: node and port
    /// counts plus the terminal pairs of every resistor and capacitor,
    /// element values excluded.
    ///
    /// Two networks with the same key stamp `G`/`C` matrices with the
    /// same sparsity pattern, so they share one symbolic Cholesky
    /// analysis in a `ReductionSession`. The `rcfitd` daemon shards
    /// requests across workers by this key, which is what lands
    /// same-topology decks on the same warm session. (Node *names* are
    /// deliberately excluded: only index structure shapes the matrices.)
    pub fn topology_key(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let eat = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
        // Ground terminals hash as `usize::MAX` (never a node index).
        let term = |t: Option<usize>| t.map_or(u64::MAX, |i| i as u64);
        let mut h = OFFSET;
        h = eat(h, self.node_names.len() as u64);
        h = eat(h, self.num_ports as u64);
        h = eat(h, self.resistors.len() as u64);
        h = eat(h, self.capacitors.len() as u64);
        for r in &self.resistors {
            h = eat(h, term(r.a));
            h = eat(h, term(r.b));
        }
        for c in &self.capacitors {
            h = eat(h, term(c.a));
            h = eat(h, term(c.b));
        }
        h
    }

    /// Element counts `(resistors, capacitors)` — the paper's "R's" and
    /// "C's" table columns.
    pub fn element_counts(&self) -> (usize, usize) {
        (self.resistors.len(), self.capacitors.len())
    }

    /// The connected component of every node, and the number of
    /// components (ground does not connect components — two nets that
    /// only share the ground node are electrically independent at the
    /// ports). Components are numbered by the union-find root that
    /// represents them, in ascending order.
    pub fn component_labels(&self) -> (Vec<usize>, usize) {
        let n = self.num_nodes();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for b in self.resistors.iter().chain(&self.capacitors) {
            if let (Some(x), Some(y)) = (b.a, b.b) {
                let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
                if rx != ry {
                    parent[rx] = ry;
                }
            }
        }
        let roots: Vec<usize> = (0..n).map(|v| find(&mut parent, v)).collect();
        // Number the roots in ascending order.
        let mut label = vec![usize::MAX; n];
        for &r in &roots {
            label[r] = 0;
        }
        let mut count = 0;
        for l in label.iter_mut().filter(|l| **l == 0) {
            *l = count;
            count += 1;
        }
        (roots.iter().map(|&r| label[r]).collect(), count)
    }

    /// The connected components as index lists into this network, in one
    /// pass over the nodes and one over the elements; nothing is copied.
    pub fn components(&self) -> Components {
        let (labels, count) = self.component_labels();
        // Counting sort by label: each group keeps the network's order.
        let group = |keys: &mut dyn Iterator<Item = Option<usize>>| {
            let keys: Vec<Option<usize>> = keys.collect();
            let mut start = vec![0usize; count + 1];
            for &l in keys.iter().flatten() {
                start[l + 1] += 1;
            }
            for k in 0..count {
                start[k + 1] += start[k];
            }
            let mut next = start.clone();
            let mut items = vec![0usize; start[count]];
            for (i, l) in keys.into_iter().enumerate() {
                if let Some(l) = l {
                    items[next[l]] = i;
                    next[l] += 1;
                }
            }
            (start, items)
        };
        let (node_start, nodes) = group(&mut labels.iter().map(|&l| Some(l)));
        // A branch between two ground terminals belongs nowhere.
        let label_of = |b: &Branch| b.a.or(b.b).map(|v| labels[v]);
        let (res_start, resistors) = group(&mut self.resistors.iter().map(label_of));
        let (cap_start, capacitors) = group(&mut self.capacitors.iter().map(label_of));
        let mut local = vec![0usize; labels.len()];
        let mut ports = vec![0usize; count];
        for k in 0..count {
            for (i, &v) in nodes[node_start[k]..node_start[k + 1]].iter().enumerate() {
                local[v] = i;
                if v < self.num_ports {
                    ports[k] += 1;
                }
            }
        }
        Components {
            node_start,
            nodes,
            ports,
            local,
            res_start,
            resistors,
            cap_start,
            capacitors,
        }
    }
}

/// `G` (from resistor values in ohms) and `C` (capacitor values in
/// farads) of an `n`-node network whose first `num_ports` nodes are its
/// ports, one stamp per branch in order.
fn stamp_branches(
    n: usize,
    num_ports: usize,
    resistors: impl ExactSizeIterator<Item = Branch>,
    capacitors: impl ExactSizeIterator<Item = Branch>,
) -> Stamped {
    let mut g = TripletMat::with_capacity(n, n, 4 * resistors.len());
    for r in resistors {
        g.stamp_conductance(r.a, r.b, 1.0 / r.value);
    }
    let mut c = TripletMat::with_capacity(n, n, 4 * capacitors.len());
    for cap in capacitors {
        c.stamp_conductance(cap.a, cap.b, cap.value);
    }
    Stamped {
        g: g.to_csr(),
        c: c.to_csr(),
        num_ports,
    }
}

/// The connected components of an [`RcNetwork`] ([`RcNetwork::components`])
/// as index lists into it, numbered as in [`RcNetwork::component_labels`].
///
/// Component `k` is the network [`Components::network`] builds: its
/// nodes in the parent's order (so its ports come first), its resistors
/// and capacitors in the parent's order, each terminal renumbered within
/// the component. [`Components::stamp`] stamps it without building it.
#[derive(Clone, Debug, Default)]
pub struct Components {
    /// `nodes[node_start[k]..node_start[k + 1]]` are component `k`'s nodes.
    node_start: Vec<usize>,
    nodes: Vec<usize>,
    /// Port nodes per component.
    ports: Vec<usize>,
    /// Each node's index within its component.
    local: Vec<usize>,
    /// Resistor indices per component, grouped like `nodes`.
    res_start: Vec<usize>,
    resistors: Vec<usize>,
    /// Capacitor indices per component, grouped like `nodes`.
    cap_start: Vec<usize>,
    capacitors: Vec<usize>,
}

impl Components {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the network has no node at all.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Port nodes of component `k`.
    pub fn num_ports(&self, k: usize) -> usize {
        self.ports[k]
    }

    /// The network's indices of component `k`'s nodes, ascending: its
    /// local node `i` is network node `nodes(k)[i]`.
    pub fn nodes(&self, k: usize) -> &[usize] {
        &self.nodes[self.node_start[k]..self.node_start[k + 1]]
    }

    /// Component `k`'s resistors and capacitors, renumbered within it.
    fn branches<'a>(
        &'a self,
        net: &'a RcNetwork,
        k: usize,
    ) -> [impl ExactSizeIterator<Item = Branch> + 'a; 2] {
        let local = |b: &Branch| Branch {
            a: b.a.map(|v| self.local[v]),
            b: b.b.map(|v| self.local[v]),
            value: b.value,
        };
        [
            (
                &net.resistors,
                &self.resistors[self.res_start[k]..self.res_start[k + 1]],
            ),
            (
                &net.capacitors,
                &self.capacitors[self.cap_start[k]..self.cap_start[k + 1]],
            ),
        ]
        .map(move |(all, mine)| mine.iter().map(move |&i| local(&all[i])))
    }

    /// Component `k` of `net` (the network these components were taken
    /// from) stamped: the matrices of `self.network(net, k).stamp()`.
    pub fn stamp(&self, net: &RcNetwork, k: usize) -> Stamped {
        let [resistors, capacitors] = self.branches(net, k);
        stamp_branches(self.nodes(k).len(), self.ports[k], resistors, capacitors)
    }

    /// Component `k` of `net` as a network of its own, with its own
    /// ports-first ordering (each group in the parent's order) and its
    /// elements in the parent's order. Node *names* are preserved, so
    /// reduced components can be emitted into one netlist without
    /// clashes. A component containing no port node cannot influence any
    /// port (callers typically drop it).
    pub fn network(&self, net: &RcNetwork, k: usize) -> RcNetwork {
        let [resistors, capacitors] = self.branches(net, k);
        RcNetwork {
            node_names: self
                .nodes(k)
                .iter()
                .map(|&v| net.node_names[v].clone())
                .collect(),
            num_ports: self.ports[k],
            resistors: resistors.collect(),
            capacitors: capacitors.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ladder_deck() -> Netlist {
        // in --R-- mid --R-- out, caps at mid/out, driven by V at `in`,
        // loaded by a MOSFET at `out`.
        parse(
            "\
* ladder
V1 in 0 5
R1 in mid 125
R2 mid out 125
C1 mid 0 0.7p
C2 out 0 0.65p
M1 sink out 0 0 nch w=1u l=1u
.model nch nmos (vto=0.7)
.end
",
        )
        .unwrap()
    }

    #[test]
    fn port_rule_matches_paper() {
        let ex = extract_rc(&ladder_deck(), &[]).unwrap();
        let net = &ex.network;
        // `in` touches V1 (non-RC) + R1 → port. `out` touches M1 → port.
        // `mid` touches only R/C → internal.
        assert_eq!(net.num_ports, 2);
        assert!(net.node_index("in").unwrap() < 2);
        assert!(net.node_index("out").unwrap() < 2);
        assert_eq!(net.node_index("mid").unwrap(), 2);
        assert_eq!(net.num_internal(), 1);
        // Non-RC elements survive in `rest`.
        assert_eq!(ex.rest.len(), 2); // V1 and M1
    }

    #[test]
    fn forced_extra_ports() {
        let ex = extract_rc(&ladder_deck(), &["mid"]).unwrap();
        assert_eq!(ex.network.num_ports, 3);
        assert!(ex.network.node_index("mid").unwrap() < 3);
    }

    #[test]
    fn requested_ports_match_without_case_and_unknown_ones_are_refused() {
        let ex = extract_rc(&ladder_deck(), &["MID", "sink"]).unwrap();
        // `sink` is a node (M1's drain) with no RC element: no port, no error.
        assert_eq!(ex.network.num_ports, 3);
        assert!(ex.network.node_index("mid").unwrap() < 3);
        for missing in ["zzz", "--stats", "0"] {
            assert_eq!(
                extract_rc(&ladder_deck(), &["mid", missing]).unwrap_err(),
                NetworkError::UnknownPort {
                    name: missing.to_owned()
                }
            );
        }
    }

    #[test]
    fn stamping_is_symmetric_and_dominant() {
        let ex = extract_rc(&ladder_deck(), &[]).unwrap();
        let st = ex.network.stamp();
        assert!(st.g.is_symmetric(0.0));
        assert!(st.c.is_symmetric(0.0));
        assert!(st.g.is_diag_dominant(1e-15));
        assert!(st.c.is_diag_dominant(1e-15));
        let n = ex.network.num_nodes();
        assert_eq!(st.g.nrows(), n);
        // G values: conductance 1/125 = 8 mS stamps.
        let g_in_in = st.g.get(
            ex.network.node_index("in").unwrap(),
            ex.network.node_index("in").unwrap(),
        );
        assert!((g_in_in - 1.0 / 125.0).abs() < 1e-15);
    }

    #[test]
    fn grounded_elements_stamp_diagonal_only() {
        let nl = parse("* g\nV1 a 0 1\nR1 a 0 100\nC1 a 0 1p\n.end\n").unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let st = ex.network.stamp();
        assert_eq!(st.g.nnz(), 1);
        assert!((st.g.get(0, 0) - 0.01).abs() < 1e-15);
        assert!((st.c.get(0, 0) - 1e-12).abs() < 1e-24);
    }

    #[test]
    fn rejects_bad_values() {
        let nl = parse("* b\nV1 a 0 1\nR1 a 0 -5\n.end\n").unwrap();
        assert!(matches!(
            extract_rc(&nl, &[]),
            Err(NetworkError::NonPositiveResistor { .. })
        ));
    }

    #[test]
    fn no_ports_is_error() {
        // RC-only floating network with no non-RC device and no forcing.
        let nl = parse("* f\nR1 a b 100\nC1 b 0 1p\n.end\n").unwrap();
        assert!(matches!(extract_rc(&nl, &[]), Err(NetworkError::NoPorts)));
    }

    #[test]
    fn counts() {
        let ex = extract_rc(&ladder_deck(), &[]).unwrap();
        assert_eq!(ex.network.element_counts(), (2, 2));
    }

    #[test]
    fn components_split_independent_nets() {
        // Two nets sharing only ground, plus a floating RC island.
        let nl = parse(
            "\
* nets
V1 a1 0 1
R1 a1 a2 100
C1 a2 0 1p
M1 x a2 0 0 nch
V2 b1 0 1
R2 b1 b2 50
C2 b2 0 2p
M2 y b2 0 0 nch
R3 f1 f2 10
C3 f2 0 1p
.model nch nmos()
.end
",
        )
        .unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let split = ex.network.components();
        assert_eq!(split.len(), 3);
        let comps: Vec<RcNetwork> = (0..split.len())
            .map(|k| split.network(&ex.network, k))
            .collect();
        for (k, c) in comps.iter().enumerate() {
            assert_eq!(split.num_ports(k), c.num_ports);
        }
        let with_ports: Vec<_> = comps.iter().filter(|c| c.num_ports > 0).collect();
        assert_eq!(with_ports.len(), 2);
        // Each ported component has 2 ports (driver + receiver nodes)...
        for c in &with_ports {
            assert_eq!(c.num_ports, 2);
            assert_eq!(c.num_internal(), 0);
            let (r, cc) = c.element_counts();
            assert_eq!((r, cc), (1, 1));
        }
        // ...and the floating island has none.
        let floating = comps.iter().find(|c| c.num_ports == 0).unwrap();
        assert_eq!(floating.num_nodes(), 2);
    }

    #[test]
    fn components_preserve_stamps() {
        // Stamping a component must equal the corresponding sub-block of
        // the full stamp.
        let nl = parse(
            "* c\nV1 p1 0 1\nR1 p1 m 100\nC1 m 0 1p\nR2 m q 200\nM1 x q 0 0 n\nV2 p2 0 1\nR9 p2 0 5k\n.model n nmos()\n.end\n",
        )
        .unwrap();
        let ex = extract_rc(&nl, &[]).unwrap();
        let split = ex.network.components();
        for k in 0..split.len() {
            let c = split.network(&ex.network, k);
            let st = c.stamp();
            // Stamping in place equals stamping the built component.
            let direct = split.stamp(&ex.network, k);
            assert_eq!((direct.g, direct.c), (st.g.clone(), st.c.clone()));
            assert!(st.g.is_symmetric(0.0));
            for (i, name) in c.node_names.iter().enumerate() {
                let gi = ex.network.node_index(name).unwrap();
                for (j, name2) in c.node_names.iter().enumerate() {
                    let gj = ex.network.node_index(name2).unwrap();
                    let full = ex.network.stamp();
                    assert_eq!(st.g.get(i, j), full.g.get(gi, gj));
                }
            }
        }
    }

    #[test]
    fn single_component_roundtrip() {
        let ex = extract_rc(&ladder_deck(), &[]).unwrap();
        let split = ex.network.components();
        assert_eq!(split.len(), 1);
        assert_eq!(split.num_ports(0), ex.network.num_ports);
        assert_eq!(split.nodes(0).len(), ex.network.num_nodes());
        let c = split.network(&ex.network, 0);
        assert_eq!(c.num_ports, ex.network.num_ports);
        assert_eq!(c.num_nodes(), ex.network.num_nodes());
    }

    #[test]
    fn topology_key_tracks_structure_not_values() {
        let base = extract_rc(&ladder_deck(), &[]).unwrap().network;

        // Same structure, different element values: same key (this is
        // what lets a process-corner sweep share one warm session).
        let mut scaled = base.clone();
        for r in &mut scaled.resistors {
            r.value *= 3.0;
        }
        for c in &mut scaled.capacitors {
            c.value *= 0.5;
        }
        assert_eq!(base.topology_key(), scaled.topology_key());

        // Renaming nodes changes nothing structural.
        let mut renamed = base.clone();
        for n in &mut renamed.node_names {
            n.push_str("_x");
        }
        assert_eq!(base.topology_key(), renamed.topology_key());

        // Adding a branch, rewiring a terminal, or changing the port
        // split all change the key.
        let mut extra = base.clone();
        extra.capacitors.push(Branch {
            a: Some(0),
            b: None,
            value: 1e-15,
        });
        assert_ne!(base.topology_key(), extra.topology_key());

        let mut rewired = base.clone();
        rewired.resistors[0].b = None; // to ground instead of a node
        assert_ne!(base.topology_key(), rewired.topology_key());

        let mut reported = base.clone();
        reported.num_ports = base.num_ports.saturating_sub(1).max(1);
        if reported.num_ports != base.num_ports {
            assert_ne!(base.topology_key(), reported.topology_key());
        }
    }
}
