//! Netlist data model: elements, source waveforms, device models and
//! analysis cards, plus the SPICE writer.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::units::SpiceValue;

/// A parsed SPICE deck.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Netlist {
    /// First line of the deck (SPICE treats it as a title).
    pub title: String,
    /// Circuit elements in deck order.
    pub elements: Vec<Element>,
    /// MOSFET `.MODEL` cards by model name (lower-cased).
    pub models: BTreeMap<String, MosModel>,
    /// Diode `.MODEL` cards by model name (lower-cased).
    pub diode_models: BTreeMap<String, DiodeModel>,
    /// `.TRAN`/`.AC`/`.DC`/`.PRINT` analysis requests.
    pub analyses: Vec<Analysis>,
    /// `.SUBCKT` definitions by lower-cased name; expand instances with
    /// [`Netlist::flatten`].
    pub subckts: BTreeMap<String, Subckt>,
    /// Unexpanded subcircuit instances (`X` cards); consumed by
    /// [`Netlist::flatten`].
    pub instances: Vec<SubcktInstance>,
}

impl Netlist {
    /// An empty netlist with the given title.
    pub fn new(title: impl Into<String>) -> Self {
        Netlist {
            title: title.into(),
            ..Netlist::default()
        }
    }

    /// All node names referenced by any element, excluding ground.
    pub fn node_names(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        for e in &self.elements {
            for n in e.nodes() {
                if !is_ground(n) {
                    set.insert(n);
                }
            }
        }
        set.into_iter().map(str::to_owned).collect()
    }

    /// Counts elements by a predicate (used for table statistics).
    pub fn count(&self, pred: impl Fn(&Element) -> bool) -> usize {
        self.elements.iter().filter(|e| pred(e)).count()
    }

    /// Element names (lower-cased) used by more than one card, with their
    /// use counts, in sorted name order. SPICE semantics stamp duplicate
    /// cards cumulatively, which is usually an extraction bug worth
    /// flagging — callers surface these as warnings.
    pub fn duplicate_element_names(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<NoCase<'_>, usize> = HashMap::with_capacity(self.elements.len());
        for e in &self.elements {
            *counts.entry(NoCase(&e.name)).or_insert(0) += 1;
        }
        let mut dups: Vec<(String, usize)> = counts
            .into_iter()
            .filter(|&(_, c)| c > 1)
            .map(|(name, c)| (name.0.to_ascii_lowercase(), c))
            .collect();
        dups.sort_unstable();
        dups
    }

    /// Expands every subcircuit instance into flat elements.
    ///
    /// Instance-internal nodes are renamed `<instance-path>.<node>`;
    /// nodes bound to instance terminals take the caller's names, so
    /// hierarchical decks flatten into ordinary flat netlists (ground
    /// passes through untouched). Nesting is supported to depth 50.
    /// The deck is consumed: its own elements move into the result, so
    /// a deck without instances comes back with no element copied.
    ///
    /// # Errors
    ///
    /// See [`FlattenError`].
    pub fn flatten(mut self) -> Result<Netlist, FlattenError> {
        let subckts = std::mem::take(&mut self.subckts);
        for inst in std::mem::take(&mut self.instances) {
            expand_instance(
                &inst,
                &subckts,
                &inst.name.to_ascii_lowercase(),
                0,
                &mut self,
            )?;
        }
        Ok(self)
    }
}

/// A name compared and hashed without regard to ASCII case, as SPICE
/// simulators match node and element names.
#[derive(Clone, Copy, Debug)]
pub struct NoCase<'a>(pub &'a str);

impl PartialEq for NoCase<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for NoCase<'_> {}

impl Hash for NoCase<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal names have equal lengths, so they feed the hasher the
        // same lower-cased chunks.
        let mut buf = [0u8; 32];
        for chunk in self.0.as_bytes().chunks(buf.len()) {
            let lower = &mut buf[..chunk.len()];
            lower.copy_from_slice(chunk);
            lower.make_ascii_lowercase();
            state.write(lower);
        }
        state.write_usize(self.0.len());
    }
}

/// Recursively expands one instance into `out`.
fn expand_instance(
    inst: &SubcktInstance,
    defs: &BTreeMap<String, Subckt>,
    path: &str,
    depth: usize,
    out: &mut Netlist,
) -> Result<(), FlattenError> {
    if depth > 50 {
        return Err(FlattenError::TooDeep {
            instance: path.to_owned(),
        });
    }
    let def = defs
        .get(&inst.subckt)
        .ok_or_else(|| FlattenError::UnknownSubckt {
            instance: path.to_owned(),
            subckt: inst.subckt.clone(),
        })?;
    if def.ports.len() != inst.nodes.len() {
        return Err(FlattenError::PortMismatch {
            instance: path.to_owned(),
            expected: def.ports.len(),
            got: inst.nodes.len(),
        });
    }
    // Each local node of this instance gets one flattened name, shared
    // by every card that touches it.
    let mut locals: HashMap<Node, Node> = HashMap::new();
    let mut map_node = |node: &Node| -> Node {
        if is_ground(node) {
            return node.clone();
        }
        if let Some(pos) = def.ports.iter().position(|p| p.eq_ignore_ascii_case(node)) {
            return inst.nodes[pos].clone();
        }
        if let Some(flat) = locals.get(node.as_str()) {
            return flat.clone();
        }
        let flat = Node::from(format!("{path}.{node}"));
        locals.insert(node.clone(), flat.clone());
        flat
    };
    // Element names local to this body: current-controlled sources (F/H)
    // that reference one of them must follow its flattened name; a name
    // not defined here is a global (deck-level) reference and passes
    // through untouched.
    let local_names: BTreeSet<String> = def
        .elements
        .iter()
        .map(|e| e.name.to_ascii_lowercase())
        .collect();
    let map_ctrl = |ctrl: &str| -> Box<str> {
        if local_names.contains(&ctrl.to_ascii_lowercase()) {
            format!("{ctrl}.{path}").into()
        } else {
            ctrl.into()
        }
    };
    for e in &def.elements {
        let mut e2 = e.clone();
        e2.name = format!("{}.{path}", e.name);
        match &mut e2.kind {
            ElementKind::Resistor { a, b, .. }
            | ElementKind::Capacitor { a, b, .. }
            | ElementKind::Inductor { a, b, .. } => {
                *a = map_node(a);
                *b = map_node(b);
            }
            ElementKind::Mosfet(m) => {
                m.d = map_node(&m.d);
                m.g = map_node(&m.g);
                m.s = map_node(&m.s);
                m.b = map_node(&m.b);
            }
            ElementKind::VSource { p, n, .. }
            | ElementKind::ISource { p, n, .. }
            | ElementKind::Diode { p, n, .. } => {
                *p = map_node(p);
                *n = map_node(n);
            }
            ElementKind::Vcvs { p, n, control, .. } | ElementKind::Vccs { p, n, control, .. } => {
                *p = map_node(p);
                *n = map_node(n);
                for c in control.iter_mut() {
                    *c = map_node(c);
                }
            }
            ElementKind::Cccs { p, n, ctrl, .. } | ElementKind::Ccvs { p, n, ctrl, .. } => {
                *p = map_node(p);
                *n = map_node(n);
                *ctrl = map_ctrl(ctrl);
            }
        }
        out.elements.push(e2);
    }
    for nested in &def.instances {
        let nested_bound = SubcktInstance {
            name: nested.name.clone(),
            nodes: nested.nodes.iter().map(&mut map_node).collect(),
            subckt: nested.subckt.clone(),
        };
        let nested_path = format!("{path}.{}", nested.name.to_ascii_lowercase());
        expand_instance(&nested_bound, defs, &nested_path, depth + 1, out)?;
    }
    Ok(())
}

/// A `.SUBCKT` definition: named ports and a body of elements (which may
/// itself instantiate other subcircuits).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Subckt {
    /// Subcircuit name (lower-cased).
    pub name: String,
    /// Port node names in declaration order.
    pub ports: Vec<String>,
    /// Body elements (node names are subcircuit-local).
    pub elements: Vec<Element>,
    /// Nested instances inside the body.
    pub instances: Vec<SubcktInstance>,
}

/// An `X` card: a subcircuit instantiation.
#[derive(Clone, Debug, PartialEq)]
pub struct SubcktInstance {
    /// Instance name (`X1`, `Xcore`, …).
    pub name: String,
    /// Nodes bound to the subcircuit's ports, in order.
    pub nodes: Vec<Node>,
    /// Referenced subcircuit name (lower-cased).
    pub subckt: String,
}

/// Error from flattening subcircuit instances.
#[derive(Clone, Debug, PartialEq)]
pub enum FlattenError {
    /// An instance references an undefined subcircuit.
    UnknownSubckt {
        /// Instance name.
        instance: String,
        /// Missing definition name.
        subckt: String,
    },
    /// Port count mismatch between instance and definition.
    PortMismatch {
        /// Instance name.
        instance: String,
        /// Ports the definition declares.
        expected: usize,
        /// Nodes the instance supplied.
        got: usize,
    },
    /// Instantiation recursion exceeded the depth limit (cyclic
    /// definitions).
    TooDeep {
        /// Instance path at which the limit was hit.
        instance: String,
    },
}

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlattenError::UnknownSubckt { instance, subckt } => {
                write!(
                    f,
                    "instance {instance} references unknown subckt `{subckt}`"
                )
            }
            FlattenError::PortMismatch {
                instance,
                expected,
                got,
            } => write!(
                f,
                "instance {instance} supplies {got} nodes, subckt declares {expected} ports"
            ),
            FlattenError::TooDeep { instance } => {
                write!(f, "subcircuit nesting too deep at {instance} (cycle?)")
            }
        }
    }
}

impl std::error::Error for FlattenError {}

/// `true` for the ground/common node spellings `0`, `gnd`, `gnd!` and
/// `vss!`, in any ASCII case.
pub fn is_ground(name: &str) -> bool {
    name == "0"
        || ["gnd", "gnd!", "vss!"]
            .iter()
            .any(|g| name.eq_ignore_ascii_case(g))
}

/// A node name, stored once per deck and shared by every card that
/// names it: cloning a `Node` copies a pointer, not the text.
///
/// It derefs to `str` and compares, hashes, prints and debug-prints
/// exactly as the name does.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node(Arc<str>);

impl Node {
    /// The name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Node {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Node {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Node {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Node {
    fn from(name: &str) -> Node {
        Node(name.into())
    }
}

impl From<String> for Node {
    fn from(name: String) -> Node {
        Node(name.into())
    }
}

impl From<&String> for Node {
    fn from(name: &String) -> Node {
        Node(name.as_str().into())
    }
}

impl PartialEq<str> for Node {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Node {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Node {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

/// One circuit element card.
#[derive(Clone, Debug, PartialEq)]
pub struct Element {
    /// Element name including the leading type letter (`R12`, `CLOAD`, …).
    pub name: String,
    /// Device-specific data.
    pub kind: ElementKind,
}

impl Element {
    /// Creates a resistor element.
    pub fn resistor(
        name: impl Into<String>,
        a: impl Into<Node>,
        b: impl Into<Node>,
        ohms: f64,
    ) -> Self {
        Element {
            name: name.into(),
            kind: ElementKind::Resistor {
                a: a.into(),
                b: b.into(),
                ohms,
            },
        }
    }

    /// Creates a capacitor element.
    pub fn capacitor(
        name: impl Into<String>,
        a: impl Into<Node>,
        b: impl Into<Node>,
        farads: f64,
    ) -> Self {
        Element {
            name: name.into(),
            kind: ElementKind::Capacitor {
                a: a.into(),
                b: b.into(),
                farads,
            },
        }
    }

    /// Creates a MOSFET element.
    pub fn mosfet(name: impl Into<String>, card: MosfetCard) -> Self {
        Element {
            name: name.into(),
            kind: ElementKind::Mosfet(Box::new(card)),
        }
    }

    /// The node names this element touches, in terminal order, borrowed
    /// from the element. For voltage/current-controlled sources the
    /// controlling node pair is included: sensing a node voltage pins
    /// that node just as a device terminal does (the extraction port
    /// rule relies on this).
    pub fn nodes(&self) -> Nodes<'_> {
        match &self.kind {
            ElementKind::Resistor { a, b, .. }
            | ElementKind::Capacitor { a, b, .. }
            | ElementKind::Inductor { a, b, .. } => Nodes::two(a, b),
            ElementKind::Mosfet(m) => Nodes::four(&m.d, &m.g, &m.s, &m.b),
            ElementKind::VSource { p, n, .. }
            | ElementKind::ISource { p, n, .. }
            | ElementKind::Diode { p, n, .. }
            | ElementKind::Cccs { p, n, .. }
            | ElementKind::Ccvs { p, n, .. } => Nodes::two(p, n),
            ElementKind::Vcvs { p, n, control, .. } | ElementKind::Vccs { p, n, control, .. } => {
                Nodes::four(p, n, &control[0], &control[1])
            }
        }
    }

    /// `true` for resistors and capacitors — the elements PACT reduces.
    pub fn is_rc(&self) -> bool {
        matches!(
            self.kind,
            ElementKind::Resistor { .. } | ElementKind::Capacitor { .. }
        )
    }
}

/// The node names of one element, borrowed from it (two or four):
/// what [`Element::nodes`] returns. Derefs to a slice and iterates by
/// value, with no allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nodes<'a> {
    names: [&'a str; 4],
    len: usize,
}

impl<'a> Nodes<'a> {
    fn two(a: &'a str, b: &'a str) -> Self {
        Nodes {
            names: [a, b, "", ""],
            len: 2,
        }
    }

    fn four(a: &'a str, b: &'a str, c: &'a str, d: &'a str) -> Self {
        Nodes {
            names: [a, b, c, d],
            len: 4,
        }
    }
}

impl<'a> std::ops::Deref for Nodes<'a> {
    type Target = [&'a str];

    fn deref(&self) -> &[&'a str] {
        &self.names[..self.len]
    }
}

impl<'a> IntoIterator for Nodes<'a> {
    type Item = &'a str;
    type IntoIter = std::iter::Take<std::array::IntoIter<&'a str, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.names.into_iter().take(self.len)
    }
}

/// Device-specific element payload.
///
/// An R or C card is the common case and sets the size: two shared node
/// names and a value. Wider payloads (the MOSFET card, source waveforms,
/// the controlling node pair of E/G sources) live behind a `Box`, so an
/// [`Element`] takes 88 bytes. `Debug` prints every variant with the
/// field names of a flat struct variant (`Mosfet { d: .., g: .., .. }`,
/// `Vcvs { p: .., n: .., cp: .., cn: .., gain: .. }`).
#[derive(Clone, PartialEq)]
pub enum ElementKind {
    /// Two-terminal resistor (`ohms` may be negative in reduced netlists).
    Resistor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Two-terminal capacitor (`farads` may be negative in reduced
    /// netlists).
    Capacitor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Four-terminal MOSFET referencing a `.MODEL` card.
    Mosfet(Box<MosfetCard>),
    /// Independent voltage source.
    VSource {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Drive waveform.
        wave: Box<Waveform>,
    },
    /// Independent current source (current flows from `p` through the
    /// source to `n`).
    ISource {
        /// Positive terminal.
        p: Node,
        /// Negative terminal.
        n: Node,
        /// Drive waveform.
        wave: Box<Waveform>,
    },
    /// Two-terminal inductor (`L` card).
    Inductor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Inductance in henries.
        henries: f64,
    },
    /// Voltage-controlled voltage source (`E` card):
    /// `v(p) − v(n) = gain · (v(cp) − v(cn))`.
    Vcvs {
        /// Positive output terminal.
        p: Node,
        /// Negative output terminal.
        n: Node,
        /// The controlling nodes `[cp, cn]`.
        control: Box<[Node; 2]>,
        /// Voltage gain (dimensionless).
        gain: f64,
    },
    /// Voltage-controlled current source (`G` card): current `gm ·
    /// (v(cp) − v(cn))` flows from `p` through the source to `n`.
    Vccs {
        /// Positive output terminal.
        p: Node,
        /// Negative output terminal.
        n: Node,
        /// The controlling nodes `[cp, cn]`.
        control: Box<[Node; 2]>,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Current-controlled current source (`F` card): current `gain ·
    /// i(ctrl)` flows from `p` to `n`, where `ctrl` names a voltage
    /// source whose branch current is the control.
    Cccs {
        /// Positive output terminal.
        p: Node,
        /// Negative output terminal.
        n: Node,
        /// Name of the controlling voltage source.
        ctrl: Box<str>,
        /// Current gain (dimensionless).
        gain: f64,
    },
    /// Current-controlled voltage source (`H` card):
    /// `v(p) − v(n) = ohms · i(ctrl)`.
    Ccvs {
        /// Positive output terminal.
        p: Node,
        /// Negative output terminal.
        n: Node,
        /// Name of the controlling voltage source.
        ctrl: Box<str>,
        /// Transresistance in ohms.
        ohms: f64,
    },
    /// Junction diode (`D` card) referencing a `.MODEL <name> D` card.
    /// Anode is `p`, cathode is `n`.
    Diode {
        /// Anode.
        p: Node,
        /// Cathode.
        n: Node,
        /// Model name (lower-cased).
        model: Box<str>,
        /// Area scale factor (multiplies `IS` and `CJ0`).
        area: f64,
    },
}

/// The payload of an `M` card.
#[derive(Clone, Debug, PartialEq)]
pub struct MosfetCard {
    /// Drain node.
    pub d: Node,
    /// Gate node.
    pub g: Node,
    /// Source node.
    pub s: Node,
    /// Body/bulk node.
    pub b: Node,
    /// Model name (lower-cased).
    pub model: String,
    /// Channel width in meters.
    pub w: f64,
    /// Channel length in meters.
    pub l: f64,
}

impl fmt::Debug for ElementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementKind::Resistor { a, b, ohms } => f
                .debug_struct("Resistor")
                .field("a", a)
                .field("b", b)
                .field("ohms", ohms)
                .finish(),
            ElementKind::Capacitor { a, b, farads } => f
                .debug_struct("Capacitor")
                .field("a", a)
                .field("b", b)
                .field("farads", farads)
                .finish(),
            ElementKind::Mosfet(m) => f
                .debug_struct("Mosfet")
                .field("d", &m.d)
                .field("g", &m.g)
                .field("s", &m.s)
                .field("b", &m.b)
                .field("model", &m.model)
                .field("w", &m.w)
                .field("l", &m.l)
                .finish(),
            ElementKind::VSource { p, n, wave } => f
                .debug_struct("VSource")
                .field("p", p)
                .field("n", n)
                .field("wave", wave)
                .finish(),
            ElementKind::ISource { p, n, wave } => f
                .debug_struct("ISource")
                .field("p", p)
                .field("n", n)
                .field("wave", wave)
                .finish(),
            ElementKind::Inductor { a, b, henries } => f
                .debug_struct("Inductor")
                .field("a", a)
                .field("b", b)
                .field("henries", henries)
                .finish(),
            ElementKind::Vcvs {
                p,
                n,
                control,
                gain,
            } => f
                .debug_struct("Vcvs")
                .field("p", p)
                .field("n", n)
                .field("cp", &control[0])
                .field("cn", &control[1])
                .field("gain", gain)
                .finish(),
            ElementKind::Vccs { p, n, control, gm } => f
                .debug_struct("Vccs")
                .field("p", p)
                .field("n", n)
                .field("cp", &control[0])
                .field("cn", &control[1])
                .field("gm", gm)
                .finish(),
            ElementKind::Cccs { p, n, ctrl, gain } => f
                .debug_struct("Cccs")
                .field("p", p)
                .field("n", n)
                .field("ctrl", ctrl)
                .field("gain", gain)
                .finish(),
            ElementKind::Ccvs { p, n, ctrl, ohms } => f
                .debug_struct("Ccvs")
                .field("p", p)
                .field("n", n)
                .field("ctrl", ctrl)
                .field("ohms", ohms)
                .finish(),
            ElementKind::Diode { p, n, model, area } => f
                .debug_struct("Diode")
                .field("p", p)
                .field("n", n)
                .field("model", model)
                .field("area", area)
                .finish(),
        }
    }
}

/// Source waveform descriptions.
#[derive(Clone, Debug, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE `PULSE(v1 v2 td tr tf pw per)`.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge.
        td: f64,
        /// Rise time.
        tr: f64,
        /// Fall time.
        tf: f64,
        /// Pulse width.
        pw: f64,
        /// Period.
        per: f64,
    },
    /// Piecewise-linear `(time, value)` pairs, times strictly increasing.
    Pwl(Vec<(f64, f64)>),
    /// `SIN(vo va freq)`.
    Sin {
        /// Offset.
        vo: f64,
        /// Amplitude.
        va: f64,
        /// Frequency in Hz.
        freq: f64,
    },
}

impl Waveform {
    /// Waveform value at time `t` (transient semantics).
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                td,
                tr,
                tf,
                pw,
                per,
            } => {
                if t < *td {
                    return *v1;
                }
                let per = if *per > 0.0 { *per } else { f64::INFINITY };
                let tau = (t - td) % per;
                if tau < *tr {
                    if *tr == 0.0 {
                        *v2
                    } else {
                        v1 + (v2 - v1) * tau / tr
                    }
                } else if tau < tr + pw {
                    *v2
                } else if tau < tr + pw + tf {
                    if *tf == 0.0 {
                        *v1
                    } else {
                        v2 + (v1 - v2) * (tau - tr - pw) / tf
                    }
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().unwrap().1
            }
            Waveform::Sin { vo, va, freq } => {
                vo + va * (2.0 * std::f64::consts::PI * freq * t).sin()
            }
        }
    }

    /// DC operating-point value (value at `t = 0`).
    pub fn dc_value(&self) -> f64 {
        self.eval(0.0)
    }

    /// Breakpoint times the transient integrator should land on exactly.
    pub fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        match self {
            Waveform::Dc(_) | Waveform::Sin { .. } => Vec::new(),
            Waveform::Pulse {
                td,
                tr,
                tf,
                pw,
                per,
                ..
            } => {
                let mut out = Vec::new();
                let period = if *per > 0.0 { *per } else { f64::INFINITY };
                let mut base = *td;
                while base < tstop {
                    for point in [base, base + tr, base + tr + pw, base + tr + pw + tf] {
                        if point < tstop {
                            out.push(point);
                        }
                    }
                    if period.is_infinite() {
                        break;
                    }
                    base += period;
                }
                out
            }
            Waveform::Pwl(points) => points
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t < tstop)
                .collect(),
        }
    }
}

/// Level-1 MOSFET model parameters (a Shichman–Hodges device).
#[derive(Clone, Debug, PartialEq)]
pub struct MosModel {
    /// Model name (lower-cased).
    pub name: String,
    /// `true` for NMOS, `false` for PMOS.
    pub nmos: bool,
    /// Zero-bias threshold voltage (positive for NMOS, negative for PMOS).
    pub vto: f64,
    /// Transconductance parameter `KP` in A/V².
    pub kp: f64,
    /// Channel-length modulation in 1/V.
    pub lambda: f64,
    /// Gate-oxide capacitance per area `COX'·W·L` proxy: gate cap per m²
    /// (F/m²).
    pub cox: f64,
    /// Drain/source-to-body junction capacitance per channel width (F/m).
    /// This is the substrate-noise injection path of the paper's adder
    /// example.
    pub cjb: f64,
}

impl MosModel {
    /// A generic 0.8 µm-era NMOS model.
    pub fn default_nmos(name: impl Into<String>) -> Self {
        MosModel {
            name: name.into(),
            nmos: true,
            vto: 0.7,
            kp: 110e-6,
            lambda: 0.04,
            cox: 3.45e-3,
            cjb: 0.4e-9,
        }
    }

    /// A generic 0.8 µm-era PMOS model.
    pub fn default_pmos(name: impl Into<String>) -> Self {
        MosModel {
            name: name.into(),
            nmos: false,
            vto: -0.9,
            kp: 40e-6,
            lambda: 0.05,
            cox: 3.45e-3,
            cjb: 0.4e-9,
        }
    }
}

/// Junction diode model parameters (a Shockley device with a fixed
/// junction capacitance).
#[derive(Clone, Debug, PartialEq)]
pub struct DiodeModel {
    /// Model name (lower-cased).
    pub name: String,
    /// Saturation current `IS` in amperes.
    pub is: f64,
    /// Emission coefficient `N` (ideality factor).
    pub n: f64,
    /// Zero-bias junction capacitance `CJ0` in farads.
    pub cj0: f64,
}

impl DiodeModel {
    /// A generic small-signal silicon diode.
    pub fn default_diode(name: impl Into<String>) -> Self {
        DiodeModel {
            name: name.into(),
            is: 1e-14,
            n: 1.0,
            cj0: 0.0,
        }
    }
}

/// Analysis request cards.
#[derive(Clone, PartialEq)]
pub enum Analysis {
    /// `.TRAN tstep tstop [tstart [tmax]] [UIC]`.
    Tran {
        /// Suggested/print time step.
        tstep: f64,
        /// Stop time.
        tstop: f64,
        /// Time from which results are printed, when given.
        tstart: Option<f64>,
        /// Largest internal time step, when given.
        tmax: Option<f64>,
        /// `UIC`: start from the `IC=` values rather than a DC operating
        /// point.
        uic: bool,
    },
    /// `.AC DEC n fstart fstop` — logarithmic sweep.
    AcDec {
        /// Points per decade.
        points_per_decade: usize,
        /// Start frequency (Hz).
        fstart: f64,
        /// Stop frequency (Hz).
        fstop: f64,
    },
    /// `.DC src start stop step` — sweep an independent source's DC value
    /// and record the operating point at each step.
    DcSweep {
        /// Name of the swept V or I source.
        source: String,
        /// First swept value.
        start: f64,
        /// Last swept value (inclusive up to rounding).
        stop: f64,
        /// Sweep increment (sign must match `stop − start`).
        step: f64,
    },
    /// `.PRINT <analysis> v(node) …` — output request. The simulator
    /// treats these as the set of signals worth reporting; unknown
    /// variables are carried through verbatim.
    Print {
        /// Analysis the request applies to (`tran`, `ac`, `dc`).
        analysis: String,
        /// Requested output variables as written (e.g. `v(out)`).
        vars: Vec<String>,
    },
}

/// Derived field by field, except that a `.tran`'s unset optional values
/// are left out, so a deck without them prints as it did before they
/// were kept (the pinned front-half fingerprints hash this text).
impl fmt::Debug for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Analysis::Tran {
                tstep,
                tstop,
                tstart,
                tmax,
                uic,
            } => {
                let mut d = f.debug_struct("Tran");
                d.field("tstep", tstep).field("tstop", tstop);
                if let Some(t) = tstart {
                    d.field("tstart", t);
                }
                if let Some(t) = tmax {
                    d.field("tmax", t);
                }
                if *uic {
                    d.field("uic", uic);
                }
                d.finish()
            }
            Analysis::AcDec {
                points_per_decade,
                fstart,
                fstop,
            } => f
                .debug_struct("AcDec")
                .field("points_per_decade", points_per_decade)
                .field("fstart", fstart)
                .field("fstop", fstop)
                .finish(),
            Analysis::DcSweep {
                source,
                start,
                stop,
                step,
            } => f
                .debug_struct("DcSweep")
                .field("source", source)
                .field("start", start)
                .field("stop", stop)
                .field("step", step)
                .finish(),
            Analysis::Print { analysis, vars } => f
                .debug_struct("Print")
                .field("analysis", analysis)
                .field("vars", vars)
                .finish(),
        }
    }
}

impl Netlist {
    /// Writes the deck as SPICE text: `suffix` after the title, the
    /// elements `keep` accepts, then whatever `extra` writes, then the
    /// analyses. `Display` is this with no suffix, every element and
    /// nothing extra.
    pub(crate) fn write_with<W: fmt::Write>(
        &self,
        w: &mut W,
        suffix: &str,
        keep: impl Fn(&Element) -> bool,
        extra: impl FnOnce(&mut W) -> fmt::Result,
    ) -> fmt::Result {
        writeln!(w, "* {}{suffix}", self.title)?;
        for m in self.models.values() {
            writeln!(
                w,
                ".model {} {} (vto={} kp={} lambda={} cox={} cjb={})",
                m.name,
                if m.nmos { "nmos" } else { "pmos" },
                SpiceValue(m.vto),
                SpiceValue(m.kp),
                SpiceValue(m.lambda),
                SpiceValue(m.cox),
                SpiceValue(m.cjb)
            )?;
        }
        for m in self.diode_models.values() {
            writeln!(
                w,
                ".model {} d (is={} n={} cj0={})",
                m.name,
                SpiceValue(m.is),
                SpiceValue(m.n),
                SpiceValue(m.cj0)
            )?;
        }
        for e in self.elements.iter().filter(|e| keep(e)) {
            writeln!(w, "{e}")?;
        }
        extra(w)?;
        for a in &self.analyses {
            match a {
                Analysis::Tran {
                    tstep,
                    tstop,
                    tstart,
                    tmax,
                    uic,
                } => {
                    write!(w, ".tran {} {}", SpiceValue(*tstep), SpiceValue(*tstop))?;
                    // `tmax` is positional: it needs a `tstart` before it.
                    if tstart.is_some() || tmax.is_some() {
                        write!(w, " {}", SpiceValue(tstart.unwrap_or(0.0)))?;
                    }
                    if let Some(t) = tmax {
                        write!(w, " {}", SpiceValue(*t))?;
                    }
                    writeln!(w, "{}", if *uic { " uic" } else { "" })?;
                }
                Analysis::AcDec {
                    points_per_decade,
                    fstart,
                    fstop,
                } => writeln!(
                    w,
                    ".ac dec {points_per_decade} {} {}",
                    SpiceValue(*fstart),
                    SpiceValue(*fstop)
                )?,
                Analysis::DcSweep {
                    source,
                    start,
                    stop,
                    step,
                } => writeln!(
                    w,
                    ".dc {source} {} {} {}",
                    SpiceValue(*start),
                    SpiceValue(*stop),
                    SpiceValue(*step)
                )?,
                Analysis::Print { analysis, vars } => {
                    write!(w, ".print {analysis}")?;
                    for v in vars {
                        write!(w, " {v}")?;
                    }
                    writeln!(w)?;
                }
            }
        }
        writeln!(w, ".end")
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, "", |_| true, |_| Ok(()))
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = &self.name;
        match &self.kind {
            ElementKind::Resistor { a, b, ohms } => {
                write!(f, "{name} {a} {b} {}", SpiceValue(*ohms))
            }
            ElementKind::Capacitor { a, b, farads } => {
                write!(f, "{name} {a} {b} {}", SpiceValue(*farads))
            }
            ElementKind::Mosfet(m) => write!(
                f,
                "{name} {} {} {} {} {} w={} l={}",
                m.d,
                m.g,
                m.s,
                m.b,
                m.model,
                SpiceValue(m.w),
                SpiceValue(m.l)
            ),
            ElementKind::VSource { p, n, wave } | ElementKind::ISource { p, n, wave } => {
                write!(f, "{name} {p} {n} {wave}")
            }
            ElementKind::Inductor { a, b, henries } => {
                write!(f, "{name} {a} {b} {}", SpiceValue(*henries))
            }
            ElementKind::Vcvs {
                p,
                n,
                control,
                gain: value,
            }
            | ElementKind::Vccs {
                p,
                n,
                control,
                gm: value,
            } => {
                let [cp, cn] = &**control;
                write!(f, "{name} {p} {n} {cp} {cn} {}", SpiceValue(*value))
            }
            ElementKind::Cccs {
                p,
                n,
                ctrl,
                gain: value,
            }
            | ElementKind::Ccvs {
                p,
                n,
                ctrl,
                ohms: value,
            } => write!(f, "{name} {p} {n} {ctrl} {}", SpiceValue(*value)),
            ElementKind::Diode { p, n, model, area } => {
                if *area == 1.0 {
                    write!(f, "{name} {p} {n} {model}")
                } else {
                    write!(f, "{name} {p} {n} {model} area={}", SpiceValue(*area))
                }
            }
        }
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waveform::Dc(v) => write!(f, "dc {}", SpiceValue(*v)),
            Waveform::Pulse {
                v1,
                v2,
                td,
                tr,
                tf,
                pw,
                per,
            } => write!(
                f,
                "pulse({} {} {} {} {} {} {})",
                SpiceValue(*v1),
                SpiceValue(*v2),
                SpiceValue(*td),
                SpiceValue(*tr),
                SpiceValue(*tf),
                SpiceValue(*pw),
                SpiceValue(*per)
            ),
            Waveform::Pwl(pts) => {
                write!(f, "pwl(")?;
                for (i, (t, v)) in pts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{} {}", SpiceValue(*t), SpiceValue(*v))?;
                }
                write!(f, ")")
            }
            Waveform::Sin { vo, va, freq } => write!(
                f,
                "sin({} {} {})",
                SpiceValue(*vo),
                SpiceValue(*va),
                SpiceValue(*freq)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 5.0,
            td: 1e-9,
            tr: 1e-9,
            tf: 1e-9,
            pw: 3e-9,
            per: 10e-9,
        };
        assert_eq!(w.eval(0.0), 0.0);
        assert!((w.eval(1.5e-9) - 2.5).abs() < 1e-9); // mid-rise
        assert_eq!(w.eval(3e-9), 5.0); // flat top
        assert!((w.eval(5.5e-9) - 2.5).abs() < 1e-9); // mid-fall
        assert_eq!(w.eval(8e-9), 0.0); // low
        assert!((w.eval(11.5e-9) - 2.5).abs() < 1e-9); // second period mid-rise
    }

    #[test]
    fn pwl_interpolates() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 5.0), (2e-9, 5.0), (3e-9, 0.0)]);
        assert_eq!(w.eval(-1.0), 0.0);
        assert_eq!(w.eval(0.5e-9), 2.5);
        assert_eq!(w.eval(1.5e-9), 5.0);
        assert_eq!(w.eval(2.5e-9), 2.5);
        assert_eq!(w.eval(10e-9), 0.0);
    }

    #[test]
    fn sin_and_dc() {
        let s = Waveform::Sin {
            vo: 1.0,
            va: 2.0,
            freq: 1.0,
        };
        assert!((s.eval(0.25) - 3.0).abs() < 1e-12);
        assert_eq!(Waveform::Dc(3.3).eval(42.0), 3.3);
        assert_eq!(Waveform::Dc(3.3).dc_value(), 3.3);
    }

    #[test]
    fn pulse_breakpoints_within_window() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            td: 0.0,
            tr: 1e-9,
            tf: 1e-9,
            pw: 2e-9,
            per: 8e-9,
        };
        let bp = w.breakpoints(10e-9);
        let has = |t: f64| bp.iter().any(|&b| (b - t).abs() < 1e-15);
        assert!(has(1e-9));
        assert!(has(3e-9));
        assert!(has(4e-9));
        assert!(has(8e-9));
        assert!(bp.iter().all(|&t| t < 10e-9));
    }

    #[test]
    fn ground_aliases() {
        assert!(is_ground("0"));
        assert!(is_ground("GND"));
        assert!(is_ground("gnd!"));
        assert!(is_ground("Gnd!"));
        assert!(is_ground("VSS!"));
        assert!(!is_ground("vss"));
        assert!(!is_ground("gnd!!"));
        assert!(!is_ground("out"));
    }

    #[test]
    fn duplicate_names_group_by_ascii_case_in_sorted_order() {
        let mut nl = Netlist::new("dups");
        for name in ["Rb", "R1", "rB", "C1", "RB", "c1", "R2", "r1é", "R1É"] {
            nl.elements.push(Element::resistor(name, "a", "0", 1.0));
        }
        // `é` and `É` are not ASCII, so `r1é` and `R1É` stay distinct.
        assert_eq!(
            nl.duplicate_element_names(),
            [("c1".to_owned(), 2), ("rb".to_owned(), 3)]
        );
    }

    #[test]
    fn element_nodes_and_is_rc() {
        let r = Element::resistor("R1", "a", "b", 100.0);
        assert!(r.is_rc());
        assert_eq!(*r.nodes(), ["a", "b"]);
        let m = Element::mosfet(
            "M1",
            MosfetCard {
                d: "d".into(),
                g: "g".into(),
                s: "s".into(),
                b: "b".into(),
                model: "nch".into(),
                w: 1e-6,
                l: 1e-6,
            },
        );
        assert!(!m.is_rc());
        assert_eq!(
            m.nodes().into_iter().collect::<Vec<_>>(),
            ["d", "g", "s", "b"]
        );
    }

    #[test]
    fn boxed_payloads_debug_print_as_flat_struct_variants() {
        let nl = crate::parse(
            "* d\nE1 p 0 cp cn 2.5\nG1 q 0 cp cn 1m\nM1 d g s b nch w=1u l=2u\nV1 a 0 1\n.end\n",
        )
        .unwrap();
        let kinds: Vec<String> = nl
            .elements
            .iter()
            .map(|e| format!("{:?}", e.kind))
            .collect();
        assert_eq!(
            kinds,
            [
                r#"Vcvs { p: "p", n: "0", cp: "cp", cn: "cn", gain: 2.5 }"#,
                r#"Vccs { p: "q", n: "0", cp: "cp", cn: "cn", gm: 0.001 }"#,
                r#"Mosfet { d: "d", g: "g", s: "s", b: "b", model: "nch", w: 1e-6, l: 2e-6 }"#,
                r#"VSource { p: "a", n: "0", wave: Dc(1.0) }"#,
            ]
        );
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn display_roundtrippable_tokens() {
        let nl = {
            let mut n = Netlist::new("test deck");
            n.elements.push(Element::resistor("R1", "in", "out", 250.0));
            n.elements
                .push(Element::capacitor("C1", "out", "0", 1.35e-12));
            n.analyses.push(Analysis::Tran {
                tstep: 1e-11,
                tstop: 5e-9,
                tstart: None,
                tmax: None,
                uic: false,
            });
            n
        };
        let text = nl.to_string();
        assert!(text.contains("R1 in out 250"));
        assert!(text.to_lowercase().contains(".tran"));
        assert!(text.to_lowercase().contains(".end"));
    }
}
