//! # pact-netlist
//!
//! SPICE netlist handling for the PACT RC-reduction workspace: the
//! SPICE-in/SPICE-out plumbing of the paper's RCFIT tool (Section 5).
//!
//! - [`parse`] reads a SPICE deck (R/C/M/V/I cards, `.MODEL`, `.TRAN`,
//!   `.AC`, comments, continuations, engineering units);
//! - [`extract_rc`] pulls every resistor and capacitor into an
//!   [`RcNetwork`], classifying nodes by the paper's port rule;
//! - [`RcNetwork::stamp`] builds the partitioned `G`/`C` matrices;
//! - [`unstamp_each`] is the rule that turns reduced matrices back into
//!   RC elements ([`unstamp`] collects them, [`Unstamped::write_card`]
//!   writes each as a SPICE line), and [`sparsify_preserving_passivity`]
//!   implements the element-count reduction heuristic;
//! - [`Netlist`]'s `Display` impl writes SPICE text back out, and
//!   [`write_spliced`] writes a deck with its RC cards replaced.
//!
//! ```
//! use pact_netlist::{parse, extract_rc};
//! let deck = "* line\nV1 in 0 5\nR1 in out 250\nC1 out 0 1p\nRL out 0 1k\nM1 x out 0 0 nch\n.model nch nmos()\n.end\n";
//! let nl = parse(deck)?;
//! let ex = extract_rc(&nl, &[])?;
//! assert_eq!(ex.network.num_ports, 2); // `in` (V1) and `out` (M1 gate)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod network;
mod parser;
mod units;
mod unstamp;

pub use ast::{
    is_ground, Analysis, DiodeModel, Element, ElementKind, FlattenError, MosModel, MosfetCard,
    Netlist, NoCase, Node, Nodes, Subckt, SubcktInstance, Waveform,
};
pub use network::{
    extract_rc, Branch, Components, Extraction, NetworkError, NodeTable, RcNetwork, Stamped,
};
pub use parser::{parse, ParseNetlistError};
pub use units::{parse_value, ParseValueError, SpiceValue};
pub use unstamp::{sparsify_preserving_passivity, unstamp, unstamp_each, Unstamped};

/// What a spliced deck's title gets after the original's.
const REDUCED_TITLE: &str = " (RC network reduced by PACT)";

/// Splices a reduced RC network back into a deck: the original RC elements
/// are removed and the reduced elements appended, leaving all other
/// devices, models and analyses untouched (the final box of RCFIT's
/// flowchart).
pub fn splice_reduced(original: &Netlist, reduced_elements: Vec<Element>) -> Netlist {
    let mut out = Netlist {
        title: format!("{}{REDUCED_TITLE}", original.title),
        elements: Vec::new(),
        models: original.models.clone(),
        diode_models: original.diode_models.clone(),
        analyses: original.analyses.clone(),
        subckts: original.subckts.clone(),
        instances: original.instances.clone(),
    };
    for e in &original.elements {
        if !e.is_rc() {
            out.elements.push(e.clone());
        }
    }
    out.elements.extend(reduced_elements);
    out
}

/// Appends to `out` the text of `splice_reduced(original, reduced)`
/// without building either deck: `cards` writes the reduced elements'
/// lines where the spliced deck's elements would print.
pub fn write_spliced(original: &Netlist, out: &mut String, cards: impl FnOnce(&mut String)) {
    original
        .write_with(
            out,
            REDUCED_TITLE,
            |e| !e.is_rc(),
            |out| {
                cards(out);
                Ok(())
            },
        )
        .expect("writing to a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_removes_rc_keeps_devices() {
        let nl = parse(
            "* t\nV1 a 0 1\nR1 a b 100\nC1 b 0 1p\nM1 c b 0 0 nch\n.model nch nmos()\n.end\n",
        )
        .unwrap();
        let red = vec![Element::resistor("Rred", "a", "b", 42.0)];
        let spliced = splice_reduced(&nl, red);
        assert_eq!(spliced.elements.len(), 3); // V1, M1, Rred
        assert!(spliced.elements.iter().any(|e| e.name == "Rred"));
        assert!(spliced.elements.iter().all(|e| e.name != "R1"));
        assert_eq!(spliced.models.len(), 1);
    }

    #[test]
    fn written_splice_matches_the_spliced_deck() {
        let nl = parse(
            "* t\n.model nch nmos()\nV1 a 0 1\nR1 a b 100\nC1 b 0 1p\nM1 c b 0 0 nch\n.tran 1n 1u\n.end\n",
        )
        .unwrap();
        let red = Element::resistor("Rred", "a", "b", 42.0);
        let mut text = String::new();
        write_spliced(&nl, &mut text, |out| out.push_str(&format!("{red}\n")));
        assert_eq!(text, splice_reduced(&nl, vec![red]).to_string());
    }
}
