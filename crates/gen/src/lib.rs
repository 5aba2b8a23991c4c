//! # pact-gen
//!
//! Parametric workload generators for the PACT reproduction, standing in
//! for the paper's proprietary extracted layouts (see DESIGN.md §3 for
//! the substitution rationale):
//!
//! - [`rc_line_elements`] / [`inverter_pair_deck`] — the Figure 2/3
//!   distributed RC transmission line between two CMOS inverters;
//! - [`substrate_mesh`] — uniform 3-D resistor grids with surface
//!   contacts and junction/field capacitance, sized like the paper's
//!   Table 2 (≈1.5k nodes, 25 ports) and Table 4 (≈20k nodes, 469
//!   ports) substrate macromodels, and [`with_neighbour_coupling`] for
//!   lateral coupling capacitance between neighbouring surface nodes;
//! - [`full_adder_deck`] — the 28-transistor mirror full adder with
//!   input drivers over a substrate mesh (Tables 2–3, Figure 6);
//! - [`multiplier_like_deck`] — inverter-chain arrays with tree RC
//!   parasitics standing in for the extracted 8-bit multiplier
//!   (Table 1, Figure 4);
//! - [`power_grid_deck`] — supply-rail grids with decap and switching
//!   current taps (the paper's introduction motivates PACT with exactly
//!   this IR-drop workload);
//! - [`chain_heavy_deck`] / [`rich_mixed_deck`] — embedded-parasitics
//!   decks for the subnetwork-extraction and chain-collapse passes: long
//!   RC chains between inverter stages, and a mixed
//!   R/C/L/diode/MOSFET/VCVS deck with buried RC islands.
//!
//! All generators are deterministic given their seeds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adder;
mod embedded;
mod line;
mod mesh;
mod multiplier;
mod powergrid;

pub use adder::{full_adder_deck, AdderDeck};
pub use embedded::{chain_heavy_deck, rich_mixed_deck, ChainDeckSpec, RichDeckSpec};
pub use line::{
    add_default_models, inverter, inverter_pair_deck, no_line_deck, rc_line_elements, LineSpec,
    Taper,
};
pub use mesh::{network_to_elements, substrate_mesh, with_neighbour_coupling, MeshSpec};
pub use multiplier::{
    multiplier_like_deck, multiplier_like_deck_no_parasitics, MultiplierSpec, MultiplierStats,
};
pub use powergrid::{power_grid_deck, PowerGridDeck, PowerGridSpec};
