//! # timber-netlist
//!
//! Gate-level structural netlist infrastructure for the TIMBER (DATE 2010)
//! reproduction.
//!
//! This crate provides the bottom layer of the stack: a cell library with
//! pin-to-pin timing arcs, a structural netlist representation, graph
//! utilities (topological ordering, fanin/fanout cones), synthetic circuit
//! generators used as stand-ins for the paper's industrial designs, and a
//! zero-delay functional evaluator used to sanity-check generated circuits.
//!
//! The TIMBER paper evaluates its technique on an industrial processor
//! netlist that is not available; the generators in [`gen`] produce
//! structurally realistic pipelined datapaths over which the
//! `timber-sta` crate computes the same path statistics the paper reports
//! (its Fig. 1).
//!
//! # Example
//!
//! ```
//! use timber_netlist::{CellLibrary, NetlistBuilder};
//!
//! # fn main() -> Result<(), timber_netlist::NetlistError> {
//! let lib = CellLibrary::standard();
//! let mut b = NetlistBuilder::new("example", &lib);
//! let a = b.input("a");
//! let c = b.input("b");
//! let n = b.gate("nand2", &[a, c])?;
//! let q = b.gate("inv", &[n])?;
//! b.output("y", q);
//! let netlist = b.finish()?;
//! assert_eq!(netlist.instance_count(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arith;
pub mod cell;
pub mod error;
pub mod eval;
pub mod gen;
pub mod graph;
pub mod logic;
pub mod netlist;
pub mod units;

pub use arith::{alu, array_multiplier, kogge_stone_adder, AluOp};
pub use cell::{Cell, CellId, CellLibrary, TimingArc};
pub use error::NetlistError;
pub use eval::Evaluator;
pub use gen::{pipelined_datapath, random_dag, ripple_carry_adder, DatapathSpec, RandomDagSpec};
pub use graph::{
    combinational_cycles, cycle_net_names, fanin_cone, fanout_cone, levelize, topo_order,
    FaninCones,
};
pub use logic::LogicFn;
pub use netlist::{
    Driver, FlopId, InstId, Instance, Net, NetId, Netlist, NetlistBuilder, SeqElement, Sink,
};
pub use units::{Area, Picos};

#[cfg(test)]
mod props;
