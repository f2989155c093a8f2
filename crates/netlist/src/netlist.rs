//! Structural netlist representation and builder.
//!
//! A [`Netlist`] is a flattened gate-level design: combinational cell
//! [`Instance`]s, edge-triggered [`SeqElement`]s (flip-flops) forming
//! stage boundaries, and [`Net`]s connecting them. Validation guarantees
//! every net has exactly one driver and the combinational logic is
//! acyclic, so downstream analyses (STA, simulation) need no defensive
//! checks.

use std::collections::HashMap;
use std::fmt;

use crate::cell::{CellId, CellLibrary};
use crate::error::NetlistError;

/// Index of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a combinational instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a sequential element (flip-flop) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlopId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{}", self.0)
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

impl fmt::Display for FlopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flop#{}", self.0)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The net is a primary input of the design.
    PrimaryInput,
    /// The net is driven by the output pin of a combinational instance.
    Instance(InstId),
    /// The net is the Q output of a flip-flop.
    FlopQ(FlopId),
}

/// A place a net fans out to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Input pin `pin` of a combinational instance.
    InstancePin(InstId, usize),
    /// The D input of a flip-flop.
    FlopD(FlopId),
    /// A primary output of the design.
    PrimaryOutput,
}

/// A named wire in the design.
#[derive(Debug, Clone)]
pub struct Net {
    name: String,
    driver: Option<Driver>,
    fanout: Vec<Sink>,
}

impl Net {
    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The net's single driver. Always `Some` on a validated [`Netlist`].
    pub fn driver(&self) -> Option<Driver> {
        self.driver
    }

    /// All sinks (loads) of the net.
    pub fn fanout(&self) -> &[Sink] {
        &self.fanout
    }
}

/// A combinational cell instance.
#[derive(Debug, Clone)]
pub struct Instance {
    name: String,
    cell: CellId,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Instance {
    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Library cell implemented by this instance.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// Input nets, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// An edge-triggered flip-flop: the stage-boundary element the TIMBER
/// technique replaces.
#[derive(Debug, Clone)]
pub struct SeqElement {
    name: String,
    d: NetId,
    q: NetId,
}

impl SeqElement {
    /// Flop name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Data input net.
    pub fn d(&self) -> NetId {
        self.d
    }

    /// Data output net.
    pub fn q(&self) -> NetId {
        self.q
    }
}

/// A validated gate-level netlist.
///
/// Construct with [`NetlistBuilder`]; a successfully built netlist
/// guarantees:
///
/// * every net has exactly one driver,
/// * all instance pins are connected,
/// * the combinational logic between flop boundaries is acyclic.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    library: CellLibrary,
    nets: Vec<Net>,
    instances: Vec<Instance>,
    flops: Vec<SeqElement>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell library the design is mapped to.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of combinational instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of flip-flops.
    pub fn flop_count(&self) -> usize {
        self.flops.len()
    }

    /// Net accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Instance accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Flip-flop accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn flop(&self, id: FlopId) -> &SeqElement {
        &self.flops[id.0 as usize]
    }

    /// Primary input nets.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary outputs as `(name, net)` pairs.
    pub fn primary_outputs(&self) -> &[(String, NetId)] {
        &self.primary_outputs
    }

    /// Iterates over all instance ids.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstId> {
        (0..self.instances.len() as u32).map(InstId)
    }

    /// Iterates over all flop ids.
    pub fn flop_ids(&self) -> impl Iterator<Item = FlopId> {
        (0..self.flops.len() as u32).map(FlopId)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }
}

/// Incrementally constructs a [`Netlist`].
///
/// # Example
///
/// ```
/// use timber_netlist::{CellLibrary, NetlistBuilder};
///
/// # fn main() -> Result<(), timber_netlist::NetlistError> {
/// let lib = CellLibrary::standard();
/// let mut b = NetlistBuilder::new("half_adder", &lib);
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.gate("xor2", &[a, c])?;
/// let carry = b.gate("and2", &[a, c])?;
/// b.output("sum", sum);
/// b.output("carry", carry);
/// let nl = b.finish()?;
/// assert_eq!(nl.primary_outputs().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder<'lib> {
    name: String,
    library: &'lib CellLibrary,
    nets: Vec<Net>,
    instances: Vec<Instance>,
    flops: Vec<SeqElement>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<(String, NetId)>,
    net_names: HashMap<String, u32>,
}

impl<'lib> NetlistBuilder<'lib> {
    /// Starts a new design mapped to `library`.
    pub fn new(name: impl Into<String>, library: &'lib CellLibrary) -> NetlistBuilder<'lib> {
        NetlistBuilder {
            name: name.into(),
            library,
            nets: Vec::new(),
            instances: Vec::new(),
            flops: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            net_names: HashMap::new(),
        }
    }

    fn fresh_net(&mut self, base: &str, driver: Option<Driver>) -> NetId {
        let count = self.net_names.entry(base.to_owned()).or_insert(0);
        let name = if *count == 0 {
            base.to_owned()
        } else {
            format!("{base}${count}")
        };
        *count += 1;
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name,
            driver,
            fanout: Vec::new(),
        });
        id
    }

    /// Declares a primary input and returns its net.
    pub fn input(&mut self, name: &str) -> NetId {
        let id = self.fresh_net(name, Some(Driver::PrimaryInput));
        self.primary_inputs.push(id);
        id
    }

    /// Marks `net` as a primary output named `name`.
    pub fn output(&mut self, name: &str, net: NetId) {
        self.primary_outputs.push((name.to_owned(), net));
        self.nets[net.0 as usize].fanout.push(Sink::PrimaryOutput);
    }

    /// Instantiates a library cell driving a fresh net, which is returned.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if `cell_name` is not in the
    /// library and [`NetlistError::ArityMismatch`] if the wrong number of
    /// input nets is supplied.
    pub fn gate(&mut self, cell_name: &str, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        let cell_id = self
            .library
            .find(cell_name)
            .ok_or_else(|| NetlistError::UnknownCell(cell_name.to_owned()))?;
        let cell = self.library.cell(cell_id);
        if cell.num_inputs() != inputs.len() {
            return Err(NetlistError::ArityMismatch {
                cell: cell_name.to_owned(),
                expected: cell.num_inputs(),
                got: inputs.len(),
            });
        }
        let inst_id = InstId(self.instances.len() as u32);
        let out = self.fresh_net(
            &format!("{cell_name}_{}", inst_id.0),
            Some(Driver::Instance(inst_id)),
        );
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.0 as usize]
                .fanout
                .push(Sink::InstancePin(inst_id, pin));
        }
        self.instances.push(Instance {
            name: format!("u{}", inst_id.0),
            cell: cell_id,
            inputs: inputs.to_vec(),
            output: out,
        });
        Ok(out)
    }

    /// Adds a flip-flop whose D input is `d`; returns the Q net.
    pub fn flop(&mut self, name: &str, d: NetId) -> NetId {
        let flop_id = FlopId(self.flops.len() as u32);
        let q = self.fresh_net(&format!("{name}_q"), Some(Driver::FlopQ(flop_id)));
        self.nets[d.0 as usize].fanout.push(Sink::FlopD(flop_id));
        self.flops.push(SeqElement {
            name: name.to_owned(),
            d,
            q,
        });
        q
    }

    /// Creates a named net with *no* driver.
    ///
    /// A floating net only survives [`finish_unchecked`]
    /// (`finish` rejects it); it exists so `timber-lint` tests can
    /// inject the disconnected-input defect class deliberately.
    ///
    /// [`finish_unchecked`]: NetlistBuilder::finish_unchecked
    pub fn floating_net(&mut self, name: &str) -> NetId {
        self.fresh_net(name, None)
    }

    /// Re-routes input pin `pin` of instance `inst` to `net`, updating
    /// fanout lists on both the old and the new net.
    ///
    /// Splicing an input onto a net created *later* (e.g. a downstream
    /// gate's output) creates a combinational back-edge; the resulting
    /// design is rejected by [`finish`](NetlistBuilder::finish) but can
    /// be materialised with
    /// [`finish_unchecked`](NetlistBuilder::finish_unchecked) for lint
    /// testing.
    ///
    /// # Panics
    ///
    /// Panics if `inst`, `pin`, or `net` is out of range.
    pub fn rewire_input(&mut self, inst: InstId, pin: usize, net: NetId) {
        let old = self.instances[inst.0 as usize].inputs[pin];
        self.nets[old.0 as usize]
            .fanout
            .retain(|s| *s != Sink::InstancePin(inst, pin));
        self.instances[inst.0 as usize].inputs[pin] = net;
        self.nets[net.0 as usize]
            .fanout
            .push(Sink::InstancePin(inst, pin));
    }

    /// Points instance `inst`'s output at an existing `net` without
    /// disturbing that net's recorded driver — after this, two cells
    /// claim to drive `net` (and `inst`'s original output net is left
    /// driverless). This is the doubled-driver defect class
    /// `timber-lint` detects; the result only survives
    /// [`finish_unchecked`](NetlistBuilder::finish_unchecked).
    ///
    /// # Panics
    ///
    /// Panics if `inst` or `net` is out of range.
    pub fn rewire_output(&mut self, inst: InstId, net: NetId) {
        assert!(net.0 < self.nets.len() as u32, "net out of range");
        let old = self.instances[inst.0 as usize].output;
        // The old output net keeps its name but loses its driver.
        self.nets[old.0 as usize].driver = None;
        self.instances[inst.0 as usize].output = net;
    }

    /// Validates and returns the finished netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndrivenNet`] if a net has no driver and
    /// [`NetlistError::CombinationalLoop`] if the combinational logic is
    /// cyclic. (Multiple drivers cannot arise through this builder, whose
    /// `gate`/`flop`/`input` methods each create fresh driven nets, but
    /// the invariant is documented on [`Netlist`].)
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        for net in &self.nets {
            if net.driver.is_none() {
                return Err(NetlistError::UndrivenNet(net.name.clone()));
            }
        }
        let netlist = self.finish_unchecked();
        // Cycle check: Kahn's algorithm over combinational instances only.
        crate::graph::topo_order(&netlist)?;
        Ok(netlist)
    }

    /// Returns the netlist *without* validating it.
    ///
    /// The result may violate every invariant [`finish`] guarantees:
    /// floating nets, doubled drivers, combinational loops. Downstream
    /// analyses that assume a validated netlist (the evaluator, STA)
    /// may panic on it; `timber-lint`'s structural checks are the
    /// intended consumer, reporting each defect as a diagnostic instead.
    ///
    /// [`finish`]: NetlistBuilder::finish
    pub fn finish_unchecked(self) -> Netlist {
        Netlist {
            name: self.name,
            library: self.library.clone(),
            nets: self.nets,
            instances: self.instances,
            flops: self.flops,
            primary_inputs: self.primary_inputs,
            primary_outputs: self.primary_outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::standard()
    }

    #[test]
    fn build_simple_combinational_design() {
        let lib = lib();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let n = b.gate("nand2", &[a, c]).unwrap();
        let y = b.gate("inv", &[n]).unwrap();
        b.output("y", y);
        let nl = b.finish().unwrap();
        assert_eq!(nl.instance_count(), 2);
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 1);
        assert_eq!(nl.net(a).fanout().len(), 1);
        assert_eq!(nl.net(n).driver(), Some(Driver::Instance(InstId(0))));
    }

    #[test]
    fn flop_creates_q_net_and_records_d_sink() {
        let lib = lib();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let inv = b.gate("inv", &[a]).unwrap();
        let q = b.flop("r0", inv);
        b.output("y", q);
        let nl = b.finish().unwrap();
        assert_eq!(nl.flop_count(), 1);
        let f = nl.flop(FlopId(0));
        assert_eq!(f.d(), inv);
        assert_eq!(f.q(), q);
        assert!(nl.net(inv).fanout().contains(&Sink::FlopD(FlopId(0))));
        assert_eq!(nl.net(q).driver(), Some(Driver::FlopQ(FlopId(0))));
    }

    #[test]
    fn unknown_cell_is_rejected() {
        let lib = lib();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        assert_eq!(
            b.gate("frob", &[a]).unwrap_err(),
            NetlistError::UnknownCell("frob".into())
        );
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let lib = lib();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let err = b.gate("nand2", &[a]).unwrap_err();
        assert_eq!(
            err,
            NetlistError::ArityMismatch {
                cell: "nand2".into(),
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn net_names_are_uniquified() {
        let lib = lib();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let x = b.gate("inv", &[a]).unwrap();
        let y = b.gate("inv", &[a]).unwrap();
        b.output("x", x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        assert_ne!(nl.net(x).name(), nl.net(y).name());
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(NetId(3).to_string(), "net#3");
        assert_eq!(InstId(4).to_string(), "inst#4");
        assert_eq!(FlopId(5).to_string(), "flop#5");
    }
}
