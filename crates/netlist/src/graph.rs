//! Graph utilities over a [`Netlist`]: topological ordering, levelization
//! and cone extraction.
//!
//! Sequential elements (flip-flops) cut the graph: a flop's Q output is a
//! timing *startpoint* and its D input a timing *endpoint*, so traversals
//! here never cross a flop. This matches how the paper reasons about
//! per-stage critical paths and multi-stage error propagation.

use std::collections::VecDeque;

use crate::error::NetlistError;
use crate::netlist::{Driver, FlopId, InstId, NetId, Netlist, Sink};

/// Returns combinational instances in topological order (fanin before
/// fanout).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] carrying the complete
/// path of the first loop (see [`combinational_cycles`]) if the
/// combinational logic contains a cycle.
pub fn topo_order(netlist: &Netlist) -> Result<Vec<InstId>, NetlistError> {
    let n = netlist.instance_count();
    // In-degree counts only edges coming from other combinational
    // instances; primary inputs and flop Q pins are sources.
    let mut indegree = vec![0usize; n];
    for inst_id in netlist.instance_ids() {
        for &input in netlist.instance(inst_id).inputs() {
            if let Some(Driver::Instance(_)) = netlist.net(input).driver() {
                indegree[inst_id.0 as usize] += 1;
            }
        }
    }
    let mut queue: VecDeque<InstId> = (0..n as u32)
        .map(InstId)
        .filter(|i| indegree[i.0 as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(inst) = queue.pop_front() {
        order.push(inst);
        for sink in netlist.net(netlist.instance(inst).output()).fanout() {
            if let Sink::InstancePin(succ, _) = *sink {
                let d = &mut indegree[succ.0 as usize];
                *d -= 1;
                if *d == 0 {
                    queue.push_back(succ);
                }
            }
        }
    }
    if order.len() != n {
        let cycles = combinational_cycles(netlist);
        let path = cycles
            .first()
            .map(|c| cycle_net_names(netlist, c))
            .unwrap_or_default();
        return Err(NetlistError::CombinationalLoop { path });
    }
    Ok(order)
}

/// Enumerates every combinational loop region of the netlist.
///
/// The combinational instance graph is decomposed into strongly
/// connected components (Tarjan); each component containing a cycle
/// (more than one instance, or one instance feeding itself) is reported
/// as the shortest elementary cycle inside it, found by BFS. Two loops
/// sharing any instance belong to the same component and are reported
/// once — the loop regions are disjoint, so fixing each reported cycle
/// is guaranteed to make progress on every loop in the design.
///
/// Returns one `Vec<InstId>` per loop region, instances in cycle order
/// (the last instance's output feeds the first's input). An acyclic
/// netlist yields an empty vector. Cycles are ordered by their smallest
/// member instance id, so the report is deterministic.
pub fn combinational_cycles(netlist: &Netlist) -> Vec<Vec<InstId>> {
    if is_acyclic(netlist) {
        return Vec::new();
    }
    let n = netlist.instance_count();
    let succs = |i: usize| -> Vec<usize> {
        let mut out = Vec::new();
        for sink in netlist
            .net(netlist.instance(InstId(i as u32)).output())
            .fanout()
        {
            if let Sink::InstancePin(succ, _) = *sink {
                out.push(succ.0 as usize);
            }
        }
        out
    };

    // Iterative Tarjan SCC (recursion would overflow on deep chains).
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();
    // Work frames: (node, successor list, next successor position).
    let mut frames: Vec<(usize, Vec<usize>, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, succs(root), 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref adj, ref mut pos)) = frames.last_mut() {
            if *pos < adj.len() {
                let w = adj[*pos];
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, succs(w), 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    components.push(comp);
                }
            }
        }
    }

    let mut cycles: Vec<Vec<InstId>> = Vec::new();
    for comp in components {
        let is_cyclic = comp.len() > 1 || (comp.len() == 1 && succs(comp[0]).contains(&comp[0]));
        if !is_cyclic {
            continue;
        }
        let in_comp: std::collections::HashSet<usize> = comp.iter().copied().collect();
        let start = *comp.iter().min().expect("non-empty component");
        // Shortest cycle through `start` within the component: BFS from
        // each successor of `start` back to `start`.
        let mut prev = vec![UNVISITED; n];
        let mut queue = VecDeque::new();
        prev[start] = start;
        queue.push_back(start);
        let mut closed = false;
        'bfs: while let Some(v) = queue.pop_front() {
            for w in succs(v) {
                if !in_comp.contains(&w) {
                    continue;
                }
                if w == start {
                    prev[start] = v; // remember the closing edge
                    closed = true;
                    break 'bfs;
                }
                if prev[w] == UNVISITED {
                    prev[w] = v;
                    queue.push_back(w);
                }
            }
        }
        debug_assert!(closed, "cyclic SCC must contain a cycle through start");
        let mut cycle = vec![start];
        let mut at = prev[start];
        while at != start {
            cycle.push(at);
            at = prev[at];
        }
        cycle.reverse(); // walk in edge direction: start -> ... -> start
        cycles.push(cycle.into_iter().map(|i| InstId(i as u32)).collect());
    }
    cycles.sort_by_key(|c| c.iter().min().copied());
    cycles
}

/// Kahn's algorithm over the successor edges Tarjan walks in
/// [`combinational_cycles`]: true when every instance can be peeled
/// off in topological order. The common, acyclic case never pays for
/// Tarjan's per-node successor lists.
fn is_acyclic(netlist: &Netlist) -> bool {
    let succs = |i: usize| {
        netlist
            .net(netlist.instance(InstId(i as u32)).output())
            .fanout()
            .iter()
            .filter_map(|sink| match *sink {
                Sink::InstancePin(succ, _) => Some(succ.0 as usize),
                _ => None,
            })
    };
    let n = netlist.instance_count();
    let mut indegree = vec![0u32; n];
    for i in 0..n {
        for succ in succs(i) {
            indegree[succ] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut peeled = 0;
    while let Some(i) = ready.pop() {
        peeled += 1;
        for succ in succs(i) {
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                ready.push(succ);
            }
        }
    }
    peeled == n
}

/// Output-net names of the instances on a cycle, in cycle order — the
/// human-readable form [`NetlistError::CombinationalLoop`] carries.
pub fn cycle_net_names(netlist: &Netlist, cycle: &[InstId]) -> Vec<String> {
    cycle
        .iter()
        .map(|&i| netlist.net(netlist.instance(i).output()).name().to_owned())
        .collect()
}

/// Assigns each combinational instance a logic level: sources (fed only
/// by primary inputs / flop outputs) are level 0; otherwise
/// `1 + max(level of combinational fanins)`.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] if the logic is cyclic.
pub fn levelize(netlist: &Netlist) -> Result<Vec<usize>, NetlistError> {
    let order = topo_order(netlist)?;
    let mut level = vec![0usize; netlist.instance_count()];
    for inst in order {
        let mut max_in = None;
        for &input in netlist.instance(inst).inputs() {
            if let Some(Driver::Instance(pred)) = netlist.net(input).driver() {
                max_in = Some(max_in.unwrap_or(0).max(level[pred.0 as usize] + 1));
            }
        }
        level[inst.0 as usize] = max_in.unwrap_or(0);
    }
    Ok(level)
}

/// The set of flip-flops in the combinational fanin cone of flop `end`'s
/// D input, i.e. the flops whose Q can reach `end.d` without crossing
/// another flop.
///
/// This is exactly the set of TIMBER flip-flops whose error-relay select
/// outputs must be consolidated at `end` (paper §5.1, Fig. 4).
pub fn fanin_cone(netlist: &Netlist, end: FlopId) -> Vec<FlopId> {
    let mut seen_net = vec![false; netlist.net_count()];
    let mut result = Vec::new();
    let mut stack = vec![netlist.flop(end).d()];
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut seen_net[net.0 as usize], true) {
            continue;
        }
        match netlist.net(net).driver() {
            Some(Driver::FlopQ(flop)) => result.push(flop),
            Some(Driver::Instance(inst)) => {
                stack.extend(netlist.instance(inst).inputs().iter().copied());
            }
            Some(Driver::PrimaryInput) | None => {}
        }
    }
    result.sort();
    result.dedup();
    result
}

/// Every flop's combinational fanin cone, from one topological pass.
///
/// Each net carries a bitset of the flops whose Q reaches it without
/// crossing another flop; an instance's output is the union of its
/// inputs'. [`FaninCones::cone`] then lists exactly what
/// [`fanin_cone`] returns for the same flop, without a traversal per
/// query.
#[derive(Debug, Clone)]
pub struct FaninCones {
    /// `u64` words per bitset.
    words: usize,
    /// One bitset per flop, in flop-id order: the cone of its D net.
    cones: Vec<u64>,
}

impl FaninCones {
    /// Runs the pass. `topo` lists the combinational instances fanin
    /// before fanout, as [`topo_order`] returns them (and as
    /// `timber_sta::TimingAnalysis::topo` keeps them).
    pub fn new(netlist: &Netlist, topo: &[InstId]) -> FaninCones {
        let words = netlist.flop_count().div_ceil(64);
        let mut nets = vec![0u64; netlist.net_count() * words];
        for net_id in netlist.net_ids() {
            if let Some(Driver::FlopQ(f)) = netlist.net(net_id).driver() {
                let at = net_id.0 as usize * words;
                nets[at + f.0 as usize / 64] |= 1 << (f.0 % 64);
            }
        }
        let mut union = vec![0u64; words];
        for &inst_id in topo {
            let inst = netlist.instance(inst_id);
            // Only the net's recorded driver feeds it, as in `fanin_cone`.
            if netlist.net(inst.output()).driver() != Some(Driver::Instance(inst_id)) {
                continue;
            }
            union.fill(0);
            for &input in inst.inputs() {
                let at = input.0 as usize * words;
                for (u, &w) in union.iter_mut().zip(&nets[at..at + words]) {
                    *u |= w;
                }
            }
            let at = inst.output().0 as usize * words;
            nets[at..at + words].copy_from_slice(&union);
        }
        let mut cones = Vec::with_capacity(netlist.flop_count() * words);
        for f in netlist.flop_ids() {
            let at = netlist.flop(f).d().0 as usize * words;
            cones.extend_from_slice(&nets[at..at + words]);
        }
        FaninCones { words, cones }
    }

    fn bits(&self, end: FlopId) -> &[u64] {
        let at = end.0 as usize * self.words;
        &self.cones[at..at + self.words]
    }

    /// The flops in `end`'s fanin cone, ascending: `fanin_cone(netlist,
    /// end)` as an iterator.
    pub fn cone(&self, end: FlopId) -> impl Iterator<Item = FlopId> + '_ {
        self.bits(end).iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    FlopId(i as u32 * 64 + bit)
                })
            })
        })
    }

    /// How many flops `end`'s fanin cone holds.
    pub fn len(&self, end: FlopId) -> usize {
        self.bits(end).iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The set of flip-flops in the combinational fanout cone of flop
/// `start`'s Q output: flops whose D is reachable from `start.q` without
/// crossing another flop.
pub fn fanout_cone(netlist: &Netlist, start: FlopId) -> Vec<FlopId> {
    let mut seen_net = vec![false; netlist.net_count()];
    let mut result = Vec::new();
    let mut stack = vec![netlist.flop(start).q()];
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut seen_net[net.0 as usize], true) {
            continue;
        }
        for sink in netlist.net(net).fanout() {
            match *sink {
                Sink::FlopD(flop) => result.push(flop),
                Sink::InstancePin(inst, _) => {
                    stack.push(netlist.instance(inst).output());
                }
                Sink::PrimaryOutput => {}
            }
        }
    }
    result.sort();
    result.dedup();
    result
}

/// Transitive combinational fanin of a net, returned as `(instances,
/// nets)` reachable backwards from `from` without crossing flops.
pub fn transitive_fanin(netlist: &Netlist, from: NetId) -> (Vec<InstId>, Vec<NetId>) {
    let mut seen_net = vec![false; netlist.net_count()];
    let mut insts = Vec::new();
    let mut nets = Vec::new();
    let mut stack = vec![from];
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut seen_net[net.0 as usize], true) {
            continue;
        }
        nets.push(net);
        if let Some(Driver::Instance(inst)) = netlist.net(net).driver() {
            insts.push(inst);
            stack.extend(netlist.instance(inst).inputs().iter().copied());
        }
    }
    insts.sort();
    insts.dedup();
    nets.sort();
    nets.dedup();
    (insts, nets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::netlist::NetlistBuilder;

    /// Two-stage pipeline:
    ///   a -> inv -> f0 -> inv -> f1 -> out
    ///   b ----------^ (via nand with inv output)
    fn two_stage() -> Netlist {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("two_stage", &lib);
        let a = b.input("a");
        let bb = b.input("b");
        let x = b.gate("inv", &[a]).unwrap();
        let y = b.gate("nand2", &[x, bb]).unwrap();
        let q0 = b.flop("f0", y);
        let z = b.gate("inv", &[q0]).unwrap();
        let q1 = b.flop("f1", z);
        b.output("out", q1);
        b.finish().unwrap()
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = two_stage();
        let order = topo_order(&nl).unwrap();
        assert_eq!(order.len(), nl.instance_count());
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (i, inst) in order.iter().enumerate() {
                p[inst.0 as usize] = i;
            }
            p
        };
        // inv(u0) feeds nand2(u1): u0 must come first.
        assert!(pos[0] < pos[1]);
    }

    #[test]
    fn levelize_assigns_increasing_levels() {
        let nl = two_stage();
        let levels = levelize(&nl).unwrap();
        assert_eq!(levels[0], 0); // inv fed by PI
        assert_eq!(levels[1], 1); // nand fed by inv
        assert_eq!(levels[2], 0); // stage-2 inv fed by flop Q
    }

    #[test]
    fn fanin_cone_stops_at_flops() {
        let nl = two_stage();
        // f1's D comes from inv(q0): cone = {f0}.
        assert_eq!(fanin_cone(&nl, FlopId(1)), vec![FlopId(0)]);
        // f0's D comes only from primary inputs: empty cone.
        assert!(fanin_cone(&nl, FlopId(0)).is_empty());
    }

    /// The one-pass cones against `fanin_cone`, flop by flop.
    fn assert_cones_match(nl: &Netlist) {
        let cones = FaninCones::new(nl, &topo_order(nl).unwrap());
        for f in nl.flop_ids() {
            let want = fanin_cone(nl, f);
            assert_eq!(cones.cone(f).collect::<Vec<_>>(), want, "{} {f}", nl.name());
            assert_eq!(cones.len(f), want.len(), "{} {f}", nl.name());
        }
    }

    #[test]
    fn one_pass_cones_match_fanin_cone_on_every_generator() {
        use crate::arith::{alu, array_multiplier, kogge_stone_adder};
        use crate::gen::{pipelined_datapath, random_dag, ripple_carry_adder};
        use crate::gen::{DatapathSpec, RandomDagSpec};
        let lib = CellLibrary::standard();
        assert_cones_match(&two_stage());
        assert_cones_match(&ripple_carry_adder(&lib, 16).unwrap());
        assert_cones_match(&kogge_stone_adder(&lib, 16).unwrap());
        assert_cones_match(&array_multiplier(&lib, 8).unwrap());
        assert_cones_match(&alu(&lib, 8).unwrap());
        let dag = RandomDagSpec {
            inputs: 70,
            outputs: 12,
            gates: 200,
            depth_bias: 0.6,
            seed: 3,
        };
        assert_cones_match(&random_dag(&lib, &dag).unwrap());
        // Four banks of 40 bits: cones span several 64-bit words.
        let spec = DatapathSpec::uniform(3, 40, 120, 0.7, 17);
        let nl = pipelined_datapath(&lib, &spec).unwrap();
        assert!(nl.flop_count() > 128);
        assert_cones_match(&nl);
    }

    #[test]
    fn fanout_cone_stops_at_flops() {
        let nl = two_stage();
        assert_eq!(fanout_cone(&nl, FlopId(0)), vec![FlopId(1)]);
        assert!(fanout_cone(&nl, FlopId(1)).is_empty());
    }

    #[test]
    fn transitive_fanin_collects_logic() {
        let nl = two_stage();
        let d0 = nl.flop(FlopId(0)).d();
        let (insts, nets) = transitive_fanin(&nl, d0);
        assert_eq!(insts.len(), 2); // inv + nand2
        assert!(nets.len() >= 3);
    }

    /// Builds a netlist with a spliced back-edge: u1's second input is
    /// re-routed onto u2's output, closing the loop u1 -> u2 -> u1.
    fn looped() -> Netlist {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("looped", &lib);
        let a = b.input("a");
        let x = b.gate("inv", &[a]).unwrap(); // u0 (not on the loop)
        let y = b.gate("nand2", &[x, a]).unwrap(); // u1
        let z = b.gate("inv", &[y]).unwrap(); // u2
        b.output("z", z);
        b.rewire_input(InstId(1), 1, z);
        b.finish_unchecked()
    }

    #[test]
    fn combinational_cycles_reports_full_loop() {
        let nl = looped();
        let cycles = combinational_cycles(&nl);
        assert_eq!(cycles.len(), 1);
        // The loop is u1 <-> u2; u0 is outside it.
        let mut members = cycles[0].clone();
        members.sort();
        assert_eq!(members, vec![InstId(1), InstId(2)]);
        // Cycle order is consistent: each instance feeds the next.
        let names = cycle_net_names(&nl, &cycles[0]);
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn topo_order_error_carries_cycle_path() {
        let nl = looped();
        let err = topo_order(&nl).unwrap_err();
        match err {
            NetlistError::CombinationalLoop { path } => {
                assert_eq!(path.len(), 2);
                let msg = NetlistError::CombinationalLoop { path }.to_string();
                assert!(msg.contains("->"), "full path rendered: {msg}");
            }
            other => panic!("expected CombinationalLoop, got {other:?}"),
        }
    }

    #[test]
    fn acyclic_netlist_has_no_cycles() {
        let nl = two_stage();
        assert!(is_acyclic(&nl));
        assert!(combinational_cycles(&nl).is_empty());
        assert!(!is_acyclic(&looped()));
    }

    #[test]
    fn disjoint_loop_regions_reported_separately() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("two_loops", &lib);
        let a = b.input("a");
        // Loop 1: u0 -> u1 -> u0.
        let p = b.gate("inv", &[a]).unwrap();
        let q = b.gate("inv", &[p]).unwrap();
        b.rewire_input(InstId(0), 0, q);
        // Loop 2: u2 -> u2 via a buf chain of one.
        let r = b.gate("buf", &[a]).unwrap();
        b.rewire_input(InstId(2), 0, r);
        b.output("q", q);
        let nl = b.finish_unchecked();
        let cycles = combinational_cycles(&nl);
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles[0].len(), 2);
        assert_eq!(cycles[1], vec![InstId(2)], "self-loop reported");
    }

    #[test]
    fn diamond_reconvergence_counted_once() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("diamond", &lib);
        let a = b.input("a");
        let q0 = b.flop("src", a);
        let l = b.gate("inv", &[q0]).unwrap();
        let r = b.gate("buf", &[q0]).unwrap();
        let m = b.gate("nand2", &[l, r]).unwrap();
        let q1 = b.flop("dst", m);
        b.output("o", q1);
        let nl = b.finish().unwrap();
        assert_eq!(fanin_cone(&nl, FlopId(1)), vec![FlopId(0)]);
        assert_eq!(fanout_cone(&nl, FlopId(0)), vec![FlopId(1)]);
    }
}
