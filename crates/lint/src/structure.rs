//! Structural lints (`TBR040`–`TBR043`): loops, driver conflicts,
//! floating inputs, unreachable cells.
//!
//! These rules run on netlists of unknown provenance — including ones
//! built with [`timber_netlist::NetlistBuilder::finish_unchecked`] —
//! so nothing here trusts the cached per-net `driver` field. The driver
//! census is recomputed from the instance/flop/primary-input records,
//! which is exactly how a doubled driver becomes visible.

use std::collections::VecDeque;

use timber_netlist::{combinational_cycles, cycle_net_names, InstId, Netlist, Sink};

use crate::diagnostic::{DiagCode, Diagnostic, LintReport};

/// Runs every structural check, appending findings to `report`.
pub fn check_structure(netlist: &Netlist, report: &mut LintReport) {
    check_drivers(netlist, report);
    check_loops(netlist, report);
    check_reachability(netlist, report);
}

fn sink_label(netlist: &Netlist, sink: &Sink) -> String {
    match *sink {
        Sink::InstancePin(inst, pin) => {
            format!("instance \"{}\" pin {}", netlist.instance(inst).name(), pin)
        }
        Sink::FlopD(f) => format!("flop \"{}\" D", netlist.flop(f).name()),
        Sink::PrimaryOutput => "primary output".to_owned(),
    }
}

/// Recomputes each net's true driver set and flags conflicts
/// (`TBR041`) and undriven-but-loaded nets (`TBR042`).
///
/// Drivers are counted first; the names the diagnostics quote are
/// formatted only when some net has a conflict or floats.
fn check_drivers(netlist: &Netlist, report: &mut LintReport) {
    let mut count = vec![0u32; netlist.net_count()];
    for &pi in netlist.primary_inputs() {
        count[pi.0 as usize] += 1;
    }
    for inst_id in netlist.instance_ids() {
        count[netlist.instance(inst_id).output().0 as usize] += 1;
    }
    for f in netlist.flop_ids() {
        count[netlist.flop(f).q().0 as usize] += 1;
    }
    let defective = netlist
        .net_ids()
        .any(|net_id| match count[net_id.0 as usize] {
            0 => !netlist.net(net_id).fanout().is_empty(),
            1 => false,
            _ => true,
        });
    if !defective {
        return;
    }
    let mut drivers: Vec<Vec<String>> = vec![Vec::new(); netlist.net_count()];
    for &pi in netlist.primary_inputs() {
        drivers[pi.0 as usize].push("primary input".to_owned());
    }
    for inst_id in netlist.instance_ids() {
        let inst = netlist.instance(inst_id);
        drivers[inst.output().0 as usize].push(format!("instance \"{}\"", inst.name()));
    }
    for f in netlist.flop_ids() {
        let flop = netlist.flop(f);
        drivers[flop.q().0 as usize].push(format!("flop \"{}\" Q", flop.name()));
    }
    for net_id in netlist.net_ids() {
        let net = netlist.net(net_id);
        let who = &drivers[net_id.0 as usize];
        if who.len() > 1 {
            report.push(
                Diagnostic::new(
                    DiagCode::MultiDrivenNet,
                    format!("net \"{}\"", net.name()),
                    format!("{} drivers contend: {}", who.len(), who.join(", ")),
                )
                .with_hint("every net must have exactly one driver; split or buffer the sources"),
            );
        } else if who.is_empty() && !net.fanout().is_empty() {
            let loads: Vec<String> = net
                .fanout()
                .iter()
                .map(|s| sink_label(netlist, s))
                .collect();
            report.push(
                Diagnostic::new(
                    DiagCode::FloatingInput,
                    format!("net \"{}\"", net.name()),
                    format!(
                        "undriven net feeds {} load(s): {}",
                        loads.len(),
                        loads.join(", ")
                    ),
                )
                .with_hint("connect the net to a driver or tie it to a constant"),
            );
        }
    }
}

/// Reports every combinational loop region with its full cycle path
/// (`TBR040`).
fn check_loops(netlist: &Netlist, report: &mut LintReport) {
    for cycle in combinational_cycles(netlist) {
        let nets = cycle_net_names(netlist, &cycle);
        let mut path = nets.join(" -> ");
        if let Some(first) = nets.first() {
            path.push_str(" -> ");
            path.push_str(first);
        }
        let subject = cycle
            .first()
            .map(|&i| format!("instance \"{}\"", netlist.instance(i).name()))
            .unwrap_or_else(|| "netlist".to_owned());
        report.push(
            Diagnostic::new(
                DiagCode::CombinationalLoop,
                subject,
                format!("combinational loop: {path}"),
            )
            .with_hint("break the cycle with a flip-flop or remove the feedback arc"),
        );
    }
}

/// Flags combinational cells whose output reaches no flop D pin or
/// primary output (`TBR043`).
fn check_reachability(netlist: &Netlist, report: &mut LintReport) {
    // Which instances drive each net, from the census (the cached
    // driver field may be stale on defective netlists): net `n`'s
    // drivers are `inst_driving[start[n]..start[n + 1]]`.
    let mut start = vec![0usize; netlist.net_count() + 1];
    for inst_id in netlist.instance_ids() {
        start[netlist.instance(inst_id).output().0 as usize + 1] += 1;
    }
    for n in 0..netlist.net_count() {
        start[n + 1] += start[n];
    }
    let mut fill = start.clone();
    let mut inst_driving = vec![InstId(0); netlist.instance_count()];
    for inst_id in netlist.instance_ids() {
        let out = netlist.instance(inst_id).output().0 as usize;
        inst_driving[fill[out]] = inst_id;
        fill[out] += 1;
    }

    // A net is useful when something observable consumes it; walk
    // backwards from flop D pins and primary outputs.
    let mut useful_net = vec![false; netlist.net_count()];
    let mut queue = VecDeque::new();
    for net_id in netlist.net_ids() {
        let observed = netlist
            .net(net_id)
            .fanout()
            .iter()
            .any(|s| matches!(s, Sink::FlopD(_) | Sink::PrimaryOutput));
        if observed {
            useful_net[net_id.0 as usize] = true;
            queue.push_back(net_id);
        }
    }
    let mut useful_inst = vec![false; netlist.instance_count()];
    while let Some(net_id) = queue.pop_front() {
        let n = net_id.0 as usize;
        for &inst_id in &inst_driving[start[n]..start[n + 1]] {
            if useful_inst[inst_id.0 as usize] {
                continue;
            }
            useful_inst[inst_id.0 as usize] = true;
            for &input in netlist.instance(inst_id).inputs() {
                if !useful_net[input.0 as usize] {
                    useful_net[input.0 as usize] = true;
                    queue.push_back(input);
                }
            }
        }
    }

    for inst_id in netlist.instance_ids() {
        if !useful_inst[inst_id.0 as usize] {
            report.push(
                Diagnostic::new(
                    DiagCode::UnreachableCell,
                    format!("instance \"{}\"", netlist.instance(inst_id).name()),
                    "output reaches no flip-flop or primary output".to_owned(),
                )
                .with_hint("remove the dead logic or connect its output"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Severity;
    use timber_netlist::{CellLibrary, InstId, NetlistBuilder};

    fn lint_structure(netlist: &Netlist) -> LintReport {
        let mut report = LintReport::new("structure");
        check_structure(netlist, &mut report);
        report
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        let lib = CellLibrary::standard();
        let nl = timber_netlist::ripple_carry_adder(&lib, 4).unwrap();
        let report = lint_structure(&nl);
        assert!(report.diagnostics.is_empty(), "{}", report.render());
    }

    #[test]
    fn back_edge_is_tbr040_with_full_path() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("loop", &lib);
        let a = b.input("a");
        let x = b.gate("inv", &[a]).unwrap();
        let y = b.gate("inv", &[x]).unwrap();
        let z = b.gate("inv", &[y]).unwrap();
        b.output("o", z);
        // Splice the back-edge: first inv now reads the last inv.
        b.rewire_input(InstId(0), 0, z);
        let nl = b.finish_unchecked();
        let report = lint_structure(&nl);
        let loops = report.with_code(DiagCode::CombinationalLoop);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].severity, Severity::Error);
        // The full 3-instance cycle, closed back on the first net.
        let arrows = loops[0].message.matches(" -> ").count();
        assert_eq!(arrows, 3, "message: {}", loops[0].message);
    }

    #[test]
    fn doubled_driver_is_tbr041() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("dd", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate("inv", &[a]).unwrap();
        let _y = b.gate("inv", &[c]).unwrap();
        let q = b.flop("f", x);
        b.output("o", q);
        // Point the second inverter's output at the first's net.
        b.rewire_output(InstId(1), x);
        let nl = b.finish_unchecked();
        let report = lint_structure(&nl);
        let diags = report.with_code(DiagCode::MultiDrivenNet);
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].message.contains("2 drivers"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn disconnected_input_is_tbr042() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("float", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate("nand2", &[a, c]).unwrap();
        let q = b.flop("f", x);
        b.output("o", q);
        let dangling = b.floating_net("dangling");
        b.rewire_input(InstId(0), 1, dangling);
        let nl = b.finish_unchecked();
        let report = lint_structure(&nl);
        let diags = report.with_code(DiagCode::FloatingInput);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].subject.contains("dangling"));
        assert!(diags[0].message.contains("pin 1"), "{}", diags[0].message);
    }

    #[test]
    fn dead_logic_is_tbr043_warning() {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("dead", &lib);
        let a = b.input("a");
        let x = b.gate("inv", &[a]).unwrap();
        b.output("o", x);
        // A second gate nobody consumes, plus one only it consumes.
        let d1 = b.gate("inv", &[a]).unwrap();
        let _d2 = b.gate("buf", &[d1]).unwrap();
        let nl = b.finish().unwrap();
        let report = lint_structure(&nl);
        let diags = report.with_code(DiagCode::UnreachableCell);
        assert_eq!(diags.len(), 2, "{}", report.render());
        assert!(diags.iter().all(|d| d.severity == Severity::Warn));
        assert_eq!(report.count(Severity::Error), 0);
    }

    /// One netlist with all four structural defects: a two-inverter
    /// loop, a doubled driver, a floating pin and dead logic.
    fn every_defect() -> Netlist {
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("defects", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate("inv", &[a]).unwrap(); // u0, on the loop
        let y = b.gate("inv", &[x]).unwrap(); // u1, on the loop
        let q_loop = b.flop("f_loop", y);
        let z = b.gate("inv", &[c]).unwrap(); // u2
        let _ = b.gate("buf", &[c]).unwrap(); // u3, doubles u2's driver
        let q_dd = b.flop("f_dd", z);
        let w = b.gate("nand2", &[a, c]).unwrap(); // u4, pin 1 floats
        let q_float = b.flop("f_float", w);
        let _ = b.gate("buf", &[a]).unwrap(); // u5, read by nothing
        b.output("o_loop", q_loop);
        b.output("o_dd", q_dd);
        b.output("o_float", q_float);
        b.rewire_input(InstId(0), 0, y);
        b.rewire_output(InstId(3), z);
        let dangling = b.floating_net("dangling");
        b.rewire_input(InstId(4), 1, dangling);
        b.finish_unchecked()
    }

    #[test]
    fn every_defect_in_one_netlist_renders_exactly() {
        let report = lint_structure(&every_defect());
        assert_eq!(report.render(), EVERY_DEFECT_REPORT, "{}", report.render());
    }

    /// The structure findings reach `lint()`'s report unchanged, after
    /// the schedule findings and before the skipped-timing note.
    #[test]
    fn every_defect_renders_the_same_through_lint() {
        let config = crate::LintConfig::new(
            "deferred20",
            crate::ScheduleSpec::deferred(20.0),
            timber_sta::ClockConstraint::with_period(timber_netlist::Picos(1500)),
        );
        let report = crate::lint(&every_defect(), &config);
        let alone = lint_structure(&every_defect()).diagnostics;
        assert_eq!(report.diagnostics[..alone.len()], alone[..]);
        assert_eq!(report.render(), EVERY_DEFECT_LINT, "{}", report.render());
    }

    const EVERY_DEFECT_LINT: &str = r#"-- lint: defects@deferred20 --
error[TBR041] net "inv_2": 2 drivers contend: instance "u2", instance "u3"
  hint: every net must have exactly one driver; split or buffer the sources
error[TBR042] net "dangling": undriven net feeds 1 load(s): instance "u4" pin 1
  hint: connect the net to a driver or tie it to a constant
error[TBR040] instance "u1": combinational loop: inv_1 -> inv_0 -> inv_1
  hint: break the cycle with a flip-flop or remove the feedback arc
warning[TBR043] instance "u5": output reaches no flip-flop or primary output
  hint: remove the dead logic or connect its output
note[TBR090] timing: short-path, relay, and consolidation checks skipped until the schedule and structural errors above are fixed
defects@deferred20: 3 error(s), 1 warning(s), 1 note(s)
"#;

    const EVERY_DEFECT_REPORT: &str = r#"-- lint: structure --
error[TBR041] net "inv_2": 2 drivers contend: instance "u2", instance "u3"
  hint: every net must have exactly one driver; split or buffer the sources
error[TBR042] net "dangling": undriven net feeds 1 load(s): instance "u4" pin 1
  hint: connect the net to a driver or tie it to a constant
error[TBR040] instance "u1": combinational loop: inv_1 -> inv_0 -> inv_1
  hint: break the cycle with a flip-flop or remove the feedback arc
warning[TBR043] instance "u5": output reaches no flip-flop or primary output
  hint: remove the dead logic or connect its output
structure: 3 error(s), 1 warning(s), 0 note(s)
"#;

    #[test]
    fn unreachable_cycle_does_not_hang_reachability() {
        // A loop that also feeds an output: reachability must terminate
        // and the loop itself is reported by TBR040.
        let lib = CellLibrary::standard();
        let mut b = NetlistBuilder::new("loop2", &lib);
        let a = b.input("a");
        let x = b.gate("and2", &[a, a]).unwrap();
        let y = b.gate("or2", &[x, a]).unwrap();
        b.output("o", y);
        b.rewire_input(InstId(0), 1, y);
        let nl = b.finish_unchecked();
        let report = lint_structure(&nl);
        assert_eq!(report.with_code(DiagCode::CombinationalLoop).len(), 1);
        // Both gates still reach the primary output.
        assert!(report.with_code(DiagCode::UnreachableCell).is_empty());
    }
}
