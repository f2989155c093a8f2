//! Property-based tests (proptest) for the netlist layer.

#![cfg(test)]

use proptest::prelude::*;

use crate::cell::CellLibrary;
use crate::eval::Evaluator;
use crate::gen::{random_dag, RandomDagSpec};
use crate::graph::{fanin_cone, levelize, topo_order, FaninCones};
use crate::logic::LogicFn;
use crate::units::{round_half_away, Picos};

proptest! {
    /// A truth table survives the from_table -> eval -> rebuild loop.
    #[test]
    fn logicfn_table_roundtrip(arity in 1usize..=4, bits in any::<u64>()) {
        let rows = 1u64 << arity;
        let mask = if rows == 64 { u64::MAX } else { (1 << rows) - 1 };
        let table = bits & mask;
        let f = LogicFn::from_table(arity, table);
        let rebuilt = LogicFn::from_fn(arity, |v| f.eval(v));
        prop_assert_eq!(rebuilt.table(), table);
        prop_assert_eq!(rebuilt.arity(), arity);
    }

    /// `depends_on` is exactly "exists an input pair differing only in
    /// that bit with different outputs".
    #[test]
    fn depends_on_matches_definition(arity in 1usize..=4, bits in any::<u64>()) {
        let rows = 1u64 << arity;
        let mask = if rows == 64 { u64::MAX } else { (1 << rows) - 1 };
        let f = LogicFn::from_table(arity, bits & mask);
        for i in 0..arity {
            let mut found = false;
            'outer: for row in 0..rows {
                let sib = row ^ (1 << i);
                let at = |r: u64| (f.table() >> r) & 1 == 1;
                if at(row) != at(sib) {
                    found = true;
                    break 'outer;
                }
            }
            prop_assert_eq!(f.depends_on(i), found);
        }
    }

    /// Every generated random DAG is valid: acyclic, levelizable, and
    /// functionally evaluable without panics.
    #[test]
    fn random_dag_is_always_well_formed(
        seed in 0u64..200,
        gates in 10usize..150,
        bias in 0.0f64..0.95,
    ) {
        let lib = CellLibrary::standard();
        let spec = RandomDagSpec { inputs: 6, outputs: 6, gates, depth_bias: bias, seed };
        let nl = random_dag(&lib, &spec).unwrap();
        prop_assert_eq!(nl.instance_count(), gates);
        let order = topo_order(&nl).unwrap();
        prop_assert_eq!(order.len(), gates);
        let levels = levelize(&nl).unwrap();
        prop_assert_eq!(levels.len(), gates);
        // Evaluation runs and is deterministic.
        let mut ev = Evaluator::new(&nl);
        for (i, &pi) in nl.primary_inputs().to_vec().iter().enumerate() {
            ev.set_input(pi, i % 2 == 0);
        }
        ev.settle();
        ev.clock();
        ev.clock();
        let a = ev.outputs();
        ev.settle();
        let b = ev.outputs();
        prop_assert_eq!(a, b);
    }

    /// Fanin cones only contain flops that can actually reach the
    /// endpoint: every cone member's Q has a forward path to the D.
    #[test]
    fn fanin_cones_are_sound(seed in 0u64..50) {
        let lib = CellLibrary::standard();
        let nl = random_dag(&lib, &RandomDagSpec {
            inputs: 6, outputs: 6, gates: 60, depth_bias: 0.6, seed,
        }).unwrap();
        for f in nl.flop_ids() {
            let cone = fanin_cone(&nl, f);
            for g in cone {
                let fwd = crate::graph::fanout_cone(&nl, g);
                prop_assert!(fwd.contains(&f),
                    "cone member {g} must reach {f} forward");
            }
        }
    }

    /// The one-pass cones list exactly `fanin_cone`'s flops, for any
    /// random DAG, including ones wider than a 64-bit word.
    #[test]
    fn one_pass_cones_equal_fanin_cone(
        seed in 0u64..1000,
        inputs in 1usize..100,
        outputs in 1usize..40,
        gates in 10usize..150,
    ) {
        let lib = CellLibrary::standard();
        let nl = random_dag(&lib, &RandomDagSpec {
            inputs, outputs, gates, depth_bias: 0.6, seed,
        }).unwrap();
        let cones = FaninCones::new(&nl, &topo_order(&nl).unwrap());
        for f in nl.flop_ids() {
            prop_assert_eq!(cones.cone(f).collect::<Vec<_>>(), fanin_cone(&nl, f));
        }
    }

    /// Picos scaling by a factor in (0, 4] is monotone in the factor.
    #[test]
    fn picos_scale_monotone(ps in 0i64..1_000_000, f1 in 0.01f64..4.0, f2 in 0.01f64..4.0) {
        let p = Picos(ps);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(p.scale(lo) <= p.scale(hi));
    }

    /// Saturating arithmetic identities.
    #[test]
    fn picos_arith_identities(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let (x, y) = (Picos(a), Picos(b));
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x - y, -(y - x));
        prop_assert_eq!(x.max(y).min(x.min(y)), x.min(y));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `Picos::scale` rounds exactly as `f64::round` does, on delays in
    /// the simulator's range and on products that saturate.
    #[test]
    fn picos_scale_rounds_like_f64_round(
        small in -1_000_000_000i64..1_000_000_000,
        any_ps in i64::MIN..i64::MAX,
        f in -4.0f64..4.0,
    ) {
        for ps in [small, any_ps] {
            prop_assert_eq!(Picos(ps).scale(f), Picos((ps as f64 * f).round() as i64));
        }
    }

    /// Every `f64` bit pattern — NaN, infinities, subnormals, huge and
    /// tiny magnitudes — and every tie `k ± 0.5` below 2⁵² rounds as
    /// `f64::round` does, as do their neighbouring floats.
    #[test]
    fn rounding_matches_f64_round_on_any_bits_and_ties(
        bits in any::<u64>(),
        k in -(1i64 << 51)..(1i64 << 51),
    ) {
        let tie = k as f64 + 0.5;
        for x in [f64::from_bits(bits), tie, tie - 1.0] {
            let bits = x.to_bits();
            for y in [x, f64::from_bits(bits.wrapping_add(1)), f64::from_bits(bits.wrapping_sub(1))] {
                prop_assert_eq!(round_half_away(y), y.round() as i64, "{:e}", y);
            }
        }
    }
}
