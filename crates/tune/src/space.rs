//! The tunable design space and its deterministic enumeration.
//!
//! A candidate is one complete TIMBER integration decision: which
//! netlist, the checking-period schedule `(c, k_tb, k_ed)`, the relay
//! select increment δ, and how the replacement set is seeded. The
//! space is enumerated in a *fixed, documented order* — the paper's
//! two case-study schedules first, then a grid interleaved round-robin
//! across designs — so a search budget is always a prefix of the same
//! sequence and shrinking the budget never reshuffles which candidates
//! were evaluated (the metamorphic contract the budget tests pin).

use timber_lint::ScheduleSpec;
use timber_netlist::{array_multiplier, ripple_carry_adder, CellLibrary, Netlist};
use timber_variability::splitmix64;

/// The netlists the tuner searches over — the golden-corpus pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DesignId {
    /// 16-bit ripple-carry adder (long thin critical path).
    Rca16,
    /// 8×8 array multiplier (wide near-critical population).
    Mul8,
}

impl DesignId {
    /// All designs, in enumeration (and report) order.
    pub const ALL: [DesignId; 2] = [DesignId::Rca16, DesignId::Mul8];

    /// Stable name used in candidate ids and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DesignId::Rca16 => "rca16",
            DesignId::Mul8 => "mul8",
        }
    }

    /// Builds the netlist.
    ///
    /// # Panics
    ///
    /// Panics if the generator fails (it cannot for these sizes).
    pub fn build(&self) -> Netlist {
        let lib = CellLibrary::standard();
        match self {
            DesignId::Rca16 => ripple_carry_adder(&lib, 16).expect("generator"),
            DesignId::Mul8 => array_multiplier(&lib, 8).expect("generator"),
        }
    }
}

/// How the replacement set is seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Seeding {
    /// The paper's rule: every flop ending a top-c% path.
    TopC,
    /// Workload-aware: the top-c% endpoints carrying `target_pct`% of
    /// the violation mass, relay-closed (READ-style ranking).
    Workload {
        /// Violation-mass fraction kept, in percent (1..=99).
        target_pct: u8,
    },
}

impl Seeding {
    /// Stable short name used in candidate ids and JSON.
    pub fn name(&self) -> String {
        match self {
            Seeding::TopC => "topc".to_owned(),
            Seeding::Workload { target_pct } => format!("wl{target_pct}"),
        }
    }
}

/// One point of the design space, with exact (integer) coordinates so
/// candidates hash and compare without float equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandidateSpec {
    /// Netlist under tuning.
    pub design: DesignId,
    /// Checking percentage × 10 (e.g. `300` = 30.0%).
    pub c_pct_x10: u16,
    /// Time-borrowing intervals.
    pub k_tb: u8,
    /// Error-detection intervals.
    pub k_ed: u8,
    /// Relay select increment δ.
    pub relay_increment: u8,
    /// Replacement-set seeding strategy.
    pub seeding: Seeding,
}

impl CandidateSpec {
    /// Checking percentage.
    pub fn c_pct(&self) -> f64 {
        f64::from(self.c_pct_x10) / 10.0
    }

    /// The schedule this candidate declares.
    pub fn schedule_spec(&self) -> ScheduleSpec {
        ScheduleSpec {
            checking_pct: self.c_pct(),
            k_tb: self.k_tb,
            k_ed: self.k_ed,
            relay_increment: self.relay_increment,
        }
    }

    /// Stable candidate id, e.g. `rca16-c30.0-tb1-ed2-d1-topc`.
    pub fn id(&self) -> String {
        format!(
            "{}-c{:.1}-tb{}-ed{}-d{}-{}",
            self.design.name(),
            self.c_pct(),
            self.k_tb,
            self.k_ed,
            self.relay_increment,
            self.seeding.name()
        )
    }

    /// The candidate's storm seed: a `splitmix64` chain over the
    /// *content* of its operating point (design, `c`, `k_tb`, `k_ed`,
    /// δ; never its enumeration index), mixed with the user seed.
    /// Changing the budget therefore never changes any candidate's
    /// simulated objectives, only which candidates run.
    ///
    /// The replacement rule does not enter: the seeding slot folds the
    /// constant `1`, the top-c% rule's code, so the seeding variants of
    /// one operating point share one storm battery. Common random
    /// numbers make their comparison free of Monte-Carlo noise.
    pub fn content_seed(&self, user_seed: u64) -> u64 {
        let mut z = splitmix64(user_seed, 0);
        let fields: [u64; 6] = [
            match self.design {
                DesignId::Rca16 => 1,
                DesignId::Mul8 => 2,
            },
            u64::from(self.c_pct_x10),
            u64::from(self.k_tb),
            u64::from(self.k_ed),
            u64::from(self.relay_increment),
            1,
        ];
        for f in fields {
            z = splitmix64(z ^ f, 0);
        }
        z
    }

    /// The key of the candidate's storm battery: its operating point,
    /// as the spec with the top-c% rule. Every field the battery reads
    /// is there, and the seeding variants of one point share the key.
    pub fn storm_key(&self) -> CandidateSpec {
        CandidateSpec {
            seeding: Seeding::TopC,
            ..*self
        }
    }

    /// The paper's two case-study anchors for one design: immediate
    /// flagging `(30, 0, 2)` and deferred flagging `(30, 1, 2)`, both
    /// with the top-c% replacement rule and δ = 1.
    pub fn anchors(design: DesignId) -> [CandidateSpec; 2] {
        let base = CandidateSpec {
            design,
            c_pct_x10: 300,
            k_tb: 0,
            k_ed: 2,
            relay_increment: 1,
            seeding: Seeding::TopC,
        };
        [base, CandidateSpec { k_tb: 1, ..base }]
    }
}

/// Checking percentages swept (×10).
const C_GRID: [u16; 4] = [100, 200, 300, 400];

/// Schedule shapes swept: `(k_tb, k_ed, δ)`. δ = 2 only where
/// `k_tb ≥ 2` keeps it inside the linter's `TBR006` rule.
const K_GRID: [(u8, u8, u8); 5] = [(0, 2, 1), (1, 2, 1), (1, 1, 1), (2, 2, 1), (2, 2, 2)];

/// Replacement seedings swept.
const SEED_GRID: [Seeding; 3] = [
    Seeding::TopC,
    Seeding::Workload { target_pct: 60 },
    Seeding::Workload { target_pct: 85 },
];

/// Enumerates the whole space in evaluation order: the paper anchors
/// for every design first, then the grid interleaved round-robin
/// across designs (so any budget prefix covers all designs evenly).
/// Duplicates of the anchors are skipped.
pub fn enumerate() -> Vec<CandidateSpec> {
    let mut out = Vec::new();
    for design in DesignId::ALL {
        out.extend(CandidateSpec::anchors(design));
    }
    let per_design: Vec<Vec<CandidateSpec>> = DesignId::ALL
        .iter()
        .map(|&design| {
            let mut v = Vec::new();
            for c in C_GRID {
                for (k_tb, k_ed, d) in K_GRID {
                    for seeding in SEED_GRID {
                        let spec = CandidateSpec {
                            design,
                            c_pct_x10: c,
                            k_tb,
                            k_ed,
                            relay_increment: d,
                            seeding,
                        };
                        if !out.contains(&spec) {
                            v.push(spec);
                        }
                    }
                }
            }
            v
        })
        .collect();
    let longest = per_design.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for d in &per_design {
            if let Some(&spec) = d.get(i) {
                out.push(spec);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_lead_the_enumeration() {
        let all = enumerate();
        assert_eq!(&all[..2], &CandidateSpec::anchors(DesignId::Rca16));
        assert_eq!(&all[2..4], &CandidateSpec::anchors(DesignId::Mul8));
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let all = enumerate();
        let mut seen = std::collections::BTreeSet::new();
        for spec in &all {
            assert!(seen.insert(*spec), "duplicate {spec:?}");
        }
        // 2 designs × (4c × 5k × 3 seedings) — anchors are grid members.
        assert_eq!(all.len(), 2 * 4 * 5 * 3);
    }

    #[test]
    fn enumeration_interleaves_designs() {
        let all = enumerate();
        // Any even-length prefix past the anchors covers both designs
        // within one grid step of each other.
        for n in [6, 10, 20] {
            let rca = all[..n]
                .iter()
                .filter(|s| s.design == DesignId::Rca16)
                .count();
            let mul = n - rca;
            assert!(rca.abs_diff(mul) <= 1, "prefix {n}: {rca} vs {mul}");
        }
    }

    #[test]
    fn content_seed_ignores_enumeration_position() {
        let all = enumerate();
        let spec = all[7];
        let direct = spec.content_seed(42);
        assert_eq!(direct, all[7].content_seed(42));
        assert_ne!(direct, all[8].content_seed(42));
        assert_ne!(direct, spec.content_seed(43));
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let all = enumerate();
        let ids: std::collections::BTreeSet<String> = all.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), all.len());
        assert_eq!(all[0].id(), "rca16-c30.0-tb0-ed2-d1-topc");
    }

    #[test]
    fn delta_two_only_with_enough_borrowing() {
        for spec in enumerate() {
            if spec.relay_increment > 1 {
                assert!(spec.k_tb >= spec.relay_increment);
            }
        }
    }
}
