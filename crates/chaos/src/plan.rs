//! Seeded fault plans: splitmix64 counter-mode draws over the fault
//! taxonomy, so a `(seed, faults)` pair names one exact campaign —
//! byte-identical on every machine and for every `--threads`.

use timber_variability::splitmix64;

/// The fault taxonomy the campaign can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Flip one payload byte of a cached result (past the seal prefix).
    CacheFlip,
    /// Tear the journal mid-record, as a crash between `write` and
    /// `flush` would.
    JournalTear,
    /// Flip one byte inside a journalled record's sealed payload.
    JournalFlip,
    /// Stall an evaluation attempt, then fail it retryably.
    EvalStall,
    /// Hang an evaluation attempt past the watchdog.
    EvalHang,
    /// Drop the tail of a request line mid-transmission.
    LineDrop,
    /// Inject a poisoned spec whose compile panics.
    Poison,
}

impl FaultKind {
    /// Every kind, in reporting order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::CacheFlip,
        FaultKind::JournalTear,
        FaultKind::JournalFlip,
        FaultKind::EvalStall,
        FaultKind::EvalHang,
        FaultKind::LineDrop,
        FaultKind::Poison,
    ];

    /// Stable snake-case name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CacheFlip => "cache_flip",
            FaultKind::JournalTear => "journal_tear",
            FaultKind::JournalFlip => "journal_flip",
            FaultKind::EvalStall => "eval_stall",
            FaultKind::EvalHang => "eval_hang",
            FaultKind::LineDrop => "line_drop",
            FaultKind::Poison => "poison",
        }
    }

    /// How the service is expected to account for this fault.
    pub fn expected_defense(self) -> &'static str {
        match self {
            FaultKind::CacheFlip => "checksum miss -> quarantine + recompute",
            FaultKind::JournalTear => "torn tail counted, key recomputed",
            FaultKind::JournalFlip => "seal rejects record, key recomputed",
            FaultKind::EvalStall => "retry with seeded backoff",
            FaultKind::EvalHang => "watchdog abandons, retry recovers",
            FaultKind::LineDrop => "deterministic parse error, client resend",
            FaultKind::Poison => "panic isolation -> quarantine ledger",
        }
    }
}

/// One planned fault: a kind plus a seeded parameter that picks the
/// victim (which cached entry, which byte offset, which record…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Seeded victim/offset selector.
    pub param: u64,
}

/// The full seeded plan for one campaign.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

/// Domain-separation salts for the independent splitmix64 streams.
const SHUFFLE_SALT: u64 = 0x5EED_0001;
const KIND_SALT: u64 = 0x5EED_0002;
const PARAM_SALT: u64 = 0x5EED_0003;

impl FaultPlan {
    /// Draws `n` faults from `seed`. The first `min(n, 7)` are a
    /// seeded shuffle of the whole taxonomy — a campaign of at least
    /// seven faults always exercises every defense — and the rest are
    /// counter-mode draws.
    pub fn new(seed: u64, n: usize) -> FaultPlan {
        let mut kinds: Vec<FaultKind> = FaultKind::ALL.to_vec();
        // Fisher–Yates over the taxonomy, seeded.
        for i in (1..kinds.len()).rev() {
            let j = (splitmix64(seed ^ SHUFFLE_SALT, i as u64) % (i as u64 + 1)) as usize;
            kinds.swap(i, j);
        }
        let faults = (0..n)
            .map(|i| {
                let kind = if i < kinds.len() {
                    kinds[i]
                } else {
                    FaultKind::ALL[(splitmix64(seed ^ KIND_SALT, i as u64) % 7) as usize]
                };
                Fault {
                    kind,
                    param: splitmix64(seed ^ PARAM_SALT, i as u64),
                }
            })
            .collect();
        FaultPlan { faults }
    }

    /// The planned faults, in injection order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// How many faults of `kind` the plan holds.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.faults.iter().filter(|f| f.kind == kind).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        assert_eq!(
            FaultPlan::new(42, 20).faults(),
            FaultPlan::new(42, 20).faults()
        );
        assert_ne!(
            FaultPlan::new(42, 20).faults(),
            FaultPlan::new(43, 20).faults()
        );
    }

    #[test]
    fn seven_or_more_faults_cover_the_whole_taxonomy() {
        for seed in 0..16 {
            let plan = FaultPlan::new(seed, 7);
            for kind in FaultKind::ALL {
                assert_eq!(plan.count(kind), 1, "seed {seed} missed {}", kind.name());
            }
        }
    }

    #[test]
    fn larger_plans_keep_the_covering_prefix() {
        let plan = FaultPlan::new(7, 40);
        for kind in FaultKind::ALL {
            assert!(plan.count(kind) >= 1);
        }
        assert_eq!(plan.faults().len(), 40);
    }
}
