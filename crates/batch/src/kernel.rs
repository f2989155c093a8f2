//! The row kernel: one stage of one cycle for every lane — draw,
//! arrival and violation mask — in two branch-free passes.
//!
//! The kernel is written once, in safe portable Rust over slices cut
//! to the lane count (so no bounds check survives), and compiled twice
//! from that source: a plain instance for the baseline target, and on
//! `x86_64` an AVX2 instance, which has the 64-bit vector compare and
//! the 32×32→64 multiply the draw pass needs. [`RowKernel::detect`]
//! picks the instance once per run. Both instances evaluate the same
//! integer-only expressions, so every lane's delay, arrival and
//! violation bit is identical whichever one runs (DESIGN.md §12.2).

use timber_variability::{splitmix64, StageDelayModel};

/// A compiled instance of the row kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKernel {
    /// The baseline target's instance.
    Plain,
    /// The AVX2 instance; chosen only after the CPU reports AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl RowKernel {
    /// The fastest instance this CPU runs.
    pub(crate) fn detect() -> RowKernel {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return RowKernel::Avx2;
        }
        RowKernel::Plain
    }

    /// The instance's name: `"plain"` or `"avx2"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RowKernel::Plain => "plain",
            #[cfg(target_arch = "x86_64")]
            RowKernel::Avx2 => "avx2",
        }
    }

    /// Draws the row `key` of every lane seeded in `seeds`, writes
    /// `carry + delay` into `arrivals`, and returns the violation mask:
    /// bit `l` set iff `arrivals[l] > limits[l]`. The lane count is
    /// `arrivals.len()`, at most 64; the other slices may be longer.
    #[inline]
    pub(crate) fn run(
        self,
        model: &StageDelayModel,
        key: u64,
        seeds: &[u64],
        carry: &[i64],
        limits: &[i64],
        arrivals: &mut [i64],
    ) -> u64 {
        match self {
            RowKernel::Plain => row(model, key, seeds, carry, limits, arrivals),
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            RowKernel::Avx2 => {
                // SAFETY: `row_avx2` needs AVX2, and `detect` returns
                // `Avx2` only when `is_x86_feature_detected!("avx2")`
                // holds.
                unsafe { row_avx2(model, key, seeds, carry, limits, arrivals) }
            }
        }
    }
}

/// The AVX2 instance of [`row`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_avx2(
    model: &StageDelayModel,
    key: u64,
    seeds: &[u64],
    carry: &[i64],
    limits: &[i64],
    arrivals: &mut [i64],
) -> u64 {
    row(model, key, seeds, carry, limits, arrivals)
}

/// The kernel's one source (see [`RowKernel::run`]).
#[inline(always)]
fn row(
    model: &StageDelayModel,
    key: u64,
    seeds: &[u64],
    carry: &[i64],
    limits: &[i64],
    arrivals: &mut [i64],
) -> u64 {
    let lanes = arrivals.len();
    debug_assert!(lanes <= 64);
    let (seeds, carry, limits) = (&seeds[..lanes], &carry[..lanes], &limits[..lanes]);

    // Draw pass: `StageDelayModel::delay` is branch-free, so it inlines
    // into straight-line lane code.
    let model = *model;
    for ((arrival, &seed), &carried) in arrivals.iter_mut().zip(seeds).zip(carry) {
        *arrival = carried + model.delay(splitmix64(seed ^ key, 0)).as_ps();
    }

    // Mask pass: the tail's bits first, then four lanes per step from
    // the top quad down, each shifting the bits above it up by four
    // (a shift chain, which the compiler leaves one compare per quad).
    let tail = lanes & !3;
    let mut mask = 0u64;
    for l in tail..lanes {
        mask |= u64::from(arrivals[l] > limits[l]) << (l - tail);
    }
    let quads = arrivals[..tail]
        .chunks_exact(4)
        .zip(limits[..tail].chunks_exact(4));
    for (a, lim) in quads.rev() {
        mask = mask << 4
            | u64::from(a[0] > lim[0])
            | u64::from(a[1] > lim[1]) << 1
            | u64::from(a[2] > lim[2]) << 2
            | u64::from(a[3] > lim[3]) << 3;
    }
    mask
}
