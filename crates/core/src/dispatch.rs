//! Shadow-check dispatch accounting and the scalar-path escape hatch.
//!
//! The batch pipeline (`check_warp_batch` on both RDUs) has three ways
//! to retire a lane:
//!
//! * **wide** — [`crate::shadow_table::ShadowTable::wide_lane`]
//!   computed the lane's Fig. 3 transition from the entry's 32-byte
//!   packed hot slot ([`crate::hotwords::wide_step`]) without touching
//!   the AoS entry. It covers every single-chunk lane whose transition
//!   is neither a race candidate nor lockset business: State-1 first
//!   touches and the global §IV-B sync-ID reopen (both `init_from`),
//!   accesses ordered with the recorded one (same thread, or same warp
//!   under the §III-A warp filter — HIST's byte counters), and reads of
//!   `ReadSingle`/`ReadShared` entries from other warps and blocks
//!   (MCARLO's and KMEANS's inputs), truncated-ID collisions counted
//!   exactly;
//! * **cs-fast** — a critical-section lane the wide tier left cold, whose
//!   benign §III-B verdict the batched lockset path
//!   ([`crate::shadow::ShadowEntry::observe_lockset_fast`]) settled
//!   without the `#[cold]` scalar fallback;
//! * **scalar** — the per-lane reference path (`check_chunk` /
//!   `check_chunk_slow`): races, the cross-warp read of a written entry
//!   (§III-C fence / §IV-B stale-L1 checks), unordered writes, the
//!   lockset cases `observe_lockset_fast` declines, unpackable values
//!   (SM IDs ≥ 2^16, cycles ≥ 2^23), multi-chunk accesses, and — verbatim
//!   for every lane — whenever tracing, witness capture, or the escape
//!   hatch pins it.
//!
//! [`DispatchStats`] counts lanes per tier so tests (and bisection) can
//! assert which path actually ran — detection results are bit-identical
//! across tiers by construction, so nothing else observable moves.
//! `gpu_sim::LaunchResult::tiers` sums them per launch and `runbench`
//! prints them as its `tiers` line.
//!
//! Setting the environment variable `HACCRG_FORCE_SCALAR_SHADOW`
//! (`1`/`true`/`yes`/`on`) — or calling
//! [`set_force_scalar_shadow`] before RDUs are built, which is what
//! `warp_bench` does for its reference columns — pins every lane to the
//! scalar tier, mirroring `--no-cycle-skip` for the cycle-skip layer.
//! Both RDUs also expose a per-instance `set_force_scalar` override so
//! tests can pin a single detector without racing the process-wide knob.

use std::sync::atomic::{AtomicU8, Ordering};

/// Per-RDU counters of how many lanes each dispatch tier retired.
///
/// Deliberately *not* part of `GlobalRduStats`/`SharedRduStats`: those
/// are compared bit-identical between scalar and batch pipelines by the
/// equivalence suites, while dispatch counts differ by construction
/// (that difference is exactly what the escape-hatch test asserts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Lanes retired by the wide tier ([`crate::hotwords::wide_step`]).
    pub wide_lanes: u64,
    /// Lanes retired by the batched lockset fast path.
    pub cs_fast_lanes: u64,
    /// Lanes retired by the per-lane scalar reference path.
    pub scalar_lanes: u64,
}

impl DispatchStats {
    /// Total lanes dispatched through any tier.
    pub fn total(&self) -> u64 {
        self.wide_lanes + self.cs_fast_lanes + self.scalar_lanes
    }

    /// Share of lanes the wide tier retired; 0 when nothing ran.
    pub fn wide_share(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            n => self.wide_lanes as f64 / n as f64,
        }
    }

    /// Add another RDU's (or launch's) counts.
    pub fn accumulate(&mut self, o: &DispatchStats) {
        self.wide_lanes += o.wide_lanes;
        self.cs_fast_lanes += o.cs_fast_lanes;
        self.scalar_lanes += o.scalar_lanes;
    }
}

impl std::fmt::Display for DispatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wide {} / cs-fast {} / scalar {}",
            self.wide_lanes, self.cs_fast_lanes, self.scalar_lanes
        )
    }
}

/// Process-wide override: 0 = unset (consult the environment),
/// 1 = forced scalar, 2 = forced wide (ignore the environment).
static FORCE_SCALAR: AtomicU8 = AtomicU8::new(0);

/// Parse an `HACCRG_FORCE_SCALAR_SHADOW` value. Split out for tests —
/// mutating the process environment is racy under the threaded test
/// harness.
pub fn parse_force_scalar(value: Option<&str>) -> bool {
    matches!(value, Some("1" | "true" | "yes" | "on"))
}

/// Pin (or unpin) the scalar shadow path for every RDU constructed from
/// now on. Takes precedence over the environment variable.
pub fn set_force_scalar_shadow(force: bool) {
    FORCE_SCALAR.store(if force { 1 } else { 2 }, Ordering::Relaxed);
}

/// Whether newly constructed RDUs should pin the scalar shadow path:
/// the programmatic override if set, else `HACCRG_FORCE_SCALAR_SHADOW`.
pub fn force_scalar_shadow_default() -> bool {
    match FORCE_SCALAR.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => parse_force_scalar(
            std::env::var("HACCRG_FORCE_SCALAR_SHADOW").ok().as_deref(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_like_no_cycle_skip() {
        for on in ["1", "true", "yes", "on"] {
            assert!(parse_force_scalar(Some(on)), "{on:?} must force scalar");
        }
        for off in [None, Some("0"), Some("false"), Some(""), Some("2")] {
            assert!(!parse_force_scalar(off), "{off:?} must stay wide");
        }
    }

    #[test]
    fn dispatch_totals_sum_all_tiers() {
        let mut d = DispatchStats { wide_lanes: 5, cs_fast_lanes: 2, scalar_lanes: 1 };
        assert_eq!(d.total(), 8);
        assert_eq!(d.wide_share(), 5.0 / 8.0);
        d.accumulate(&DispatchStats { wide_lanes: 3, cs_fast_lanes: 0, scalar_lanes: 0 });
        assert_eq!(d.wide_lanes, 8);
        assert_eq!(d.to_string(), "wide 8 / cs-fast 2 / scalar 1");
        assert_eq!(DispatchStats::default().wide_share(), 0.0);
    }
}
