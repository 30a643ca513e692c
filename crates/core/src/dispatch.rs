//! Shadow-check dispatch accounting and the reference-path escape hatch.
//!
//! Every checked chunk takes one of the two paths of the RDU core
//! ([`crate::rdu`]), shared by both placements:
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
//! * **scalar** — the reference step (attach → the scalar Fig. 3
//!   `ShadowEntry::observe_health` → repack, one chunk at a time): races,
//!   the cross-warp read of a written entry (§III-C fence / §IV-B
//!   stale-L1 checks), unordered writes, every critical-section lane
//!   (§III-B lockset rules), unpackable values (SM IDs ≥ 2^16, cycles
//!   ≥ 2^23), each chunk of a multi-chunk access, and — for every lane —
//!   whenever tracing, witness capture, or the escape hatch pins it.
//!
//! [`DispatchStats`] counts lanes per path so tests (and bisection) can
//! assert which one actually ran — detection results are bit-identical
//! across paths by construction, so nothing else observable moves.
//! `gpu_sim::LaunchResult::tiers` sums them per launch and `runbench`
//! prints them as its `tiers` line.
//!
//! Setting the environment variable `HACCRG_FORCE_SCALAR_SHADOW`
//! (`1`/`true`/`yes`/`on`) pins every lane of every RDU built afterwards
//! to the reference path, mirroring `--no-cycle-skip` for the cycle-skip
//! layer; `DetectorConfig::force_scalar_shadow` does the same for one
//! simulated GPU. Both placements also expose a per-instance
//! `set_force_scalar` so tests and `warp_bench` can pin a single detector.

/// Per-RDU counters of how many lanes each dispatch path retired.
///
/// Deliberately *not* part of `GlobalRduStats`/`SharedRduStats`: those
/// are compared bit-identical between the wide and pinned-scalar runs by
/// the equivalence suites, while dispatch counts differ by construction
/// (that difference is exactly what the escape-hatch test asserts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Lanes retired by the wide tier ([`crate::hotwords::wide_step`]).
    pub wide_lanes: u64,
    /// Chunks checked by the reference step.
    pub scalar_lanes: u64,
}

impl DispatchStats {
    /// Total lanes dispatched through either path.
    pub fn total(&self) -> u64 {
        self.wide_lanes + self.scalar_lanes
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
        self.scalar_lanes += o.scalar_lanes;
    }
}

impl std::fmt::Display for DispatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wide {} / scalar {}", self.wide_lanes, self.scalar_lanes)
    }
}

/// Parse an `HACCRG_FORCE_SCALAR_SHADOW` value. Split out for tests —
/// mutating the process environment is racy under the threaded test
/// harness.
pub fn parse_force_scalar(value: Option<&str>) -> bool {
    matches!(value, Some("1" | "true" | "yes" | "on"))
}

/// Whether newly constructed RDUs should pin the reference path:
/// `HACCRG_FORCE_SCALAR_SHADOW`.
pub fn force_scalar_shadow_default() -> bool {
    parse_force_scalar(std::env::var("HACCRG_FORCE_SCALAR_SHADOW").ok().as_deref())
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
        let mut d = DispatchStats { wide_lanes: 5, scalar_lanes: 3 };
        assert_eq!(d.total(), 8);
        assert_eq!(d.wide_share(), 5.0 / 8.0);
        d.accumulate(&DispatchStats { wide_lanes: 3, scalar_lanes: 0 });
        assert_eq!(d.wide_lanes, 8);
        assert_eq!(d.to_string(), "wide 8 / scalar 3");
        assert_eq!(DispatchStats::default().wide_share(), 0.0);
    }
}
