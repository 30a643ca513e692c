//! Tier-coverage regression for the shadow-check dispatch tiers.
//!
//! The wide tier must keep retiring the lanes the Table II suite actually
//! issues — HIST's same-warp byte counters, SORTNW's and FWALSH's shared
//! exchanges, MCARLO's and KMEANS's read-only global inputs — and pinning
//! the scalar reference tier (`DetectorConfig::force_scalar_shadow`) must
//! move nothing but the tier counts: statistics (health counters
//! included), race records and race totals stay bit-identical.

use haccrg::config::DetectorConfig;
use haccrg::dispatch::DispatchStats;
use haccrg_workloads::runner::{run, RunConfig, RunOutput};
use haccrg_workloads::{all_benchmarks, benchmark_by_name, Scale};

fn run_tiny(name: &str, force_scalar: bool) -> RunOutput {
    let mut cfg = DetectorConfig::paper_default();
    cfg.force_scalar_shadow = force_scalar;
    let bench = benchmark_by_name(name).expect("Table II benchmark");
    run(bench.as_ref(), &RunConfig::with_detector(Scale::Tiny, cfg)).expect("simulation")
}

/// Wide-tier share floors at `tiny` scale, per RDU, from the
/// `runbench --scale tiny` `tiers` line: every listed lane set measured
/// 1.000 wide except KMEANS's global lanes, 0.9995 (its 32 racing lanes
/// belong to the scalar path by design).
const SHARED_FLOORS: [(&str, f64); 3] = [("HIST", 1.0), ("SORTNW", 1.0), ("FWALSH", 1.0)];
const GLOBAL_FLOORS: [(&str, f64); 3] = [("MCARLO", 1.0), ("KMEANS", 0.99), ("FWALSH", 1.0)];

fn assert_floor(name: &str, rdu: &str, d: &DispatchStats, floor: f64) {
    assert!(d.total() > 0, "{name}: no {rdu} lanes dispatched");
    assert!(
        d.wide_share() >= floor,
        "{name}: {rdu} wide share {:.4} fell below {floor} ({d})",
        d.wide_share()
    );
}

#[test]
fn wide_tier_covers_the_table2_traffic() {
    for (name, floor) in SHARED_FLOORS {
        assert_floor(name, "shared", &run_tiny(name, false).tiers.shared, floor);
    }
    for (name, floor) in GLOBAL_FLOORS {
        assert_floor(name, "global", &run_tiny(name, false).tiers.global, floor);
    }
}

#[test]
fn forced_scalar_changes_only_the_tier_counts() {
    for bench in all_benchmarks() {
        let name = bench.name();
        let wide = run_tiny(name, false);
        let scalar = run_tiny(name, true);
        assert_eq!(wide.stats.health, scalar.stats.health, "{name}: health");
        assert_eq!(wide.stats, scalar.stats, "{name}: stats");
        assert_eq!(wide.races.records(), scalar.races.records(), "{name}: races");
        assert_eq!(wide.races.total(), scalar.races.total(), "{name}: race total");
        assert!(wide.verified.is_ok() && scalar.verified.is_ok(), "{name}: verify");
        for (rdu, w, s) in [("shared", wide.tiers.shared, scalar.tiers.shared), ("global", wide.tiers.global, scalar.tiers.global)] {
            assert_eq!(w.total(), s.total(), "{name}: {rdu} lanes dispatched");
            assert_eq!(s.scalar_lanes, s.total(), "{name}: the hatch must pin {rdu} to scalar ({s})");
        }
    }
}
