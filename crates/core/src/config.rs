//! Detector configuration knobs, defaulting to the paper's evaluated
//! setup (§V–VI).

use serde::{Deserialize, Serialize};

use crate::bloom::BloomConfig;
use crate::granularity::Granularity;

/// Where the shared-memory shadow entries live (Fig. 8 experiment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharedShadowPlacement {
    /// Dedicated SRAM next to the shared-memory banks (the default HAccRG
    /// design): checks are free, barriers pay a bulk-reset cost.
    Hardware,
    /// Shadow entries stored in global memory and cached in L1 (Fig. 8's
    /// hardware/software split): every shared access additionally touches
    /// the global-memory path.
    GlobalMemory,
}

/// Full detector configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Enable the per-SM shared-memory RDUs.
    pub shared_enabled: bool,
    /// Enable the per-memory-slice global RDUs.
    pub global_enabled: bool,
    /// Shared-memory tracking granularity (paper default 16 B).
    pub shared_granularity: Granularity,
    /// Global-memory tracking granularity (paper default 4 B).
    pub global_granularity: Granularity,
    /// Atomic-ID (lockset signature) shape.
    pub bloom: BloomConfig,
    /// When dynamic warp re-grouping is enabled the intra-warp ordering
    /// guarantee disappears and races are reported regardless of warp
    /// membership (§III-A "Impact of Warps").
    pub warp_regrouping: bool,
    /// Fig. 8 mode: shared-memory shadow entries spill to global memory.
    pub shared_shadow: SharedShadowPlacement,
    /// Report cross-SM RAW races on stale L1 hits (§IV-B).
    pub l1_stale_check: bool,
    /// Use the exact lookup-table lockset (§III-B's alternative) instead
    /// of the Bloom signature wherever exact information is available.
    /// No aliasing, hence no aliasing-induced misses; accesses lacking
    /// exact lockset data fall back to the Bloom check.
    #[serde(default)]
    pub exact_lockset: bool,
    /// Record a windowed access history in each RDU and attach bounded
    /// witness timelines to detected races (fidelity introspection; off
    /// in the paper's hardware, hence off by default).
    #[serde(default)]
    pub witness_capture: bool,
    /// Pin both RDUs' batch pipelines to the per-lane scalar shadow path
    /// (bisection hatch for the wide tier; see [`crate::dispatch`]).
    /// `false` still honors the `HACCRG_FORCE_SCALAR_SHADOW` environment
    /// variable — the config can force scalar on, not force it off.
    #[serde(default)]
    pub force_scalar_shadow: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl DetectorConfig {
    /// The configuration evaluated throughout §VI: both RDUs on, 16 B
    /// shared / 4 B global granularity, 16-bit 2-bin atomic IDs.
    pub fn paper_default() -> Self {
        Self {
            shared_enabled: true,
            global_enabled: true,
            shared_granularity: Granularity::SHARED_DEFAULT,
            global_granularity: Granularity::GLOBAL_DEFAULT,
            bloom: BloomConfig::PAPER_DEFAULT,
            warp_regrouping: false,
            shared_shadow: SharedShadowPlacement::Hardware,
            l1_stale_check: true,
            exact_lockset: false,
            witness_capture: false,
            force_scalar_shadow: false,
        }
    }

    /// Detection fully disabled (the baseline bars in Fig. 7/9).
    pub fn disabled() -> Self {
        Self {
            shared_enabled: false,
            global_enabled: false,
            ..Self::paper_default()
        }
    }

    /// Shared-memory-only detection (Fig. 7's ≈1%-overhead configuration).
    pub fn shared_only() -> Self {
        Self {
            shared_enabled: true,
            global_enabled: false,
            ..Self::paper_default()
        }
    }

    /// Combined shared+global detection (Fig. 7's ≈27%-overhead
    /// configuration). Identical to [`Self::paper_default`].
    pub fn shared_and_global() -> Self {
        Self::paper_default()
    }

    /// Whether any detection is active.
    pub fn any_enabled(&self) -> bool {
        self.shared_enabled || self.global_enabled
    }

    /// Validate cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.bloom.validate()?;
        if self.shared_shadow == SharedShadowPlacement::GlobalMemory && !self.shared_enabled {
            return Err("software shared-shadow placement requires shared detection".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_6() {
        let c = DetectorConfig::paper_default();
        assert_eq!(c.shared_granularity.bytes(), 16);
        assert_eq!(c.global_granularity.bytes(), 4);
        assert_eq!(c.bloom.bits, 16);
        assert_eq!(c.bloom.bins, 2);
        assert!(c.shared_enabled && c.global_enabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn presets_toggle_the_right_units() {
        assert!(!DetectorConfig::disabled().any_enabled());
        let s = DetectorConfig::shared_only();
        assert!(s.shared_enabled && !s.global_enabled);
        let sg = DetectorConfig::shared_and_global();
        assert!(sg.shared_enabled && sg.global_enabled);
    }

    #[test]
    fn sw_shadow_requires_shared_detection() {
        let mut c = DetectorConfig::disabled();
        c.shared_shadow = SharedShadowPlacement::GlobalMemory;
        assert!(c.validate().is_err());
        c.shared_enabled = true;
        assert!(c.validate().is_ok());
    }
}
