//! The Race Detection Unit core both placements share.
//!
//! HAccRG is one RDU design used in two places: next to every SM's
//! shared-memory banks (§IV-A, [`crate::shared_rdu`]) and in every
//! global-memory slice (§IV-B, [`crate::global_rdu`]). Both run the same
//! Fig. 3 state machine over a table of shadow entries; they differ only
//! in where the entries live, how they are reset, and which policy bits
//! apply. [`Rdu`] is that one unit — shadow table, [`ShadowPolicy`],
//! witness ring, scalar-path pin and [`DispatchStats`] — and owns the two
//! paths every checked chunk takes:
//!
//! * the **wide** tier: [`ShadowTable::wide_lane`] settles a single-chunk
//!   lane from its entry's packed hot words
//!   ([`crate::hotwords::wide_step`]);
//! * the **reference** step: attach → [`ShadowEntry::observe_health`] →
//!   repack on one chunk, reporting the Fig. 3 edge, the witness event
//!   and the race. It is the whole of the per-access `observe_health`
//!   path, and the batch path's fallback for every lane the wide tier
//!   leaves cold.
//!
//! A [`Placement`] ([`crate::global_rdu::GlobalPlacement`],
//! [`crate::shared_rdu::SharedPlacement`]) supplies what really differs:
//! its counter block, and the placement-specific operations built on the
//! core — global's shadow-traffic addressing, shared's banked barrier
//! reset.

use std::fmt::Debug;

use crate::access::MemAccess;
use crate::clocks::ClockFile;
use crate::dispatch::{force_scalar_shadow_default, DispatchStats};
use crate::granularity::Granularity;
use crate::health::{DetectorHealth, WitnessEvent, WitnessRing, WITNESS_RING_DEPTH};
use crate::race::RaceLog;
use crate::shadow::{ShadowEntry, ShadowPolicy, ShadowState};
use crate::shadow_table::ShadowTable;

/// Callback invoked by the batch checkers for every Fig. 3 state-machine
/// edge, in the exact order the scalar pipeline would have emitted
/// `ShadowTransition` events: `(chunk_addr, from, to)`.
pub type TransitionSink<'a> = &'a mut dyn FnMut(u32, ShadowState, ShadowState);

/// Where an RDU sits: the placement-specific half of [`Rdu`].
pub trait Placement: Clone + Debug {
    /// The counters the evaluation harness reads off this placement.
    type Stats: Clone + Copy + Debug + Default;
}

/// One Race Detection Unit: a shadow table of `num_entries` chunks of
/// `granularity` bytes starting at byte address `base`, checked under one
/// [`ShadowPolicy`].
#[derive(Clone, Debug)]
pub struct Rdu<P: Placement> {
    /// Byte address of chunk 0 (the heap base; 0 for shared memory).
    pub(crate) base: u32,
    pub(crate) gran: Granularity,
    pub(crate) table: ShadowTable,
    policy: ShadowPolicy,
    /// Opt-in windowed access recorder feeding per-race witness timelines.
    capture_witness: bool,
    ring: WitnessRing,
    /// Escape hatch: pin every batch lane to the reference path
    /// (`HACCRG_FORCE_SCALAR_SHADOW`, [`crate::dispatch`]).
    force_scalar: bool,
    /// Lanes retired per dispatch tier (wide / scalar).
    pub dispatch: DispatchStats,
    /// Check/traffic counters of this placement.
    pub stats: P::Stats,
    pub(crate) place: P,
}

impl<P: Placement> Rdu<P> {
    /// A fresh unit over `num_entries` chunks.
    pub(crate) fn with_placement(
        place: P,
        base: u32,
        num_entries: usize,
        gran: Granularity,
        policy: ShadowPolicy,
    ) -> Self {
        Self {
            base,
            gran,
            table: ShadowTable::new(num_entries),
            policy,
            capture_witness: false,
            ring: WitnessRing::with_depth(WITNESS_RING_DEPTH),
            force_scalar: force_scalar_shadow_default(),
            dispatch: DispatchStats::default(),
            stats: P::Stats::default(),
            place,
        }
    }

    /// Pin (`true`) or re-enable (`false`) the wide tier for this RDU
    /// only, overriding the `HACCRG_FORCE_SCALAR_SHADOW` default the
    /// constructor read. Detection results are identical either way;
    /// only [`Self::dispatch`] moves.
    pub fn set_force_scalar(&mut self, on: bool) {
        self.force_scalar = on;
    }

    /// Whether the reference path is pinned for this RDU.
    pub fn force_scalar(&self) -> bool {
        self.force_scalar
    }

    /// Enable/disable the windowed access recorder. When enabled, every
    /// detected race carries a bounded witness timeline of recent accesses
    /// to the racy chunk.
    pub fn set_witness_capture(&mut self, on: bool) {
        self.capture_witness = on;
        if !on {
            self.ring.clear();
        }
    }

    /// Switch both-protected conflict decisions to the exact lookup-table
    /// lockset (§III-B alternative) where exact info is available.
    pub fn set_exact_lockset(&mut self, on: bool) {
        self.policy.exact_lockset = on;
    }

    /// Tracking granularity.
    pub fn granularity(&self) -> Granularity {
        self.gran
    }

    /// Number of shadow entries.
    pub fn num_entries(&self) -> usize {
        self.table.len()
    }

    /// Shadow pages currently materialized (diagnostics/benchmarks).
    pub fn pages_allocated(&self) -> usize {
        self.table.pages_allocated()
    }

    /// Inspect a shadow entry (tests/debugging). Untouched and
    /// epoch-invalidated entries read as fresh.
    pub fn entry(&self, idx: usize) -> ShadowEntry {
        self.table.get(idx)
    }

    /// Inclusive range of shadow-entry indices an access of `size` bytes
    /// at `addr` touches, clamped to the table — the chunks every check
    /// walks. `None` when the access starts outside the table (below the
    /// base or past the end). An access reaching past `u32::MAX` is
    /// clamped like one reaching past the table.
    pub fn chunk_range(&self, addr: u32, size: u8) -> Option<(usize, usize)> {
        chunk_span(self.base, self.gran.shift(), self.table.len(), addr, size)
    }

    /// Byte address of the first byte of chunk `idx`.
    pub fn chunk_addr(&self, idx: usize) -> u32 {
        self.base + ((idx as u32) << self.gran.shift())
    }

    /// Invalidate every entry (kernel launch/termination) — a generation
    /// bump per materialized page.
    pub fn reset_all(&mut self) {
        self.table.reset_all();
        self.ring.clear();
    }

    /// The reference path for one access: the reference step on every
    /// chunk it touches. Returns the first chunk, the chunks read and the
    /// chunks changed; `None` for an access outside the table.
    pub(crate) fn observe_access(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
    ) -> Option<(usize, u8, u8)> {
        let (lo, hi) = self.chunk_range(a.addr, a.size)?;
        let writes = self.observe_span(lo, hi, a, clocks, log, h, &mut None);
        Some((lo, (hi - lo + 1) as u8, writes))
    }

    /// The per-lane loop of both placements' `check_warp_batch`,
    /// bit-identical to the reference path run lane by lane: a
    /// single-chunk lane goes to the wide tier, and a lane the wide tier
    /// leaves cold — like every multi-chunk lane, and every lane while a
    /// transition sink, witness capture or the scalar pin is on — takes
    /// the reference step on the same entry, in program order. For each
    /// access inside the table, `lane_done` receives the placement's
    /// counters, the access, its first chunk, and the chunks it read and
    /// changed.
    pub(crate) fn check_lanes(
        &mut self,
        accesses: &[MemAccess],
        clocks: &ClockFile,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
        mut on_transition: Option<TransitionSink<'_>>,
        mut lane_done: impl FnMut(&mut P::Stats, &MemAccess, usize, u8, u8),
    ) {
        let wide = on_transition.is_none() && !self.capture_witness && !self.force_scalar;
        // Loop invariants and tallies live in locals: through `self` they
        // would be reloaded after every shadow-page store.
        let (base, shift, len, policy) =
            (self.base, self.gran.shift(), self.table.len(), self.policy);
        let mut stats = self.stats;
        let (mut wide_n, mut scalar_n) = (0u64, 0u64);
        for a in accesses {
            let Some((lo, hi)) = chunk_span(base, shift, len, a.addr, a.size) else {
                continue;
            };
            let retired = if wide && lo == hi {
                self.table.wide_lane(lo, a, &policy, h)
            } else {
                None
            };
            let writes = match retired {
                Some(changed) => {
                    wide_n += 1;
                    u8::from(changed)
                }
                None => {
                    scalar_n += (hi - lo + 1) as u64;
                    self.observe_span(lo, hi, a, clocks, log, h, &mut on_transition)
                }
            };
            lane_done(&mut stats, a, lo, (hi - lo + 1) as u8, writes);
        }
        self.stats = stats;
        self.dispatch.wide_lanes += wide_n;
        self.dispatch.scalar_lanes += scalar_n;
    }

    /// The reference step on chunks `lo..=hi`; returns how many changed.
    /// Kept out of line so the wide tier's steady state stays tight.
    #[allow(clippy::too_many_arguments)]
    #[cold]
    #[inline(never)]
    fn observe_span(
        &mut self,
        lo: usize,
        hi: usize,
        a: &MemAccess,
        clocks: &ClockFile,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
        on_transition: &mut Option<TransitionSink<'_>>,
    ) -> u8 {
        let mut writes = 0;
        for idx in lo..hi + 1 {
            let addr = self.chunk_addr(idx);
            let mut chunk = *a;
            chunk.addr = addr;
            let policy = &self.policy;
            let (changed, from, to, race) = self.table.update(idx, h, |e, h| {
                let before = *e;
                let race = e.observe_health(&chunk, clocks, policy, h);
                (*e != before, before.state(), e.state(), race)
            });
            writes += u8::from(changed);
            if let Some(cb) = on_transition.as_deref_mut() {
                if from != to {
                    cb(addr, from, to);
                }
            }
            if self.capture_witness && a.kind.is_tracked() {
                self.ring.push(WitnessEvent {
                    cycle: a.cycle,
                    who: a.who,
                    pc: a.pc,
                    kind: a.kind,
                    addr,
                    state_before: from,
                    state_after: to,
                });
            }
            if let Some(r) = race {
                if self.capture_witness {
                    log.push_with_witness(r, &self.ring.collect_for(addr));
                } else {
                    log.push(r);
                }
            }
        }
        writes
    }
}

/// The chunks `lo..=hi` an access of `size` bytes at `addr` touches in a
/// table of `len` chunks of `1 << shift` bytes starting at `base`,
/// clamped to the table; `None` when it starts outside the table. The
/// end is computed from the offset, saturating, so an access running
/// past `u32::MAX` cannot overflow.
fn chunk_span(base: u32, shift: u32, len: usize, addr: u32, size: u8) -> Option<(usize, usize)> {
    let off = addr.checked_sub(base)?;
    let lo = (off >> shift) as usize;
    if lo >= len {
        return None;
    }
    let last = off.saturating_add(u32::from(size.max(1)) - 1);
    Some((lo, ((last >> shift) as usize).min(len - 1)))
}

#[cfg(test)]
mod tests {
    use crate::bloom::BloomConfig;
    use crate::granularity::Granularity;
    use crate::prelude::{GlobalRdu, SharedRdu};

    #[test]
    fn chunk_range_spans_straddles_and_clamps() {
        let g4 = Granularity::new(4).unwrap();
        let shared = SharedRdu::new(0, 64, 16, g4, true, BloomConfig::PAPER_DEFAULT);
        assert_eq!(shared.chunk_range(2, 4), Some((0, 1)));
        assert_eq!(shared.chunk_range(4, 4), Some((1, 1)));
        assert_eq!(shared.chunk_range(7, 1), Some((1, 1)));
        // Size 0 is treated as 1 byte.
        assert_eq!(shared.chunk_range(5, 0), Some((1, 1)));
        // Clamped to the table; past its end, nothing.
        assert_eq!(shared.chunk_range(60, 8), Some((15, 15)));
        assert_eq!(shared.chunk_range(64, 4), None);
        // An access reaching past u32::MAX must not overflow.
        assert_eq!(shared.chunk_range(u32::MAX - 1, 4), None);
        // A global heap ending at the top of the address space.
        let base = u32::MAX - 4095;
        let global = GlobalRdu::new(base, 4096, 0, g4, true, true, BloomConfig::PAPER_DEFAULT);
        assert_eq!(global.chunk_range(u32::MAX - 1, 4), Some((1023, 1023)));
        assert_eq!(global.chunk_range(u32::MAX, 255), Some((1023, 1023)));
        assert_eq!(
            global.chunk_range(base - 1, 4),
            None,
            "below the base: untracked"
        );
        assert_eq!(global.chunk_addr(1), base + 4);
    }
}
