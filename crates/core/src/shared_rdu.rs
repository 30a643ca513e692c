//! The per-SM shared-memory Race Detection Unit (§IV-A).
//!
//! Shared memory is small, on-chip and private to an SM, so its shadow
//! entries live in dedicated storage next to the banks and every access is
//! checked *in parallel* with the data access — detection itself costs no
//! cycles. The only timing effect is the bulk invalidation of a block's
//! entries when it passes a barrier, which the simulator charges using
//! [`SharedRdu::reset_block_range`]'s returned cycle count.

use serde::{Deserialize, Serialize};

use crate::access::{MemAccess, MemSpace};
use crate::bloom::BloomConfig;
use crate::clocks::ClockFile;
use crate::cost;
use crate::granularity::Granularity;
use crate::health::DetectorHealth;
use crate::intra_warp::check_intra_warp_waw_into;
use crate::race::RaceLog;
use crate::rdu::{Placement, Rdu, TransitionSink};
use crate::scratch::RaceScratch;
use crate::shadow::ShadowPolicy;

/// Counters the evaluation harness reads off each shared RDU.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct SharedRduStats {
    /// Accesses checked against shadow entries.
    pub checks: u64,
    /// Barrier-triggered bulk resets.
    pub resets: u64,
    /// Shadow entries invalidated by those resets.
    pub reset_entries: u64,
    /// Cycles charged for resets (entries / banks, rounded up).
    pub reset_cycles: u64,
    /// Intra-warp pre-issue WAW checks performed.
    pub intra_warp_checks: u64,
}

/// The shared placement: dedicated banked shadow storage in one SM.
#[derive(Clone, Copy, Debug)]
pub struct SharedPlacement {
    sm: u32,
    banks: u32,
}

impl Placement for SharedPlacement {
    type Stats = SharedRduStats;
}

/// Shared-memory RDU for one streaming multiprocessor. Addresses are
/// byte offsets into the SM's shared memory; an access past the end is
/// clamped to the table.
pub type SharedRdu = Rdu<SharedPlacement>;

impl SharedRdu {
    /// Build an RDU covering `shared_bytes` of shared memory, split into
    /// `banks` banks (16 on the paper's configuration), with the given
    /// tracking granularity. `warp_filter` should be `!warp_regrouping`.
    pub fn new(
        sm: u32,
        shared_bytes: u32,
        banks: u32,
        gran: Granularity,
        warp_filter: bool,
        bloom: BloomConfig,
    ) -> Self {
        Rdu::with_placement(
            SharedPlacement { sm, banks: banks.max(1) },
            0,
            gran.entries_for(shared_bytes),
            gran,
            ShadowPolicy::shared(warp_filter, bloom),
        )
    }

    /// SM this RDU belongs to.
    pub fn sm(&self) -> u32 {
        self.place.sm
    }

    /// Check one lane access. `addr` in the access is a byte offset into
    /// this SM's shared memory. Races are pushed into `log`.
    pub fn observe(&mut self, a: &MemAccess, clocks: &ClockFile, log: &mut RaceLog) {
        let mut h = DetectorHealth::default();
        self.observe_health(a, clocks, log, &mut h);
    }

    /// [`Self::observe`] with fidelity accounting into `h` (lockset-check
    /// outcomes, aliasing-suppressed conflicts, shadow-page occupancy) and,
    /// when witness capture is on, ring recording + timeline attachment.
    pub fn observe_health(
        &mut self,
        a: &MemAccess,
        clocks: &ClockFile,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
    ) {
        debug_assert_eq!(a.who.sm, self.place.sm, "access routed to the wrong SM's RDU");
        self.stats.checks += 1;
        self.observe_access(a, clocks, log, h);
    }

    /// Batch counterpart of [`Self::observe_health`] over one warp's lane
    /// accesses — bit-identical to `check_warp_stores` (when `is_store`)
    /// followed by `observe_health` per lane in order, through the RDU
    /// core's per-lane loop; `on_transition` (tracing) observes every
    /// Fig. 3 edge in scalar order.
    #[allow(clippy::too_many_arguments)]
    pub fn check_warp_batch(
        &mut self,
        accesses: &[MemAccess],
        is_store: bool,
        clocks: &ClockFile,
        scratch: &mut RaceScratch,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
        on_transition: Option<TransitionSink<'_>>,
    ) {
        if is_store {
            self.check_warp_stores(accesses, scratch, log);
        }
        debug_assert!(
            accesses.iter().all(|a| a.who.sm == self.place.sm),
            "access routed to the wrong SM's RDU"
        );
        self.stats.checks += accesses.len() as u64;
        self.check_lanes(accesses, clocks, log, h, on_transition, |_, _, _, _, _| {});
    }

    /// Pre-issue intra-warp WAW check over one warp instruction's lanes
    /// (exact byte overlap — same-warp chunk conflation never reports).
    /// Races go into `log`; `scratch` supplies the reusable dedup buffer.
    pub fn check_warp_stores(
        &mut self,
        lanes: &[MemAccess],
        scratch: &mut RaceScratch,
        log: &mut RaceLog,
    ) {
        self.stats.intra_warp_checks += 1;
        check_intra_warp_waw_into(lanes, 0, MemSpace::Shared, scratch, log);
    }

    /// A block resident on this SM reached a barrier: invalidate the shadow
    /// entries covering its shared-memory allocation `[lo, hi)` and return
    /// the stall cycles the invalidation costs (`entries / banks` — the
    /// banked shadow storage clears one row per bank per cycle).
    pub fn reset_block_range(&mut self, lo: u32, hi: u32) -> u64 {
        let first = self.gran.index(0, lo);
        let last = self.gran.entries_for(hi).min(self.table.len());
        let count = last.saturating_sub(first);
        // Functionally a lazy epoch bump (O(pages)); the charged cycles
        // keep modeling the banked hardware clear over the full range.
        self.table.reset_range(first, last);
        self.stats.resets += 1;
        self.stats.reset_entries += count as u64;
        let cycles = cost::banked_reset_cycles(count as u64, self.place.banks);
        self.stats.reset_cycles += cycles;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, ThreadCoord};

    fn rdu() -> SharedRdu {
        SharedRdu::new(
            0,
            16 * 1024,
            16,
            Granularity::SHARED_DEFAULT,
            true,
            BloomConfig::PAPER_DEFAULT,
        )
    }

    fn acc(addr: u32, kind: AccessKind, tid: u32, warp: u32) -> MemAccess {
        MemAccess::plain(addr, 4, kind, ThreadCoord::new(tid, warp, 0, 0))
    }

    #[test]
    fn sizing_follows_granularity() {
        assert_eq!(rdu().num_entries(), 1024);
        let fine = SharedRdu::new(0, 16 * 1024, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        assert_eq!(fine.num_entries(), 4096);
    }

    #[test]
    fn detects_cross_warp_conflict() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(64, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        assert_eq!(r.stats.checks, 2);
    }

    #[test]
    fn sixteen_byte_chunks_conflate_neighbours() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        // Different words, same 16-byte chunk: conflated (false positive
        // territory — exactly Table III's effect).
        r.observe(&acc(0, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(12, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
    }

    #[test]
    fn word_granularity_separates_neighbours() {
        let mut r = SharedRdu::new(0, 16 * 1024, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(0, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(12, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 0);
    }

    #[test]
    fn barrier_reset_clears_history_and_charges_cycles() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0), &c, &mut log);
        // A block owning the whole 16KB: 1024 entries / 16 banks = 64 cycles.
        let cycles = r.reset_block_range(0, 16 * 1024);
        assert_eq!(cycles, 64);
        assert_eq!(r.stats.reset_entries, 1024);
        r.observe(&acc(64, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 0, "barrier ordered the accesses");
    }

    #[test]
    fn partial_reset_only_touches_the_block_range() {
        let mut r = rdu();
        let c = ClockFile::new(2, 4);
        let mut log = RaceLog::default();
        // Two blocks each own 8KB of the SM's shared memory.
        r.observe(&acc(0, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(8192, AccessKind::Write, 64, 2), &c, &mut log);
        r.reset_block_range(0, 8192); // block 0's barrier
        r.observe(&acc(0, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 0);
        // Block 1's history survived.
        r.observe(&acc(8192, AccessKind::Read, 96, 3), &c, &mut log);
        assert_eq!(log.distinct(), 1);
    }

    #[test]
    fn straddling_access_checks_both_chunks() {
        let mut r = SharedRdu::new(0, 1024, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        // 8-byte write covering words 0 and 1.
        let mut w = acc(0, AccessKind::Write, 0, 0);
        w.size = 8;
        r.observe(&w, &c, &mut log);
        r.observe(&acc(4, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
    }

    #[test]
    fn out_of_range_access_is_clamped() {
        let mut r = SharedRdu::new(0, 64, 16, Granularity::new(4).unwrap(), true, BloomConfig::PAPER_DEFAULT);
        let c = ClockFile::new(1, 1);
        let mut log = RaceLog::default();
        let mut h = DetectorHealth::default();
        let mut scratch = RaceScratch::default();
        // Addresses past the end — up to the last bytes of the address
        // space, where `addr + size` overflows — must not panic, through
        // either entry point.
        for addr in [1 << 20, u32::MAX - 1, u32::MAX] {
            let a = acc(addr, AccessKind::Write, 0, 0);
            r.observe(&a, &c, &mut log);
            r.check_warp_batch(&[a], true, &c, &mut scratch, &mut log, &mut h, None);
        }
        assert_eq!(log.total(), 0);
        // A global heap ending at the top of the address space tracks its
        // last word, wherever the access's bytes would run.
        let top = u32::MAX - 63;
        let mut g = crate::global_rdu::GlobalRdu::new(top, 64, 0x1000, Granularity::new(4).unwrap(), true, true, BloomConfig::PAPER_DEFAULT);
        let last = MemAccess::plain(u32::MAX - 1, 4, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0));
        assert_eq!(g.observe(&last, &c, &mut log).reads, 1);
        g.check_warp_batch(&[last], true, &c, &mut scratch, &mut log, &mut h, None, |t| assert_eq!(t.reads, 1));
        assert_eq!(g.stats.checks, 2);
    }

    #[test]
    fn witness_capture_attaches_a_timeline_to_the_race() {
        let mut r = rdu();
        r.set_witness_capture(true);
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0).at_pc(0x10).at_cycle(5), &c, &mut log);
        r.observe(&acc(128, AccessKind::Read, 1, 0).at_pc(0x14).at_cycle(6), &c, &mut log);
        r.observe(&acc(64, AccessKind::Read, 32, 1).at_pc(0x18).at_cycle(7), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        let w = log.witness_of(0);
        // Only the two accesses to the racy chunk, oldest first, ending
        // with the racing access itself.
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].cycle, w[0].pc), (5, 0x10));
        assert_eq!((w[1].cycle, w[1].pc), (7, 0x18));
        assert_eq!(w[0].state_before, crate::shadow::ShadowState::Fresh);
        assert_eq!(w[0].state_after, crate::shadow::ShadowState::Written);
    }

    #[test]
    fn witness_capture_off_attaches_nothing() {
        let mut r = rdu();
        let c = ClockFile::new(1, 2);
        let mut log = RaceLog::default();
        r.observe(&acc(64, AccessKind::Write, 0, 0), &c, &mut log);
        r.observe(&acc(64, AccessKind::Read, 32, 1), &c, &mut log);
        assert_eq!(log.distinct(), 1);
        assert!(log.witness_of(0).is_empty());
    }

    /// Batch pipeline vs scalar pipeline on the shared RDU: identical
    /// races, health, stats, entries, witnesses, and transition events.
    fn assert_batch_matches_scalar(accesses: &[MemAccess], is_store: bool, witness: bool) {
        use crate::shadow::ShadowState;
        let c = ClockFile::new(4, 16);
        let mut scalar = rdu();
        let mut batch = rdu();
        scalar.set_witness_capture(witness);
        batch.set_witness_capture(witness);
        let mut slog = RaceLog::default();
        let mut blog = RaceLog::default();
        let mut sh = DetectorHealth::default();
        let mut bh = DetectorHealth::default();
        let mut ss = RaceScratch::default();
        let mut bs = RaceScratch::default();
        let mut sevents: Vec<(u32, ShadowState, ShadowState)> = Vec::new();
        let mut bevents: Vec<(u32, ShadowState, ShadowState)> = Vec::new();
        for _round in 0..2 {
            if is_store {
                scalar.check_warp_stores(accesses, &mut ss, &mut slog);
            }
            for a in accesses {
                let watch = scalar.chunk_range(a.addr, a.size);
                let states: Vec<ShadowState> = watch
                    .map(|(lo, hi)| (lo..=hi).map(|i| scalar.entry(i).state()).collect())
                    .unwrap_or_default();
                scalar.observe_health(a, &c, &mut slog, &mut sh);
                if let Some((lo, hi)) = watch {
                    for (k, i) in (lo..=hi).enumerate() {
                        let to = scalar.entry(i).state();
                        if to != states[k] {
                            sevents.push((scalar.chunk_addr(i), states[k], to));
                        }
                    }
                }
            }
            let mut sink = |addr: u32, from: ShadowState, to: ShadowState| {
                bevents.push((addr, from, to));
            };
            batch.check_warp_batch(
                accesses,
                is_store,
                &c,
                &mut bs,
                &mut blog,
                &mut bh,
                Some(&mut sink),
            );
        }
        assert_eq!(slog.records(), blog.records());
        assert_eq!(slog.total(), blog.total());
        assert_eq!(sh, bh, "health counters");
        assert_eq!(sevents, bevents, "transition events");
        assert_eq!(format!("{:?}", scalar.stats), format!("{:?}", batch.stats));
        for idx in 0..scalar.num_entries() {
            assert_eq!(scalar.entry(idx), batch.entry(idx), "entry {idx}");
        }
        for k in 0..slog.records().len() {
            assert_eq!(slog.witness_of(k), blog.witness_of(k), "witness {k}");
        }

        // Untraced: the wide tier engages.
        let mut scalar2 = rdu();
        let mut batch2 = rdu();
        let mut slog2 = RaceLog::default();
        let mut blog2 = RaceLog::default();
        let mut sh2 = DetectorHealth::default();
        let mut bh2 = DetectorHealth::default();
        for _ in 0..2 {
            if is_store {
                scalar2.check_warp_stores(accesses, &mut ss, &mut slog2);
            }
            for a in accesses {
                scalar2.observe_health(a, &c, &mut slog2, &mut sh2);
            }
            batch2.check_warp_batch(accesses, is_store, &c, &mut bs, &mut blog2, &mut bh2, None);
        }
        assert_eq!(slog2.records(), blog2.records());
        assert_eq!(sh2, bh2, "untraced health");
        assert_eq!(format!("{:?}", scalar2.stats), format!("{:?}", batch2.stats));
        for idx in 0..scalar2.num_entries() {
            assert_eq!(scalar2.entry(idx), batch2.entry(idx), "untraced entry {idx}");
        }
    }

    #[test]
    fn warp_batch_matches_scalar_pipeline() {
        // Coalesced same-warp stores (one page run, steady state on
        // round 2).
        let coalesced: Vec<_> =
            (0..32).map(|l| acc(l * 4, AccessKind::Write, l, 0).at_pc(9)).collect();
        assert_batch_matches_scalar(&coalesced, true, false);
        assert_batch_matches_scalar(&coalesced, true, true);

        // Cross-warp conflicts + bank-scattered lanes + a straddling
        // access + an out-of-range lane (clamped) + an atomic.
        let mut mixed: Vec<_> =
            (0..16).map(|l| acc(l * 1024, AccessKind::Write, l, 0).at_pc(3)).collect();
        mixed.extend((0..8).map(|l| acc(l * 1024, AccessKind::Read, 32 + l, 1).at_pc(4)));
        let mut straddle = acc(2044, AccessKind::Write, 5, 0);
        straddle.size = 8;
        mixed.push(straddle);
        mixed.push(acc(1 << 20, AccessKind::Write, 6, 0));
        mixed.push(acc(64, AccessKind::Atomic, 7, 0));
        assert_batch_matches_scalar(&mixed, true, false);
        assert_batch_matches_scalar(&mixed, true, true);
    }

    #[test]
    fn intra_warp_waw_reported_via_rdu() {
        let mut r = rdu();
        let mut scratch = RaceScratch::default();
        let mut log = RaceLog::default();
        // Same 16-byte chunk, different words: NOT a race (§VI-A1).
        let benign = vec![
            crate::intra_warp::lane_store(0, 4, 0, 0, 9),
            crate::intra_warp::lane_store(4, 4, 1, 0, 9),
        ];
        r.check_warp_stores(&benign, &mut scratch, &mut log);
        assert_eq!(log.total(), 0);
        // Same word from two lanes: a true intra-warp WAW.
        let clash = vec![
            crate::intra_warp::lane_store(0, 4, 0, 0, 9),
            crate::intra_warp::lane_store(0, 4, 1, 0, 9),
        ];
        r.check_warp_stores(&clash, &mut scratch, &mut log);
        assert_eq!(log.total(), 1);
        assert_eq!(r.stats.intra_warp_checks, 2);
    }
}
