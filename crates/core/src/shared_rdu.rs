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
use crate::dispatch::DispatchStats;
use crate::granularity::Granularity;
use crate::health::{DetectorHealth, WitnessEvent, WitnessRing, WITNESS_RING_DEPTH};
use crate::intra_warp::check_intra_warp_waw_into;
use crate::race::RaceLog;
use crate::scratch::RaceScratch;
use crate::global_rdu::TransitionSink;
use crate::shadow::{ShadowEntry, ShadowPolicy};
use crate::shadow_table::ShadowTable;

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

/// Shared-memory RDU for one streaming multiprocessor.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub struct SharedRdu {
    sm: u32,
    gran: Granularity,
    banks: u32,
    table: ShadowTable,
    policy: ShadowPolicy,
    /// Opt-in windowed access recorder feeding per-race witness timelines.
    capture_witness: bool,
    ring: WitnessRing,
    pub stats: SharedRduStats,
    /// Escape hatch: pin every batch lane to the scalar reference path
    /// (`HACCRG_FORCE_SCALAR_SHADOW`, [`crate::dispatch`]).
    force_scalar: bool,
    /// Lanes retired per dispatch tier (wide / cs-fast / scalar).
    pub dispatch: DispatchStats,
}

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
        Self {
            sm,
            gran,
            banks: banks.max(1),
            table: ShadowTable::new(gran.entries_for(shared_bytes)),
            policy: ShadowPolicy::shared(warp_filter, bloom),
            capture_witness: false,
            ring: WitnessRing::with_depth(WITNESS_RING_DEPTH),
            stats: SharedRduStats::default(),
            force_scalar: crate::dispatch::force_scalar_shadow_default(),
            dispatch: DispatchStats::default(),
        }
    }

    /// Pin (`true`) or re-enable (`false`) the wide SWAR tier for this
    /// RDU only, overriding the `HACCRG_FORCE_SCALAR_SHADOW` default the
    /// constructor read. Detection results are identical either way;
    /// only [`Self::dispatch`] moves.
    pub fn set_force_scalar(&mut self, on: bool) {
        self.force_scalar = on;
    }

    /// Whether the scalar shadow path is pinned for this RDU.
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

    /// SM this RDU belongs to.
    pub fn sm(&self) -> u32 {
        self.sm
    }

    /// Tracking granularity in use.
    pub fn granularity(&self) -> Granularity {
        self.gran
    }

    /// Number of shadow entries.
    pub fn num_entries(&self) -> usize {
        self.table.len()
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
        debug_assert_eq!(a.who.sm, self.sm, "access routed to the wrong SM's RDU");
        self.stats.checks += 1;
        let (lo, hi) = self.gran.index_range(0, a.addr, a.size);
        for idx in lo..=hi.min(self.table.len().saturating_sub(1)) {
            let mut chunk_access = *a;
            chunk_access.addr = (idx as u32) << self.gran.shift();
            let entry = self.table.get_mut_counted(idx, h);
            let state_before = entry.state();
            let race = entry.observe_health(&chunk_access, clocks, &self.policy, h);
            let state_after = entry.state();
            if self.capture_witness && a.kind.is_tracked() {
                self.ring.push(WitnessEvent {
                    cycle: a.cycle,
                    who: a.who,
                    pc: a.pc,
                    kind: a.kind,
                    addr: chunk_access.addr,
                    state_before,
                    state_after,
                });
            }
            if let Some(r) = race {
                if self.capture_witness {
                    log.push_with_witness(r, &self.ring.collect_for(chunk_access.addr));
                } else {
                    log.push(r);
                }
            }
        }
    }

    /// Batch counterpart of [`Self::observe_health`] over one warp's lane
    /// accesses — bit-identical to `check_warp_stores` (when `is_store`)
    /// followed by `observe_health` per lane in order. Single-chunk lanes
    /// go through the wide tier ([`ShadowTable::wide_lane`]),
    /// the rest — and every lane while `on_transition` (tracing), witness
    /// capture or the scalar escape hatch is on — through the per-chunk
    /// reference path, so every Fig. 3 edge is observed in scalar order.
    #[allow(clippy::too_many_arguments)]
    pub fn check_warp_batch(
        &mut self,
        accesses: &[MemAccess],
        is_store: bool,
        clocks: &ClockFile,
        scratch: &mut RaceScratch,
        log: &mut RaceLog,
        h: &mut DetectorHealth,
        mut on_transition: Option<TransitionSink<'_>>,
    ) {
        if is_store {
            self.check_warp_stores(accesses, scratch, log);
        }
        let SharedRdu {
            sm,
            gran,
            table,
            policy,
            capture_witness,
            ring,
            stats,
            force_scalar,
            dispatch,
            ..
        } = self;
        let (sm, capture_witness) = (*sm, *capture_witness);
        let tlen = table.len();
        // Hoisted out of the per-access loop (`Granularity::shift` is a
        // trailing_zeros each call).
        let shift = gran.shift();
        let traced = on_transition.is_some();
        // The wide tier engages only when no observer needs per-lane
        // before/after states and the escape hatch isn't pinning scalar.
        let wide = !traced && !capture_witness && !*force_scalar;
        let rules = crate::hotwords::WideRules::new(policy, false);
        // Once-per-batch §III-B Bloom verdict memo for the batched
        // lockset path (keyed on both signatures, so valid batch-wide).
        let mut bloom_memo: Option<(u32, u32, bool)> = None;
        let mut wide_n = 0u64;
        stats.checks += accesses.len() as u64;
        for a in accesses {
            debug_assert_eq!(a.who.sm, sm, "access routed to the wrong SM's RDU");
            let lo = (a.addr >> shift) as usize;
            let hi = (((a.addr + u32::from(a.size.max(1)) - 1) >> shift) as usize)
                .min(tlen.saturating_sub(1));
            if wide && lo == hi {
                if table.wide_lane(lo, a, &rules, h).is_some() {
                    wide_n += 1;
                    continue;
                }
                let entry = table.cold_entry(lo);
                if entry.observe_lockset_fast(a, clocks, policy, h, false, &mut bloom_memo).is_some() {
                    dispatch.cs_fast_lanes += 1;
                } else {
                    dispatch.scalar_lanes += 1;
                    shared_check_chunk_slow(
                        entry,
                        a,
                        (lo as u32) << shift,
                        clocks,
                        policy,
                        capture_witness,
                        ring,
                        log,
                        h,
                        &mut on_transition,
                    );
                }
                table.repack_entry(lo);
                continue;
            }
            // Reference path: tracing, witness capture, the escape hatch,
            // clamped-out accesses and multi-chunk accesses, per chunk.
            dispatch.scalar_lanes += (hi + 1).saturating_sub(lo) as u64;
            for idx in lo..hi + 1 {
                let entry = table.get_mut_counted(idx, h);
                shared_check_chunk(
                    entry,
                    a,
                    (idx as u32) << shift,
                    traced,
                    clocks,
                    policy,
                    capture_witness,
                    ring,
                    log,
                    h,
                    &mut on_transition,
                );
            }
        }
        dispatch.wide_lanes += wide_n;
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
        let cycles = cost::banked_reset_cycles(count as u64, self.banks);
        self.stats.reset_cycles += cycles;
        cycles
    }

    /// Invalidate everything (kernel launch/termination).
    pub fn reset_all(&mut self) {
        self.table.reset_all();
        self.ring.clear();
    }

    /// Inspect a shadow entry (tests/debugging). Untouched and
    /// epoch-invalidated entries read as fresh.
    pub fn entry(&self, idx: usize) -> ShadowEntry {
        self.table.get(idx)
    }

    /// Inclusive range of shadow-entry indices an access touches, clamped
    /// to the table — the same chunks [`Self::observe`] walks. `None` if
    /// the access lands entirely past the table (observability hooks use
    /// this to snapshot states around an `observe`).
    pub fn chunk_range(&self, addr: u32, size: u8) -> Option<(usize, usize)> {
        if self.table.is_empty() {
            return None;
        }
        let (lo, hi) = self.gran.index_range(0, addr, size);
        let hi = hi.min(self.table.len() - 1);
        (lo <= hi).then_some((lo, hi))
    }

    /// Byte offset (into this SM's shared memory) of chunk `idx`.
    pub fn chunk_addr(&self, idx: usize) -> u32 {
        (idx as u32) << self.gran.shift()
    }
}

/// One shared shadow-entry check — [`SharedRdu::observe_health`]'s inner
/// loop body, preceded by the same-thread fast path whenever no
/// transition sink is attached; the fast path reports before/after
/// states itself, so witness capture rides it. (Unlike the global path
/// there is no traffic signal and no truncated-ID accounting.)
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn shared_check_chunk(
    entry: &mut ShadowEntry,
    a: &MemAccess,
    chunk_addr: u32,
    traced: bool,
    clocks: &ClockFile,
    policy: &ShadowPolicy,
    capture_witness: bool,
    ring: &mut WitnessRing,
    log: &mut RaceLog,
    h: &mut DetectorHealth,
    on_transition: &mut Option<TransitionSink<'_>>,
) {
    if !traced {
        if let Some((_, state_before, state_after)) = entry.observe_same_thread_fast(a, policy) {
            if capture_witness && a.kind.is_tracked() {
                ring.push(WitnessEvent {
                    cycle: a.cycle,
                    who: a.who,
                    pc: a.pc,
                    kind: a.kind,
                    addr: chunk_addr,
                    state_before,
                    state_after,
                });
            }
            return;
        }
    }
    shared_check_chunk_slow(
        entry,
        a,
        chunk_addr,
        clocks,
        policy,
        capture_witness,
        ring,
        log,
        h,
        on_transition,
    );
}

/// The full Fig. 3 dispatch for one shared chunk — everything past the
/// same-thread fast path, kept out of line so the steady state inlines
/// into the batch loop.
#[allow(clippy::too_many_arguments)]
#[cold]
#[inline(never)]
fn shared_check_chunk_slow(
    entry: &mut ShadowEntry,
    a: &MemAccess,
    chunk_addr: u32,
    clocks: &ClockFile,
    policy: &ShadowPolicy,
    capture_witness: bool,
    ring: &mut WitnessRing,
    log: &mut RaceLog,
    h: &mut DetectorHealth,
    on_transition: &mut Option<TransitionSink<'_>>,
) {
    let mut chunk_access = *a;
    chunk_access.addr = chunk_addr;
    let state_before = entry.state();
    let race = entry.observe_health(&chunk_access, clocks, policy, h);
    let state_after = entry.state();
    if let Some(cb) = on_transition.as_deref_mut() {
        if state_after != state_before {
            cb(chunk_addr, state_before, state_after);
        }
    }
    if capture_witness && a.kind.is_tracked() {
        ring.push(WitnessEvent {
            cycle: a.cycle,
            who: a.who,
            pc: a.pc,
            kind: a.kind,
            addr: chunk_addr,
            state_before,
            state_after,
        });
    }
    if let Some(r) = race {
        if capture_witness {
            log.push_with_witness(r, &ring.collect_for(chunk_addr));
        } else {
            log.push(r);
        }
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
        // Address past the end must not panic.
        r.observe(&acc(1 << 20, AccessKind::Write, 0, 0), &c, &mut log);
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

        // Untraced: the same-thread fast path engages.
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
