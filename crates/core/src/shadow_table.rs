//! Demand-paged, epoch-stamped shadow storage.
//!
//! The RDU shadow tables used to be monolithic `Vec<ShadowEntry>`s that
//! were allocated and zeroed eagerly — one unpacked ~48-byte entry per
//! tracked chunk, every launch. That is precisely the software
//! shadow-memory upkeep the paper argues against (§VI, Fig. 7): the
//! *modeled* hardware clears banked SRAM rows in parallel, but the
//! *simulator* was paying O(tracked bytes) on the host for it.
//!
//! [`ShadowTable`] decouples the two:
//!
//! * **Demand paging** — entries live in fixed-size pages
//!   ([`PAGE_ENTRIES`] each) materialized on first touch. Untouched pages
//!   read as [`FRESH`], so launch-time cost is O(pages touched), not
//!   O(tracked bytes).
//! * **Epoch stamping** — each page carries a generation counter and each
//!   entry the generation it was last written under. A bulk reset of a
//!   fully-covered page is a counter bump; entries whose stamp mismatches
//!   the page generation read as fresh and are lazily re-initialized on
//!   the next write. Partially-covered boundary pages are walked.
//!
//! The *timing* charge for a reset (the banked-clear cycles of §IV-A) is
//! unchanged — callers compute it arithmetically from the range size via
//! [`crate::cost::banked_reset_cycles`]; only the host-side work is lazy.
//! Observable behavior is bit-identical to the eager table: a stale-stamp
//! entry is indistinguishable from one that was eagerly reset.

use crate::access::MemAccess;
use crate::health::DetectorHealth;
use crate::hotwords;
use crate::shadow::{ShadowEntry, ShadowPolicy, FRESH};

/// Entries per shadow page. 128 entries keep the page-pointer vector
/// tiny (8 bytes per page) while amortizing the allocation over many
/// chunks.
pub const PAGE_ENTRIES: usize = 128;

/// One entry's hot record: its epoch stamp and the three packed
/// [`crate::hotwords`] words, colocated so a wide-tier lane reads and
/// writes exactly one 32-byte slot — never the ~64-byte AoS entry.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
struct HotSlot {
    /// Packed per-lane identity (`tid | warp << 32`).
    h0: u64,
    /// Packed warp-uniform identity + state flags.
    h1: u64,
    /// Packed store-elision word (`fence | pc | write_cycle`).
    h2: u64,
    /// Generation the entry was last initialized under. The entry is
    /// live only while this matches the page generation.
    stamp: u32,
}

impl HotSlot {
    /// A fresh, detached slot stamped with `stamp`.
    const fn fresh(stamp: u32) -> Self {
        Self {
            h0: hotwords::FRESH_H0,
            h1: hotwords::FRESH_H1 | hotwords::H1_DETACHED,
            h2: hotwords::FRESH_H2,
            stamp,
        }
    }

    fn detached(&self) -> bool {
        self.h1 & hotwords::H1_DETACHED != 0
    }
}

/// One materialized shadow page.
///
/// Each entry lives in one of two forms, told apart by
/// [`hotwords::H1_DETACHED`] in its hot slot:
///
/// * **detached** — the hot words are the entry (lock fields empty) and
///   the AoS `entries[o]` is stale. The wide tier creates and keeps
///   entries in this form without touching the AoS array at all — a
///   page whose entries never leave this form never allocates it.
/// * **attached** — the AoS entry is authoritative and the hot words
///   mirror it. The scalar path mutates an entry only through
///   [`ShadowTable::update`]: attach (unpacking the words into the AoS
///   entry), run the Fig. 3 step, repack the words from the result — so
///   the words are exact again before the next lane reads them.
#[derive(Clone, Debug)]
struct ShadowPage {
    /// Current epoch.
    generation: u32,
    slots: [HotSlot; PAGE_ENTRIES],
    /// AoS entries, allocated on the page's first attach.
    entries: Option<Box<[ShadowEntry; PAGE_ENTRIES]>>,
}

impl Default for ShadowPage {
    fn default() -> Self {
        Self {
            generation: 0,
            slots: [HotSlot::fresh(0); PAGE_ENTRIES],
            entries: None,
        }
    }
}

impl ShadowPage {
    /// Eagerly reset every entry and rewind the epoch. Used on generation
    /// wraparound, where a plain bump could collide with an ancient stamp
    /// and resurrect a stale entry.
    fn hard_reset(&mut self) {
        *self = Self::default();
    }

    /// Bump the epoch, invalidating every entry lazily.
    fn bump(&mut self) {
        if self.generation == u32::MAX {
            self.hard_reset();
        } else {
            self.generation += 1;
        }
    }

    /// Re-initialize slot `o` as fresh if its stamp is stale, counting
    /// the lazy reset into `h`.
    #[inline(always)]
    fn restamp(&mut self, o: usize, h: &mut DetectorHealth) {
        if self.slots[o].stamp != self.generation {
            h.shadow_fresh_on_mismatch += 1;
            self.slots[o] = HotSlot::fresh(self.generation);
        }
    }

    /// The entry at live slot `o`, by value.
    fn load(&self, o: usize) -> ShadowEntry {
        let s = &self.slots[o];
        match &self.entries {
            Some(entries) if !s.detached() => entries[o],
            _ => hotwords::unpack(s.h0, s.h1, s.h2),
        }
    }

    /// Make the AoS entry at live slot `o` authoritative.
    #[inline]
    fn attach(&mut self, o: usize) -> &mut ShadowEntry {
        let s = &mut self.slots[o];
        let entries = self.entries.get_or_insert_with(new_entries);
        if s.detached() {
            entries[o] = hotwords::unpack(s.h0, s.h1, s.h2);
            s.h1 &= !hotwords::H1_DETACHED;
        }
        &mut entries[o]
    }

    /// Recompute the hot words of attached entry `o` from its AoS view.
    #[inline]
    fn repack(&mut self, o: usize) {
        let Some(entries) = &self.entries else { return };
        let e = &entries[o];
        let s = &mut self.slots[o];
        s.h0 = hotwords::pack_h0(e);
        s.h1 = hotwords::pack_h1(e);
        s.h2 = hotwords::pack_h2(e.fence_id, e.write_cycle, e.pc);
    }

    /// Store a wide-tier post-state into slot `o`. Returns whether the
    /// entry changed — exactly the `*entry != before` the scalar path
    /// computes, because unpoisoned words are lossless and the wide tier
    /// only leaves lock fields alone or (re-opening, detached) empties
    /// them along with a flag change. An attached entry is written
    /// through word by word, so a poisoned word it keeps (an unpackable
    /// write cycle) stays exact.
    #[inline(always)]
    fn commit(&mut self, o: usize, w: &hotwords::WideWords) -> bool {
        let s = &mut self.slots[o];
        let (c0, c1, c2) = (s.h0 != w.h0, (s.h1 ^ w.h1) & !hotwords::H1_DETACHED != 0, s.h2 != w.h2);
        if !(c0 | c1 | c2) {
            return false;
        }
        if let (0, Some(entries)) = (w.h1 & hotwords::H1_DETACHED, &mut self.entries) {
            let e = &mut entries[o];
            let n = hotwords::unpack(w.h0, w.h1, if c2 { w.h2 } else { 0 });
            if c0 {
                e.tid = n.tid;
                e.warp = n.warp;
            }
            if c1 {
                e.modified = n.modified;
                e.shared = n.shared;
                e.block = n.block;
                e.sm = n.sm;
                e.sync_id = n.sync_id;
                e.protected = n.protected;
            }
            if c2 {
                e.fence_id = n.fence_id;
                e.write_cycle = n.write_cycle;
                e.pc = n.pc;
            }
        }
        s.h0 = w.h0;
        s.h1 = w.h1;
        s.h2 = w.h2;
        true
    }
}

/// A fresh page, built out of line: the 4 KiB page must not inflate the
/// hot callers' stack frames.
#[cold]
#[inline(never)]
fn new_page() -> Box<ShadowPage> {
    Box::default()
}

/// A page's AoS entries, built out of line like [`new_page`].
#[cold]
#[inline(never)]
fn new_entries() -> Box<[ShadowEntry; PAGE_ENTRIES]> {
    Box::new([FRESH; PAGE_ENTRIES])
}

/// Demand-paged table of [`ShadowEntry`]s with epoch-stamped invalidation.
#[derive(Clone, Debug, Default)]
pub struct ShadowTable {
    pages: Vec<Option<Box<ShadowPage>>>,
    num_entries: usize,
}

impl ShadowTable {
    /// A table of `num_entries` entries, all reading as [`FRESH`]. Only
    /// the page-pointer vector is allocated up front.
    pub fn new(num_entries: usize) -> Self {
        Self {
            pages: vec![None; num_entries.div_ceil(PAGE_ENTRIES)],
            num_entries,
        }
    }

    /// Number of addressable entries.
    pub fn len(&self) -> usize {
        self.num_entries
    }

    /// Whether the table tracks no entries at all.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Pages currently materialized (diagnostics/benchmarks).
    pub fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Read entry `idx` by value. Absent pages and stale-stamped entries
    /// read as [`FRESH`].
    pub fn get(&self, idx: usize) -> ShadowEntry {
        debug_assert!(idx < self.num_entries, "shadow index out of range");
        match &self.pages[idx / PAGE_ENTRIES] {
            Some(p) if p.slots[idx % PAGE_ENTRIES].stamp == p.generation => {
                p.load(idx % PAGE_ENTRIES)
            }
            _ => FRESH,
        }
    }

    /// Run `f` on entry `idx` — the one way the scalar path mutates an
    /// entry. Materializes the page and lazily re-initializes a stale
    /// entry (both counted into `h`, the page-occupancy gauge and
    /// fresh-on-mismatch), attaches the entry, and repacks its hot words
    /// from whatever `f` left, so the wide tier can take the very next
    /// lane on it.
    pub fn update<R>(
        &mut self,
        idx: usize,
        h: &mut DetectorHealth,
        f: impl FnOnce(&mut ShadowEntry, &mut DetectorHealth) -> R,
    ) -> R {
        let o = idx % PAGE_ENTRIES;
        let page = self.page_mut(idx, h);
        page.restamp(o, h);
        let r = f(page.attach(o), h);
        page.repack(o);
        r
    }

    /// The page holding entry `idx`, materialized (and counted into `h`)
    /// on first touch.
    #[inline(always)]
    fn page_mut(&mut self, idx: usize, h: &mut DetectorHealth) -> &mut ShadowPage {
        debug_assert!(idx < self.num_entries, "shadow index out of range");
        let slot = &mut self.pages[idx / PAGE_ENTRIES];
        if slot.is_none() {
            h.shadow_pages_allocated += 1;
            *slot = Some(new_page());
        }
        slot.as_deref_mut().expect("page materialized above")
    }

    /// The wide tier for one single-chunk lane: page resolution (counted
    /// like [`Self::update`]), stamp-check, and the
    /// [`hotwords::wide_step`] transition under policy `p`, all on the
    /// entry's 32-byte hot slot. Returns `Some(changed)` when the lane was
    /// retired — exactly the scalar path's outcome, truncated-ID
    /// collisions counted into `h` — or `None` for a cold lane, left
    /// untouched for [`Self::update`]. Each lane reads the *current*
    /// words at its own turn, so lanes observe earlier cold-lane
    /// mutations exactly as the scalar pipeline would.
    #[inline(always)]
    pub fn wide_lane(
        &mut self,
        idx: usize,
        a: &MemAccess,
        p: &ShadowPolicy,
        h: &mut DetectorHealth,
    ) -> Option<bool> {
        let o = idx % PAGE_ENTRIES;
        let page = self.page_mut(idx, h);
        page.restamp(o, h);
        if !a.kind.is_tracked() {
            // Untracked (atomic) lanes retire untouched, mirroring the
            // scalar early return.
            return Some(false);
        }
        let k0 = hotwords::key0(&a.who);
        let k1 = hotwords::key1(&a.who, a.sync_id, a.in_critical_section);
        let s = page.slots[o];
        let w = hotwords::wide_step(s.h0, s.h1, s.h2, a, k0, k1, p)?;
        if w.truncated {
            h.id_truncation_collisions += 1;
        }
        if (w.h0, w.h1, w.h2) == (s.h0, s.h1, s.h2) {
            return Some(false);
        }
        Some(page.commit(o, &w))
    }

    /// Invalidate entries in the half-open range `[first, last)`:
    /// generation bump for fully-covered pages, a slot walk for partial
    /// boundary pages, nothing at all for pages never materialized.
    pub fn reset_range(&mut self, first: usize, last: usize) {
        let first = first.min(self.num_entries);
        let last = last.min(self.num_entries);
        if first >= last {
            return;
        }
        let first_page = first / PAGE_ENTRIES;
        let last_page = (last - 1) / PAGE_ENTRIES;
        for pi in first_page..=last_page {
            let Some(page) = self.pages[pi].as_deref_mut() else {
                continue;
            };
            let page_lo = pi * PAGE_ENTRIES;
            let lo = first.max(page_lo) - page_lo;
            let hi = last.min(page_lo + PAGE_ENTRIES) - page_lo;
            if lo == 0 && hi == PAGE_ENTRIES {
                page.bump();
            } else {
                let fresh = HotSlot::fresh(page.generation);
                page.slots[lo..hi].fill(fresh);
            }
        }
    }

    /// Invalidate every entry (kernel launch/termination). Always a pure
    /// generation bump, even for a short tail page — indices past
    /// `num_entries` are unreachable, so the whole-page reset is safe.
    pub fn reset_all(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            page.bump();
        }
    }

    /// Test hook: overwrite the generation counter of the page holding
    /// `idx` (materializing it) *without* restamping entries, so tests can
    /// manufacture stale stamps and near-wraparound epochs directly.
    #[doc(hidden)]
    pub fn force_generation(&mut self, idx: usize, generation: u32) {
        let page = self.pages[idx / PAGE_ENTRIES].get_or_insert_with(new_page);
        page.generation = generation;
    }

    /// Test hook: the generation counter of the page holding `idx`
    /// (`None` if the page was never materialized).
    #[doc(hidden)]
    pub fn generation_of(&self, idx: usize) -> Option<u32> {
        self.pages[idx / PAGE_ENTRIES].as_deref().map(|p| p.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, MemAccess, ThreadCoord};
    use crate::bloom::BloomConfig;
    use crate::clocks::ClockFile;
    use crate::shadow::ShadowPolicy;

    fn dirty(t: &mut ShadowTable, idx: usize) {
        let c = ClockFile::new(4, 16);
        let p = ShadowPolicy::shared(true, BloomConfig::PAPER_DEFAULT);
        let a = MemAccess::plain(0, 4, AccessKind::Write, ThreadCoord::new(0, 0, 0, 0));
        let r = t.update(idx, &mut DetectorHealth::default(), |e, _| e.observe(&a, &c, &p));
        assert!(r.is_none());
        assert!(!t.get(idx).is_fresh());
    }

    /// Entry `idx` as the scalar path sees it (materializing and
    /// re-initializing it like any scalar access).
    fn attached(t: &mut ShadowTable, idx: usize) -> ShadowEntry {
        t.update(idx, &mut DetectorHealth::default(), |e, _| *e)
    }

    #[test]
    fn untouched_entries_read_fresh_without_pages() {
        let t = ShadowTable::new(1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.pages_allocated(), 0);
        assert!(t.get(0).is_fresh());
        assert!(t.get(999).is_fresh());
    }

    #[test]
    fn first_touch_materializes_one_page() {
        let mut t = ShadowTable::new(1000);
        dirty(&mut t, 3);
        assert_eq!(t.pages_allocated(), 1);
        assert!(t.get(4).is_fresh(), "neighbours on the page stay fresh");
        dirty(&mut t, PAGE_ENTRIES + 1);
        assert_eq!(t.pages_allocated(), 2);
    }

    #[test]
    fn full_page_reset_is_a_generation_bump() {
        let mut t = ShadowTable::new(4 * PAGE_ENTRIES);
        dirty(&mut t, 0);
        dirty(&mut t, PAGE_ENTRIES);
        let g0 = t.generation_of(0).unwrap();
        t.reset_range(0, PAGE_ENTRIES);
        assert_eq!(t.generation_of(0), Some(g0 + 1));
        assert!(t.get(0).is_fresh());
        assert!(!t.get(PAGE_ENTRIES).is_fresh(), "second page untouched");
    }

    #[test]
    fn partial_page_reset_walks_only_the_subrange() {
        let mut t = ShadowTable::new(2 * PAGE_ENTRIES);
        dirty(&mut t, 10);
        dirty(&mut t, 20);
        let g0 = t.generation_of(0).unwrap();
        t.reset_range(15, 30);
        assert_eq!(t.generation_of(0), Some(g0), "no bump for a partial page");
        assert!(!t.get(10).is_fresh(), "outside the range: survives");
        assert!(t.get(20).is_fresh(), "inside the range: cleared");
    }

    #[test]
    fn reset_straddling_a_page_boundary() {
        let mut t = ShadowTable::new(3 * PAGE_ENTRIES);
        dirty(&mut t, PAGE_ENTRIES - 1);
        dirty(&mut t, PAGE_ENTRIES);
        dirty(&mut t, 2 * PAGE_ENTRIES - 1);
        dirty(&mut t, 2 * PAGE_ENTRIES + 5);
        // [last entry of page 0, all of page 1, first 6 of page 2).
        t.reset_range(PAGE_ENTRIES - 1, 2 * PAGE_ENTRIES + 6);
        assert!(t.get(PAGE_ENTRIES - 1).is_fresh());
        assert!(t.get(PAGE_ENTRIES).is_fresh());
        assert!(t.get(2 * PAGE_ENTRIES - 1).is_fresh());
        assert!(t.get(2 * PAGE_ENTRIES + 5).is_fresh());
    }

    #[test]
    fn reset_of_absent_pages_allocates_nothing() {
        let mut t = ShadowTable::new(64 * PAGE_ENTRIES);
        t.reset_range(0, 64 * PAGE_ENTRIES);
        t.reset_all();
        assert_eq!(t.pages_allocated(), 0);
    }

    #[test]
    fn stale_stamped_entry_reads_fresh_and_reinitializes_on_write() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        dirty(&mut t, 7);
        t.reset_range(0, PAGE_ENTRIES);
        assert!(t.get(7).is_fresh(), "stale stamp reads fresh");
        // The lazy re-init on update must hand back a genuinely fresh
        // entry, not the stale pre-reset state.
        assert!(attached(&mut t, 7).is_fresh());
    }

    #[test]
    fn generation_wraparound_does_not_resurrect_stale_entries() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        // Entry stamped under generation 0, then an epoch forced to the
        // far future (as if u32::MAX resets happened since).
        dirty(&mut t, 0);
        t.force_generation(0, u32::MAX);
        assert!(t.get(0).is_fresh(), "stamp 0 vs generation MAX: stale");
        // The wrapping bump must NOT land the counter back on 0 with the
        // old stamp still in place — that would resurrect the entry.
        t.reset_range(0, PAGE_ENTRIES);
        assert!(t.get(0).is_fresh(), "wraparound resurrected a stale entry");
        assert_eq!(t.generation_of(0), Some(0), "hard reset rewinds the epoch");
        assert!(attached(&mut t, 0).is_fresh());
    }

    #[test]
    fn reset_all_covers_a_short_tail_page() {
        let mut t = ShadowTable::new(PAGE_ENTRIES + 10);
        dirty(&mut t, PAGE_ENTRIES + 3);
        t.reset_all();
        assert!(t.get(PAGE_ENTRIES + 3).is_fresh());
    }

    #[test]
    fn counted_access_reports_pages_and_stale_reinit() {
        let mut t = ShadowTable::new(2 * PAGE_ENTRIES);
        let mut h = DetectorHealth::default();
        t.update(0, &mut h, |_, _| ());
        assert_eq!(h.shadow_pages_allocated, 1, "first touch materializes");
        assert_eq!(h.shadow_fresh_on_mismatch, 0, "new pages come pre-stamped");
        t.update(0, &mut h, |_, _| ());
        assert_eq!(h.shadow_pages_allocated, 1, "second touch reuses the page");
        assert_eq!(h.shadow_fresh_on_mismatch, 0, "live entry: no re-init");
        dirty(&mut t, 0);
        t.reset_range(0, PAGE_ENTRIES);
        t.update(0, &mut h, |_, _| ());
        assert_eq!(h.shadow_fresh_on_mismatch, 1, "stale stamp re-inits");
    }

    #[test]
    fn wide_lanes_account_like_update() {
        // The wide tier's page and stamp resolution must be
        // indistinguishable from the scalar accessor: same health
        // accounting through materialization, reset and lazy re-init.
        let p = ShadowPolicy::shared(true, BloomConfig::PAPER_DEFAULT);
        let mut scalar = ShadowTable::new(2 * PAGE_ENTRIES);
        let mut wide = ShadowTable::new(2 * PAGE_ENTRIES);
        let mut hs = DetectorHealth::default();
        let mut hw = DetectorHealth::default();
        let a = MemAccess::plain(0, 4, AccessKind::Read, ThreadCoord::new(1, 0, 0, 0));
        for round in 0..2 {
            for i in [0usize, 5, 5, PAGE_ENTRIES - 1, PAGE_ENTRIES + 3] {
                scalar.update(i, &mut hs, |_, _| ());
                assert!(wide.wide_lane(i, &a, &p, &mut hw).is_some());
            }
            assert_eq!(hs.shadow_pages_allocated, hw.shadow_pages_allocated, "round {round}");
            assert_eq!(hs.shadow_fresh_on_mismatch, hw.shadow_fresh_on_mismatch, "round {round}");
            scalar.reset_range(0, PAGE_ENTRIES);
            wide.reset_range(0, PAGE_ENTRIES);
        }
        assert_eq!(hw.shadow_pages_allocated, 2);
        assert!(hw.shadow_fresh_on_mismatch > 0);
    }

    #[test]
    fn hot_words_and_aos_stay_coherent_across_tiers_and_resets() {
        let mut t = ShadowTable::new(PAGE_ENTRIES);
        let mut h = DetectorHealth::default();
        let who = ThreadCoord::new(3, 1, 0, 0);
        let c = ClockFile::new(4, 16);
        let p = ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT);
        let w = MemAccess::plain(8, 4, AccessKind::Write, who).at_cycle(7).at_pc(0x40);
        let w2 = MemAccess::plain(8, 4, AccessKind::Write, who).at_cycle(9).at_pc(0x44);
        // A scalar mutation repacks the slot from the AoS entry, so the
        // wide tier takes the very next lane and writes through.
        t.update(2, &mut h, |e, h| e.observe_health(&w, &c, &p, h));
        assert_eq!(t.wide_lane(2, &w2, &p, &mut h), Some(true));
        assert_eq!(t.wide_lane(2, &w2, &p, &mut h), Some(false), "identical store must elide");
        let e = t.get(2);
        assert_eq!((e.write_cycle, e.pc), (9, 0x44));
        assert_eq!(attached(&mut t, 2), e);
        // A wide first touch opens a detached entry the AoS view never
        // sees; reading or attaching it yields the same entry the scalar
        // state machine would have built.
        assert_eq!(t.wide_lane(5, &w2, &p, &mut h), Some(true));
        let mut scalar = FRESH;
        scalar.observe(&w2, &c, &p);
        assert_eq!(t.get(5), scalar);
        assert_eq!(attached(&mut t, 5), scalar);
        // A partial-page reset re-freshens the slots alone.
        t.reset_range(0, 10);
        assert!(t.get(2).is_fresh() && t.get(5).is_fresh());
        assert!(attached(&mut t, 2).is_fresh());
    }

    #[test]
    fn out_of_table_reset_ranges_are_clamped() {
        let mut t = ShadowTable::new(100);
        dirty(&mut t, 99);
        t.reset_range(50, 100_000);
        assert!(t.get(99).is_fresh());
        t.reset_range(500, 600); // entirely past the end: no-op
        t.reset_range(60, 10); // inverted: no-op
    }
}
