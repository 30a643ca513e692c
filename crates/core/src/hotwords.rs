//! Packed per-entry *hot words* for the wide shadow-check tier.
//!
//! A shadow entry is ~64 bytes of unpacked AoS fields. The fields the
//! non-lockset Fig. 3 rules read and write pack losslessly into three
//! `u64` *hot words*, stored (with the entry's epoch stamp) in one 32-byte
//! slot per entry (see [`crate::shadow_table`]):
//!
//! * `h0` = `tid | warp << 32` — the per-lane identity half.
//! * `h1` = `block | sync_id << 32 | sm << 40` plus the
//!   `protected`/`fresh`/`shared`/`modified` state bits and the
//!   [`H1_DETACHED`] storage flag.
//! * `h2` = `fence_id | pc << 8 | write_cycle << 40` — the provenance
//!   word, so a store can decide "entry unchanged" from the slot alone.
//!
//! [`wide_step`] computes the post-state of every non-racing,
//! non-critical-section transition (State-1 first touch, the §IV-B
//! sync-ID reopen, §III-A ordered accesses, cross-warp reads of read
//! entries) from the words and the lane's key words alone.
//!
//! The packing is **conservative by construction**: a value that does not
//! fit its lane (an SM ID above 16 bits, a write cycle above 23 bits)
//! poisons the word with a bit the lane side can never produce, and
//! `wide_step` sends any lane that meets a poisoned word (or would write
//! one) to the exact cold path. It may therefore be stricter than the
//! scalar rules, never looser — and the cold path *is* the scalar code
//! (DESIGN.md §9 spells out the argument).

use crate::access::{MemAccess, ThreadCoord};
use crate::bloom::BloomSig;
use crate::locktable::LockTable;
use crate::shadow::{ShadowEntry, ShadowPolicy};

// ---- h1 bit layout ----

/// Bits 0..32 of `h1`: the recorded block ID (full width, exact).
pub const H1_BLOCK_BITS: u32 = 32;
/// Bit offset of the 8-bit sync ID in `h1`.
pub const H1_SYNC_SHIFT: u32 = 32;
/// Bit offset of the 16-bit SM lane in `h1`.
pub const H1_SM_SHIFT: u32 = 40;
/// Widest SM ID the `h1` lane can hold; wider values poison the word.
pub const H1_SM_LIMIT: u32 = 1 << 16;
/// Entry was opened inside a critical section.
pub const H1_PROTECTED: u64 = 1 << 56;
/// Entry is in the reset state (`modified & shared`).
pub const H1_FRESH: u64 = 1 << 57;
/// The entry's `shared` bit.
pub const H1_SHARED: u64 = 1 << 58;
/// The entry's `modified` bit.
pub const H1_MODIFIED: u64 = 1 << 59;
/// Entry-side flag: the AoS entry is *detached* — its fields lag the hot
/// words, which (with empty lock fields) are the whole entry. Never set
/// by [`pack_h1`].
pub const H1_DETACHED: u64 = 1 << 60;
/// Key-side flag for `MemAccess::in_critical_section` (lockset business:
/// [`wide_step`] leaves such lanes cold). The entry side never sets it.
pub const H1_KEY_CS: u64 = 1 << 61;
/// Entry-side poison: some entry field did not fit its lane.
pub const H1_ENTRY_POISON: u64 = 1 << 62;
/// Key-side poison: some access field did not fit its lane.
pub const H1_KEY_POISON: u64 = 1 << 63;

/// The block lane of `h1`.
const H1_BLOCK_LANE: u64 = (1 << H1_BLOCK_BITS) - 1;
/// The sync-ID lane of `h1`.
const H1_SYNC_LANE: u64 = 0xFF << H1_SYNC_SHIFT;
/// The SM lane of `h1`.
const H1_SM_LANE: u64 = 0xFFFF << H1_SM_SHIFT;
/// The `tid` half of `h0`.
const H0_TID: u64 = 0xFFFF_FFFF;

// ---- h2 (store elision) ----

/// Widest write cycle the `h2` lane can hold.
pub const H2_CYCLE_LIMIT: u64 = 1 << 23;
/// Entry-side poison value for an unpackable `write_cycle`. Distinct from
/// [`H2_KEY_POISON`] so a poisoned entry never spuriously equals a
/// poisoned key — both sides then fall back to the exact AoS compare.
pub const H2_ENTRY_POISON: u64 = 1 << 63;
/// Key-side poison value for an unpackable access cycle.
pub const H2_KEY_POISON: u64 = (1 << 63) | 1;
/// Set on every poison encoding and never on a regular pack: `h2`
/// equality is exact only when this bit is clear on both sides.
pub const H2_POISON_BIT: u64 = 1 << 63;

/// `h0` of the [`crate::shadow::FRESH`] entry.
pub const FRESH_H0: u64 = 0;
/// `h1` of the fresh entry: `modified & shared` sets the fresh, shared
/// and modified flags; every identity lane is zero.
pub const FRESH_H1: u64 = H1_FRESH | H1_SHARED | H1_MODIFIED;
/// `h2` of the fresh entry.
pub const FRESH_H2: u64 = 0;

/// Pack the per-lane identity word of an entry.
#[inline]
pub fn pack_h0(e: &ShadowEntry) -> u64 {
    u64::from(e.tid) | (u64::from(e.warp) << 32)
}

/// Pack the warp-uniform identity/flag word of an entry.
#[inline]
pub fn pack_h1(e: &ShadowEntry) -> u64 {
    let mut w = u64::from(e.block)
        | (u64::from(e.sync_id) << H1_SYNC_SHIFT)
        | (u64::from(e.protected) << 56)
        | (u64::from(e.modified & e.shared) << 57)
        | (u64::from(e.shared) << 58)
        | (u64::from(e.modified) << 59);
    if e.sm < H1_SM_LIMIT {
        w |= u64::from(e.sm) << H1_SM_SHIFT;
    } else {
        w |= H1_ENTRY_POISON;
    }
    w
}

/// Pack the store-elision word from entry-side values.
#[inline]
pub fn pack_h2(fence_id: u8, write_cycle: u64, pc: u32) -> u64 {
    if write_cycle >= H2_CYCLE_LIMIT {
        return H2_ENTRY_POISON;
    }
    u64::from(fence_id) | (u64::from(pc) << 8) | (write_cycle << 40)
}

/// Key-side counterpart of [`pack_h0`], built from the access identity.
#[inline]
pub fn key0(who: &ThreadCoord) -> u64 {
    u64::from(who.tid) | (u64::from(who.warp) << 32)
}

/// Key-side counterpart of [`pack_h1`]. The key expects
/// `protected = fresh = shared = 0` (those key bits stay clear) and
/// carries the access's critical-section flag in a lane the entry side
/// never sets.
#[inline]
pub fn key1(who: &ThreadCoord, sync_id: u8, in_critical_section: bool) -> u64 {
    let mut w = u64::from(who.block)
        | (u64::from(sync_id) << H1_SYNC_SHIFT)
        | (u64::from(in_critical_section) << 61);
    if who.sm < H1_SM_LIMIT {
        w |= u64::from(who.sm) << H1_SM_SHIFT;
    } else {
        w |= H1_KEY_POISON;
    }
    w
}

/// Key-side store-elision word for a write access.
#[inline]
pub fn key2(fence_id: u8, cycle: u64, pc: u32) -> u64 {
    if cycle >= H2_CYCLE_LIMIT {
        return H2_KEY_POISON;
    }
    u64::from(fence_id) | (u64::from(pc) << 8) | (cycle << 40)
}

/// The entry the unpoisoned words `(h0, h1, h2)` describe, with empty
/// lock fields (the only lock state a detached entry can have).
pub fn unpack(h0: u64, h1: u64, h2: u64) -> ShadowEntry {
    debug_assert_eq!(h1 & (H1_ENTRY_POISON | H1_KEY_POISON), 0, "poisoned h1");
    debug_assert_eq!(h2 & H2_POISON_BIT, 0, "poisoned h2");
    ShadowEntry {
        modified: h1 & H1_MODIFIED != 0,
        shared: h1 & H1_SHARED != 0,
        tid: h0 as u32,
        warp: (h0 >> 32) as u32,
        block: h1 as u32,
        sm: ((h1 & H1_SM_LANE) >> H1_SM_SHIFT) as u32,
        sync_id: (h1 >> H1_SYNC_SHIFT) as u8,
        fence_id: h2 as u8,
        atomic_sig: BloomSig::EMPTY,
        locks: LockTable::EMPTY,
        locks_known: false,
        protected: h1 & H1_PROTECTED != 0,
        write_cycle: h2 >> 40,
        pc: (h2 >> 8) as u32,
    }
}

/// Post-state of one wide-tier lane: the entry's new words and whether
/// the lane is a §VI-C2 truncated-ID collision the scalar path counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WideWords {
    /// New `h0`.
    pub h0: u64,
    /// New `h1` ([`H1_DETACHED`] set when the lane re-opened the entry).
    pub h1: u64,
    /// New `h2`.
    pub h2: u64,
    /// The lane is a truncated-ID collision.
    pub truncated: bool,
}

/// Whether a recorded identity and a lane identity collide under the
/// §VI-C2 packed widths (`crate::packed::id_truncation_collision`),
/// computed from `d0 = h0 ^ key0` and `d1 = h1 ^ key1` of unpoisoned
/// words.
#[inline(always)]
fn truncation_collision(d0: u64, d1: u64) -> bool {
    let full_differ = (d0 & H0_TID) | (d1 & (H1_BLOCK_LANE | H1_SM_LANE)) != 0;
    let truncated_match = (d0 & 0x3FF) | (d1 & (0x7 | (0x1F << H1_SM_SHIFT))) == 0;
    full_differ & truncated_match
}

/// The wide tier's transcription of the non-racing, non-critical-section
/// Fig. 3 transitions of `ShadowEntry::observe_health` under policy `p`
/// for a tracked lane `a` against the entry words `(h0, h1, h2)`, with
/// `k0`/`k1` the lane's [`key0`]/[`key1`]. Returns `None` for everything it does not cover —
/// race candidates, the §III-C/§IV-B cross-warp read of a written entry,
/// critical sections, protected entries, and any unpackable value — which
/// the caller hands to the cold path untouched. Covered:
///
/// * State 1 (fresh entry) and the §IV-B same-block sync-ID reopen, both
///   `init_from`: the new words are the lane's key, detached;
/// * accesses ordered with the recorded one (same thread, or same warp
///   under the §III-A warp filter): `ReadSingle` promotion on a write,
///   `Written` provenance refresh (`tid` included), silent reads;
/// * unordered reads of `ReadSingle` (which become `ReadShared`) and of
///   `ReadShared` entries.
#[inline(always)]
pub fn wide_step(h0: u64, h1: u64, h2: u64, a: &MemAccess, k0: u64, k1: u64, p: &ShadowPolicy) -> Option<WideWords> {
    debug_assert!(a.kind.is_tracked());
    let is_write = a.kind.is_write();
    let d0 = h0 ^ k0;
    let d1 = h1 ^ k1;
    if (d0 | (d1 & !(H1_MODIFIED | H1_DETACHED))) == 0 {
        // The recorded thread again, same epoch, unprotected, not
        // read-shared, nothing poisoned and no critical section (those
        // bits live on one side only, so they survive the XOR): the
        // steady state. A read changes nothing; a write promotes
        // `ReadSingle` and refreshes provenance.
        if !is_write {
            return Some(WideWords { h0, h1, h2, truncated: false });
        }
        let n2 = key2(a.fence_id, a.cycle, a.pc);
        if n2 & H2_POISON_BIT != 0 {
            return None;
        }
        return Some(WideWords { h0, h1: h1 | H1_MODIFIED, h2: n2, truncated: false });
    }
    if (h1 | k1) & (H1_ENTRY_POISON | H1_KEY_POISON | H1_KEY_CS) != 0 {
        return None;
    }
    if h1 & H1_FRESH != 0
        || (p.sync_id_epochs && d1 & H1_BLOCK_LANE == 0 && d1 & H1_SYNC_LANE != 0)
    {
        // init_from: identity, epoch and provenance come from the lane;
        // a non-CS opener leaves the lock fields empty.
        let h2 = key2(a.fence_id, if is_write { a.cycle } else { 0 }, a.pc);
        if h2 & H2_POISON_BIT != 0 {
            return None;
        }
        let flags = H1_DETACHED | if is_write { H1_MODIFIED } else { 0 };
        let truncated = p.count_truncation && h1 & H1_FRESH == 0 && truncation_collision(d0, d1);
        return Some(WideWords { h0: k0, h1: k1 | flags, h2, truncated });
    }
    if h1 & H1_PROTECTED != 0 {
        return None;
    }
    let same_thread = d0 & H0_TID == 0;
    let ordered = same_thread | ((d0 >> 32 == 0) & p.warp_filter);
    let (n0, n1, n2) = match (h1 & H1_MODIFIED != 0, h1 & H1_SHARED != 0, is_write) {
        // ReadSingle + ordered write: promote, taking the writer's identity.
        (false, false, true) if ordered => (
            k0,
            (h1 & !(H1_BLOCK_LANE | H1_SM_LANE)) | (k1 & (H1_BLOCK_LANE | H1_SM_LANE)) | H1_MODIFIED,
            key2(a.fence_id, a.cycle, a.pc),
        ),
        // Written + ordered write: refresh provenance; a same-warp writer
        // becomes the recorded thread.
        (true, false, true) if ordered => {
            ((h0 & !H0_TID) | (k0 & H0_TID), h1, key2(a.fence_id, a.cycle, a.pc))
        }
        // ReadSingle + unordered read: the location becomes read-shared.
        (false, false, false) if !ordered => (h0, h1 | H1_SHARED, h2),
        // Ordered reads, and any read of a read-shared entry: no change.
        (false, false, false) | (false, true, false) => (h0, h1, h2),
        (true, false, false) if ordered => (h0, h1, h2),
        // Unordered writes, writes to read-shared entries, and the
        // §III-C/§IV-B cross-warp read of a written entry: cold.
        _ => return None,
    };
    // A cycle that would poison `h2` cannot be stored.
    if n2 & H2_POISON_BIT != 0 && n2 != h2 {
        return None;
    }
    let truncated = p.count_truncation && truncation_collision(d0, d1);
    Some(WideWords { h0: n0, h1: n1, h2: n2, truncated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, MemAccess};
    use crate::bloom::BloomConfig;
    use crate::shadow::FRESH;

    fn entry_for(who: ThreadCoord, kind: AccessKind) -> ShadowEntry {
        let mut e = FRESH;
        let c = crate::clocks::ClockFile::new(4, 16);
        let p = ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT);
        let a = MemAccess::plain(0, 4, kind, who).with_clocks(3, 0);
        e.observe(&a, &c, &p).map(|_| ()).unwrap_or(());
        e
    }

    /// The wide tier retires the same-thread steady state: wherever the
    /// recorded thread re-accesses its entry in the same epoch, outside
    /// any critical section and short of a write to a read-shared entry,
    /// [`wide_step`] retires the lane with exactly the entry and change
    /// flag of the scalar `observe_health` — unless a value is unpackable
    /// (the only way the wide tier may be stricter) — over a grid of
    /// identity, epoch and critical-section perturbations.
    #[test]
    fn wide_step_covers_the_same_thread_fast_path() {
        let base = ThreadCoord::new(7, 3, 1, 2);
        let perturbed = [
            base,
            ThreadCoord::new(8, 3, 1, 2),
            ThreadCoord::new(7, 4, 1, 2),
            ThreadCoord::new(7, 3, 2, 2),
            ThreadCoord::new(7, 3, 1, 9),
            ThreadCoord::new(7, 3, 1, 1 << 17),    // unpackable SM
            ThreadCoord::new(9, 3, 1, 2),          // same warp, other thread
            ThreadCoord::new(7 + 1024, 35, 9, 34), // truncated-ID collision
        ];
        for policy in [
            ShadowPolicy::global(true, true, BloomConfig::PAPER_DEFAULT),
            ShadowPolicy::shared(true, BloomConfig::PAPER_DEFAULT),
        ] {
            let c = crate::clocks::ClockFile::new(4, 16);
            let mut read_shared = entry_for(base, AccessKind::Read);
            read_shared.shared = true;
            for e in [entry_for(base, AccessKind::Read), entry_for(base, AccessKind::Write), read_shared] {
                let (h0, h1, h2) = (pack_h0(&e), pack_h1(&e), pack_h2(e.fence_id, e.write_cycle, e.pc));
                for who in perturbed {
                    for sync in [3u8, 4] {
                        for cs in [false, true] {
                            for (kind, cycle) in
                                [(AccessKind::Read, 5), (AccessKind::Write, 5), (AccessKind::Write, H2_CYCLE_LIMIT)]
                            {
                                let a = MemAccess::plain(0, 4, kind, who).with_clocks(sync, 0).at_cycle(cycle);
                                let a = if cs {
                                    a.locked(crate::bloom::BloomSig::of_lock(0x100, policy.bloom))
                                } else {
                                    a
                                };
                                let same_thread = (who.tid, who.warp, who.block, who.sm) == (e.tid, e.warp, e.block, e.sm)
                                    && !cs
                                    && !e.protected
                                    && (!policy.sync_id_epochs || sync == e.sync_id)
                                    && (!e.shared || !kind.is_write());
                                if !same_thread {
                                    continue;
                                }
                                let mut full = e;
                                let mut h = crate::health::DetectorHealth::default();
                                assert!(full.observe_health(&a, &c, &policy, &mut h).is_none(), "{a:?}");
                                let (k0, k1) = (key0(&a.who), key1(&a.who, a.sync_id, a.in_critical_section));
                                match wide_step(h0, h1, h2, &a, k0, k1, &policy) {
                                    Some(w) => {
                                        assert_eq!(w.h0, pack_h0(&full), "{a:?}");
                                        assert_eq!(w.h1, pack_h1(&full), "{a:?}");
                                        assert_eq!(w.h2, pack_h2(full.fence_id, full.write_cycle, full.pc), "{a:?}");
                                        assert_eq!((w.h0, w.h1, w.h2) != (h0, h1, h2), full != e, "{a:?}");
                                    }
                                    None => assert!(
                                        who.sm >= H1_SM_LIMIT || cycle >= H2_CYCLE_LIMIT,
                                        "wide tier dropped a same-thread lane: {a:?} on {e:?}"
                                    ),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Wherever [`wide_step`] retires a lane, its words must be exactly
    /// the packed post-state of the scalar `observe_health` (no race, lock
    /// fields emptied on a detached reopen and untouched otherwise), its
    /// change flag the scalar `*entry != before`, and its truncation flag
    /// the global RDU's collision count — over every Fig. 3 state, the
    /// §III-A warp filter on and off, CS/non-CS lanes and openers, sync
    /// epochs, truncated-ID collisions, and poisoned SM IDs and cycles.
    #[test]
    fn wide_step_equals_the_scalar_state_machine() {
        let base = ThreadCoord::new(7, 0, 1, 2);
        let lanes = [
            base,
            ThreadCoord::new(8, 0, 1, 2),            // same warp, other thread
            ThreadCoord::new(40, 1, 1, 2),           // other warp, same block
            ThreadCoord::new(70, 2, 3, 2),           // other block, same SM
            ThreadCoord::new(100, 3, 5, 3),          // other SM
            ThreadCoord::new(7 + 1024, 32, 9, 34),   // truncated-ID collision
            ThreadCoord::new(7 + 1024, 32, 1, 2),    // collision, same block
            ThreadCoord::new(7, 0, 1, 1 << 17),      // unpackable SM
        ];
        let lock = crate::bloom::BloomSig::of_lock(0x100, crate::bloom::BloomConfig::PAPER_DEFAULT);
        let acc = |who: ThreadCoord, kind: AccessKind, sync: u8, cs: bool, cycle: u64| {
            let a = MemAccess::plain(0, 4, kind, who).with_clocks(sync, 1).at_cycle(cycle).at_pc(0x44);
            if cs {
                a.locked(lock)
            } else {
                a
            }
        };
        let mut covered = [false; 5];
        for filter in [true, false] {
            for policy in [
                ShadowPolicy::global(filter, true, crate::bloom::BloomConfig::PAPER_DEFAULT),
                ShadowPolicy::shared(filter, crate::bloom::BloomConfig::PAPER_DEFAULT),
            ] {
                let c = crate::clocks::ClockFile::new(16, 64);
                // Entry setups: fresh, each state opened by `base` (CS and
                // not), read-shared, a poisoned write cycle, a poisoned SM.
                let mut setups = vec![FRESH];
                for kind in [AccessKind::Read, AccessKind::Write] {
                    for cs in [false, true] {
                        let mut e = FRESH;
                        e.observe(&acc(base, kind, 3, cs, 9), &c, &policy);
                        setups.push(e);
                    }
                }
                let mut shared = FRESH;
                shared.observe(&acc(base, AccessKind::Read, 3, false, 9), &c, &policy);
                shared.observe(&acc(lanes[4], AccessKind::Read, 3, false, 9), &c, &policy);
                setups.push(shared);
                let mut late = FRESH;
                late.observe(&acc(base, AccessKind::Write, 3, false, H2_CYCLE_LIMIT + 1), &c, &policy);
                setups.push(late);
                let mut far = FRESH;
                far.observe(&acc(lanes[7], AccessKind::Write, 3, false, 9), &c, &policy);
                setups.push(far);
                for before in &setups {
                    let (h0, h1, h2) =
                        (pack_h0(before), pack_h1(before), pack_h2(before.fence_id, before.write_cycle, before.pc));
                    for who in lanes {
                        for kind in [AccessKind::Read, AccessKind::Write] {
                            for sync in [3u8, 4] {
                                for cs in [false, true] {
                                    for cycle in [11, H2_CYCLE_LIMIT + 3] {
                                        let a = acc(who, kind, sync, cs, cycle);
                                        let k0 = key0(&a.who);
                                        let k1 = key1(&a.who, a.sync_id, a.in_critical_section);
                                        let step = wide_step(h0, h1, h2, &a, k0, k1, &policy);
                                        let mut after = *before;
                                        let race = after.observe(&a, &c, &policy);
                                        let Some(w) = step else { continue };
                                        let ctx = format!("{before:?} <- {a:?} filter={filter} {:?}", policy.space);
                                        assert!(race.is_none(), "wide tier retired a race: {ctx}");
                                        assert_eq!(w.h0, pack_h0(&after), "h0: {ctx}");
                                        assert_eq!(w.h1 & !H1_DETACHED, pack_h1(&after), "h1: {ctx}");
                                        assert_eq!(w.h2, pack_h2(after.fence_id, after.write_cycle, after.pc), "h2: {ctx}");
                                        if w.h1 & H1_DETACHED != h1 & H1_DETACHED {
                                            assert_eq!(hotwords_unpacked(&w), after, "detached entry: {ctx}");
                                        } else {
                                            assert_eq!(
                                                (after.atomic_sig, after.locks, after.locks_known),
                                                (before.atomic_sig, before.locks, before.locks_known),
                                                "lock fields: {ctx}"
                                            );
                                        }
                                        let changed = w.h0 != h0 || (w.h1 ^ h1) & !H1_DETACHED != 0 || w.h2 != h2;
                                        assert_eq!(changed, after != *before, "changed: {ctx}");
                                        let truncated = policy.count_truncation
                                            && !before.is_fresh()
                                            && crate::packed::id_truncation_collision(before, &a.who);
                                        assert_eq!(w.truncated, truncated, "truncation: {ctx}");
                                        // Pin the coverage the tier exists for.
                                        let same_warp =
                                            !before.is_fresh() && who.warp == before.warp && who.tid != before.tid;
                                        let reopen = !before.is_fresh()
                                            && policy.sync_id_epochs
                                            && who.block == before.block
                                            && sync != before.sync_id;
                                        covered[0] |= before.is_fresh() && !cs;
                                        covered[1] |= reopen;
                                        covered[2] |= same_warp && kind.is_write() && filter;
                                        covered[3] |= before.state() == crate::shadow::ShadowState::ReadSingle
                                            && who.warp != before.warp;
                                        covered[4] |= w.truncated;
                                        assert!(
                                            !same_warp || !kind.is_write() || filter || reopen,
                                            "regrouped write retired: {ctx}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(covered, [true; 5], "fresh, reopen, same-warp write, cross-warp read, truncation");
    }

    fn hotwords_unpacked(w: &WideWords) -> ShadowEntry {
        unpack(w.h0, w.h1, w.h2)
    }

    #[test]
    fn fresh_words_pack_the_fresh_entry() {
        let who = ThreadCoord::new(0, 0, 0, 0);
        // Even an access whose identity is all zeros (matching FRESH's
        // zeroed fields) must see the fresh flag, so it opens the entry.
        let k1 = key1(&who, 0, false);
        assert_ne!(FRESH_H1, k1);
        assert_ne!(FRESH_H1 & H1_FRESH, 0);
        assert_eq!(unpack(FRESH_H0, FRESH_H1, FRESH_H2), FRESH);
        assert_eq!(pack_h0(&FRESH), FRESH_H0);
        assert_eq!(pack_h1(&FRESH), FRESH_H1);
        assert_eq!(pack_h2(FRESH.fence_id, FRESH.write_cycle, FRESH.pc), FRESH_H2);
    }

    #[test]
    fn elision_word_is_exact_or_poisoned() {
        // Packable: equality iff all three fields match.
        assert_eq!(pack_h2(3, 77, 0x40), key2(3, 77, 0x40));
        assert_ne!(pack_h2(3, 77, 0x40), key2(3, 78, 0x40));
        assert_ne!(pack_h2(3, 77, 0x40), key2(4, 77, 0x40));
        assert_ne!(pack_h2(3, 77, 0x40), key2(3, 77, 0x44));
        // Unpackable cycles poison both sides with distinct values, so
        // equality can never be claimed spuriously.
        let big = H2_CYCLE_LIMIT + 5;
        assert_eq!(pack_h2(0, big, 0), H2_ENTRY_POISON);
        assert_eq!(key2(0, big, 0), H2_KEY_POISON);
        assert_ne!(H2_ENTRY_POISON, H2_KEY_POISON);
        assert_ne!(pack_h2(0, big, 0), key2(0, big, 0));
        assert!(pack_h2(0, big, 0) & H2_POISON_BIT != 0);
        assert!(key2(0, big, 0) & H2_POISON_BIT != 0);
        // Regular packs never carry the poison bit.
        assert_eq!(pack_h2(0xFF, H2_CYCLE_LIMIT - 1, u32::MAX) & H2_POISON_BIT, 0);
    }
}
