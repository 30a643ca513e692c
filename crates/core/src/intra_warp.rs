//! Pre-issue intra-warp write-after-write check (§III-A "Impact of Warps
//! on Reporting Races").
//!
//! Threads within a warp execute in lockstep, so accesses from *different
//! instructions* of one warp are ordered and never race — and the paper is
//! explicit that shadow-entry conflation never produces same-warp reports
//! either ("HAccRG does not report a data race even when the entire warp's
//! accesses map to a single shadow entry", §VI-A1). The one true hazard
//! left inside a warp is two lanes of the *same* store instruction writing
//! the **same bytes**: "HAccRG does detect write-after-write violations
//! within the same warp before the memory request is issued". The RDU
//! compares the lane addresses exactly (byte overlap, not tracking
//! granularity) while the request sits in the issue stage.

use crate::access::{AccessKind, MemAccess, MemSpace, ThreadCoord};
use crate::race::{RaceCategory, RaceKind, RaceLog, RaceRecord};
use crate::scratch::RaceScratch;

/// Check the lane accesses of a single warp store instruction for
/// overlapping writes by different lanes.
///
/// Lanes whose address is below `base` are ignored (untracked region).
/// Atomic lanes are exempt: the memory system serializes them. At most one
/// race per overlapping address is reported, mirroring a comparator tree
/// raising one violation signal per conflict.
pub fn check_intra_warp_waw(lanes: &[MemAccess], base: u32, space: MemSpace) -> Vec<RaceRecord> {
    let mut races = Vec::new();
    let mut reported = Vec::new();
    check_intra_warp_waw_impl(lanes, base, space, &mut reported, |r| races.push(r));
    races
}

/// Allocation-free variant: races go straight into `log`, the dedup set
/// lives in `scratch`. Hot-path equivalent of [`check_intra_warp_waw`].
///
/// Fast path: a bit-parallel occupancy screen proves the common case —
/// all write lanes disjoint — in one linear pass over the warp, so the
/// exact pairwise comparison only runs when some tracked chunk actually
/// sees two writes (the comparator tree has work to do).
pub fn check_intra_warp_waw_into(
    lanes: &[MemAccess],
    base: u32,
    space: MemSpace,
    scratch: &mut RaceScratch,
    log: &mut RaceLog,
) {
    scratch.reported.clear();
    if writes_provably_disjoint(lanes, base) {
        return;
    }
    check_intra_warp_waw_impl(lanes, base, space, &mut scratch.reported, |r| {
        log.push(r);
    });
}

/// Last byte a lane writes. An access running past the top of the
/// address space ends at `u32::MAX`.
fn last_byte(a: &MemAccess) -> u32 {
    a.addr.saturating_add(u32::from(a.size.max(1)) - 1)
}

/// Occupancy-bitmap screen: `true` means no two tracked write lanes can
/// overlap, so the exact check would report nothing. Conservative — a
/// `false` only means "possible overlap, run the exact comparison".
///
/// The write footprint `[min, max_end)` is mapped onto a 4096-bit window,
/// one bit per byte whenever the footprint spans at most 4 KiB (HIST's
/// byte counters, four lanes to a word, prove disjoint here), else at the
/// smallest power-of-two chunk size that fits. Each lane sets the bits of
/// the bytes (chunks) it touches, and a set-bit collision — two lanes on
/// one byte, or one coarse chunk — falls back to the exact path.
fn writes_provably_disjoint(lanes: &[MemAccess], base: u32) -> bool {
    const WINDOW_BITS: u32 = 4096;
    // Ascending non-overlapping lanes (the coalescer's natural order)
    // are proven disjoint in this single pass: intervals sorted by start
    // with consecutive pairs disjoint are pairwise disjoint.
    let mut writes = 0u32;
    let mut monotone = true;
    let mut prev_last = 0u32;
    for a in lanes {
        if a.kind != AccessKind::Write || a.addr < base {
            continue;
        }
        writes += 1;
        monotone &= writes == 1 || a.addr > prev_last;
        prev_last = last_byte(a);
    }
    if writes <= 1 || monotone {
        return true;
    }
    // Rare fallback: gather the footprint, then run the occupancy window.
    let mut min = u32::MAX;
    let mut max_last = 0u32;
    for a in lanes {
        if a.kind != AccessKind::Write || a.addr < base {
            continue;
        }
        min = min.min(a.addr);
        max_last = max_last.max(last_byte(a));
    }
    let mut shift = 0u32;
    while ((max_last - min) >> shift) >= WINDOW_BITS {
        shift += 1;
    }
    let mut occ = [0u64; (WINDOW_BITS / 64) as usize];
    for a in lanes {
        if a.kind != AccessKind::Write || a.addr < base {
            continue;
        }
        let lo = (a.addr - min) >> shift;
        let hi = (last_byte(a) - min) >> shift;
        let mut w = lo / 64;
        let mut first = lo % 64;
        loop {
            let last = if w == hi / 64 { hi % 64 } else { 63 };
            let bits = (u64::MAX >> (63 - last)) & (u64::MAX << first);
            let word = &mut occ[(w % (WINDOW_BITS / 64)) as usize];
            if *word & bits != 0 {
                return false;
            }
            *word |= bits;
            if w == hi / 64 {
                break;
            }
            w += 1;
            first = 0;
        }
    }
    true
}

fn check_intra_warp_waw_impl(
    lanes: &[MemAccess],
    base: u32,
    space: MemSpace,
    reported: &mut Vec<u32>,
    mut emit: impl FnMut(RaceRecord),
) {
    // Warps are ≤32 lanes: a quadratic scan is exactly what the hardware's
    // pairwise comparator array does, and is cheap here.
    for (i, a) in lanes.iter().enumerate() {
        if a.kind != AccessKind::Write || a.addr < base {
            continue;
        }
        let (alo, ahi) = (a.addr, last_byte(a));
        for b in &lanes[i + 1..] {
            if b.kind != AccessKind::Write || b.addr < base || b.who.tid == a.who.tid {
                continue;
            }
            let (blo, bhi) = (b.addr, last_byte(b));
            if alo > bhi || blo > ahi {
                continue;
            }
            let overlap = alo.max(blo);
            if reported.contains(&overlap) {
                continue;
            }
            reported.push(overlap);
            emit(RaceRecord {
                kind: RaceKind::Waw,
                category: RaceCategory::IntraWarp,
                space,
                addr: overlap,
                pc: b.pc,
                prev_pc: a.pc,
                cycle: b.cycle,
                prev: a.who,
                cur: b.who,
            });
        }
    }
}

/// Convenience for building lane access lists in tests and the simulator.
pub fn lane_store(addr: u32, size: u8, tid: u32, warp: u32, pc: u32) -> MemAccess {
    MemAccess::plain(addr, size, AccessKind::Write, ThreadCoord::new(tid, warp, 0, 0)).at_pc(pc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_words_no_race() {
        let lanes: Vec<_> = (0..32).map(|l| lane_store(l * 4, 4, l, 0, 0)).collect();
        assert!(check_intra_warp_waw(&lanes, 0, MemSpace::Shared).is_empty());
    }

    #[test]
    fn neighbouring_words_in_one_chunk_do_not_race() {
        // §VI-A1: same-warp accesses conflated by coarse tracking
        // granularity must not be reported.
        let lanes = vec![lane_store(0, 4, 0, 0, 0), lane_store(4, 4, 1, 0, 0)];
        assert!(check_intra_warp_waw(&lanes, 0, MemSpace::Shared).is_empty());
    }

    #[test]
    fn lanes_at_the_top_of_the_address_space_do_not_overflow() {
        let top = u32::MAX - 1;
        let clash = vec![lane_store(top - 4, 4, 0, 0, 0), lane_store(top, 4, 1, 0, 0), lane_store(top, 4, 2, 0, 0)];
        let mut log = RaceLog::default();
        check_intra_warp_waw_into(&clash, 0, MemSpace::Global, &mut RaceScratch::default(), &mut log);
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.records()[0].addr, top);
        let apart = vec![lane_store(top - 4, 4, 0, 0, 0), lane_store(top, 4, 1, 0, 0)];
        assert!(check_intra_warp_waw(&apart, 0, MemSpace::Global).is_empty());
    }

    #[test]
    fn two_lanes_same_word_race() {
        let lanes = vec![lane_store(8, 4, 0, 0, 5), lane_store(8, 4, 1, 0, 5)];
        let races = check_intra_warp_waw(&lanes, 0, MemSpace::Shared);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::Waw);
        assert_eq!(races[0].category, RaceCategory::IntraWarp);
        assert_eq!(races[0].addr, 8);
    }

    #[test]
    fn byte_stores_to_different_bytes_never_race() {
        // The HIST pattern: byte-sized elements packed into one word are
        // still distinct locations for the exact pre-issue comparison.
        let lanes = vec![lane_store(8, 1, 0, 0, 0), lane_store(9, 1, 1, 0, 0)];
        assert!(check_intra_warp_waw(&lanes, 0, MemSpace::Shared).is_empty());
        // Same byte: a true WAW.
        let clash = vec![lane_store(8, 1, 0, 0, 0), lane_store(8, 1, 1, 0, 0)];
        assert_eq!(check_intra_warp_waw(&clash, 0, MemSpace::Shared).len(), 1);
    }

    #[test]
    fn one_race_per_overlap_address() {
        // Four lanes piling onto the same word: one report, not six.
        let lanes: Vec<_> = (0..4).map(|l| lane_store(16, 4, l, 0, 0)).collect();
        assert_eq!(check_intra_warp_waw(&lanes, 0, MemSpace::Shared).len(), 1);
    }

    #[test]
    fn same_tid_lanes_do_not_race() {
        // A lane appearing twice (replayed access) is the same thread.
        let lanes = vec![lane_store(8, 4, 3, 0, 0), lane_store(8, 4, 3, 0, 0)];
        assert!(check_intra_warp_waw(&lanes, 0, MemSpace::Shared).is_empty());
    }

    #[test]
    fn reads_are_exempt() {
        let mut lanes = vec![lane_store(8, 4, 0, 0, 0)];
        let who = ThreadCoord::new(1, 0, 0, 0);
        lanes.push(MemAccess::plain(8, 4, AccessKind::Read, who));
        assert!(check_intra_warp_waw(&lanes, 0, MemSpace::Shared).is_empty());
    }

    #[test]
    fn atomics_are_exempt() {
        let who0 = ThreadCoord::new(0, 0, 0, 0);
        let who1 = ThreadCoord::new(1, 0, 0, 0);
        let lanes = vec![
            MemAccess::plain(8, 4, AccessKind::Atomic, who0),
            MemAccess::plain(8, 4, AccessKind::Atomic, who1),
        ];
        assert!(check_intra_warp_waw(&lanes, 0, MemSpace::Global).is_empty());
    }

    #[test]
    fn untracked_lanes_below_base_are_ignored() {
        let lanes = vec![lane_store(8, 4, 0, 0, 0), lane_store(8, 4, 1, 0, 0)];
        assert!(check_intra_warp_waw(&lanes, 0x100, MemSpace::Global).is_empty());
    }

    /// The `_into` fast path (occupancy screen + exact fallback) must
    /// agree with the reference implementation on every pattern.
    fn assert_into_matches(lanes: &[MemAccess], base: u32, space: MemSpace) {
        let reference = check_intra_warp_waw(lanes, base, space);
        let mut scratch = RaceScratch::default();
        let mut log = RaceLog::default();
        check_intra_warp_waw_into(lanes, base, space, &mut scratch, &mut log);
        assert_eq!(log.records(), reference.as_slice());
    }

    #[test]
    fn screened_path_matches_reference() {
        // Disjoint (screen passes, nothing reported).
        let disjoint: Vec<_> = (0..32).map(|l| lane_store(l * 4, 4, l, 0, 0)).collect();
        assert_into_matches(&disjoint, 0, MemSpace::Shared);
        // Dense collision (screen falls back, race reported).
        let clash: Vec<_> = (0..4).map(|l| lane_store(16, 4, l, 0, 7)).collect();
        assert_into_matches(&clash, 0, MemSpace::Shared);
        // Wide scatter, 4 KiB stride: coarse-chunk screen must still pass.
        let scatter: Vec<_> = (0..32).map(|l| lane_store(l * 4096, 4, l, 0, 0)).collect();
        assert_into_matches(&scatter, 0, MemSpace::Global);
        // Wide scatter with one distant duplicate pair.
        let mut dup = scatter.clone();
        dup[31] = lane_store(0, 4, 31, 0, 3);
        assert_into_matches(&dup, 0, MemSpace::Global);
        // Straddling 8-byte store overlapping a word store.
        let straddle = vec![lane_store(4, 8, 0, 0, 0), lane_store(8, 4, 1, 0, 0)];
        assert_into_matches(&straddle, 0, MemSpace::Global);
        // Byte stores sharing a word but not a byte: screen may fall
        // back (4-byte chunks collide) but the exact path stays silent.
        let bytes = vec![lane_store(8, 1, 0, 0, 0), lane_store(9, 1, 1, 0, 0)];
        assert_into_matches(&bytes, 0, MemSpace::Shared);
        // Untracked lanes below base are invisible to both paths.
        let below = vec![lane_store(8, 4, 0, 0, 0), lane_store(8, 4, 1, 0, 0)];
        assert_into_matches(&below, 0x100, MemSpace::Global);
    }

    /// HIST's shared store shape: 32 byte counters, four lanes to a word
    /// (lanes `4k..4k+3` hit bin `bins[k]`), scattered over a 4 KiB row
    /// span in non-ascending order.
    fn hist_bytes(bins: [u32; 8]) -> Vec<MemAccess> {
        (0..32).map(|l| lane_store(bins[l as usize / 4] * 64 + l, 1, l, 0, 0x30)).collect()
    }

    #[test]
    fn hist_byte_stores_are_screened_byte_exact() {
        let lanes = hist_bytes([63, 0, 31, 5, 17, 44, 2, 60]);
        let span = lanes.iter().map(|a| a.addr).max().unwrap() + 1;
        assert!(span > 4000 && span <= 4096, "a 4 KiB footprint, got {span}");
        // Proven disjoint by the screen itself — no pairwise fallback.
        assert!(writes_provably_disjoint(&lanes, 0));
        assert_into_matches(&lanes, 0, MemSpace::Shared);
        // The window's extreme bytes still resolve individually.
        let edges = vec![lane_store(4095, 1, 0, 0, 0), lane_store(0, 1, 1, 0, 0), lane_store(1, 1, 2, 0, 0)];
        assert!(writes_provably_disjoint(&edges, 0));
    }

    #[test]
    fn hist_same_byte_pair_is_reported_exactly_once() {
        let mut lanes = hist_bytes([63, 0, 31, 5, 17, 44, 2, 60]);
        // Lane 9 lands on lane 8's byte.
        lanes[9].addr = lanes[8].addr;
        assert!(!writes_provably_disjoint(&lanes, 0), "a shared byte must fall back");
        let races = check_intra_warp_waw(&lanes, 0, MemSpace::Shared);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].addr, lanes[8].addr);
        assert_eq!((races[0].prev.tid, races[0].cur.tid), (8, 9));
        assert_into_matches(&lanes, 0, MemSpace::Shared);
    }

    #[test]
    fn wide_footprints_fall_back_to_coarse_chunks() {
        // Past 4 KiB the screen coarsens: distinct words in one 2-byte
        // chunk need the exact path, which stays silent.
        let lanes = vec![lane_store(8192, 1, 0, 0, 0), lane_store(1, 1, 1, 0, 0), lane_store(0, 1, 2, 0, 0)];
        assert!(!writes_provably_disjoint(&lanes, 0));
        assert_into_matches(&lanes, 0, MemSpace::Global);
        let spread: Vec<_> = (0..32).rev().map(|l| lane_store(l * 4096, 4, l, 0, 0)).collect();
        assert!(writes_provably_disjoint(&spread, 0));
    }

    #[test]
    fn straddling_writes_conflict() {
        // 8-byte store at addr 4 covers bytes 4..=11; word store at 8
        // covers 8..=11: true overlap.
        let lanes = vec![lane_store(4, 8, 0, 0, 0), lane_store(8, 4, 1, 0, 0)];
        assert_eq!(check_intra_warp_waw(&lanes, 0, MemSpace::Global).len(), 1);
    }
}
