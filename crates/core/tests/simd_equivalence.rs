//! Property test: the wide dispatch tier is observationally
//! identical to the forced-scalar reference path.
//!
//! Random same-page runs mix thread identities (same-warp neighbours,
//! other warps and blocks, truncated-ID aliases), critical-section
//! membership (Bloom-only and exact-table locksets), sync-ID epochs,
//! cycles past the packable range (h2 poison), SM ids past the packable
//! range (h1 poison), byte-sized and chunk-straddling accesses and
//! atomics. Each batch is replayed for three rounds — the later rounds
//! sit in the steady states the wide tier is built for — through a
//! default RDU and a `set_force_scalar(true)` twin, with the §III-A warp
//! filter on and off (regrouping) and witness capture off (wide tier
//! engaged) and on (reference path pinned). Every observable must match
//! bit-for-bit: shadow entries, race records, witness timelines, health
//! counters and the stats block. Hand-built scenarios then pin that the
//! wide tier really retires each transition it claims to cover.

use haccrg::prelude::*;
use proptest::prelude::*;

const HEAP: u32 = 0x1000;
const SHADOW: u32 = 0x10_0000;
const ROUNDS: usize = 3;

/// One lane of a generated warp batch, in slot/flag form.
#[derive(Clone, Debug)]
struct Lane {
    slot: u32,
    kind: AccessKind,
    tid: u32,
    /// 0 = no lockset, 1 = Bloom lock A, 2 = Bloom lock B,
    /// 3 = lock A with an exact table alongside the Bloom signature.
    cs: u8,
    sync_id: u8,
    /// Cycle beyond the packed h2 width, poisoning the elision word.
    big_cycle: bool,
    /// Size-8 access spanning two 4 B global chunks (splits the run).
    straddle: bool,
    l1_hit: bool,
    /// SM id beyond the packed h1 width, poisoning the key word
    /// (global RDU only; the shared RDU pins sm = 0).
    huge_sm: bool,
    /// Thread 1024 above `tid`: the same 10-bit packed tid, block and
    /// SM slot (§VI-C2 truncated-ID collision).
    alias: bool,
    /// One-byte access at this offset within the chunk (HIST's counters).
    byte: Option<u8>,
}

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Atomic),
    ]
}

fn arb_lane() -> impl Strategy<Value = Lane> {
    // Nested tuples: the flag draws are u8 lottery tickets so the
    // rare shapes (poisoned words, straddles) stay rare but present.
    (
        (0u32..192, arb_kind(), 0u32..96, 0u8..4, 0u8..3),
        (0u8..10, 0u8..10, any::<bool>(), 0u8..10),
        (0u8..10, 0u8..32),
    )
        .prop_map(|((slot, kind, tid, cs, sync_id), (big, strad, l1_hit, huge), (alias, byte))| Lane {
            slot,
            kind,
            tid,
            cs,
            sync_id,
            big_cycle: big == 0,
            straddle: strad < 2,
            l1_hit,
            huge_sm: huge == 0,
            alias: alias == 0,
            byte: (byte < 16).then_some(byte),
        })
}

fn with_lockset(a: MemAccess, cs: u8) -> MemAccess {
    let cfg = BloomConfig::PAPER_DEFAULT;
    match cs {
        1 => a.locked(BloomSig::of_lock(0x100, cfg)),
        2 => a.locked(BloomSig::of_lock(0x1F4, cfg)),
        3 => {
            let mut t = LockTable::<4>::new();
            t.insert(0x100);
            a.locked(BloomSig::of_lock(0x100, cfg)).with_locks(t)
        }
        _ => a,
    }
}

fn who_of(l: &Lane) -> ThreadCoord {
    ThreadCoord::from_flat(l.tid + if l.alias { 1024 } else { 0 }, 64, 32, 4)
}

fn global_access(l: &Lane, lane: usize) -> MemAccess {
    let mut who = who_of(l);
    if l.huge_sm {
        who.sm = 1 << 17;
    }
    let (off, size) = match (l.straddle, l.byte) {
        (true, _) => (0, 8),
        (false, Some(b)) => (u32::from(b % 4), 1),
        (false, None) => (0, 4),
    };
    let cycle = if l.big_cycle {
        (1u64 << 24) + lane as u64
    } else {
        64 + lane as u64
    };
    let a = MemAccess::plain(HEAP + l.slot * 4 + off, size, l.kind, who)
        .at_pc(0x40 + lane as u32 * 4)
        .with_clocks(l.sync_id, 0)
        .l1(l.l1_hit)
        .at_cycle(cycle);
    with_lockset(a, l.cs)
}

fn shared_access(l: &Lane, lane: usize) -> MemAccess {
    let mut who = who_of(l);
    who.sm = 0;
    let (off, size) = match (l.straddle, l.byte) {
        (true, _) => (12, 8),
        (false, Some(b)) => (u32::from(b), 1),
        (false, None) => (0, 4),
    };
    let cycle = if l.big_cycle {
        (1u64 << 24) + lane as u64
    } else {
        64 + lane as u64
    };
    let a = MemAccess::plain(l.slot * 16 + off, size, l.kind, who)
        .at_pc(0x40 + lane as u32 * 4)
        .with_clocks(l.sync_id, 0)
        .at_cycle(cycle);
    with_lockset(a, l.cs)
}

type Observables = (
    Vec<ShadowEntry>,
    Vec<RaceRecord>,
    Vec<Vec<WitnessEvent>>,
    u64,
    DetectorHealth,
    String,
);

/// How an RDU twin is driven.
#[derive(Clone, Copy, Debug)]
struct Drive {
    witness: bool,
    force: bool,
    /// `false` models dynamic warp re-grouping (§III-A filter off).
    warp_filter: bool,
}

fn drive_global(batches: &[Vec<MemAccess>], d: Drive) -> (Observables, Vec<ShadowTraffic>, DispatchStats) {
    let clocks = ClockFile::new(8, 64);
    let mut r = GlobalRdu::new(
        HEAP,
        4096,
        SHADOW,
        Granularity::GLOBAL_DEFAULT,
        d.warp_filter,
        true,
        BloomConfig::PAPER_DEFAULT,
    );
    r.set_witness_capture(d.witness);
    r.set_force_scalar(d.force);
    let mut log = RaceLog::default();
    let mut h = DetectorHealth::default();
    let mut scratch = RaceScratch::default();
    let mut traffic = Vec::new();
    for accesses in batches {
        for _ in 0..ROUNDS {
            r.check_warp_batch(accesses, true, &clocks, &mut scratch, &mut log, &mut h, None, |t| {
                traffic.push(t)
            });
        }
    }
    let entries = (0..r.num_entries()).map(|i| r.entry(i)).collect();
    let wit = (0..log.records().len()).map(|k| log.witness_of(k).to_vec()).collect();
    let stats = format!("{:?}", r.stats);
    ((entries, log.records().to_vec(), wit, log.total(), h, stats), traffic, r.dispatch)
}

fn drive_shared(batches: &[Vec<MemAccess>], d: Drive) -> (Observables, DispatchStats) {
    let clocks = ClockFile::new(8, 64);
    let mut r = SharedRdu::new(0, 16 * 1024, 16, Granularity::SHARED_DEFAULT, d.warp_filter, BloomConfig::PAPER_DEFAULT);
    r.set_witness_capture(d.witness);
    r.set_force_scalar(d.force);
    let mut log = RaceLog::default();
    let mut h = DetectorHealth::default();
    let mut scratch = RaceScratch::default();
    for accesses in batches {
        for _ in 0..ROUNDS {
            r.check_warp_batch(accesses, true, &clocks, &mut scratch, &mut log, &mut h, None);
        }
    }
    let entries = (0..r.num_entries()).map(|i| r.entry(i)).collect();
    let wit = (0..log.records().len()).map(|k| log.witness_of(k).to_vec()).collect();
    let stats = format!("{:?}", r.stats);
    ((entries, log.records().to_vec(), wit, log.total(), h, stats), r.dispatch)
}

/// Wide vs forced-scalar on the global RDU under every drive mode;
/// returns the wide run's dispatch tallies (filter on, witness off).
fn global_twins_agree(batches: &[Vec<MemAccess>]) -> DispatchStats {
    let mut tallies = DispatchStats::default();
    for warp_filter in [true, false] {
        for witness in [false, true] {
            let (wide, wide_traffic, dw) = drive_global(batches, Drive { witness, force: false, warp_filter });
            let (scalar, scalar_traffic, _) = drive_global(batches, Drive { witness, force: true, warp_filter });
            let ctx = format!("witness={witness} warp_filter={warp_filter}");
            assert_eq!(wide.0, scalar.0, "shadow entries, {ctx}");
            assert_eq!(wide.1, scalar.1, "race records, {ctx}");
            assert_eq!(wide.2, scalar.2, "witness timelines, {ctx}");
            assert_eq!(wide.3, scalar.3, "race totals, {ctx}");
            assert_eq!(wide.4, scalar.4, "health counters, {ctx}");
            assert_eq!(wide.5, scalar.5, "stats, {ctx}");
            assert_eq!(wide_traffic, scalar_traffic, "traffic, {ctx}");
            if warp_filter && !witness {
                tallies = dw;
            }
        }
    }
    tallies
}

/// Shared-RDU counterpart of [`global_twins_agree`].
fn shared_twins_agree(batches: &[Vec<MemAccess>]) -> DispatchStats {
    let mut tallies = DispatchStats::default();
    for warp_filter in [true, false] {
        for witness in [false, true] {
            let (wide, dw) = drive_shared(batches, Drive { witness, force: false, warp_filter });
            let (scalar, _) = drive_shared(batches, Drive { witness, force: true, warp_filter });
            let ctx = format!("witness={witness} warp_filter={warp_filter}");
            assert_eq!(wide.0, scalar.0, "shadow entries, {ctx}");
            assert_eq!(wide.1, scalar.1, "race records, {ctx}");
            assert_eq!(wide.2, scalar.2, "witness timelines, {ctx}");
            assert_eq!(wide.3, scalar.3, "race totals, {ctx}");
            assert_eq!(wide.4, scalar.4, "health counters, {ctx}");
            assert_eq!(wide.5, scalar.5, "stats, {ctx}");
            if warp_filter && !witness {
                tallies = dw;
            }
        }
    }
    tallies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn global_wide_tier_matches_forced_scalar(lanes in prop::collection::vec(arb_lane(), 1..25)) {
        let accesses: Vec<MemAccess> =
            lanes.iter().enumerate().map(|(i, l)| global_access(l, i)).collect();
        global_twins_agree(&[accesses]);
    }

    #[test]
    fn shared_wide_tier_matches_forced_scalar(lanes in prop::collection::vec(arb_lane(), 1..25)) {
        let accesses: Vec<MemAccess> =
            lanes.iter().enumerate().map(|(i, l)| shared_access(l, i)).collect();
        shared_twins_agree(&[accesses]);
    }
}

// ---- Hand-built scenarios for each transition the wide tier covers ----

fn who(tid: u32, warp: u32, block: u32, sm: u32) -> ThreadCoord {
    ThreadCoord::new(tid, warp, block, sm)
}

fn g(word: u32, kind: AccessKind, w: ThreadCoord, sync: u8) -> MemAccess {
    MemAccess::plain(HEAP + word * 4, 4, kind, w).with_clocks(sync, 0).at_cycle(50 + u64::from(word)).at_pc(0x60)
}

fn s(off: u32, size: u8, kind: AccessKind, w: ThreadCoord) -> MemAccess {
    MemAccess::plain(off, size, kind, w).at_cycle(70 + u64::from(off)).at_pc(0x70)
}

fn lock(a: MemAccess) -> MemAccess {
    a.locked(BloomSig::of_lock(0x100, BloomConfig::PAPER_DEFAULT))
}

#[test]
fn fresh_entries_opened_by_cs_and_plain_lanes() {
    use AccessKind::*;
    // Plain first touches retire wide; CS openers go cold, and their
    // protected entries keep the follow-up lanes on the lockset paths.
    let plain: Vec<_> = (0..8).map(|l| g(l, if l % 2 == 0 { Read } else { Write }, who(l, 0, 0, 0), 0)).collect();
    let locked: Vec<_> = (0..8).map(|l| lock(g(8 + l, Write, who(32 + l, 1, 0, 0), 0))).collect();
    let after: Vec<_> = (0..16).map(|l| g(l, Read, who(64 + l, 2, 1, 1), 0)).collect();
    let d = global_twins_agree(&[plain.clone(), locked.clone(), after]);
    assert!(d.wide_lanes >= 8, "plain first touches must retire wide: {d:?}");
    assert!(d.scalar_lanes >= 8, "CS openers stay cold: {d:?}");
    let sp: Vec<_> = (0..8).map(|l| s(l * 16, 4, Write, who(l, 0, 0, 0))).collect();
    let sl: Vec<_> = (0..8).map(|l| lock(s(128 + l * 16, 4, Write, who(l, 0, 0, 0)))).collect();
    let d = shared_twins_agree(&[sp, sl]);
    assert!(d.wide_lanes >= 8 && d.scalar_lanes >= 8, "{d:?}");
}

#[test]
fn same_warp_neighbours_retire_wide_only_under_the_warp_filter() {
    use AccessKind::*;
    // HIST's shape: 16 lanes of one warp own one byte each of one 16 B
    // shared chunk, read-modify-write, round after round.
    let rd: Vec<_> = (0..16).map(|l| s(l, 1, Read, who(l, 0, 0, 0))).collect();
    let wr: Vec<_> = (0..16).map(|l| s(l, 1, Write, who(l, 0, 0, 0))).collect();
    let d = shared_twins_agree(&[rd.clone(), wr.clone(), rd.clone(), wr.clone()]);
    assert_eq!(d.scalar_lanes, 0, "warp filter on: every lane is ordered: {d:?}");
    // Regrouped warps race instead: those lanes must stay cold.
    let (_, dr) = drive_shared(&[rd, wr], Drive { witness: false, force: false, warp_filter: false });
    assert!(dr.scalar_lanes > 0, "regrouped same-warp writes must go cold: {dr:?}");
    // Global words written by neighbouring lanes of one warp.
    let gw: Vec<_> = (0..32).map(|l| g(l / 4, Write, who(l, 0, 0, 0), 0)).collect();
    let gr: Vec<_> = (0..32).map(|l| g(l / 4, Read, who(l, 0, 0, 0), 0)).collect();
    let d = global_twins_agree(&[gw, gr]);
    assert_eq!(d.scalar_lanes, 0, "{d:?}");
}

#[test]
fn cross_warp_and_cross_block_reads_of_read_entries_retire_wide() {
    use AccessKind::*;
    // MCARLO/KMEANS inputs: host-written, read by every warp and block.
    let warp0: Vec<_> = (0..32).map(|l| g(l, Read, who(l, 0, 0, 0), 0)).collect();
    let warp1: Vec<_> = (0..32).map(|l| g(l, Read, who(32 + l, 1, 0, 0), 0)).collect();
    let block3: Vec<_> = (0..32).map(|l| g(l, Read, who(96 + l, 3, 1, 1), 0)).collect();
    let d = global_twins_agree(&[warp0.clone(), warp1.clone(), block3.clone()]);
    assert_eq!(d.scalar_lanes, 0, "ReadSingle -> ReadShared and shared reads stay wide: {d:?}");
    // A write into the read-shared words races: cold, and reported alike.
    let writer: Vec<_> = (0..4).map(|l| g(l, Write, who(200 + l, 6, 3, 3), 0)).collect();
    let d = global_twins_agree(&[warp0, warp1, block3, writer]);
    assert_eq!(d.scalar_lanes, 4, "{d:?}");
}

#[test]
fn global_sync_id_reopen_retires_wide() {
    use AccessKind::*;
    // Warp 0 writes in epoch 0; after a barrier warp 1 of the same block
    // reads (epoch 1): §IV-B reopens the entry instead of a RAW.
    let w: Vec<_> = (0..32).map(|l| g(l, Write, who(l, 0, 0, 0), 0)).collect();
    let r: Vec<_> = (0..32).map(|l| g(l, Read, who(32 + l, 1, 0, 0), 1)).collect();
    let d = global_twins_agree(&[w, r]);
    assert_eq!(d.scalar_lanes, 0, "{d:?}");
}

#[test]
fn truncated_id_collisions_count_exactly_and_poisoned_sms_go_cold() {
    use AccessKind::*;
    // Thread 1024+l aliases thread l under the 10-bit packed tid (same
    // block mod 8, same SM mod 32): reads of a read entry retire wide
    // and must bump the collision counter exactly like the scalar path.
    let a: Vec<_> = (0..8).map(|l| g(l, Read, who(l, 0, 0, 0), 0)).collect();
    let b: Vec<_> = (0..8).map(|l| g(l, Read, who(1024 + l, 32, 8, 32), 0)).collect();
    let d = global_twins_agree(&[a.clone(), b.clone()]);
    assert_eq!(d.scalar_lanes, 0, "{d:?}");
    let (obs, _, _) = drive_global(&[a.clone(), b], Drive { witness: false, force: false, warp_filter: true });
    assert_eq!(obs.4.id_truncation_collisions, 8 * ROUNDS as u64, "one collision per aliasing lane");
    // SM IDs past 16 bits cannot be packed: always cold, still exact.
    let far: Vec<_> = (0..8).map(|l| g(l, Read, who(300 + l, 9, 4, 1 << 17), 0)).collect();
    let d = global_twins_agree(&[a, far]);
    assert_eq!(d.scalar_lanes, 8 * ROUNDS as u64, "{d:?}");
}
