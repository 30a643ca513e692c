//! Criterion benchmarks for the vectorized warp tier: the SoA lane
//! engine's whole-warp ALU step and the batch shadow path
//! (`check_warp_batch`) against the pre-batch scalar pipeline
//! (`check_warp_stores` + per-lane `observe`).
//!
//! `BENCH_warp.json` at the repo root is produced by the companion
//! `warp_bench` binary (`cargo run --release -p haccrg-bench --bin
//! warp_bench`), which measures the same warp shapes with min-of-batches
//! timing and records the speedup against the committed 1465.2 ns
//! scalar-pipeline anchor.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gpu_sim::isa::{BinOp, Reg, Src};
use gpu_sim::lanes::{WarpLanes, LANES};
use haccrg::prelude::*;

/// Coalesced same-warp stores: the `BENCH_shadow.json` steady-state shape.
fn coalesced_lanes() -> Vec<MemAccess> {
    (0..32u32)
        .map(|l| {
            MemAccess::plain(0x1000 + l * 4, 4, AccessKind::Write, ThreadCoord::new(l, 0, 0, 0))
        })
        .collect()
}

/// Page-per-lane stores: worst case for batch run formation.
fn scattered_lanes() -> Vec<MemAccess> {
    (0..32u32)
        .map(|l| {
            MemAccess::plain(0x1000 + l * 1024, 4, AccessKind::Write, ThreadCoord::new(l, 0, 0, 0))
        })
        .collect()
}

fn rdu() -> GlobalRdu {
    GlobalRdu::new(
        0x1000,
        1 << 20,
        0x100_0000,
        Granularity::GLOBAL_DEFAULT,
        true,
        true,
        BloomConfig::PAPER_DEFAULT,
    )
}

fn lane_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("warp_lane_engine");
    g.throughput(Throughput::Elements(LANES as u64));

    // One Bin(Add) warp instruction: whole-row operand fetch, 32-lane
    // compute, mask-predicated writeback.
    g.bench_function("bin_add_full_mask", |b| {
        let lane_slots = 2 * LANES;
        let mut regs: Vec<u32> = (0..lane_slots * 8).map(|i| i as u32).collect();
        b.iter(|| {
            let mut view = WarpLanes::new(&mut regs, lane_slots, 0);
            view.bin(
                BinOp::Add,
                Reg(0),
                Src::Reg(Reg(1)),
                Src::Reg(Reg(2)),
                black_box(u32::MAX),
            );
            regs[0]
        })
    });

    // Divergent half-warp: every other lane predicated off.
    g.bench_function("bin_add_half_mask", |b| {
        let lane_slots = 2 * LANES;
        let mut regs: Vec<u32> = (0..lane_slots * 8).map(|i| i as u32).collect();
        b.iter(|| {
            let mut view = WarpLanes::new(&mut regs, lane_slots, 0);
            view.bin(
                BinOp::Add,
                Reg(0),
                Src::Reg(Reg(1)),
                Src::Reg(Reg(2)),
                black_box(0x5555_5555),
            );
            regs[0]
        })
    });
    g.finish();
}

fn batch_shadow(c: &mut Criterion) {
    let mut g = c.benchmark_group("warp_batch_shadow");
    g.throughput(Throughput::Elements(32));

    for (name, lanes) in [("coalesced", coalesced_lanes()), ("scattered", scattered_lanes())] {
        // The batch path: intra-warp screen, then one page resolve per
        // maximal same-page run of lanes.
        g.bench_function(format!("batch/{name}"), |b| {
            let clocks = ClockFile::new(64, 2048);
            let mut rdu = rdu();
            let mut log = RaceLog::default();
            let mut scratch = RaceScratch::default();
            let mut health = DetectorHealth::default();
            b.iter(|| {
                rdu.check_warp_batch(
                    &lanes,
                    true,
                    &clocks,
                    &mut scratch,
                    &mut log,
                    &mut health,
                    None,
                    |_traffic| {},
                );
                black_box(log.total())
            })
        });

        // The pre-batch scalar pipeline the batch tier must match
        // bit-for-bit: WAW screen plus one full `observe` per lane.
        g.bench_function(format!("scalar/{name}"), |b| {
            let clocks = ClockFile::new(64, 2048);
            let mut rdu = rdu();
            let mut log = RaceLog::default();
            let mut scratch = RaceScratch::default();
            let mut health = DetectorHealth::default();
            b.iter(|| {
                rdu.check_warp_stores(&lanes, &mut scratch, &mut log);
                for a in &lanes {
                    black_box(rdu.observe_health(a, &clocks, &mut log, &mut health));
                }
                black_box(log.total())
            })
        });
    }
    g.finish();
}

/// Two warps alternately writing the same words under a common lock:
/// every check walks the lockset path (§III-B).
fn lockset_lanes(warp: u32) -> Vec<MemAccess> {
    let sig = BloomSig::of_lock(0x8000, BloomConfig::PAPER_DEFAULT);
    (0..32u32)
        .map(|l| {
            MemAccess::plain(
                0x1000 + l * 4,
                4,
                AccessKind::Write,
                ThreadCoord::new(warp * 32 + l, warp, 0, 0),
            )
            .locked(sig)
        })
        .collect()
}

fn lockset_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("lockset_batch");
    g.throughput(Throughput::Elements(32));

    // simd: the batch entry point with the wide tier on (critical-section
    // lanes still take the reference step). batch: the same entry point
    // pinned to the reference path. scalar: the pre-batch pipeline.
    for (name, force_scalar) in [("simd", false), ("batch", true)] {
        g.bench_function(name, |b| {
            let warps = [lockset_lanes(0), lockset_lanes(1)];
            let clocks = ClockFile::new(64, 2048);
            let mut rdu = rdu();
            rdu.set_force_scalar(force_scalar);
            let mut log = RaceLog::default();
            let mut scratch = RaceScratch::default();
            let mut health = DetectorHealth::default();
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                if i == warps.len() {
                    i = 0;
                }
                rdu.check_warp_batch(
                    &warps[i],
                    true,
                    &clocks,
                    &mut scratch,
                    &mut log,
                    &mut health,
                    None,
                    |_traffic| {},
                );
                black_box(log.total())
            })
        });
    }

    g.bench_function("scalar", |b| {
        let warps = [lockset_lanes(0), lockset_lanes(1)];
        let clocks = ClockFile::new(64, 2048);
        let mut rdu = rdu();
        let mut log = RaceLog::default();
        let mut scratch = RaceScratch::default();
        let mut health = DetectorHealth::default();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            if i == warps.len() {
                i = 0;
            }
            rdu.check_warp_stores(&warps[i], &mut scratch, &mut log);
            for a in &warps[i] {
                black_box(rdu.observe_health(a, &clocks, &mut log, &mut health));
            }
            black_box(log.total())
        })
    });
    g.finish();
}

criterion_group!(benches, lane_engine, batch_shadow, lockset_batch);
criterion_main!(benches);
