//! Counting-allocator proof that the detection hot path is allocation-free
//! once warm: global/shared RDU observes, warp store checks through
//! [`RaceScratch`], barrier resets, and transaction coalescing all reuse
//! their buffers, so a second pass over the same access pattern must not
//! touch the allocator at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use gpu_sim::isa::{BinOp, CmpOp, Reg, Src};
use gpu_sim::lanes::{WarpLanes, LANES};
use gpu_sim::mem::coalesce::{coalesce_into, LaneAddr, Transaction};
use haccrg::prelude::*;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(p, l, new_size)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// One round of the full detection pipeline over a fixed access pattern.
struct Pipeline {
    grdu: GlobalRdu,
    srdu: SharedRdu,
    clocks: ClockFile,
    log: RaceLog,
    scratch: RaceScratch,
    global_lanes: Vec<MemAccess>,
    shared_lanes: Vec<MemAccess>,
    /// Two warps alternately writing the same words under a common lock:
    /// every batch round drives the §III-B lockset rules through the
    /// reference step in their cross-thread steady state.
    lockset_warps: [Vec<MemAccess>; 2],
    /// Round parity selecting which lockset warp goes next.
    tick: usize,
    lane_addrs: Vec<LaneAddr>,
    txs: Vec<Transaction>,
    health: DetectorHealth,
    /// SoA register file for the vector lane engine (2 warps x 8 regs).
    regs: Vec<u32>,
}

impl Pipeline {
    fn new() -> Self {
        Self {
            grdu: GlobalRdu::new(
                0x1000,
                1 << 20,
                0x100_0000,
                Granularity::GLOBAL_DEFAULT,
                true,
                true,
                BloomConfig::PAPER_DEFAULT,
            ),
            srdu: SharedRdu::new(
                0,
                48 * 1024,
                16,
                Granularity::SHARED_DEFAULT,
                true,
                BloomConfig::PAPER_DEFAULT,
            ),
            clocks: ClockFile::new(64, 2048),
            log: RaceLog::default(),
            scratch: RaceScratch::default(),
            global_lanes: (0..32u32)
                .map(|l| {
                    let who = ThreadCoord::new(l, 0, 0, 0);
                    MemAccess::plain(0x1000 + l * 4, 4, AccessKind::Write, who)
                })
                .collect(),
            shared_lanes: (0..32u32)
                .map(|l| {
                    let who = ThreadCoord::new(l, 0, 0, 0);
                    MemAccess::plain(l * 16, 4, AccessKind::Write, who)
                })
                .collect(),
            lockset_warps: [0u32, 1u32].map(|w| {
                let sig = BloomSig::of_lock(0x8000, BloomConfig::PAPER_DEFAULT);
                (0..32u32)
                    .map(|l| {
                        let who = ThreadCoord::new(32 + w * 32 + l, 1 + w, 0, 0);
                        MemAccess::plain(0x2000 + l * 4, 4, AccessKind::Write, who).locked(sig)
                    })
                    .collect()
            }),
            tick: 0,
            lane_addrs: (0..32u8)
                .map(|l| LaneAddr { lane: l, addr: 0x1000 + u32::from(l) * 4, size: 4 })
                .collect(),
            txs: Vec::new(),
            health: DetectorHealth::default(),
            regs: (0..2 * LANES * 8).map(|i| i as u32).collect(),
        }
    }

    fn round(&mut self) -> usize {
        // Coalesce the warp's lanes into line transactions.
        coalesce_into(&self.lane_addrs, 128, &mut self.txs);
        // Global path: pre-issue WAW check, then a shadow check per lane.
        self.grdu.check_warp_stores(&self.global_lanes, &mut self.scratch, &mut self.log);
        for a in &self.global_lanes {
            self.grdu.observe(a, &self.clocks, &mut self.log);
        }
        // Shared path: checks plus a barrier reset (epoch bump).
        self.srdu.check_warp_stores(&self.shared_lanes, &mut self.scratch, &mut self.log);
        for a in &self.shared_lanes {
            self.srdu.observe(a, &self.clocks, &mut self.log);
        }
        self.srdu.reset_block_range(0, 48 * 1024);
        // Batch path: whole-warp checks through the RDU core's per-lane
        // loop (the same accesses, so the pattern stays race-free).
        self.grdu.check_warp_batch(
            &self.global_lanes,
            true,
            &self.clocks,
            &mut self.scratch,
            &mut self.log,
            &mut self.health,
            None,
            |_traffic| {},
        );
        self.srdu.check_warp_batch(
            &self.shared_lanes,
            true,
            &self.clocks,
            &mut self.scratch,
            &mut self.log,
            &mut self.health,
            None,
        );
        // Lockset round: cross-warp writes under a common lock are benign;
        // critical-section lanes take the scalar reference step (attach,
        // Fig. 3 lockset rules, repack), which must never touch the
        // allocator once warm.
        let lockset_warp = &self.lockset_warps[self.tick & 1];
        self.tick += 1;
        self.grdu.check_warp_batch(
            lockset_warp,
            true,
            &self.clocks,
            &mut self.scratch,
            &mut self.log,
            &mut self.health,
            None,
            |_traffic| {},
        );
        // SoA execute path: vector ALU kernels over a warp's rows.
        let mut view = WarpLanes::new(&mut self.regs, 2 * LANES, 0);
        view.bin(BinOp::Add, Reg(0), Src::Reg(Reg(1)), Src::Reg(Reg(2)), u32::MAX);
        view.mad(Reg(3), Src::Reg(Reg(0)), Src::Imm(3), Src::Reg(Reg(4)), 0xFFFF);
        view.setp(CmpOp::LtU, Reg(5), Src::Reg(Reg(3)), Src::Imm(64), u32::MAX);
        let taken = view.vote(Reg(5), true, u32::MAX);
        self.txs.len() + self.log.total() as usize + taken as usize
    }
}

/// Warm the pipeline, then count allocator traffic over a thousand
/// steady-state rounds. One `#[test]` covers both capture settings: the
/// allocation counter is process-global, so concurrent tests (or even
/// the harness printing another test's result) would pollute the count.
#[test]
fn warm_detection_pipeline_is_allocation_free() {
    for witness_capture in [false, true] {
        let mut p = Pipeline::new();
        // Witness capture records every tracked access into a
        // pre-allocated ring; timeline materialization (which does
        // allocate) happens only when a *fresh* race is pushed, and
        // this pattern is race-free after warm-up — so steady-state
        // recording must stay off the allocator too.
        p.grdu.set_witness_capture(witness_capture);
        p.srdu.set_witness_capture(witness_capture);
        // Warm-up: materializes the touched shadow pages and grows every
        // scratch buffer to its steady-state capacity. Two rounds so both
        // alternating lockset warps have stamped their entries.
        std::hint::black_box(p.round());
        std::hint::black_box(p.round());

        // The counter is process-global and the libtest harness thread
        // prints concurrently with the test body, so a measurement
        // window can catch a few unrelated allocations. A leak in the
        // pipeline would show up in *every* window; harness noise is
        // transient — require one clean window out of three.
        let mut leaked = u64::MAX;
        for _ in 0..3 {
            let before = ALLOCS.load(Relaxed);
            for _ in 0..1000 {
                std::hint::black_box(p.round());
            }
            leaked = leaked.min(ALLOCS.load(Relaxed) - before);
            if leaked == 0 {
                break;
            }
        }
        assert_eq!(
            leaked, 0,
            "warm detection pipeline (witness_capture={witness_capture}) touched the allocator"
        );
    }
}
