//! Simulation statistics: everything the paper's evaluation reads off
//! GPGPU-Sim — cycle counts (Fig. 7/8), instruction mix (Table II), cache
//! behaviour and DRAM bandwidth utilization (Fig. 9), plus detector
//! traffic counters.

use haccrg::prelude::{DetectorHealth, DispatchStats};
use serde::{Deserialize, Serialize};

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // counter names are self-describing
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Merge another instance (per-slice → aggregate).
    pub fn merge(&mut self, o: &CacheStats) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.dirty_writebacks += o.dirty_writebacks;
    }

    /// Field-wise difference vs an earlier snapshot of the same counters
    /// (cycle-sampled metrics). Counters are monotonic, so saturation
    /// only protects against misuse.
    pub fn delta(&self, prev: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses.saturating_sub(prev.accesses),
            hits: self.hits.saturating_sub(prev.hits),
            misses: self.misses.saturating_sub(prev.misses),
            evictions: self.evictions.saturating_sub(prev.evictions),
            dirty_writebacks: self.dirty_writebacks.saturating_sub(prev.dirty_writebacks),
        }
    }
}

/// DRAM counters per memory slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // counter names are self-describing
pub struct DramStats {
    pub reads: u64,
    pub writes: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub activates: u64,
    /// Cycles the slice's data bus was transferring.
    pub bus_busy_cycles: u64,
}

impl DramStats {
    /// Merge another instance.
    pub fn merge(&mut self, o: &DramStats) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.activates += o.activates;
        self.bus_busy_cycles += o.bus_busy_cycles;
    }

    /// Field-wise difference vs an earlier snapshot of the same counters.
    pub fn delta(&self, prev: &DramStats) -> DramStats {
        DramStats {
            reads: self.reads.saturating_sub(prev.reads),
            writes: self.writes.saturating_sub(prev.writes),
            row_hits: self.row_hits.saturating_sub(prev.row_hits),
            row_misses: self.row_misses.saturating_sub(prev.row_misses),
            activates: self.activates.saturating_sub(prev.activates),
            bus_busy_cycles: self.bus_busy_cycles.saturating_sub(prev.bus_busy_cycles),
        }
    }
}

/// Fast-forward accounting for one launch (or an accumulation of
/// launches): how much of the simulated time the event-driven layer
/// skipped, and how idle each SM was. Deliberately kept *outside*
/// [`SimStats`]: skipping changes how the simulator spends wall-clock,
/// never what it computes, so the bit-identity contract (`SimStats`
/// equality across serial/parallel and dense/skip runs) must not see
/// these counters. `sm_idle_cycles` *is* mode-independent — an SM is
/// counted idle whenever `now` is before its wake hint, whether the
/// cycle was gated, jumped, or densely polled.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkipStats {
    /// Cycles the global clock jumped over without polling any component.
    pub cycles_skipped: u64,
    /// Number of fast-forward jumps taken.
    pub skip_jumps: u64,
    /// Per-SM cycles spent quiescent (no issue possible, nothing
    /// maturing locally).
    pub sm_idle_cycles: Vec<u64>,
}

impl SkipStats {
    /// Total idle cycles across all SMs.
    pub fn total_idle_cycles(&self) -> u64 {
        self.sm_idle_cycles.iter().sum()
    }

    /// Accumulate another launch's skip accounting (multi-kernel runs).
    pub fn accumulate(&mut self, o: &SkipStats) {
        self.cycles_skipped += o.cycles_skipped;
        self.skip_jumps += o.skip_jumps;
        if self.sm_idle_cycles.len() < o.sm_idle_cycles.len() {
            self.sm_idle_cycles.resize(o.sm_idle_cycles.len(), 0);
        }
        for (a, b) in self.sm_idle_cycles.iter_mut().zip(&o.sm_idle_cycles) {
            *a += *b;
        }
    }
}

/// Lanes per shadow-check dispatch tier ([`haccrg::dispatch`]), per RDU
/// kind. Like [`SkipStats`] this stays out of [`SimStats`]: detection
/// results are bit-identical across tiers by construction, so the
/// equivalence suites compare `SimStats` between a default run and a
/// forced-scalar one, whose tier counts differ by design.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Summed over the per-SM shared RDUs.
    pub shared: DispatchStats,
    /// The global RDU.
    pub global: DispatchStats,
}

impl TierStats {
    /// Accumulate another launch's tier counts (multi-kernel runs).
    pub fn accumulate(&mut self, o: &TierStats) {
        self.shared.accumulate(&o.shared);
        self.global.accumulate(&o.global);
    }
}

/// Full launch statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub struct SimStats {
    /// Total kernel cycles (launch to last block retiring).
    pub cycles: u64,
    /// Dynamic warp-level instructions issued.
    pub warp_instructions: u64,
    /// Dynamic thread-level instructions (sum of active lanes).
    pub thread_instructions: u64,
    /// Warp-level memory instructions to shared memory.
    pub shared_insts: u64,
    /// Warp-level memory instructions to global memory.
    pub global_insts: u64,
    /// Thread-level shared loads/stores.
    pub shared_loads: u64,
    pub shared_stores: u64,
    /// Thread-level global loads/stores/atomics.
    pub global_loads: u64,
    pub global_stores: u64,
    pub atomics: u64,
    /// Block-wide barriers executed (per block).
    pub barriers: u64,
    /// Memory fences completed (per warp).
    pub fences: u64,
    /// Shared-memory bank-conflict serialization cycles.
    pub bank_conflict_cycles: u64,
    /// Global-memory transactions after coalescing.
    pub global_transactions: u64,
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub dram: DramStats,
    /// Interconnect flits moved (both directions).
    pub icnt_flits: u64,
    /// Shadow-table L2 accesses generated by global RDUs.
    pub shadow_l2_accesses: u64,
    /// Detection-only probe packets (L1-hit checks, §IV-B).
    pub probe_packets: u64,
    /// Fig. 8 mode: shared-shadow L1 accesses.
    pub shared_shadow_l1_accesses: u64,
    /// Cycles SMs stalled invalidating shared shadow entries at barriers.
    pub shadow_reset_stall_cycles: u64,
    /// Warp issues replayed because every L1 MSHR was occupied.
    pub l1_mshr_full_stalls: u64,
    /// Out-of-bounds lane accesses dropped by the functional model.
    pub mem_faults: u64,
    /// Detector checks/resets skipped because a launch was misconfigured
    /// (e.g. no shared RDU installed); always 0 on a healthy run.
    #[serde(default)]
    pub detector_skipped_checks: u64,
    /// Detector-fidelity health counters: every channel through which the
    /// detector can silently lose a race (Bloom aliasing, packed-ID
    /// truncation, race-log saturation) plus occupancy/outcome gauges.
    /// Deterministic per access stream, hence part of the bit-identity
    /// contract across serial/parallel and dense/skip engines.
    #[serde(default)]
    pub health: DetectorHealth,
}

impl SimStats {
    /// Average DRAM data-bus utilization across `slices` memory slices —
    /// the Fig. 9 metric ("average bandwidth utilization of all DRAM
    /// banks over the entire execution").
    pub fn dram_utilization(&self, slices: u32) -> f64 {
        if self.cycles == 0 || slices == 0 {
            0.0
        } else {
            self.dram.bus_busy_cycles as f64 / (self.cycles as f64 * f64::from(slices))
        }
    }

    /// Fraction of dynamic (thread-level) instructions touching shared
    /// memory — Table II's "Shared Memory Inst %" (computed warp-level).
    pub fn shared_inst_fraction(&self) -> f64 {
        if self.warp_instructions == 0 {
            0.0
        } else {
            self.shared_insts as f64 / self.warp_instructions as f64
        }
    }

    /// Fraction of dynamic instructions touching global memory.
    pub fn global_inst_fraction(&self) -> f64 {
        if self.warp_instructions == 0 {
            0.0
        } else {
            self.global_insts as f64 / self.warp_instructions as f64
        }
    }

    /// Accumulate another launch's statistics (multi-kernel benchmarks).
    pub fn accumulate(&mut self, o: &SimStats) {
        self.cycles += o.cycles;
        self.warp_instructions += o.warp_instructions;
        self.thread_instructions += o.thread_instructions;
        self.shared_insts += o.shared_insts;
        self.global_insts += o.global_insts;
        self.shared_loads += o.shared_loads;
        self.shared_stores += o.shared_stores;
        self.global_loads += o.global_loads;
        self.global_stores += o.global_stores;
        self.atomics += o.atomics;
        self.barriers += o.barriers;
        self.fences += o.fences;
        self.bank_conflict_cycles += o.bank_conflict_cycles;
        self.global_transactions += o.global_transactions;
        self.l1.merge(&o.l1);
        self.l2.merge(&o.l2);
        self.dram.merge(&o.dram);
        self.icnt_flits += o.icnt_flits;
        self.shadow_l2_accesses += o.shadow_l2_accesses;
        self.probe_packets += o.probe_packets;
        self.shared_shadow_l1_accesses += o.shared_shadow_l1_accesses;
        self.shadow_reset_stall_cycles += o.shadow_reset_stall_cycles;
        self.l1_mshr_full_stalls += o.l1_mshr_full_stalls;
        self.mem_faults += o.mem_faults;
        self.detector_skipped_checks += o.detector_skipped_checks;
        self.health.accumulate(&o.health);
    }

    /// Instructions per cycle (warp-level).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }

    /// Field-wise difference vs an earlier snapshot of the same run —
    /// the per-interval delta of the cycle-sampled metrics time series.
    /// Inverse of [`Self::accumulate`]: summing consecutive deltas
    /// reproduces the final aggregate.
    pub fn delta(&self, prev: &SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles.saturating_sub(prev.cycles),
            warp_instructions: self.warp_instructions.saturating_sub(prev.warp_instructions),
            thread_instructions: self
                .thread_instructions
                .saturating_sub(prev.thread_instructions),
            shared_insts: self.shared_insts.saturating_sub(prev.shared_insts),
            global_insts: self.global_insts.saturating_sub(prev.global_insts),
            shared_loads: self.shared_loads.saturating_sub(prev.shared_loads),
            shared_stores: self.shared_stores.saturating_sub(prev.shared_stores),
            global_loads: self.global_loads.saturating_sub(prev.global_loads),
            global_stores: self.global_stores.saturating_sub(prev.global_stores),
            atomics: self.atomics.saturating_sub(prev.atomics),
            barriers: self.barriers.saturating_sub(prev.barriers),
            fences: self.fences.saturating_sub(prev.fences),
            bank_conflict_cycles: self
                .bank_conflict_cycles
                .saturating_sub(prev.bank_conflict_cycles),
            global_transactions: self.global_transactions.saturating_sub(prev.global_transactions),
            l1: self.l1.delta(&prev.l1),
            l2: self.l2.delta(&prev.l2),
            dram: self.dram.delta(&prev.dram),
            icnt_flits: self.icnt_flits.saturating_sub(prev.icnt_flits),
            shadow_l2_accesses: self.shadow_l2_accesses.saturating_sub(prev.shadow_l2_accesses),
            probe_packets: self.probe_packets.saturating_sub(prev.probe_packets),
            shared_shadow_l1_accesses: self
                .shared_shadow_l1_accesses
                .saturating_sub(prev.shared_shadow_l1_accesses),
            shadow_reset_stall_cycles: self
                .shadow_reset_stall_cycles
                .saturating_sub(prev.shadow_reset_stall_cycles),
            l1_mshr_full_stalls: self.l1_mshr_full_stalls.saturating_sub(prev.l1_mshr_full_stalls),
            mem_faults: self.mem_faults.saturating_sub(prev.mem_faults),
            detector_skipped_checks: self
                .detector_skipped_checks
                .saturating_sub(prev.detector_skipped_checks),
            health: self.health.delta(&prev.health),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_rate() {
        let s = CacheStats { accesses: 10, hits: 7, misses: 3, ..Default::default() };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CacheStats { accesses: 1, hits: 1, ..Default::default() };
        a.merge(&CacheStats { accesses: 2, misses: 2, ..Default::default() });
        assert_eq!(a.accesses, 3);
        assert_eq!(a.hits, 1);
        assert_eq!(a.misses, 2);
    }

    #[test]
    fn dram_utilization_is_per_slice_average() {
        let s = SimStats {
            cycles: 100,
            dram: DramStats { bus_busy_cycles: 50, ..Default::default() },
            ..Default::default()
        };
        assert!((s.dram_utilization(2) - 0.25).abs() < 1e-12);
        assert_eq!(SimStats::default().dram_utilization(8), 0.0);
    }

    #[test]
    fn dram_utilization_with_zero_slices_is_zero_not_nan() {
        let s = SimStats {
            cycles: 100,
            dram: DramStats { bus_busy_cycles: 50, ..Default::default() },
            ..Default::default()
        };
        assert_eq!(s.dram_utilization(0), 0.0);
    }

    #[test]
    fn delta_inverts_accumulate() {
        let a = SimStats {
            cycles: 100,
            warp_instructions: 40,
            global_transactions: 7,
            l1: CacheStats { accesses: 10, hits: 6, misses: 4, ..Default::default() },
            dram: DramStats { reads: 3, bus_busy_cycles: 12, ..Default::default() },
            ..Default::default()
        };
        let b = SimStats {
            cycles: 250,
            warp_instructions: 90,
            global_transactions: 11,
            l1: CacheStats { accesses: 25, hits: 20, misses: 5, ..Default::default() },
            dram: DramStats { reads: 9, bus_busy_cycles: 30, ..Default::default() },
            ..Default::default()
        };
        let d = b.delta(&a);
        let mut back = a.clone();
        back.accumulate(&d);
        assert_eq!(back, b);
        assert_eq!(d.cycles, 150);
        assert_eq!(d.l1.hits, 14);
        assert_eq!(d.dram.reads, 6);
    }

    #[test]
    fn instruction_mix_fractions() {
        let s = SimStats {
            warp_instructions: 200,
            shared_insts: 20,
            global_insts: 50,
            ..Default::default()
        };
        assert!((s.shared_inst_fraction() - 0.1).abs() < 1e-12);
        assert!((s.global_inst_fraction() - 0.25).abs() < 1e-12);
    }
}
