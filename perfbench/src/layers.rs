//! Per-layer metrics of the traced run.
//!
//! The `haccrg` RDUs run inside `Gpu::launch`, so their time is taken by
//! difference between hardware variants of the same jobs run in the same
//! repetition: shared RDU = shared-only − off, global RDU = full −
//! shared-only. Every time below is per pass over the workload's jobs,
//! the median over repetitions.

use std::fmt::Write as _;

use gpu_sim::prelude::{GpuConfig, SimStats};

use crate::jobs::{Det, Job};
use crate::stats::median;
use crate::workload::{Pass, Traced, Variant};

/// Names and units of the per-layer metrics in the result line, in
/// `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 19] = [
    ("inputs_ms", "ms"),
    ("gpu_sim.new_ms", "ms"),
    ("gpu_sim.launch_ms", "ms"),
    ("gpu_sim.ns_per_winst", "ns"),
    ("gpu_sim.ns_per_dense_cycle", "ns"),
    ("gpu_sim.skip_frac", "fraction"),
    ("gpu_sim.ipc", "winst/cycle"),
    ("gpu_sim.l1_hit", "fraction"),
    ("gpu_sim.l2_hit", "fraction"),
    ("gpu_sim.dram_util", "fraction"),
    ("haccrg.shared_rdu_ms", "ms"),
    ("haccrg.global_rdu_ms", "ms"),
    ("haccrg.shared_ns_per_access", "ns"),
    ("haccrg.global_ns_per_access", "ns"),
    ("haccrg.detect_share", "fraction"),
    ("haccrg.shadow_l2_accesses", "count"),
    ("haccrg.shadow_pages", "count"),
    ("checks_ms", "ms"),
    ("trace_overhead", "fraction"),
];

/// Workloads with more jobs than this (`gen-kernels`) get no per-job rows.
const MAX_JOB_ROWS: usize = 10;

fn summed_stats(p: &Pass) -> SimStats {
    let mut s = SimStats::default();
    for j in &p.jobs {
        s.accumulate(&j.stats);
    }
    s
}

impl Traced {
    /// Median over repetitions of `f(pass of a) − f(pass of b)`, over all
    /// tasks or over `task` alone.
    fn paired(&self, task: Option<usize>, a: Variant, b: Variant, f: impl Fn(&Job) -> f64) -> f64 {
        let sum = |rep: usize, v: Variant| -> f64 {
            self.jobs
                .iter()
                .filter(|t| t.rep == rep && t.variant == v && task.is_none_or(|i| t.task == i))
                .map(|t| f(&t.job))
                .sum()
        };
        let xs: Vec<f64> = (0..self.reps).map(|r| sum(r, a) - sum(r, b)).collect();
        median(&xs)
    }

    fn ms(&self, v: Variant, f: impl Fn(&Job) -> f64) -> f64 {
        self.median_over_reps(v, |p| p.sum(&f) * 1e3)
    }

    /// The per-layer metrics, in [`LAYER_METRICS`] order.
    pub fn layer_metrics(&self) -> Vec<f64> {
        let own = Variant::Own;
        let (off, shared, full) = (
            Variant::Hw(Det::Off),
            Variant::Hw(Det::Shared),
            Variant::Hw(Det::Full),
        );
        let launch = |j: &Job| j.launch_s;
        let own_stats = summed_stats(&self.pass(0, own));
        let slices = GpuConfig::quadro_fx5800().num_mem_slices;
        let shared_s = self.paired(None, shared, off, launch);
        let global_s = self.paired(None, full, shared, launch);
        let full_stats = summed_stats(&self.pass(0, full));
        let shared_stats = summed_stats(&self.pass(0, shared));
        let detect_share = median(
            &(0..self.reps)
                .map(|r| {
                    let (o, f) = (self.pass(r, off).launch_s(), self.pass(r, full).launch_s());
                    (f - o) / f
                })
                .collect::<Vec<_>>(),
        );
        let traced = self.median_over_reps(own, Pass::winst_per_s);
        let untraced = self.median_over_reps(Variant::Untraced, Pass::winst_per_s);
        vec![
            self.ms(own, Job::inputs_s),
            self.ms(own, |j| j.new_s),
            self.ms(own, launch),
            self.median_over_reps(own, |p| p.launch_s() * 1e9 / p.winsts() as f64),
            self.median_over_reps(own, |p| {
                let dense = p.cycles() - p.sum(|j: &Job| j.skip.cycles_skipped as f64) as u64;
                p.launch_s() * 1e9 / dense as f64
            }),
            self.median_over_reps(own, |p| {
                p.sum(|j: &Job| j.skip.cycles_skipped as f64) / p.cycles() as f64
            }),
            own_stats.ipc(),
            own_stats.l1.hit_rate(),
            own_stats.l2.hit_rate(),
            own_stats.dram_utilization(slices),
            shared_s * 1e3,
            global_s * 1e3,
            shared_s * 1e9 / shared_stats.shared_insts as f64,
            global_s * 1e9 / full_stats.global_insts as f64,
            detect_share,
            full_stats.shadow_l2_accesses as f64,
            full_stats.health.shadow_pages_allocated as f64,
            self.ms(own, |j| j.check_s) + median(&self.oracle_s) * 1e3,
            1.0 - traced / untraced,
        ]
    }

    /// The per-layer table: span self times, the module metrics the
    /// result line leaves out, and per-benchmark (or per-row) splits.
    pub fn table(&self) -> String {
        let own = Variant::Own;
        let (off, shared, full) = (
            Variant::Hw(Det::Off),
            Variant::Hw(Det::Shared),
            Variant::Hw(Det::Full),
        );
        let launch = |j: &Job| j.launch_s;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "span self times ({} repetitions, all variants):",
            self.reps
        );
        let _ = writeln!(
            s,
            "  {:<24} {:>8} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, t) in self.spans.self_times() {
            let _ = writeln!(
                s,
                "  {name:<24} {:>8} {:>12.3} {:>12.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let _ = writeln!(
            s,
            "module metrics (per pass, own configuration, median over repetitions):"
        );
        let rows = [
            ("workloads.prepare_ms", self.ms(own, |j| j.prepare_s)),
            ("workloads.verify_ms", self.ms(own, |j| j.check_s)),
            ("fuzzgen.build_ms", self.ms(own, |j| j.fuzzgen_s)),
            ("gpu_sim.new_ms", self.ms(own, |j| j.new_s)),
            ("gpu_sim.launch_ms", self.ms(own, launch)),
            ("baselines.instrument_ms", self.ms(own, |j| j.instrument_s)),
            ("baselines.oracle_ms", median(&self.oracle_s) * 1e3),
        ];
        for (name, v) in rows {
            let _ = writeln!(s, "  {name:<28} {v:>12.3}");
        }
        let _ = writeln!(
            s,
            "per job (median over repetitions; rdu = difference of hardware variants, paired per repetition):"
        );
        let _ = writeln!(
            s,
            "  {:<24} {:>12} {:>14} {:>16} {:>16}",
            "job", "launch_ms", "ns_per_winst", "shared_rdu_ms", "global_rdu_ms"
        );
        let tasks = self.jobs.iter().map(|t| t.task).max().map_or(0, |m| m + 1);
        if tasks > MAX_JOB_ROWS {
            let _ = writeln!(
                s,
                "  ({tasks} jobs; rows are listed for at most {MAX_JOB_ROWS})"
            );
        }
        for i in (0..tasks).filter(|_| tasks <= MAX_JOB_ROWS) {
            let Some(first) = self.jobs.iter().find(|t| t.task == i && t.variant == own) else {
                continue;
            };
            let launch_ms = self.task_median(i, own, launch).unwrap_or(f64::NAN) * 1e3;
            let ns = self
                .task_median(i, own, |j| {
                    j.launch_s * 1e9 / j.stats.warp_instructions as f64
                })
                .unwrap_or(f64::NAN);
            let has_hw = self.jobs.iter().any(|t| t.task == i && t.variant == off);
            let (sh, gl) = if has_hw {
                (
                    self.paired(Some(i), shared, off, launch) * 1e3,
                    self.paired(Some(i), full, shared, launch) * 1e3,
                )
            } else {
                (f64::NAN, f64::NAN)
            };
            let _ = writeln!(
                s,
                "  {:<24} {launch_ms:>12.3} {ns:>14.1} {sh:>16.3} {gl:>16.3}",
                first.job.label
            );
        }
        let traced = self.median_over_reps(own, Pass::winst_per_s);
        let untraced = self.median_over_reps(Variant::Untraced, Pass::winst_per_s);
        let _ = writeln!(
            s,
            "tracing overhead: winst_per_s untraced {untraced:.1}, traced {traced:.1}, overhead {:+.2}%",
            (1.0 - traced / untraced) * 100.0
        );
        s
    }
}
