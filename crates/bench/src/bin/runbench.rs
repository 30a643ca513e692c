//! Run one Table II benchmark under a chosen detector configuration and
//! print its statistics and race report.
//!
//! ```console
//! $ cargo run --release -p haccrg-bench --bin runbench -- \
//!       --bench SCAN --detector full --scale tiny
//! ```
//!
//! Options:
//! * `--bench NAME`       — Table II name (required; see `--list`)
//! * `--detector MODE`    — `off` | `shared` | `full` (default `full`)
//! * `--scale SCALE`      — `paper` | `repro` | `tiny` (default `repro`)
//! * `--multi-block`      — use the racy multi-block variants of SCAN/KMEANS
//!                           and the buggy OFFT (the default); `--clean`
//!                           selects the fixed variants
//! * `--trace-out FILE`   — record structured events and write Chrome
//!                           `trace-event` JSON (open at <https://ui.perfetto.dev>)
//! * `--sample-every N`   — cut a metrics delta sample every N cycles
//! * `--metrics-out FILE` — write the sampled metrics time series as JSON
//!                           (requires `--sample-every`)
//! * `--parallel-sms`     — cycle SMs on worker threads (same stats,
//!                           cycle counts, and races as serial execution;
//!                           see DESIGN.md on the determinism contract)
//! * `--no-cycle-skip`    — run the dense cycle loop instead of
//!                           event-driven fast-forwarding (bit-identical
//!                           results either way; see DESIGN.md,
//!                           "Event-driven cycle skipping")
//! * `--jobs N`           — sweep worker count for multi-run harnesses
//!                           (accepted here for a uniform CLI)
//! * `--profile`          — enable the host-side phase profiler and print
//!                           the attributed wall-time tree after the run
//! * `--profile-out FILE` — also write the profile report as JSON
//!                           (implies `--profile`)
//! * `--manifest-out FILE`— write a structured run manifest (workload /
//!                           config hashes, toolchain, stats digest)
//! * `--races-out FILE`   — write deduplicated race groups as JSON
//! * `--list`             — list benchmarks and exit

use std::fs::File;
use std::io::BufWriter;
use std::time::Instant;

use gpu_sim::prelude::*;
use gpu_sim::trace::metrics_json;
use gpu_sim::trace::perfetto::{write_chrome_trace, write_chrome_trace_with_counters};
use gpu_sim::{log_error, log_info, log_warn};
use haccrg::config::DetectorConfig;
use haccrg_workloads::kmeans::KMeans;
use haccrg_workloads::offt::OffT;
use haccrg_workloads::runner::{run_instance, RunConfig};
use haccrg_workloads::scan::Scan;
use haccrg_workloads::{all_benchmarks, benchmark_by_name, Benchmark};

/// Capacity of the event ring buffer behind `--trace-out` (events beyond
/// this keep the newest; the exporter records how many were dropped).
const TRACE_CAPACITY: usize = 1 << 20;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();

    if args.iter().any(|a| a == "--list") {
        for b in all_benchmarks() {
            println!("{:8} {}", b.name(), b.paper_inputs());
        }
        return;
    }

    let Some(name) = get("--bench") else {
        log_error!(
            "usage: runbench --bench NAME [--detector off|shared|full] \
             [--scale paper|repro|tiny] [--clean] [--trace-out FILE] \
             [--sample-every N] [--metrics-out FILE] [--parallel-sms] \
             [--no-cycle-skip] [--jobs N] [--list]"
        );
        std::process::exit(2);
    };
    let t0 = Instant::now();
    let scale = haccrg_bench::scale_from_args();
    let jobs = haccrg_bench::jobs_from_args();
    let cycle_skip = haccrg_bench::cycle_skip_from_args();
    let manifest_out = haccrg_bench::manifest_out_from_args();
    let clean = args.iter().any(|a| a == "--clean");
    let parallel_sms = args.iter().any(|a| a == "--parallel-sms");
    let trace_out = get("--trace-out");
    let metrics_out = get("--metrics-out");
    let races_out = get("--races-out");
    let profile_out = get("--profile-out");
    let profile = args.iter().any(|a| a == "--profile") || profile_out.is_some();
    if profile {
        gpu_sim::prof::reset();
        gpu_sim::prof::set_enabled(true);
    }
    let sample_every: u64 = match get("--sample-every") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            log_error!("--sample-every: {v:?} is not a cycle count");
            std::process::exit(2);
        }),
        None => 0,
    };
    if metrics_out.is_some() && sample_every == 0 {
        log_error!("--metrics-out needs --sample-every N");
        std::process::exit(2);
    }

    let bench: Box<dyn Benchmark> = match (name.to_uppercase().as_str(), clean) {
        ("SCAN", true) => Box::new(Scan::single_block()),
        ("KMEANS", true) => Box::new(KMeans::single_block()),
        ("OFFT", true) => Box::new(OffT::fixed()),
        _ => match benchmark_by_name(&name) {
            Some(b) => b,
            None => {
                log_error!("unknown benchmark {name:?}; try --list");
                std::process::exit(2);
            }
        },
    };

    let mut cfg = match get("--detector").as_deref() {
        Some("off") => RunConfig::base(scale),
        Some("shared") => RunConfig::with_detector(scale, DetectorConfig::shared_only()),
        _ => RunConfig::detecting(scale),
    };
    cfg.gpu.parallel_sms = parallel_sms;

    // Assemble the GPU by hand (rather than `runner::run`) so the tracer
    // can be configured between detector installation and kernel prep.
    let mut gpu = Gpu::new(cfg.gpu);
    gpu.set_detector(cfg.detector);
    let recorder = trace_out.as_ref().map(|_| {
        let rec = RingRecorder::shared(TRACE_CAPACITY);
        gpu.tracer.install(Box::new(rec.clone()));
        rec
    });
    if sample_every > 0 {
        gpu.tracer.set_sample_every(sample_every);
    }
    let inst = bench.prepare(&mut gpu, cfg.scale);

    let out = run_instance(&mut gpu, &inst).unwrap_or_else(|e| {
        log_error!("simulation failed: {e}");
        std::process::exit(1);
    });

    if let (Some(path), Some(rec)) = (&trace_out, &recorder) {
        let rec = rec.borrow();
        if rec.dropped() > 0 {
            log_warn!(
                "event ring overflowed: kept the newest {} of {} events",
                rec.len(),
                rec.total()
            );
        }
        // With sampling on, fold the metrics series in as counter tracks.
        let write = |w: BufWriter<File>| {
            if sample_every > 0 {
                write_chrome_trace_with_counters(
                    w,
                    &rec.events(),
                    rec.dropped(),
                    gpu.tracer.samples(),
                )
            } else {
                write_chrome_trace(w, &rec.events(), rec.dropped())
            }
        };
        match File::create(path) {
            Ok(f) => match write(BufWriter::new(f)) {
                Ok(()) => log_info!("wrote {} trace events to {path}", rec.len()),
                Err(e) => {
                    log_error!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                log_error!("cannot create {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics_out {
        let text = metrics_json(gpu.tracer.samples());
        if let Err(e) = std::fs::write(path, text) {
            log_error!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        log_info!("wrote {} metric samples to {path}", gpu.tracer.samples().len());
    }

    println!("benchmark : {}", bench.name());
    println!("launches  : {}", out.launches);
    println!("verify    : {}", match &out.verified { Ok(()) => "ok".into(), Err(e) => format!("FAIL — {e}") });
    let s = &out.stats;
    println!("cycles    : {}", s.cycles);
    println!("warp inst : {}  (IPC {:.3})", s.warp_instructions, s.ipc());
    println!(
        "mix       : {:.1}% shared, {:.1}% global",
        s.shared_inst_fraction() * 100.0,
        s.global_inst_fraction() * 100.0
    );
    println!(
        "caches    : L1 {:.1}% hit, L2 {:.1}% hit",
        s.l1.hit_rate() * 100.0,
        s.l2.hit_rate() * 100.0
    );
    println!("DRAM util : {:.2}%", s.dram_utilization(8) * 100.0);
    println!(
        "detector  : {} shadow L2 accesses, {} probes, {} reset-stall cycles",
        s.shadow_l2_accesses, s.probe_packets, s.shadow_reset_stall_cycles
    );
    let h = &s.health;
    println!(
        "health    : bloom {} aliased / {} suppressed, {} id-collisions, {} shadow pages",
        h.bloom_insert_aliased, h.bloom_suppressed_conflicts, h.id_truncation_collisions,
        h.shadow_pages_allocated
    );
    if s.detector_skipped_checks > 0 || h.log_dropped > 0 {
        println!(
            "LOSS      : {} checks skipped, {} race records dropped — detection is incomplete",
            s.detector_skipped_checks, h.log_dropped
        );
        log_warn!(
            "detector lost coverage: {} skipped checks, {} dropped race records",
            s.detector_skipped_checks,
            h.log_dropped
        );
    }
    println!(
        "fast-fwd  : {} cycles skipped in {} jumps, {} SM-idle cycles",
        out.skip.cycles_skipped,
        out.skip.skip_jumps,
        out.skip.total_idle_cycles()
    );
    // Which shadow-check tier retired the lanes; like `fast-fwd`, the one
    // line that differs between a default and a forced-scalar run.
    println!("tiers     : shared {} | global {}", out.tiers.shared, out.tiers.global);
    println!("max IDs   : sync {}, fence {}", out.max_sync_id, out.max_fence_id);
    println!("shadow mem: {} bytes packed over {} tracked", out.shadow_packed_bytes, out.tracked_bytes);
    println!("races     : {} distinct ({} dynamic)", out.races.distinct(), out.races.total());
    for r in out.races.records().iter().take(20) {
        println!("  {r}");
    }
    if out.races.distinct() > 20 {
        println!("  … and {} more", out.races.distinct() - 20);
    }
    // Race analytics: fold the per-address records into static groups —
    // one line per racing instruction pair, however many addresses hit.
    let groups = out.races.groups();
    if !groups.is_empty() {
        println!("groups    : {} static racing pair(s)", groups.len());
        for g in &groups {
            println!("  {g}");
        }
    }
    if let Some(path) = &races_out {
        let doc = haccrg_bench::report::races_json(
            &groups,
            out.races.distinct(),
            out.races.total(),
            s.health.log_dropped,
            s.detector_skipped_checks,
        );
        if let Err(e) = std::fs::write(path, doc) {
            log_error!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        log_info!("wrote {} race groups to {path}", groups.len());
    }

    if profile {
        let rep = gpu_sim::prof::report();
        println!();
        print!("{}", rep.render());
        if let Some(path) = &profile_out {
            if let Err(e) = std::fs::write(path, rep.to_json()) {
                log_error!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            log_info!("wrote profile to {path}");
        }
    }

    if let Some(path) = manifest_out {
        let mut m = haccrg_bench::RunManifest::new("runbench");
        m.scale = haccrg_bench::scale_name(scale).into();
        m.jobs = jobs;
        m.sm_workers = gpu.cfg.sm_workers;
        m.cycle_skip = cycle_skip;
        m.workloads.push(haccrg_bench::WorkloadRef::of(&inst));
        m.config_hash = haccrg_bench::manifest::config_hash(&gpu.cfg);
        m.stats_digest = haccrg_bench::manifest::stats_digest(&out.stats, &out.races);
        m.wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
        for p in [&trace_out, &metrics_out, &races_out, &profile_out].into_iter().flatten() {
            m.artifacts.push(p.clone());
        }
        m.write(&path);
    }
}
