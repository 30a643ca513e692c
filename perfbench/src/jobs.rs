//! The jobs the workloads are made of.
//!
//! A job is one Table II benchmark, one software-baseline row, or one
//! generated kernel. Each builds a fresh GPU, so the modelled L1 and L2
//! start empty, as in the paper's GPGPU-Sim runs. Jobs drive the program
//! only through its public functions and time every layer call from the
//! outside, through [`Spans`].

use gpu_sim::detector::DetectorMode;
use gpu_sim::device::HEAP_BASE;
use gpu_sim::fuzzgen::{GenConfig, KernelSpec};
use gpu_sim::prelude::*;
use haccrg::config::DetectorConfig;
use haccrg::prelude::RaceLog;
use haccrg_baselines::grace::{instrument_grace, GraceConfig};
use haccrg_baselines::oracle;
use haccrg_baselines::sw_haccrg::{instrument_sw, SwConfig};
use haccrg_baselines::BaselineKind;
use haccrg_workloads::{BenchInstance, Benchmark, LaunchSpec, Scale};

use crate::spans::Spans;

/// Table II benchmarks with real races (§VI-A): SCAN's and KMEANS's
/// multi-block races and OFFT's address-calculation WAR bug. Under full
/// detection these must report races and the other seven must not.
const RACY: [&str; 3] = ["SCAN", "KMEANS", "OFFT"];

/// Hardware detector configuration of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Det {
    /// No detector: the unmodified GPU.
    Off,
    /// The shared-memory RDUs only.
    Shared,
    /// Shared and global RDUs, the paper's default configuration.
    Full,
}

impl Det {
    /// All three, in the order the traced run rotates through.
    pub const ALL: [Det; 3] = [Det::Off, Det::Shared, Det::Full];

    /// Short label used in spans and tables.
    pub fn label(self) -> &'static str {
        match self {
            Det::Off => "off",
            Det::Shared => "shared",
            Det::Full => "full",
        }
    }

    fn setup(self) -> Option<DetectorSetup> {
        let cfg = match self {
            Det::Off => return None,
            Det::Shared => DetectorConfig::shared_only(),
            Det::Full => DetectorConfig::paper_default(),
        };
        Some(DetectorSetup {
            cfg,
            mode: DetectorMode::Hardware,
        })
    }
}

/// What the detector must report for a job to pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// No race may be reported.
    NoRace,
    /// At least one race must be reported.
    Race,
    /// Either outcome is correct.
    Either,
}

impl Expect {
    fn check(self, races: usize) -> Result<(), String> {
        match (self, races) {
            (Expect::NoRace, n) if n > 0 => Err(format!("{n} races reported, expected none")),
            (Expect::Race, 0) => Err("no race reported, expected at least one".into()),
            _ => Ok(()),
        }
    }

    /// The Table II expectation for `bench` under `det`.
    pub fn table2(bench: &str, det: Det) -> Expect {
        match det {
            Det::Off => Expect::NoRace,
            // Shared-only detection sees only part of the documented races.
            Det::Shared => Expect::Either,
            Det::Full if RACY.contains(&bench) => Expect::Race,
            Det::Full => Expect::NoRace,
        }
    }
}

/// One finished job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Benchmark, row or kernel seed.
    pub label: String,
    /// Host seconds in `Gpu::new` + `set_detector`.
    pub new_s: f64,
    /// Host seconds in `Benchmark::prepare`.
    pub prepare_s: f64,
    /// Host seconds in `instrument_sw`/`instrument_grace` and the
    /// allocation of their device structures.
    pub instrument_s: f64,
    /// Host seconds in `KernelSpec::generate`/`build`/`alloc_params`.
    pub fuzzgen_s: f64,
    /// Host seconds in `Gpu::launch`.
    pub launch_s: f64,
    /// Host seconds checking outputs (`verify` closure), outside the
    /// job's latency.
    pub check_s: f64,
    /// Statistics summed over the job's launches.
    pub stats: SimStats,
    /// Cycle-skip accounting summed over the job's launches.
    pub skip: SkipStats,
    /// Why the job failed: a launch error, a failed `verify`, or a wrong
    /// race verdict.
    pub error: Option<String>,
}

impl Job {
    fn new(label: String) -> Self {
        Job {
            label,
            new_s: 0.0,
            prepare_s: 0.0,
            instrument_s: 0.0,
            fuzzgen_s: 0.0,
            launch_s: 0.0,
            check_s: 0.0,
            stats: SimStats::default(),
            skip: SkipStats::default(),
            error: None,
        }
    }

    /// Host seconds in set-up calls.
    pub fn setup_s(&self) -> f64 {
        self.new_s + self.inputs_s()
    }

    /// Host seconds building inputs and kernels: the set-up calls outside
    /// `gpu_sim`.
    pub fn inputs_s(&self) -> f64 {
        self.prepare_s + self.instrument_s + self.fuzzgen_s
    }

    fn new_gpu(&mut self, sp: &mut Spans, job: u64, det: Det) -> Gpu {
        let o = sp.begin("gpu_sim.new", det.label(), job);
        let mut gpu = Gpu::new(GpuConfig::quadro_fx5800());
        gpu.set_detector(det.setup());
        self.new_s = sp.end(o);
        gpu
    }

    /// Runs `launches` in order and returns the merged race log, or the
    /// first launch error.
    fn launch_all(
        &mut self,
        sp: &mut Spans,
        job: u64,
        detail: &str,
        gpu: &mut Gpu,
        launches: &[LaunchSpec],
    ) -> Result<RaceLog, String> {
        let mut races = RaceLog::default();
        for l in launches {
            let o = sp.begin("gpu_sim.launch", detail, job);
            let r = gpu.launch(&l.kernel, l.grid, l.block, &l.params);
            self.launch_s += sp.end(o);
            let r = r.map_err(|e| format!("launch of {}: {e}", l.kernel.name))?;
            self.stats.accumulate(&r.stats);
            self.skip.accumulate(&r.skip);
            races.absorb(&r.races);
        }
        Ok(races)
    }

    /// Runs a prepared instance's launches and its `verify` closure, then
    /// checks the race verdict against `expect`.
    fn run_instance(
        &mut self,
        sp: &mut Spans,
        job: u64,
        detail: &str,
        gpu: &mut Gpu,
        inst: &BenchInstance,
        expect: Expect,
    ) {
        self.error = self
            .launch_all(sp, job, detail, gpu, &inst.launches)
            .and_then(|races| {
                let o = sp.begin("workloads.verify", inst.name, job);
                let verified = (inst.verify)(&gpu.mem);
                self.check_s += sp.end(o);
                verified.map_err(|e| format!("verify: {e}"))?;
                expect.check(races.distinct())
            })
            .err();
    }
}

/// A Table II benchmark at `scale` under `det`.
pub fn table2(sp: &mut Spans, job: u64, bench: &dyn Benchmark, scale: Scale, det: Det) -> Job {
    let root = sp.begin("job", bench.name(), job);
    let mut j = Job::new(bench.name().to_string());
    let mut gpu = j.new_gpu(sp, job, det);
    let o = sp.begin("workloads.prepare", bench.name(), job);
    let inst = bench.prepare(&mut gpu, scale);
    j.prepare_s = sp.end(o);
    let expect = Expect::table2(bench.name(), det);
    j.run_instance(sp, job, det.label(), &mut gpu, &inst, expect);
    sp.end(root);
    j
}

/// Display name of a software-baseline row, as in Fig. 7.
fn row_label(bench: &str, kind: BaselineKind) -> String {
    format!("{bench} ({})", kind.label())
}

/// A Fig. 7 software row: `bench` at `scale` instrumented for `kind`,
/// detection hardware off. The steps are those of
/// `haccrg_baselines::run_baseline`, taken one by one so the
/// instrumentation pass is timed apart from `prepare`.
pub fn software(
    sp: &mut Spans,
    job: u64,
    bench: &dyn Benchmark,
    kind: BaselineKind,
    scale: Scale,
) -> Job {
    let label = row_label(bench.name(), kind);
    let root = sp.begin("job", &label, job);
    let mut j = Job::new(label);
    let mut gpu = j.new_gpu(sp, job, Det::Off);
    let o = sp.begin("workloads.prepare", bench.name(), job);
    let mut inst = bench.prepare(&mut gpu, scale);
    j.prepare_s = sp.end(o);

    let o = sp.begin("baselines.instrument", kind.label(), job);
    let tracked = gpu.mem.alloc_ptr() - HEAP_BASE;
    match kind {
        BaselineKind::SwHaccrg => {
            let max_shared = inst
                .launches
                .iter()
                .map(|l| l.kernel.shared_bytes)
                .max()
                .unwrap_or(0);
            let max_grid = inst.launches.iter().map(|l| l.grid).max().unwrap_or(1);
            let mut cfg = SwConfig {
                shadow_base: 0,
                heap_base: HEAP_BASE,
                gran_shift: 2,
                cover_shared: true,
                shared_shadow_base: 0,
                shared_chunks_per_block: (max_shared >> 2).max(1),
            };
            cfg.shadow_base = gpu.alloc(cfg.shadow_bytes(tracked));
            cfg.shared_shadow_base = gpu.alloc(cfg.shared_shadow_bytes(max_grid));
            for l in &mut inst.launches {
                l.kernel = instrument_sw(&l.kernel, cfg);
            }
        }
        BaselineKind::GraceAdd => {
            let warp = gpu.cfg.warp_size;
            let max_warps = inst
                .launches
                .iter()
                .map(|l| l.grid * l.block.div_ceil(warp))
                .max()
                .unwrap_or(1);
            let warps_per_block = inst
                .launches
                .iter()
                .map(|l| l.block.div_ceil(warp))
                .max()
                .unwrap_or(1);
            let log_cap = 256;
            let cursors_base = gpu.alloc(max_warps * 4);
            let logs_base = gpu.alloc(max_warps * log_cap * 4);
            let cfg = GraceConfig {
                cursors_base,
                logs_base,
                log_cap,
                warps_per_block,
                warp_size: warp,
            };
            for l in &mut inst.launches {
                l.kernel = instrument_grace(&l.kernel, cfg);
            }
        }
    }
    j.instrument_s = sp.end(o);

    j.run_instance(sp, job, kind.label(), &mut gpu, &inst, Expect::NoRace);
    sp.end(root);
    j
}

/// The oracle's verdict on the kernel generated from `seed`: a robust
/// race must be reported, a race-free kernel must report none, and a
/// kernel whose only races are fragile may go either way.
/// Also returns the host seconds `oracle::analyze` took.
pub fn oracle_verdict(sp: &mut Spans, job: u64, seed: u64) -> (Expect, f64) {
    let spec = KernelSpec::generate(seed, &GenConfig::default());
    let o = sp.begin("baselines.oracle", "", job);
    let truth = oracle::analyze(&spec);
    let secs = sp.end(o);
    let expect = if !truth.global.is_empty() || !truth.shared.is_empty() {
        Expect::Race
    } else if truth.race_free() {
        Expect::NoRace
    } else {
        Expect::Either
    };
    (expect, secs)
}

/// The kernel generated from `seed`, on a fresh GPU under `det`.
pub fn generated(sp: &mut Spans, job: u64, seed: u64, det: Det, expect: Expect) -> Job {
    let label = format!("seed {seed:#018x}");
    let root = sp.begin("job", &label, job);
    let mut j = Job::new(label);
    let o = sp.begin("fuzzgen.generate", "", job);
    let spec = KernelSpec::generate(seed, &GenConfig::default());
    j.fuzzgen_s += sp.end(o);
    let o = sp.begin("fuzzgen.build", "", job);
    let kernel = spec.build();
    j.fuzzgen_s += sp.end(o);
    let mut gpu = j.new_gpu(sp, job, det);
    let o = sp.begin("fuzzgen.alloc_params", "", job);
    let params = spec.alloc_params(&mut gpu);
    j.fuzzgen_s += sp.end(o);
    let launch = LaunchSpec {
        kernel,
        grid: spec.grid,
        block: spec.block_dim,
        params,
    };
    j.error = j
        .launch_all(
            sp,
            job,
            det.label(),
            &mut gpu,
            std::slice::from_ref(&launch),
        )
        .and_then(|races| expect.check(races.distinct()))
        .err();
    sp.end(root);
    j
}
