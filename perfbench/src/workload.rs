//! The four workloads, the timed run, and the traced run.
//!
//! Load model: closed loop, one process, one simulation thread. Jobs run
//! one after another, each on a fresh GPU with `parallel_sms` off and
//! cycle skipping on (the `GpuConfig::quadro_fx5800` defaults).

use std::time::{Duration, Instant};

use haccrg_baselines::BaselineKind;
use haccrg_workloads::{all_benchmarks, Benchmark, Scale};

use crate::jobs::{self, Det, Expect, Job};
use crate::probe::{self, Probe};
use crate::spans::Spans;
use crate::stats::{geomean, median};

/// Generated kernels per `gen-kernels` pass. Enough that the sum over a
/// pass varies little from seed to seed, and that ≥10 samples lie beyond
/// p90 in every pass.
pub const GEN_KERNELS: usize = 1000;

/// Fewest repetitions of a traced run.
const MIN_REPS: usize = 3;

/// The benchmarks of the paper's Fig. 7 software rows.
const SOFTWARE_BENCHES: [&str; 3] = ["SCAN", "HIST", "KMEANS"];

/// The software baselines of Fig. 7, in the paper's row order.
const SOFTWARE_KINDS: [BaselineKind; 2] = [BaselineKind::SwHaccrg, BaselineKind::GraceAdd];

/// A workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The ten Table II benchmarks at `repro` scale, full detection.
    Table2Full,
    /// The ten Table II benchmarks at `repro` scale, detection off.
    Table2Off,
    /// Fig. 7's HAccRG-SW and GRace-add rows at `tiny` scale.
    Fig7Software,
    /// Seeded generated kernels, full detection.
    GenKernels,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2Full,
        Workload::Table2Off,
        Workload::Fig7Software,
        Workload::GenKernels,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Full => "table2-full",
            Workload::Table2Off => "table2-off",
            Workload::Fig7Software => "fig7-software",
            Workload::GenKernels => "gen-kernels",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paper's value of `sim_overhead` on this workload, if it has one.
    pub fn paper_overhead(self) -> Option<f64> {
        match self {
            // §VI-B: shared+global detection costs ≈27% (geomean).
            Workload::Table2Full => Some(1.27),
            // §VI-B: HAccRG-SW runs 6.6×, 12.4× and 18.1× slower.
            Workload::Fig7Software => Some(geomean(&[6.6, 12.4, 18.1])),
            Workload::Table2Off | Workload::GenKernels => None,
        }
    }
}

/// One job to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// A Table II benchmark (index into the suite).
    Table2 {
        bench: usize,
        scale: Scale,
        det: Det,
    },
    /// A software-baseline row (benchmark index into the suite).
    Software { bench: usize, kind: BaselineKind },
    /// The kernel generated from `seed` (index `idx` in the pass).
    Gen { idx: usize, seed: u64, det: Det },
}

impl Task {
    /// The detection-off run this task's slowdown is measured against;
    /// `None` when the task is its own reference (detection already off).
    fn reference(self) -> Option<Task> {
        match self {
            Task::Table2 { det: Det::Off, .. } => None,
            Task::Table2 { bench, scale, .. } => Some(Task::Table2 {
                bench,
                scale,
                det: Det::Off,
            }),
            Task::Software { bench, .. } => Some(Task::Table2 {
                bench,
                scale: Scale::Tiny,
                det: Det::Off,
            }),
            Task::Gen { idx, seed, .. } => Some(Task::Gen {
                idx,
                seed,
                det: Det::Off,
            }),
        }
    }

    /// Whether this task's slowdown enters `sim_overhead` (the paper's
    /// software comparison is the HAccRG-SW rows).
    fn in_overhead(self) -> bool {
        !matches!(
            self,
            Task::Software {
                kind: BaselineKind::GraceAdd,
                ..
            }
        )
    }

    /// The hardware-detector variants of this task the traced run also
    /// runs (off, shared-only, full). A software row brings its
    /// benchmark's hardware runs at the same scale, once per benchmark.
    fn hw_variants(self) -> Vec<Task> {
        match self {
            Task::Table2 { bench, scale, .. } => Det::ALL
                .map(|det| Task::Table2 { bench, scale, det })
                .to_vec(),
            Task::Gen { idx, seed, .. } => {
                Det::ALL.map(|det| Task::Gen { idx, seed, det }).to_vec()
            }
            Task::Software {
                bench,
                kind: BaselineKind::SwHaccrg,
            } => Det::ALL
                .map(|det| Task::Table2 {
                    bench,
                    scale: Scale::Tiny,
                    det,
                })
                .to_vec(),
            Task::Software {
                kind: BaselineKind::GraceAdd,
                ..
            } => Vec::new(),
        }
    }

    /// Job id shared by every span of one benchmark, row or kernel.
    fn job_id(self) -> u64 {
        match self {
            Task::Table2 { bench, .. } => bench as u64,
            Task::Software { bench, kind } => 100 + 2 * bench as u64 + kind as u64,
            Task::Gen { idx, .. } => 1000 + idx as u64,
        }
    }

    /// The hardware detector configuration, if the task has one.
    fn det(self) -> Option<Det> {
        match self {
            Task::Table2 { det, .. } | Task::Gen { det, .. } => Some(det),
            Task::Software { .. } => None,
        }
    }
}

/// `splitmix64`: the `gen-kernels` seeds are a stream of it.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `KernelSpec::generate` seeds of a `gen-kernels` pass for `seed`.
pub fn gen_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n).map(|_| splitmix64(&mut state)).collect()
}

/// The Table II suite plus the oracle verdicts of the generated kernels.
pub struct Suite {
    benches: Vec<Box<dyn Benchmark>>,
    verdicts: Vec<Expect>,
}

impl Suite {
    /// The Table II suite; no generated kernels judged yet.
    pub fn new() -> Self {
        Suite {
            benches: all_benchmarks(),
            verdicts: Vec::new(),
        }
    }

    fn index(&self, name: &str) -> usize {
        self.benches
            .iter()
            .position(|b| b.name() == name)
            .expect("a Table II benchmark")
    }

    /// The workload's jobs of one pass, each under the workload's own
    /// configuration.
    pub fn plan(&self, w: Workload, seed: u64, gen_kernels: usize) -> Vec<Task> {
        let table2 = |det| {
            (0..self.benches.len()).map(move |bench| Task::Table2 {
                bench,
                scale: Scale::Repro,
                det,
            })
        };
        match w {
            Workload::Table2Full => table2(Det::Full).collect(),
            Workload::Table2Off => table2(Det::Off).collect(),
            Workload::Fig7Software => SOFTWARE_BENCHES
                .iter()
                .flat_map(|name| {
                    let bench = self.index(name);
                    SOFTWARE_KINDS.map(|kind| Task::Software { bench, kind })
                })
                .collect(),
            Workload::GenKernels => gen_seeds(seed, gen_kernels)
                .into_iter()
                .enumerate()
                .map(|(idx, seed)| Task::Gen {
                    idx,
                    seed,
                    det: Det::Full,
                })
                .collect(),
        }
    }

    /// Asks the oracle for the verdict on every generated kernel of
    /// `plan`; returns the host seconds it took.
    pub fn judge(&mut self, sp: &mut Spans, plan: &[Task]) -> f64 {
        self.verdicts.clear();
        let mut secs = 0.0;
        for t in plan {
            if let Task::Gen { seed, .. } = *t {
                let (expect, s) = jobs::oracle_verdict(sp, t.job_id(), seed);
                self.verdicts.push(expect);
                secs += s;
            }
        }
        secs
    }

    /// Runs one task.
    pub fn run(&self, sp: &mut Spans, t: Task) -> Job {
        match t {
            Task::Table2 { bench, scale, det } => {
                jobs::table2(sp, t.job_id(), self.benches[bench].as_ref(), scale, det)
            }
            Task::Software { bench, kind } => jobs::software(
                sp,
                t.job_id(),
                self.benches[bench].as_ref(),
                kind,
                Scale::Tiny,
            ),
            Task::Gen { idx, seed, det } => {
                let expect = match det {
                    Det::Off => Expect::NoRace,
                    Det::Shared => Expect::Either,
                    Det::Full => *self
                        .verdicts
                        .get(idx)
                        .expect("Suite::judge ran on this plan"),
                };
                jobs::generated(sp, t.job_id(), seed, det, expect)
            }
        }
    }
}

/// The jobs of one traced repetition under one variant.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// The jobs, in run order.
    pub jobs: Vec<Job>,
}

impl Pass {
    /// Sum of `f` over the jobs.
    pub fn sum(&self, f: impl Fn(&Job) -> f64) -> f64 {
        self.jobs.iter().map(f).sum()
    }

    /// Host seconds in `Gpu::launch`.
    pub fn launch_s(&self) -> f64 {
        self.sum(|j| j.launch_s)
    }

    /// Simulated warp instructions.
    pub fn winsts(&self) -> u64 {
        self.jobs.iter().map(|j| j.stats.warp_instructions).sum()
    }

    /// Simulated warp instructions per host second of `Gpu::launch`.
    pub fn winst_per_s(&self) -> f64 {
        self.winsts() as f64 / self.launch_s()
    }

    /// Simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.stats.cycles).sum()
    }
}

/// Host times of one job in one pass.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Host seconds in set-up calls.
    pub setup_s: f64,
    /// Host seconds in `Gpu::launch`.
    pub launch_s: f64,
}

impl Timing {
    fn of(j: &Job) -> Self {
        Timing {
            setup_s: j.setup_s(),
            launch_s: j.launch_s,
        }
    }

    /// Host milliseconds a user waits for the job: set-up plus launch.
    pub fn latency_ms(&self) -> f64 {
        (self.setup_s + self.launch_s) * 1e3
    }
}

/// Everything the untraced run measured. Only the first pass keeps its
/// jobs' statistics, so the run's own memory does not grow with the
/// number of passes and `peak_rss_mb` stays the simulator's.
#[derive(Clone, Debug)]
pub struct Timed {
    /// The jobs of the first pass.
    pub first: Vec<Job>,
    /// Per pass, the timings of its jobs; every pass runs the same jobs.
    pub passes: Vec<Vec<Timing>>,
    /// The untimed detection-off reference jobs, paired with the jobs of
    /// a pass (`None` where a job is its own reference).
    pub reference: Vec<Option<Job>>,
    /// Whether each job of a pass enters `sim_overhead`.
    pub in_overhead: Vec<bool>,
    /// Jobs run, reference jobs included.
    pub attempted: usize,
    /// Why jobs failed.
    pub failures: Vec<String>,
    /// Per pass, the median host seconds of the probe samples taken
    /// between its jobs.
    pub probe_s: Vec<f64>,
}

impl Timed {
    /// A run whose reference jobs are `reference`.
    pub fn new(reference: Vec<Option<Job>>, in_overhead: Vec<bool>) -> Self {
        let mut t = Timed {
            first: Vec::new(),
            passes: Vec::new(),
            reference: Vec::new(),
            in_overhead,
            attempted: 0,
            failures: Vec::new(),
            probe_s: Vec::new(),
        };
        reference.iter().flatten().for_each(|j| t.count(j));
        t.reference = reference;
        t
    }

    fn count(&mut self, j: &Job) {
        self.attempted += 1;
        if let Some(e) = &j.error {
            self.failures.push(format!("{}: {e}", j.label));
        }
    }

    /// Adds a pass and the probe samples taken during it. A job whose
    /// simulated cycles differ from the first pass's fails: the simulator
    /// is deterministic.
    pub fn record(&mut self, jobs: Vec<Job>, probe_s: &[f64]) {
        self.probe_s.push(if probe_s.is_empty() {
            probe::NOMINAL_S
        } else {
            median(probe_s)
        });
        for (i, j) in jobs.iter().enumerate() {
            self.count(j);
            if let Some(first) = self.first.get(i) {
                if first.stats.cycles != j.stats.cycles {
                    self.failures.push(format!(
                        "{}: {} simulated cycles, {} in the first pass",
                        j.label, j.stats.cycles, first.stats.cycles
                    ));
                }
            }
        }
        self.passes.push(jobs.iter().map(Timing::of).collect());
        if self.first.is_empty() {
            self.first = jobs;
        }
    }

    /// Per job of a pass, the median over the passes of `f`, a host time,
    /// each rescaled to the probe's nominal host speed (see
    /// [`crate::probe`]).
    pub fn job_medians(&self, f: impl Fn(&Timing) -> f64) -> Vec<f64> {
        (0..self.first.len())
            .map(|i| {
                let xs: Vec<f64> = self
                    .passes
                    .iter()
                    .zip(&self.probe_s)
                    .map(|(p, s)| f(&p[i]) * probe::NOMINAL_S / s)
                    .collect();
                median(&xs)
            })
            .collect()
    }

    /// Simulated warp instructions per pass.
    pub fn winsts(&self) -> u64 {
        self.first.iter().map(|j| j.stats.warp_instructions).sum()
    }

    /// Simulated cycles per pass.
    pub fn cycles(&self) -> u64 {
        self.first.iter().map(|j| j.stats.cycles).sum()
    }

    /// Simulated slowdown of each job of a pass against its reference;
    /// 1 for a job that is its own reference.
    fn ratios(&self) -> impl Iterator<Item = f64> + '_ {
        self.first.iter().zip(&self.reference).map(|(j, r)| {
            r.as_ref()
                .map_or(1.0, |r| j.stats.cycles as f64 / r.stats.cycles as f64)
        })
    }

    /// Geomean slowdown of the jobs that enter `sim_overhead`.
    pub fn sim_overhead(&self) -> f64 {
        let xs: Vec<f64> = self
            .ratios()
            .zip(&self.in_overhead)
            .filter(|(_, &keep)| keep)
            .map(|(x, _)| x)
            .collect();
        geomean(&xs)
    }

    /// The slowdown of each job that has a reference, for the report.
    pub fn slowdowns(&self) -> Vec<(String, f64)> {
        self.first
            .iter()
            .zip(self.ratios())
            .zip(&self.reference)
            .filter(|(_, r)| r.is_some())
            .map(|((j, x), _)| (j.label.clone(), x))
            .collect()
    }
}

/// The untraced run: untimed references first, then passes over `plan`
/// until `seconds` have gone by (at least one), sampling the host-speed
/// probe between jobs.
pub fn run_timed(suite: &mut Suite, plan: &[Task], seconds: f64) -> Timed {
    let mut sp = Spans::new(false);
    suite.judge(&mut sp, plan);
    let reference = plan
        .iter()
        .map(|t| t.reference().map(|r| suite.run(&mut sp, r)))
        .collect();
    let mut timed = Timed::new(reference, plan.iter().map(|t| t.in_overhead()).collect());
    let mut probe = Probe::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while timed.passes.is_empty() || Instant::now() < deadline {
        let jobs = plan
            .iter()
            .map(|&t| {
                probe.tick();
                suite.run(&mut sp, t)
            })
            .collect();
        timed.record(jobs, &probe.take());
    }
    timed
}

/// One job of the traced run.
#[derive(Clone, Debug)]
pub struct TracedJob {
    /// Repetition it ran in.
    pub rep: usize,
    /// Index of the workload task it belongs to.
    pub task: usize,
    /// What ran.
    pub variant: Variant,
    /// Its outcome.
    pub job: Job,
}

/// Which variant of a workload task a traced job is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The task itself, with spans recorded.
    Own,
    /// The task itself with recording off (for the tracing overhead).
    Untraced,
    /// A hardware-detector variant (for the `haccrg` split).
    Hw(Det),
}

/// Everything the traced run measured.
pub struct Traced {
    /// Every job, in run order.
    pub jobs: Vec<TracedJob>,
    /// Repetitions run.
    pub reps: usize,
    /// Host seconds in `oracle::analyze`, per repetition.
    pub oracle_s: Vec<f64>,
    /// The recorded spans.
    pub spans: Spans,
}

/// The traced run. Each repetition runs, per task, the task with spans,
/// the task without spans, and its off/shared/full hardware variants,
/// rotating their order from task to task and repetition to repetition
/// so no variant always runs first (ABAB). Repeats until `seconds` have
/// gone by, and at least [`MIN_REPS`] times: the `haccrg` times are
/// differences of noisy host times, and need a median.
pub fn run_traced(suite: &mut Suite, plan: &[Task], seconds: f64) -> Traced {
    let mut sp = Spans::new(true);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut jobs = Vec::new();
    let mut oracle_s = Vec::new();
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        oracle_s.push(suite.judge(&mut sp, plan));
        for (i, &task) in plan.iter().enumerate() {
            let mut variants = vec![(Variant::Own, task), (Variant::Untraced, task)];
            variants.extend(
                task.hw_variants()
                    .into_iter()
                    .map(|t| (Variant::Hw(t.det().expect("hardware variant")), t)),
            );
            let n = variants.len();
            variants.rotate_left((reps + i) % n);
            for (variant, t) in variants {
                sp.set_on(variant != Variant::Untraced);
                let job = suite.run(&mut sp, t);
                jobs.push(TracedJob {
                    rep: reps,
                    task: i,
                    variant,
                    job,
                });
            }
        }
        reps += 1;
    }
    sp.set_on(true);
    Traced {
        jobs,
        reps,
        oracle_s,
        spans: sp,
    }
}

impl Traced {
    /// Jobs attempted.
    pub fn attempted(&self) -> usize {
        self.jobs.len()
    }

    /// Failure messages.
    pub fn failures(&self) -> Vec<String> {
        self.jobs
            .iter()
            .filter_map(|t| {
                t.job
                    .error
                    .as_ref()
                    .map(|e| format!("{} [{:?}]: {e}", t.job.label, t.variant))
            })
            .collect()
    }

    /// The jobs of `variant` in repetition `rep`.
    pub fn pass(&self, rep: usize, variant: Variant) -> Pass {
        Pass {
            jobs: self
                .jobs
                .iter()
                .filter(|t| t.rep == rep && t.variant == variant)
                .map(|t| t.job.clone())
                .collect(),
        }
    }

    /// Median over repetitions of `f` applied to the pass of `variant`.
    pub fn median_over_reps(&self, variant: Variant, f: impl Fn(&Pass) -> f64) -> f64 {
        let xs: Vec<f64> = (0..self.reps).map(|r| f(&self.pass(r, variant))).collect();
        median(&xs)
    }

    /// Median over repetitions of `f` applied to the jobs of one task's
    /// `variant` (one job per repetition, or none).
    pub fn task_median(
        &self,
        task: usize,
        variant: Variant,
        f: impl Fn(&Job) -> f64,
    ) -> Option<f64> {
        let xs: Vec<f64> = self
            .jobs
            .iter()
            .filter(|t| t.task == task && t.variant == variant)
            .map(|t| f(&t.job))
            .collect();
        (!xs.is_empty()).then(|| median(&xs))
    }
}
