//! perfbench — the repository's end-to-end benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <table2-full|table2-off|fig7-software|gen-kernels>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 if any job
//! failed, 2 on bad arguments.

mod jobs;
mod layers;
mod probe;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use layers::LAYER_METRICS;
use spans::escape;
use stats::{beyond, peak_rss_mb, percentile};
use workload::{run_timed, run_traced, Suite, Timed, Timing, Workload, GEN_KERNELS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Names and units of the end-to-end metrics, in `BENCHMARK.json` order.
const E2E_METRICS: [(&str, &str); 7] = [
    ("winst_per_s", "1/s"),
    ("setup_s", "s"),
    ("kernel_ms_p50", "ms"),
    ("kernel_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
    ("sim_overhead", "x"),
];

const USAGE: &str =
    "usage: perfbench --workload <table2-full|table2-off|fig7-software|gen-kernels> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric of the result line: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// What a run reports.
struct Outcome {
    failures: Vec<String>,
    attempted: usize,
    metrics: Vec<Metric>,
}

/// The result line.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            escape(unit)
        );
    }
    s.push_str("}}");
    s
}

/// The end-to-end metrics of an untraced run, in [`E2E_METRICS`] order.
/// Host times are rescaled per pass to the probe's nominal host speed,
/// taken per job as the median over passes, then summed or ranked.
fn e2e_values(t: &Timed) -> Result<Vec<f64>, String> {
    let launch_s: f64 = t.job_medians(|j| j.launch_s).iter().sum();
    let latencies = t.job_medians(Timing::latency_ms);
    Ok(vec![
        t.winsts() as f64 / launch_s,
        t.job_medians(|j| j.setup_s).iter().sum(),
        percentile(&latencies, 50).expect("at least one job"),
        percentile(&latencies, 90).expect("at least one job"),
        peak_rss_mb()?,
        t.cycles() as f64,
        t.sim_overhead(),
    ])
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the untraced benchmark and prints its report.
fn timed(args: &Args, suite: &mut Suite) -> Outcome {
    let plan = suite.plan(args.workload, args.seed, GEN_KERNELS);
    let t = run_timed(suite, &plan, args.seconds);
    let mut failures = t.failures.clone();
    let values = e2e_values(&t).unwrap_or_else(|e| {
        failures.push(e);
        vec![f64::NAN; E2E_METRICS.len()]
    });
    let n = t.passes.len();
    let jobs = plan.len();
    println!(
        "{} passes of {} jobs; {} untimed reference jobs",
        n,
        plan.len(),
        t.reference.iter().flatten().count()
    );
    let raw: Vec<String> = t
        .passes
        .iter()
        .map(|p| {
            format!(
                "{:.0}",
                t.winsts() as f64 / p.iter().map(|j| j.launch_s).sum::<f64>()
            )
        })
        .collect();
    println!("  winst_per_s by pass, not rescaled: {}", raw.join(" "));
    let factors: Vec<String> = t
        .probe_s
        .iter()
        .map(|s| format!("{:.3}", probe::NOMINAL_S / s))
        .collect();
    println!(
        "  host-speed probe (nominal {} ms): rescaling factor by pass: {}",
        probe::NOMINAL_S * 1e3,
        factors.join(" ")
    );
    let notes = [
        format!("Gpu::launch time only; rescaled, per-job medians of {n} passes, summed"),
        "per pass, rescaled: Gpu::new+set_detector, prepare, instrument, generate/build/alloc_params"
            .to_string(),
        format!(
            "set-up + launch; rescaled, per-job median of {n} passes; {jobs} samples, {} beyond",
            beyond(jobs, 50)
        ),
        format!(
            "set-up + launch; rescaled, per-job median of {n} passes; {jobs} samples, {} beyond",
            beyond(jobs, 90)
        ),
        "VmHWM of the process".to_string(),
        format!("per pass; the same in all {n} passes or the run fails"),
        match args.workload.paper_overhead() {
            Some(p) => format!(
                "geomean vs detection off; paper {p:.3}, error {:+.1}%",
                (values[6] / p - 1.0) * 100.0
            ),
            None => "geomean vs detection off; no paper value for this workload".to_string(),
        },
    ];
    for ((name, unit), (v, note)) in E2E_METRICS.iter().zip(values.iter().zip(&notes)) {
        println!("  {name:<14} {v:>16.4} {unit:<7} {note}");
    }
    let attempted = t.attempted;
    println!(
        "  {:<14} {:>16.4} {:<7} {} failed of {attempted} jobs",
        "failed_frac",
        failures.len() as f64 / attempted as f64,
        "",
        failures.len()
    );
    let slowdowns = t.slowdowns();
    if slowdowns.len() <= 10 {
        for (label, x) in slowdowns {
            println!("  slowdown {label:<24} {x:.3}x");
        }
    }
    let metrics = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    Outcome {
        failures,
        attempted,
        metrics,
    }
}

/// Runs the traced benchmark, prints the per-layer table, and writes it
/// and the spans under `out/`.
fn traced(args: &Args, suite: &mut Suite) -> Outcome {
    let plan = suite.plan(args.workload, args.seed, GEN_KERNELS);
    let t = run_traced(suite, &plan, args.seconds);
    let mut failures = t.failures();
    let table = t.table();
    print!("{table}");
    let values = t.layer_metrics();
    for ((name, unit), v) in LAYER_METRICS.iter().zip(&values) {
        println!("  {name:<30} {v:>16.4} {unit}");
    }
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.json")), t.spans.to_json()))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table));
    match written {
        Ok(()) => println!(
            "spans and layer table written to {}",
            dir.join(&stem).display()
        ),
        Err(e) => failures.push(format!("writing {}: {e}", dir.display())),
    }
    let metrics = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    Outcome {
        failures,
        attempted: t.attempted(),
        metrics,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} for {} s{}: closed loop, one simulation thread, a fresh GPU per job \
         (modelled L1/L2 start empty)",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let mut suite = Suite::new();
    let Outcome {
        mut failures,
        attempted,
        metrics,
    } = if args.trace {
        traced(&args, &mut suite)
    } else {
        timed(&args, &mut suite)
    };
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        failures.push(format!("metric {name} is {v}"));
    }
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
    }
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { 0.0 }))
        .collect();
    println!(
        "{}",
        result_json(
            failures.is_empty(),
            attempted,
            failures.len().min(attempted),
            &metrics
        )
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jobs::{Det, Expect};
    use spans::Spans;
    use workload::{Pass, Task};

    /// Metric names listed under `key` in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{key}\""))
            .expect("key in BENCHMARK.json");
        let section = &text[start..];
        let section = &section[..section.find(']').expect("array end")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name string").to_string())
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let e2e: Vec<String> = E2E_METRICS.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = LAYER_METRICS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("a", "ms", 1.5), ("b", "1/s", 2.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload gen-kernels --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::GenKernels,
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert_eq!(
            parse_args(&argv("--workload table2-off")).unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            "",
            "--workload nope",
            "--workload table2-off --trace 2",
            "--workload table2-off --seconds 0",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn gen_p90_has_ten_samples_beyond_it() {
        assert!(beyond(GEN_KERNELS, 90) >= 10);
    }

    /// Simulated cycles of the first `n` kernels of the `gen-kernels`
    /// pass for `seed`.
    fn gen_cycles(seed: u64, n: usize) -> (Vec<Task>, u64) {
        let mut suite = Suite::new();
        let plan = suite.plan(Workload::GenKernels, seed, n);
        let mut sp = Spans::new(false);
        suite.judge(&mut sp, &plan);
        let pass = Pass {
            jobs: plan.iter().map(|&t| suite.run(&mut sp, t)).collect(),
        };
        let errors: Vec<_> = pass.jobs.iter().filter_map(|j| j.error.as_ref()).collect();
        assert!(errors.is_empty(), "{errors:?}");
        (plan, pass.cycles())
    }

    #[test]
    fn gen_kernels_are_a_function_of_the_seed() {
        let (plan_a, cycles_a) = gen_cycles(5, 6);
        let (plan_b, cycles_b) = gen_cycles(5, 6);
        assert_eq!(plan_a, plan_b);
        assert_eq!(cycles_a, cycles_b);
        let (plan_c, _) = gen_cycles(6, 6);
        assert_ne!(plan_a, plan_c);
        // The full pass is the same stream, longer.
        let suite = Suite::new();
        assert_eq!(
            suite.plan(Workload::GenKernels, 5, GEN_KERNELS)[..6],
            plan_a[..]
        );
    }

    #[test]
    fn a_failing_job_is_counted() {
        let mut suite = Suite::new();
        let plan = suite.plan(Workload::GenKernels, 0, 40);
        let mut sp = Spans::new(false);
        suite.judge(&mut sp, &plan);
        // Find a kernel the oracle calls race-free and demand a race of it.
        let (i, seed) = plan
            .iter()
            .enumerate()
            .find_map(|(i, t)| match *t {
                Task::Gen { seed, .. }
                    if jobs::oracle_verdict(&mut sp, 0, seed).0 == Expect::NoRace =>
                {
                    Some((i, seed))
                }
                _ => None,
            })
            .expect("a race-free kernel among 40");
        let bad = jobs::generated(&mut sp, 0, seed, Det::Full, Expect::Race);
        assert!(
            bad.error
                .as_deref()
                .is_some_and(|e| e.contains("no race reported")),
            "{:?}",
            bad.error
        );
        let good = suite.run(&mut sp, plan[i]);
        assert!(good.error.is_none());
        let mut t = Timed::new(vec![None, None], vec![true, true]);
        t.record(vec![good.clone(), bad], &[]);
        t.record(vec![good.clone(), good], &[]);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failures.len(), 1);
    }

    #[test]
    fn table2_race_expectations_follow_section_6a() {
        assert_eq!(Expect::table2("SCAN", Det::Full), Expect::Race);
        assert_eq!(Expect::table2("HIST", Det::Full), Expect::NoRace);
        assert_eq!(Expect::table2("OFFT", Det::Off), Expect::NoRace);
    }
}
