//! `perfbench` — the repository's benchmark: four workloads driven through
//! the public entry points of `omp-batch`, `omp-mapcheck`, `omp-offload`
//! and `analysis::paper` from one process, pinned to one CPU.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench counters --seed N
//! ```
//!
//! A run prints a header line and then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0` (untraced, timed), every per-layer metric with
//! `--trace 1` (a traced re-execution of a sample of every workload's
//! operations, spans written to `.perfbench/`). `counters`
//! prints the exact work counters of one pass of each workload. Scratch
//! files live under `.perfbench/` in the working directory.

mod host;
mod paper;
mod report;
mod serve;
mod sweep;
mod trace;
mod util;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sweep::SweepKind;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["sweep-cold", "optimize-long", "serve-mix", "paper-repro"];

const USAGE: &str = "usage: perfbench --workload sweep-cold|optimize-long|serve-mix|paper-repro \
                     --seed N --seconds S --trace 0|1\n       perfbench counters --seed N";

struct RunArgs {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The timed, untraced run of one workload.
fn timed(a: &RunArgs, work: &Path) -> Outcome {
    let mut out = match a.workload {
        "sweep-cold" => sweep::run(SweepKind::Cold, a.seed, a.seconds, work),
        "optimize-long" => sweep::run(SweepKind::OptimizeLong, a.seed, a.seconds, work),
        "serve-mix" => serve::run(a.seed, a.seconds, work),
        _ => paper::run(a.seed, a.seconds),
    };
    if let Some(mib) = host::peak_rss_mib() {
        out.set("peak_rss_mib", mib);
    }
    out
}

/// The traced run: a sample of every workload's operations, so that every
/// layer reports whichever workload is named. Each per-layer metric comes
/// from the workload whose cost it describes.
fn traced(a: &RunArgs, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = trace::Tracer::new();
    let cold = sweep::trace_sample(SweepKind::Cold, a.seed, work, &mut tr, &mut out);
    let long = sweep::trace_sample(SweepKind::OptimizeLong, a.seed, work, &mut tr, &mut out);
    sweep::layer_metrics(&tr, &cold, &long, &mut out);
    serve::trace_sample(a.seed, work, &mut tr, &mut out);
    paper::trace_sample(a.seed, &mut tr, &mut out);
    let spans = Path::new(".perfbench").join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
    if let Err(e) = tr.write_jsonl(&spans) {
        eprintln!("perfbench: writing {}: {e}", spans.display());
    }
    out
}

/// Exact work counters of one pass (one round, for `serve-mix`) of each
/// workload.
fn counters(seed: u64, work: &Path) -> Result<(), String> {
    println!("workload        cells simulated  cells hit  ops replayed  digest bytes  rewrites");
    for kind in [SweepKind::Cold, SweepKind::OptimizeLong] {
        let groups = sweep::prepare(&sweep::programs(kind, seed), &work.join("counters"), None)?;
        let (mut cells, mut ops, mut bytes, mut rewrites) = (0u64, 0u64, 0u64, 0usize);
        for g in &groups {
            for req in &g.cells {
                let mut tr = trace::Tracer::new();
                let op = tr.op();
                let mut vma_bytes = 0;
                let d = sweep::execute_decomposed(req, &mut tr, op, |rt| {
                    vma_bytes = rt.mem().vmas().map(|v| v.range.len).sum();
                })
                .map_err(|e| format!("{}: {e}", g.label))?;
                cells += 1;
                ops += d.replayed.ops as u64;
                bytes += vma_bytes;
                rewrites += d.rewrites.unwrap_or(0);
            }
        }
        let name = if kind == SweepKind::Cold {
            "sweep-cold"
        } else {
            "optimize-long"
        };
        // Each file's request is sent cold, then the whole corpus again in
        // one request answered from the cache.
        let hit = cells;
        println!("{name:<15} {cells:>15} {hit:>10} {ops:>13} {bytes:>13} {rewrites:>9}");
    }
    let (hit, simulated, frames) = serve::round_counters();
    println!("serve-mix       {simulated:>15} {hit:>10}   (per round of {frames} requests)");
    let (runs, calls, pages) = paper::sweep_counters(seed).map_err(|e| e.to_string())?;
    println!(
        "paper-repro     Fig. 3/4 sweep: {runs} measured runs, {calls} HSA calls, {pages} pages faulted or prefaulted"
    );
    Ok(())
}

/// A scratch directory of this process under `.perfbench/`, removed when
/// dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create .perfbench/: {e}");
            return ExitCode::from(2);
        }
    };
    if args.first().map(String::as_str) == Some("counters") {
        let seed = match args.get(1..) {
            Some([flag, v]) if flag == "--seed" => v.parse::<u64>().ok(),
            _ => None,
        };
        let Some(seed) = seed else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match counters(seed, &work.0) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = host::pin_to_one_cpu();
    let ticks = host::CpuTicks::now(pinned);
    let (out, catalogue) = if a.trace {
        (traced(&a, &work.0), PER_LAYER)
    } else {
        (timed(&a, &work.0), END_TO_END)
    };
    let steal = host::CpuTicks::now(pinned).steal_share_since(&ticks);
    for v in &out.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    match out.to_json(catalogue) {
        Ok(line) => {
            let header = host::Header {
                workload: a.workload,
                seed: a.seed,
                trace: a.trace,
                nproc,
                pinned_cpu: pinned,
                steal_share: steal,
                attempted: out.attempted,
                failed: out.failed,
            };
            println!("{}", header.to_json());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
