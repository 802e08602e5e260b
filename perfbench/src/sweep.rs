//! The two offline-sweep workloads, `sweep-cold` and `optimize-long`.
//!
//! Both follow the `apusim replay` path a user takes: programs are captured
//! to MapIR files, the files are read back and parsed, and each file is one
//! request for its cells under the configurations and elision modes of the
//! workload: `run_sweep` on one worker, then `render_report`. A pass runs
//! the corpus as the sweep throughput bench does, against a cache fresh for
//! the pass: every file's request cold — the misses, every cell simulated —
//! then the whole corpus again in one request, answered from the cache —
//! the hit. Set-up is capturing, writing and parsing the files and one
//! untimed pass.

use crate::report::Outcome;
use crate::trace::{secs_named, Tracer};
use crate::util::{mean, median, Rng};
use apu_mem::{ApuMemory, MemError};
use hsa_rocr::Topology;
use omp_batch::{
    execute, render_report, run_sweep, CacheMode, ElideKind, ResultCache, SweepRequest, SweepResult,
};
use omp_offload::{replay, replay_threads, MapIr, OmpError, OmpRuntime, RunReport};
use omp_offload::{ElideMode, ReplayOutcome, RuntimeBuilder, RuntimeConfig};
use sim_des::FaultPlan;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use workloads::{spec::SpC, MiniCg, Stream, Workload};

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// The shipped check corpus, elide `off` and `plan`.
    Cold,
    /// Generated long captures with small footprints, elide `opt` and `off`.
    OptimizeLong,
}

/// Iteration counts of the generated long captures. They set each
/// capture's length — about 1.5k ops for babelstream and mini-cg, 4.3k for
/// spC — and the optimizer's cost grows with it, quadratically for the two
/// with many exits; the seed only draws array sizes, so every seed costs
/// the same.
const STREAM_ITERS: usize = 300;
const CG_ITERS: usize = 320;
const SPC_CYCLES: usize = 100;

/// Host threads a program is captured with: QMCPack walkers use two, as in
/// the sweep corpus the repository ships.
fn capture_threads(w: &dyn Workload) -> usize {
    if w.name().contains("qmc") {
        2
    } else {
        1
    }
}

/// One program to capture and the cells its capture is replayed as.
pub struct Program {
    label: String,
    workload: Box<dyn Workload>,
    configs: Vec<RuntimeConfig>,
    elides: [ElideKind; 2],
}

/// One capture file and the cells one replay request runs from it.
pub struct Group {
    /// Request label (program index and name).
    pub label: String,
    /// The parsed capture.
    pub ir: Arc<MapIr>,
    /// The request's cells, in report order.
    pub cells: Vec<SweepRequest>,
}

/// A KiB–MiB array size: 64 KiB to 2 MiB in whole pages.
fn small_bytes(rng: &mut Rng) -> u64 {
    (16 + rng.below(497) as u64) * 4096
}

/// The programs of `kind`, drawn from `seed`.
pub fn programs(kind: SweepKind, seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed, 1);
    match kind {
        SweepKind::Cold => omp_mapcheck::harness::shipped_workloads()
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let configs = vec![*rng.pick(&omp_mapcheck::harness::configs_for(&*w))];
                Program {
                    label: format!("{i:02}-{}", w.name()),
                    workload: w,
                    configs,
                    elides: [ElideKind::Off, ElideKind::Plan],
                }
            })
            .collect(),
        SweepKind::OptimizeLong => {
            let stream = Stream {
                array_bytes: small_bytes(&mut rng),
                iterations: STREAM_ITERS,
                ..Stream::default_size()
            };
            let cg = MiniCg {
                matrix_bytes: small_bytes(&mut rng),
                vector_bytes: small_bytes(&mut rng),
                iterations: CG_ITERS,
                ..MiniCg::default_case()
            };
            let spc = SpC {
                cycles: SPC_CYCLES,
                array_bytes: small_bytes(&mut rng),
                ..SpC::ref_size()
            };
            let ws: Vec<Box<dyn Workload>> =
                vec![Box::new(stream), Box::new(cg.with_nowait()), Box::new(spc)];
            ws.into_iter()
                .enumerate()
                .map(|(i, w)| Program {
                    label: format!("{i:02}-{}", w.name()),
                    configs: omp_mapcheck::harness::configs_for(&*w),
                    workload: w,
                    elides: [ElideKind::Opt, ElideKind::Off],
                })
                .collect()
        }
    }
}

/// Capture every program, write the captures to `dir`, read and parse them
/// back, and build each file's request. Spans go to `tr` when tracing.
pub fn prepare(
    programs: &[Program],
    dir: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<Vec<Group>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut paths = Vec::new();
    for p in programs {
        let w = &*p.workload;
        let ir = match tr.as_deref_mut() {
            Some(t) => {
                let op = t.op();
                t.span(op, "check.capture", |_| {
                    omp_mapcheck::capture_workload(w, capture_threads(w))
                })
            }
            None => omp_mapcheck::capture_workload(w, capture_threads(w)),
        }
        .map_err(|e| format!("capture {}: {e}", p.label))?;
        let path = dir.join(format!("{}.mapir", p.label));
        std::fs::write(&path, ir.to_text())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        paths.push(path);
    }
    let mut groups = Vec::new();
    for (p, path) in programs.iter().zip(&paths) {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let ir = match tr.as_deref_mut() {
            Some(t) => {
                let op = t.op();
                t.span(op, "core.mapir_parse", |_| MapIr::parse(&text))
            }
            None => MapIr::parse(&text),
        }
        .map(Arc::new)
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
        let mut cells = Vec::new();
        for &config in &p.configs {
            for &elide in &p.elides {
                cells.push(
                    SweepRequest::builder(p.label.clone(), Arc::clone(&ir))
                        .config(config)
                        .elide(elide)
                        .build()
                        .map_err(|e| format!("request {}: {e}", p.label))?,
                );
            }
        }
        groups.push(Group {
            label: p.label.clone(),
            ir,
            cells,
        });
    }
    Ok(groups)
}

/// Timings and answers of one pass, per file.
struct Pass {
    cold_s: Vec<f64>,
    warm_s: f64,
    answers: Vec<Option<(Vec<SweepResult>, String)>>,
}

/// One replay request over `cells` against `cache`: `run_sweep` on one
/// worker, then `render_report`.
fn request(
    cells: &[SweepRequest],
    cache: &CacheMode,
) -> Result<(omp_batch::SweepOutcome, String), OmpError> {
    let o = run_sweep(cells, 1, cache)?;
    let report = render_report(cells, &o.results);
    Ok((o, report))
}

/// One pass against a cache fresh for the pass in `cache_dir`, the way the
/// sweep throughput bench runs its corpus: each file's request is sent
/// cold, then one request for every file's cells together — `corpus` — is
/// answered from the cache.
fn run_pass(
    groups: &[Group],
    corpus: &[SweepRequest],
    cache_dir: &Path,
    out: &mut Outcome,
) -> Pass {
    let _ = std::fs::remove_dir_all(cache_dir);
    let cache = CacheMode::Dir(cache_dir.to_path_buf());
    let mut pass = Pass {
        cold_s: Vec::new(),
        warm_s: 0.0,
        answers: Vec::new(),
    };
    for g in groups {
        let n = g.cells.len() as u64;
        let t = Instant::now();
        let cold = request(&g.cells, &cache);
        pass.cold_s.push(t.elapsed().as_secs_f64());
        let answer = out.attempt("cold request", cold).map(|(o, report)| {
            out.check(o.stats.simulated == n && o.stats.hits == 0, || {
                format!(
                    "{}: a cold request hit the fresh cache ({:?})",
                    g.label, o.stats
                )
            });
            (o.results, report)
        });
        pass.answers.push(answer);
    }
    let t = Instant::now();
    let warm = request(corpus, &cache);
    pass.warm_s = t.elapsed().as_secs_f64();
    let cold: Option<Vec<SweepResult>> = pass
        .answers
        .iter()
        .map(|a| a.as_ref().map(|(r, _)| r.clone()))
        .collect::<Option<Vec<_>>>()
        .map(|per_file| per_file.concat());
    if let (Some((o, report)), Some(cold)) = (out.attempt("warm request", warm), cold) {
        out.check(
            o.stats.hits == corpus.len() as u64 && o.stats.simulated == 0,
            || format!("the warm request missed the cache ({:?})", o.stats),
        );
        out.check(
            o.results == cold && report == render_report(corpus, &cold),
            || "the warm answer differs from the cold answers".to_string(),
        );
    }
    let _ = std::fs::remove_dir_all(cache_dir);
    pass
}

/// The report's totals line must equal the sums over its cells.
fn check_totals(results: &[SweepResult], report: &str, out: &mut Outcome) {
    let total_ns: u64 = results.iter().map(|r| r.makespan.as_nanos()).sum();
    let expect = format!(
        "total: {} cells, {} ops, {} kernels, {:.3} virtual ms",
        results.len(),
        results.iter().map(|r| r.ops).sum::<u64>(),
        results.iter().map(|r| r.kernels).sum::<u64>(),
        total_ns as f64 / 1e6,
    );
    out.check(report.lines().any(|l| l == expect), || {
        format!("report totals line is not `{expect}`")
    });
}

/// Properties every answered cell of a capture must have.
fn check_group(g: &Group, results: &[SweepResult], out: &mut Outcome) {
    let ops = g.ir.len() as u64;
    for (req, r) in g.cells.iter().zip(results) {
        let cell = || format!("{} {} {}", g.label, req.config.token(), req.elide.token());
        out.check(
            !r.diagnostics
                .iter()
                .any(|d| d.split_whitespace().nth(1) == Some("error")),
            || format!("{}: error diagnostic {:?}", cell(), r.diagnostics),
        );
        if matches!(req.elide, ElideKind::Off | ElideKind::Plan) {
            out.check(r.ops == ops, || {
                format!("{}: replayed {} of {ops} ops", cell(), r.ops)
            });
        }
    }
    // Twins: the same configuration under both elision modes of the group.
    for (i, (a, ra)) in g.cells.iter().zip(results).enumerate() {
        for (b, rb) in g.cells.iter().zip(results).skip(i + 1) {
            if a.config != b.config {
                continue;
            }
            let (off, other, r_off, r_other) = if a.elide == ElideKind::Off {
                (a, b, ra, rb)
            } else {
                (b, a, rb, ra)
            };
            let pair = || {
                format!(
                    "{} {} off/{}",
                    g.label,
                    off.config.token(),
                    other.elide.token()
                )
            };
            out.check(
                r_off.memory_digest == r_other.memory_digest && r_off.kernels == r_other.kernels,
                || format!("{}: memory digest or kernel count differs", pair()),
            );
            match other.elide {
                ElideKind::Plan => out.check(
                    r_off
                        .ledger
                        .mm_total()
                        .as_nanos()
                        .checked_sub(r_other.ledger.mm_total().as_nanos())
                        == Some(r_other.ledger.mm_saved.as_nanos()),
                    || {
                        format!(
                            "{}: mm_total(off) - mm_total(plan) != mm_saved(plan)",
                            pair()
                        )
                    },
                ),
                ElideKind::Opt => out
                    .check(r_other.ledger.mm_total() <= r_off.ledger.mm_total(), || {
                        format!("{}: optimized replay spends more map time", pair())
                    }),
                _ => {}
            }
        }
    }
}

/// The runtime recipe `omp_batch::execute` builds for `req` over `ir`.
fn runtime_for(req: &SweepRequest, ir: &MapIr, elide: ElideMode) -> RuntimeBuilder {
    let mut b = OmpRuntime::builder(req.preset.model(), Topology::default())
        .config(req.config)
        .threads(replay_threads(ir))
        .sanitize(true)
        .elide(elide)
        .telemetry(req.telemetry.mode());
    if let Some(seed) = req.fault_seed {
        b = b.fault_plan(FaultPlan::from_seed(seed));
    }
    b
}

/// FNV-1a written out from its definition — the published 64-bit offset
/// basis and prime, one byte at a time — over what `memory_digest` is
/// defined to cover: for every VMA its start and length as little-endian
/// `u64`s, then every byte of it as `cpu_read` returns it. Returns the
/// digest and the number of content bytes hashed.
pub fn reference_digest(mem: &ApuMemory) -> Result<(u64, u64), MemError> {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    let mut buf = vec![0u8; 1 << 16];
    let mut hashed = 0u64;
    for vma in mem.vmas() {
        eat(&vma.range.start.as_u64().to_le_bytes());
        eat(&vma.range.len.to_le_bytes());
        let mut off = 0u64;
        while off < vma.range.len {
            let n = (vma.range.len - off).min(buf.len() as u64) as usize;
            mem.cpu_read(vma.range.start.offset(off), &mut buf[..n])?;
            eat(&buf[..n]);
            off += n as u64;
        }
        hashed += vma.range.len;
    }
    Ok((h, hashed))
}

/// What re-executing one cell layer by layer produced.
pub struct Decomposed {
    /// Replay counters.
    pub replayed: ReplayOutcome,
    /// `memory_digest()` of the replayed image.
    pub digest: u64,
    /// The finished run.
    pub report: RunReport,
    /// Optimizer rewrites, for `opt` cells.
    pub rewrites: Option<usize>,
}

/// Re-execute `req` through the same public calls `omp_batch::execute`
/// makes — optimize or plan, build, replay, digest, finish — each in a span
/// of its own under one `batch.execute` span. `inspect` sees the replayed
/// runtime before it finishes.
pub fn execute_decomposed(
    req: &SweepRequest,
    tr: &mut Tracer,
    op: u64,
    inspect: impl FnOnce(&OmpRuntime),
) -> Result<Decomposed, OmpError> {
    tr.span(op, "batch.execute", |tr| {
        let optimized = match req.elide {
            ElideKind::Opt => tr
                .span(op, "check.optimize", |_| omp_mapcheck::optimize(&req.ir))
                .ok(),
            _ => None,
        };
        let elide = req
            .elide
            .mode_with(|| tr.span(op, "check.plan", |_| omp_mapcheck::elision_plan(&req.ir)));
        let ir = optimized.as_ref().map_or(&*req.ir, |o| &o.ir);
        let mut rt = tr.span(op, "core.build", |_| runtime_for(req, ir, elide).build())?;
        let replayed = tr.span(op, "core.replay", |_| replay(&mut rt, ir))?;
        let digest = tr.span(op, "core.digest", |_| rt.memory_digest());
        inspect(&rt);
        let report = tr.span(op, "core.finish", |_| rt.finish());
        Ok(Decomposed {
            replayed,
            digest,
            report,
            rewrites: optimized.map(|o| o.report.rewrites()),
        })
    })
}

/// Check the reference digest against `memory_digest()` and against the
/// digest the sweep answered with; returns the bytes hashed.
fn reference_check(req: &SweepRequest, answered: u64, out: &mut Outcome) -> Option<u64> {
    let mut tr = Tracer::new();
    let op = tr.op();
    let mut reference = None;
    let d = execute_decomposed(req, &mut tr, op, |rt| {
        reference = Some(reference_digest(rt.mem()));
    });
    let d = out.attempt("reference re-execution", d)?;
    let cell = format!("{} {} {}", req.name, req.config.token(), req.elide.token());
    match reference.expect("inspected before finish") {
        Ok((reference, bytes)) => {
            out.check(reference == d.digest && d.digest == answered, || {
                format!(
                    "{cell}: reference digest {reference:016x}, memory_digest {:016x}, \
                     answered {answered:016x}",
                    d.digest
                )
            });
            Some(bytes)
        }
        Err(e) => {
            out.check(false, || format!("{cell}: VMA unreadable by cpu_read: {e}"));
            None
        }
    }
}

/// Reference-digest cells sampled per run.
const REFERENCE_SAMPLE: usize = 2;

/// A timed run of a sweep workload.
pub fn run(kind: SweepKind, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let setup = Instant::now();
    let groups = match prepare(&programs(kind, seed), &work.join("captures"), None) {
        Ok(g) => g,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    let corpus: Vec<SweepRequest> = groups
        .iter()
        .flat_map(|g| g.cells.iter().cloned())
        .collect();
    // The untimed warm-up pass; its answers are checked like any other.
    let mut passes = vec![run_pass(
        &groups,
        &corpus,
        &work.join("cache-warm-up"),
        &mut out,
    )];
    out.set("setup_s", setup.elapsed().as_secs_f64());

    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(
            &groups,
            &corpus,
            &work.join("cache-pass"),
            &mut out,
        ));
    }
    let timed_passes = &passes[1..];
    // Every pass does the same work, so each figure is the median over
    // passes of a per-pass figure. The miss is a pass's mean cold request:
    // the files differ in size, and a median over all their requests would
    // sit at the gap between two files rather than on any one of them.
    let files = groups.len() as f64;
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&timed_passes.iter().map(f).collect::<Vec<_>>());
    let cold = per_pass(&|p| p.cold_s.iter().sum());
    out.set("cells_per_s", corpus.len() as f64 / cold);
    out.set(
        "requests_per_s",
        (files + 1.0) / per_pass(&|p| p.cold_s.iter().sum::<f64>() + p.warm_s),
    );
    out.set("hit_ms_p50", per_pass(&|p| p.warm_s) * 1e3);
    out.set("miss_ms_p50", cold / files * 1e3);

    // Every pass answers identically: check the first answer of each file
    // in full and the other passes' against it.
    for (i, g) in groups.iter().enumerate() {
        let mut answers = passes.iter().filter_map(|p| p.answers[i].as_ref());
        if let Some((results, report)) = answers.next() {
            check_group(g, results, &mut out);
            check_totals(results, report, &mut out);
            let repeat_ok = answers.all(|a| &a.0 == results && &a.1 == report);
            out.check(repeat_ok, || {
                format!("{}: answers differ between passes", g.label)
            });
        }
    }
    let mut rng = Rng::new(seed, 2);
    for _ in 0..REFERENCE_SAMPLE {
        let gi = rng.below(groups.len());
        let ci = rng.below(groups[gi].cells.len());
        if let Some((results, _)) = &passes[0].answers[gi] {
            reference_check(&groups[gi].cells[ci], results[ci].memory_digest, &mut out);
        }
    }
    out
}

/// Per-layer figures of one sweep workload's traced sample.
#[derive(Default)]
pub struct LayerSample {
    /// Index range of the sample's spans in the tracer.
    pub spans: Range<usize>,
    /// Bytes the digest covers, per cell.
    pub digest_bytes: Vec<f64>,
    /// Per cell: untraced `execute` seconds, traced `batch.execute` seconds,
    /// and the share of the untraced time the layer spans cover.
    pub execute: Vec<(f64, f64, f64)>,
    /// (ops replayed, replay seconds) per `off`/`plan` cell.
    pub replay: Vec<(u64, f64)>,
    /// (capture ops, optimize seconds, rewrites) per `opt` cell.
    pub optimize: Vec<(u64, f64, usize)>,
    /// (capture text bytes, parse seconds) per parsed capture.
    pub parse: Vec<(usize, f64)>,
}

impl LayerSample {
    /// Durations (seconds) of the sample's spans named `name`.
    fn secs(&self, tr: &Tracer, name: &str) -> Vec<f64> {
        secs_named(&tr.spans()[self.spans.clone()], name)
    }
}

/// Inputs of the traced sweep samples. They are fixed, not drawn from
/// `--seed`, so that a per-layer figure describes the same cells in every
/// traced run.
const TRACE_INPUTS: u64 = 0;

/// Traced re-execution of a sweep workload: the first configuration's twin
/// cells of every capture, each once untraced through `execute` and once
/// layer by layer; `sweep-cold` cells are also stored into a cache and read
/// back, and one seeded cell of theirs gets the reference digest.
pub fn trace_sample(
    kind: SweepKind,
    seed: u64,
    work: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> LayerSample {
    let first = tr.spans().len();
    let mut sample = LayerSample::default();
    let dir = work.join(format!("trace-{kind:?}"));
    let groups = match prepare(&programs(kind, TRACE_INPUTS), &dir, Some(tr)) {
        Ok(g) => g,
        Err(e) => {
            out.check(false, || e);
            return sample;
        }
    };
    let parses = tr.spans()[first..]
        .iter()
        .filter(|s| s.name == "core.mapir_parse");
    for (s, g) in parses.zip(&groups) {
        sample.parse.push((g.ir.to_text().len(), s.secs()));
    }
    let cache = ResultCache::open(&CacheMode::Dir(dir.join("cache")));
    let reference = Rng::new(seed, 3).below(groups.len());
    for (gi, g) in groups.iter().enumerate() {
        let cells = &g.cells[..2];
        let mut answered = Vec::new();
        for req in cells {
            let t = Instant::now();
            let Some(result) = out.attempt("execute", execute(req)) else {
                continue;
            };
            let untraced = t.elapsed().as_secs_f64();
            let op = tr.op();
            let idx = tr.spans().len();
            let mut vma_bytes = 0;
            let d = execute_decomposed(req, tr, op, |rt| {
                vma_bytes = rt.mem().vmas().map(|v| v.range.len).sum();
            });
            let Some(d) = out.attempt("traced execute", d) else {
                continue;
            };
            let spans = &tr.spans()[idx..];
            let span_secs = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.secs());
            sample
                .execute
                .push((untraced, spans[0].secs(), tr.child_secs(idx) / untraced));
            sample.digest_bytes.push(vma_bytes as f64);
            if req.elide != ElideKind::Opt {
                sample.replay.push((
                    d.replayed.ops as u64,
                    span_secs("core.replay").unwrap_or(0.0),
                ));
            }
            if let (Some(rw), Some(secs)) = (d.rewrites, span_secs("check.optimize")) {
                sample.optimize.push((req.ir.len() as u64, secs, rw));
            }
            out.check(
                d.digest == result.memory_digest
                    && d.replayed.ops as u64 == result.ops
                    && d.report.makespan == result.makespan,
                || {
                    format!(
                        "{}: layer-by-layer re-execution differs from execute",
                        g.label
                    )
                },
            );
            match kind {
                SweepKind::OptimizeLong => {
                    for _ in 0..8 {
                        std::hint::black_box(tr.span(op, "batch.request_digest", |_| req.digest()));
                    }
                }
                SweepKind::Cold => {
                    if gi == reference && answered.is_empty() {
                        reference_check(req, result.memory_digest, out);
                    }
                    let stored = tr.span(op, "batch.cache_store", |_| cache.store(req, &result));
                    out.attempt("cache store", stored);
                    out.check(cache.lookup(req).as_ref() == Some(&result), || {
                        format!("{}: cache lookup did not return the stored result", g.label)
                    });
                }
            }
            answered.push(result);
        }
        if answered.len() == cells.len() {
            check_group(g, &answered, out);
            check_totals(&answered, &render_report(cells, &answered), out);
        }
    }
    sample.spans = first..tr.spans().len();
    sample
}

/// Fold the two sweep samples into per-layer metrics, each taken from the
/// workload whose cost it describes.
pub fn layer_metrics(tr: &Tracer, cold: &LayerSample, long: &LayerSample, out: &mut Outcome) {
    let ms = |s: &LayerSample, name: &str| median(&s.secs(tr, name)) * 1e3;
    let us = |s: &LayerSample, name: &str| median(&s.secs(tr, name)) * 1e6;
    out.set("core.digest_ms", ms(cold, "core.digest"));
    out.set("core.digest_bytes", mean(&cold.digest_bytes));
    out.set("core.build_ms", ms(cold, "core.build"));
    out.set("core.finish_ms", ms(cold, "core.finish"));
    let (ops, secs) = long
        .replay
        .iter()
        .fold((0u64, 0.0), |(o, s), &(ops, secs)| (o + ops, s + secs));
    out.set("core.replay_ops_per_s", ops as f64 / secs);
    let (bytes, secs) = long
        .parse
        .iter()
        .fold((0usize, 0.0), |(b, s), &(bytes, secs)| {
            (b + bytes, s + secs)
        });
    out.set("core.mapir_parse_mb_per_s", bytes as f64 / secs / 1e6);
    out.set("check.capture_ms", ms(cold, "check.capture"));
    out.set("check.plan_ms", ms(cold, "check.plan"));
    out.set("check.optimize_ms", ms(long, "check.optimize"));
    let (ops, secs, rewrites) = long
        .optimize
        .iter()
        .fold((0u64, 0.0, 0usize), |(o, s, r), &(ops, secs, rw)| {
            (o + ops, s + secs, r + rw)
        });
    out.set("check.optimize_us_per_op", secs / ops as f64 * 1e6);
    out.set(
        "check.rewrites",
        rewrites as f64 / long.optimize.len() as f64,
    );
    let untraced: Vec<f64> = cold.execute.iter().map(|e| e.0).collect();
    out.set("batch.execute_ms", median(&untraced) * 1e3);
    out.set("batch.request_digest_us", us(long, "batch.request_digest"));
    out.set("batch.cache_store_us", us(cold, "batch.cache_store"));
    let coverage: Vec<f64> = cold.execute.iter().map(|e| e.2).collect();
    let coverage = median(&coverage);
    out.set("trace.span_coverage", coverage);
    out.check(coverage >= 0.9, || {
        format!("layer spans cover only {coverage:.3} of a cell's execute time")
    });
    let traced: f64 = cold.execute.iter().map(|e| e.1).sum();
    let plain: f64 = untraced.iter().sum();
    out.set("trace.overhead", traced / plain - 1.0);
}
