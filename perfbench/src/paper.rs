//! The `paper-repro` workload: `analysis::paper` at `PaperConfig::full()`
//! on one worker — the QMCPack sweep behind Fig. 3 and Fig. 4 (8 sizes ×
//! 1–8 threads × 4 configurations), then Tables I, II and III. The seed is
//! the experiments' noise seed.
//!
//! A pass does what `repro` does for these artifacts: it builds each one and
//! then emits it, as text and as CSV. The pass is this workload's miss: it
//! simulates. Each emission is a hit: it is answered from the results the
//! pass measured, without simulating.

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{mean, median};
use analysis::paper::{fig3_from_cells, fig4_from_cells, qmc_sweep, table1, table2, table3};
use analysis::paper::{PaperConfig, QmcCell};
use analysis::{measure, ExperimentConfig, Table};
use omp_offload::RuntimeConfig;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{NioSize, QmcPack};

/// Artifacts a pass builds and emits: Fig. 3/4 (one QMCPack sweep) and
/// Tables I, II and III.
const ARTIFACTS: usize = 4;

/// Paper Table II, `(benchmark, [Implicit Z-C, USM, Eager Maps])`, as
/// `tests/paper_calibration.rs` encodes it.
const TABLE2_PAPER: [(&str, [f64; 3]); 5] = [
    ("403.stencil", [0.99, 0.99, 0.98]),
    ("404.lbm", [1.05, 1.043, 1.025]),
    ("452.ep", [0.89, 0.89, 0.99]),
    ("457.spC", [7.80, 7.61, 8.10]),
    ("470.bt", [4.88, 4.77, 5.10]),
];

/// Paper Table III rows (configuration, stencil MM/MI, ep MM/MI).
const TABLE3_PAPER: [[&str; 5]; 3] = [
    ["Copy", "O(10^5)", "O(0)", "O(10^5)", "O(0)"],
    ["Implicit Z-C or USM", "O(0)", "O(10^6)", "O(0)", "O(10^6)"],
    ["Eager Maps", "O(10^4)", "O(0)", "O(10^5)", "O(0)"],
];

/// The full reproduction on one worker, noise seeded by `seed`.
pub fn config(seed: u64) -> PaperConfig {
    let mut cfg = PaperConfig::full();
    cfg.jobs = 1;
    cfg.exp.base_seed = seed;
    cfg
}

/// Every artifact of one pass.
struct Artifacts {
    cells: Vec<QmcCell>,
    tables: [Table; 3],
}

/// Fig. 3 and Fig. 4 as `repro` emits them: rebuilt from the measured
/// cells, each as text and CSV.
fn emit_figures(cells: &[QmcCell], cfg: &PaperConfig) -> String {
    let mut text = String::new();
    for fig in fig3_from_cells(cells, cfg)
        .into_iter()
        .chain([fig4_from_cells(cells, cfg)])
    {
        let _ = writeln!(text, "{fig}");
        text.push_str(&fig.to_csv());
    }
    text
}

/// A table as `repro` emits it: text and CSV.
fn emit_table(t: &Table) -> String {
    format!("{t}\n{}", t.to_csv())
}

/// One pass: every artifact built, each followed by its emission. Returns
/// the artifacts, the emitted text and the seconds spent emitting.
fn pass(cfg: &PaperConfig, out: &mut Outcome) -> Option<(Artifacts, String, f64)> {
    let mut text = String::new();
    let mut emitting = 0.0;
    let mut emit = |out: &mut Outcome, f: &dyn Fn() -> String| {
        let t = Instant::now();
        let s = f();
        emitting += t.elapsed().as_secs_f64();
        out.attempted += 1;
        text.push_str(&s);
    };
    let cells = out.attempt("qmc_sweep", qmc_sweep(cfg));
    if let Some(c) = &cells {
        emit(out, &|| emit_figures(c, cfg));
    }
    let t1 = out.attempt("table1", table1(cfg));
    if let Some(t) = &t1 {
        emit(out, &|| emit_table(t));
    }
    let t2 = out.attempt("table2", table2(cfg)).map(|(t, _)| t);
    if let Some(t) = &t2 {
        emit(out, &|| emit_table(t));
    }
    let t3 = out.attempt("table3", table3(cfg));
    if let Some(t) = &t3 {
        emit(out, &|| emit_table(t));
    }
    let artifacts = Artifacts {
        cells: cells?,
        tables: [t1?, t2?, t3?],
    };
    Some((artifacts, text, emitting))
}

/// The paper's published findings, as the calibration tests pin them.
fn check(a: &Artifacts, out: &mut Outcome) {
    let [_, t2, t3] = &a.tables;
    // Table II: 12% relative for the large ratios, 0.06 absolute near one.
    for (ci, row) in t2.rows.iter().enumerate() {
        for (bi, (name, paper)) in TABLE2_PAPER.iter().enumerate() {
            let cell = row.get(bi + 1).and_then(|v| v.parse::<f64>().ok());
            let expected = paper[ci];
            let ok = cell.is_some_and(|r| {
                if expected > 2.0 {
                    (r / expected - 1.0).abs() < 0.12
                } else {
                    (r - expected).abs() < 0.06
                }
            });
            out.check(ok, || {
                format!(
                    "Table II {name} {}: {cell:?} outside the paper's band around {expected}",
                    row[0]
                )
            });
        }
    }
    out.check(t2.rows.len() == 3, || {
        format!("Table II has {} rows", t2.rows.len())
    });
    let t3_ok = t3.rows.len() == 3 && t3.rows.iter().zip(TABLE3_PAPER).all(|(r, p)| r == &p);
    out.check(t3_ok, || {
        format!("Table III orders {:?} differ from the paper's", t3.rows)
    });

    let get = |f: u32, t: usize| {
        a.cells
            .iter()
            .find(|c| c.size.factor == f && c.threads == t)
    };
    for c in &a.cells {
        for config in RuntimeConfig::ZERO_COPY {
            let r = c.ratio_of(config);
            out.check(r > 1.0 && r < 3.0, || {
                format!(
                    "S{} {}T {config}: ratio {r:.3} outside 1-3x",
                    c.size.factor, c.threads
                )
            });
        }
        let (izc, usm) = (
            c.ratio_of(RuntimeConfig::ImplicitZeroCopy),
            c.ratio_of(RuntimeConfig::UnifiedSharedMemory),
        );
        out.check((izc - usm).abs() < 1e-9, || {
            format!("S{} {}T: USM {usm} != IZC {izc}", c.size.factor, c.threads)
        });
    }
    let izc = |f, t| get(f, t).map(|c| c.ratio_of(RuntimeConfig::ImplicitZeroCopy));
    let (s2, s16, s128) = (izc(2, 8), izc(16, 8), izc(128, 8));
    out.check(
        matches!((s2, s16, s128), (Some(a), Some(b), Some(c)) if a > b && b > c),
        || format!("IZC ratio at 8T does not fall S2 > S16 > S128: {s2:?} {s16:?} {s128:?}"),
    );
    let (t1, t8) = (izc(2, 1), izc(2, 8));
    out.check(matches!((t1, t8), (Some(a), Some(b)) if b > a), || {
        format!("IZC ratio at S2 does not rise with threads: 1T {t1:?}, 8T {t8:?}")
    });
    let em = get(128, 8).map(|c| c.ratio_of(RuntimeConfig::EagerMaps));
    out.check(
        matches!((em, s128), (Some(e), Some(i)) if (e / i - 1.0).abs() < 0.03),
        || format!("Eager Maps {em:?} does not converge with IZC {s128:?} at S128"),
    );
}

/// A timed run of `paper-repro`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(seed);
    // Set-up is the untimed warm-up pass; what it emits is the reference
    // every later pass must repeat.
    let setup = Instant::now();
    let Some((first, reference, _)) = pass(&cfg, &mut out) else {
        return out;
    };
    out.set("setup_s", setup.elapsed().as_secs_f64());
    check(&first, &mut out);

    let measured: usize = first.cells.iter().map(|c| c.measurements.len()).sum();
    let (mut pass_s, mut hit_s) = (Vec::new(), Vec::new());
    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let Some((_, text, emitting)) = pass(&cfg, &mut out) else {
            continue;
        };
        pass_s.push(t.elapsed().as_secs_f64());
        hit_s.push(emitting / ARTIFACTS as f64);
        out.check(text == reference, || {
            "a pass emitted different artifacts".to_string()
        });
    }
    if pass_s.is_empty() {
        out.check(false, || "no pass completed".to_string());
        return out;
    }
    // Every pass does the same work, so each figure is the median over
    // passes of a per-pass figure; the hit is a pass's mean emission, as the
    // four artifacts differ in size.
    let pass = median(&pass_s);
    out.set("cells_per_s", measured as f64 / pass);
    out.set("requests_per_s", ARTIFACTS as f64 / pass);
    out.set("hit_ms_p50", median(&hit_s) * 1e3);
    out.set("miss_ms_p50", pass * 1e3);
    out
}

/// Traced sample: each artifact builder once in a span, plus every
/// configuration of two fixed QMCPack cells measured one by one, under the
/// seed's noise.
pub fn trace_sample(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let cfg = config(seed);
    let op = tr.op();
    let cells = tr.span(op, "analysis.qmc_sweep", |_| qmc_sweep(&cfg));
    out.attempt("qmc_sweep", cells);
    let op = tr.op();
    let t1 = tr.span(op, "analysis.table1", |_| table1(&cfg));
    out.attempt("table1", t1);
    let op = tr.op();
    let t2 = tr.span(op, "analysis.table2", |_| table2(&cfg));
    out.attempt("table2", t2);
    out.set(
        "analysis.qmc_sweep_s",
        median(&tr.secs_of("analysis.qmc_sweep")),
    );
    out.set("analysis.table1_s", median(&tr.secs_of("analysis.table1")));
    out.set("analysis.table2_s", median(&tr.secs_of("analysis.table2")));

    let exp = ExperimentConfig {
        repeats: cfg.qmc_repeats,
        ..cfg.exp.clone()
    };
    let (mut calls, mut pages, mut secs) = (Vec::new(), Vec::new(), 0.0);
    // Fixed cells, so that the figures describe the same runs whatever the
    // seed: the smallest and the largest size at the most threads.
    let threads = *cfg.threads.iter().max().expect("a thread count");
    let sizes: [NioSize; 2] = [cfg.sizes[0], cfg.sizes[cfg.sizes.len() - 1]];
    for size in sizes {
        let w = QmcPack::nio(size).with_steps(cfg.qmc_steps);
        for config in RuntimeConfig::ALL {
            let name = match config {
                RuntimeConfig::LegacyCopy => "analysis.measure.copy",
                RuntimeConfig::UnifiedSharedMemory => "analysis.measure.usm",
                RuntimeConfig::ImplicitZeroCopy => "analysis.measure.izc",
                RuntimeConfig::EagerMaps => "analysis.measure.eager",
            };
            let op = tr.op();
            let m = tr.span(op, name, |_| measure(&w, config, threads, &exp));
            secs += tr.spans().last().expect("just recorded").secs();
            if let Some(m) = out.attempt("measure", m) {
                let s = &m.report.mem_stats;
                calls.push(m.report.api_stats.total_calls() as f64);
                pages.push(
                    (s.xnack_pages() + s.prefault_new_pages() + s.prefault_present_pages) as f64,
                );
            }
        }
    }
    for (metric, span) in [
        ("analysis.measure_ms.copy", "analysis.measure.copy"),
        ("analysis.measure_ms.usm", "analysis.measure.usm"),
        ("analysis.measure_ms.izc", "analysis.measure.izc"),
        ("analysis.measure_ms.eager", "analysis.measure.eager"),
    ] {
        out.set(metric, median(&tr.secs_of(span)) * 1e3);
    }
    out.set("hsa.calls_per_run", mean(&calls));
    out.set(
        "analysis.host_ns_per_hsa_call",
        secs * 1e9 / calls.iter().sum::<f64>(),
    );
    out.set("mem.pages_touched_per_run", mean(&pages));
}

/// Exact work of one pass's QMCPack sweep: (measurements, HSA calls,
/// pages handled by the fault and prefault paths).
pub fn sweep_counters(seed: u64) -> Result<(usize, u64, u64), omp_offload::OmpError> {
    let cells = qmc_sweep(&config(seed))?;
    let ms = cells.iter().flat_map(|c| &c.measurements);
    let (mut n, mut calls, mut pages) = (0, 0, 0);
    for m in ms {
        let s = &m.report.mem_stats;
        n += 1;
        calls += m.report.api_stats.total_calls();
        pages += s.xnack_pages() + s.prefault_new_pages() + s.prefault_present_pages;
    }
    Ok((n, calls, pages))
}
