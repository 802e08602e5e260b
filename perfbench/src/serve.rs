//! The `serve-mix` workload: one in-process `Server` on a Unix socket
//! (one sweep worker, result cache in a fresh directory) and one
//! closed-loop `Client`.
//!
//! Every round is the request sequence of the CI serve smoke
//! (`.github/workflows/ci.yml`): a `PING`, then one `SWEEP` of two cells
//! sent twice — first cold, then again and answered from the cache. Of the
//! two cells one is warm, primed at set-up, and one was never seen: a
//! shipped SPEC capture (in rotation) under a fresh fault seed. So a round
//! holds one miss, one simulated cell beside a cache read, and one hit, two
//! cache reads. There is one warm cell per shipped capture. The seed draws
//! the warm cells' configurations and elision modes, each miss's warm cell
//! and the new cell's elision mode and fault seed; it changes neither the
//! make-up of a round nor which captures the new cells come from.

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, Rng};
use omp_batch::{
    execute, render_report, CacheMode, Client, ElideKind, Response, ResultCache, Server,
    ServerConfig, ServerHandle, ServerStats, SweepRequest, SweepResult,
};
use omp_offload::MapIr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A started server with its client and the warm state the loop relies on.
struct Harness {
    handle: ServerHandle,
    client: Client,
    /// The server's cache directory.
    cache_dir: PathBuf,
    /// Frames sent on the client connection.
    frames: u64,
    /// Cells named in `SWEEP` frames.
    cells: u64,
    /// Per capture: label and parsed capture.
    captures: Vec<(String, Arc<MapIr>)>,
    /// One warm cell per capture.
    warm: Vec<SweepRequest>,
    /// Capture indices the new cells draw from.
    miss_captures: Vec<usize>,
    /// Rounds sent so far; round `n`'s new cell is never seen before it.
    rounds: u64,
}

impl Harness {
    /// Capture the shipped programs, write and re-read the capture files,
    /// start the server, upload every capture and prime the warm cells.
    fn start(
        seed: u64,
        work: &Path,
        socket: PathBuf,
        out: &mut Outcome,
    ) -> Result<Harness, String> {
        let dir = work.join("serve-captures");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut rng = Rng::new(seed, 10);
        let mut texts = Vec::new();
        let mut warm = Vec::new();
        let mut captures = Vec::new();
        let mut miss_captures = Vec::new();
        for (i, w) in omp_mapcheck::harness::shipped_workloads()
            .into_iter()
            .enumerate()
        {
            let threads = if w.name().contains("qmc") { 2 } else { 1 };
            let ir = omp_mapcheck::capture_workload(&*w, threads)
                .map_err(|e| format!("capture {}: {e}", w.name()))?;
            let path = dir.join(format!("{i:02}.mapir"));
            std::fs::write(&path, ir.to_text()).map_err(|e| format!("write: {e}"))?;
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read: {e}"))?;
            let ir = Arc::new(MapIr::parse(&text).map_err(|e| format!("parse: {e}"))?);
            let label = format!("{i:02}-{}", w.name());
            let config = *rng.pick(&omp_mapcheck::harness::configs_for(&*w));
            let elide = *rng.pick(&[ElideKind::Off, ElideKind::Plan]);
            warm.push(
                SweepRequest::builder(label.clone(), Arc::clone(&ir))
                    .config(config)
                    .elide(elide)
                    .build()
                    .map_err(|e| format!("request {label}: {e}"))?,
            );
            if w.name().starts_with(|c: char| c.is_ascii_digit()) {
                miss_captures.push(i);
            }
            captures.push((label, ir));
            texts.push(text);
        }
        let cache_dir = work.join("serve-cache");
        let cfg = ServerConfig {
            cache: CacheMode::Dir(cache_dir.clone()),
            jobs: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind_unix(&socket, cfg).map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn();
        let client = Client::connect_unix(&socket).map_err(|e| format!("connect: {e}"))?;
        let mut s = Harness {
            handle,
            client,
            cache_dir,
            frames: 0,
            cells: 0,
            captures,
            warm,
            miss_captures,
            rounds: 0,
        };
        let ping = s.send(|c| c.ping(), 0);
        out.attempt("ping", ping);
        for text in &texts {
            let up = s.send(|c| c.capture(text), 0);
            out.attempt("capture upload", up);
        }
        let prime: Vec<(String, SweepRequest)> =
            s.warm.iter().map(|r| (r.name.clone(), r.clone())).collect();
        let primed = s.send(|c| c.sweep(&prime), prime.len() as u64);
        if let Some(resp) = out.attempt("prime", primed) {
            check_counts(&resp, 0, prime.len(), "prime", out);
        }
        Ok(s)
    }

    /// Send one frame naming `cells` cells; an `ERR`/`BUSY` answer is an
    /// error.
    fn send(
        &mut self,
        f: impl FnOnce(&mut Client) -> Result<Response, omp_batch::ProtoError>,
        cells: u64,
    ) -> Result<Response, String> {
        self.frames += 1;
        self.cells += cells;
        match f(&mut self.client) {
            Ok(r @ Response::Ok { .. }) => Ok(r),
            Ok(other) => Err(format!("{other:?}")),
            Err(e) => Err(e.message),
        }
    }

    /// The never-seen cell of round `n`: a SPEC capture in rotation under
    /// its warm configuration, a seeded elision mode and a fault seed no
    /// earlier cell used.
    fn miss_cell(&self, seed: u64, n: u64) -> SweepRequest {
        let mut rng = Rng::new(seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d), 11);
        let i = (n % self.warm.len() as u64) as usize;
        let ci = self.miss_captures[i % self.miss_captures.len()];
        let (label, ir) = &self.captures[ci];
        let base = &self.warm[ci];
        // A bijection of `n`, so no two rounds of a run share a fault seed.
        let fault_seed = Rng::new(seed, 15).next_u64().wrapping_add(n);
        SweepRequest::builder(format!("{label}-f{n}"), Arc::clone(ir))
            .config(base.config)
            .elide(*rng.pick(&[ElideKind::Off, ElideKind::Plan]))
            .fault_seed(fault_seed)
            .build()
            .expect("SPEC captures accept every configuration")
    }

    /// The cells of round `n`'s `SWEEP`: a warm cell, then the never-seen
    /// cell. Returns the warm cell's index too. A pass of `warm.len()`
    /// rounds names every warm cell once, from a seeded offset, and the
    /// same SPEC captures for its new cells.
    fn round_cells(&self, seed: u64, n: u64) -> (usize, Vec<SweepRequest>) {
        let w = self.warm.len();
        let company = (n as usize + Rng::new(seed, 12).below(w)) % w;
        (
            company,
            vec![self.warm[company].clone(), self.miss_cell(seed, n)],
        )
    }

    /// Ask for the final counters, stop the server and wait for it.
    fn finish(mut self, out: &mut Outcome) -> Option<ServerStats> {
        let stats = self.send(|c| c.stats(), 0);
        let stats = out.attempt("stats", stats);
        let stats = stats.and_then(|r| ServerStats::from_info(r.info()).ok());
        let bye = self.send(|c| c.shutdown(), 0);
        out.attempt("shutdown", bye);
        drop(self.client);
        let joined = self.handle.join();
        out.attempt("server join", joined);
        stats
    }
}

/// Check a response's `hits`/`simulated` info against the schedule.
fn check_counts(resp: &Response, hits: usize, simulated: usize, what: &str, out: &mut Outcome) {
    let got = (resp.info_get("hits"), resp.info_get("simulated"));
    out.check(
        got == (Some(&*hits.to_string()), Some(&*simulated.to_string())),
        || format!("{what}: expected hits={hits} simulated={simulated}, got {got:?}"),
    );
}

fn body(resp: Response) -> String {
    match resp {
        Response::Ok { body, .. } => body,
        _ => String::new(),
    }
}

/// The wire form of a body: non-empty bodies end in a newline.
fn framed(mut s: String) -> String {
    if !s.is_empty() && !s.ends_with('\n') {
        s.push('\n');
    }
    s
}

/// A round's answered miss, verified offline after the timed loop.
struct MissAnswer {
    cells: Vec<SweepRequest>,
    company: usize,
    body: String,
}

/// Round trips of one round, in seconds.
struct RoundTimes {
    ping: f64,
    miss: f64,
    hit: f64,
}

/// Run `f`, in a span named `name` when there is a tracer; returns its
/// value and its duration in seconds.
fn clocked<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match tr {
        Some(tr) => {
            let op = tr.op();
            let v = tr.span(op, name, |_| f());
            (v, tr.spans().last().expect("just recorded").secs())
        }
        None => {
            let t = Instant::now();
            let v = f();
            (v, t.elapsed().as_secs_f64())
        }
    }
}

/// Send one round: `PING`, then the round's `SWEEP` cold and again warm.
/// The hit must repeat the miss's body; the miss is verified later.
fn send_round(
    s: &mut Harness,
    seed: u64,
    mut tr: Option<&mut Tracer>,
    out: &mut Outcome,
) -> (Option<RoundTimes>, Option<MissAnswer>) {
    let n = s.rounds;
    s.rounds += 1;
    let (company, cells) = s.round_cells(seed, n);
    let named: Vec<(String, SweepRequest)> =
        cells.iter().map(|r| (r.name.clone(), r.clone())).collect();
    let cells_n = named.len() as u64;
    let (ping, ping_s) = clocked(&mut tr, "batch.ping", || s.send(|c| c.ping(), 0));
    out.attempt("PING", ping);
    let (miss, miss_s) = clocked(&mut tr, "batch.roundtrip_miss", || {
        s.send(|c| c.sweep(&named), cells_n)
    });
    let (hit, hit_s) = clocked(&mut tr, "batch.roundtrip_hit", || {
        s.send(|c| c.sweep(&named), cells_n)
    });
    let miss = out.attempt("SWEEP miss", miss).map(|r| {
        check_counts(&r, 1, 1, "SWEEP miss", out);
        body(r)
    });
    let hit = out.attempt("SWEEP hit", hit);
    let Some(miss) = miss else {
        return (None, None);
    };
    if let Some(hit) = hit {
        check_counts(&hit, 2, 0, "SWEEP hit", out);
        out.check(body(hit) == miss, || {
            format!("round {n}: the warm SWEEP differs from the cold one")
        });
    }
    let times = RoundTimes {
        ping: ping_s,
        miss: miss_s,
        hit: hit_s,
    };
    let answer = MissAnswer {
        cells,
        company,
        body: miss,
    };
    (Some(times), Some(answer))
}

/// The warm cells' results, computed offline with `execute` outside the
/// server.
fn offline_warm(s: &Harness, out: &mut Outcome) -> Option<Vec<SweepResult>> {
    s.warm
        .iter()
        .map(|req| out.attempt("offline execute", execute(req)))
        .collect()
}

/// A timed run of `serve-mix`.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let setup = Instant::now();
    let mut s = match Harness::start(seed, work, work.join("serve.sock"), &mut out) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || e);
            return out;
        }
    };
    // One untimed warm-up pass, counted as set-up.
    let pass_rounds = s.warm.len();
    let mut answers = Vec::new();
    for _ in 0..pass_rounds {
        answers.extend(send_round(&mut s, seed, None, &mut out).1);
    }
    out.set("setup_s", setup.elapsed().as_secs_f64());

    // Every pass holds the same requests, so each figure is the median over
    // passes of a per-pass figure, and a pass the host stalled is an outlier
    // the median passes over. Latencies are a pass's mean round trip: the
    // warm cells differ in size, and a median over all rounds would sit at
    // the gap between two cells rather than on any one of them.
    let (mut hit_s, mut miss_s, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let (cells_before, frames_before, rounds_before) = (s.cells, s.frames, s.rounds);
    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < seconds {
        let (mut hit, mut miss, mut busy) = (0.0, 0.0, 0.0);
        for _ in 0..pass_rounds {
            let (times, answer) = send_round(&mut s, seed, None, &mut out);
            answers.extend(answer);
            if let Some(t) = times {
                hit += t.hit;
                miss += t.miss;
                busy += t.ping + t.miss + t.hit;
            }
        }
        hit_s.push(hit / pass_rounds as f64);
        miss_s.push(miss / pass_rounds as f64);
        pass_s.push(busy);
    }
    let passes = ((s.rounds - rounds_before) / pass_rounds as u64) as f64;
    let pass = median(&pass_s);
    out.set(
        "cells_per_s",
        (s.cells - cells_before) as f64 / passes / pass,
    );
    out.set(
        "requests_per_s",
        (s.frames - frames_before) as f64 / passes / pass,
    );
    out.set("hit_ms_p50", median(&hit_s) * 1e3);
    out.set("miss_ms_p50", median(&miss_s) * 1e3);

    let (frames, cells) = (s.frames + 1, s.cells);
    let warm = offline_warm(&s, &mut out);
    if let Some(stats) = s.finish(&mut out) {
        out.check(stats.requests == frames, || {
            format!("STATS requests {} != frames sent {frames}", stats.requests)
        });
        out.check(stats.hits + stats.simulated == cells, || {
            format!(
                "STATS hits+simulated {} != cells sent {cells}",
                stats.hits + stats.simulated
            )
        });
    }
    if let Some(warm) = warm {
        verify_misses(&answers, &warm, &mut out);
    }
    out
}

/// Every miss body must equal the offline report of the same cells.
fn verify_misses(answers: &[MissAnswer], warm: &[SweepResult], out: &mut Outcome) {
    for m in answers {
        let new = m.cells.last().expect("a round names its new cell");
        let Some(fresh) = out.attempt("offline execute", execute(new)) else {
            continue;
        };
        let results = [warm[m.company].clone(), fresh];
        out.check(m.body == framed(render_report(&m.cells, &results)), || {
            format!("SWEEP with {} differs from the offline report", new.name)
        });
    }
}

/// Rounds of the traced serve sample.
const TRACE_ROUNDS: usize = 16;

/// Per-layer figures of a traced serve sample: rounds with each request in
/// a span, then the layers a hit passes through — cache lookup, result
/// text, report rendering — called directly on the server's warm cells.
pub fn trace_sample(seed: u64, work: &Path, tr: &mut Tracer, out: &mut Outcome) {
    let mut s = match Harness::start(seed, work, work.join("trace.sock"), out) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || e);
            return;
        }
    };
    let (mut bytes, mut secs) = (0usize, 0.0);
    for (_, ir) in &s.captures {
        let op = tr.op();
        let text = tr.span(op, "core.mapir_text", |_| ir.to_text());
        bytes += text.len();
        secs += tr.spans().last().expect("just recorded").secs();
    }
    out.set("core.mapir_text_mb_per_s", bytes as f64 / secs / 1e6);
    let sampled_before = s.cells;
    for _ in 0..TRACE_ROUNDS {
        send_round(&mut s, seed, Some(&mut *tr), out);
    }
    out.set("batch.ping_us", median(&tr.secs_of("batch.ping")) * 1e6);
    let sampled = s.cells - sampled_before;

    // The warm cells as the server cached them.
    let cache = ResultCache::open(&CacheMode::Dir(s.cache_dir.clone()));
    let mut found = Vec::new();
    for req in &s.warm {
        for _ in 0..4 {
            let op = tr.op();
            let hit = tr.span(op, "batch.cache_lookup", |_| cache.lookup(req));
            out.attempt("cache lookup", hit.ok_or("a primed cell is not cached"));
        }
        if let Some(r) = cache.lookup(req) {
            for _ in 0..4 {
                let op = tr.op();
                std::hint::black_box(tr.span(op, "batch.result_text", |_| r.to_text()));
            }
            found.push(r);
        }
    }
    if found.len() == s.warm.len() {
        for _ in 0..8 {
            let op = tr.op();
            std::hint::black_box(tr.span(op, "batch.render_report", |_| {
                render_report(&s.warm, &found)
            }));
        }
    }
    out.set(
        "batch.cache_lookup_us",
        median(&tr.secs_of("batch.cache_lookup")) * 1e6,
    );
    out.set(
        "batch.result_text_us",
        median(&tr.secs_of("batch.result_text")) * 1e6,
    );
    out.set(
        "batch.render_report_us",
        median(&tr.secs_of("batch.render_report")) * 1e6,
    );
    if let Some(stats) = s.finish(out) {
        // Priming simulated every warm cell and hit nothing, so every hit
        // the server counted belongs to the sampled rounds.
        out.set("batch.hit_ratio", stats.hits as f64 / sampled as f64);
    }
}

/// Exact work of one round: (cells answered from the cache, cells
/// simulated, requests).
pub fn round_counters() -> (usize, usize, usize) {
    (3, 1, 3)
}
