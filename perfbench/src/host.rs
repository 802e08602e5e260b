//! Facts about the host a run executed on, read-only from `/proc`, so that
//! a noisy run can be recognised for what it is: processor count and
//! model, kernel release, the share of the run's CPU time the hypervisor
//! stole, and the process's peak resident memory. Also the
//! one scheduling choice the benchmark makes for itself: it runs on a
//! single CPU.

use crate::report::json_str;

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Current counters of `cpu`, or of all CPUs (all zero where
    /// `/proc/stat` is unreadable).
    pub fn now(cpu: Option<usize>) -> CpuTicks {
        let prefix = cpu.map_or_else(|| "cpu ".to_string(), |c| format!("cpu{c} "));
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with(&prefix)) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user/nice and is not counted twice).
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of all CPU ticks since `earlier` that were stolen.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask (1024 CPUs).
const MASK_WORDS: usize = 16;

/// Pin the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on; returns that CPU. On a small VM the
/// closed-loop client, the server's connection thread and its sweep thread
/// hand every request to each other: pinned, those are same-CPU switches,
/// unpinned each is a cross-CPU wake-up that waits whenever the hypervisor
/// has descheduled the other vCPU, which made the serve figures move with
/// steal time far more than in proportion. Only this process's own
/// affinity changes.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // `mask`, a live, aligned buffer of exactly that size; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&one)` bytes from `one`, a
    // live, aligned buffer of exactly that size; pid 0 is the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The run header, printed on stdout ahead of the result.
pub struct Header<'a> {
    /// Workload run.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Processors the machine offers.
    pub nproc: usize,
    /// The CPU the run pinned itself to.
    pub pinned_cpu: Option<usize>,
    /// Share of the run's CPU ticks the hypervisor stole.
    pub steal_share: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Header<'_> {
    /// One JSON object, `{"header": {...}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
             \"pinned_cpu\": {}, \"cpu_model\": {}, \"kernel\": {}, \"steal_share\": {:?}, \
             \"attempted\": {}, \"failed\": {}}}}}",
            json_str(self.workload),
            self.seed,
            u8::from(self.trace),
            self.nproc,
            self.pinned_cpu
                .map_or_else(|| "null".to_string(), |c| c.to_string()),
            json_str(&cpu_model()),
            json_str(&kernel_release()),
            self.steal_share,
            self.attempted,
            self.failed,
        )
    }
}
