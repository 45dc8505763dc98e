//! The machine header every result carries, and process memory.

use std::hint::black_box;
use std::time::Instant;

/// What the numbers of a run depend on besides the code.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// Hardware threads the OS reports.
    pub nproc: usize,
    /// Worker threads `kanon-parallel` uses (`KANON_THREADS` or nproc).
    pub threads: usize,
    /// Measured speed-up of `threads` CPU-bound spinners over one: how
    /// many cores' worth of work the machine actually delivers.
    pub parallelism: f64,
}

impl Machine {
    /// Probes the machine (about a quarter of a second).
    pub fn probe() -> Machine {
        let nproc = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let threads = kanon_parallel::num_threads();
        Machine {
            nproc,
            threads,
            parallelism: parallelism(threads),
        }
    }

    /// The header line printed at the top of every run.
    pub fn header(&self) -> String {
        format!(
            "# machine: nproc={} threads={} effective_parallelism={:.3}",
            self.nproc, self.threads, self.parallelism
        )
    }
}

/// A fixed amount of integer work no compiler can fold away.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// `threads × t(1 spinner) / t(threads spinners)`: 2.0 on two idle
/// cores, about 1.0 when the threads share one core's worth of time.
fn parallelism(threads: usize) -> f64 {
    const ITERS: u64 = 30_000_000;
    let threads = threads.max(1);
    spin(ITERS / 10); // warm up the clock
    let t = Instant::now();
    spin(ITERS);
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| spin(ITERS));
        }
    });
    let many = t.elapsed().as_secs_f64();
    threads as f64 * one / many
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
