//! The host's clocks and noise diagnostics: how much of the machine a
//! run actually got.
//!
//! On a shared VM a slowdown can come from the host rather than the
//! code: the hypervisor steals the vCPU, neighbours are given the CPU,
//! or neighbours slow the CPU down while this thread has it. The
//! benchmark therefore times its work by this thread's CPU clock, which
//! stops while the thread is off the CPU, and states it at one host
//! speed by a fixed reference timed alongside ([`reference_ms`]). Each
//! run also reports the hypervisor's steal share over its timed phase,
//! the CPU time its one thread received per wall second, and the
//! reference's time, so a reader can tell a noisy host from a slower
//! program.

use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// CPU time used so far, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct CpuTime {
    /// This thread's, to within microseconds.
    pub thread_s: f64,
    /// The whole process's, every thread live or exited, to the clock
    /// tick (10 ms).
    pub process_s: f64,
}

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat`: 100 on
/// every Linux ABI.
const CLOCK_TICKS_PER_S: f64 = 100.0;

impl CpuTime {
    /// Reads both clocks now, or `None` where procfs does not give them.
    pub fn now() -> Option<CpuTime> {
        // Reading the process's own `stat` makes the kernel bring this
        // thread's run time up to date, so `schedstat`, read next, is
        // exact; on its own it lags by up to a scheduler tick (4 ms at
        // 250 Hz).
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let thread_ns = thread_cpu_ns()?;
        // Fields 14 and 15 of stat(5), utime and stime, counted from the
        // state field that follows the parenthesised command name.
        let fields: Vec<&str> = stat
            .get(stat.rfind(')')? + 2..)?
            .split_whitespace()
            .collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(CpuTime {
            thread_s: thread_ns as f64 / 1e9,
            process_s: ticks as f64 / CLOCK_TICKS_PER_S,
        })
    }
}

/// What a piece of work cost, by the wall clock and by this thread's
/// CPU clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    /// Wall seconds.
    pub wall_s: f64,
    /// Seconds this thread ran on a CPU: the wall time less what other
    /// processes were given meanwhile and, where the kernel accounts
    /// it, what the hypervisor stole (the wall time where the host gives
    /// no CPU clock).
    pub cpu_s: f64,
}

/// A reading of the host and process clocks at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    wall: Instant,
    cpu: Option<CpuTime>,
    /// `(steal, total)` jiffies of the `cpu` line of `/proc/stat`.
    host_jiffies: Option<(u64, u64)>,
}

impl Snapshot {
    /// Reads the clocks now.
    pub fn take() -> Snapshot {
        Snapshot {
            wall: Instant::now(),
            cpu: CpuTime::now(),
            host_jiffies: host_jiffies(),
        }
    }

    /// Reads only the wall and CPU clocks, as around a timed pass.
    pub fn clocks() -> Snapshot {
        Snapshot {
            cpu: CpuTime::now(),
            wall: Instant::now(),
            host_jiffies: None,
        }
    }

    /// Wall and thread CPU time from `self` to `later`.
    pub fn spent_until(&self, later: &Snapshot) -> Spent {
        let wall_s = (later.wall - self.wall).as_secs_f64();
        let cpu_s = match (self.cpu, later.cpu) {
            (Some(a), Some(b)) => (b.thread_s - a.thread_s).max(0.0),
            _ => wall_s,
        };
        Spent { wall_s, cpu_s }
    }

    /// CPU seconds the process's other threads used from `self` to
    /// `later`, to within two clock ticks (0 where the host gives no CPU
    /// clock).
    pub fn other_threads_s(&self, later: &Snapshot) -> f64 {
        match (self.cpu, later.cpu) {
            (Some(a), Some(b)) => {
                ((b.process_s - a.process_s) - (b.thread_s - a.thread_s)).max(0.0)
            }
            _ => 0.0,
        }
    }
}

/// CPU seconds other threads may show over a phase before it counts as
/// having run on more than one thread: the two clock ticks the process
/// clock can be off by, and a little.
pub const OTHER_THREADS_TOLERANCE_S: f64 = 0.05;

/// Steal share (percent of all host CPU time) and CPU-per-wall of this
/// thread between two snapshots. A value the host does not expose reads
/// 0 steal and 1 CPU per wall second.
pub fn noise(from: &Snapshot, to: &Snapshot) -> (f64, f64) {
    let steal_pct = match (from.host_jiffies, to.host_jiffies) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    };
    let spent = from.spent_until(to);
    let cpu_per_wall = if spent.wall_s > 0.0 {
        spent.cpu_s / spent.wall_s
    } else {
        1.0
    };
    (steal_pct, cpu_per_wall)
}

fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

fn host_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted inside user, so the total stops at
    // steal.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().sum()))
}

/// Threads in this process, from `/proc/self/task` (1 where the host
/// has no procfs, so the check cannot fail spuriously there).
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |dir| dir.count())
}

/// A fixed piece of work timed between the blocks of a run, so that a
/// block's rate can be stated at one host speed; see [`reference_ms`].
///
/// On a shared VM the CPU clock removes time the thread was off the
/// CPU, but not how fast the CPU ran while it was on it: neighbours on
/// the same physical core and its caches, and the clock frequency the
/// busy host allows, slowed every workload by 1.4 to 1.7 times for tens
/// of minutes at a stretch, with the ALU loop alone 1.3 times slower.
/// The reference is timed right after each block, under the same
/// conditions, and has three parts, one per way the host slows code
/// down: a dependent ALU chain (clock frequency), a sort of 64 Ki
/// doubles (branches, L1 and L2), and a pointer chase through 1 MiB
/// (cache latency). Its time is their geometric mean. Its input is
/// fixed, whatever the workload seed.
struct Reference {
    doubles: Vec<f64>,
    scratch: Vec<f64>,
    cycle: Vec<u32>,
}

/// Doubles the reference sorts.
const SORTED: usize = 64 * 1024;

/// Slots of the reference's pointer chase: 1 MiB of `u32`.
const CHASED: usize = 256 * 1024;

/// Bytes the reference holds once built: its three buffers.
const REFERENCE_BYTES: usize =
    2 * SORTED * std::mem::size_of::<f64>() + CHASED * std::mem::size_of::<u32>();

/// The scale of a reference second: a round figure near the reference's
/// time on the machine the benchmark was tuned on, a 2-vCPU KVM guest on
/// a Xeon (CPU model 143), where it took 4.8 to 5.1 ms while neighbours
/// loaded the host.
pub const REFERENCE_NOMINAL_MS: f64 = 4.0;

impl Reference {
    fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let doubles = (0..SORTED).map(|_| (next() >> 11) as f64).collect();
        // One cycle through every slot, in a shuffled order, so each load
        // depends on the one before and no two runs of it differ.
        let mut order: Vec<u32> = (0..CHASED as u32).collect();
        for i in (1..CHASED).rev() {
            order.swap(i, (next() % i as u64) as usize);
        }
        let mut cycle = vec![0u32; CHASED];
        for k in 0..CHASED {
            cycle[order[k] as usize] = order[(k + 1) % CHASED];
        }
        Reference {
            doubles,
            scratch: vec![0.0; SORTED],
            cycle,
        }
    }

    /// CPU milliseconds of one run: the geometric mean of its parts'.
    fn time_ms(&mut self) -> f64 {
        let chain = cpu_ms(|| {
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..black_box(2_000_000u64) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            x
        });
        let (doubles, scratch) = (&self.doubles, &mut self.scratch);
        let sort = cpu_ms(|| {
            scratch.copy_from_slice(black_box(doubles));
            scratch.sort_unstable_by(f64::total_cmp);
            scratch[SORTED / 2].to_bits()
        });
        let cycle = &self.cycle;
        let chase = cpu_ms(|| {
            let mut at = 0u32;
            for _ in 0..black_box(500_000) {
                at = cycle[at as usize];
            }
            u64::from(at)
        });
        (chain * sort * chase).cbrt()
    }
}

/// The one reference of the process, built on first use.
static REFERENCE: OnceLock<Mutex<Reference>> = OnceLock::new();

/// CPU milliseconds of one run of the reference. The first call
/// also builds it, and `main` makes that call before any measurement,
/// so its memory is resident, and known, from the start.
pub fn reference_ms() -> f64 {
    REFERENCE
        .get_or_init(|| Mutex::new(Reference::new()))
        .lock()
        .expect("the reference is never held across a panic")
        .time_ms()
}

/// `cpu_s` of work measured while the reference took `reference_ms`,
/// restated in reference seconds: the seconds it would have taken on a
/// host where the reference takes [`REFERENCE_NOMINAL_MS`].
pub fn reference_seconds(cpu_s: f64, reference_ms: f64) -> f64 {
    cpu_s * REFERENCE_NOMINAL_MS / reference_ms
}

/// CPU milliseconds `work` takes on this thread.
fn cpu_ms(work: impl FnOnce() -> u64) -> f64 {
    let start = Snapshot::clocks();
    black_box(work());
    start.spent_until(&Snapshot::clocks()).cpu_s * 1e3
}

/// The process's peak resident set (`VmHWM`), less the reference's
/// buffers once it is built, in MiB (0 where the host does not report
/// it).
pub fn peak_rss_mib() -> f64 {
    let reference = if REFERENCE.get().is_some() {
        REFERENCE_BYTES
    } else {
        0
    };
    yav_telemetry::peak_rss_bytes().map_or(0.0, |bytes| {
        bytes.saturating_sub(reference as u64) as f64 / (1024.0 * 1024.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        assert!(thread_count() >= 1);
        let a = Snapshot::take();
        let ms = reference_ms();
        let b = Snapshot::take();
        assert!(ms > 0.0 && ms < 1e3, "reference {ms} ms");
        assert_eq!(reference_seconds(2.0, REFERENCE_NOMINAL_MS * 2.0), 1.0);
        let (steal, cpu) = noise(&a, &b);
        assert!((0.0..=100.0).contains(&steal));
        assert!(cpu > 0.0 && cpu < 1.5, "cpu per wall {cpu}");
        let spent = a.spent_until(&b);
        assert!(spent.cpu_s > 0.0 && spent.cpu_s <= spent.wall_s * 1.01);
        assert!(peak_rss_mib() > 0.0);
    }
}
