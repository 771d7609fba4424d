//! Per-run host record: diagnostics, not metrics.
//!
//! On a shared host, a run can slow down because the host is busy
//! rather than because the program changed. Each run therefore records
//! CPU steal, CPU time used by other processes, and the time of a fixed
//! probe kernel before and after it, so two runs can be compared for
//! host drift. The same probe, interleaved with the timed work, scales
//! every workload's timings to a nominal host speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, 100 on
/// Linux).
pub const TICKS_PER_S: f64 = 100.0;

/// Aggregate `/proc/stat` CPU line: (busy ticks, steal ticks).
fn system_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Steal ticks a timed sample may contain and still be used.
pub const STEAL_FREE_TICKS: u64 = 1;
/// Most runs of one timed sample.
pub const ATTEMPTS: usize = 3;

/// Host steal ticks so far, summed over CPUs.
pub fn steal_ticks() -> u64 {
    system_ticks().1
}

/// A window without steal ticks that counts as a quiet host.
const QUIET_WINDOW: Duration = Duration::from_millis(250);
/// Longest a run waits for a quiet host, in all. It bounds how much a
/// steal storm can lengthen a run.
const MAX_WAIT: Duration = Duration::from_secs(12);
/// Time this run has waited for a quiet host, ms.
static WAITED_MS: AtomicU64 = AtomicU64::new(0);

/// Wait until the host steals nothing for a [`QUIET_WINDOW`], unless
/// this run has already waited [`MAX_WAIT`]. Steal comes in storms that
/// last from seconds to minutes; a run that starts in one, or a sample
/// run again during one, would be stolen from again.
pub fn wait_quiet() {
    while WAITED_MS.load(Ordering::Relaxed) < MAX_WAIT.as_millis() as u64 {
        let steal0 = steal_ticks();
        std::thread::sleep(QUIET_WINDOW);
        WAITED_MS.fetch_add(QUIET_WINDOW.as_millis() as u64, Ordering::Relaxed);
        if steal_ticks() == steal0 {
            return;
        }
    }
}

/// One run of `f`: its output, wall time, this process's CPU time and
/// the host's steal ticks while it ran.
pub struct Timed<T> {
    pub out: T,
    pub secs: f64,
    pub cpu_ns: u64,
    pub steal: u64,
}

/// Run `f` once, timed.
pub fn measure<T>(f: impl FnOnce() -> Result<T, String>) -> Result<Timed<T>, String> {
    let steal0 = steal_ticks();
    let cpu0 = process_cpu_ns();
    let t = Instant::now();
    let out = f()?;
    let secs = t.elapsed().as_secs_f64();
    Ok(Timed {
        out,
        secs,
        cpu_ns: process_cpu_ns() - cpu0,
        steal: steal_ticks() - steal0,
    })
}

/// The benchmark's one rule for host steal, used alike for set-ups,
/// session batches and `verify-gen` ops: run `f` until a run sees at
/// most [`STEAL_FREE_TICKS`] steal ticks, and at most [`ATTEMPTS`]
/// times, waiting for a quiet host before each repeat. Every run is
/// returned, so that every output can be checked; the last run is the
/// one that is timed, which is the first steal-free run, or the last
/// run when none was.
pub fn timed<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<Timed<T>>, String> {
    let mut runs = Vec::new();
    while runs.len() < ATTEMPTS {
        if !runs.is_empty() {
            wait_quiet();
        }
        let run = measure(&mut f)?;
        let clean = run.steal <= STEAL_FREE_TICKS;
        runs.push(run);
        if clean {
            break;
        }
    }
    Ok(runs)
}

/// Set-up repetitions in a run.
pub const SETUP_REPS: usize = 10;

/// Shortest wall time, in seconds, of [`SETUP_REPS`] set-ups, each timed
/// by the rule of [`timed`]. Every other repetition runs on a new
/// thread. The scheduler places a new thread on the CPU the caller is
/// not on, so the repetitions cover both CPUs of a two-CPU host. On a
/// shared 2-vCPU VM one CPU was often slower than the other for minutes
/// at a time, and a set-up that ran only on the caller's CPU read about
/// 18 ms or about 30 ms depending on where the process happened to start.
pub fn setup_min(mut f: impl FnMut() -> Result<(), String> + Send) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for rep in 0..SETUP_REPS {
        let runs = if rep % 2 == 0 {
            timed(&mut f)?
        } else {
            std::thread::scope(|s| s.spawn(|| timed(&mut f)).join())
                .map_err(|_| "set-up thread panicked".to_string())??
        };
        best = best.min(runs.last().expect("at least one run").secs);
    }
    Ok(best)
}

/// Median, in seconds, of [`SETUP_REPS`] set-ups, each timed by the
/// rule of [`timed`] on one CPU (the process's CPUs in turn) between two
/// host probes on that CPU, and scaled to the nominal host by their
/// median wall time, as `verify-gen` scales its ops. For set-ups that
/// run on one thread.
pub fn setup_scaled(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let cpus = allowed_cpus();
    let mut reps = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        pin(&[cpus[rep % cpus.len()]]);
        let before = probe();
        let secs = timed(&mut f)?.last().expect("at least one run").secs;
        let (fw, _) = scale_factors(&[before, probe()]);
        reps.push(secs * fw);
    }
    pin(&cpus);
    Ok(crate::stats::median(&crate::stats::sorted(reps)))
}

/// CPU time of this process, user and system, exited threads
/// included, in nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`). Unlike the
/// tick counts of `/proc/self/stat`, it does not move in 10 ms steps.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Reset this process's `VmHWM` to its current resident size (Linux
/// `clear_refs` 5). Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Width of the probe's state vectors; at 5 its graph has 3009 states
/// and 9027 edges.
const PROBE_WIDTH: usize = 5;

/// One run of the host probe: a fixed, deterministic kernel owned by the
/// benchmark, shaped like the verifier's work. On a new thread with a
/// 256 MiB stack, as `verify::harness::with_big_stack` runs each
/// verification, it explores a fixed graph of 3009 states breadth
/// first, keyed by heap-allocated state vectors in a `HashMap`, and
/// sorts its edge list. Its input never changes, so its time moves
/// only with the host: CPU speed, cache and memory contention, and,
/// unless the caller is confined to one CPU, the latency of waking a
/// thread on the other CPU. Returns wall and process CPU time, in
/// nanoseconds.
pub fn probe() -> (u64, u64) {
    use std::collections::{HashMap, VecDeque};
    let cpu0 = process_cpu_ns();
    let t = Instant::now();
    let edges = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn_scoped(s, || {
                let mut seen: HashMap<Vec<u32>, u32> = HashMap::new();
                let mut queue = VecDeque::new();
                seen.insert(vec![0; PROBE_WIDTH], 0);
                queue.push_back(vec![0u32; PROBE_WIDTH]);
                let mut edges = Vec::new();
                while let Some(state) = queue.pop_front() {
                    let from = seen[&state];
                    for k in 0..3u32 {
                        let mut next = state.clone();
                        let i = (state.iter().sum::<u32>() + k) as usize % PROBE_WIDTH;
                        next[i] = (next[i] * 7 + k + 1) % 5;
                        let to = match seen.get(&next) {
                            Some(&to) => to,
                            None => {
                                let to = seen.len() as u32;
                                seen.insert(next.clone(), to);
                                queue.push_back(next);
                                to
                            }
                        };
                        edges.push((from, to));
                    }
                }
                edges.sort_unstable();
                edges.len()
            })
            .expect("spawn probe thread")
            .join()
            .expect("probe thread panicked")
    });
    std::hint::black_box(edges);
    (t.elapsed().as_nanos() as u64, process_cpu_ns() - cpu0)
}

/// Nominal probe wall and CPU time, ns. Confined to one CPU, as
/// `verify-gen` runs it, the probe's median over 200 runs read between
/// 1.5 and 2.2 ms on each CPU of a 2-vCPU KVM guest of a shared x86-64
/// machine, moving from minute to minute; wall and CPU time agree there.
/// Scaled timings are stated for a host on which it takes 2.0 ms.
pub const PROBE_NOMINAL_WALL_NS: f64 = 2.0e6;
pub const PROBE_NOMINAL_CPU_NS: f64 = 2.0e6;

/// Probe every this much timed work.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);

/// Factors that scale wall and CPU times sampled alongside `probes`
/// (each `(wall_ns, cpu_ns)`) to the nominal host: nominal probe time ÷
/// the probes' median time.
pub fn scale_factors(probes: &[(u64, u64)]) -> (f64, f64) {
    assert!(!probes.is_empty(), "no probes");
    let median = |f: &dyn Fn(&(u64, u64)) -> u64| {
        crate::stats::median(&crate::stats::sorted(
            probes.iter().map(|p| f(p) as f64).collect(),
        ))
    };
    (
        PROBE_NOMINAL_WALL_NS / median(&|p| p.0),
        PROBE_NOMINAL_CPU_NS / median(&|p| p.1),
    )
}

/// A `cpu_set_t`: one bit per CPU.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..16 * 64)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Confine the calling thread, and the threads it spawns from now on,
/// to `cpus`.
pub fn pin(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// One sample of the host counters.
#[derive(Clone, Copy, Debug)]
pub struct HostSample {
    busy: u64,
    steal: u64,
    own: u64,
    probe_ms: f64,
}

impl HostSample {
    pub fn take() -> HostSample {
        let probe_ms = probe().0 as f64 / 1e6;
        let (busy, steal) = system_ticks();
        HostSample {
            busy,
            steal,
            own: process_cpu_ns() / (1e9 / TICKS_PER_S) as u64,
            probe_ms,
        }
    }
}

/// The host record of one run, as a JSON object.
pub fn record_json(before: &HostSample, after: &HostSample, wall_s: f64) -> String {
    let steal = after.steal.saturating_sub(before.steal);
    let busy = after.busy.saturating_sub(before.busy);
    let own = after.own.saturating_sub(before.own);
    format!(
        "{{\"wall_s\":{wall_s:.3},\"waited_quiet_s\":{:.2},\"steal_ticks\":{steal},\"busy_ticks_other\":{},\
         \"busy_ticks_own\":{own},\"ticks_per_s\":{TICKS_PER_S},\
         \"probe_ms_before\":{:.3},\"probe_ms_after\":{:.3},\"nproc\":{}}}",
        WAITED_MS.load(Ordering::Relaxed) as f64 / 1e3,
        busy.saturating_sub(own),
        before.probe_ms,
        after.probe_ms,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}
