//! Measuring on a shared virtual machine.
//!
//! On a virtual machine an idle vCPU halts, and waking it again costs a
//! trip through the host's scheduler, whose delay follows the host's load
//! and shows as steal time. Light-load serving wakes CPUs several times
//! per request, so that delay swamped the serving figures from one run to
//! the next. [`Awake`] runs one spinner per CPU at the `SCHED_IDLE` policy:
//! it keeps every CPU running without taking time from normal threads, as
//! the kernel preempts an idle-policy thread as soon as a normal one
//! becomes runnable. Where the policy is unavailable the spinners exit at
//! once rather than compete.
//!
//! A busy host still deschedules running vCPUs. [`StealMeter`] reads how
//! much CPU time the host took (`/proc/stat` steal), and [`Host`] combines
//! the two for a timed phase: with every vCPU kept runnable, the stolen
//! share applies evenly to whatever the benchmark times.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct Awake {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Awake {
    pub fn start(cpus: usize) -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if idle_policy() {
                        while !stop.load(Ordering::Relaxed) {}
                    }
                })
            })
            .collect();
        Awake { stop, handles }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`; returns whether it worked.
#[cfg(target_os = "linux")]
fn idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        // Provided by libc, which std already links.
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, SCHED_IDLE takes priority 0,
    // and `param` is a live, properly laid out `struct sched_param`.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn idle_policy() -> bool {
    false
}

/// The share of CPU time the host took from this machine between
/// `start` and [`StealMeter::share`]; 0 where steal is not reported.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((total0, steal0)), Some((total1, steal1))) if total1 > total0 => {
                steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
            }
            _ => 0.0,
        }
    }
}

/// All CPU ticks and stolen ticks so far, summed over CPUs.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields.iter().sum(), fields[7]))
}

/// A timed phase on a shared host: every CPU kept running and the host's
/// steal metered.
pub struct Host {
    awake: Awake,
    steal: StealMeter,
}

impl Host {
    pub fn start() -> Host {
        Host {
            awake: Awake::start(crate::nproc()),
            steal: StealMeter::start(),
        }
    }

    /// Stops the spinners and returns the share of CPU time the host left
    /// this machine, `1 - steal`. A vCPU the host deschedules makes no
    /// progress, so wall time stretches by `1 / kept`; the benchmark
    /// multiplies its times by `kept` (and divides its rates by it), which
    /// leaves them unchanged on a host that steals nothing.
    pub fn finish(self) -> f64 {
        let kept = 1.0 - self.steal.share();
        drop(self.awake);
        kept
    }
}
