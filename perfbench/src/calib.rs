//! Calibrated timing: every timed call's wall time, and the same time in
//! units of a calibration sort measured on the same CPU while the call ran.
//!
//! On a shared host the speed of one CPU swings by up to half as the
//! neighbour on its hyperthread sibling comes and goes, within milliseconds
//! as well as for tens of seconds. Links and simulator runs (branchy,
//! cache-resident code) swing with it, and so does an unstable sort of a
//! few thousand random words, while ALU-bound and DRAM-bound kernels hardly
//! move. The [`Meter`] therefore pins the benchmark to one CPU and runs a
//! second thread there that sorts [`CAL_WORDS`] words every [`CAL_PERIOD`],
//! taking about 2% of the CPU. A call's time over the mean sort time while
//! it ran stays within a few percent from run to run and moves only when
//! the program's own speed does; its wall time swings by a third.
//!
//! Pinning runs any threads the program starts on that one CPU too; the
//! program links and simulates on one thread.

use om_prng::StdRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Words one calibration sort orders: 32 KiB, about 85 µs.
const CAL_WORDS: usize = 4_000;

/// Pause between two calibration sorts.
const CAL_PERIOD: Duration = Duration::from_millis(5);

/// Seconds of one `cal` at the reference speed: about the median time of
/// one calibration sort on the host this was written on. It converts the
/// one calibrated time that must be reported in seconds, `setup_s`.
pub const REF_CAL_S: f64 = 80e-6;

/// Fewest sorts a call is calibrated against: a call shorter than a few
/// periods takes the sorts nearest to it in time.
const CAL_MIN_SORTS: usize = 4;

/// One timed call: when it started and ended, in seconds since the meter
/// started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: f64,
    end: f64,
}

/// The calls that make one sample, such as one call per program.
#[derive(Debug, Default, Clone)]
pub struct Sample(Vec<Span>);

impl Sample {
    pub fn push(&mut self, span: Span) {
        self.0.push(span);
    }
}

impl From<Span> for Sample {
    fn from(span: Span) -> Sample {
        Sample(vec![span])
    }
}

type Sorts = Arc<Mutex<Vec<(f64, f64)>>>;

/// Times calls while a calibration thread sorts on the same CPU.
pub struct Meter {
    epoch: Instant,
    sorts: Sorts,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

impl Meter {
    /// Pins this thread, and every thread it starts from now on, to the CPU
    /// it runs on, and starts the calibration thread there.
    pub fn start() -> Meter {
        match pin_to_this_cpu() {
            Some(cpu) => eprintln!("omperf: pinned to CPU {cpu}"),
            None => eprintln!("omperf: cannot pin to one CPU; calibration may see another CPU"),
        }
        let epoch = Instant::now();
        let sorts = Sorts::default();
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (sorts, stop) = (Arc::clone(&sorts), Arc::clone(&stop));
            std::thread::spawn(move || calibrate(epoch, &sorts, &stop))
        };
        Meter {
            epoch,
            sorts,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Runs `f`; returns its result and when it ran.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Span) {
        let start = self.epoch.elapsed().as_secs_f64();
        let v = f();
        let end = self.epoch.elapsed().as_secs_f64();
        (v, Span { start, end })
    }

    /// Stops the calibration thread and returns the sorts it timed.
    pub fn finish(mut self) -> Calibration {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            h.join().expect("calibration thread panicked");
        }
        let sorts = std::mem::take(&mut *self.sorts.lock().expect("calibration thread panicked"));
        Calibration { sorts }
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

/// The calibration thread: sorts a fixed copy of the same random words
/// every [`CAL_PERIOD`] and records (midpoint, seconds) of each sort.
fn calibrate(epoch: Instant, sorts: &Mutex<Vec<(f64, f64)>>, stop: &AtomicBool) {
    // The same words in every run, whatever the workload's seed.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let input: Vec<u64> = (0..CAL_WORDS).map(|_| rng.next_u64()).collect();
    let mut buf = input.clone();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(CAL_PERIOD);
        // The copy brings the words into cache, so the sort's time does not
        // depend on what the program left there.
        buf.copy_from_slice(&input);
        let t0 = Instant::now();
        buf.sort_unstable();
        let secs = t0.elapsed().as_secs_f64();
        black_box(&buf);
        let mid = t0.duration_since(epoch).as_secs_f64() + secs / 2.0;
        sorts
            .lock()
            .expect("main thread panicked")
            .push((mid, secs));
    }
}

/// The sorts a run timed, in time order.
#[derive(Debug, Default)]
pub struct Calibration {
    sorts: Vec<(f64, f64)>,
}

impl Calibration {
    /// A sample's wall seconds, and the same in `cal` units: each call's
    /// seconds over the mean time of the sorts that ran during it (at least
    /// [`CAL_MIN_SORTS`], the nearest ones), summed over the calls. NaN
    /// without any sort.
    pub fn value(&self, s: &Sample) -> (f64, f64) {
        let secs = s.0.iter().map(|c| c.end - c.start).sum();
        let cal = s.0.iter().map(|c| (c.end - c.start) / self.sort_s(c)).sum();
        (secs, cal)
    }

    /// Mean seconds of the sorts during `c`, widened to the nearest ones
    /// until there are [`CAL_MIN_SORTS`].
    fn sort_s(&self, c: &Span) -> f64 {
        let t = &self.sorts;
        let mut i = t.partition_point(|s| s.0 < c.start);
        let mut j = t.partition_point(|s| s.0 <= c.end);
        while j - i < CAL_MIN_SORTS && (i > 0 || j < t.len()) {
            let before = i.checked_sub(1).map_or(f64::INFINITY, |k| c.start - t[k].0);
            let after = t.get(j).map_or(f64::INFINITY, |s| s.0 - c.end);
            if before <= after {
                i -= 1;
            } else {
                j += 1;
            }
        }
        let window = &t[i..j];
        window.iter().map(|s| s.1).sum::<f64>() / window.len() as f64
    }

    /// Every sort's seconds.
    pub fn sort_secs(&self) -> Vec<f64> {
        self.sorts.iter().map(|s| s.1).collect()
    }
}

/// Pins the calling thread, and the threads it starts later, to the CPU it
/// is running on, and returns that CPU. None where that is not possible.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_this_cpu() -> Option<usize> {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    let cpu = this_cpu()?;
    let mut mask = [0u64; 16];
    let word = mask.get_mut(cpu / 64)?;
    *word = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(0, len, mask) only reads `len` bytes at
    // `mask`, which is a live local array of exactly that size, and changes
    // no memory of this process; rcx and r11, which `syscall` clobbers, are
    // declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_this_cpu() -> Option<usize> {
    None
}

/// The CPU the calling thread last ran on: field 39 of its stat file.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn this_cpu() -> Option<usize> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields after the command name, which is in parentheses and may hold
    // spaces, start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(39 - 3)?.parse().ok()
}
