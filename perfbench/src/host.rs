//! Host-speed reference for the timed metrics.
//!
//! The benchmark shares a few cores of a host whose speed drifts by tens of
//! percent over seconds to minutes as its neighbours come and go: on the
//! development VM one single-threaded loop ran 55% slower from one
//! ten-second stretch to the next while the hypervisor's steal share stayed
//! below 1%, and in other stretches the steal share reached 20%. Two
//! measurements follow that drift. A calibration pass times fixed kernels
//! that use no code of the program, on two threads at once: bit extraction
//! over 256 KiB (in-cache compute) and, around the bulk loads, a 4 MiB copy
//! (memory bandwidth). `/proc/stat` gives the share of the machine's time
//! the hypervisor gave to others between passes, which the short kernels
//! mostly run between and so miss.
//!
//! Each timed loop runs one pass per cycle of its query mix, on a thread
//! that sends the queries and while no query is in flight; `ingest-scan`'s
//! reader runs one after each batch while the writer waits. The loop's
//! `latency_p50_ms` is scaled by the compute kernel's speed (a median skips
//! the stretches the hypervisor took); `qps`, and `ingest-scan`'s set-up
//! times and ingest rate, by the capacity, speed × (1 − steal share). Each
//! set-up of the load-only workloads is bracketed by two passes of both
//! kernels, and scaled by their geometric mean speed × (1 − steal share):
//! a bulk load streams the row-form input, and followed the copy where the
//! compute kernel alone missed it. The details line keeps the unscaled
//! figures, the speeds and the steal shares.
//!
//! The copy is not used for the loops, nor random reads over a 4 MiB
//! table: their times moved by 20–50% between runs in which the queries'
//! did not.

use crate::common::{cpu_ticks, median};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Median time of the compute kernel, in ms, on the development VM (a
/// 2-vCPU Xeon guest) at its usual speed: the host of speed 1.
const REFERENCE_MS: f64 = 0.45;

/// Threads a pass runs the kernel on at once. Every workload keeps two
/// threads busy (two connections, two engine workers, a writer beside a
/// reader), so a host that lends the VM less than two cores' worth of time
/// must show as a slower pass.
const LANES: usize = 2;

const WORDS: usize = 32 << 10;
/// Passes of the kernel over its words.
const PASSES: usize = 16;

/// The compute kernel's input, 256 KiB, built once and shared by every
/// lane.
fn words() -> &'static [u64] {
    static WORDS_: OnceLock<Vec<u64>> = OnceLock::new();
    WORDS_
        .get_or_init(|| (0..WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect())
}

/// The copy kernel's reference time and buffers: 4 MiB from a source the
/// lanes share into a destination of each lane's own.
const COPY_REFERENCE_MS: f64 = 0.47;
const COPY_BYTES: usize = 4 << 20;

struct CopyBuffers {
    src: Vec<u8>,
    dst: [Mutex<Vec<u8>>; LANES],
}

static COPY: OnceLock<CopyBuffers> = OnceLock::new();

fn copy_buffers() -> &'static CopyBuffers {
    COPY.get_or_init(|| CopyBuffers {
        src: vec![1u8; COPY_BYTES],
        dst: std::array::from_fn(|_| Mutex::new(vec![0u8; COPY_BYTES])),
    })
}

/// Bytes of the copy kernel's buffers resident now, so that the
/// resident-set figures can leave them out.
pub fn resident_bytes() -> u64 {
    if COPY.get().is_some() {
        ((1 + LANES) * COPY_BYTES) as u64
    } else {
        0
    }
}

/// One calibration pass: when it ran, the kernels' times in ms (the copy's
/// 0 when it did not run), and the machine's `(steal, total)` CPU ticks
/// when it started.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// From the start of the loop it ran in.
    pub at: Duration,
    pub ms: f64,
    pub copy_ms: f64,
    pub ticks: (u64, u64),
}

/// Run one calibration pass of the compute kernel, stamped `at`.
pub fn calibrate(at: Duration) -> Calibration {
    pass(at, false)
}

/// Run one calibration pass of both kernels, for work that streams memory
/// (`load_capacity`).
pub fn calibrate_with_copy() -> Calibration {
    pass(Duration::ZERO, true)
}

/// The kernels on `LANES` threads at once, this one and helpers, and the
/// mean of their times. Each lane runs a kernel once to bring its data
/// into cache, and the lanes then time a second run that they start
/// together.
fn pass(at: Duration, with_copy: bool) -> Calibration {
    let ticks = cpu_ticks();
    let together = Barrier::new(LANES);
    let copy = with_copy.then(copy_buffers);
    let lane = |i: usize| {
        let timed = |kernel: &mut dyn FnMut()| {
            kernel();
            together.wait();
            let t = Instant::now();
            kernel();
            t.elapsed().as_secs_f64() * 1e3
        };
        let ms = timed(&mut || {
            let words = std::hint::black_box(words());
            let mut sum = 0u64;
            for pass in 0..PASSES {
                for (j, w) in words.iter().enumerate() {
                    sum = sum.wrapping_add((w >> ((j + pass) & 31)) & 0x3ff);
                }
            }
            std::hint::black_box(sum);
        });
        let copy_ms = copy.map_or(0.0, |c| {
            let mut dst = c.dst[i].lock().unwrap();
            timed(&mut || {
                dst.copy_from_slice(std::hint::black_box(&c.src));
                std::hint::black_box(&mut dst[..]);
            })
        });
        (ms, copy_ms)
    };
    let lanes: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..LANES).map(|i| scope.spawn(move || lane(i))).collect();
        let mut lanes = vec![lane(0)];
        lanes.extend(helpers.into_iter().map(|h| h.join().expect("calibration lane")));
        lanes
    });
    let mean = |f: fn(&(f64, f64)) -> f64| lanes.iter().map(f).sum::<f64>() / LANES as f64;
    Calibration { at, ms: mean(|l| l.0), copy_ms: mean(|l| l.1), ticks }
}

/// The host's speed over some passes: reference time ÷ the kernel's median
/// time (1 when there are none).
pub fn speed(cals: &[Calibration]) -> f64 {
    if cals.is_empty() {
        return 1.0;
    }
    REFERENCE_MS / kernel_ms(cals)
}

/// Share of the machine's CPU time the hypervisor gave to others between
/// the first and the last of some passes (0 with fewer than two). The
/// kernels are short and mostly run between two such stretches, so their
/// speed misses this loss, which the program's longer work does not.
pub fn steal_share(cals: &[Calibration]) -> f64 {
    match (cals.first(), cals.last()) {
        (Some(a), Some(b)) if b.ticks.1 > a.ticks.1 => {
            b.ticks.0.saturating_sub(a.ticks.0) as f64 / (b.ticks.1 - a.ticks.1) as f64
        }
        _ => 0.0,
    }
}

/// How much work the host gets done over some passes, relative to a host
/// of speed 1 that gives the machine all its time: the compute kernel's speed
/// times the share of time left to the machine. Mean rates, and times of
/// work that spans many scheduler slices, are scaled by it.
pub fn capacity(cals: &[Calibration]) -> f64 {
    speed(cals) * (1.0 - steal_share(cals))
}

/// The capacity for work that streams memory, such as a bulk load over
/// the row-form input: the geometric mean of the two kernels' speeds,
/// times the share of time left to the machine. Passes from
/// `calibrate_with_copy` only.
pub fn load_capacity(cals: &[Calibration]) -> f64 {
    let copy_ms = median(&cals.iter().map(|c| c.copy_ms).collect::<Vec<_>>());
    (speed(cals) * COPY_REFERENCE_MS / copy_ms).sqrt() * (1.0 - steal_share(cals))
}

/// The kernel's median time over some passes, in ms (0 when there are
/// none).
pub fn kernel_ms(cals: &[Calibration]) -> f64 {
    if cals.is_empty() {
        return 0.0;
    }
    median(&cals.iter().map(|c| c.ms).collect::<Vec<_>>())
}
