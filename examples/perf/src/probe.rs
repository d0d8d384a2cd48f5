//! Measurement probes: a host-speed calibration kernel, process CPU and
//! memory from `/proc`, a counting global allocator that is live only in
//! traced reps, and the span recorder the traced reps wrap around each
//! layer call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Whether the allocator counts. False in untraced reps, so their
/// timings carry no shared counter that threaded workloads would bounce
/// between cores; the check is one relaxed load.
static TRACING: AtomicBool = AtomicBool::new(false);
/// Allocation events (`alloc`, `alloc_zeroed`, `realloc`) while tracing.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed while tracing. Only differences
/// over a window are meaningful: frees of memory allocated before
/// tracing started also subtract.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAllocator;

fn note_alloc(bytes: usize) {
    if TRACING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every operation is delegated to `System` unchanged; the
// bookkeeping is relaxed atomics that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, and it is forwarded to `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, and it is forwarded to `System` unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, and it is forwarded to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for this
        // call, and it is forwarded to `System` unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Turns the allocation counters on for the rest of the process.
pub fn start_counting() {
    TRACING.store(true, Ordering::Relaxed);
}

/// Allocation events counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Net bytes allocated so far (see [`LIVE_BYTES`]).
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Mean wall seconds of [`calibration_s`] run once pinned to each of
/// `cpus` (unpinned when empty). The calling thread is left pinned to
/// all of `cpus`, so a child spawned next inherits that set.
///
/// On a shared VM each virtual CPU is slowed by its own neighbours,
/// largely independently of the other, so the kernel must run on the
/// CPUs the measured work runs on.
pub fn calibration_on(cpus: &[usize]) -> f64 {
    if cpus.is_empty() {
        return calibration_s();
    }
    let mut total = 0.0;
    for &cpu in cpus {
        pin_to(&[cpu]);
        total += calibration_s();
    }
    pin_to(cpus);
    total / cpus.len() as f64
}

/// Wall seconds of a fixed kernel that shares no code with the
/// simulator: ordered-map and heap churn with float math, the same kind
/// of branchy, allocating work as the event loop. Its time follows how
/// fast the host runs such code right now (on a shared VM, neighbours
/// slow it by up to 2× for minutes at a time), so rep times divided by
/// it stay steady across those phases.
fn calibration_s() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0.0_f64;
    for i in 0..200_000_u64 {
        map.entry(next() % 50_000).or_default().push(i);
        heap.push(Reverse((next() % 1_000_000, i)));
        if i % 3 != 0 {
            if let Some(Reverse((v, _))) = heap.pop() {
                acc += (v as f64).sqrt();
            }
        }
        if i % 5 == 0 {
            map.remove(&(next() % 50_000));
        }
    }
    std::hint::black_box(acc + map.len() as f64);
    t0.elapsed().as_secs_f64()
}

/// The CPUs this process may run on, from `/proc/self/status`'s
/// `Cpus_allowed_list` (`0-1,4`); empty if it cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let Some(list) = status_field("Cpus_allowed_list") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) else {
            return Vec::new();
        };
        cpus.extend(lo..=hi);
    }
    cpus
}

/// Restricts the calling thread, and processes it spawns afterwards, to
/// `cpus` (ids below 1024). Best effort: a refused call leaves the
/// affinity as it was, and the benchmark then runs unpinned.
fn pin_to(cpus: &[usize]) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0_u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly `cpusetsize` bytes (the
    // layout of a 1024-bit `cpu_set_t`) for the whole call, which only
    // reads it; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Clock ticks per second of `/proc/self/stat`'s CPU fields (`USER_HZ`,
/// 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process. The kernel folds
/// the time of exited threads into these fields, so the scoped cell
/// threads that end at every epoch are still counted.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, starting at field 3 (state).
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let field = |n: usize| -> f64 {
        fields
            .get(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / USER_HZ
}

/// The trimmed value of a `/proc/self/status` field.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB.
fn status_mb(key: &str) -> f64 {
    status_field(key)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// One recorded layer call. Times are microseconds from the start of the
/// rep; the counters are deltas over the call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Layer name (`json.parse`, `serve`, …).
    pub name: String,
    /// This span's id, unique within the rep (1-based).
    pub id: u32,
    /// Id of the enclosing span that caused it (0 for a root).
    pub parent: u32,
    /// Start, µs since the rep began.
    pub start_us: f64,
    /// End, µs since the rep began.
    pub end_us: f64,
    /// Process CPU seconds spent during the call.
    pub cpu_s: f64,
    /// Allocation events during the call.
    pub allocs: u64,
    /// Resident set size when the call began, MB.
    pub rss_before_mb: f64,
    /// Peak resident set size when the call ended, MB.
    pub peak_after_mb: f64,
}

impl Span {
    /// Wall-clock duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Records spans in memory; disabled in untraced reps, where every
/// method is a no-op around the call it wraps.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<(usize, f64, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().map_or(0, |&(i, _, _)| self.spans[i].id);
        self.spans.push(Span {
            name: name.to_string(),
            id,
            parent,
            start_us: 0.0,
            end_us: 0.0,
            cpu_s: 0.0,
            allocs: 0,
            rss_before_mb: rss_mb(),
            peak_after_mb: 0.0,
        });
        let (cpu, allocs) = (cpu_s(), allocs());
        // Stamp the start last, so the probes above are not charged to
        // the call.
        let index = self.spans.len() - 1;
        self.spans[index].start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.open.push((index, cpu, allocs));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        // Read the allocation counter before the probes that allocate.
        let allocs_now = allocs();
        let cpu_now = cpu_s();
        let (index, cpu, allocs) = self.open.pop().expect("end() matches a begin()");
        let span = &mut self.spans[index];
        span.end_us = end_us;
        span.cpu_s = cpu_now - cpu;
        span.allocs = allocs_now - allocs;
        span.peak_after_mb = peak_rss_mb();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer into its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its children
/// cover (children run one after another, so their durations add).
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    spans
        .iter()
        .map(|s| {
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(Span::secs)
                .sum();
            (s.name.clone(), s.secs() - children)
        })
        .collect()
}
