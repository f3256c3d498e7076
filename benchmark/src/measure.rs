//! The two timed passes and what they return. Both are closed loops on one
//! driver thread: the next `ingest` call is made when the previous one has
//! returned, so every match a call completes has been delivered (return
//! value, subscriptions, durable logs) before its time is taken.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::digest::{Fold, LineFold};
use crate::workloads::{Input, Session, Workload};
use streamworks_core::MatchEvent;

/// What one pass did and emitted.
#[derive(Debug, Default)]
pub struct Pass {
    /// Events fed.
    pub events: usize,
    /// Wall time from the first `ingest` call to the last return (durable
    /// flush included).
    pub wall_ns: u64,
    pub fold: Fold,
    /// `(count, digest)` of the matches completed by the first
    /// `prefix` events, when the pass was asked to mark one.
    pub prefix_fold: Option<(u64, u64)>,
    pub ingest_calls: u64,
    pub ingest_errors: u64,
    pub registry_calls: u64,
    pub registry_errors: u64,
    /// Per-call wall times in ns (latency pass only).
    pub latencies: Vec<u32>,
    /// Matches still undelivered after the final flush (durable only).
    pub undelivered: u64,
    /// Matches of `rpq_lateral`, kept for the recall check (they are rare).
    pub kept: Vec<MatchEvent>,
}

impl Pass {
    pub fn throughput_eps(&self) -> f64 {
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn absorb(&mut self, workload: Workload, result: Result<Vec<MatchEvent>, impl Sized>) {
        self.ingest_calls += 1;
        match result {
            Ok(matches) => {
                self.fold.add_all(&matches);
                if workload == Workload::RpqLateral {
                    self.kept.extend(matches);
                }
            }
            Err(_) => self.ingest_errors += 1,
        }
    }

    fn finish(&mut self, session: &mut Session, start: Instant) {
        self.undelivered = session.engine.flush_deliveries();
        self.wall_ns = start.elapsed().as_nanos() as u64;
        self.registry_calls = session.registry_calls();
        self.registry_errors = session.registry_errors();
    }
}

/// Throughput pass: `engine.ingest(&events[i..i + batch])` until the stream
/// is through, `batch` being [`Workload::batch`]. `prefix` (a multiple of it)
/// marks where the latency pass of a shortened workload will stop, so its
/// matches can be compared.
pub fn throughput_pass(
    workload: Workload,
    input: &Input,
    session: &mut Session,
    prefix: usize,
) -> Pass {
    let batch = workload.batch();
    throughput_pass_observed(workload, input, session, batch, prefix, usize::MAX, |_| {})
}

/// [`throughput_pass`] with an explicit batch size, which hands the session
/// to `observe` after every `every`-th `ingest` call, with the clock stopped
/// (the traced run reads telemetry gauges there).
pub fn throughput_pass_observed(
    workload: Workload,
    input: &Input,
    session: &mut Session,
    batch: usize,
    prefix: usize,
    every: usize,
    mut observe: impl FnMut(&Session),
) -> Pass {
    let mut pass = Pass {
        events: input.events.len(),
        ..Pass::default()
    };
    let mut stopped_ns = 0u64;
    let start = Instant::now();
    for (chunk_no, chunk) in input.events.chunks(batch).enumerate() {
        let index = chunk_no * batch;
        if index == prefix {
            pass.prefix_fold = Some((pass.fold.count, pass.fold.digest));
        }
        session.lifecycle_before(index);
        let result = session.engine.ingest(chunk);
        pass.absorb(workload, result);
        if (chunk_no + 1) % every == 0 {
            let stop = Instant::now();
            observe(session);
            stopped_ns += stop.elapsed().as_nanos() as u64;
        }
    }
    pass.finish(session, start);
    pass.wall_ns = pass.wall_ns.saturating_sub(stopped_ns);
    if prefix >= input.events.len() {
        pass.prefix_fold = Some((pass.fold.count, pass.fold.digest));
    }
    pass
}

/// Latency pass: one `engine.ingest(&event)` per call over the first `upto`
/// events, each call timed on its own.
pub fn latency_pass(workload: Workload, input: &Input, session: &mut Session, upto: usize) -> Pass {
    let events = &input.events[..upto.min(input.events.len())];
    let mut pass = Pass {
        events: events.len(),
        latencies: Vec::with_capacity(events.len()),
        ..Pass::default()
    };
    let start = Instant::now();
    for (index, event) in events.iter().enumerate() {
        session.lifecycle_before(index);
        let call = Instant::now();
        let result = session.engine.ingest(event);
        let ns = call.elapsed().as_nanos();
        pass.latencies.push(u32::try_from(ns).unwrap_or(u32::MAX));
        pass.absorb(workload, result);
    }
    pass.finish(session, start);
    pass
}

/// Reads every durable log back: the lines of all logs folded together, and
/// the line count of each log.
pub fn read_logs(logs: &[PathBuf]) -> (LineFold, Vec<u64>) {
    let mut all = LineFold::default();
    let mut per_log = Vec::with_capacity(logs.len());
    for path in logs {
        let before = all.lines;
        // Line by line: a whole log in one buffer would show in `peak_rss_mb`.
        // A log that cannot be read counts as empty, so every line is missing.
        if let Ok(file) = std::fs::File::open(path) {
            for line in BufReader::new(file).lines().map_while(Result::ok) {
                all.add(&line);
            }
        }
        per_log.push(all.lines - before);
    }
    (all, per_log)
}

/// Removes the durable logs of a finished pass, so the next set-up does not
/// pay for unlinking them.
pub fn remove_logs(logs: &[PathBuf]) {
    for path in logs {
        let _ = std::fs::remove_file(path);
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Pins this process to the highest-numbered CPU it may run on. CPU 0 takes
/// the box's interrupts: on the reference box a set-up there takes 1.3–2x as
/// long and a pass 5–10 % longer than on CPU 1, and without pinning the
/// scheduler decides per process which of the two a round gets. Not called
/// for a workload with shard workers, which inherit the mask and need the
/// other CPUs. A failure leaves the process unpinned.
pub fn pin_to_last_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread; the call writes nothing else.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
        return;
    };
    let mut only = [0u64; 16];
    only[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: `only` is a live buffer of `bytes` bytes that the call only
    // reads; it names one CPU out of the set the kernel just reported.
    let _ = unsafe { sched_setaffinity(0, bytes, only.as_ptr()) };
}

/// A per-process scratch directory under the build directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = scratch_root().join(format!("pid-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark may write: `$CARGO_TARGET_DIR/swbench` when the
/// variable is set (the driver sets it inside the checkout), else
/// `benchmark/target/swbench`. Both are ignored by git.
pub fn scratch_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("swbench")
}
