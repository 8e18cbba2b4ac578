//! The closed-loop load generator, the metrics it derives, and the
//! report the benchmark prints.

use crate::rng::Rng;
use crate::trace::Tracer;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Segments per run at the least, whatever `--seconds` asks.
const MIN_SEGMENTS: usize = 3;

/// Wall time of a workload's set-up, split into its phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupPhases {
    /// Building policies and compiling trust stores.
    pub store: Duration,
    /// Deriving keys and signing credentials.
    pub sign: Duration,
    /// Starting endpoints, clients and masters and warming them up.
    pub commission: Duration,
}

/// The benchmark's verdict on one op.
pub enum Check {
    /// The outcome equals the benchmark's own expectation.
    Ok,
    /// The outcome is wrong in the one way a known, counted program
    /// fault makes it wrong.
    Fault,
    /// Any other mismatch: the run is not correct.
    Wrong(String),
}

/// Counters a workload reads through the program's public stats. Cache
/// counters are read before and after the measured phase; the rest are
/// totals since set-up began. The traced run sums them over segments.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub trust_hits: u64,
    pub trust_misses: u64,
    pub stack_hits: u64,
    pub stack_misses: u64,
    pub stamps_issued: u64,
    pub stamps_admitted: u64,
    pub verify_cold: u64,
    pub admin_store_len: u64,
}

/// One workload: how it is set up, what one op does, and what is
/// checked once the run ends.
impl Counters {
    fn add(&mut self, o: &Counters) {
        self.trust_hits += o.trust_hits;
        self.trust_misses += o.trust_misses;
        self.stack_hits += o.stack_hits;
        self.stack_misses += o.stack_misses;
        self.stamps_issued += o.stamps_issued;
        self.stamps_admitted += o.stamps_admitted;
        self.verify_cold += o.verify_cold;
        self.admin_store_len += o.admin_store_len;
    }
}

pub trait Workload {
    /// Closed-loop caller threads (at most the box's two cores).
    const CALLERS: usize;
    /// Ops per round. A segment is whole rounds, so every run attempts
    /// whole rounds.
    const ROUND: u64;
    /// Ops each caller sends in one segment, a multiple of `ROUND`.
    /// Fixed, so a segment sends the same op sequence however fast the
    /// program runs: state that grows with each op (enrolled
    /// principals, KeyCom's admin store) ends every segment the same.
    const SEGMENT_OPS: u64;
    type Env: Sync;

    fn setup(seed: u64, tracer: Option<Arc<Tracer>>) -> (Self::Env, SetupPhases);
    /// Runs op `seq` of a caller whose own input stream is `rng`;
    /// returns the time of the program's public call(s) and the check
    /// of the outcome.
    fn op(env: &Self::Env, rng: &mut Rng, seq: u64) -> (Duration, Check);
    /// Checks made once the run has ended (final state, exactly-once).
    fn verify(env: &Self::Env, run: &Run) -> Vec<String>;
    fn counters(env: &Self::Env) -> Counters;
    fn teardown(env: Self::Env);
}

/// Sub-buckets per power of two in [`Latencies`]: bucket width is
/// 1/512 of the value (0.2%).
const SUB_BITS: u32 = 9;
const SUB: usize = 1 << SUB_BITS;
/// Buckets up to 2^40 ns (about 18 minutes).
const BUCKETS: usize = SUB + (40 - SUB_BITS as usize) * SUB;

/// Per-op latencies in a fixed-size log-linear histogram, so the
/// benchmark's own memory does not grow with the number of ops and so
/// does not move `peak_rss_mb`. Each bucket also sums its samples; a
/// percentile reads as the mean of the samples in its bucket, within
/// 0.2% of the exact order statistic.
pub struct Latencies {
    counts: Vec<u64>,
    sums: Vec<u64>,
    total: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            counts: vec![0; BUCKETS],
            sums: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Latencies {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        let index = SUB + shift as usize * SUB + ((ns >> shift) as usize - SUB);
        index.min(BUCKETS - 1)
    }

    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        let i = Self::index(ns);
        self.counts[i] += 1;
        self.sums[i] += ns;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    fn merge(&mut self, other: &Latencies) {
        for i in 0..BUCKETS {
            self.counts[i] += other.counts[i];
            self.sums[i] += other.sums[i];
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile, nanoseconds.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for i in 0..BUCKETS {
            seen += self.counts[i];
            if seen >= rank {
                return self.sums[i] as f64 / self.counts[i] as f64;
            }
        }
        unreachable!("rank within total")
    }
}

/// What one measured phase saw.
#[derive(Default)]
pub struct Run {
    /// Per-op latencies, all callers.
    pub latencies: Latencies,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The first few mismatch descriptions.
    pub errors: Vec<String>,
    pub elapsed: Duration,
}

impl Run {
    /// Ops whose outcome matched the expectation. (`wrong` also counts
    /// failed end-of-run checks, which make the run incorrect anyway.)
    pub fn good(&self) -> u64 {
        self.attempted.saturating_sub(self.failed + self.wrong)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.good() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Adds a later segment's run.
    fn append(&mut self, other: Run) {
        let elapsed = self.elapsed + other.elapsed;
        self.merge(other);
        self.elapsed = elapsed;
    }

    /// Adds a concurrent caller's run.
    fn merge(&mut self, other: Run) {
        self.latencies.merge(&other.latencies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// Drives `W::CALLERS` closed-loop callers, each issuing its next op
/// when the last one returns, until each has sent `ops` ops. Caller `i`
/// draws its inputs from its own stream of `seed`.
pub fn closed_loop<W: Workload>(env: &W::Env, seed: u64, ops: u64) -> Run {
    let barrier = Barrier::new(W::CALLERS);
    let mut total = Run::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..W::CALLERS)
            .map(|index| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 0xC0 + index as u64);
                    let mut run = Run::default();
                    barrier.wait();
                    let t0 = Instant::now();
                    for seq in 0..ops {
                        let (took, check) = W::op(env, &mut rng, seq);
                        run.latencies.record(took);
                        match check {
                            Check::Ok => {}
                            Check::Fault => run.failed += 1,
                            Check::Wrong(why) => {
                                run.wrong += 1;
                                if run.errors.len() < 8 {
                                    run.errors.push(why);
                                }
                            }
                        }
                    }
                    run.attempted = ops;
                    run.elapsed = t0.elapsed();
                    run
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("caller thread panicked"));
        }
    });
    total
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Confines the calling thread, and every thread it starts from then
/// on, to the lowest CPU of its current affinity set.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write at most `size` bytes of `mask`;
    // pid 0 is the calling thread.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return;
        };
        let mut one = [0u64; 16];
        one[word] = 1 << mask[word].trailing_zeros();
        sched_setaffinity(0, size, one.as_ptr());
    }
}

/// This process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            self.name, self.value, self.unit
        )
    }
}

/// What the benchmark prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub samples: u64,
    /// CPUs the process could use before it pinned itself to one.
    pub cpus: usize,
    pub errors: Vec<String>,
    /// One line per measured segment.
    pub segments: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn human_lines(&self, args: &Args) -> Vec<String> {
        let mut out = vec![format!(
            "hetbench {} seed {} ({} s, trace {}, {} CPUs, run on one): attempted {} failed {} latency samples {} correct {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.cpus,
            self.attempted,
            self.failed,
            self.samples,
            self.correct
        )];
        out.extend(self.segments.iter().cloned());
        for m in &self.metrics {
            out.push(format!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit));
        }
        for e in &self.errors {
            out.push(format!("  error: {e}"));
        }
        out
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(Metric::json).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sets the workload up, runs it, checks it, and reports either the
/// end-to-end metrics (untraced) or the per-layer ones (traced).
///
/// The whole run stays on one CPU. An op passes from thread to thread
/// in turn (caller, transport, client engine, reader), and on a
/// two-vCPU virtual machine a hand-off to the other CPU now and then
/// costs milliseconds: unpinned, p99 followed the host's load.
pub fn run_workload<W: Workload>(args: &Args) -> Report {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    pin_to_one_cpu();
    let mut report = if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    };
    report.cpus = cpus;
    report
}

fn finish<W: Workload>(env: &W::Env, mut run: Run) -> Run {
    for e in W::verify(env, &run) {
        run.wrong += 1;
        if run.errors.len() < 8 {
            run.errors.push(e);
        }
    }
    run
}

/// One measured segment: a fresh set-up, `W::SEGMENT_OPS` ops per
/// caller of closed-loop load, the final checks, and the counters
/// before and after the load.
struct Segment {
    setup: Duration,
    phases: SetupPhases,
    run: Run,
    before: Counters,
    after: Counters,
}

impl Segment {
    fn line(&self, label: &str) -> String {
        format!(
            "  segment {label}: setup {:.6} s, {} ops in {:.3} s, {:.1} ops/s, p50 {:.4} ms, p99 {:.4} ms",
            self.setup.as_secs_f64(),
            self.run.attempted,
            self.run.elapsed.as_secs_f64(),
            self.run.ops_per_s(),
            self.run.latencies.percentile(0.50) / 1e6,
            self.run.latencies.percentile(0.99) / 1e6
        )
    }
}

fn segment<W: Workload>(args: &Args, tracer: Option<Arc<Tracer>>) -> Segment {
    let t0 = Instant::now();
    let (env, phases) = W::setup(args.seed, tracer.clone());
    let setup = t0.elapsed();
    if let Some(t) = &tracer {
        t.reset();
    }
    let before = W::counters(&env);
    let run = closed_loop::<W>(&env, args.seed, W::SEGMENT_OPS);
    let after = W::counters(&env);
    let run = finish::<W>(&env, run);
    W::teardown(env);
    Segment {
        setup,
        phases,
        run,
        before,
        after,
    }
}

/// Whether to start another unit (a segment, or a pair of them) after
/// `done` of them took `spent`: at least [`MIN_SEGMENTS`], then only if
/// one more of the same mean length still ends within `budget`.
fn another(done: usize, spent: Duration, budget: f64) -> bool {
    done < MIN_SEGMENTS || spent.as_secs_f64() * (done + 1) as f64 / done as f64 <= budget
}

/// The untraced run: segments of a fixed op count, each on a fresh
/// set-up, for `--seconds` of wall time. The host's speed swings from
/// second to second, so a segment's latencies sit in a fast or a slow
/// mode: `op_p50_ms` is the mean of the segments' medians, which moves
/// with the share of time spent in each mode rather than jumping
/// between the modes as a median would. A slow spell instead lifts the
/// tail of the segments it covers, so `op_p99_ms` is the median of the
/// segments' p99s. `ops_per_s` is the whole run's good ops over its measured
/// time, and `setup_s` the median of the segments' set-up times.
fn untraced<W: Workload>(args: &Args) -> Report {
    let (mut setup_s, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut run = Run::default();
    let mut lines = Vec::new();
    let t0 = Instant::now();
    while another(setup_s.len(), t0.elapsed(), args.seconds) {
        let seg = segment::<W>(args, None);
        lines.push(seg.line(&setup_s.len().to_string()));
        setup_s.push(seg.setup.as_secs_f64());
        p50.push(seg.run.latencies.percentile(0.50) / 1e6);
        p99.push(seg.run.latencies.percentile(0.99) / 1e6);
        run.append(seg.run);
    }
    let metrics = vec![
        Metric::new("setup_s", median(&mut setup_s), "s"),
        Metric::new("ops_per_s", run.ops_per_s(), "1/s"),
        Metric::new("op_p50_ms", mean(&p50), "ms"),
        Metric::new("op_p99_ms", median(&mut p99), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Report {
        correct: run.wrong == 0,
        attempted: run.attempted,
        failed: run.failed,
        samples: run.latencies.len(),
        cpus: 0,
        errors: run.errors,
        segments: lines,
        metrics,
    }
}

/// The traced run: untraced and traced segments alternate, each on a
/// fresh set-up, so the per-layer figures come with their own overhead.
fn traced<W: Workload>(args: &Args) -> Report {
    let tracer = Tracer::default();
    let (mut plain, mut traced) = (Run::default(), Run::default());
    let (mut before, mut after) = (Counters::default(), Counters::default());
    let mut phases = Vec::new();
    let mut lines = Vec::new();
    let t0 = Instant::now();
    while another(phases.len(), t0.elapsed(), args.seconds) {
        let seg = segment::<W>(args, None);
        lines.push(seg.line(&format!("{} untraced", phases.len())));
        plain.append(seg.run);
        let t = Arc::new(Tracer::default());
        let seg = segment::<W>(args, Some(Arc::clone(&t)));
        lines.push(seg.line(&format!("{} traced", phases.len())));
        tracer.absorb(&t);
        before.add(&seg.before);
        after.add(&seg.after);
        phases.push(seg.phases);
        traced.append(seg.run);
    }
    let wire = tracer.wire_cost();
    let ops = traced.attempted.max(1) as f64;
    let ratio = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let phase = |f: fn(&SetupPhases) -> Duration| {
        median(
            &mut phases
                .iter()
                .map(|p| f(p).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    // Totals since set-up, as a mean per traced segment: every segment
    // sends the same ops, so these do not grow with the run's length.
    let per_segment = |total: u64| total as f64 / phases.len() as f64;
    let t = &tracer;
    let metrics = vec![
        Metric::new("master.self_us", t.master_self.mean_us(), "us"),
        Metric::new("transport.call_us", t.transport_call.mean_us(), "us"),
        Metric::new("wire.request_bytes", wire.mean_bytes, "B"),
        Metric::new("wire.encode_us", wire.encode_us, "us"),
        Metric::new("wire.decode_us", wire.decode_us, "us"),
        Metric::new("fabric.forwards", t.forward.calls() as f64 / ops, "1/op"),
        Metric::new("fabric.forward_us", t.forward.mean_us(), "us"),
        Metric::new("stamp.issued", per_segment(after.stamps_issued), "count"),
        Metric::new(
            "stamp.admitted",
            per_segment(after.stamps_admitted),
            "count",
        ),
        Metric::new(
            "keynote.verify_cold",
            per_segment(after.verify_cold),
            "count",
        ),
        Metric::new("stack.os_us", t.os.mean_us(), "us"),
        Metric::new("stack.middleware_us", t.middleware.mean_us(), "us"),
        Metric::new("stack.trust_us", t.trust.mean_us(), "us"),
        Metric::new("stack.app_us", t.app.mean_us(), "us"),
        Metric::new("stack.layer_calls", t.layer_requests() as f64 / ops, "1/op"),
        Metric::new(
            "trust.cache_hit_ratio",
            ratio(
                after.trust_hits - before.trust_hits,
                after.trust_misses - before.trust_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "stack.cache_hit_ratio",
            ratio(
                after.stack_hits - before.stack_hits,
                after.stack_misses - before.stack_misses,
            ),
            "ratio",
        ),
        Metric::new("executor.invoke_us", t.executor.mean_us(), "us"),
        Metric::new("keycom.handle_us", t.keycom.mean_us(), "us"),
        Metric::new(
            "keycom.admin_store_len",
            per_segment(after.admin_store_len),
            "count",
        ),
        Metric::new("gate.review_us", t.gate.mean_us(), "us"),
        Metric::new("bus.self_us", t.bus_self.mean_us(), "us"),
        Metric::new("endpoint.update_us", t.endpoint_update.mean_us(), "us"),
        Metric::new(
            "endpoint.export_calls",
            t.endpoint_export.calls() as f64 / ops,
            "1/op",
        ),
        Metric::new("setup.store_s", phase(|p| p.store), "s"),
        Metric::new("setup.sign_s", phase(|p| p.sign), "s"),
        Metric::new("setup.commission_s", phase(|p| p.commission), "s"),
        Metric::new(
            "trace.overhead",
            1.0 - traced.ops_per_s() / plain.ops_per_s().max(1e-9),
            "ratio",
        ),
    ];
    let samples = plain.latencies.len() + traced.latencies.len();
    let mut errors = plain.errors;
    errors.extend(traced.errors);
    Report {
        correct: plain.wrong == 0 && traced.wrong == 0,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        samples,
        cpus: 0,
        errors,
        segments: lines,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_within_a_bucket_width() {
        let mut l = Latencies::default();
        for us in 1..=1000u64 {
            l.record(Duration::from_micros(us));
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = l.percentile(q);
            assert!(
                (got - exact).abs() / exact < 0.002,
                "p{q}: {got} vs {exact}"
            );
        }
        let mut small = Latencies::default();
        small.record(Duration::from_nanos(7));
        assert_eq!(small.percentile(0.99), 7.0);
        assert_eq!(Latencies::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reads_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
    }
}
