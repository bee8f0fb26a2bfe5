//! The end-to-end load generator: set-up, the open-loop and closed-loop
//! phases, the rebuild cycles, and the correctness checks that follow.
//!
//! Every generator thread owns one client handle. Writers own disjoint
//! key sets, and a shared per-key [`Oracle`] records the last issued and
//! the last acknowledged version, so every read is checked against the
//! versions it may legally return.

use crate::gen::{self, Op};
use crate::sys;
use crate::target::{Client, Cluster};
use crate::trace::Spans;
use radd_protocol::RebuildReport;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Rows per wave in a rebuild (the `radd-client` default).
pub(crate) const WAVE_ROWS: usize = 16;
/// The rebuild workload starts one failure cycle per period...
const CYCLE_PERIOD: Duration = Duration::from_secs(1);
/// ...and keeps the victim down at least this long, rebuild included,
/// so that a share of the foreground reads meets it down.
const DOWN_DWELL: Duration = Duration::from_millis(300);

/// Last issued and last acknowledged version of every data key.
pub(crate) struct Oracle {
    sites: usize,
    block: usize,
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl Oracle {
    pub(crate) fn new(keys: usize, sites: usize, block: usize) -> Oracle {
        Oracle {
            sites,
            block,
            issued: (0..keys).map(|_| AtomicU32::new(0)).collect(),
            acked: (0..keys).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    pub(crate) fn block(&self) -> usize {
        self.block
    }

    pub(crate) fn keys(&self) -> usize {
        self.issued.len()
    }

    /// The `(site, index)` address of data key `key`.
    pub(crate) fn addr(&self, key: u32) -> (usize, u64) {
        (
            key as usize % self.sites,
            u64::from(key) / self.sites as u64,
        )
    }

    pub(crate) fn acked(&self, key: u32) -> u32 {
        self.acked[key as usize].load(Ordering::SeqCst)
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub(crate) struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    errors: Mutex<Vec<String>>,
}

impl Tally {
    pub(crate) fn note(&self, outcome: Result<(), String>) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                let mut errors = self.errors.lock().unwrap_or_else(PoisonError::into_inner);
                if errors.len() < 8 {
                    errors.push(e);
                }
                false
            }
        }
    }

    pub(crate) fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub(crate) fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub(crate) fn errors(&self) -> Vec<String> {
        self.errors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// One open-loop request: when it was due, when it went out and when it
/// completed, in microseconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    pub(crate) due: f64,
    pub(crate) start: f64,
    pub(crate) end: f64,
    pub(crate) write: bool,
    /// Issued while the rebuild workload's victim was down.
    pub(crate) degraded: bool,
}

impl Sample {
    pub(crate) fn latency(&self) -> f64 {
        self.end - self.due
    }
}

/// A client handle plus what it needs to issue checked operations.
pub(crate) struct Worker<'a, C: Client> {
    pub(crate) client: C,
    oracle: &'a Oracle,
    tally: &'a Tally,
    buf: Vec<u8>,
    pub(crate) spans: Option<Spans>,
    op_id: u64,
    pub(crate) writes: u64,
}

impl<'a, C: Client> Worker<'a, C> {
    pub(crate) fn new(client: C, oracle: &'a Oracle, tally: &'a Tally, id: u64) -> Self {
        Worker {
            client,
            oracle,
            tally,
            buf: vec![0; oracle.block()],
            spans: None,
            op_id: id << 40,
            writes: 0,
        }
    }

    /// Prepare `op`: a write picks its version and fills the buffer.
    fn prepare(&mut self, op: Op) -> u32 {
        if !op.write {
            return 0;
        }
        let v = self.oracle.issued[op.key as usize].load(Ordering::SeqCst) + 1;
        gen::fill(&mut self.buf, op.key, v);
        v
    }

    /// Issue a prepared operation and check its outcome.
    fn issue(&mut self, op: Op, version: u32) -> bool {
        let (site, index) = self.oracle.addr(op.key);
        let k = op.key as usize;
        self.op_id += 1;
        let started = self.spans.as_ref().map(|_| Instant::now());
        let outcome = if op.write {
            self.writes += 1;
            self.oracle.issued[k].store(version, Ordering::SeqCst);
            let r = self.client.write(site, index, &self.buf);
            if r.is_ok() {
                self.oracle.acked[k].store(version, Ordering::SeqCst);
            }
            r.map_err(|e| format!("write key {}: {e}", op.key))
        } else {
            let lo = self.oracle.acked[k].load(Ordering::SeqCst);
            let got = self.client.read(site, index);
            let hi = self.oracle.issued[k].load(Ordering::SeqCst);
            got.map_err(|e| format!("read key {}: {e}", op.key))
                .and_then(|data| match gen::check(&data) {
                    Some((key, v)) if key == op.key && (lo..=hi).contains(&v) => Ok(()),
                    found => Err(format!(
                        "read key {} returned {found:?}, expected a version in {lo}..={hi}",
                        op.key
                    )),
                })
        };
        if let (Some(spans), Some(t)) = (self.spans.as_mut(), started) {
            let name = if op.write {
                "client.write"
            } else {
                "client.read"
            };
            spans.record(self.op_id, name, t);
        }
        self.tally.note(outcome)
    }

    pub(crate) fn run(&mut self, op: Op) -> bool {
        let v = self.prepare(op);
        self.issue(op, v)
    }
}

/// Write version 1 of every key in `keys` (the set-up prefill).
pub(crate) fn prefill<C: Client>(w: &mut Worker<'_, C>, keys: impl Iterator<Item = u32>) -> bool {
    keys.map(|key| w.run(Op { key, write: true }))
        .fold(true, |a, b| a & b)
}

/// Open-loop pacing for one thread: `rate` requests per second, starting
/// `offset` into the phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pace {
    pub(crate) interval: Duration,
    pub(crate) offset: Duration,
    pub(crate) duration: Duration,
}

/// Site-down choreography between the rebuild cycler and the reader
/// threads: the failure detector a real deployment would have. Readers
/// issue every request under a read lock and first apply any state change
/// the cycler published; the cycler changes state under the write lock,
/// so once it holds it no reader is mid-request, and every later request
/// sees the new state. No reader ever addresses a killed site as up.
pub(crate) struct Choreo {
    victim: usize,
    /// (epoch, victim believed down)
    state: RwLock<(u64, bool)>,
}

impl Choreo {
    pub(crate) fn new(victim: usize) -> Choreo {
        Choreo {
            victim,
            state: RwLock::new((0, false)),
        }
    }

    fn set(&self, down: bool) {
        let mut s = self.state.write().unwrap_or_else(PoisonError::into_inner);
        *s = (s.0 + 1, down);
    }

    /// Bring `client` up to date and hold off state changes until the
    /// returned guard drops.
    fn enter<C: Client>(&self, seen: &mut u64, client: &mut C) -> RwLockReadGuard<'_, (u64, bool)> {
        let s = self.state.read().unwrap_or_else(PoisonError::into_inner);
        if s.0 != *seen {
            client.mark_down(self.victim, s.1);
            *seen = s.0;
        }
        s
    }
}

/// Run `ops` open loop: request `i` is due at `offset + i·interval` and
/// is timed from then, however late the thread gets to it. Spans are
/// recorded only for requests due from `trace_from` on.
pub(crate) fn open_loop<C: Client>(
    w: &mut Worker<'_, C>,
    ops: &[Op],
    start: Instant,
    pace: Pace,
    trace_from: Duration,
    choreo: Option<&Choreo>,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(ops.len());
    let mut seen = 0;
    let mut parked = w.spans.take();
    for (i, &op) in ops.iter().enumerate() {
        let due = pace.offset + pace.interval * i as u32;
        if due >= pace.duration {
            break;
        }
        if due >= trace_from && parked.is_some() {
            w.spans = parked.take();
        }
        let v = w.prepare(op);
        let now = Instant::now();
        if start + due > now {
            std::thread::sleep(start + due - now);
        }
        let guard = choreo.map(|c| c.enter(&mut seen, &mut w.client));
        let sent = Instant::now();
        w.issue(op, v);
        let done = Instant::now();
        let degraded = guard.is_some_and(|g| g.1);
        samples.push(Sample {
            due: due.as_secs_f64() * 1e6,
            start: (sent - start).as_secs_f64() * 1e6,
            end: (done - start).as_secs_f64() * 1e6,
            write: op.write,
            degraded,
        });
    }
    if parked.is_some() {
        w.spans = parked;
    }
    samples
}

/// Width of the closed-loop completion buckets.
pub(crate) const BUCKET: Duration = Duration::from_millis(100);

/// Run `ops` (wrapping round) back to back for `duration`; returns the
/// completions in each [`BUCKET`] since `origin`.
pub(crate) fn closed_loop<C: Client>(
    w: &mut Worker<'_, C>,
    ops: &[Op],
    origin: Instant,
    duration: Duration,
    choreo: Option<&Choreo>,
) -> Vec<u64> {
    let end = Instant::now() + duration;
    let mut seen = 0;
    let mut n = 0usize;
    let mut buckets = Vec::new();
    while Instant::now() < end {
        let _guard = choreo.map(|c| c.enter(&mut seen, &mut w.client));
        w.run(ops[n % ops.len()]);
        n += 1;
        let b = slot(origin, Instant::now());
        if buckets.len() <= b {
            buckets.resize(b + 1, 0);
        }
        buckets[b] += 1;
    }
    buckets
}

/// The phase origin, once the coordinating thread has fixed it.
fn wait_for(start: &OnceLock<Instant>) -> Instant {
    loop {
        if let Some(t) = start.get() {
            return *t;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The [`BUCKET`] slot `at` falls in, counting from `origin`.
pub(crate) fn slot(origin: Instant, at: Instant) -> usize {
    at.saturating_duration_since(origin)
        .div_duration_f64(BUCKET) as usize
}

/// Sample host steal at every [`BUCKET`] boundary from the phase origin
/// until `stop`; returns the ticks stolen in each slot.
fn sample_steal(start: &OnceLock<Instant>, stop: &AtomicBool) -> Vec<u64> {
    let origin = wait_for(start);
    let mut last = sys::steal_ticks();
    let mut per_slot = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let next = origin + BUCKET * (per_slot.len() as u32 + 1);
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        let s = sys::steal_ticks();
        per_slot.push(s - last.min(s));
        last = s;
    }
    per_slot
}

/// Process counters sampled at a phase boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    pub(crate) at: Instant,
    pub(crate) cpu_us: f64,
    pub(crate) ctx: u64,
    pub(crate) io_bytes: u64,
}

impl Mark {
    pub(crate) fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_us: sys::cpu_us(),
            ctx: sys::ctx_switches(),
            io_bytes: sys::device_write_bytes(),
        }
    }
}

/// What the foreground phases of one run produced.
#[derive(Default)]
pub(crate) struct Foreground {
    pub(crate) samples: Vec<Sample>,
    /// Closed-loop completions per [`BUCKET`] since the open-loop start,
    /// summed over threads.
    pub(crate) closed: Vec<u64>,
    /// Host steal ticks per [`BUCKET`] since the open-loop start.
    pub(crate) steal: Vec<u64>,
    /// First slot wholly inside the closed loop.
    pub(crate) closed_from: usize,
    /// Writes issued in both phases.
    pub(crate) writes: u64,
    /// Open-loop start, halfway (where tracing starts), open-loop end,
    /// closed-loop end.
    pub(crate) marks: Vec<Mark>,
    pub(crate) cycles: Vec<Cycle>,
    /// The rebuild cycler's healthy-gap writes: (issue time since the
    /// open-loop start, latency), in µs.
    pub(crate) gap_writes: Vec<(f64, f64)>,
    pub(crate) client_obs: Vec<radd_obs::MachineSnapshot>,
    pub(crate) spans: Vec<Spans>,
}

impl Foreground {
    fn timeline(&mut self, start: &OnceLock<Instant>, steal: Vec<u64>) {
        self.steal = steal;
        self.closed_from = slot(wait_for(start), self.marks[2].at) + 1;
    }

    fn absorb<C: Client>(&mut self, samples: Vec<Sample>, closed: &[u64], w: &mut Worker<'_, C>) {
        self.samples.extend(samples);
        self.closed.resize(self.closed.len().max(closed.len()), 0);
        for (total, n) in self.closed.iter_mut().zip(closed) {
            *total += n;
        }
        self.writes += w.writes;
        self.client_obs.push(w.client.obs());
        self.spans.extend(w.spans.take());
    }
}

/// Phase lengths and pacing shared by every generator thread.
pub(crate) struct Phases {
    pub(crate) open: Duration,
    pub(crate) closed: Duration,
    /// Aggregate open-loop rate, requests per second.
    pub(crate) rate: f64,
    pub(crate) trace: bool,
}

impl Phases {
    fn pace(&self, thread: usize, threads: usize) -> Pace {
        let interval = Duration::from_secs_f64(threads as f64 / self.rate);
        Pace {
            interval,
            offset: interval * thread as u32 / threads as u32,
            duration: self.open,
        }
    }

    /// Where span recording starts: halfway through the open-loop phase
    /// of a traced run, so its first half measures the untraced cost.
    fn trace_from(&self) -> Duration {
        if self.trace {
            self.open / 2
        } else {
            Duration::MAX
        }
    }

    /// One generator thread's whole foreground: open loop, then closed
    /// loop, in step with the phase barrier.
    fn drive<C: Client>(
        &self,
        w: &mut Worker<'_, C>,
        (open, closed): &(Vec<Op>, Vec<Op>),
        pace: Pace,
        sync: (&Barrier, &OnceLock<Instant>),
        choreo: Option<&Choreo>,
    ) -> (Vec<Sample>, Vec<u64>) {
        sys::tighten_timer_slack();
        if self.trace {
            w.spans = Some(Spans::with_capacity(open.len() / 2 + 16));
        }
        sync.0.wait();
        let t0 = *sync.1.get().expect("set before the barrier");
        let samples = open_loop(w, open, t0, pace, self.trace_from(), choreo);
        sync.0.wait();
        let parked = w.spans.take();
        let buckets = closed_loop(w, closed, t0, self.closed, choreo);
        w.spans = parked;
        sync.0.wait();
        (samples, buckets)
    }
}

/// The coordinating thread's side of the phase barrier: fixes the start,
/// and samples process counters at every phase boundary.
fn mark_phases(barrier: &Barrier, start: &OnceLock<Instant>, phases: &Phases) -> Vec<Mark> {
    let t0 = Instant::now() + Duration::from_millis(2);
    start.set(t0).expect("start is set once");
    barrier.wait();
    let mut marks = vec![Mark::now()];
    let half = t0 + phases.open / 2;
    let now = Instant::now();
    if half > now {
        std::thread::sleep(half - now);
    }
    marks.push(Mark::now());
    barrier.wait();
    marks.push(Mark::now());
    barrier.wait();
    marks.push(Mark::now());
    marks
}

/// The healthy read/write workloads: every client thread runs its own
/// stream open loop, then closed loop.
pub(crate) fn mixed<C: Client>(
    workers: Vec<Worker<'_, C>>,
    streams: &[(Vec<Op>, Vec<Op>)],
    phases: &Phases,
) -> Foreground {
    let threads = workers.len();
    let barrier = Barrier::new(threads + 1);
    let start = OnceLock::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(t, (mut w, stream))| {
                let sync = (&barrier, &start);
                s.spawn(move || {
                    let (samples, buckets) =
                        phases.drive(&mut w, stream, phases.pace(t, threads), sync, None);
                    (samples, buckets, w)
                })
            })
            .collect();
        let sampler = s.spawn(|| sample_steal(&start, &stop));
        let mut fg = Foreground {
            marks: mark_phases(&barrier, &start, phases),
            ..Foreground::default()
        };
        for h in handles {
            let (samples, buckets, mut w) = h.join().expect("generator thread panicked");
            fg.absorb(samples, &buckets, &mut w);
        }
        stop.store(true, Ordering::SeqCst);
        fg.timeline(&start, sampler.join().expect("steal sampler panicked"));
        fg
    })
}

/// One kill → rebuild → revive → recover cycle.
#[derive(Debug, Clone)]
pub(crate) struct Cycle {
    pub(crate) rebuild_s: f64,
    pub(crate) recover_s: f64,
    /// Blocks reconstructed into the spares.
    pub(crate) blocks: u64,
    /// The bulk rebuild's own account, when the bulk rebuild ran.
    pub(crate) report: Option<RebuildReport>,
}

/// Run one cycle on the choreography's victim, keeping it down for at
/// least `dwell`, then (if `verify`) check every stripe. Failures go to
/// `tally`; returns `None` if the cycle did not complete.
pub(crate) fn cycle<Cl: Cluster>(
    cl: &mut Cl,
    choreo: &Choreo,
    tally: &Tally,
    spans: &mut Option<Spans>,
    (id, dwell, verify): (u64, Duration, bool),
) -> Option<Cycle> {
    let victim = choreo.victim;
    if !tally.note(cl.quiesce()) {
        return None;
    }
    let root = spans.as_mut().map(|sp| sp.open(id, "cycle"));
    let mut span = |name, from: Instant| {
        if let Some(sp) = spans.as_mut() {
            sp.record(id, name, from);
        }
    };
    choreo.set(true);
    let k = Instant::now();
    cl.kill(victim);
    span("cluster.kill", k);
    let r0 = Instant::now();
    let report = cl.rebuild(victim, WAVE_ROWS);
    let rebuild_s = r0.elapsed().as_secs_f64();
    span("client.rebuild", r0);
    if let Some(rest) = (k + dwell).checked_duration_since(Instant::now()) {
        std::thread::sleep(rest);
    }
    let v = Instant::now();
    cl.revive(victim);
    span("cluster.revive", v);
    choreo.set(false);
    let report = report.map_err(|e| format!("rebuild of site {victim}: {e}"));
    let c0 = Instant::now();
    let drained = cl
        .recover(victim)
        .map_err(|e| format!("recover of site {victim}: {e}"));
    let recover_s = c0.elapsed().as_secs_f64();
    span("client.recover", c0);
    let checked = if verify {
        let q = Instant::now();
        let r = cl
            .verify_parity()
            .map_err(|e| format!("parity after a rebuild cycle: {e}"));
        span("client.verify_parity", q);
        r
    } else {
        Ok(())
    };
    if let (Some(sp), Some(root)) = (spans.as_mut(), root) {
        sp.close(root);
    }
    let ok = [report.clone().map(drop), drained.map(drop), checked]
        .into_iter()
        .map(|r| tally.note(r))
        .fold(true, |a, b| a & b);
    let report = report.ok()?;
    ok.then_some(Cycle {
        rebuild_s,
        recover_s,
        blocks: report.blocks_rebuilt,
        report: Some(report),
    })
}

/// The writes the rebuild cycler makes between cycles.
pub(crate) struct Gap<'g> {
    pub(crate) ops: &'g [Op],
    pub(crate) per_cycle: usize,
}

/// The rebuild workload: while `readers` run uniform reads over every key
/// open loop, a cycler thread repeats [`cycle`] on `victim` (writing `gap`
/// keys with every site up between cycles); the readers' closed loop that
/// follows meets a healthy cluster.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rebuilding<Cl: Cluster + Send>(
    cl: &mut Cl,
    readers: Vec<Worker<'_, Cl::C>>,
    streams: &[(Vec<Op>, Vec<Op>)],
    phases: &Phases,
    victim: usize,
    gap: &Gap<'_>,
    oracle: &Oracle,
    tally: &Tally,
) -> Foreground {
    let n = readers.len();
    let choreo = Choreo::new(victim);
    let done = AtomicUsize::new(0);
    let barrier = Barrier::new(n + 1);
    let start = OnceLock::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(r, (mut w, stream))| {
                let (sync, choreo, done) = ((&barrier, &start), &choreo, &done);
                s.spawn(move || {
                    let out = phases.drive(&mut w, stream, phases.pace(r, n), sync, Some(choreo));
                    done.fetch_add(1, Ordering::SeqCst);
                    (out, w)
                })
            })
            .collect();
        let cycler = s.spawn(|| {
            sys::tighten_timer_slack();
            let origin = wait_for(&start);
            let mut spans = phases.trace.then(|| Spans::with_capacity(4096));
            let (mut cycles, mut lat) = (Vec::new(), Vec::new());
            let mut next = 0usize;
            let mut id = 1u64 << 40;
            let mut due = origin;
            // Cycles run during the open loop only: a cycle that met the
            // closed loop's saturating reader took up to twice as long, and
            // the share of such cycles, and so the median, moved from run
            // to run.
            let last_start = phases.open.saturating_sub(CYCLE_PERIOD);
            while done.load(Ordering::SeqCst) < n {
                // Cycles start on a fixed schedule, so the rebuild work per
                // second does not depend on how fast the host runs us.
                if let Some(rest) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(rest);
                }
                if !cycles.is_empty() && origin.elapsed() > last_start {
                    break;
                }
                due += CYCLE_PERIOD;
                id += 1;
                match cycle(cl, &choreo, tally, &mut spans, (id, DOWN_DWELL, true)) {
                    Some(c) => cycles.push(c),
                    None => break,
                }
                let mut w = Worker::new(&mut *cl.main(), oracle, tally, 2 + id);
                w.spans = spans.take();
                for _ in 0..gap.per_cycle {
                    let t = Instant::now();
                    w.run(gap.ops[next % gap.ops.len()]);
                    let at = (t - origin.min(t)).as_secs_f64() * 1e6;
                    lat.push((at, t.elapsed().as_secs_f64() * 1e6));
                    next += 1;
                }
                spans = w.spans.take();
            }
            (cycles, lat, spans)
        });
        let sampler = s.spawn(|| sample_steal(&start, &stop));
        let mut fg = Foreground {
            marks: mark_phases(&barrier, &start, phases),
            ..Foreground::default()
        };
        for h in handles {
            let ((samples, buckets), mut w) = h.join().expect("reader thread panicked");
            fg.absorb(samples, &buckets, &mut w);
        }
        stop.store(true, Ordering::SeqCst);
        fg.timeline(&start, sampler.join().expect("steal sampler panicked"));
        let (cycles, lat, spans) = cycler.join().expect("cycler thread panicked");
        fg.cycles = cycles;
        fg.gap_writes = lat;
        fg.spans.extend(spans);
        fg
    })
}

/// Read every key that passes `filter` back and compare it with its last
/// acknowledged version; returns how many acknowledged writes are missing.
pub(crate) fn read_back<C: Client>(
    client: &mut C,
    oracle: &Oracle,
    tally: &Tally,
    filter: impl Fn(u32) -> bool,
) -> u64 {
    let mut lost = 0;
    for key in (0..oracle.keys() as u32).filter(|&k| filter(k)) {
        let (site, index) = oracle.addr(key);
        let want = oracle.acked(key);
        let outcome = match client.read(site, index).map(|d| gen::check(&d)) {
            Ok(Some((k, v))) if k == key && v == want => Ok(()),
            other => {
                lost += 1;
                Err(format!(
                    "read-back of key {key}: {other:?}, expected version {want}"
                ))
            }
        };
        tally.note(outcome);
    }
    lost
}

/// The durable store's failure cycle: kill the victim, reconstruct every
/// one of its blocks into the spares through degraded reads (each checked
/// against the oracle), then crash-restart it from its log. The socket
/// client's bulk rebuild and recovery drain are not used here: their
/// batch retry budget is spent by disk-speed replies, and they fail.
pub(crate) fn reconstruct_and_restart<Cl: Cluster>(
    cl: &mut Cl,
    victim: usize,
    oracle: &Oracle,
    tally: &Tally,
) -> Option<Cycle> {
    if !tally.note(cl.quiesce()) {
        return None;
    }
    cl.kill(victim);
    let t = Instant::now();
    let before = tally.attempted();
    let lost = read_back(cl.main(), oracle, tally, |k| oracle.addr(k).0 == victim);
    let rebuild_s = t.elapsed().as_secs_f64();
    let blocks = tally.attempted() - before;
    let t = Instant::now();
    let restarted = cl.kill_restart(victim);
    let recover_s = t.elapsed().as_secs_f64();
    let ok = tally.note(if restarted {
        Ok(())
    } else {
        Err(format!("site {victim} did not restart"))
    });
    (ok && lost == 0).then_some(Cycle {
        rebuild_s,
        recover_s,
        blocks,
        report: None,
    })
}
