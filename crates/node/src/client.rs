//! The client library: a [`ClientMachine`] bound to any [`Transport`].
//!
//! All §3.2/§3.3 client logic — degraded reads via spare or validated
//! reconstruction, W1' redirected writes, the recovery drain — lives in
//! [`radd_protocol::ClientMachine`]. This module supplies its
//! [`ClientIo`], [`RetryIo`]: requests are retried with a growing
//! per-attempt timeout before the client gives up, so lost messages (see
//! [`crate::Cluster::set_loss`]) delay operations instead of failing them.
//! Every request the client can resend is idempotent on the receiving
//! site: reads and probes trivially, `SpareInstall` and `RestoreBlock` by
//! overwriting with identical contents, `ParityUpdate` by the parity
//! site's UID comparison, duplicates of anything else by the site's reply
//! cache. The one destructive request, `SpareTake`, is only issued *after*
//! the block it covers has been restored, so a lost reply costs nothing.
//!
//! Two degraded-path rules keep retries from compounding:
//!
//! * a send the transport reports [`SendOutcome::Closed`] fails the
//!   request immediately — a destination that does not exist can never
//!   answer, so burning the timeout ladder only adds latency (a
//!   *partitioned* link or a failed dial keeps retrying: both heal);
//! * a batch ([`ClientIo::exchange_batch`]) shares **one** attempt budget
//!   per site across all of its entries, and short-circuits the remaining
//!   entries for a site that already exhausted it — a G-way degraded read
//!   with one down site pays one ladder, not one per entry.
//!
//! Every wire attempt, retransmission, stash eviction and failed send is
//! recorded in a per-client [`radd_obs::MachineObs`]; see
//! [`Client::obs_snapshot`].

use crate::message::Msg;
use crate::transport::{Incoming, SendOutcome, Transport};
use radd_net::RetryPolicy;
use radd_obs::{MachineObs, MachineSnapshot};
use radd_parity::xor_fold;
use radd_protocol::obs::ObsEvent;
use radd_protocol::{
    ClientErr, ClientIo, ClientMachine, Dest, RebuildReport, SparePolicy, TraceEntry,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// §3.3 retry budget for inconsistent reconstruction reads.
const RECONSTRUCT_RETRIES: u32 = 20;
/// Back-off before retrying an operation whose reconstruction raced a
/// parity update.
const INCONSISTENT_BACKOFF: Duration = Duration::from_millis(5);
/// Replies stashed beyond this count have their oldest entries dropped
/// (stale duplicates, e.g. a second `WriteOk` from a retransmitted write).
const STASH_CAP: usize = 512;
/// Rows per wave of the [`Client::verify_parity`] sweep, before the clamp
/// that keeps a wave's replies within half the reply stash.
const VERIFY_WAVE_ROWS: usize = 32;
/// Tag-space bit marking requests minted outside the protocol machine
/// (oracle sweeps like [`Client::verify_parity`]).
const ORACLE_TAG_BIT: u64 = 1 << 46;
/// Client UID namespaces count *down* from `u16::MAX` while site machines
/// count *up* from their site id. This cap keeps the two pools provably
/// disjoint and — more importantly — keeps the `u16` conversion exact: a
/// truncated endpoint id would alias another client's namespace and break
/// the §3.2 requirement that UIDs never repeat across writers.
const MAX_CLIENT_NAMESPACES: usize = 4096;

/// The UID namespace for the client on endpoint `ep_id`. Panics when the
/// endpoint id would not map injectively into the client pool.
fn client_uid_namespace(ep_id: usize) -> u16 {
    assert!(
        ep_id < MAX_CLIENT_NAMESPACES,
        "client endpoint id {ep_id} exceeds the {MAX_CLIENT_NAMESPACES}-entry \
         UID namespace pool; truncating it would alias another writer's \
         namespace and break §3.2 UID uniqueness"
    );
    u16::MAX - ep_id as u16
}

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Address out of range.
    OutOfRange,
    /// Payload size mismatch.
    BadSize,
    /// A needed peer did not answer (after all retries).
    Timeout {
        /// The unresponsive site.
        site: usize,
    },
    /// Two failures overlap (e.g. the spare already stands in for another
    /// site).
    MultipleFailure,
    /// Reconstruction kept failing §3.3 UID validation.
    Inconsistent,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::OutOfRange => write!(f, "address out of range"),
            ClientError::BadSize => write!(f, "payload size mismatch"),
            ClientError::Timeout { site } => write!(f, "site {site} did not answer"),
            ClientError::MultipleFailure => write!(f, "multiple overlapping failures"),
            ClientError::Inconsistent => {
                write!(f, "reconstruction stayed inconsistent after retries")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientErr> for ClientError {
    fn from(e: ClientErr) -> ClientError {
        match e {
            ClientErr::OutOfRange => ClientError::OutOfRange,
            ClientErr::BadSize => ClientError::BadSize,
            ClientErr::Timeout { site } => ClientError::Timeout { site },
            ClientErr::MultipleFailure { .. } | ClientErr::Unavailable { .. } => {
                ClientError::MultipleFailure
            }
            ClientErr::Inconsistent { .. } => ClientError::Inconsistent,
        }
    }
}

/// The machine's transport: request/reply over an endpoint with retry and
/// backoff.
pub struct RetryIo<T> {
    ep: T,
    ep_base: usize,
    /// Replies that arrived while we were waiting for a different tag —
    /// fan-out responses come back in arbitrary order.
    stash: HashMap<u64, Msg>,
    stash_order: VecDeque<u64>,
    /// Attempt-ladder tuning — [`RetryPolicy::CLIENT_ATTEMPT`] by default.
    policy: RetryPolicy,
    stash_cap: usize,
    /// Per-client metrics + flight recorder.
    obs: MachineObs,
}

impl<T: Transport> RetryIo<T> {
    /// Request/reply over `ep`, whose cluster's site 0 is endpoint
    /// `ep_base`.
    pub fn new(ep: T, ep_base: usize) -> RetryIo<T> {
        RetryIo {
            ep,
            ep_base,
            stash: HashMap::new(),
            stash_order: VecDeque::new(),
            policy: RetryPolicy::CLIENT_ATTEMPT,
            stash_cap: STASH_CAP,
            obs: MachineObs::new(),
        }
    }

    /// Replace the attempt ladder (tests shrink it).
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Bound the out-of-order reply stash to `cap` entries.
    pub fn set_stash_cap(&mut self, cap: usize) {
        self.stash_cap = cap;
    }

    /// Freeze the metrics and flight recorder.
    pub fn obs_snapshot(&self) -> MachineSnapshot {
        self.obs.snapshot("client")
    }

    /// One wire attempt: record it, send it, classify the outcome.
    fn send_attempt(&mut self, site: usize, msg: &Msg, retransmit: bool) -> SendOutcome {
        self.obs.event(ObsEvent::Send {
            to: Dest::Site(site),
            kind: msg.kind(),
            tag: msg.tag(),
            wire: msg.wire_size() as u64,
            retransmit,
            replay: false,
        });
        let out = self.ep.send(self.ep_base + site, msg.clone());
        if out == SendOutcome::Closed {
            self.obs.metrics().send_failure();
        }
        out
    }

    /// Wait for the reply carrying `tag`. Replies to *other* outstanding
    /// requests are stashed for their own `wait` calls; only a reply whose
    /// tag was never issued is truly stale.
    fn wait(&mut self, tag: u64, timeout: Duration) -> Option<Msg> {
        if let Some(m) = self.stash.remove(&tag) {
            return Some(m);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let msg = match self.ep.recv_timeout(left)? {
                Incoming::Proto { msg, .. } => msg,
                // Clients never listen, so a control command can only be
                // a stray — drop it rather than letting it eat the window.
                Incoming::Control(_) => continue,
            };
            let t = msg.tag();
            if t == tag {
                return Some(msg);
            }
            if self.stash.insert(t, msg).is_none() {
                self.stash_order.push_back(t);
                if self.stash_order.len() > self.stash_cap {
                    if let Some(old) = self.stash_order.pop_front() {
                        self.stash.remove(&old);
                        self.obs.metrics().stash_eviction();
                    }
                }
            }
        }
    }

    /// Send `msg` to `site`, retrying with exponential backoff until a
    /// reply arrives or the attempt budget is spent. All retried requests
    /// are idempotent at the receiver (see the module docs). A closed
    /// destination fails immediately — no answer can ever arrive from it.
    pub fn request(&mut self, site: usize, msg: &Msg) -> Option<Msg> {
        let tag = msg.tag();
        for k in 0..self.policy.attempts {
            if self.send_attempt(site, msg, k > 0) == SendOutcome::Closed {
                return self.stash.remove(&tag);
            }
            if let Some(reply) = self.wait(tag, self.policy.delay(k)) {
                return Some(reply);
            }
        }
        None
    }
}

impl<T: Transport> ClientIo for RetryIo<T> {
    fn exchange(&mut self, site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        self.request(site, &msg).ok_or(ClientErr::Timeout { site })
    }

    /// Pipelined batch: every request goes on the wire before any reply is
    /// awaited, so the target sites serve them concurrently. Replies are
    /// then collected in request order; out-of-order arrivals land in the
    /// tag-keyed stash exactly as fan-out replies always have.
    ///
    /// Retries share **one** attempt budget per site across the whole
    /// batch: when several entries target a site that is down, the first
    /// entry's ladder spends the budget and every later entry for that
    /// site short-circuits to `Timeout` (after checking the stash — its
    /// reply may have arrived while an earlier entry waited). Without
    /// this, a G-way degraded read against one dead site would serialise G
    /// full retry ladders. The budget counts *expired windows only*, and a
    /// reply refills it: a healthy site must be able to answer a batch of
    /// any width, not just `attempts` entries (a wide recovery drain once
    /// burned the whole budget on its first twelve successful probes and
    /// synthesised timeouts for the rest of the wave).
    fn exchange_batch(
        &mut self,
        reqs: Vec<(usize, Msg)>,
        _background: bool,
    ) -> Vec<Result<Msg, ClientErr>> {
        let mut used: HashMap<usize, u32> = HashMap::new();
        let mut dead: HashSet<usize> = HashSet::new();
        for (site, msg) in &reqs {
            if dead.contains(site) {
                continue;
            }
            if self.send_attempt(*site, msg, false) == SendOutcome::Closed {
                dead.insert(*site);
            }
        }
        reqs.into_iter()
            .map(|(site, msg)| {
                let tag = msg.tag();
                // Served while an earlier entry was waiting?
                if let Some(reply) = self.stash.remove(&tag) {
                    return Ok(reply);
                }
                if dead.contains(&site) {
                    return Err(ClientErr::Timeout { site });
                }
                loop {
                    let k = *used.entry(site).or_insert(0);
                    if k >= self.policy.attempts {
                        dead.insert(site);
                        return Err(ClientErr::Timeout { site });
                    }
                    // The first window (`k == 0`) rides on the pipelined
                    // send above; a window only opens with a resend after
                    // an earlier one expired (idempotent at the receiver).
                    if k > 0 && self.send_attempt(site, &msg, true) == SendOutcome::Closed {
                        dead.insert(site);
                        return self.stash.remove(&tag).ok_or(ClientErr::Timeout { site });
                    }
                    if let Some(reply) = self.wait(tag, self.policy.delay(k)) {
                        // The site is alive: refill its budget so the rest
                        // of the batch gets full ladders too.
                        used.insert(site, 0);
                        return Ok(reply);
                    }
                    *used.get_mut(&site).expect("inserted above") += 1;
                }
            })
            .collect()
    }
    // old_value stays `None`: the real runtimes have no buffer-pool
    // oracle, so degraded writes fetch the old value through the protocol.
}

/// The cluster client: a [`ClientMachine`] over a [`RetryIo`].
pub struct Client<T> {
    machine: ClientMachine,
    io: RetryIo<T>,
    block_size: usize,
    /// Tag counter for oracle sweeps issued outside the machine.
    next_oracle_tag: u64,
}

impl<T: Transport> Client<T> {
    /// Bind a client to `ep` for a `g`-site group with `rows` block rows of
    /// `block_size` bytes, whose site 0 is endpoint `ep_base`.
    pub fn new(ep: T, ep_base: usize, g: usize, rows: u64, block_size: usize) -> Client<T> {
        // Every client mints UIDs from its own namespace keyed by its
        // endpoint id, so concurrent clients never collide, and clients of
        // different runtimes on the same endpoint id agree (a precondition
        // for byte-identical differential traces). Any "local system" may
        // mint UIDs, per §3.2 — uniqueness is all that matters.
        let uid_namespace = client_uid_namespace(ep.id());
        Client {
            machine: ClientMachine::new(
                g,
                rows,
                block_size,
                SparePolicy::OnePerParity,
                true,
                uid_namespace,
            ),
            io: RetryIo::new(ep, ep_base),
            block_size,
            next_oracle_tag: 0,
        }
    }

    /// Salt request tags with a restart incarnation (see
    /// [`ClientMachine::set_incarnation`]): standalone client processes
    /// must call this with something unique per start, or a site's
    /// at-most-once reply cache will replay answers meant for the previous
    /// process on the same endpoint id. Cluster harnesses, whose clients
    /// live as long as the sites, keep the default incarnation 0.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.machine.set_incarnation(incarnation);
    }

    /// Tell the machine `site` is believed down (or back up). In a real
    /// deployment this input comes from a failure detector; tests and the
    /// fault driver set it explicitly.
    pub fn mark_down(&mut self, site: usize, down: bool) {
        self.machine.set_down(site, down);
    }

    /// Whether this client currently believes `site` is down.
    pub fn is_marked_down(&self, site: usize) -> bool {
        self.machine.is_down(site)
    }

    /// The cluster geometry.
    pub fn geometry(&self) -> &radd_layout::Geometry {
        self.machine.geometry()
    }

    /// Start recording this client's normalised request trace.
    pub fn record_trace(&mut self) {
        self.machine.record_trace();
    }

    /// Take the recorded trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.machine.take_trace()
    }

    /// Freeze this client's metrics and flight recorder. Latency
    /// histograms hold wall-clock nanoseconds per completed operation.
    pub fn obs_snapshot(&self) -> MachineSnapshot {
        self.io.obs_snapshot()
    }

    /// Run `op` until its reconstruction stops racing parity updates.
    /// §3.3: an inconsistent reconstruction means a parity update is in
    /// flight; back off and retry the whole operation.
    fn retry_inconsistent<R>(
        &mut self,
        mut op: impl FnMut(&mut ClientMachine, &mut RetryIo<T>) -> Result<R, ClientErr>,
    ) -> Result<R, ClientError> {
        for _ in 0..RECONSTRUCT_RETRIES {
            match op(&mut self.machine, &mut self.io) {
                Err(ClientErr::Inconsistent { .. }) => std::thread::sleep(INCONSISTENT_BACKOFF),
                done => return done.map_err(ClientError::from),
            }
        }
        Err(ClientError::Inconsistent)
    }

    /// Read the `index`-th data block of `site`.
    pub fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, ClientError> {
        let started = Instant::now();
        let block = self.retry_inconsistent(|m, io| m.read(io, site, index).map(|b| b.to_vec()))?;
        self.io
            .obs
            .metrics()
            .record_read_latency(started.elapsed().as_nanos() as u64);
        Ok(block)
    }

    /// Write the `index`-th data block of `site`.
    pub fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), ClientError> {
        let started = Instant::now();
        self.retry_inconsistent(|m, io| m.write(io, site, index, data))?;
        self.io
            .obs
            .metrics()
            .record_write_latency(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Recovery drain for a revived site (§3.2's background process, driven
    /// from here): for every spare standing in for it, restore the block at
    /// the revived site first, *then* invalidate the spare — so a lost
    /// reply at any step leaves the data reachable and every step safe to
    /// retry. Returns the number of blocks drained.
    pub fn recover(&mut self, site: usize) -> Result<u64, ClientError> {
        let drained = self
            .machine
            .recover(&mut self.io, site)
            .map_err(ClientError::from)?;
        let m = self.io.obs.metrics();
        m.recovery_run();
        m.set_recovery_progress(drained, 0);
        Ok(drained)
    }

    /// Bulk-rebuild every data block a believed-down `site` owns into the
    /// row spares (§3.3 reconstruction fanned wave-by-wave across all
    /// survivors). Idempotent: rows already absorbed are skipped, so an
    /// `Inconsistent` fold (a parity update racing the rebuild) retries the
    /// whole pass cheaply.
    pub fn rebuild(&mut self, site: usize, wave_rows: usize) -> Result<RebuildReport, ClientError> {
        let report = self.retry_inconsistent(|m, io| m.rebuild_member(io, site, wave_rows))?;
        let m = self.io.obs.metrics();
        m.rebuild_run();
        m.add_rebuild(report.blocks_rebuilt, report.bytes_xored);
        m.set_rebuild_fanout(report.peer_reads.iter().filter(|&&n| n > 0).count() as u64);
        Ok(report)
    }

    fn oracle_tag(&mut self) -> u64 {
        self.next_oracle_tag += 1;
        ORACLE_TAG_BIT | self.next_oracle_tag
    }

    /// Verify the stripe invariant — formula (1): each row's parity block
    /// is the XOR of its `G` data blocks — over every row by reading all of
    /// its non-spare blocks (requires every site up). Returns the first
    /// violated row in row order: `"site {s} did not answer for row {row}"`
    /// or `"parity mismatch in row {row}"`.
    ///
    /// The sweep is pipelined in waves of 32 rows: every `BlockRead` of a
    /// wave goes out as one [`RetryIo::exchange_batch`] before any reply is
    /// awaited, and each row's data blocks are then folded into one reused
    /// accumulator. A wave is clamped so its `rows × (num_sites − 1)`
    /// replies fill at most half the reply stash (512 entries by default):
    /// replies that arrive while an earlier entry is awaited never evict
    /// each other. A down site fails the sweep after one attempt ladder,
    /// since the batch budget short-circuits its later entries.
    ///
    /// This is an oracle sweep outside the [`ClientMachine`]: its requests
    /// carry oracle tags and never enter the machine's recorded trace, so
    /// running it leaves differential traces unchanged.
    pub fn verify_parity(&mut self) -> Result<(), String> {
        let geo = *self.machine.geometry();
        let n = geo.num_sites();
        let per_row = n - 1;
        let wave_rows = VERIFY_WAVE_ROWS.min((self.io.stash_cap / 2 / per_row).max(1));
        let mut acc = vec![0u8; self.block_size];
        for first in (0..geo.rows()).step_by(wave_rows) {
            let rows = first..geo.rows().min(first + wave_rows as u64);
            let mut reqs = Vec::with_capacity(wave_rows * per_row);
            for row in rows.clone() {
                let spare_site = geo.spare_site(row);
                for s in (0..n).filter(|&s| s != spare_site) {
                    let tag = self.oracle_tag();
                    reqs.push((s, Msg::BlockRead { row, tag }));
                }
            }
            let mut replies = self.io.exchange_batch(reqs, false).into_iter();
            for row in rows {
                let parity_site = geo.parity_site(row);
                let spare_site = geo.spare_site(row);
                let mut parity = None;
                let mut blocks = Vec::with_capacity(n - 2);
                for s in (0..n).filter(|&s| s != spare_site) {
                    match replies.next().expect("one reply per request") {
                        Ok(Msg::BlockData { data, .. }) if s == parity_site => parity = Some(data),
                        Ok(Msg::BlockData { data, .. }) => blocks.push(data),
                        _ => return Err(format!("site {s} did not answer for row {row}")),
                    }
                }
                acc.fill(0);
                let views: Vec<&[u8]> = blocks.iter().map(|b| &b[..]).collect();
                xor_fold(&mut acc, &views);
                if parity.as_deref() != Some(&acc[..]) {
                    return Err(format!("parity mismatch in row {row}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_uid_namespaces_are_distinct_and_disjoint_from_sites() {
        // Clients of every runtime on the same endpoint id must mint from
        // the same namespace for differential traces to agree.
        assert_eq!(client_uid_namespace(0), u16::MAX);
        assert_eq!(client_uid_namespace(1), u16::MAX - 1);
        let mut seen = HashSet::new();
        for ep_id in 0..64 {
            let ns = client_uid_namespace(ep_id);
            assert!(seen.insert(ns), "namespace collision at endpoint {ep_id}");
            // Site machines mint from namespace = site id, counting up.
            assert!(
                (ns as usize) >= MAX_CLIENT_NAMESPACES,
                "client namespace {ns} would collide with a site namespace"
            );
        }
    }

    #[test]
    #[should_panic(expected = "UID namespace")]
    fn truncating_endpoint_ids_is_refused() {
        // 65536 would silently truncate to namespace u16::MAX - 0 — the
        // primary client's namespace. The checked allocator must refuse.
        let _ = client_uid_namespace(65536);
    }

    #[test]
    #[should_panic(expected = "UID namespace")]
    fn endpoint_ids_beyond_the_pool_are_refused() {
        let _ = client_uid_namespace(MAX_CLIENT_NAMESPACES);
    }
}
