//! The per-site server thread: a [`SiteMachine`] driven by a real event
//! loop, over any [`Transport`].
//!
//! All protocol logic — W1–W4 deferred acks, the parity UID idempotence
//! guard, stop-and-wait per-row retransmission, spare slots, the
//! at-most-once reply cache — lives in [`radd_protocol::SiteMachine`]. This
//! module owns only what the sans-IO machine cannot: the endpoint, the
//! wall clock, and the control plane. Each loop iteration
//!
//! 1. drains harness control commands,
//! 2. fires due retransmit timers into [`SiteMachine::on_timer`],
//! 3. takes one inbound item: a protocol message goes into
//!    [`SiteMachine::handle`], a control command that arrived over the
//!    transport (the socket runtime's wire control plane) is served like a
//!    harness one,
//!
//! and interprets the resulting effects: `Send` → endpoint send, `SetTimer`
//! → an exponential-backoff deadline in the local timer wheel, `ClearTimer`
//! → disarm. Block I/O receipts need no interpretation here (the machine
//! already performed the I/O against its [`radd_storage::SiteStore`] —
//! in-memory by default, or a durable WAL-backed store when the harness
//! asks for crash/restart coverage).
//!
//! Both control planes answer even while the site is marked down — a down
//! site is deaf to the protocol, not to its operator.
//!
//! Fault harnesses must quiesce a site (wait for its pending table to
//! drain, via [`Control::QueryPending`]) before killing it: a temporary
//! failure with an in-doubt parity update would otherwise leave data and
//! parity divergent, which is the §6 in-doubt-transaction problem the
//! paper resolves with coordinator logs that this runtime does not model.

use crate::transport::{Incoming, Transport};
use radd_net::RetryPolicy;
use radd_obs::{MachineObs, MachineSnapshot};
use radd_protocol::{
    trace, CoalescePolicy, Dest, DurableSiteState, Effect, IoPurpose, SiteMachine, TraceEntry,
};
use radd_storage::{SiteStore, StorageSpec};
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// Retransmission schedule for unacked parity updates — the shared policy,
/// so every runtime stays tuned together.
const RETRANSMIT: RetryPolicy = RetryPolicy::SITE_RETRANSMIT;

/// The answer path of a [`Control`] command: a channel back to an
/// in-process harness, or a frame back to a remote operator.
pub struct Reply<T>(Box<dyn FnOnce(T) + Send>);

impl<T> Reply<T> {
    /// A reply delivered by calling `f` with the answer.
    pub fn new(f: impl FnOnce(T) + Send + 'static) -> Reply<T> {
        Reply(Box::new(f))
    }

    /// Deliver the answer.
    pub fn send(self, value: T) {
        (self.0)(value);
    }
}

impl<T: Send + 'static> From<Sender<T>> for Reply<T> {
    /// Answer over a channel; a hung-up asker is not an error.
    fn from(tx: Sender<T>) -> Reply<T> {
        Reply::new(move |v| {
            let _ = tx.send(v);
        })
    }
}

impl<T> std::fmt::Debug for Reply<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reply")
    }
}

/// Control-plane commands (out of band, from a harness or an operator).
#[derive(Debug)]
pub enum Control {
    /// Mark the site down (refuse protocol messages) or back up. The ack
    /// makes the transition synchronous: the harness knows the site has
    /// crossed the boundary before it issues further traffic (otherwise a
    /// revive could be observed *before* the kill, leaving the site
    /// transiently deaf).
    SetDown(bool, Reply<()>),
    /// Report whether the site is marked down.
    QueryDown(Reply<bool>),
    /// Report how many writes are still waiting for a parity ack. The
    /// harness polls this to quiesce the cluster before failure injection
    /// or invariant checks.
    QueryPending(Reply<usize>),
    /// Report whether no request of this site is awaiting an ack
    /// ([`SiteMachine::all_acked`]).
    QueryAllAcked(Reply<bool>),
    /// Start (`true`) or stop recording the site's normalised effect trace
    /// (for differential tests against the DES interpreter).
    RecordTrace(bool, Reply<()>),
    /// Hand over the recorded trace, clearing the buffer.
    TakeTrace(Reply<Vec<TraceEntry>>),
    /// Freeze and hand over the site's metrics + flight-recorder snapshot.
    /// Served even while the site is marked down — exactly when the flight
    /// recorder is most interesting.
    QueryObs(Reply<MachineSnapshot>),
    /// Process crash + restart: drop the machine, the store, and every
    /// timer, then re-open from the site's durable storage. Replies `true`
    /// when the site actually restarted from disk; a memory-backed site
    /// replies `false` and keeps its state (there is nothing to restart
    /// *from* — losing everything would be a disaster, not a crash).
    KillRestart(Reply<bool>),
    /// Stop the thread.
    Shutdown,
}

/// Static site parameters.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// This site's id (0-based).
    pub site: usize,
    /// Group size `G`.
    pub group_size: usize,
    /// Block rows.
    pub rows: u64,
    /// Block size in bytes.
    pub block_size: usize,
    /// Endpoint id of site 0 (clients occupy the endpoints below it).
    pub ep_base: usize,
    /// Parity-update coalescing policy. Cluster harnesses default to
    /// [`CoalescePolicy::Merge`] (queued masks for a row XOR-merge while an
    /// update is in flight); differential harnesses pass
    /// [`CoalescePolicy::Off`] to stay message-for-message identical to the
    /// DES interpreter.
    pub coalesce: CoalescePolicy,
    /// Storage backend: volatile memory (default) or a durable
    /// [`radd_storage::DiskBlocks`] directory that survives
    /// [`Control::KillRestart`] — and, for a standalone server process, a
    /// plain `kill -9` + restart.
    pub storage: StorageSpec,
}

struct SiteDriver {
    cfg: SiteConfig,
    machine: SiteMachine,
    store: SiteStore,
    down: bool,
    /// Retransmit deadlines by outstanding tag.
    timers: BTreeMap<u64, Instant>,
    trace: Option<Vec<TraceEntry>>,
    /// Always-on metrics + flight recorder, tapped off the effect stream.
    /// Recording is fixed-cost (dense counters, a ring overwrite), so it
    /// stays enabled even when nobody will ever snapshot it.
    obs: MachineObs,
}

impl SiteDriver {
    fn interpret<T: Transport>(&mut self, ep: &T, out: Vec<Effect>) {
        let now = Instant::now();
        for eff in out {
            if let Some(buf) = &mut self.trace {
                if let Some(e) = trace(&eff) {
                    buf.push(e);
                }
            }
            self.obs.effect(&eff);
            match eff {
                Effect::Send { to, msg, .. } => {
                    let dst = match to {
                        Dest::Site(s) => self.cfg.ep_base + s,
                        Dest::Peer(p) => p,
                    };
                    let _ = ep.send(dst, msg);
                }
                Effect::SetTimer { tag, step } => {
                    self.timers.insert(tag, now + RETRANSMIT.delay(step));
                }
                Effect::ClearTimer { tag } => {
                    self.timers.remove(&tag);
                }
                // The machine already performed the I/O on the store; the
                // receipts matter only to cost-accounting drivers.
                Effect::Read { .. } | Effect::Write { .. } | Effect::DeferAck { .. } => {}
                // Disk-fault escalations cannot happen here: the store
                // never faults in-range and this runtime injects no disk
                // failures.
                Effect::NeedParityRebuild { .. } | Effect::ParityUnservable { .. } => {
                    debug_assert!(false, "disk-fault escalation in a faultless runtime");
                }
            }
        }
    }

    /// Fire every retransmit timer whose deadline has passed. The resend
    /// may itself be dropped by loss injection or refused during a
    /// partition; either way the timer re-arms with a doubled delay, so
    /// convergence only needs the loss probability to be below certainty
    /// and partitions to eventually heal.
    fn fire_due_timers<T: Transport>(&mut self, ep: &T) {
        let now = Instant::now();
        let due: Vec<u64> = self
            .timers
            .iter()
            .filter(|&(_, &at)| at <= now)
            .map(|(&tag, _)| tag)
            .collect();
        for tag in due {
            self.timers.remove(&tag);
            let mut out = Vec::new();
            self.machine.on_timer(tag, &mut out);
            self.interpret(ep, out);
        }
    }

    /// Feed one protocol message to the machine.
    fn deliver<T: Transport>(&mut self, ep: &T, src: usize, msg: crate::Msg) {
        let mut out = Vec::new();
        self.machine.handle(&mut self.store, src, msg, &mut out);
        // WAL rule: group-commit whatever the message staged (block
        // writes + the durable half of the machine) *before* interpreting
        // the effects — no ack may leave the process ahead of the log
        // record that justifies it. A memory-backed store is a no-op.
        if let Err(e) = self
            .store
            .commit(|| self.machine.durable_snapshot().encode())
        {
            panic!("site {}: durable commit failed: {e}", self.cfg.site);
        }
        self.interpret(ep, out);
    }

    /// Serve one control command. Returns `true` when it asked the site to
    /// stop.
    fn serve(&mut self, ctl: Control) -> bool {
        match ctl {
            Control::SetDown(down, ack) => {
                self.down = down;
                ack.send(());
            }
            Control::QueryDown(reply) => reply.send(self.down),
            Control::QueryPending(reply) => reply.send(self.machine.pending_writes()),
            Control::QueryAllAcked(reply) => reply.send(self.machine.all_acked()),
            Control::RecordTrace(on, ack) => {
                self.trace = if on { Some(Vec::new()) } else { None };
                ack.send(());
            }
            Control::TakeTrace(reply) => {
                reply.send(self.trace.replace(Vec::new()).unwrap_or_default());
            }
            Control::QueryObs(reply) => {
                // Coalesced merges are counted inside the machine; mirror
                // them into the gauge at snapshot time.
                let merges = self.machine.coalesced_merges();
                self.obs.metrics().set_coalesced_merges(merges);
                reply.send(self.obs.snapshot(&format!("site {}", self.cfg.site)));
            }
            Control::KillRestart(reply) => {
                let durable = self.store.is_durable();
                if durable {
                    // Crash: every volatile structure dies — the machine,
                    // the timer wheel, any staged-but-uncommitted writes
                    // inside the store. Restart: re-open from disk, which
                    // replays the committed log suffix and rebuilds the
                    // machine from the last durable snapshot (§3.4).
                    self.timers.clear();
                    (self.store, self.machine) = open_store(&self.cfg, &mut self.obs);
                    self.down = false;
                }
                reply.send(durable);
            }
            Control::Shutdown => return true,
        }
        false
    }
}

/// Open (or re-open) the site's storage and rebuild the machine from its
/// durable snapshot, if one exists. Returns the store and the machine; on a
/// fresh (or memory-backed) store the machine starts from geometry.
///
/// Each row the WAL replay re-applied is surfaced to `obs` as a
/// [`IoPurpose::LogReplay`] read receipt, so the flight recorder shows the
/// §3.4 recovery work a restart performed.
fn open_store(cfg: &SiteConfig, obs: &mut MachineObs) -> (SiteStore, SiteMachine) {
    let store = cfg
        .storage
        .for_site(cfg.site)
        .open(cfg.rows, cfg.block_size)
        .unwrap_or_else(|e| panic!("site {}: cannot open durable store: {e}", cfg.site));
    let mut machine = match store.meta().map(DurableSiteState::decode) {
        Some(Ok(d)) => SiteMachine::restore_durable(&d),
        Some(Err(e)) => panic!("site {}: corrupt durable snapshot: {e}", cfg.site),
        None => SiteMachine::new(cfg.site, cfg.group_size, cfg.rows, cfg.block_size),
    };
    machine.set_coalesce(cfg.coalesce);
    for row in store.replayed_rows() {
        obs.effect(&Effect::Read {
            row: *row,
            purpose: IoPurpose::LogReplay,
        });
    }
    (store, machine)
}

/// Run the site event loop until shutdown (by [`Control::Shutdown`] from
/// either control plane, or the harness channel disconnecting).
pub fn run_site<T: Transport>(cfg: SiteConfig, ep: &T, control: &Receiver<Control>) {
    let mut obs = MachineObs::new();
    let (store, machine) = open_store(&cfg, &mut obs);
    let mut st = SiteDriver {
        machine,
        store,
        down: false,
        timers: BTreeMap::new(),
        trace: None,
        obs,
        cfg,
    };
    loop {
        // Drain the whole control backlog first (non-blocking), then serve
        // protocol traffic.
        loop {
            match control.try_recv() {
                Ok(ctl) => {
                    if st.serve(ctl) {
                        return;
                    }
                }
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }
        if !st.down {
            st.fire_due_timers(ep);
        }
        match ep.recv_timeout(Duration::from_millis(20)) {
            Some(Incoming::Control(ctl)) => {
                if st.serve(ctl) {
                    return;
                }
            }
            // A down site answers nothing, and its own pending acks never
            // arrive either — exactly a crashed process from the network's
            // point of view. (We swallow the message rather than queueing.)
            Some(Incoming::Proto { src, msg }) if !st.down => st.deliver(ep, src, msg),
            Some(Incoming::Proto { .. }) | None => {}
        }
    }
}
