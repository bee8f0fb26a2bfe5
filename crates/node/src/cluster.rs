//! The cluster harness: `G + 2` site threads plus client handles over any
//! [`Network`].
//!
//! [`Cluster`] spawns one [`run_site`] thread per site endpoint, keeps one
//! client attached, and drives the sites through their [`Control`]
//! channels: synchronous kill/revive, crash + restart, quiesce, trace and
//! observability collection. Fault injection goes through the network's
//! one [`FaultState`] switchboard, which both transports consult once per
//! message — per send on [`radd_net::ThreadedNet`], per relayed frame at
//! the fault proxies on sockets. Endpoint numbering is the same on every
//! network: clients at `0..ep_base`, site `j` at `ep_base + j`.

use crate::client::Client;
use crate::site::{run_site, Control, Reply, SiteConfig};
use crate::transport::Network;
use crate::Msg;
use radd_net::{FaultState, ThreadedNet, Wire};
use radd_protocol::{CoalescePolicy, TraceEntry};
use radd_storage::StorageSpec;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a control round-trip may take before the site is presumed
/// wedged.
const CONTROL_WAIT: Duration = Duration::from_secs(5);
/// Crash + restart replays the WAL, so it gets longer.
const RESTART_WAIT: Duration = Duration::from_secs(10);

/// A running cluster: `G + 2` site threads plus a client handle.
pub struct Cluster<N: Network> {
    net: N,
    client: Client<N::Endpoint>,
    control: Vec<Sender<Control>>,
    handles: Vec<JoinHandle<()>>,
    num_sites: usize,
    ep_base: usize,
}

impl<N: Network> Cluster<N> {
    /// Spawn a cluster with group size `g`, `rows` block rows per site and
    /// `block_size`-byte blocks. Endpoint 0 is the client; sites are
    /// endpoints `1..=G+2` (site `j` lives at endpoint `j + 1`).
    pub fn start(g: usize, rows: u64, block_size: usize) -> Cluster<N> {
        let (cluster, _extra) = Cluster::start_multi(g, rows, block_size, 1);
        cluster
    }

    /// Like [`start`](Cluster::start) but with `clients ≥ 1` client
    /// handles: one stays attached to the cluster, the rest are returned
    /// for use from other threads (each owns its own endpoint and UID
    /// namespace).
    ///
    /// Sites run with parity-update coalescing on
    /// ([`radd_protocol::CoalescePolicy::Merge`]): while a row's update is
    /// unacknowledged, further queued masks XOR-merge into one pending
    /// update. Use [`start_with`](Cluster::start_with) to pick the policy
    /// explicitly (differential harnesses turn it off to stay
    /// message-for-message identical to the DES interpreter).
    pub fn start_multi(
        g: usize,
        rows: u64,
        block_size: usize,
        clients: usize,
    ) -> (Cluster<N>, Vec<Client<N::Endpoint>>) {
        Cluster::start_with(g, rows, block_size, clients, CoalescePolicy::Merge)
    }

    /// [`start_multi`](Cluster::start_multi) with an explicit parity-update
    /// [`CoalescePolicy`].
    pub fn start_with(
        g: usize,
        rows: u64,
        block_size: usize,
        clients: usize,
        coalesce: CoalescePolicy,
    ) -> (Cluster<N>, Vec<Client<N::Endpoint>>) {
        Cluster::start_durable(g, rows, block_size, clients, coalesce, &StorageSpec::Mem)
    }

    /// [`start_with`](Cluster::start_with) plus a [`StorageSpec`]: pass
    /// [`StorageSpec::Disk`] with a cluster root directory and every site
    /// runs on a durable WAL-backed store under `<dir>/site-<j>`, which
    /// survives [`kill_restart_site`](Cluster::kill_restart_site).
    pub fn start_durable(
        g: usize,
        rows: u64,
        block_size: usize,
        clients: usize,
        coalesce: CoalescePolicy,
        storage: &StorageSpec,
    ) -> (Cluster<N>, Vec<Client<N::Endpoint>>) {
        assert!(clients >= 1, "need at least one client");
        let num_sites = g + 2;
        let ep_base = clients;
        let (net, mut endpoints) = N::build(ep_base + num_sites, ep_base);
        let site_eps = endpoints.split_off(ep_base);
        let mut handles = Vec::new();
        let mut control = Vec::new();
        for (j, ep) in site_eps.into_iter().enumerate() {
            let (ctl_tx, ctl_rx) = mpsc::channel();
            control.push(ctl_tx);
            let cfg = SiteConfig {
                site: j,
                group_size: g,
                rows,
                block_size,
                ep_base,
                coalesce,
                storage: storage.clone(),
            };
            handles.push(std::thread::spawn(move || run_site(cfg, &ep, &ctl_rx)));
        }
        let mut clients = endpoints
            .into_iter()
            .map(|ep| Client::new(ep, ep_base, g, rows, block_size));
        let client = clients.next().expect("at least one client endpoint");
        let extra = clients.collect();
        let cluster = Cluster {
            net,
            client,
            control,
            handles,
            num_sites,
            ep_base,
        };
        (cluster, extra)
    }

    /// The client handle for issuing operations.
    pub fn client(&mut self) -> &mut Client<N::Endpoint> {
        &mut self.client
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// The network's fault switchboard: loss, duplication and partitions,
    /// plus the counters of what it dropped and duplicated.
    pub fn faults(&self) -> &FaultState {
        self.net.faults()
    }

    /// One control round-trip with site `site`; `None` when it did not
    /// answer within `wait`.
    fn ask<R: Send + 'static>(
        &self,
        site: usize,
        wait: Duration,
        command: impl FnOnce(Reply<R>) -> Control,
    ) -> Option<R> {
        let (tx, rx) = mpsc::channel();
        let _ = self.control[site].send(command(tx.into()));
        rx.recv_timeout(wait).ok()
    }

    fn set_down(&mut self, site: usize, down: bool) {
        // Synchronous: the site has crossed the boundary before we return,
        // so subsequent traffic observes a consistent state.
        self.ask(site, CONTROL_WAIT, |ack| Control::SetDown(down, ack));
        self.client.mark_down(site, down);
    }

    /// Temporary site failure: the site stops answering protocol messages
    /// (its disks keep their contents). Quiesce first (see
    /// [`Cluster::quiesce`]) unless you *want* an in-doubt parity update
    /// stranded at the dead site.
    pub fn kill_site(&mut self, site: usize) {
        self.set_down(site, true);
    }

    /// Bring a killed site back in the **recovering** state; run
    /// [`Client::recover`] to drain its spares and mark it up.
    pub fn revive_site(&mut self, site: usize) {
        self.set_down(site, false);
    }

    /// Process crash + restart of site `site`: its machine, timers and any
    /// uncommitted staged writes are dropped on the floor, then the site
    /// re-opens its durable store — replaying the committed WAL suffix and
    /// rebuilding the machine from the last snapshot (§3.4). Synchronous:
    /// returns once the site is serving again. Returns `false` (and
    /// changes nothing) when the cluster runs on memory-backed storage.
    pub fn kill_restart_site(&mut self, site: usize) -> bool {
        let restarted = self
            .ask(site, RESTART_WAIT, Control::KillRestart)
            .unwrap_or(false);
        if restarted {
            // The restarted machine is Up; make sure the client agrees
            // (e.g. after a kill_site → kill_restart_site sequence).
            self.client.mark_down(site, false);
        }
        restarted
    }

    /// Start dropping roughly `permille`/1000 of all protocol messages,
    /// silently (sender still sees success). `0` turns loss off. Sites
    /// converge anyway by retransmitting unacked parity updates.
    pub fn set_loss(&self, permille: u16, seed: u64) {
        self.faults().set_loss(permille, seed);
    }

    /// §5 partition: cut `site` off from the network (everything to and
    /// from it is lost; its thread keeps running). The client treats it
    /// like a down site and takes the degraded paths.
    pub fn isolate_site(&mut self, site: usize) {
        self.faults().set_partitioned(self.ep_base + site, true);
        self.client.mark_down(site, true);
    }

    /// Heal a partition created by [`Cluster::isolate_site`]. The site
    /// immediately resumes retransmitting whatever parity updates it could
    /// not deliver while cut off. Run [`Client::recover`] afterwards to
    /// drain spares populated on its behalf during the partition.
    pub fn heal_site(&mut self, site: usize) {
        self.faults().set_partitioned(self.ep_base + site, false);
        self.client.mark_down(site, false);
    }

    /// How many writes at `site` still await their parity ack.
    pub fn pending_writes(&self, site: usize) -> usize {
        self.ask(site, CONTROL_WAIT, Control::QueryPending)
            .unwrap_or(0)
    }

    /// Whether every site machine reports
    /// [`all_acked`](radd_protocol::SiteMachine::all_acked) —
    /// i.e. no parity update anywhere is still awaiting its ack.
    pub fn all_acked(&self) -> bool {
        (0..self.num_sites).all(|s| {
            self.ask(s, CONTROL_WAIT, Control::QueryAllAcked)
                .unwrap_or(false)
        })
    }

    /// Start (or stop) recording normalised effect traces on every site
    /// machine and the attached client, for differential comparison with
    /// the DES interpreter.
    pub fn record_traces(&mut self, on: bool) {
        for s in 0..self.num_sites {
            self.ask(s, CONTROL_WAIT, |ack| Control::RecordTrace(on, ack));
        }
        if on {
            self.client.record_trace();
        }
    }

    /// Collect the recorded traces: index 0 is the attached client, index
    /// `1 + j` is site `j` — the same peer numbering the DES interpreter
    /// uses.
    pub fn take_traces(&mut self) -> Vec<Vec<TraceEntry>> {
        let mut all = vec![self.client.take_trace()];
        for s in 0..self.num_sites {
            all.push(
                self.ask(s, CONTROL_WAIT, Control::TakeTrace)
                    .unwrap_or_default(),
            );
        }
        all
    }

    /// Freeze the whole cluster's observability state: the attached
    /// client's metrics + flight recorder at index 0, then each site's at
    /// index `1 + j` — the same machine numbering the traces use. Latency
    /// histograms hold wall-clock nanoseconds (the DES records logical
    /// ledger microseconds instead; see `radd-obs`'s crate docs).
    ///
    /// Snapshots are served from the sites' control drains, so a site
    /// marked down still answers — its flight recorder is usually the one
    /// worth reading.
    pub fn obs_snapshot(&mut self) -> radd_obs::ObsSnapshot {
        let mut machines = vec![self.client.obs_snapshot()];
        for s in 0..self.num_sites {
            machines.push(
                self.ask(s, CONTROL_WAIT, Control::QueryObs)
                    .unwrap_or_else(|| radd_obs::MachineObs::new().snapshot(&format!("site {s}"))),
            );
        }
        radd_obs::ObsSnapshot { machines }
    }

    /// Wait until no site holds an unacked parity update (i.e. every
    /// acknowledged write is fully reflected in parity), polling for up to
    /// `timeout`. Partitioned sites cannot drain — heal them first.
    pub fn quiesce(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let pending: Vec<(usize, usize)> = (0..self.num_sites)
                .map(|s| (s, self.pending_writes(s)))
                .filter(|&(_, n)| n > 0)
                .collect();
            if pending.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "quiesce timed out; unacked parity updates remain: {pending:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stop every site thread, join them, and shut the network down.
    pub fn shutdown(mut self) {
        for ctl in &self.control {
            let _ = ctl.send(Control::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.net.shutdown();
    }
}

/// Wire-time knobs only the in-process network models.
impl Cluster<ThreadedNet<Msg>> {
    /// Model wire time on every link: each send occupies the sending
    /// thread for `latency`, on a private [`Wire`] per endpoint (replacing
    /// any wire attached by [`set_site_wire`](Cluster::set_site_wire)).
    /// Zero (the default) detaches them and keeps sends instantaneous.
    pub fn set_link_latency(&self, latency: Duration) {
        for ep in 0..self.ep_base + self.num_sites {
            let wire = (!latency.is_zero()).then(|| Wire::new(latency));
            self.net.set_wire(ep, wire);
        }
    }

    /// Attach (or detach with `None`) a shared transmission [`Wire`] to
    /// site `j`'s endpoint. Every send from that site then serialises on
    /// the wire for the wire's latency — the physical model behind the
    /// rebuild benchmarks: one wire per *pool site* shared across all the
    /// groups it hosts makes a site's uplink the contended resource.
    pub fn set_site_wire(&self, site: usize, wire: Option<Arc<Wire>>) {
        self.net.set_wire(self.ep_base + site, wire);
    }
}
