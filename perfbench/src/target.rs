//! The two runtimes under test behind one interface, so every workload
//! phase is written once. Each method is a public client or cluster call
//! of `radd-node` or `radd-rt`; nothing here reaches inside them.

use radd_node::{NodeClient, NodeCluster};
use radd_obs::{MachineSnapshot, ObsSnapshot};
use radd_protocol::{CoalescePolicy, RebuildReport};
use radd_rt::{SocketClient, SocketCluster};
use radd_storage::StorageSpec;
use std::time::Duration;

/// How long a quiesce may wait for parity acks to drain.
const QUIESCE: Duration = Duration::from_secs(30);

/// One client handle, owned by one generator thread.
pub(crate) trait Client: Send {
    fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, String>;
    fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), String>;
    fn mark_down(&mut self, site: usize, down: bool);
    fn obs(&self) -> MachineSnapshot;
}

/// A running cluster plus its attached control client.
pub(crate) trait Cluster {
    type C: Client;
    fn main(&mut self) -> &mut Self::C;
    fn kill(&mut self, site: usize);
    fn revive(&mut self, site: usize);
    fn kill_restart(&mut self, site: usize) -> bool;
    fn rebuild(&mut self, site: usize, wave_rows: usize) -> Result<RebuildReport, String>;
    fn recover(&mut self, site: usize) -> Result<u64, String>;
    fn verify_parity(&mut self) -> Result<(), String>;
    fn quiesce(&self) -> Result<(), String>;
    fn obs(&mut self) -> ObsSnapshot;
    fn shutdown(self);
}

/// Start a threaded cluster with `clients` extra client handles.
pub(crate) fn start_node(
    g: usize,
    rows: u64,
    block: usize,
    clients: usize,
) -> (NodeCluster, Vec<NodeClient>) {
    NodeCluster::start_multi(g, rows, block, clients + 1)
}

/// Start a socket cluster on `storage` with `clients` extra client handles.
pub(crate) fn start_socket(
    g: usize,
    rows: u64,
    block: usize,
    clients: usize,
    storage: &StorageSpec,
) -> (SocketCluster, Vec<SocketClient>) {
    SocketCluster::start_durable(g, rows, block, clients + 1, CoalescePolicy::Merge, storage)
}

macro_rules! impl_client {
    ($t:ty) => {
        impl Client for $t {
            fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, String> {
                <$t>::read(self, site, index).map_err(|e| e.to_string())
            }
            fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), String> {
                <$t>::write(self, site, index, data).map_err(|e| e.to_string())
            }
            fn mark_down(&mut self, site: usize, down: bool) {
                <$t>::mark_down(self, site, down);
            }
            fn obs(&self) -> MachineSnapshot {
                self.obs_snapshot()
            }
        }
    };
}

impl<C: Client> Client for &mut C {
    fn read(&mut self, site: usize, index: u64) -> Result<Vec<u8>, String> {
        (**self).read(site, index)
    }
    fn write(&mut self, site: usize, index: u64, data: &[u8]) -> Result<(), String> {
        (**self).write(site, index, data)
    }
    fn mark_down(&mut self, site: usize, down: bool) {
        (**self).mark_down(site, down);
    }
    fn obs(&self) -> MachineSnapshot {
        (**self).obs()
    }
}

impl_client!(NodeClient);
impl_client!(SocketClient);

macro_rules! impl_cluster {
    ($t:ty, $c:ty) => {
        impl Cluster for $t {
            type C = $c;
            fn main(&mut self) -> &mut $c {
                self.client()
            }
            fn kill(&mut self, site: usize) {
                self.kill_site(site);
            }
            fn revive(&mut self, site: usize) {
                self.revive_site(site);
            }
            fn kill_restart(&mut self, site: usize) -> bool {
                self.kill_restart_site(site)
            }
            fn rebuild(&mut self, site: usize, wave_rows: usize) -> Result<RebuildReport, String> {
                self.client()
                    .rebuild(site, wave_rows)
                    .map_err(|e| e.to_string())
            }
            fn recover(&mut self, site: usize) -> Result<u64, String> {
                self.client().recover(site).map_err(|e| e.to_string())
            }
            fn verify_parity(&mut self) -> Result<(), String> {
                self.client().verify_parity()
            }
            fn quiesce(&self) -> Result<(), String> {
                <$t>::quiesce(self, QUIESCE)
            }
            fn obs(&mut self) -> ObsSnapshot {
                self.obs_snapshot()
            }
            fn shutdown(self) {
                <$t>::shutdown(self);
            }
        }
    };
}

impl_cluster!(NodeCluster, NodeClient);
impl_cluster!(SocketCluster, SocketClient);
