//! A loopback socket cluster: `G + 2` site threads behind real TCP
//! listeners, every connection routed through a [`FaultProxy`].
//!
//! [`SocketCluster`] and [`SocketDriver`] are `radd-node`'s one cluster
//! harness and fault driver instantiated over [`ProxyNet`] — same
//! construction parameters, same endpoint numbering (clients at
//! `0..ep_base`, site `j` at `ep_base + j`), same control vocabulary as the
//! threaded `NodeCluster`, because they are the same code. What this module
//! contributes is the bring-up: every site map entry points at the site's
//! fault proxy rather than its listener, so *all* protocol traffic (client
//! requests, parity updates between sites, recovery drains) is subject to
//! the shared [`FaultState`] exactly once per message.

use crate::net::SocketEndpoint;
use crate::proxy::FaultProxy;
use radd_net::FaultState;
use radd_node::{Client, Cluster, Driver, Network};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// The socket cluster: site threads behind loopback listeners and fault
/// proxies.
pub type SocketCluster = Cluster<ProxyNet>;
/// The socket cluster's [`radd_workload::faults::FaultDriver`].
pub type SocketDriver = Driver<ProxyNet>;
/// A client over TCP.
pub type SocketClient = Client<SocketEndpoint>;

/// The socket cluster's network: one [`FaultProxy`] per site, all sharing
/// one [`FaultState`] switchboard.
pub struct ProxyNet {
    state: Arc<FaultState>,
    proxies: Vec<FaultProxy>,
}

impl Network for ProxyNet {
    type Endpoint = SocketEndpoint;

    /// Bind every site's listener on loopback, front each with a proxy,
    /// and hand every endpoint the list of *proxy* addresses as its site
    /// map.
    fn build(endpoints: usize, ep_base: usize) -> (ProxyNet, Vec<SocketEndpoint>) {
        let state = FaultState::new(endpoints);
        let listeners: Vec<TcpListener> = (ep_base..endpoints)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("site bind"))
            .collect();
        let proxies: Vec<FaultProxy> = listeners
            .iter()
            .enumerate()
            .map(|(j, l)| {
                let real = l.local_addr().expect("site addr");
                FaultProxy::spawn(real, ep_base + j, Arc::clone(&state))
            })
            .collect();
        let site_map: Vec<SocketAddr> = proxies.iter().map(FaultProxy::addr).collect();
        let clients = (0..ep_base).map(|id| SocketEndpoint::client(id, ep_base, site_map.clone()));
        let sites = listeners.into_iter().enumerate().map(|(j, listener)| {
            SocketEndpoint::site(ep_base + j, ep_base, site_map.clone(), listener)
        });
        let eps = clients.chain(sites).collect();
        (ProxyNet { state, proxies }, eps)
    }

    fn faults(&self) -> &FaultState {
        &self.state
    }

    fn shutdown(&mut self) {
        for p in &mut self.proxies {
            p.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn write_read_kill_reconstruct_recover_round_trip() {
        let mut cluster = SocketCluster::start(4, 12, 64);
        let block = vec![7u8; 64];
        cluster.client().write(1, 0, &block).unwrap();

        cluster.kill_site(1); // the process stops answering
        let got = cluster.client().read(1, 0).unwrap(); // reconstructed
        assert_eq!(got, block);

        cluster.revive_site(1);
        cluster.client().recover(1).unwrap();
        assert_eq!(cluster.client().read(1, 0).unwrap(), block);
        cluster.quiesce(Duration::from_secs(5)).unwrap();
        assert!(cluster.all_acked());
        cluster.client().verify_parity().unwrap();
        cluster.shutdown();
    }

    #[test]
    fn loss_burst_converges_and_is_observable() {
        let mut cluster = SocketCluster::start(4, 12, 64);
        cluster.set_loss(200, 0xFEED);
        for i in 0..6 {
            let block = vec![i as u8 + 1; 64];
            cluster
                .client()
                .write((i % 4) as usize, (i / 4) as u64, &block)
                .unwrap();
        }
        cluster.set_loss(0, 0);
        cluster.quiesce(Duration::from_secs(10)).unwrap();
        assert!(cluster.all_acked());
        cluster.client().verify_parity().unwrap();
        let snap = cluster.obs_snapshot();
        assert_eq!(snap.machines.len(), 1 + cluster.num_sites());
        assert!(snap.machine("client").is_some());
        cluster.shutdown();
    }
}
