//! Client lifetime regressions against live socket sites.
//!
//! Sites keep an at-most-once reply cache keyed by `(client endpoint,
//! tag)`. Two hazards follow for real deployments where client processes
//! come and go while sites persist:
//!
//! 1. a *different* concurrent client must be able to read data written
//!    by another (distinct endpoint ids — no cache interaction), and
//! 2. a *restarted* client process that reuses an endpoint id must not be
//!    served cached replies meant for its previous incarnation. The
//!    incarnation tag salt ([`radd_rt::SocketClient::set_incarnation`])
//!    exists for exactly this; without it the site replays the old
//!    process's `WriteOk` against the new process's `Read` and the client
//!    aborts with a spurious multiple-failure error.

use radd_protocol::CoalescePolicy;
use radd_rt::server::run_site;
use radd_rt::{Control, SiteConfig, SocketClient, SocketCluster, SocketEndpoint};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread;

const G: usize = 1;
const ROWS: u64 = 8;
const BLOCK: usize = 128;
/// One reserved client endpoint slot, reused across "processes".
const EP_BASE: usize = 1;

/// Spawn a bare G+2 site cluster on loopback (no fault proxies, no
/// harness clients) — the same wiring the standalone binaries use.
fn spawn_sites() -> (
    Vec<SocketAddr>,
    Vec<mpsc::Sender<Control>>,
    Vec<thread::JoinHandle<()>>,
) {
    let listeners: Vec<TcpListener> = (0..G + 2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect();
    let (mut control, mut handles) = (Vec::new(), Vec::new());
    for (site, listener) in listeners.into_iter().enumerate() {
        let ep = SocketEndpoint::site(EP_BASE + site, EP_BASE, addrs.clone(), listener);
        let cfg = SiteConfig {
            site,
            group_size: G,
            rows: ROWS,
            block_size: BLOCK,
            ep_base: EP_BASE,
            coalesce: CoalescePolicy::Merge,
            storage: radd_storage::StorageSpec::Mem,
        };
        let (tx, rx) = mpsc::channel();
        control.push(tx);
        handles.push(thread::spawn(move || run_site(cfg, &ep, &rx)));
    }
    (addrs, control, handles)
}

fn fresh_client(addrs: &[SocketAddr], incarnation: u64) -> SocketClient {
    let ep = SocketEndpoint::client(0, EP_BASE, addrs.to_vec());
    let mut client = SocketClient::new(ep, EP_BASE, G, ROWS, BLOCK);
    client.set_incarnation(incarnation);
    client
}

#[test]
fn a_restarted_client_does_not_alias_the_reply_cache() {
    let (addrs, control, handles) = spawn_sites();
    {
        // First "process": write, then exit (dropping the endpoint tears
        // down its connections, but the sites keep its replies cached).
        let mut first = fresh_client(&addrs, 1);
        first.write(0, 1, &[0xAA; BLOCK]).expect("first write");
    }
    // Second "process" on the same endpoint id. With a distinct
    // incarnation its tags never collide with the first process's, so the
    // site executes the read instead of replaying a cached WriteOk.
    let mut second = fresh_client(&addrs, 2);
    let got = second.read(0, 1).expect("read after restart");
    assert_eq!(got, vec![0xAA; BLOCK]);
    drop(second);
    for tx in &control {
        let _ = tx.send(Control::Shutdown);
    }
    for h in handles {
        h.join().expect("site thread");
    }
}

#[test]
fn concurrent_clients_on_distinct_endpoints_share_the_store() {
    let (mut cluster, mut extra) =
        SocketCluster::start_with(G, ROWS, BLOCK, 2, CoalescePolicy::Merge);
    cluster
        .client()
        .write(0, 1, &[0xAA; BLOCK])
        .expect("write from client 0");
    let got = extra[0].read(0, 1).expect("read from client 1");
    assert_eq!(got, vec![0xAA; BLOCK]);
    cluster.shutdown();
}
