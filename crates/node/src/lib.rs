//! # radd-node — the runtime interpreter of the RADD protocol
//!
//! The discrete-event cluster in `radd-core` measures the paper's numbers
//! deterministically; this crate runs the *same protocol machines* as an
//! actual local cluster: **one OS thread per site**, all coordination over
//! real message passing, no shared state between sites. It is the one
//! interpreter of the sans-IO machines for every real transport: the
//! client, the site loop, the cluster harness and the fault driver are
//! generic over a [`Transport`] (one endpoint) and a [`Network`] (the
//! endpoint factory and its fault switchboard). This crate instantiates them
//! over in-process crossbeam channels ([`radd_net::ThreadedNet`]) as
//! [`NodeCluster`], [`NodeClient`] and [`ThreadedDriver`]; `radd-rt`
//! instantiates the same code over TCP sockets.
//!
//! * Each [`site`] thread owns its disk array, UID generator, parity UID
//!   arrays and spare slots, and serves the Section 3 message protocol:
//!   reads/writes, parity updates (W4), spare probes/installs, block reads
//!   for reconstruction, and recovery drain.
//! * Write path: the owning site performs W1 locally, ships the W3 change
//!   mask to the parity site, and acknowledges the client only after the
//!   parity site's ack — precisely the "done = prepared" discipline of §6.
//!   Site event loops never block on each other (acks are matched through
//!   a pending table), so the protocol is deadlock-free by construction.
//! * Degraded operation is client-driven, as in the paper: on a down
//!   site, [`client::Client`] probes the spare site, reconstructs from
//!   the `G` survivors with §3.3 UID validation, installs the result into
//!   the spare, and redirects writes (W1').
//! * The [`Cluster`] harness drives its network's one
//!   [`radd_net::FaultState`] switchboard ([`Cluster::faults`]), which
//!   both transports consult once per message, so fault harnesses can
//!   inject silent message loss ([`Cluster::set_loss`]), duplication and
//!   network partitions ([`Cluster::isolate_site`]); sites absorb all
//!   three by retransmitting unacked parity updates with backoff and
//!   answering duplicates from their reply caches, and
//!   [`Cluster::quiesce`] waits until every pending table is empty.
//!
//! Temporary site failures and recovery are fully supported; disk
//! failures and disasters are covered by the deterministic runtime (they
//! need failure injection *inside* a site, which the DES models more
//! precisely).
//!
//! ```
//! use radd_node::NodeCluster;
//!
//! let mut cluster = NodeCluster::start(4, 12, 64); // G = 4, 12 rows, 64-B blocks
//! let block = vec![7u8; 64];
//! cluster.client().write(1, 0, &block).unwrap();
//!
//! cluster.kill_site(1); // the process stops answering
//! let got = cluster.client().read(1, 0).unwrap(); // reconstructed
//! assert_eq!(got, block);
//!
//! cluster.revive_site(1);
//! cluster.client().recover(1).unwrap();
//! assert_eq!(cluster.client().read(1, 0).unwrap(), block);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod driver;
pub mod message;
pub mod sharded;
pub mod site;
pub mod transport;

pub use client::{Client, ClientError, RetryIo};
pub use cluster::Cluster;
pub use driver::Driver;
pub use message::Msg;
pub use sharded::{PoolRebuildReport, ShardedNodeCluster};
pub use site::{run_site, Control, Reply, SiteConfig};
pub use transport::{Incoming, Network, SendOutcome, Transport};

use radd_net::{ThreadedEndpoint, ThreadedNet};

/// The threaded cluster: site threads over in-process channels.
pub type NodeCluster = Cluster<ThreadedNet<Msg>>;
/// A client of the threaded cluster.
pub type NodeClient = Client<ThreadedEndpoint<Msg>>;
/// The threaded cluster's [`radd_workload::faults::FaultDriver`].
pub type ThreadedDriver = Driver<ThreadedNet<Msg>>;
