//! # radd-rt — the socket transport for the RADD runtime
//!
//! `radd-core` drives [`radd_protocol::ClientMachine`]/
//! [`radd_protocol::SiteMachine`] under a deterministic discrete-event
//! simulator; `radd-node` is the one runtime interpreter of those machines
//! — client attempt ladder, site event loop, cluster harness, fault
//! driver — generic over a transport. This crate is the second transport:
//! **real TCP sockets** — one listener per site, a length-prefixed,
//! checksummed wire codec for the protocol vocabulary, reconnect with
//! backoff, and fault proxies on the path. Because every runtime
//! interprets the same effect stream with the same code, the differential
//! test can demand their normalised traces match **byte for byte**.
//!
//! Layer map:
//!
//! * [`frame`] — the wire: `[len][checksum][payload]` frames over TCP,
//!   hardened against truncation, oversized prefixes and corruption; the
//!   payload vocabulary is `radd_protocol::codec`'s binary encoding plus a
//!   `Hello` handshake and a small admin control protocol.
//! * [`net`] — [`net::SocketEndpoint`]: connection management (dial on
//!   demand, Hello attribution, reconnect with backoff), one reader thread
//!   per connection feeding a single inbox; `radd-node`'s `Transport`.
//! * [`server`] — `radd-node`'s site loop re-exported, plus the wire
//!   control plane: `radd-cli`'s [`CtlReq`] frames answered through the
//!   shared [`Control`] vocabulary.
//! * [`proxy`] — [`proxy::FaultProxy`]: a frame-aware TCP relay that
//!   carries out the verdicts of `radd-net`'s shared [`FaultState`]
//!   switchboard (drop, partition, duplicate) on *protocol* frames, so
//!   fault plans run against real connections.
//! * [`cluster`] — [`cluster::ProxyNet`], the loopback listener and proxy
//!   bring-up behind [`SocketCluster`] and [`SocketDriver`] (`radd-node`'s
//!   harness and fault driver over sockets).
//! * [`admin`] — [`CtlClient`], the operator's end of the control plane.
//! * [`config`] — the static site-map format the standalone binaries
//!   (`radd-server`, `radd-client`, `radd-cli`) deploy from.
//!
//! ```
//! use radd_rt::SocketCluster;
//!
//! let mut cluster = SocketCluster::start(4, 12, 64); // G = 4, 12 rows, 64-B blocks
//! let block = vec![7u8; 64];
//! cluster.client().write(1, 0, &block).unwrap();
//! cluster.kill_site(1);
//! assert_eq!(cluster.client().read(1, 0).unwrap(), block); // reconstructed
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod cluster;
pub mod config;
pub mod frame;
pub mod net;
pub mod proxy;
pub mod server;

pub use admin::CtlClient;
pub use cluster::{ProxyNet, SocketClient, SocketCluster, SocketDriver};
pub use config::{ClusterConfig, StorageKind};
pub use frame::{CtlRep, CtlReq, Frame, FrameDecoder, FrameError};
pub use net::{Inbound, SendOutcome, SocketEndpoint};
pub use proxy::FaultProxy;
pub use radd_net::FaultState;
pub use radd_node::ClientError;
pub use server::{Control, SiteConfig};
