//! The seam between the interpreter and a network.
//!
//! [`Transport`] is one endpoint: send a message, wait for the next one.
//! [`Network`] builds a cluster's endpoints and is its fault surface (loss
//! injection, partitions). The client, the site loop, the cluster harness
//! and the fault driver are generic over these two traits, so each runtime
//! is one monomorphised copy of the same interpreter — static dispatch, no
//! boxing on the send path.
//!
//! This crate implements both traits over [`radd_net::ThreadedNet`]'s
//! in-process channels; `radd-rt` implements them over TCP endpoints and
//! its fault proxies.

use crate::message::Msg;
use crate::site::Control;
use radd_net::threaded::NetError;
use radd_net::{ThreadedEndpoint, ThreadedNet};
use std::time::Duration;

/// What became of one send attempt: `Sent` covers everything a retry can
/// fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// On the wire, or silently lost (loss injection, a partition, a dial
    /// still backing off) — retriable.
    Sent,
    /// No retry can succeed: the destination does not exist or the
    /// network is shut down.
    Closed,
}

/// One item taken off an endpoint's inbox.
#[derive(Debug)]
pub enum Incoming {
    /// A protocol message from endpoint `src`.
    Proto {
        /// Sender's endpoint id.
        src: usize,
        /// The message.
        msg: Msg,
    },
    /// An operator command that arrived over the transport itself (the
    /// socket runtime's wire control plane). Sites serve it exactly like a
    /// harness [`Control`]; clients ignore it.
    Control(Control),
}

/// One endpoint of a network. Endpoint ids: clients `0..ep_base`, site `j`
/// at `ep_base + j`.
pub trait Transport {
    /// This endpoint's id.
    fn id(&self) -> usize;
    /// Send `msg` to endpoint `dst`.
    fn send(&self, dst: usize, msg: Msg) -> SendOutcome;
    /// The next inbound item, waiting up to `timeout`. `None` when nothing
    /// arrived (timeout, partition, or a closed network).
    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming>;
}

/// A cluster's network: the factory for its endpoints and the fault
/// surface the harness drives.
pub trait Network: Sized {
    /// The endpoint type this network hands out.
    type Endpoint: Transport + Send + 'static;
    /// Build a network of `endpoints` endpoints whose first site sits at
    /// `ep_base`. Returns the fault surface and the endpoints in id order.
    fn build(endpoints: usize, ep_base: usize) -> (Self, Vec<Self::Endpoint>);
    /// Drop roughly `permille`/1000 of protocol messages, silently; `0`
    /// turns loss off.
    fn set_loss(&self, permille: u16, seed: u64);
    /// Messages dropped by loss injection so far.
    fn dropped(&self) -> u64;
    /// Cut endpoint `endpoint` off from everyone (or heal it).
    fn set_partitioned(&self, endpoint: usize, partitioned: bool);
    /// Release whatever the network runs besides its endpoints.
    fn shutdown(&mut self);
}

impl Transport for ThreadedEndpoint<Msg> {
    fn id(&self) -> usize {
        ThreadedEndpoint::id(self)
    }

    fn send(&self, dst: usize, msg: Msg) -> SendOutcome {
        match ThreadedEndpoint::send(self, dst, msg) {
            // A partitioned link refuses the send but may heal before the
            // sender gives up — retriable, exactly like silent loss.
            Ok(()) | Err(NetError::Partitioned | NetError::Timeout) => SendOutcome::Sent,
            Err(NetError::Disconnected | NetError::NoSuchSite(_)) => SendOutcome::Closed,
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming> {
        let inbound = ThreadedEndpoint::recv_timeout(self, timeout).ok()?;
        Some(Incoming::Proto {
            src: inbound.src,
            msg: inbound.payload,
        })
    }
}

impl Network for ThreadedNet<Msg> {
    type Endpoint = ThreadedEndpoint<Msg>;

    fn build(endpoints: usize, _ep_base: usize) -> (Self, Vec<ThreadedEndpoint<Msg>>) {
        ThreadedNet::new(endpoints)
    }

    fn set_loss(&self, permille: u16, seed: u64) {
        ThreadedNet::set_loss(self, permille, seed);
    }

    fn dropped(&self) -> u64 {
        ThreadedNet::dropped(self)
    }

    fn set_partitioned(&self, endpoint: usize, partitioned: bool) {
        ThreadedNet::set_partitioned(self, endpoint, partitioned);
    }

    /// Channels close when the last endpoint drops; nothing else runs.
    fn shutdown(&mut self) {}
}
