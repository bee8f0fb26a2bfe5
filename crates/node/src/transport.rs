//! The seam between the interpreter and a network.
//!
//! [`Transport`] is one endpoint: send a message, wait for the next one.
//! [`Network`] builds a cluster's endpoints and hands out the one
//! [`FaultState`] switchboard their traffic consults. The client, the site
//! loop, the cluster harness and the fault driver are generic over these
//! two traits, so each runtime is one monomorphised copy of the same
//! interpreter — static dispatch, no boxing on the send path.
//!
//! This crate implements both traits over [`radd_net::ThreadedNet`]'s
//! in-process channels; `radd-rt` implements them over TCP endpoints and
//! its fault proxies.

use crate::message::Msg;
use crate::site::Control;
use radd_net::{FaultState, ThreadedEndpoint, ThreadedNet};
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
    /// arrived in time or the network is closed; a partitioned endpoint
    /// waits out its timeout like any quiet link.
    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming>;
}

/// A cluster's network: the factory for its endpoints and the holder of
/// their fault switchboard.
pub trait Network: Sized {
    /// The endpoint type this network hands out.
    type Endpoint: Transport + Send + 'static;
    /// Build a network of `endpoints` endpoints whose first site sits at
    /// `ep_base`. Returns the network and the endpoints in id order.
    fn build(endpoints: usize, ep_base: usize) -> (Self, Vec<Self::Endpoint>);
    /// The switchboard that decides the fate of every protocol message on
    /// this network: loss, duplication and partitions.
    fn faults(&self) -> &FaultState;
    /// Release whatever the network runs besides its endpoints.
    fn shutdown(&mut self);
}

impl Transport for ThreadedEndpoint<Msg> {
    fn id(&self) -> usize {
        ThreadedEndpoint::id(self)
    }

    fn send(&self, dst: usize, msg: Msg) -> SendOutcome {
        // Loss and partitions are silent; only a missing or closed
        // destination refuses the send.
        match ThreadedEndpoint::send(self, dst, msg) {
            Ok(()) => SendOutcome::Sent,
            Err(_) => SendOutcome::Closed,
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

    fn faults(&self) -> &FaultState {
        ThreadedNet::faults(self)
    }

    /// Channels close when the last endpoint drops; nothing else runs.
    fn shutdown(&mut self) {}
}
