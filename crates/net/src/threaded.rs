//! A real-concurrency network over crossbeam channels.
//!
//! The discrete-event simulator gives deterministic measurements; the
//! threaded runtime gives real message passing for integration tests that
//! exercise the protocol code under actual concurrency. Each site owns a
//! [`ThreadedEndpoint`]; any endpoint can send to any site id. Every send
//! consults the network's [`FaultState`] once — drop, deliver, or deliver
//! twice — so loss, duplication and §5 partitions behave exactly as they
//! do at the socket runtime's fault proxies.

use crate::faults::{FaultState, Verdict};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A transmission line with finite capacity: one message at a time, each
/// occupying the line for the wire's latency.
///
/// This is the network's only model of wire time. An endpoint attached to
/// a `Wire` ([`ThreadedNet::set_wire`]) holds the line's lock while it
/// sleeps the wire time on every send. A wire private to one endpoint
/// charges that endpoint a fixed per-message latency; endpoints — possibly
/// of *different* [`ThreadedNet`] instances — attached to the same wire
/// contend for it. That makes a pool site's transmit capacity a physically
/// shared resource across all the per-group endpoints that live on that
/// site, which is what lets a rebuild bench measure real fan-out: reads
/// answered by many distinct pool sites overlap, reads answered by one
/// site serialize.
#[derive(Debug)]
pub struct Wire {
    line: Mutex<()>,
    latency_ns: AtomicU64,
}

impl Wire {
    /// A wire occupying its sender for `latency` per message.
    pub fn new(latency: Duration) -> Arc<Wire> {
        Arc::new(Wire {
            line: Mutex::new(()),
            latency_ns: AtomicU64::new(latency.as_nanos() as u64),
        })
    }

    /// Change the wire time (0 disables the sleep but keeps serialization).
    pub fn set_latency(&self, latency: Duration) {
        self.latency_ns
            .store(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Occupy the line for one message.
    fn transmit(&self) {
        let _line = self.line.lock();
        let ns = self.latency_ns.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
}

/// A message with its source address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inbound<M> {
    /// Sending site.
    pub src: usize,
    /// Payload.
    pub payload: M,
}

/// Errors from the threaded network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination id does not exist.
    NoSuchSite(usize),
    /// No message arrived within the timeout.
    Timeout,
    /// All senders disconnected (network shut down).
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchSite(s) => write!(f, "no such site {s}"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Disconnected => write!(f, "network shut down"),
        }
    }
}

impl std::error::Error for NetError {}

struct Shared<M> {
    senders: Vec<Sender<Inbound<M>>>,
    faults: Arc<FaultState>,
    /// Per-endpoint wires: an endpoint with a wire charges that wire's
    /// latency, under its lock, on every delivered send.
    wires: RwLock<Vec<Option<Arc<Wire>>>>,
}

/// Factory and control plane for a set of endpoints.
pub struct ThreadedNet<M> {
    shared: Arc<Shared<M>>,
}

/// One site's handle: send to any site, receive what was sent to this one.
pub struct ThreadedEndpoint<M> {
    id: usize,
    shared: Arc<Shared<M>>,
    inbox: Receiver<Inbound<M>>,
}

impl<M: Send + 'static> ThreadedNet<M> {
    /// Build a fully connected network of `n` sites; returns the control
    /// handle and one endpoint per site.
    pub fn new(n: usize) -> (ThreadedNet<M>, Vec<ThreadedEndpoint<M>>) {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            senders,
            faults: FaultState::new(n),
            wires: RwLock::new(vec![None; n]),
        });
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(id, inbox)| ThreadedEndpoint {
                id,
                shared: Arc::clone(&shared),
                inbox,
            })
            .collect();
        (ThreadedNet { shared }, endpoints)
    }

    /// The fault switchboard every send on this network consults.
    pub fn faults(&self) -> &FaultState {
        &self.shared.faults
    }

    /// Attach `endpoint`'s sends to a [`Wire`] (or detach with `None`, which
    /// makes its sends instantaneous). While attached the endpoint charges
    /// the wire's latency under the wire's lock, serializing with every
    /// other endpoint on the same wire, across nets.
    pub fn set_wire(&self, endpoint: usize, wire: Option<Arc<Wire>>) {
        self.shared.wires.write()[endpoint] = wire;
    }
}

impl<M: Send + 'static> ThreadedEndpoint<M> {
    /// This endpoint's site id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Send `payload` to `dst`. Loss and partitions are silent: the
    /// sender sees `Ok`, the message never arrives.
    pub fn send(&self, dst: usize, payload: M) -> Result<(), NetError>
    where
        M: Clone,
    {
        let tx = self
            .shared
            .senders
            .get(dst)
            .ok_or(NetError::NoSuchSite(dst))?;
        let verdict = self.shared.faults.verdict(Some(self.id), Some(dst));
        if verdict == Verdict::Drop {
            return Ok(());
        }
        let wire = self.shared.wires.read()[self.id].clone();
        if let Some(wire) = wire {
            wire.transmit();
        }
        let inbound = |payload| Inbound {
            src: self.id,
            payload,
        };
        if verdict == Verdict::Duplicate {
            tx.send(inbound(payload.clone()))
                .map_err(|_| NetError::Disconnected)?;
        }
        tx.send(inbound(payload))
            .map_err(|_| NetError::Disconnected)
    }

    /// Receive the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Inbound<M>, NetError> {
        self.inbox.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn point_to_point_delivery() {
        let (_net, eps) = ThreadedNet::new(3);
        eps[0].send(2, "hi").unwrap();
        let got = eps[2].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(got.payload, "hi");
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (_net, mut eps) = ThreadedNet::new(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t = thread::spawn(move || {
            let m = b.recv_timeout(Duration::from_secs(2)).unwrap();
            b.send(m.src, m.payload + 1).unwrap();
        });
        a.send(1, 41).unwrap();
        let reply = a.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(reply.payload, 42);
        t.join().unwrap();
    }

    #[test]
    fn unknown_destination() {
        let (_net, eps) = ThreadedNet::<u8>::new(1);
        assert_eq!(eps[0].send(9, 0).unwrap_err(), NetError::NoSuchSite(9));
    }

    /// Everything waiting in `ep`'s inbox, without blocking on an empty one.
    fn drain<M: Send + 'static>(ep: &ThreadedEndpoint<M>) -> Vec<M> {
        std::iter::from_fn(|| ep.recv_timeout(Duration::ZERO).ok())
            .map(|m| m.payload)
            .collect()
    }

    #[test]
    fn partition_is_silent_loss_at_send_time() {
        let (net, eps) = ThreadedNet::new(3);
        net.faults().set_partitioned(1, true);
        // Both directions drop, and the sender cannot tell.
        eps[0].send(1, "in").unwrap();
        eps[1].send(0, "out").unwrap();
        eps[0].send(2, "around").unwrap();
        assert!(drain(&eps[0]).is_empty());
        assert!(drain(&eps[1]).is_empty());
        assert_eq!(drain(&eps[2]), ["around"]);
        // Healing restores connectivity.
        net.faults().set_partitioned(1, false);
        eps[0].send(1, "healed").unwrap();
        assert_eq!(drain(&eps[1]), ["healed"]);
    }

    #[test]
    fn loss_drops_a_fraction_silently() {
        let (net, eps) = ThreadedNet::<u32>::new(2);
        net.faults().set_loss(400, 0xFEED);
        for i in 0..1000 {
            eps[0].send(1, i).unwrap(); // loss is invisible to the sender
        }
        let got = drain(&eps[1]).len();
        let dropped = net.faults().dropped();
        assert_eq!(got + dropped as usize, 1000);
        assert!(
            (200..600).contains(&dropped),
            "~40% of 1000 sends should drop, got {dropped}"
        );
        // Turning loss off restores perfect delivery.
        net.faults().set_loss(0, 0);
        eps[0].send(1, 7).unwrap();
        assert_eq!(drain(&eps[1]), [7]);
    }

    #[test]
    fn duplication_enqueues_the_copy_behind_the_original() {
        let (net, eps) = ThreadedNet::<u32>::new(2);
        net.faults().set_duplication(999, 0xD00D);
        eps[0].send(1, 5).unwrap();
        assert_eq!(drain(&eps[1]), [5, 5]);
        assert_eq!(net.faults().duplicated(), 1);
    }

    #[test]
    fn private_wire_occupies_the_sender() {
        let (net, eps) = ThreadedNet::<u8>::new(2);
        net.set_wire(0, Some(Wire::new(Duration::from_millis(5))));
        let t0 = Instant::now();
        for _ in 0..4 {
            eps[0].send(1, 0).unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "4 sends at 5 ms wire time each"
        );
        // Delivery itself is unaffected.
        assert_eq!(drain(&eps[1]).len(), 4);
        net.set_wire(0, None);
        let t1 = Instant::now();
        eps[0].send(1, 0).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(5), "wire detached");
    }

    #[test]
    fn shared_wire_serializes_across_nets() {
        // Two independent nets whose endpoint 0s share one wire: their
        // sends serialize, while an unwired endpoint stays instant.
        let (net_a, mut eps_a) = ThreadedNet::<u8>::new(2);
        let (net_b, mut eps_b) = ThreadedNet::<u8>::new(2);
        let wire = Wire::new(Duration::from_millis(5));
        net_a.set_wire(0, Some(Arc::clone(&wire)));
        net_b.set_wire(0, Some(Arc::clone(&wire)));
        let ep_a1 = eps_a.pop().unwrap();
        let ep_a0 = eps_a.pop().unwrap();
        let ep_b0 = eps_b.swap_remove(0);
        let t0 = Instant::now();
        let (ep_a0, ep_b0) = thread::scope(|s| {
            let ta = s.spawn(move || {
                for _ in 0..3 {
                    ep_a0.send(1, 0).unwrap();
                }
                ep_a0
            });
            let tb = s.spawn(move || {
                for _ in 0..3 {
                    ep_b0.send(1, 0).unwrap();
                }
                ep_b0
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        let _ = ep_b0;
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "6 sends on one 5 ms wire serialize"
        );
        // The unwired endpoint is not slowed by the wire.
        let t1 = Instant::now();
        ep_a1.send(0, 0).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(5));
        // Detaching restores instant sends.
        net_a.set_wire(0, None);
        let t2 = Instant::now();
        ep_a0.send(1, 0).unwrap();
        assert!(t2.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn timeout_when_idle() {
        let (_net, eps) = ThreadedNet::<u8>::new(1);
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(20)).unwrap_err(),
            NetError::Timeout
        );
    }
}
