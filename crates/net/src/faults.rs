//! The fault switchboard: the one place a network's loss, duplication and
//! partition state lives, and the one place a message's fate is decided.
//!
//! Section 5 relaxes the reliable network of Section 3 to lost messages
//! and partitions. Both transports ask one [`FaultState`] for a
//! [`Verdict`] exactly once per protocol message: the threaded network on
//! every [`ThreadedEndpoint::send`](crate::ThreadedEndpoint::send), the
//! socket runtime's fault proxies on every relayed frame. A partition is
//! loss at send time: a message to or from a cut-off endpoint is never
//! delivered, and the cut-off endpoint's receive simply waits, like any
//! quiet link.
//!
//! The verdict takes no lock: every knob is an atomic, and the partition
//! flags are sized when the switchboard is built.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt separating the duplication decision stream from the loss stream:
/// both hash the same global counter, but a message's dup verdict must not
/// be a deterministic function of its loss verdict.
const DUP_SALT: u64 = 0x00D0_00D0_00D0_00D0;

/// What becomes of one protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver it once.
    Forward,
    /// Never deliver it; the sender still sees success.
    Drop,
    /// Deliver it twice, the copy directly behind the original.
    Duplicate,
}

/// A cluster's fault switchboard, shared by every endpoint or proxy that
/// carries its traffic.
#[derive(Debug)]
pub struct FaultState {
    /// Loss probability per protocol message, in 1/1000 units (0 = off).
    loss_permille: AtomicU64,
    /// Duplication probability per surviving message, in 1/1000 units.
    dup_permille: AtomicU64,
    seed: AtomicU64,
    /// One global decision counter across the cluster, so a `(seed,
    /// permille)` pair drops a reproducible *fraction* of its traffic (the
    /// exact victims depend on interleaving — the protocol's
    /// retransmission must converge for any loss pattern below certainty).
    counter: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    /// Partition flags by endpoint id; a message drops when either end is
    /// partitioned.
    partitioned: Box<[AtomicBool]>,
}

impl FaultState {
    /// A fault-free switchboard for a cluster of `endpoints` ids.
    pub fn new(endpoints: usize) -> Arc<FaultState> {
        Arc::new(FaultState {
            loss_permille: AtomicU64::new(0),
            dup_permille: AtomicU64::new(0),
            seed: AtomicU64::new(0),
            counter: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            partitioned: (0..endpoints).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    /// Start dropping roughly `permille`/1000 of protocol messages, seeded;
    /// `0` turns loss off. Loss is *silent*: the sender sees success, the
    /// message never arrives — what timer-based retransmission must absorb.
    pub fn set_loss(&self, permille: u16, seed: u64) {
        assert!(
            permille < 1000,
            "loss probability must stay below certainty"
        );
        self.seed.store(seed, Ordering::Relaxed);
        self.loss_permille
            .store(u64::from(permille), Ordering::Relaxed);
    }

    /// Start duplicating roughly `permille`/1000 of surviving protocol
    /// messages — a stale retransmission arriving after the original, which
    /// the receiving machines must treat idempotently.
    pub fn set_duplication(&self, permille: u16, seed: u64) {
        assert!(permille < 1000, "duplicating every message would livelock");
        self.seed.store(seed, Ordering::Relaxed);
        self.dup_permille
            .store(u64::from(permille), Ordering::Relaxed);
    }

    /// Cut endpoint `ep` off from everyone (or heal it): messages to or
    /// from it drop. Panics if `ep` is outside the switchboard.
    pub fn set_partitioned(&self, ep: usize, partitioned: bool) {
        self.partitioned[ep].store(partitioned, Ordering::Relaxed);
    }

    /// Protocol messages dropped by loss injection so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Protocol messages duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    fn is_partitioned(&self, ep: Option<usize>) -> bool {
        ep.and_then(|ep| self.partitioned.get(ep))
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// The fate of one protocol message from `src` to `dst` (`None` = an
    /// end not yet attributed, which no partition can match).
    pub fn verdict(&self, src: Option<usize>, dst: Option<usize>) -> Verdict {
        if self.is_partitioned(src) || self.is_partitioned(dst) {
            return Verdict::Drop;
        }
        let loss = self.loss_permille.load(Ordering::Relaxed);
        let dup = self.dup_permille.load(Ordering::Relaxed);
        if loss == 0 && dup == 0 {
            return Verdict::Forward;
        }
        let seed = self.seed.load(Ordering::Relaxed);
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if loss > 0 && splitmix64(seed ^ n) % 1000 < loss {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        if dup > 0 && splitmix64(seed ^ DUP_SALT ^ n) % 1000 < dup {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            return Verdict::Duplicate;
        }
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_drops_both_directions_and_heals() {
        let faults = FaultState::new(3);
        faults.set_partitioned(1, true);
        assert_eq!(faults.verdict(Some(0), Some(1)), Verdict::Drop);
        assert_eq!(faults.verdict(Some(1), Some(2)), Verdict::Drop);
        assert_eq!(faults.verdict(Some(0), Some(2)), Verdict::Forward);
        // An unattributed end matches no partition.
        assert_eq!(faults.verdict(None, Some(2)), Verdict::Forward);
        faults.set_partitioned(1, false);
        assert_eq!(faults.verdict(Some(0), Some(1)), Verdict::Forward);
        // Partition drops are not loss-injection drops.
        assert_eq!(faults.dropped(), 0);
    }
}
