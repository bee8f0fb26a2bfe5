//! # radd-net — the network substrate
//!
//! Section 3 assumes a reliable network; Section 5 then relaxes that to
//! cover **lost messages** and **network partitions**. Reliability itself
//! is the protocol's job — the sans-IO site machine retransmits unacked
//! parity updates stop-and-wait and the client retries on an attempt
//! ladder — so this crate holds only what those layers run on:
//!
//! * [`stats::NetStats`] — byte and message accounting, the basis of the
//!   §7.4 bandwidth comparison (change-mask traffic vs disk bandwidth).
//! * [`partition::PartitionMap`] — group membership during a partition and
//!   the §5 classification: a `G+1`/`1` split looks like a single site
//!   failure and the majority side proceeds; anything else must block.
//! * [`retry::RetryPolicy`] — the backoff schedules every wall-clock
//!   runtime retries on.
//! * [`faults::FaultState`] — the fault switchboard: the only holder of
//!   loss, duplication and partition state, and the only place a
//!   message's fate is decided. Both transports consult it once per
//!   message — the threaded network per send, the socket runtime's fault
//!   proxies per relayed frame.
//! * [`threaded`] — a crossbeam-channel network for the threaded runtime
//!   (real concurrency rather than virtual time), with modelled wire time
//!   ([`Wire`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod partition;
pub mod retry;
pub mod stats;
pub mod threaded;

pub use faults::{FaultState, Verdict};
pub use partition::{PartitionMap, PartitionVerdict};
pub use retry::RetryPolicy;
pub use stats::NetStats;
pub use threaded::{ThreadedEndpoint, ThreadedNet, Wire};
