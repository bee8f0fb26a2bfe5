//! The socket site: `radd-node`'s one site event loop over a
//! [`SocketEndpoint`](crate::SocketEndpoint), plus the wire control plane.
//!
//! Protocol behaviour is the interpreter's — [`run_site`] is the same
//! loop the threaded runtime runs. What the socket runtime adds is a
//! second, *wire* control plane: [`CtlReq`] frames from `radd-cli` arrive
//! on the endpoint's inbox, and `wire_control` turns each into the
//! shared [`Control`] vocabulary with a reply that writes the matching
//! [`CtlRep`] frame back to the requesting connection. A standalone
//! `radd-server` process is thereby inspected and administered remotely
//! by the same code that serves the in-process harness.
//!
//! Both control planes answer even while the site is marked down — a down
//! site is deaf to the protocol, not to its operator.

use crate::frame::{CtlRep, CtlReq, Frame};
use crate::net::WriteHalf;
use radd_node::Reply;
use radd_obs::ObsSnapshot;

pub use radd_node::{run_site, Control, SiteConfig};

/// Translate one wire control request into a [`Control`] command whose
/// reply is written back on `conn` as a `CtlRep` frame echoing `rid`.
pub(crate) fn wire_control(rid: u64, req: &CtlReq, conn: WriteHalf) -> Control {
    let answer = move |rep: CtlRep| {
        let _ = conn.write(&Frame::CtlRep { rid, rep });
    };
    match *req {
        CtlReq::Ping => Control::QueryDown(Reply::new(move |down| answer(CtlRep::Pong { down }))),
        CtlReq::QueryPending => {
            Control::QueryPending(Reply::new(move |n| answer(CtlRep::Pending(n as u64))))
        }
        CtlReq::QueryAllAcked => {
            Control::QueryAllAcked(Reply::new(move |acked| answer(CtlRep::AllAcked(acked))))
        }
        CtlReq::SetDown(down) => Control::SetDown(down, Reply::new(move |()| answer(CtlRep::Done))),
        CtlReq::QueryObsJson => Control::QueryObs(Reply::new(move |site| {
            let snap = ObsSnapshot {
                machines: vec![site],
            };
            answer(CtlRep::ObsJson(snap.to_json()));
        })),
        // The loop stops as soon as it serves this, so acknowledge first.
        CtlReq::Shutdown => {
            answer(CtlRep::Done);
            Control::Shutdown
        }
    }
}
