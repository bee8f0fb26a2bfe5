//! Layer probes: each times one layer's public calls in isolation, on
//! the workload's own blocks and message shapes.

use crate::gen;
use crate::stats::median;
use bytes::Bytes;
use radd_net::ThreadedNet;
use radd_parity::{xor_fold, ChangeMask, Uid};
use radd_protocol::Msg;
use radd_rt::{FaultProxy, FaultState, Inbound, SendOutcome, SocketEndpoint};
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 2000;
const PARITY_REPS: usize = 2000;
/// Tag that tells a probe's echo server to stop.
const STOP: u64 = u64::MAX;

/// One-way hop between two `radd-net` threaded endpoints, in µs: half the
/// median ping-pong round trip.
pub(crate) fn net_hop_us() -> f64 {
    let (_net, mut eps) = ThreadedNet::<u64>::new(2);
    let b = eps.pop().expect("two endpoints");
    let a = eps.pop().expect("two endpoints");
    let echo = std::thread::spawn(move || {
        while let Ok(m) = b.recv_timeout(Duration::from_secs(5)) {
            if m.payload == u64::MAX || b.send(m.src, m.payload).is_err() {
                break;
            }
        }
    });
    let mut rtt = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS as u64 {
        let t = Instant::now();
        if a.send(1, i).is_err() || a.recv_timeout(Duration::from_secs(5)).is_err() {
            break;
        }
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = a.send(1, u64::MAX);
    let _ = echo.join();
    median(&mut rtt) / 2.0
}

/// Median round trip, in µs, of a block read (`BlockRead` out, a 4 KiB
/// `BlockData` back) between two `radd-rt` socket endpoints — directly,
/// or through a `FaultProxy` as the socket cluster wires its sites.
pub(crate) fn rt_rtt_us(block: usize, through_proxy: bool) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let real = listener.local_addr().map_err(|e| e.to_string())?;
    let mut proxy = through_proxy.then(|| FaultProxy::spawn(real, 1, FaultState::new(2)));
    let addr = proxy.as_ref().map_or(real, FaultProxy::addr);
    let site = SocketEndpoint::site(1, 1, vec![addr], listener);
    let mut client = SocketEndpoint::client(0, 1, vec![addr]);
    let mut data = vec![0u8; block];
    gen::fill(&mut data, 1, 1);
    let data = Bytes::from(data);
    let server = std::thread::spawn(move || {
        while let Ok(Inbound::Proto { src, msg }) = site.recv_timeout(Duration::from_secs(2)) {
            if msg.tag() == STOP {
                break;
            }
            let reply = Msg::BlockData {
                tag: msg.tag(),
                data: data.clone(),
                uid: Uid::INVALID,
                parity_uids: None,
            };
            if site.send(src, &reply) == SendOutcome::Closed {
                break;
            }
        }
        site
    });
    let mut rtt = Vec::with_capacity(ROUND_TRIPS);
    let mut failure = None;
    for tag in 0..ROUND_TRIPS as u64 {
        let t = Instant::now();
        let _ = client.send(1, &Msg::BlockRead { row: tag, tag });
        match client.recv_timeout(Duration::from_secs(2)) {
            Ok(Inbound::Proto { msg, .. }) if msg.tag() == tag => {
                rtt.push(t.elapsed().as_secs_f64() * 1e6);
            }
            other => {
                failure = Some(format!("round trip {tag}: {other:?}"));
                break;
            }
        }
    }
    let _ = client.send(1, &Msg::BlockRead { row: 0, tag: STOP });
    client.shutdown();
    if let Ok(mut site) = server.join() {
        site.shutdown();
    }
    if let Some(p) = proxy.as_mut() {
        p.shutdown();
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(median(&mut rtt)),
    }
}

/// Median ns per call of `ChangeMask::diff`, `ChangeMask::apply` and a
/// `G`-way `xor_fold`, over successive versions of the workload's keys.
pub(crate) fn parity_ns(keys: &[u32], block: usize, g: usize) -> (f64, f64, f64) {
    let blocks = |version: u32| -> Vec<Vec<u8>> {
        keys.iter()
            .take(g.max(16))
            .map(|&k| {
                let mut b = vec![0u8; block];
                gen::fill(&mut b, k, version);
                b
            })
            .collect()
    };
    let (old, new) = (blocks(1), blocks(2));
    let mut parity = vec![0u8; block];
    let (mut diff, mut apply, mut fold) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PARITY_REPS {
        let (o, n) = (&old[i % old.len()], &new[i % new.len()]);
        let t = Instant::now();
        let mask = black_box(ChangeMask::diff(black_box(o), black_box(n)));
        diff.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        mask.apply(black_box(&mut parity));
        apply.push(t.elapsed().as_nanos() as f64);
        let sources: Vec<&[u8]> = (0..g)
            .map(|j| new[(i + j) % new.len()].as_slice())
            .collect();
        let t = Instant::now();
        xor_fold(black_box(&mut parity), black_box(&sources));
        fold.push(t.elapsed().as_nanos() as f64);
    }
    (median(&mut diff), median(&mut apply), median(&mut fold))
}
