//! The client's attempt ladder and batch budget, over both transports.
//!
//! Every test body is generic over a [`Net`] fixture and runs twice: over
//! the threaded runtime's in-process channels and over `radd-rt`'s TCP
//! endpoints. The fake sites here answer with bare `Ack`s — the client IO
//! matches replies by tag only, so no protocol machine is needed to
//! exercise it.

use radd_net::{RetryPolicy, ThreadedEndpoint, ThreadedNet};
use radd_node::{Incoming, Msg, RetryIo, Transport};
use radd_protocol::{ClientErr, ClientIo};
use radd_rt::SocketEndpoint;
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Endpoint id of site 0 in every fixture (endpoint 0 is the client).
const EP_BASE: usize = 1;

/// A transport under test.
trait Net {
    type Ep: Transport + Send + 'static;
    /// A client endpoint (id 0) and the endpoint of site 0 (id 1). The site
    /// endpoint must stay alive for sends to it to succeed.
    fn pair() -> (Self::Ep, Self::Ep);
    /// A client endpoint whose site 0 is closed: no send to it can ever
    /// succeed.
    fn closed() -> Self::Ep;
}

struct Threaded;

impl Net for Threaded {
    type Ep = ThreadedEndpoint<Msg>;

    fn pair() -> (Self::Ep, Self::Ep) {
        let (_net, mut eps) = ThreadedNet::<Msg>::new(2);
        let site = eps.pop().expect("two endpoints");
        (eps.pop().expect("two endpoints"), site)
    }

    fn closed() -> Self::Ep {
        // Dropping the site endpoint closes its inbox channel.
        let (_net, mut eps) = ThreadedNet::<Msg>::new(2);
        eps.truncate(1);
        eps.pop().expect("client endpoint")
    }
}

struct Socket;

impl Net for Socket {
    type Ep = SocketEndpoint;

    fn pair() -> (Self::Ep, Self::Ep) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let site = SocketEndpoint::site(EP_BASE, EP_BASE, vec![addr], listener);
        (SocketEndpoint::client(0, EP_BASE, vec![addr]), site)
    }

    fn closed() -> Self::Ep {
        // An empty site map: site 0 is outside it.
        SocketEndpoint::client(0, EP_BASE, Vec::new())
    }
}

/// Generate a `threaded` and a `socket` test for each generic test body.
macro_rules! over_both_transports {
    ($($body:ident),* $(,)?) => {$(
        mod $body {
            #[test]
            fn threaded() {
                super::$body::<super::Threaded>();
            }

            #[test]
            fn socket() {
                super::$body::<super::Socket>();
            }
        }
    )*};
}

over_both_transports!(
    batch_against_a_dead_site_shares_one_attempt_budget,
    wide_batch_to_a_healthy_site_outlives_the_attempt_budget,
    wide_batch_to_a_slow_site_outlives_the_attempt_budget,
    stash_eviction_of_a_batch_reply_converges_by_retransmission,
    request_fails_fast_when_the_destination_is_closed,
);

/// `n` batch entries to site 0, tags from `first_tag` up.
fn batch(n: u64, first_tag: u64) -> Vec<(usize, Msg)> {
    (0..n)
        .map(|i| {
            (
                0,
                Msg::BlockRead {
                    row: i,
                    tag: first_tag + i,
                },
            )
        })
        .collect()
}

/// Every entry of `replies` succeeded, in request order.
fn assert_all_answered(replies: &[Result<Msg, ClientErr>], first_tag: u64) {
    for (i, r) in replies.iter().enumerate() {
        match r {
            Ok(m) => assert_eq!(m.tag(), first_tag + i as u64),
            Err(e) => panic!("entry {i} failed: {e:?}"),
        }
    }
}

/// A fake site that collects `hold` requests, acknowledges them in
/// *reverse* order (forcing the client to stash the later tags), then
/// acknowledges anything else that arrives (retransmissions), each after
/// `delay`, until it has been idle for half a second.
fn fake_site<E: Transport + Send + 'static>(ep: E, hold: usize, delay: Duration) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let recv = |wait| match ep.recv_timeout(wait)? {
            Incoming::Proto { src, msg } => Some((src, msg.tag())),
            Incoming::Control(_) => None,
        };
        let mut first = Vec::new();
        while first.len() < hold {
            match recv(Duration::from_secs(5)) {
                Some(req) => first.push(req),
                None => return,
            }
        }
        for &(src, tag) in first.iter().rev() {
            ep.send(src, Msg::Ack { tag });
        }
        while let Some((src, tag)) = recv(Duration::from_millis(500)) {
            std::thread::sleep(delay);
            ep.send(src, Msg::Ack { tag });
        }
    })
}

fn batch_against_a_dead_site_shares_one_attempt_budget<N: Net>() {
    // A deaf site: its endpoint exists (sends succeed) but nothing ever
    // replies — the worst case for retry ladders.
    let (client, _deaf) = N::pair();
    let mut io = RetryIo::new(client, EP_BASE);
    io.set_policy(RetryPolicy {
        base_ms: 20,
        numer: 3,
        denom: 2,
        cap_ms: 30,
        attempts: 3,
    });
    // 6 batch entries all target dead site 0. The shared budget means
    // one ladder (20 + 30 + 30 ms), not six.
    let started = Instant::now();
    let replies = io.exchange_batch(batch(6, 0), false);
    let elapsed = started.elapsed();
    assert!(replies
        .iter()
        .all(|r| matches!(r, Err(ClientErr::Timeout { site: 0 }))));
    // One full ladder is 80 ms; six serial ladders would be 480 ms.
    // Allow generous slack for a loaded machine while still proving
    // the budget is shared.
    assert!(
        elapsed < Duration::from_millis(300),
        "batch against a dead site took {elapsed:?}; the attempt budget \
         is being spent per entry instead of per site"
    );
    assert_eq!(
        io.obs_snapshot().metrics.retransmits,
        2,
        "3-attempt budget = 1 batched send + 2 retransmissions, shared \
         across the whole batch"
    );
}

/// A batch far wider than the attempt budget, all to one *healthy* site,
/// must succeed entry for entry with zero retransmissions. The per-site
/// budget once counted successful waits: entry thirteen of a wide
/// recovery-drain wave got an instant synthesised `Timeout` even though
/// the site answered everything (and entries two onward were spuriously
/// resent as retransmissions).
fn wide_batch_to_a_healthy_site_outlives_the_attempt_budget<N: Net>() {
    let (client, site) = N::pair();
    let site = fake_site(site, 0, Duration::ZERO); // pure echo: acks as requests arrive
    let mut io = RetryIo::new(client, EP_BASE);
    let width = u64::from(RetryPolicy::CLIENT_ATTEMPT.attempts) * 3;
    let replies = io.exchange_batch(batch(width, 200), false);
    assert_all_answered(&replies, 200);
    assert_eq!(
        io.obs_snapshot().metrics.retransmits,
        0,
        "a healthy site answered every pipelined request; nothing to resend"
    );
    site.join().expect("fake site");
}

/// The same rule for a site that takes about 3 ms per reply: replies
/// trickle in one by one, each well inside its entry's first window, so
/// the whole batch must succeed without a single resend.
fn wide_batch_to_a_slow_site_outlives_the_attempt_budget<N: Net>() {
    let (client, site) = N::pair();
    let site = fake_site(site, 0, Duration::from_millis(3));
    let mut io = RetryIo::new(client, EP_BASE);
    let width = u64::from(RetryPolicy::CLIENT_ATTEMPT.attempts) * 3;
    let replies = io.exchange_batch(batch(width, 300), false);
    assert_all_answered(&replies, 300);
    assert_eq!(
        io.obs_snapshot().metrics.retransmits,
        0,
        "a slow but live site answered every request in its first window"
    );
    site.join().expect("fake site");
}

fn stash_eviction_of_a_batch_reply_converges_by_retransmission<N: Net>() {
    let (client, site) = N::pair();
    let site = fake_site(site, 3, Duration::ZERO);
    let mut io = RetryIo::new(client, EP_BASE);
    // One stash slot: when the replies for tags 101 and 102 both land
    // while entry 100 is being awaited, 102's reply is evicted even
    // though its batch entry is still outstanding.
    io.set_stash_cap(1);
    io.set_policy(RetryPolicy {
        base_ms: 50,
        ..RetryPolicy::CLIENT_ATTEMPT
    });
    let replies = io.exchange_batch(batch(3, 100), false);
    assert_all_answered(&replies, 100);
    let snap = io.obs_snapshot();
    assert_eq!(
        snap.metrics.stash_evictions, 1,
        "the reply for tag 102 must have been evicted from the 1-slot stash"
    );
    assert_eq!(
        snap.metrics.retransmits, 1,
        "recovering the evicted reply takes exactly one retransmission"
    );
    site.join().expect("fake site");
}

fn request_fails_fast_when_the_destination_is_closed<N: Net>() {
    let mut io = RetryIo::new(N::closed(), EP_BASE);
    io.set_policy(RetryPolicy {
        base_ms: 200,
        ..RetryPolicy::CLIENT_ATTEMPT
    });
    let started = Instant::now();
    let reply = io.request(0, &Msg::BlockRead { row: 0, tag: 1 });
    let elapsed = started.elapsed();
    assert!(reply.is_none());
    assert!(
        elapsed < Duration::from_millis(100),
        "closed destination burned the timeout ladder: {elapsed:?}"
    );
    assert_eq!(io.obs_snapshot().metrics.send_failures, 1);
}
