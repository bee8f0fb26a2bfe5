//! Fault plans against both real runtimes: the same engine that drives
//! the DES drives real site threads here — over the threaded runtime's
//! in-process channels and over TCP connections with every protocol frame
//! crossing a `radd_rt::FaultProxy` on loopback. Either way, loss,
//! duplication and §5 partitions are decided by the network's one
//! `radd_net::FaultState` switchboard. Convergence relies on the sites'
//! stop-and-wait parity retransmission; at every quiesce point
//! `SiteMachine::all_acked` must hold across the cluster. On a violation,
//! [`PlanFailure::write_dump`] leaves a machine-readable report — event
//! log plus the cluster's observability snapshot — under
//! `target/fault_dumps/` for CI to upload.
//!
//! Every case is generic over the [`Network`] and runs twice, as
//! `<case>::threaded` and `<case>::socket`.

use radd_net::ThreadedNet;
use radd_node::{Driver, Incoming, Msg, Network, SendOutcome, Transport};
use radd_rt::ProxyNet;
use radd_workload::faults::{
    run_plan, seed_from_name, FaultEvent, FaultPlan, PlanFailure, PlanShape,
};
use std::time::{Duration, Instant};

const BLOCK: usize = 64;

type Threaded = ThreadedNet<Msg>;
type Socket = ProxyNet;

/// Generate a `threaded` and a `socket` test for each generic test body;
/// the body gets the runtime's name for its dump context.
macro_rules! over_both_transports {
    ($($body:ident),* $(,)?) => {$(
        mod $body {
            #[test]
            fn threaded() {
                super::$body::<super::Threaded>("threaded");
            }

            #[test]
            fn socket() {
                super::$body::<super::Socket>("socket");
            }
        }
    )*};
}

over_both_transports!(
    named_seed_radd0001,
    named_seed_radd0002,
    named_seed_socket_soak,
    loss_duplication_and_partition_converge_via_retransmission,
    quiesce_reports_all_acked_even_after_heavy_loss,
    an_isolated_endpoint_waits_out_its_receive_timeout,
);

/// Panic with the report, leaving a machine-readable dump (metrics +
/// flight-recorder tails) under `target/fault_dumps/` for CI to upload.
fn dump_and_panic(context: &str, failure: &PlanFailure) -> ! {
    let dumped = failure
        .write_dump(std::path::Path::new("target/fault_dumps"), context)
        .map_or_else(
            |e| format!("<dump failed: {e}>"),
            |p| p.display().to_string(),
        );
    panic!("{context} (dump: {dumped}):\n{failure}")
}

/// Run one generated plan end to end and assert the convergence
/// obligations every CI seed shares.
fn run_named_seed<N: Network>(rt: &str, name: &str) {
    let shape = PlanShape::default();
    let plan = FaultPlan::generate(seed_from_name(name), &shape);
    let mut driver = Driver::<N>::start(shape.group_size, shape.rows, BLOCK);
    let context = format!("{rt}-{name}");
    let report = run_plan(&mut driver, &plan).unwrap_or_else(|f| dump_and_panic(&context, &f));
    assert_eq!(report.applied, plan.events.len());
    assert!(
        report.invariant_checks > 0,
        "healthy stretches must be swept"
    );
    assert!(
        driver.cluster().all_acked(),
        "no parity update may still be in flight after the final quiesce"
    );
    driver.shutdown();
}

// The three CI fault seeds. Each generates a distinct mix of load,
// failure/repair cycles, partitions and loss bursts; all must converge on
// both runtimes exactly as they do on the DES.

fn named_seed_radd0001<N: Network>(rt: &str) {
    run_named_seed::<N>(rt, "0xRADD0001");
}

fn named_seed_radd0002<N: Network>(rt: &str) {
    run_named_seed::<N>(rt, "0xRADD0002");
}

fn named_seed_socket_soak<N: Network>(rt: &str) {
    run_named_seed::<N>(rt, "radd-socket-soak");
}

fn loss_duplication_and_partition_converge_via_retransmission<N: Network>(rt: &str) {
    use FaultEvent::*;
    // Hand-composed: a heavy loss burst (30% of protocol messages silently
    // dropped) overlapping a partition, with duplication running for the
    // whole plan. Duplicates must be absorbed by the sites' reply caches;
    // every write must still be durably reflected in parity once the
    // cluster quiesces.
    let plan = FaultPlan::from_events(vec![
        Write {
            site: 0,
            index: 0,
            fill: 0x11,
        },
        Write {
            site: 1,
            index: 0,
            fill: 0x22,
        },
        LossBurst {
            permille: 300,
            seed: 0xC0FFEE,
        },
        Write {
            site: 2,
            index: 0,
            fill: 0x33,
        },
        Write {
            site: 3,
            index: 1,
            fill: 0x44,
        },
        Isolate { site: 1 },
        // Degraded write: the spare site absorbs it (W1').
        Write {
            site: 1,
            index: 2,
            fill: 0x55,
        },
        Write {
            site: 4,
            index: 1,
            fill: 0x66,
        },
        // Degraded read straight back from the spare, under loss.
        Read { site: 1, index: 2 },
        Heal { site: 1 },
        Recover { site: 1 },
        LossEnd,
        Write {
            site: 0,
            index: 3,
            fill: 0x77,
        },
        Read { site: 1, index: 2 },
        FlushParity,
    ]);
    let mut driver = Driver::<N>::start(4, 12, BLOCK);
    // One message in five is delivered twice, for the entire plan.
    driver.cluster().faults().set_duplication(200, 0xD0D0);
    let context = format!("{rt}-loss-burst");
    let report = run_plan(&mut driver, &plan).unwrap_or_else(|f| dump_and_panic(&context, &f));
    assert!(report.invariant_checks > 0);
    // After the plan's final quiesce every site machine reports all_acked:
    // retry/backoff drained every parity update the loss burst swallowed,
    // despite the duplicates.
    assert!(driver.cluster().all_acked());
    assert!(driver.oracle_len() > 0);
    let faults = driver.cluster().faults();
    assert!(
        faults.dropped() > 0,
        "the loss burst never dropped a message — the switchboard is not in the path"
    );
    assert!(
        faults.duplicated() > 0,
        "duplication never fired — the switchboard is not in the path"
    );

    // The observability layer watched the whole scenario: every machine
    // (client + G + 2 sites) answers its snapshot query, and the protocol
    // traffic shows up in the counters and flight rings.
    let num_sites = driver.cluster().num_sites();
    let snap = driver.cluster_mut().obs_snapshot();
    assert_eq!(snap.machines.len(), 1 + num_sites);
    assert!(snap.total_flight_events() > 0, "flight rings are warm");
    let client = snap.machine("client").expect("client snapshot");
    assert!(
        client.metrics.sends_named("write") > 0,
        "the plan's writes were counted"
    );
    assert!(
        client.metrics.write_latency.count > 0,
        "wall-clock write latencies were recorded"
    );
    let parity_updates: u64 = snap
        .machines
        .iter()
        .map(|m| m.metrics.sends_named("parity_update"))
        .sum();
    assert!(
        parity_updates > 0,
        "sites shipped parity updates for the plan's writes"
    );
    driver.shutdown();
}

fn quiesce_reports_all_acked_even_after_heavy_loss<N: Network>(rt: &str) {
    use FaultEvent::*;
    // Loss only — no failures — so every event is followed by a full
    // invariant sweep once the burst ends.
    let mut events = vec![LossBurst {
        permille: 250,
        seed: 0xFEED,
    }];
    for i in 0..8u64 {
        events.push(Write {
            site: (i % 6) as usize,
            index: i % 4,
            fill: 0x100 + i,
        });
    }
    events.push(LossEnd);
    events.push(FlushParity);
    let plan = FaultPlan::from_events(events);
    let mut driver = Driver::<N>::start(4, 12, BLOCK);
    let context = format!("{rt}-heavy-loss");
    run_plan(&mut driver, &plan).unwrap_or_else(|f| dump_and_panic(&context, &f));
    assert!(driver.cluster().all_acked());
    driver.shutdown();
}

/// A partition is loss at send time: the isolated endpoint's receive must
/// wait out its timeout like any quiet link, not return at once — a site
/// loop polling an endpoint that never waits spins a whole core.
fn an_isolated_endpoint_waits_out_its_receive_timeout<N: Network>(_rt: &str) {
    // Endpoint 0 is a client, endpoint 1 the only site.
    let (mut net, mut eps) = N::build(2, 1);
    let site = eps.pop().expect("site endpoint");
    let client = eps.pop().expect("client endpoint");
    net.faults().set_partitioned(1, true);
    assert_eq!(
        client.send(1, Msg::Ack { tag: 1 }),
        SendOutcome::Sent,
        "a partition is silent to the sender"
    );
    let wait = Duration::from_millis(100);
    let t0 = Instant::now();
    let got = site.recv_timeout(wait);
    let waited = t0.elapsed();
    assert!(got.is_none(), "a message crossed the partition: {got:?}");
    assert!(
        waited >= wait,
        "the isolated endpoint's receive returned after {waited:?}, not {wait:?}"
    );
    // Healing restores delivery.
    net.faults().set_partitioned(1, false);
    client.send(1, Msg::Ack { tag: 2 });
    match site.recv_timeout(Duration::from_secs(2)) {
        Some(Incoming::Proto { src: 0, msg }) => assert_eq!(msg, Msg::Ack { tag: 2 }),
        other => panic!("healed link delivered {other:?}"),
    }
    drop((client, site));
    net.shutdown();
}
