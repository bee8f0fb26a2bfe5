//! The stripe-verification sweep (`Client::verify_parity`), over both
//! transports.
//!
//! The sweep reads every row in pipelined waves of 32 rows (for `G = 4`
//! the reply-stash clamp does not bite: 32 × 5 replies ≤ 256). These cases
//! pin down what the waves must not change: a row count that leaves a
//! partial last wave still verifies, a stale row is named exactly, and
//! when one wave holds two stale rows the lower one is reported — the
//! first failing row in row order, as a one-row-at-a-time sweep finds it.
//!
//! Every case is generic over the [`Network`] and runs twice, as
//! `<case>::threaded` and `<case>::socket`.

use radd_net::ThreadedNet;
use radd_node::{Cluster, Msg, Network};
use radd_rt::ProxyNet;
use std::time::Duration;

const G: usize = 4;
/// Two full waves and a partial third of 6 rows.
const ROWS: u64 = 70;
const WAVE_ROWS: u64 = 32;
const BLOCK: usize = 64;
/// The site whose blocks go stale.
const VICTIM: usize = 2;
const QUIESCE: Duration = Duration::from_secs(10);

type Threaded = ThreadedNet<Msg>;
type Socket = ProxyNet;

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
    a_healthy_cluster_with_a_partial_last_wave_verifies,
    a_stale_row_in_the_partial_last_wave_is_named,
    two_stale_rows_in_one_wave_name_the_lower_row,
);

/// The victim's data indices whose rows lie in `wave`, in row order.
fn victim_indices_in_wave<N: Network>(cluster: &mut Cluster<N>, wave: u64) -> Vec<(u64, u64)> {
    let geo = *cluster.client().geometry();
    (0..geo.data_capacity(VICTIM))
        .map(|idx| (idx, geo.data_to_physical(VICTIM, idx)))
        .filter(|&(_, row)| row / WAVE_ROWS == wave)
        .collect()
}

/// Kill the victim, make a W1' write (redirected to the row spare) to each
/// of `indices`, quiesce, and revive the victim *without* recovering it:
/// its own copies of those blocks are now stale against their parity.
fn leave_rows_stale<N: Network>(cluster: &mut Cluster<N>, indices: &[u64]) {
    cluster.kill_site(VICTIM);
    for (i, &idx) in indices.iter().enumerate() {
        let data = vec![0xA0 + i as u8; BLOCK];
        cluster.client().write(VICTIM, idx, &data).unwrap();
    }
    cluster.quiesce(QUIESCE).unwrap();
    cluster.revive_site(VICTIM);
}

/// Recover the victim and check that the sweep passes again.
fn recover_and_verify<N: Network>(cluster: &mut Cluster<N>) {
    cluster.client().recover(VICTIM).unwrap();
    cluster.quiesce(QUIESCE).unwrap();
    assert_eq!(cluster.client().verify_parity(), Ok(()));
}

fn a_healthy_cluster_with_a_partial_last_wave_verifies<N: Network>() {
    assert_ne!(ROWS % WAVE_ROWS, 0, "the last wave must be partial");
    let mut cluster = Cluster::<N>::start(G, ROWS, BLOCK);
    // A block on every site every dozen rows, so every wave folds
    // non-zero data.
    for site in 0..cluster.num_sites() {
        let geo = *cluster.client().geometry();
        for idx in (0..geo.data_capacity(site)).step_by(WAVE_ROWS as usize / G) {
            let data = vec![(site * 31 + idx as usize) as u8 | 1; BLOCK];
            cluster.client().write(site, idx, &data).unwrap();
        }
    }
    cluster.quiesce(QUIESCE).unwrap();
    assert_eq!(cluster.client().verify_parity(), Ok(()));
    cluster.shutdown();
}

fn a_stale_row_in_the_partial_last_wave_is_named<N: Network>() {
    let mut cluster = Cluster::<N>::start(G, ROWS, BLOCK);
    let (idx, row) = victim_indices_in_wave(&mut cluster, ROWS / WAVE_ROWS)[0];
    leave_rows_stale(&mut cluster, &[idx]);
    assert_eq!(
        cluster.client().verify_parity(),
        Err(format!("parity mismatch in row {row}"))
    );
    recover_and_verify(&mut cluster);
    cluster.shutdown();
}

fn two_stale_rows_in_one_wave_name_the_lower_row<N: Network>() {
    let mut cluster = Cluster::<N>::start(G, ROWS, BLOCK);
    let in_wave = victim_indices_in_wave(&mut cluster, 1);
    let (lo, hi) = (in_wave[0], in_wave[in_wave.len() - 1]);
    assert!(lo.1 < hi.1);
    // Write the higher row first: the report must follow row order, not
    // the order in which the rows went stale.
    leave_rows_stale(&mut cluster, &[hi.0, lo.0]);
    assert_eq!(
        cluster.client().verify_parity(),
        Err(format!("parity mismatch in row {}", lo.1))
    );
    recover_and_verify(&mut cluster);
    cluster.shutdown();
}
