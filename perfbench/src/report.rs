//! From what a run measured to the metrics it reports.

use crate::gen::Op;
use crate::load::{Phases, Sample, BUCKET};
use crate::stats::{mean, median, quantile};
use crate::{probes, replay, trace, Measured, Plan, Workload, BLOCK, G, GAP_WRITES, SETUPS};
use radd_obs::ObsSnapshot;
use radd_storage::StorageSpec;
use std::path::Path;

/// One reported number.
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
    pub(crate) note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// The slots of a phase in which the host stole no more vCPU time than in
/// its quietest quarter of slots. Wall-clock figures are taken from these
/// slots only: on a shared host the hypervisor's steal swings them
/// several-fold between runs, while the program's own cost does not
/// change. With no steal at all, every slot is quiet.
struct Quiet {
    ok: Vec<bool>,
}

impl Quiet {
    fn new(steal: &[u64], range: std::ops::Range<usize>) -> Quiet {
        let mut in_range: Vec<f64> = steal
            .iter()
            .take(range.end)
            .skip(range.start)
            .map(|&x| x as f64)
            .collect();
        let cut = quantile(&mut in_range, 0.25);
        let ok = steal
            .iter()
            .enumerate()
            .map(|(i, &x)| range.contains(&i) && x as f64 <= cut)
            .collect();
        Quiet { ok }
    }

    fn at(&self, slot: usize) -> bool {
        self.ok.get(slot).copied().unwrap_or(false)
    }

    fn at_us(&self, t_us: f64) -> bool {
        self.at((t_us / (BUCKET.as_secs_f64() * 1e6)) as usize)
    }

    fn slots(&self) -> usize {
        self.ok.iter().filter(|&&q| q).count()
    }
}

/// Read and write latencies (µs) from the quiet slots: open-loop requests
/// timed from their due time, or the rebuild cycler's writes.
struct Latencies {
    reads: Vec<f64>,
    writes: Vec<f64>,
    slots: usize,
    write_kind: &'static str,
}

impl Latencies {
    fn new(w: &Workload, m: &Measured, phases: &Phases) -> Latencies {
        let fg = &m.fg;
        let open = Quiet::new(&fg.steal, 0..phases.open.div_duration_f64(BUCKET) as usize);
        // The rebuild workload's reads count only while its victim is down.
        let kind = |write: bool| -> Vec<f64> {
            fg.samples
                .iter()
                .filter(|s| s.write == write && open.at_us(s.due) && (s.degraded || !w.rebuild))
                .map(Sample::latency)
                .collect()
        };
        let (writes, write_kind) = if w.rebuild {
            // The cycler, and so its writes, stops with the open loop.
            let quiet = fg
                .gap_writes
                .iter()
                .filter(|g| open.at_us(g.0))
                .map(|g| g.1)
                .collect();
            (quiet, "writes between rebuild cycles")
        } else {
            (kind(true), "open loop")
        };
        Latencies {
            reads: kind(false),
            writes,
            slots: open.slots(),
            write_kind,
        }
    }

    fn note(&self, n: usize, kind: &str) -> String {
        format!("{kind}, n={n} from {} quiet 100-ms slots", self.slots)
    }
}

/// The end-to-end metrics `BENCHMARK.json` bounds, then the p99s, which it
/// does not: host stalls swing them far beyond any bound it may set.
pub(crate) fn end_to_end(
    w: &Workload,
    plan: &Plan,
    m: &Measured,
    phases: &Phases,
) -> (Vec<Metric>, Vec<Metric>) {
    let fg = &m.fg;
    let mut lat = Latencies::new(w, m, phases);
    let closed = Quiet::new(&fg.steal, fg.closed_from..fg.closed.len().saturating_sub(1));
    let rates: Vec<f64> = fg
        .closed
        .iter()
        .enumerate()
        .filter(|&(i, _)| closed.at(i))
        .map(|(_, &c)| c as f64 / BUCKET.as_secs_f64())
        .collect();
    let cpu = (fg.marks[2].cpu_us - fg.marks[0].cpu_us) / (fg.samples.len() as f64).max(1.0);
    // Timed events (cycles, restarts, set-ups) vary mostly with thread
    // scheduling order, so they take the plain median of many.
    let mut rebuild: Vec<f64> = m.cycles.iter().map(|c| c.rebuild_s).collect();
    let mut recover: Vec<f64> = if w.disk {
        m.restarts.clone()
    } else {
        m.cycles.iter().map(|c| c.recover_s).collect()
    };
    let (n_rebuild, n_recover) = (rebuild.len(), recover.len());
    let (rn, wn) = (lat.reads.len(), lat.writes.len());
    let gated = vec![
        metric(
            "throughput_ops_s",
            mean(&rates),
            "ops/s",
            format!(
                "closed loop, {} clients, mean of {} quiet 100-ms slots",
                plan.streams.len(),
                rates.len()
            ),
        ),
        metric(
            "read_p50_us",
            median(&mut lat.reads),
            "us",
            lat.note(rn, "open loop"),
        ),
        metric(
            "write_p50_us",
            median(&mut lat.writes),
            "us",
            lat.note(wn, lat.write_kind),
        ),
        metric(
            "cpu_us_per_op",
            cpu,
            "us",
            format!("process CPU over the open loop at {}/s", w.rate),
        ),
        metric(
            "rebuild_s",
            median(&mut rebuild),
            "s",
            if w.disk {
                "degraded-read reconstruction of every block of one site".to_string()
            } else {
                format!("bulk rebuild of one site: median of {n_rebuild}")
            },
        ),
        metric(
            "recover_s",
            median(&mut recover),
            "s",
            if w.disk {
                format!("kill_restart_site: median of {n_recover}")
            } else {
                format!("recovery drain: median of {n_recover}")
            },
        ),
        metric(
            "setup_s",
            median(&mut m.setup_s.clone()),
            "s",
            format!("cluster start + prefill: median of {SETUPS}"),
        ),
    ];
    let ungated = vec![
        metric(
            "read_p99_us",
            quantile(&mut lat.reads, 0.99),
            "us",
            lat.note(rn, "not bounded"),
        ),
        metric(
            "write_p99_us",
            quantile(&mut lat.writes, 0.99),
            "us",
            lat.note(wn, "not bounded"),
        ),
    ];
    (gated, ungated)
}

fn sum_sites(obs: &ObsSnapshot, f: impl Fn(&radd_obs::MetricsSnapshot) -> u64) -> u64 {
    obs.machines.iter().skip(1).map(|m| f(&m.metrics)).sum()
}

/// The per-layer metrics of a traced run: the synchronous replay, the
/// layer probes, the cluster's own counters and the OS counters.
pub(crate) fn per_layer(
    w: &Workload,
    plan: &Plan,
    m: &Measured,
    phases: &Phases,
    data: &Path,
) -> Result<Vec<Metric>, String> {
    let fg = &m.fg;
    // The replay follows the first generator thread's closed-loop stream,
    // long enough for the disk store to checkpoint.
    let (_, stream) = &plan.streams[0];
    let replayed = &stream[..if plan.rows < 200 { 100 } else { w.replay_ops }];
    // Always on the durable store, so every traced run measures the
    // storage layer on its own write stream, whatever the workload's
    // cluster runs on.
    let dir = data.join(format!("{}-{}-replay", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageSpec::Disk { dir };
    let (healthy, degraded): (&[Op], &[Op]) = if w.rebuild {
        (&plan.gap[..GAP_WRITES * 4], replayed)
    } else {
        (replayed, &[])
    };
    let victim = w.rebuild.then_some(plan.victim);
    let r = replay::replay(G, plan.rows, BLOCK, &storage, (healthy, degraded), victim);
    if let StorageSpec::Disk { dir } = &storage {
        let _ = std::fs::remove_dir_all(dir);
    }
    let r = r?;
    if let Some(e) = r.failures.first() {
        return Err(format!(
            "replay failed ({} failures): {e}",
            r.failures.len()
        ));
    }
    let sp = &r.io.spans;
    let st = &r.io.storage;
    let replay_ops = r.ops.max(1) as f64;
    let replay_writes = r.writes.max(1) as f64;

    // Foreground: the untraced first half of the open loop against the
    // traced second half.
    let half = phases.open.as_secs_f64() / 2.0 * 1e6;
    let (untraced, traced): (Vec<&Sample>, Vec<_>) = fg.samples.iter().partition(|s| s.due < half);
    let cpu_per =
        |a: usize, b: usize, n: usize| (fg.marks[b].cpu_us - fg.marks[a].cpu_us) / n.max(1) as f64;
    let overhead = cpu_per(1, 2, traced.len()) - cpu_per(0, 1, untraced.len());
    let e2e_p50 = median(&mut untraced.iter().map(|s| s.latency()).collect::<Vec<_>>());
    // Replay CPU per operation, less the storage calls: the replay runs on
    // the durable store whatever the workload's cluster uses.
    let ops_ns: f64 = sp
        .dur_ns("replay.read")
        .iter()
        .chain(&sp.dur_ns("replay.write"))
        .sum();
    let storage_ns: f64 = if w.disk {
        0.0
    } else {
        let spans = sp.spans().iter();
        spans
            .filter(|s| s.name.starts_with("storage.") && s.op <= r.ops)
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    let replay_op_us = (ops_ns - storage_ns) / replay_ops / 1e3;
    let mut late: Vec<f64> = fg.samples.iter().map(|s| s.start - s.due).collect();
    let mut lat = Latencies::new(w, m, phases);
    let open_ops = fg.samples.len().max(1) as f64;
    let writes = (fg.writes + fg.gap_writes.len() as u64).max(1) as f64;
    let machines = || {
        m.obs
            .machines
            .iter()
            .chain(&fg.client_obs)
            .map(|x| &x.metrics)
    };
    let sends: u64 = machines()
        .map(|x| x.sends.iter().map(|c| c.n).sum::<u64>())
        .sum();
    let retransmits: u64 = machines().map(|x| x.retransmits).sum();
    let reports = || m.cycles.iter().filter_map(|c| c.report.as_ref());
    let rebuilt: u64 = m.cycles.iter().map(|c| c.blocks).sum();
    let bulk_rebuilt: u64 = reports().map(|r| r.blocks_rebuilt).sum();
    let absorbed: u64 = reports().map(|r| r.blocks_absorbed).sum();
    let scanned: u64 = reports().map(|r| r.rows_scanned).sum();
    let peer_reads: u64 = reports().flat_map(|r| r.peer_reads.iter()).sum();
    let rebuild_secs: f64 = m.cycles.iter().map(|c| c.rebuild_s).sum();
    let keys: Vec<u32> = replayed.iter().map(|o| o.key).collect();
    let (diff, apply, fold) = probes::parity_ns(&keys, BLOCK, G);
    let direct = probes::rt_rtt_us(BLOCK, false)?;
    let proxied = probes::rt_rtt_us(BLOCK, true)?;
    let mut commit = st.write_commit_us.clone();
    let spans_path = data.join(format!("spans-{}.jsonl", w.name));
    let mut all: Vec<&trace::Spans> = fg.spans.iter().collect();
    all.push(sp);
    trace::write_jsonl(&spans_path, &all)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let span_count: usize = all.iter().map(|s| s.len()).sum();
    Ok(vec![
        metric(
            "loadgen.late_p99_us",
            quantile(&mut late, 0.99),
            "us",
            "generator lag behind the schedule",
        ),
        metric(
            "loadgen.threads",
            plan.threads as f64,
            "count",
            "generator threads",
        ),
        metric(
            "op.read_p99_us",
            quantile(&mut lat.reads, 0.99),
            "us",
            "end-to-end, from the quiet slots",
        ),
        metric(
            "op.write_p99_us",
            quantile(&mut lat.writes, 0.99),
            "us",
            "end-to-end, from the quiet slots",
        ),
        metric(
            "op.wait_us",
            e2e_p50 - replay_op_us,
            "us",
            "e2e p50 minus replay time per op",
        ),
        metric(
            "net.hop_us",
            probes::net_hop_us(),
            "us",
            "ThreadedEndpoint ping-pong / 2",
        ),
        metric(
            "client.msgs_per_op",
            r.io.msgs as f64 / replay_ops,
            "1/op",
            format!("replay of {} ops", r.ops),
        ),
        metric(
            "client.retransmit_ratio",
            retransmits as f64 / sends.max(1) as f64,
            "ratio",
            format!("of {sends} sends"),
        ),
        metric(
            "proc.ctx_switches_per_op",
            fg.marks[2].ctx.saturating_sub(fg.marks[0].ctx) as f64 / open_ops,
            "1/op",
            "open loop, every thread",
        ),
        metric(
            "protocol.read_ns",
            mean(&sp.self_ns("replay.read")),
            "ns",
            "ClientMachine::read self time",
        ),
        metric(
            "protocol.write_ns",
            mean(&sp.self_ns("replay.write")),
            "ns",
            "ClientMachine::write self time",
        ),
        metric(
            "protocol.site_ns_per_msg",
            mean(&sp.self_ns("site.handle")),
            "ns",
            "SiteMachine::handle self time",
        ),
        metric(
            "site.coalesced_merges_per_write",
            sum_sites(&m.obs, |x| x.coalesced_merges) as f64 / writes,
            "1/write",
            "",
        ),
        metric(
            "site.defer_acks",
            sum_sites(&m.obs, |x| x.defer_acks) as f64 / writes,
            "1/write",
            "",
        ),
        metric(
            "site.parity_rebuilds",
            sum_sites(&m.obs, |x| x.parity_rebuilds) as f64,
            "count",
            "",
        ),
        metric("parity.diff_ns", diff, "ns", "ChangeMask::diff"),
        metric("parity.apply_ns", apply, "ns", "ChangeMask::apply"),
        metric(
            "parity.fold_ns",
            fold,
            "ns",
            format!("xor_fold over {G} blocks"),
        ),
        metric(
            "storage.commit_p50_us",
            quantile(&mut commit, 0.5),
            "us",
            "write_owned + commit",
        ),
        metric(
            "storage.commit_p99_us",
            quantile(&mut commit, 0.99),
            "us",
            format!("n={}", commit.len()),
        ),
        metric(
            "storage.commits_per_write",
            st.forced as f64 / replay_writes,
            "1/write",
            "",
        ),
        metric(
            "storage.checkpoints",
            st.checkpoints as f64,
            "count",
            format!("replay of {} writes", r.writes),
        ),
        metric("storage.checkpoint_ms", mean(&st.checkpoint_ms), "ms", ""),
        metric(
            "storage.wal_bytes_per_user_byte",
            st.wal_bytes as f64 / st.user_bytes.max(1) as f64,
            "ratio",
            "",
        ),
        metric("storage.open_ms", mean(&st.open_ms), "ms", "per site store"),
        metric(
            "storage.device_bytes_per_user_byte",
            fg.marks[3].io_bytes.saturating_sub(fg.marks[0].io_bytes) as f64
                / (writes * BLOCK as f64),
            "ratio",
            "/proc/self/io write_bytes",
        ),
        metric(
            "rt.frame_encode_ns",
            mean(&sp.dur_ns("rt.frame_encode")),
            "ns",
            "",
        ),
        metric(
            "rt.frame_decode_ns",
            mean(&sp.dur_ns("rt.frame_decode")),
            "ns",
            "",
        ),
        metric(
            "rt.rtt_direct_us",
            direct,
            "us",
            "4 KiB block read round trip",
        ),
        metric(
            "rt.rtt_proxy_us",
            proxied,
            "us",
            "same, through a FaultProxy",
        ),
        metric(
            "rebuild.mb_s",
            rebuilt as f64 * BLOCK as f64 / 1e6 / rebuild_secs.max(1e-9),
            "MB/s",
            "",
        ),
        metric(
            "rebuild.peer_reads_per_block",
            peer_reads as f64 / bulk_rebuilt.max(1) as f64,
            "1/block",
            "",
        ),
        metric(
            "rebuild.absorbed_ratio",
            absorbed as f64 / scanned.max(1) as f64,
            "ratio",
            "absorbed / rows scanned",
        ),
        metric(
            "trace.overhead_us_per_op",
            overhead,
            "us",
            "CPU per op, traced minus untraced half",
        ),
        metric(
            "trace.spans",
            span_count as f64,
            "count",
            spans_path.display().to_string(),
        ),
    ])
}

/// The `# ...` lines that attribute a run to its host.
pub(crate) fn host_line(m: &Measured) -> String {
    let stolen: u64 = m.fg.steal.iter().sum();
    let capacity =
        m.fg.steal.len() as f64 * BUCKET.as_secs_f64() * 100.0 * crate::sys::nproc() as f64;
    let cycles: Vec<String> = m
        .cycles
        .iter()
        .map(|c| format!("{:.1}/{:.1}", c.rebuild_s * 1e3, c.recover_s * 1e3))
        .collect();
    format!(
        "# host steal {:.1}% of vCPU time during the foreground ({} 100-ms slots)\n\
         # rebuild/recover ms per cycle: {}",
        100.0 * stolen as f64 / capacity.max(1.0),
        m.fg.steal.len(),
        cycles.join(" ")
    )
}
