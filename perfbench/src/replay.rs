//! The synchronous replay behind the per-layer numbers: the same seeded
//! operations, driven one at a time through each layer's public API — a
//! [`ClientMachine`] over an in-process [`ClientIo`], every message
//! through `radd-rt`'s [`Frame`] encode/decode, [`SiteMachine::handle`] on
//! the site's store, then [`SiteStore::commit`] — with a span around each
//! call, so each layer's self time falls out of the nesting.

use crate::gen::{self, Op};
use crate::trace::Spans;
use bytes::Bytes;
use radd_protocol::{
    BlockFault, Blocks, ClientErr, ClientIo, ClientMachine, Dest, Effect, Msg, SiteMachine,
    SparePolicy,
};
use radd_rt::Frame;
use radd_storage::{SiteStore, StorageSpec};
use std::collections::VecDeque;
use std::time::Instant;

/// Endpoint id of the (single) client; site `j` is endpoint `1 + j`.
const CLIENT: usize = 0;
const EP_BASE: usize = 1;

/// Storage-layer observations, all taken from outside the store.
#[derive(Debug, Default)]
pub(crate) struct StorageStats {
    /// Per handled message that wrote blocks: `write_owned` calls plus the
    /// commit that made them durable, in microseconds.
    pub(crate) write_commit_us: Vec<f64>,
    /// Commits that forced anything to the log.
    pub(crate) forced: u64,
    pub(crate) checkpoints: u64,
    /// Duration of the commits that also checkpointed, in milliseconds.
    pub(crate) checkpoint_ms: Vec<f64>,
    /// Log bytes appended by writes that caused no checkpoint, and the
    /// user bytes those writes carried.
    pub(crate) wal_bytes: u64,
    pub(crate) user_bytes: u64,
    pub(crate) open_ms: Vec<f64>,
}

/// A store wrapper that spans every block access as `storage.*`.
struct Traced<'a> {
    store: &'a mut SiteStore,
    spans: &'a mut Spans,
    op: u64,
    write_ns: u64,
    writes: u32,
}

impl Traced<'_> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SiteStore) -> T) -> T {
        let t = Instant::now();
        let r = f(self.store);
        self.spans.record(self.op, name, t);
        r
    }

    fn timed_write(
        &mut self,
        f: impl FnOnce(&mut SiteStore) -> Result<(), BlockFault>,
    ) -> Result<(), BlockFault> {
        let t = Instant::now();
        let r = self.timed("storage.write", f);
        self.write_ns += t.elapsed().as_nanos() as u64;
        self.writes += 1;
        r
    }
}

impl Blocks for Traced<'_> {
    fn read(&mut self, row: u64) -> Result<Bytes, BlockFault> {
        self.timed("storage.read", |s| s.read(row))
    }

    fn write(&mut self, row: u64, data: &[u8]) -> Result<(), BlockFault> {
        self.timed_write(|s| s.write(row, data))
    }

    fn write_owned(&mut self, row: u64, data: Bytes) -> Result<(), BlockFault> {
        self.timed_write(|s| s.write_owned(row, data))
    }
}

/// Every site of one cluster, delivered to synchronously.
pub(crate) struct ReplayIo {
    sites: Vec<SiteMachine>,
    stores: Vec<SiteStore>,
    down: Option<usize>,
    pub(crate) spans: Spans,
    pub(crate) msgs: u64,
    pub(crate) storage: StorageStats,
    op: u64,
    /// Log bytes appended during the current operation, and whether it
    /// checkpointed.
    op_wal: u64,
    op_checkpointed: bool,
}

enum To {
    Client,
    Site(usize),
}

fn wal_len(store: &SiteStore) -> Option<u64> {
    match store {
        SiteStore::Disk(d) => Some(d.wal_bytes()),
        SiteStore::Mem(_) => None,
    }
}

impl ReplayIo {
    pub(crate) fn open(
        g: usize,
        rows: u64,
        block: usize,
        storage: &StorageSpec,
    ) -> Result<ReplayIo, String> {
        let mut io = ReplayIo {
            sites: Vec::new(),
            stores: Vec::new(),
            down: None,
            spans: Spans::with_capacity(1 << 16),
            msgs: 0,
            storage: StorageStats::default(),
            op: 0,
            op_wal: 0,
            op_checkpointed: false,
        };
        for j in 0..g + 2 {
            let t = Instant::now();
            let store = storage
                .for_site(j)
                .open(rows, block)
                .map_err(|e| format!("open site {j}: {e}"))?;
            io.storage.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            io.stores.push(store);
            io.sites.push(SiteMachine::new(j, g, rows, block));
        }
        Ok(io)
    }

    /// A message crossing the wire, as the socket runtime frames it.
    fn wire(&mut self, msg: Msg) -> Msg {
        let t = Instant::now();
        let bytes = Bytes::from(Frame::Proto(msg).encode());
        self.spans.record(self.op, "rt.frame_encode", t);
        let t = Instant::now();
        let frame = Frame::decode(&bytes);
        self.spans.record(self.op, "rt.frame_decode", t);
        match frame {
            Ok(Frame::Proto(m)) => m,
            other => panic!("a protocol frame decoded as {other:?}"),
        }
    }

    /// Deliver `msg` from endpoint `src` to site `j`: handle, then commit.
    fn deliver(&mut self, j: usize, src: usize, msg: Msg, out: &mut Vec<Effect>) {
        let before = wal_len(&self.stores[j]);
        let handle = self.spans.open(self.op, "site.handle");
        let mut traced = Traced {
            store: &mut self.stores[j],
            spans: &mut self.spans,
            op: self.op,
            write_ns: 0,
            writes: 0,
        };
        self.sites[j].handle(&mut traced, src, msg, out);
        let (write_ns, writes) = (traced.write_ns, traced.writes);
        self.spans.close(handle);
        let t = Instant::now();
        let site = &self.sites[j];
        let forced = self.stores[j]
            .commit(|| site.durable_snapshot().encode())
            .unwrap_or_else(|e| panic!("site {j}: commit failed: {e}"));
        let commit_ns = t.elapsed().as_nanos() as u64;
        self.spans.record(self.op, "storage.commit", t);
        if writes > 0 {
            self.storage
                .write_commit_us
                .push((write_ns + commit_ns) as f64 / 1e3);
        }
        if forced {
            self.storage.forced += 1;
            if let (Some(b), Some(a)) = (before, wal_len(&self.stores[j])) {
                if a == 0 {
                    self.storage.checkpoints += 1;
                    self.storage.checkpoint_ms.push(commit_ns as f64 / 1e6);
                    self.op_checkpointed = true;
                } else {
                    self.op_wal += a - b;
                }
            }
        }
    }

    /// Start attributing spans and log growth to operation `op`.
    fn begin(&mut self, op: u64) {
        self.op = op;
        self.op_wal = 0;
        self.op_checkpointed = false;
    }
}

impl ClientIo for ReplayIo {
    fn exchange(&mut self, site: usize, msg: Msg, _background: bool) -> Result<Msg, ClientErr> {
        let tag = msg.tag();
        let mut queue = VecDeque::from([(To::Site(site), CLIENT, msg)]);
        let mut reply = None;
        let mut out = Vec::new();
        while let Some((to, src, msg)) = queue.pop_front() {
            self.msgs += 1;
            let msg = self.wire(msg);
            let j = match to {
                To::Client => {
                    if msg.tag() == tag {
                        reply = Some(msg);
                    }
                    continue;
                }
                To::Site(j) if self.down == Some(j) => continue,
                To::Site(j) => j,
            };
            self.deliver(j, src, msg, &mut out);
            for eff in out.drain(..) {
                if let Effect::Send { to, msg, .. } = eff {
                    let to = match to {
                        Dest::Site(s) => To::Site(s),
                        Dest::Peer(p) if p < EP_BASE => To::Client,
                        Dest::Peer(p) => To::Site(p - EP_BASE),
                    };
                    queue.push_back((to, EP_BASE + j, msg));
                }
            }
        }
        reply.ok_or(ClientErr::Timeout { site })
    }
}

/// What a replay measured.
pub(crate) struct Replayed {
    pub(crate) io: ReplayIo,
    pub(crate) ops: u64,
    pub(crate) writes: u64,
    pub(crate) failures: Vec<String>,
}

/// Replay `healthy` then `degraded` on a fresh cluster over `storage`.
/// With a `victim`, that site is down throughout `degraded`, then rebuilt
/// into the spares, brought back and recovered.
pub(crate) fn replay(
    g: usize,
    rows: u64,
    block: usize,
    storage: &StorageSpec,
    (healthy, degraded): (&[Op], &[Op]),
    victim: Option<usize>,
) -> Result<Replayed, String> {
    let mut io = ReplayIo::open(g, rows, block, storage)?;
    let mut machine = ClientMachine::new(g, rows, block, SparePolicy::OnePerParity, true, u16::MAX);
    let sites = g + 2;
    let keys = rows as usize / sites * g * sites;
    let mut version = vec![0u32; keys];
    let mut buf = vec![0u8; block];
    let (mut writes, mut failures) = (0, Vec::new());
    let ops: Vec<Op> = healthy.iter().chain(degraded).copied().collect();
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64 + 1;
        if i == healthy.len() {
            if let Some(v) = victim {
                machine.set_down(v, true);
                io.down = Some(v);
            }
        }
        let (site, index) = (op.key as usize % sites, u64::from(op.key) / sites as u64);
        let k = op.key as usize;
        io.begin(id);
        let outcome = if op.write {
            let v = version[k] + 1;
            gen::fill(&mut buf, op.key, v);
            let span = io.spans.open(id, "replay.write");
            let r = machine.write(&mut io, site, index, &buf);
            io.spans.close(span);
            writes += 1;
            if !io.op_checkpointed {
                io.storage.wal_bytes += io.op_wal;
                io.storage.user_bytes += block as u64;
            }
            r.map(|()| version[k] = v).map_err(|e| format!("{e:?}"))
        } else {
            let span = io.spans.open(id, "replay.read");
            let r = machine.read(&mut io, site, index);
            io.spans.close(span);
            r.map_err(|e| format!("{e:?}")).and_then(|data| {
                let fresh = version[k] == 0 && data.iter().all(|&b| b == 0);
                if fresh || gen::check(&data) == Some((op.key, version[k])) {
                    Ok(())
                } else {
                    Err("wrong contents".to_string())
                }
            })
        };
        if let Err(e) = outcome {
            failures.push(format!("replay op {i} on key {}: {e}", op.key));
        }
    }
    if let Some(v) = victim {
        let id = ops.len() as u64 + 1;
        io.begin(id);
        let span = io.spans.open(id, "replay.rebuild");
        let report = machine.rebuild_member(&mut io, v, crate::load::WAVE_ROWS);
        io.spans.close(span);
        io.down = None;
        machine.set_down(v, false);
        io.begin(id + 1);
        let span = io.spans.open(id + 1, "replay.recover");
        let drained = machine.recover(&mut io, v);
        io.spans.close(span);
        if report.is_err() || drained.is_err() {
            failures.push(format!(
                "replay rebuild {:?} / recover {:?}",
                report.err(),
                drained.err()
            ));
        }
    }
    Ok(Replayed {
        io,
        ops: ops.len() as u64,
        writes,
        failures,
    })
}
