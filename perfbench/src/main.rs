//! `radd-perfbench` — the RADD end-to-end and per-layer benchmark.
//!
//! ```text
//! radd-perfbench --workload <mem-mix|durable-socket|rebuild> --seed <n>
//!                --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One process drives the real runtimes (`radd-node`'s threaded cluster,
//! `radd-rt`'s socket cluster) through their public client calls from at
//! most `nproc` generator threads, checks every result, and prints one
//! metric per line followed by a JSON summary as the last line. With
//! `--trace 0` the summary holds the end-to-end metrics; with `--trace 1`
//! it holds the per-layer metrics, and the spans go to
//! `.perfbench-data/spans-<workload>.jsonl`. `--smoke` shrinks the
//! cluster for a quick functional check. The exit code is non-zero if any
//! operation or correctness check failed.
//!
//! The process re-runs itself pinned to one CPU, and takes wall-clock
//! figures from the 100-ms slots in which the host stole the least vCPU
//! time (see `sys::pin_to_one_cpu` and `report`): on an overcommitted VM
//! both otherwise swing run-to-run results far more than any change to
//! the program does.

#![forbid(unsafe_code)]

mod gen;
mod load;
mod probes;
mod replay;
mod report;
mod stats;
mod sys;
mod target;
mod trace;

use gen::{Digest, Keys, Op, Rng};
use load::{Choreo, Cycle, Foreground, Gap, Oracle, Phases, Tally, Worker};
use radd_obs::ObsSnapshot;
use radd_storage::StorageSpec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use target::{Client, Cluster};

/// Group size: `G + 2 = 6` sites.
const G: usize = 4;
const SITES: usize = G + 2;
const BLOCK: usize = 4096;
/// Clusters started (and prefilled) per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rebuild cycles `mem-mix` runs on its idle cluster before the
/// foreground, for its `rebuild_s` and `recover_s`.
const IDLE_CYCLES: usize = 45;
/// Crash-restarts of the victim at the end of `durable-socket`; their
/// median is its `recover_s`.
const RESTARTS: usize = 15;
/// Writes the rebuild cycler makes between cycles, every site up.
const GAP_WRITES: usize = 192;
/// Closed-loop stream length per thread (the stream wraps round).
const CLOSED_LEN: usize = 1 << 16;
/// Where disk stores and span files go, under the working directory.
const DATA_DIR: &str = ".perfbench-data";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runtime {
    Threaded,
    Socket,
}

/// One named workload. Its open-loop rate is fixed here (and stated in
/// `BENCHMARK.json`), never derived at run time.
struct Workload {
    name: &'static str,
    runtime: Runtime,
    disk: bool,
    rows: u64,
    read_permille: u64,
    keys: Keys,
    /// Aggregate open-loop rate, requests per second.
    rate: f64,
    rebuild: bool,
    /// Share of the run given to the open loop; the closed loop has the
    /// rest. `rebuild` gives its open loop, the only phase its failure
    /// cycles run in, the larger share, for more cycles per run.
    open_share: f64,
    /// Operations the traced run replays synchronously.
    replay_ops: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mem-mix",
        runtime: Runtime::Threaded,
        disk: false,
        rows: 3072,
        read_permille: 700,
        keys: Keys::Uniform,
        rate: 1000.0,
        rebuild: false,
        open_share: 0.6,
        replay_ops: 4000,
    },
    Workload {
        name: "durable-socket",
        runtime: Runtime::Socket,
        disk: true,
        rows: 768,
        read_permille: 300,
        keys: Keys::Zipf(0.99),
        rate: 200.0,
        rebuild: false,
        open_share: 0.6,
        replay_ops: 3200,
    },
    Workload {
        name: "rebuild",
        runtime: Runtime::Threaded,
        disk: false,
        rows: 3072,
        read_permille: 1000,
        keys: Keys::Uniform,
        rate: 500.0,
        rebuild: true,
        open_share: 0.8,
        replay_ops: 2000,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, false, false);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    };
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
        })
    }
}

/// The run's inputs, generated from the seed before any cluster starts.
struct Plan {
    rows: u64,
    /// Client handles (and generator threads) the cluster is started with.
    threads: usize,
    /// Per foreground thread: open-loop stream, closed-loop stream.
    streams: Vec<(Vec<Op>, Vec<Op>)>,
    /// The rebuild cycler's writes (rebuild workload only).
    gap: Vec<Op>,
    /// The site killed by rebuild cycles and the crash check.
    victim: usize,
    digest: u64,
}

impl Plan {
    fn keys(&self) -> usize {
        (self.rows as usize / SITES) * G * SITES
    }

    fn generate(w: &Workload, args: &Args, phases: &Phases) -> Plan {
        let rows = if args.smoke { 96 } else { w.rows };
        // The rebuild workload needs its cycler plus at least one reader.
        let threads = if w.rebuild {
            sys::nproc().max(2)
        } else {
            sys::nproc()
        };
        let mut rng = Rng::new(args.seed ^ 0x5241_4444_4245_4e43);
        let victim = rng.below(SITES as u64) as usize;
        let keys = (rows as usize / SITES) * G * SITES;
        // Keys in row order from a seeded start row: Zipf ranks then make
        // whole rows hot, so one parity block takes most of the updates.
        let geo = radd_layout::Geometry::new(G, rows).expect("valid geometry");
        let start_row = rng.below(rows);
        let mut all: Vec<u32> = (0..keys as u32).collect();
        all.sort_by_key(|&k| {
            let (site, index) = (k as usize % SITES, u64::from(k) / SITES as u64);
            (
                (geo.data_to_physical(site, index) + rows - start_row) % rows,
                site,
            )
        });
        // Rebuild: one thread cycles, the rest read every key.
        let (streams_n, owners) = if w.rebuild {
            (threads - 1, 1)
        } else {
            (threads, threads)
        };
        let open_len = (w.rate / streams_n as f64 * phases.open.as_secs_f64()).ceil() as usize + 1;
        let streams = (0..streams_n)
            .map(|t| {
                let owned: Vec<u32> = if w.rebuild {
                    all.clone()
                } else {
                    all.iter()
                        .copied()
                        .filter(|k| *k as usize % owners == t)
                        .collect()
                };
                let open = gen::stream(&mut rng, &owned, w.keys, w.read_permille, open_len);
                let closed = gen::stream(&mut rng, &owned, w.keys, w.read_permille, CLOSED_LEN);
                (open, closed)
            })
            .collect::<Vec<_>>();
        let gap = if w.rebuild {
            gen::stream(&mut rng, &all, Keys::Uniform, 0, 4096)
        } else {
            Vec::new()
        };
        let mut d = Digest::new();
        d.bytes(w.name.as_bytes());
        for v in [
            args.seed,
            rows,
            threads as u64,
            victim as u64,
            w.rate.to_bits(),
            phases.open.as_nanos() as u64,
        ] {
            d.bytes(&v.to_le_bytes());
        }
        for (open, closed) in &streams {
            d.ops(open);
            d.ops(closed);
        }
        d.ops(&gap);
        Plan {
            rows,
            threads,
            streams,
            gap,
            victim,
            digest: d.value(),
        }
    }
}

/// Everything one run measured, before it is reduced to metrics.
struct Measured {
    setup_s: Vec<f64>,
    fg: Foreground,
    cycles: Vec<Cycle>,
    /// `kill_restart_site` durations (disk stores only).
    restarts: Vec<f64>,
    obs: ObsSnapshot,
    lost: u64,
}

fn main() -> ExitCode {
    trace::init_epoch();
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("radd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = sys::pin_to_one_cpu() {
        return code;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("radd-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let seconds = Duration::from_secs_f64(args.seconds);
    let phases = Phases {
        open: seconds.mul_f64(w.open_share),
        closed: seconds.mul_f64(1.0 - w.open_share),
        rate: w.rate,
        trace: args.trace,
    };
    let plan = Plan::generate(w, args, &phases);
    let data = PathBuf::from(DATA_DIR);
    std::fs::create_dir_all(&data).map_err(|e| format!("cannot create {DATA_DIR}: {e}"))?;
    let fs = sys::fs_type(&data);
    println!(
        "# radd-perfbench workload={} seed={} seconds={} trace={} smoke={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    println!(
        "# nproc={} cpus_allowed={} kernel={} xor_kernel={} generator_threads={} data_fs={fs} G={G} block={BLOCK} rows={} rate={}/s",
        sys::nproc(),
        sys::cpus_allowed(),
        sys::kernel(),
        radd_parity::kernels::active_kernel_name(),
        plan.threads,
        plan.rows,
        w.rate
    );
    println!(
        "# inputs digest={:#018x} victim_site={} streams={}x{} open-loop ops",
        plan.digest,
        plan.victim,
        plan.streams.len(),
        plan.streams.first().map_or(0, |s| s.0.len())
    );
    if w.disk && fs == "tmpfs" {
        return Err(format!("{DATA_DIR} is on tmpfs, where fdatasync costs nothing; run from a disk-backed checkout"));
    }
    let tally = Tally::default();
    let started = Instant::now();
    let measured = match w.runtime {
        Runtime::Threaded => measure(w, &plan, &phases, &tally, |_| {
            target::start_node(G, plan.rows, BLOCK, plan.threads)
        }),
        Runtime::Socket => measure(w, &plan, &phases, &tally, |dir| {
            let storage = if w.disk {
                StorageSpec::Disk {
                    dir: dir.to_path_buf(),
                }
            } else {
                StorageSpec::Mem
            };
            target::start_socket(G, plan.rows, BLOCK, plan.threads, &storage)
        }),
    }?;
    let (gated, unbounded) = report::end_to_end(w, &plan, &measured, &phases);
    let metrics = if args.trace {
        report::per_layer(w, &plan, &measured, &phases, &data)?
    } else {
        gated
    };
    let (attempted, failed) = (tally.attempted().max(1), tally.failed());
    for m in &metrics {
        println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
    }
    if !args.trace {
        for m in &unbounded {
            println!("# unbounded {} {} {} {}", m.name, m.value, m.unit, m.note);
        }
    }
    println!("{}", report::host_line(&measured));
    println!(
        "# error_rate {} (failed {failed} of {attempted} operations; {} acknowledged writes lost) wall {:.1}s",
        failed as f64 / attempted as f64,
        measured.lost,
        started.elapsed().as_secs_f64()
    );
    for e in tally.errors() {
        println!("# failure: {e}");
    }
    let correct = failed == 0 && measured.lost == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// Start `SETUPS` clusters in turn (each prefilled), keep the last, run
/// the workload on it, then check it.
fn measure<Cl: Cluster + Send>(
    w: &Workload,
    plan: &Plan,
    phases: &Phases,
    tally: &Tally,
    start: impl Fn(&Path) -> (Cl, Vec<Cl::C>),
) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    let dir =
        |i: usize| PathBuf::from(DATA_DIR).join(format!("{}-{}-{i}", w.name, std::process::id()));
    for i in 0..SETUPS {
        let d = dir(i);
        let _ = std::fs::remove_dir_all(&d);
        let oracle = Oracle::new(plan.keys(), SITES, BLOCK);
        let t = Instant::now();
        let (cl, clients) = start(&d);
        let clients = prefill_all(clients, &oracle, tally);
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            cl.shutdown();
            drop(clients);
            let _ = std::fs::remove_dir_all(&d);
        } else {
            kept = Some((cl, clients, oracle));
        }
    }
    let (mut cl, clients, oracle) = kept.expect("at least one set-up");
    let mut cycles = Vec::new();
    if !w.rebuild && !w.disk {
        // Idle failure cycles on the freshly prefilled cluster, before the
        // foreground: after it, the rebuild speed followed how much the
        // foreground had churned the heap, and drifted from run to run.
        let choreo = Choreo::new(plan.victim);
        for i in 0..IDLE_CYCLES {
            cycles.extend(load::cycle(
                &mut cl,
                &choreo,
                tally,
                &mut None,
                (i as u64, Duration::ZERO, false),
            ));
        }
        tally.note(
            cl.verify_parity()
                .map_err(|e| format!("parity after the rebuild cycles: {e}")),
        );
    }
    let mut workers: Vec<Worker<'_, Cl::C>> = clients
        .into_iter()
        .enumerate()
        .map(|(t, c)| Worker::new(c, &oracle, tally, t as u64 + 1))
        .collect();
    let fg = if w.rebuild {
        workers.truncate(plan.streams.len());
        let gap = Gap {
            ops: &plan.gap,
            per_cycle: GAP_WRITES,
        };
        load::rebuilding(
            &mut cl,
            workers,
            &plan.streams,
            phases,
            plan.victim,
            &gap,
            &oracle,
            tally,
        )
    } else {
        load::mixed(workers, &plan.streams, phases)
    };
    let obs = cl.obs();
    tally.note(cl.quiesce());
    tally.note(
        cl.verify_parity()
            .map_err(|e| format!("parity after the run: {e}")),
    );
    let mut restarts = Vec::new();
    if w.disk {
        // Crash the victim's process and restart it from its log: every
        // acknowledged write must survive (checked by the read-back).
        for _ in 0..RESTARTS {
            let t = Instant::now();
            let restarted = cl.kill_restart(plan.victim);
            restarts.push(t.elapsed().as_secs_f64());
            tally.note(if restarted {
                Ok(())
            } else {
                Err(format!("site {} did not restart", plan.victim))
            });
        }
        tally.note(cl.quiesce());
    }
    let lost = load::read_back(cl.main(), &oracle, tally, |_| true);
    if w.disk {
        tally.note(
            cl.verify_parity()
                .map_err(|e| format!("parity after the restarts: {e}")),
        );
    }
    cycles.extend(fg.cycles.iter().cloned());
    if w.disk {
        cycles.extend(load::reconstruct_and_restart(
            &mut cl,
            plan.victim,
            &oracle,
            tally,
        ));
    }
    cl.shutdown();
    let _ = std::fs::remove_dir_all(dir(SETUPS - 1));
    Ok(Measured {
        setup_s,
        fg,
        cycles,
        restarts,
        obs,
        lost,
    })
}

/// Prefill every key with version 1, the clients writing in parallel.
fn prefill_all<C: Client>(clients: Vec<C>, oracle: &Oracle, tally: &Tally) -> Vec<C> {
    let n = clients.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, c)| {
                s.spawn(move || {
                    let mut w = Worker::new(c, oracle, tally, 0);
                    load::prefill(
                        &mut w,
                        (0..oracle.keys() as u32).filter(|k| *k as usize % n == t),
                    );
                    w.client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefill thread panicked"))
            .collect()
    })
}
