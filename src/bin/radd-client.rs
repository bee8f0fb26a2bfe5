//! `radd-client` — issue reads, writes, recovery and workloads against a
//! running cluster.
//!
//! ```text
//! radd-client <site-map-file> [--group <k>] [--down <site>]... read <site> <index>
//! radd-client <site-map-file> [--group <k>] [--down <site>]... write <site> <index> <fill-byte>
//! radd-client <site-map-file> [--group <k>] recover <site>
//! radd-client <site-map-file> [--group <k>] rebuild <site> [--wave N]
//! radd-client <site-map-file> [--group <k>] [--down <site>]... workload [--ops N] [--seed HEX] [--id SLOT]
//! ```
//!
//! `rebuild` reconstructs every data block a failed member owns into the
//! row spares in pipelined waves (`--wave`, default 16 rows per wave) —
//! the §3.3 degraded path run in bulk, ahead of demand, so later degraded
//! reads hit warm spares instead of paying G-way reconstruction each.
//!
//! On a multi-group map (`groups = N`), `--group <k>` selects which group
//! the client speaks to; `<site>` then names a **member slot** inside that
//! group (the map's rotation places it on a pool site) and `--down` takes
//! member slots too.
//!
//! `--down` (repeatable) tells the client a site has failed before the
//! command runs, so reads reconstruct from the group and writes go to the
//! spare (§3.2's degraded paths). Failure detection is outside the
//! read/write protocol in the paper's model — the operator, not the
//! client, decides a site is dead; without the flag an operation against
//! a down site times out rather than silently failing over.
//!
//! `workload` runs a deterministic mixed read/write stream (seeded
//! splitmix64 over the cluster's data blocks), verifies every read
//! against the writes it has issued, sweeps the parity invariant at the
//! end, and prints the client's metrics. `--id` picks the client endpoint
//! slot (0-based, below the map's `clients` count) so several generators
//! can run concurrently with disjoint UID namespaces.

use radd_rt::{ClusterConfig, SocketClient, SocketEndpoint};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: radd-client <site-map-file> [--group <k>] [--down <site>]... <command>\n\
         commands:\n\
         \x20 read <site> <index>\n\
         \x20 write <site> <index> <fill-byte>\n\
         \x20 recover <site>\n\
         \x20 rebuild <site> [--wave N]\n\
         \x20 workload [--ops N] [--seed HEX] [--id SLOT]\n\
         --down marks a site as failed so reads reconstruct and writes\n\
         go to the spare instead of timing out against the dead site"
    );
    ExitCode::from(2)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn connect(cfg: &ClusterConfig, group: usize, id: usize, downs: &[usize]) -> SocketClient {
    assert!(
        id < cfg.clients,
        "client slot {id} exceeds the map's {} reserved client endpoints",
        cfg.clients
    );
    let ep = SocketEndpoint::client(id, cfg.ep_base(), cfg.group_sites(group));
    let mut client = SocketClient::new(ep, cfg.ep_base(), cfg.g, cfg.rows, cfg.block_size);
    // Each process is a new incarnation of its endpoint id: salt the tag
    // space so the sites' at-most-once reply caches never replay answers
    // meant for an earlier invocation.
    let incarnation = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64 | 1);
    client.set_incarnation(incarnation);
    // Operator-declared failures (`--down`): the sans-IO machine only
    // takes the degraded read/write paths for sites it believes are down.
    for &site in downs {
        client.mark_down(site, true);
    }
    client
}

fn workload(
    cfg: &ClusterConfig,
    group: usize,
    ops: u64,
    seed: u64,
    id: usize,
    downs: &[usize],
) -> Result<(), String> {
    let mut client = connect(cfg, group, id, downs);
    // Writable addresses per site come from the geometry: each site owns
    // G/(G+2) of its rows as data blocks.
    let sites = cfg.g + 2;
    let capacity: Vec<u64> = (0..sites)
        .map(|s| client.geometry().data_capacity(s))
        .collect();
    let mut oracle: HashMap<(usize, u64), Vec<u8>> = HashMap::new();
    let started = Instant::now();
    let (mut reads, mut writes) = (0u64, 0u64);
    for n in 0..ops {
        let r = splitmix64(seed ^ n);
        let site = (r % sites as u64) as usize;
        if capacity[site] == 0 {
            continue;
        }
        let index = (r >> 16) % capacity[site];
        // 2:1 write:read mix — writes exercise the parity path.
        if !r.is_multiple_of(3) || oracle.is_empty() {
            let fill = (r >> 32) as u8;
            let data = vec![fill; cfg.block_size];
            client
                .write(site, index, &data)
                .map_err(|e| format!("write(site {site}, index {index}): {e}"))?;
            oracle.insert((site, index), data);
            writes += 1;
        } else {
            let got = client
                .read(site, index)
                .map_err(|e| format!("read(site {site}, index {index}): {e}"))?;
            if let Some(want) = oracle.get(&(site, index)) {
                if *want != got {
                    return Err(format!("stale read at site {site} index {index}"));
                }
            }
            reads += 1;
        }
    }
    client.verify_parity()?;
    let elapsed = started.elapsed();
    println!(
        "workload ok: {writes} writes + {reads} reads in {:.2?} \
         ({:.0} ops/s), parity invariant verified",
        elapsed,
        ops as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    let snap = client.obs_snapshot();
    println!(
        "client obs: retransmits={} stash_evictions={} send_failures={}",
        snap.metrics.retransmits, snap.metrics.stash_evictions, snap.metrics.send_failures
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parse = |s: &String, what: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
    };
    // Global `--down <site>` flags may appear anywhere before the command;
    // pull them out so the positional dispatch below stays simple.
    let mut downs: Vec<usize> = Vec::new();
    while let Some(pos) = args.iter().position(|a| a == "--down") {
        let site = args
            .get(pos + 1)
            .ok_or("--down needs a site id")
            .map_err(str::to_owned)?;
        downs.push(parse(site, "down site")? as usize);
        args.drain(pos..=pos + 1);
    }
    // `--group <k>` may likewise appear anywhere before the command.
    let mut group = 0usize;
    while let Some(pos) = args.iter().position(|a| a == "--group") {
        let k = args
            .get(pos + 1)
            .ok_or("--group needs a group id")
            .map_err(str::to_owned)?;
        group = parse(k, "group id")? as usize;
        args.drain(pos..=pos + 1);
    }
    let (map_path, cmd, rest) = match args.as_slice() {
        [map, cmd, rest @ ..] => (map, cmd.as_str(), rest),
        _ => return Err("__usage__".into()),
    };
    let cfg = ClusterConfig::load(map_path)?;
    if group >= cfg.groups {
        return Err(format!(
            "group {group} is out of range (map declares groups = {})",
            cfg.groups
        ));
    }
    match (cmd, rest) {
        ("read", [site, index]) => {
            let (site, index) = (parse(site, "site")? as usize, parse(index, "index")?);
            let data = connect(&cfg, group, 0, &downs)
                .read(site, index)
                .map_err(|e| e.to_string())?;
            let head: Vec<String> = data.iter().take(16).map(|b| format!("{b:02x}")).collect();
            println!("{} bytes: {}…", data.len(), head.join(" "));
            Ok(())
        }
        ("write", [site, index, fill]) => {
            let (site, index) = (parse(site, "site")? as usize, parse(index, "index")?);
            let fill = parse(fill, "fill byte")? as u8;
            connect(&cfg, group, 0, &downs)
                .write(site, index, &vec![fill; cfg.block_size])
                .map_err(|e| e.to_string())?;
            println!(
                "wrote {} × 0x{fill:02x} to site {site} index {index}",
                cfg.block_size
            );
            Ok(())
        }
        ("recover", [site]) => {
            let site = parse(site, "site")? as usize;
            let mut client = connect(&cfg, group, 0, &[]);
            client.mark_down(site, false);
            let drained = client.recover(site).map_err(|e| e.to_string())?;
            println!("recovered site {site}: {drained} blocks drained from spares");
            Ok(())
        }
        ("rebuild", [site, rest @ ..]) => {
            let site = parse(site, "site")? as usize;
            let mut wave = 16usize;
            let mut it = rest.iter();
            while let Some(f) = it.next() {
                let v = it.next().ok_or_else(|| format!("{f} needs a value"))?;
                match f.as_str() {
                    "--wave" => wave = parse(v, "wave size")?.max(1) as usize,
                    other => return Err(format!("unknown flag `{other}`")),
                }
            }
            let mut client = connect(&cfg, group, 0, &[]);
            client.mark_down(site, true);
            let report = client.rebuild(site, wave).map_err(|e| e.to_string())?;
            println!(
                "rebuilt member {site}: {} blocks reconstructed into spares \
                 ({} already absorbed, {} bytes XORed, reads fanned across {} peers)",
                report.blocks_rebuilt,
                report.blocks_absorbed,
                report.bytes_xored,
                report.peer_reads.iter().filter(|&&n| n > 0).count()
            );
            Ok(())
        }
        ("workload", flags) => {
            let (mut ops, mut seed, mut id) = (100u64, 0x5EED_u64, 0usize);
            let mut it = flags.iter();
            while let Some(f) = it.next() {
                let v = it.next().ok_or_else(|| format!("{f} needs a value"))?;
                match f.as_str() {
                    "--ops" => ops = parse(v, "op count")?,
                    "--seed" => {
                        let hex = v.trim_start_matches("0x");
                        seed = u64::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid seed: `{v}`"))?;
                    }
                    "--id" => id = parse(v, "client slot")? as usize,
                    other => return Err(format!("unknown flag `{other}`")),
                }
            }
            workload(&cfg, group, ops, seed, id, &downs)
        }
        _ => Err("__usage__".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e == "__usage__" => usage(),
        Err(e) => {
            eprintln!("radd-client: {e}");
            ExitCode::FAILURE
        }
    }
}
