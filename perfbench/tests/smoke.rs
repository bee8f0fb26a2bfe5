//! The benchmark's own checks: every workload runs at a tiny size and
//! prints every metric `BENCHMARK.json` names, with its unit; one seed
//! always yields the same inputs and the same single-client replay counts.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["mem-mix", "durable-socket", "rebuild"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |e| start + e);
    text[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} in {entry}"));
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("opening quote") + 1;
    let close = rest[open..].find('"').expect("closing quote") + open;
    rest[open..close].to_string()
}

struct Run {
    stdout: String,
    /// Metric name → (value, unit) from the JSON summary line.
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_radd-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--smoke")
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let body = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    let metrics = body
        .split("}, ")
        .filter_map(|m| {
            let name = m.split('"').nth(1)?.to_string();
            let value = m
                .split("\"value\": ")
                .nth(1)?
                .split(',')
                .next()?
                .parse()
                .ok()?;
            let unit = m
                .split("\"unit\": \"")
                .nth(1)?
                .split('"')
                .next()?
                .to_string();
            Some((name, (value, unit)))
        })
        .collect();
    Run { stdout, metrics }
}

fn assert_declared(run: &Run, section: &str, workload: &str) {
    let want = declared(section);
    assert!(!want.is_empty());
    for (name, unit) in &want {
        let (value, got) = run
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {:?}", run.metrics.keys()));
        assert_eq!(got, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            run.stdout.contains(&format!("metric {name} ")),
            "{workload}: {name} not printed"
        );
    }
    assert_eq!(run.metrics.len(), want.len(), "{workload}: extra metrics");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_declared(&run(w, 7, false), "end_to_end", w);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_declared(&run(w, 7, true), "per_layer", w);
    }
}

fn digest(run: &Run) -> String {
    run.stdout
        .lines()
        .find_map(|l| l.split("digest=").nth(1))
        .and_then(|d| d.split_whitespace().next())
        .expect("digest in the header")
        .to_string()
}

#[test]
fn one_seed_gives_one_input_stream_and_one_replay() {
    for w in ["durable-socket", "rebuild"] {
        let (a, b) = (run(w, 11, true), run(w, 11, true));
        assert_eq!(digest(&a), digest(&b), "{w}: digest");
        for exact in [
            "client.msgs_per_op",
            "storage.wal_bytes_per_user_byte",
            "storage.commits_per_write",
        ] {
            assert_eq!(
                a.metrics[exact].0, b.metrics[exact].0,
                "{w}: {exact} must repeat"
            );
        }
        assert_ne!(
            digest(&a),
            digest(&run(w, 12, false)),
            "{w}: another seed, other inputs"
        );
    }
}
