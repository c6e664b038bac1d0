//! The benchmark's count metrics — search states, budget units, mutants
//! executed, statically rejected mutants, ddmin replays, incremental counters
//! and cache hits — must repeat exactly: across two runs of the same seed,
//! and across fork-join pool widths 1 and 2. Runs the traced benchmark at a
//! small fixed operation count.

use std::collections::BTreeMap;
use std::process::Command;

/// Operations per measured pass: small, but enough for cache hits (each of
/// the two clients resends its previous body on its twentieth request),
/// trophies and resumed registers to occur.
const OPS: &str = "48";

/// Runs the traced benchmark and returns its metrics as `name -> (value, unit)`.
fn traced_metrics(threads: &str) -> BTreeMap<String, (String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "check_http", "--seed", "5", "--seconds", "1"])
        .args(["--trace", "1", "--ops", OPS])
        .env("RLT_THREADS", threads)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_metrics(last)
}

/// Parses `"name": {"value": v, "unit": "u"}` entries of the result line.
fn parse_metrics(line: &str) -> BTreeMap<String, (String, String)> {
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let (name, rest) = entry.split_once(": {\"value\": ").expect("metric entry");
        let (value, unit) = rest.split_once(", \"unit\": ").expect("metric unit");
        metrics.insert(
            name.trim_matches('"').to_string(),
            (value.to_string(), unit.trim_matches('"').to_string()),
        );
    }
    metrics
}

/// Metrics that are pure functions of the inputs: counts, and ratios of
/// counts (tracing and pool-occupancy ratios are timings).
fn deterministic(
    metrics: &BTreeMap<String, (String, String)>,
) -> BTreeMap<String, (String, String)> {
    metrics
        .iter()
        .filter(|(name, (_, unit))| {
            unit.starts_with("count")
                || (unit == "ratio" && !name.starts_with("trace.") && *name != "rayon.busy_frac")
        })
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

#[test]
fn count_metrics_repeat_across_runs_and_pool_widths() {
    let first = deterministic(&traced_metrics("2"));
    for name in [
        "engine.states_explored",
        "fuzz.budget_used",
        "fuzz.mutants_executed",
        "analyze.statically_rejected",
        "minimize.replays",
        "incremental.states",
        "incremental.resume_ratio",
        "service.cache_hits",
    ] {
        assert!(first.contains_key(name), "missing count metric {name}");
    }
    let positive = |name: &str| first[name].0.parse::<f64>().expect("number") > 0.0;
    assert!(positive("service.cache_hits"), "the run must hit the cache");
    assert!(
        positive("minimize.replays"),
        "the run must minimize trophies"
    );
    assert_eq!(
        first,
        deterministic(&traced_metrics("2")),
        "two runs differ"
    );
    assert_eq!(
        first,
        deterministic(&traced_metrics("1")),
        "pool widths 1 and 2 differ"
    );
}
