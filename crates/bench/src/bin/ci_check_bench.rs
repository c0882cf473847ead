//! `ci-check-bench` — the CI helpers around the gated benches.
//!
//! ```text
//! ci-check-bench cores
//! ci-check-bench check       <baseline.json> [--out FILE]
//! ci-check-bench golden      <out-dir>
//! ci-check-bench scale-smoke [--nodes N] [--rps N]
//! ```
//!
//! `cores` prints the host's available parallelism (CI uses it to decide
//! whether the multi-threaded stress step can mean anything).
//!
//! `check` reads a committed bench record (`results/BENCH_<bench>.json`),
//! runs the bench its `bench` field names (`coldstart`, `cluster`,
//! `cluster_multitenant`, `artifact`, `policies` or `registry`) fresh, and
//! gates the fresh record against the baseline with
//! [`medusa_bench::smoke::check`]: the configuration must match, and every
//! metric must pass the rule the record carries (exact, percent tolerance,
//! floor or ceiling). `--out` writes the fresh record before gating, so a
//! failing CI run can upload it; pointed at the baseline itself it
//! regenerates the baseline. The `artifact` bench also checks, on this
//! host only, that MAF2 open+validate beats JSON parse+validate by at
//! least [`medusa_bench::smoke::ARTIFACT_SPEEDUP_FLOOR`]×.
//!
//! `golden` writes one `ClusterReport` JSON per scenario of the
//! differential matrix ([`medusa_serving::scenarios`]) into `<out-dir>` —
//! CI regenerates them into a scratch directory and diffs against the
//! committed `results/golden/`, so any change to the fleet simulator's
//! observable semantics fails loudly with a readable report diff.
//!
//! `scale-smoke` runs the large-fleet scenario (1000 nodes, 10k rps by
//! default) on both a Medusa and a vanilla fleet, and checks that every
//! request is served, that Medusa still beats vanilla on TTFT p99 at that
//! scale, and that the whole run fits the
//! [`medusa_bench::smoke::SCALE_BUDGET_S`] wall-clock budget — the event
//! core's "millions of events in wall-clock seconds" contract.

use medusa_bench::smoke::{self, check, BenchRecord, SCALE_NODES, SCALE_RPS};
use medusa_serving::scenarios::differential_matrix;
use medusa_serving::simulate_fleet;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cores") => {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            println!("{cores}");
            Ok(())
        }
        Some("check") => run_check(&args[1..]),
        Some("golden") => golden(&args[1..]),
        Some("scale-smoke") => scale_smoke(&args[1..]),
        _ => {
            eprintln!("usage: ci-check-bench <cores|check|golden|scale-smoke> [args]");
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("ci-check-bench: FAIL: {e}");
        exit(1);
    }
}

/// Runs the bench a committed baseline names and gates the fresh record
/// against it. `--out` persists the fresh record before gating.
fn run_check(args: &[String]) -> Result<(), String> {
    let (baseline_path, out) = match args {
        [path] => (path, None),
        [path, flag, out] if flag == "--out" => (path, Some(out)),
        _ => return Err("check needs <baseline.json> [--out FILE]".into()),
    };
    let baseline_json = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read `{baseline_path}`: {e}"))?;
    let baseline = BenchRecord::from_json(&baseline_json)
        .map_err(|e| format!("cannot parse `{baseline_path}`: {e}"))?;
    let mut host = None;
    let fresh = match baseline.bench.as_str() {
        "coldstart" => smoke::run(),
        "cluster" => smoke::run_cluster(),
        "cluster_multitenant" => smoke::run_cluster_mt(),
        "artifact" => {
            let (record, speedup) = smoke::run_artifact();
            host = Some(speedup);
            record
        }
        "policies" => smoke::run_policies(),
        "registry" => smoke::run_registry(),
        other => return Err(format!("`{baseline_path}` names unknown bench `{other}`")),
    };
    if let Some(path) = out {
        std::fs::write(path, fresh.to_json()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!("ci-check-bench: OK: {}", check(&fresh, &baseline)?);
    if let Some(host) = host {
        println!("ci-check-bench: OK: {}", check(&host, &host)?);
    }
    Ok(())
}

/// Writes one report JSON per differential-matrix scenario into `dir`.
fn golden(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err("golden needs <out-dir>".into());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    let matrix = differential_matrix();
    for s in &matrix {
        let out = simulate_fleet(&s.profile, &s.cluster, s.policy, &s.trace);
        let path = format!("{dir}/{}.json", s.name);
        let mut json = out.report.to_json();
        json.push('\n');
        std::fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!(
        "ci-check-bench: OK: wrote {} golden reports to {dir}",
        matrix.len()
    );
    Ok(())
}

/// Runs the large-fleet scale scenario and checks its record against
/// itself: the record carries the invariants and the wall-clock budget.
fn scale_smoke(args: &[String]) -> Result<(), String> {
    let mut nodes = SCALE_NODES;
    let mut rps = SCALE_RPS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--nodes" => nodes = v.parse().map_err(|e| format!("bad --nodes: {e}"))?,
            "--rps" => rps = v.parse().map_err(|e| format!("bad --rps: {e}"))?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let record = smoke::run_scale(nodes, rps);
    let verdict = check(&record, &record)?;
    let value = |name| record.value(name).unwrap_or(0);
    let per_host_s = |n: u64| n as f64 * 1000.0 / value("wall_ms").max(1) as f64;
    println!(
        "ci-check-bench: OK: {verdict}\n  {:.0} medusa-side events/s over the whole run\n  \
         {:.0} simulated requests per host second (both fleets, whole run)",
        per_host_s(value("medusa_events")),
        per_host_s(2 * value("offered")),
    );
    Ok(())
}
