//! Plumbing every workload shares: host facts a result depends on, the
//! run's correctness checks, the set-up loop and the input fingerprint.

use std::time::Duration;

use medusa_workload::{fingerprint, Request};

/// splitmix64: derives the per-round and per-model seeds of a run from
/// its workload seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in the process status")?;
    Ok(kb / 1024.0)
}

/// Prints what the numbers of this run depend on besides the code.
pub fn print_host_record() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: host available_parallelism {cores} build_profile {} compiler {}",
        env!("PERFBENCH_BUILD_PROFILE"),
        env!("PERFBENCH_RUSTC_VERSION"),
    );
}

/// Correctness checks of one run. A failed check fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Builds a run's inputs `reps` times and returns the last build with the
/// set-up time of every build, in seconds. Each build is released before
/// the next starts, so peak memory holds one set of inputs.
pub fn set_up<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
    setup_time: impl Fn(&T) -> Duration,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut inputs = None;
    for _ in 0..reps.max(1) {
        drop(inputs.take());
        let built = build()?;
        times.push(setup_time(&built).as_secs_f64());
        inputs = Some(built);
    }
    Ok((inputs.expect("at least one set-up"), times))
}

/// Prints the fingerprint of a run's first trace and fails the run when a
/// recorded seed's fingerprint drifted: the generator changed.
pub fn check_fingerprint(
    workload: &str,
    seed: u64,
    trace: &[Request],
    recorded: &[(u64, u64)],
    checks: &mut Checks,
) {
    let fp = fingerprint(trace);
    println!(
        "perfbench: workload {workload} seed {seed} trace_fingerprint {fp:#018x} \
         ({} requests in trace 0)",
        trace.len()
    );
    for &(recorded_seed, recorded_fp) in recorded {
        if recorded_seed == seed {
            checks.check(fp == recorded_fp, || {
                format!(
                    "trace fingerprint {fp:#018x} drifted from the recorded {recorded_fp:#018x}"
                )
            });
        }
    }
}
