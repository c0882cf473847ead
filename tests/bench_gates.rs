//! The bench comparator behind every CI perf gate: each rule's
//! accept/reject boundary, the derived metrics that carry the gates'
//! cross-metric invariants, and rejection of mismatched or damaged
//! baselines.
//!
//! The committed `results/BENCH_*.json` records serve as the baseline and,
//! mutated, as the fresh run, so every case exercises the rules the gates
//! actually apply. Several bounds read naturally in floating point
//! (`fresh <= base × 1.05`); the differential cases below check that the
//! integer rules accept and reject exactly the values the float statement
//! does.

use medusa_bench::smoke::{
    check, lead, per_mille, per_mille_ceil, speedup_record, BenchRecord, Rule,
    ARTIFACT_SPEEDUP_FLOOR, TOLERANCE_PCT,
};
use std::time::Duration;

const BENCHES: [&str; 6] = [
    "coldstart",
    "cluster",
    "cluster_multitenant",
    "artifact",
    "policies",
    "registry",
];

fn baseline_text(bench: &str) -> String {
    let path = format!("{}/results/BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn baseline(bench: &str) -> BenchRecord {
    BenchRecord::from_json(&baseline_text(bench)).unwrap_or_else(|e| panic!("{bench}: {e}"))
}

/// The baseline with metric `name` set to `value`.
fn with(base: &BenchRecord, name: &str, value: u64) -> BenchRecord {
    let mut fresh = base.clone();
    fresh
        .metrics
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{} has no metric `{name}`", base.bench))
        .value = value;
    fresh
}

fn value(r: &BenchRecord, name: &str) -> u64 {
    r.value(name)
        .unwrap_or_else(|| panic!("{} has no metric `{name}`", r.bench))
}

fn rule(r: &BenchRecord, name: &str) -> Rule {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{} has no metric `{name}`", r.bench))
        .rule
}

fn assert_passes(fresh: &BenchRecord, base: &BenchRecord) {
    if let Err(e) = check(fresh, base) {
        panic!("{} should pass: {e}", base.bench);
    }
}

fn assert_fails(fresh: &BenchRecord, base: &BenchRecord, needle: &str) {
    match check(fresh, base) {
        Ok(v) => panic!("{} should fail on `{needle}`: {v}", base.bench),
        Err(e) => assert!(e.contains(needle), "error does not name `{needle}`: {e}"),
    }
}

/// The float statement of the tolerance bound: `fresh <= base × 1.05`.
fn old_tolerance_admits(fresh: u64, base: u64) -> bool {
    fresh as f64 <= base as f64 * (1.0 + TOLERANCE_PCT as f64 / 100.0)
}

#[test]
fn committed_baselines_reproduce_their_bytes_and_hold_their_own_rules() {
    for bench in BENCHES {
        let text = baseline_text(bench);
        let b = baseline(bench);
        assert_eq!(b.bench, bench);
        assert_eq!(b.to_json(), text, "{bench} must re-encode byte-for-byte");
        assert_passes(&b, &b);
    }
}

#[test]
fn every_gate_carries_its_bound() {
    let tol = Rule::Tolerance { pct: 5 };
    let ahead = Rule::Floor { min: 1 };
    let mut expected: Vec<(&str, String, Rule)> = vec![
        ("coldstart", "serial_us".into(), tol),
        ("coldstart", "overlapped_us".into(), tol),
        ("coldstart", "pipelined_us".into(), tol),
        ("cluster", "medusa_ttft_p99_us".into(), tol),
        ("cluster", "medusa_makespan_us".into(), tol),
        ("cluster", "medusa_p99_lead_us".into(), ahead),
        ("cluster_multitenant", "medusa_ttft_p99_us".into(), tol),
        (
            "cluster_multitenant",
            "cache_hit_rate_pm".into(),
            Rule::Floor { min: 200 },
        ),
        (
            "artifact",
            "open_read_bytes_spread".into(),
            Rule::Ceiling { max: 0 },
        ),
        ("policies", "prewarm_p99_lead_us".into(), ahead),
        ("policies", "pipeline_duel_lead_us".into(), ahead),
        (
            "policies",
            "locality+prewarm.prewarms_unused".into(),
            Rule::Ceiling { max: 8 },
        ),
        ("registry", "cas_ttft_p99_us".into(), tol),
        (
            "registry",
            "store_dedup_ratio_milli".into(),
            Rule::Floor { min: 2000 },
        ),
        (
            "registry",
            "byte_reduction_milli".into(),
            Rule::Floor { min: 2000 },
        ),
        (
            "registry",
            "cas_vs_whole_ttft_p99_pm".into(),
            Rule::Ceiling { max: 1050 },
        ),
    ];
    for t in 0..8 {
        expected.push((
            "cluster_multitenant",
            format!("tenant{t}.medusa_p99_lead_us"),
            ahead,
        ));
    }
    for scale in [1, 10, 100] {
        expected.push((
            "artifact",
            format!("{scale}x.restore_read_per_rank_share_pm"),
            Rule::Ceiling { max: 1000 },
        ));
    }
    for row in [
        "coldstart-aware",
        "locality",
        "locality+prewarm",
        "pipeline",
    ] {
        expected.push(("policies", format!("{row}.ttft_p50_us"), tol));
        expected.push(("policies", format!("{row}.ttft_p99_us"), tol));
        expected.push(("policies", format!("{row}.completed"), Rule::Exact));
        if row != "locality+prewarm" {
            // No estimator runs, so no prewarm can be wasted.
            expected.push((
                "policies",
                format!("{row}.prewarms_unused"),
                Rule::Ceiling { max: 0 },
            ));
        }
    }
    // Every byte count of the artifact sweep and every registry counter
    // is exact, as before.
    for n in [
        "maf2_bytes",
        "json_bytes",
        "open_read_bytes",
        "shard_restore_read_bytes",
    ] {
        for scale in [1, 10, 100] {
            expected.push(("artifact", format!("{scale}x.{n}"), Rule::Exact));
        }
    }
    for n in [
        "whole_bytes_fetched",
        "cas_bytes_fetched",
        "cas_bytes_resolved",
        "cas_chunk_hits",
        "cas_chunk_misses",
        "store_logical_bytes",
        "store_stored_bytes",
        "store_unique_chunks",
    ] {
        expected.push(("registry", n.into(), Rule::Exact));
    }
    for (bench, name, want) in expected {
        assert_eq!(rule(&baseline(bench), &name), want, "{bench} {name}");
    }
}

#[test]
fn tolerance_passes_at_the_bound_fails_one_past_and_admits_improvements() {
    let mut seen = 0;
    for bench in BENCHES {
        let base = baseline(bench);
        for m in &base.metrics {
            let Rule::Tolerance { pct } = m.rule else {
                continue;
            };
            seen += 1;
            let bound = m.value * (100 + pct) / 100;
            assert_passes(&with(&base, &m.name, bound), &base);
            assert_fails(&with(&base, &m.name, bound + 1), &base, &m.name);
            assert_passes(&with(&base, &m.name, m.value / 2), &base);
            assert_passes(&with(&base, &m.name, 0), &base);
            for f in bound.saturating_sub(2)..=bound + 2 {
                assert_eq!(
                    m.rule.admits(f, m.value),
                    old_tolerance_admits(f, m.value),
                    "{bench} {}: fresh {f} vs baseline {}",
                    m.name,
                    m.value
                );
            }
        }
    }
    assert_eq!(seen, 15, "tolerance-gated metrics across the baselines");
    // The integer rule and the float statement agree on every small baseline.
    let tol = Rule::Tolerance { pct: TOLERANCE_PCT };
    for base in 0..3000u64 {
        for fresh in base..=base * 11 / 10 + 1 {
            assert_eq!(
                tol.admits(fresh, base),
                old_tolerance_admits(fresh, base),
                "fresh {fresh} vs baseline {base}"
            );
        }
    }
}

#[test]
fn exact_rejects_drift_either_way() {
    for bench in BENCHES {
        let base = baseline(bench);
        for m in base.metrics.iter().filter(|m| m.rule == Rule::Exact) {
            assert_fails(&with(&base, &m.name, m.value + 1), &base, &m.name);
            if m.value > 0 {
                assert_fails(&with(&base, &m.name, m.value - 1), &base, &m.name);
            }
        }
    }
    // Single-unit drift: one artifact byte, one registry chunk hit, one
    // request a policy row dropped.
    let art = baseline("artifact");
    let grown = value(&art, "100x.maf2_bytes") + 1;
    assert_fails(&with(&art, "100x.maf2_bytes", grown), &art, "maf2_bytes");
    let reg = baseline("registry");
    let hits = value(&reg, "cas_chunk_hits") + 1;
    assert_fails(&with(&reg, "cas_chunk_hits", hits), &reg, "cas_chunk_hits");
    let pol = baseline("policies");
    let done = value(&pol, "locality.completed") - 1;
    assert_fails(&with(&pol, "locality.completed", done), &pol, "completed");
}

#[test]
fn floors_and_ceilings_hold_at_the_bound_and_break_one_past() {
    for bench in BENCHES {
        let base = baseline(bench);
        for m in &base.metrics {
            match m.rule {
                Rule::Floor { min } => {
                    assert_passes(&with(&base, &m.name, min), &base);
                    assert_passes(&with(&base, &m.name, u64::MAX), &base);
                    assert_fails(&with(&base, &m.name, min - 1), &base, &m.name);
                }
                Rule::Ceiling { max } => {
                    assert_passes(&with(&base, &m.name, max), &base);
                    assert_passes(&with(&base, &m.name, 0), &base);
                    assert_fails(&with(&base, &m.name, max + 1), &base, &m.name);
                }
                _ => {}
            }
        }
    }
    // By name: a 199‰ hit rate and a 1.999× store dedup fail; 9 wasted
    // prewarms fail where 8 pass (`(7 + 1) × 1.05` over the committed 7).
    let mt = baseline("cluster_multitenant");
    assert_fails(
        &with(&mt, "cache_hit_rate_pm", 199),
        &mt,
        "cache_hit_rate_pm",
    );
    let reg = baseline("registry");
    let dedup = "store_dedup_ratio_milli";
    assert_fails(&with(&reg, dedup, 1_999), &reg, dedup);
    let pol = baseline("policies");
    let waste = "locality+prewarm.prewarms_unused";
    assert_eq!(value(&pol, waste), 7);
    assert_eq!((7 + 1) * 105 / 100, 8);
    assert_passes(&with(&pol, waste, 8), &pol);
    assert_fails(&with(&pol, waste, 9), &pol, waste);
    assert_fails(&with(&pol, waste, 10), &pol, waste);
}

#[test]
fn strict_invariants_fail_on_a_tie() {
    let mut cases = vec![
        (
            "cluster",
            "medusa_p99_lead_us".to_string(),
            "vanilla_ttft_p99_us".to_string(),
            "medusa_ttft_p99_us".to_string(),
        ),
        (
            "policies",
            "prewarm_p99_lead_us".into(),
            "coldstart-aware.ttft_p99_us".into(),
            "locality+prewarm.ttft_p99_us".into(),
        ),
        (
            "policies",
            "pipeline_duel_lead_us".into(),
            "single_coldstart_ttft_us".into(),
            "pipeline_coldstart_ttft_us".into(),
        ),
    ];
    for t in 0..8 {
        cases.push((
            "cluster_multitenant",
            format!("tenant{t}.medusa_p99_lead_us"),
            format!("tenant{t}.vanilla_ttft_p99_us"),
            format!("tenant{t}.medusa_ttft_p99_us"),
        ));
    }
    for (bench, lead_name, slower, faster) in cases {
        let base = baseline(bench);
        let (s, f) = (value(&base, &slower), value(&base, &faster));
        assert_eq!(value(&base, &lead_name), lead(s, f), "{bench} {lead_name}");
        // A tie, or the faster side falling behind, breaks the invariant...
        assert_fails(&with(&base, &lead_name, lead(s, s)), &base, &lead_name);
        assert_fails(&with(&base, &lead_name, lead(s, s + 1)), &base, &lead_name);
        // ...and one unit ahead holds it.
        assert_passes(&with(&base, &lead_name, lead(s, s - 1)), &base);
    }
}

#[test]
fn derived_ratios_keep_the_old_boundaries() {
    // cas p99 <= whole p99 × 1.05.
    let parity = Rule::Ceiling { max: 1050 };
    let reg = baseline("registry");
    let (cas, whole) = (
        value(&reg, "cas_ttft_p99_us"),
        value(&reg, "whole_ttft_p99_us"),
    );
    assert_eq!(
        value(&reg, "cas_vs_whole_ttft_p99_pm"),
        per_mille_ceil(cas, whole)
    );
    for whole in (1..2000u64).chain([whole, 1 << 40]) {
        let bound = whole * 105 / 100;
        for cas in bound.saturating_sub(2)..=bound + 2 {
            assert_eq!(
                parity.admits(per_mille_ceil(cas, whole), 0),
                cas as f64 <= whole as f64 * 1.05,
                "cas {cas} vs whole {whole}"
            );
        }
    }
    // Rank-0 restore reads <= ⌊maf2 / tp⌋.
    let share = Rule::Ceiling { max: 1000 };
    let art = baseline("artifact");
    let tp = 2u64;
    for scale in [1, 10, 100] {
        let maf2 = value(&art, &format!("{scale}x.maf2_bytes"));
        let restore = value(&art, &format!("{scale}x.shard_restore_read_bytes"));
        assert_eq!(
            value(&art, &format!("{scale}x.restore_read_per_rank_share_pm")),
            per_mille_ceil(restore * tp, maf2)
        );
        // Half the tp=2 file plus one byte fails.
        assert!(!share.admits(per_mille_ceil((maf2 / 2 + 1) * tp, maf2), 0));
    }
    for maf2 in (1..3000u64).chain([25_838_206]) {
        for restore in (maf2 / tp).saturating_sub(2)..=maf2 / tp + 2 {
            assert_eq!(
                share.admits(per_mille_ceil(restore * tp, maf2), 0),
                restore <= maf2 / tp,
                "restore {restore} of {maf2} bytes"
            );
        }
    }
    // Floors on per-mille ratios: whole >= 2 × cas fetch bytes, logical
    // >= 2 × stored bytes, hits >= 20% of lookups.
    let two_x = Rule::Floor { min: 2000 };
    let cas_fetched = value(&reg, "cas_bytes_fetched");
    assert_eq!(
        value(&reg, "byte_reduction_milli"),
        per_mille(value(&reg, "whole_bytes_fetched"), cas_fetched)
    );
    assert!(two_x.admits(per_mille(cas_fetched * 2, cas_fetched), 0));
    assert!(!two_x.admits(per_mille(cas_fetched * 2 - 1, cas_fetched), 0));
    assert_eq!(
        value(&reg, "store_dedup_ratio_milli"),
        per_mille(
            value(&reg, "store_logical_bytes"),
            value(&reg, "store_stored_bytes")
        )
    );
    let mt = baseline("cluster_multitenant");
    let (hits, misses) = (value(&mt, "cache_hits"), value(&mt, "cache_misses"));
    assert_eq!(
        value(&mt, "cache_hit_rate_pm"),
        per_mille(hits, hits + misses)
    );
    let hit_floor = Rule::Floor { min: 200 };
    assert!(hit_floor.admits(per_mille(20, 100), 0));
    assert!(!hit_floor.admits(per_mille(199, 1000), 0));
    // Nothing fetched on either side is no reduction at all.
    assert_eq!(per_mille(0, 0), 0);
    assert_eq!(per_mille(1, 0), u64::MAX);
    assert_eq!(per_mille_ceil(1, 0), u64::MAX);
}

#[test]
fn o_header_open_needs_the_same_read_at_every_scale() {
    let art = baseline("artifact");
    let reads: Vec<u64> = [1, 10, 100]
        .iter()
        .map(|s| value(&art, &format!("{s}x.open_read_bytes")))
        .collect();
    let spread = reads.iter().max().unwrap() - reads.iter().min().unwrap();
    assert_eq!(value(&art, "open_read_bytes_spread"), spread);
    assert_eq!(spread, 0);
    // Open cost growing with the file fails even against itself.
    let grown = with(&art, "open_read_bytes_spread", 80_000 - reads[0]);
    assert_fails(&grown, &grown, "open_read_bytes_spread");
}

#[test]
fn the_speedup_floor_is_checked_on_the_fresh_run_only() {
    let floor = ARTIFACT_SPEEDUP_FLOOR;
    let speedup = |json: Duration, maf2: Duration| {
        let r = speedup_record(json, maf2);
        check(&r, &r)
    };
    let slow = speedup(Duration::from_micros(900), Duration::from_micros(200));
    let err = slow.unwrap_err();
    assert!(err.contains("json_vs_maf2_open_speedup_milli"), "{err}");
    assert!(speedup(Duration::from_millis(90), Duration::from_micros(200)).is_ok());
    let maf2 = Duration::from_micros(200);
    assert!(speedup(maf2 * floor as u32, maf2).is_ok());
    assert!(speedup(maf2 * floor as u32 - Duration::from_nanos(1), maf2).is_err());
    // A host number never appears in a committed record.
    for bench in BENCHES {
        assert!(baseline(bench)
            .value("json_vs_maf2_open_speedup_milli")
            .is_none());
    }
}

#[test]
fn config_mismatch_names_the_field() {
    for bench in BENCHES {
        let base = baseline(bench);
        let regenerate = format!("regenerate results/BENCH_{bench}.json");
        for key in base.config.keys() {
            let mut fresh = base.clone();
            fresh.config.insert(key.clone(), "stale".into());
            assert_fails(&fresh, &base, &format!("config field `{key}`"));
            assert_fails(&fresh, &base, &regenerate);
            let mut fresh = base.clone();
            fresh.config.remove(key);
            assert_fails(&fresh, &base, &format!("config field `{key}`"));
        }
        let mut fresh = base.clone();
        fresh.config.insert("extra".into(), "1".into());
        assert_fails(&fresh, &base, "config field `extra`");
    }
    // A different online seed, trace or catalog.
    for (bench, key) in [
        ("coldstart", "seed_online"),
        ("cluster", "trace_fingerprint"),
        ("cluster_multitenant", "trace_fingerprint"),
        ("artifact", "seed"),
        ("policies", "trace_fingerprint"),
        ("registry", "catalog_fingerprint"),
    ] {
        let base = baseline(bench);
        let mut fresh = base.clone();
        fresh.config.insert(key.into(), "99".into());
        assert_fails(&fresh, &base, &format!("config field `{key}`"));
    }
    let base = baseline("cluster");
    let mut fresh = base.clone();
    fresh.bench = "coldstart".into();
    assert_fails(&fresh, &base, "bench mismatch");
}

#[test]
fn rule_unit_and_metric_set_mismatches_name_the_metric() {
    for bench in BENCHES {
        let base = baseline(bench);
        let last = base.metrics.last().expect("metrics").name.clone();
        for m in &base.metrics {
            // A bound changed in code but not in the baseline, or back.
            let other = match m.rule {
                Rule::Exact => Rule::Tolerance { pct: 5 },
                _ => Rule::Exact,
            };
            let mut fresh = base.clone();
            let fm = fresh.metrics.iter_mut().find(|f| f.name == m.name).unwrap();
            fm.rule = other;
            assert_fails(&fresh, &base, &format!("metric `{}` rule differs", m.name));
            assert_fails(&base, &fresh, &format!("metric `{}` rule differs", m.name));
            let mut fresh = base.clone();
            let fm = fresh.metrics.iter_mut().find(|f| f.name == m.name).unwrap();
            fm.unit = "furlongs".into();
            assert_fails(&fresh, &base, &format!("metric `{}` unit differs", m.name));
        }
        let mut fewer = base.clone();
        fewer.metrics.pop();
        assert_fails(
            &fewer,
            &base,
            &format!("`{last}` is missing from the fresh run"),
        );
        assert_fails(
            &base,
            &fewer,
            &format!("`{last}` is missing from the baseline"),
        );
        let mut renamed = base.clone();
        renamed.metrics[0].name.push_str("_v2");
        assert_fails(&renamed, &base, &base.metrics[0].name);
    }
    // A reordered policy race.
    let pol = baseline("policies");
    let mut swapped = pol.clone();
    swapped.metrics.swap(0, 7);
    assert_fails(&swapped, &pol, "coldstart-aware.completed");
}

#[test]
fn damaged_baselines_are_errors_not_panics() {
    for bench in BENCHES {
        let text = baseline_text(bench);
        let end = text.trim_end().len();
        for cut in 0..end {
            assert!(
                BenchRecord::from_json(&text[..cut]).is_err(),
                "{bench} truncated to {cut} bytes parsed"
            );
        }
        // Any single-byte damage either fails to parse or yields a record
        // the comparator judges without panicking.
        let base = baseline(bench);
        let bytes = text.as_bytes();
        for (i, garbage) in (0..bytes.len())
            .step_by(7)
            .zip([b'#', b'9', b'"', b'{', b'-'].iter().cycle())
        {
            let mut damaged = bytes.to_vec();
            damaged[i] = *garbage;
            if let Ok(s) = String::from_utf8(damaged) {
                if let Ok(r) = BenchRecord::from_json(&s) {
                    let _ = check(&base, &r);
                    let _ = check(&r, &base);
                }
            }
        }
    }
    let good = baseline_text("coldstart");
    for bad in [
        String::new(),
        "not json".into(),
        "[]".into(),
        r#"{"bench":"coldstart"}"#.into(),
        good.replace("\"value\":2501516", "\"value\":-1"),
        good.replace("\"value\":2501516", "\"value\":18446744073709551616"),
        good.replace("\"value\":2501516", "\"value\":\"2501516\""),
        good.replace("\"Tolerance\"", "\"Fuzzy\""),
        good.replace("{\"pct\":5}", "{}"),
        good.replace("\"config\":{", "\"config\":{\"n\":1,"),
    ] {
        assert!(BenchRecord::from_json(&bad).is_err(), "parsed: {bad}");
    }
}
