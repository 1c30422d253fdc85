//! `compare A.json B.json`: one row per workload and end-to-end metric,
//! judged with the bounds of `metrics.rs`, and one for the spilled bytes.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{display, judge, worsening, Judgement, Summary};

#[derive(Debug)]
pub struct Comparison {
    pub table: String,
    /// A metric worsened beyond its bound, or a larger share of checks
    /// failed.
    pub regressed: bool,
}

fn failed_share(results: &Json) -> Result<f64, String> {
    let attempted = results.num("checks_attempted")?;
    Ok(if attempted == 0.0 {
        1.0
    } else {
        results.num("checks_failed")? / attempted
    })
}

/// Compares result file `new` against `base`. Refuses files from machines
/// with different core counts unless `force`: a parallel workload's time
/// means something else there.
pub fn compare(base: &Json, new: &Json, force: bool) -> Result<Comparison, String> {
    let nproc = |results: &Json| {
        results
            .get("machine")
            .and_then(|m| m.get("nproc"))
            .and_then(Json::as_u64)
    };
    let (base_nproc, new_nproc) = (nproc(base), nproc(new));
    if base_nproc != new_nproc && !force {
        return Err(format!(
            "results come from machines with nproc {base_nproc:?} and {new_nproc:?}; pass --force to compare anyway"
        ));
    }

    let mut table = format!(
        "{:<14} {:<15} {:>16} {:>16} {:>8} {:>7} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut regressed = false;
    let workloads = base.get("workloads").map(Json::fields).unwrap_or_default();
    for (workload, base_entry) in workloads {
        let Some(new_entry) = new.get("workloads").and_then(|w| w.get(workload)) else {
            table.push_str(&format!("{workload:<14} absent from the new results\n"));
            continue;
        };
        for metric in &END_TO_END {
            let side = |entry: &Json| -> Option<(f64, Summary)> {
                let json = entry.get("end_to_end")?.get(metric.name)?;
                Some((json.num("value").ok()?, Summary::from_json(json).ok()?))
            };
            let (Some((base_value, base_summary)), Some((new_value, new_summary))) =
                (side(base_entry), side(new_entry))
            else {
                continue;
            };
            let verdict = judge(
                (base_value, &base_summary),
                (new_value, &new_summary),
                metric.better,
                metric.bound,
                metric.exact,
            );
            regressed |= verdict == Judgement::Regressed;
            let spread = base_summary
                .spread()
                .zip(new_summary.spread())
                .map_or("?".to_string(), |(a, b)| {
                    format!("{:.1}%", a.max(b) * 100.0)
                });
            table.push_str(&format!(
                "{:<14} {:<15} {:>16} {:>16} {:>8.4} {:>6.2}% {:>8}  {}{}\n",
                workload,
                metric.name,
                display(base_value),
                display(new_value),
                new_value / base_value,
                metric.bound * 100.0,
                spread,
                verdict.as_str(),
                if verdict == Judgement::Regressed {
                    format!(
                        " (worse by {:.1}% of base {})",
                        worsening(base_value, new_value, metric.better) * 100.0,
                        display(base_value)
                    )
                } else {
                    String::new()
                }
            ));
        }
        // Spilled bytes are zero on five workloads, so they are a per-layer
        // count and not an end-to-end metric; they are still held to the
        // bound of 0: they may fall, never rise.
        let spill = |entry: &Json| {
            entry
                .get("per_layer")?
                .get("store.spill_bytes")?
                .num("value")
                .ok()
        };
        if let (Some(base_bytes), Some(new_bytes)) = (spill(base_entry), spill(new_entry)) {
            let rose = new_bytes > base_bytes;
            regressed |= rose;
            table.push_str(&format!(
                "{:<14} {:<15} {:>16} {:>16} {:>8} {:>6.2}% {:>8}  {}\n",
                workload,
                "spill_bytes",
                display(base_bytes),
                display(new_bytes),
                if base_bytes > 0.0 {
                    format!("{:.4}", new_bytes / base_bytes)
                } else {
                    "-".to_string()
                },
                0.0,
                "-",
                if rose { "regressed" } else { "ok" }
            ));
        }
    }

    let (base_failed, new_failed) = (failed_share(base)?, failed_share(new)?);
    table.push_str(&format!(
        "checks failed: base {} of {}, new {} of {}\n",
        base.count("checks_failed")?,
        base.count("checks_attempted")?,
        new.count("checks_failed")?,
        new.count("checks_attempted")?
    ));
    if new_failed > base_failed {
        table.push_str("regressed: a larger share of checks fails\n");
        regressed = true;
    }
    Ok(Comparison { table, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(nproc: u64, wall: &[f64], states: f64, failed: u64) -> Json {
        let metric = |values: &[f64], unit: &str| {
            let summary = Summary::of(values);
            summary.to_json(summary.median, unit)
        };
        Json::obj()
            .set("machine", Json::obj().set("nproc", nproc))
            .set("checks_attempted", 10u64)
            .set("checks_failed", failed)
            .set(
                "workloads",
                Json::obj().set(
                    "storage-ram",
                    Json::obj().set(
                        "end_to_end",
                        Json::obj()
                            .set("wall_s", metric(wall, "s"))
                            .set("states", metric(&[states, states, states], "count")),
                    ),
                ),
            )
    }

    const STEADY: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn same_results_compare_ok() {
        let a = results(2, &STEADY, 569_106.0, 0);
        let c = compare(&a, &a, false).unwrap();
        assert!(!c.regressed, "{}", c.table);
        assert!(c.table.contains("storage-ram") && c.table.contains(" ok"));
        assert!(!c.table.contains("regressed") && !c.table.contains("unresolved"));
    }

    #[test]
    fn a_slower_run_a_changed_count_and_new_failures_regress() {
        let base = results(2, &STEADY, 569_106.0, 0);
        let slower: Vec<f64> = STEADY.iter().map(|w| w * 1.4).collect();
        let c = compare(&base, &results(2, &slower, 569_106.0, 0), false).unwrap();
        assert!(
            c.regressed && c.table.contains("wall_s") && c.table.contains("regressed"),
            "{}",
            c.table
        );
        assert!(
            c.table.contains("of base 10"),
            "ratios name their base: {}",
            c.table
        );

        let c = compare(&base, &results(2, &STEADY, 569_107.0, 0), false).unwrap();
        assert!(c.regressed, "{}", c.table);

        let c = compare(&base, &results(2, &STEADY, 569_106.0, 1), false).unwrap();
        assert!(
            c.regressed && c.table.contains("larger share"),
            "{}",
            c.table
        );
        // Fewer failures than the base is not a regression.
        let c = compare(
            &results(2, &STEADY, 569_106.0, 2),
            &results(2, &STEADY, 569_106.0, 1),
            false,
        )
        .unwrap();
        assert!(!c.regressed, "{}", c.table);
    }

    #[test]
    fn noisy_repetitions_are_unresolved_not_regressed() {
        let base = results(2, &STEADY, 569_106.0, 0);
        let noisy = results(2, &[10.0, 14.0, 18.0, 12.0, 16.0], 569_106.0, 0);
        let c = compare(&base, &noisy, false).unwrap();
        assert!(
            !c.regressed && c.table.contains("unresolved"),
            "{}",
            c.table
        );
    }

    #[test]
    fn spilled_bytes_may_fall_but_not_rise() {
        let side = |bytes: u64| {
            Json::parse(&format!(
                r#"{{"machine":{{"nproc":2}},"checks_attempted":1,"checks_failed":0,
                    "workloads":{{"paxos-1m-ext":{{"per_layer":{{
                    "store.spill_bytes":{{"value":{bytes},"unit":"bytes"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let fell = compare(&side(1000), &side(900), false).unwrap();
        assert!(
            !fell.regressed && fell.table.contains("0.9000"),
            "{}",
            fell.table
        );
        let rose = compare(&side(1000), &side(1001), false).unwrap();
        assert!(rose.regressed, "{}", rose.table);
        assert!(!compare(&side(0), &side(0), false).unwrap().regressed);
    }

    #[test]
    fn different_core_counts_need_force() {
        let (two, one) = (results(2, &STEADY, 1.0, 0), results(1, &STEADY, 1.0, 0));
        assert!(compare(&two, &one, false).unwrap_err().contains("--force"));
        assert!(compare(&two, &one, true).is_ok());
    }
}
