//! Smoke test of the experiment harness: the bounded versions of every
//! table/figure experiment run end to end and reproduce the qualitative
//! shape of the paper's results.

use mp_basset::harness::bench_gate::{JsonValue, Row};
use mp_basset::harness::scaling::collect_sweep;
use mp_basset::harness::{
    debugging::debugging_experiments, num, render_text, table1::table_i, table2::table_ii, text,
    Budget,
};

fn completed(row: &Row) -> bool {
    row["completed"] == JsonValue::Bool(true)
}

#[test]
fn table_i_quorum_models_beat_single_message_models() {
    let (rows, failures) = table_i(&Budget::small(), false);
    assert!(failures.is_empty(), "{failures:?}");
    let table = render_text(&["protocol", "property", "strategy", "states"], &rows);
    assert!(table.contains("Paxos"));
    assert!(table.contains("Echo Multicast"));
    assert!(table.contains("Regular storage"));

    // Shape check on the rows that completed both SPOR cells: the quorum
    // model (third cell of each protocol row) must not be larger than the
    // single-message model under the same SPOR search (second cell).
    for chunk in rows.chunks(3) {
        let [_, single_spor, quorum_spor] = chunk else {
            panic!("each protocol row has exactly three cells");
        };
        if completed(single_spor) && completed(quorum_spor) {
            assert!(
                num(quorum_spor, "states") <= num(single_spor, "states"),
                "{}: quorum SPOR explored {} states but single-message SPOR {}",
                text(quorum_spor, "protocol"),
                num(quorum_spor, "states"),
                num(single_spor, "states")
            );
        }
    }

    // Every cell is a row of its own (the bench gate keys rows by
    // protocol, property and strategy, so no two may share that key), and
    // the table prints one line per row.
    assert_eq!(table.lines().count(), rows.len() + 2);
    for (i, row) in rows.iter().enumerate() {
        let key = |r: &Row| ["protocol", "property", "strategy"].map(|f| text(r, f).to_string());
        let twin = rows[i + 1..].iter().find(|r| key(r) == key(row));
        assert!(twin.is_none(), "two cells under {:?}", key(row));
    }
}

#[test]
fn table_ii_combined_split_is_never_worse_than_unsplit() {
    let (rows, failures) = table_ii(&Budget::small(), false);
    assert!(failures.is_empty(), "{failures:?}");
    for chunk in rows.chunks(4) {
        let unsplit = &chunk[0];
        let combined = &chunk[3];
        assert_eq!(text(unsplit, "strategy"), "quorum (unsplit)");
        assert_eq!(text(combined, "strategy"), "combined-split");
        if completed(unsplit) && completed(combined) {
            assert!(
                num(combined, "states") <= num(unsplit, "states"),
                "{}: combined-split explored {} states, unsplit {}",
                text(combined, "protocol"),
                num(combined, "states"),
                num(unsplit, "states")
            );
        }
    }
}

#[test]
fn section_ii_c_inflation_grows_with_quorum_size() {
    let points = collect_sweep(4, 1, 2_000_000);
    assert_eq!(points.len(), 4);
    for p in &points {
        assert!(num(p, "single_states") >= num(p, "quorum_states"), "{p:?}");
    }
    assert!(
        num(&points[3], "inflation") > num(&points[0], "inflation"),
        "inflation must grow with the quorum size: {points:?}"
    );
}

#[test]
fn debugging_experiments_find_all_bugs() {
    let (rows, failures) = debugging_experiments(&Budget::default());
    assert!(failures.is_empty(), "{failures:?}");
    assert!(
        rows.iter().all(|r| text(r, "verdict").starts_with("CE")),
        "{rows:#?}"
    );
}
