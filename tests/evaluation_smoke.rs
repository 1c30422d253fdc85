//! Smoke test of the experiment harness: the bounded versions of every
//! table/figure experiment run end to end and reproduce the qualitative
//! shape of the paper's results.

use mp_basset::harness::scaling::collect_sweep;
use mp_basset::harness::{
    debugging::debugging_experiments, render_csv, render_table, table1::table_i, table2::table_ii,
    Budget,
};

#[test]
fn table_i_quorum_models_beat_single_message_models() {
    let rows = table_i(&Budget::small(), false);
    let table = render_table("Table I", &rows);
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
        if single_spor.completed && quorum_spor.completed {
            assert!(
                quorum_spor.states <= single_spor.states,
                "{}: quorum SPOR explored {} states but single-message SPOR {}",
                quorum_spor.protocol,
                quorum_spor.states,
                single_spor.states
            );
        }
    }

    let csv = render_csv(&rows);
    assert_eq!(csv.lines().count(), rows.len() + 1);

    // The table finds a cell by (protocol, property, strategy): two cells
    // under one key would print one and drop the other, and a strategy
    // missing from the header would never be printed at all.
    let header = table.lines().nth(2).expect("a column header");
    for (i, row) in rows.iter().enumerate() {
        let key = (&row.protocol, &row.property, &row.strategy);
        let twin = rows[i + 1..]
            .iter()
            .find(|r| (&r.protocol, &r.property, &r.strategy) == key);
        assert!(twin.is_none(), "two cells under {key:?}");
        let column = format!("| {:^26}", row.strategy);
        assert!(header.contains(&column), "no column for {}", row.strategy);
    }
}

#[test]
fn table_ii_combined_split_is_never_worse_than_unsplit() {
    let rows = table_ii(&Budget::small(), false);
    for chunk in rows.chunks(4) {
        let unsplit = &chunk[0];
        let combined = &chunk[3];
        assert_eq!(unsplit.strategy, "quorum (unsplit)");
        assert_eq!(combined.strategy, "combined-split");
        if unsplit.completed && combined.completed {
            assert!(
                combined.states <= unsplit.states,
                "{}: combined-split explored {} states, unsplit {}",
                combined.protocol,
                combined.states,
                unsplit.states
            );
        }
    }
}

#[test]
fn section_ii_c_inflation_grows_with_quorum_size() {
    let points = collect_sweep(4, 1, 2_000_000);
    assert_eq!(points.len(), 4);
    for p in &points {
        assert!(p.single_states >= p.quorum_states, "{p:?}");
    }
    assert!(
        points.last().unwrap().inflation() > points.first().unwrap().inflation(),
        "inflation must grow with the quorum size: {points:?}"
    );
}

#[test]
fn debugging_experiments_find_all_bugs() {
    let rows = debugging_experiments(&Budget::default());
    assert!(
        rows.iter().all(|r| r.verdict.starts_with("CE")),
        "{rows:#?}"
    );
}
