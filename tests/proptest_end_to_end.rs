//! The generated seed set: 200 seeded specs with messages, quorum inputs,
//! fault budgets and symmetric roles (see [`common::GenSpec`]), every row
//! of each judged by [`common::differential`] against the reference
//! search. The set falls into three disjoint [`Part`]s, one per test; a
//! failing cell prints its seed and a `GenSpec` literal that rebuilds it.
//! The collection protocol's settings ride along, with quorum inputs on
//! the split rows and with single messages on the others.

mod common;

use common::differential::{collect_cells, generated_cells, Part, SEEDS};

#[test]
fn splits_preserve_state_graph() {
    let mut tally = generated_cells(Part::Split, SEEDS);
    assert!(tally.splits > 0 && tally.quorum > 0, "{tally:?}");
    let (cells, splits) = (tally.cells, tally.splits);
    collect_cells(true, &mut tally);
    assert_eq!((tally.cells, tally.splits), (cells + 16, splits + 64));
}

#[test]
fn spor_is_sound_and_never_larger() {
    let mut tally = generated_cells(Part::Plain, SEEDS);
    assert!(tally.spor_strict > 0, "{tally:?}");
    assert!(
        tally.violated > 0 && tally.verified > 0 && tally.faults > 0,
        "{tally:?}"
    );
    // DPOR tracks no visibility and misses two violations whose invariant
    // relates two processes; a third would be a regression.
    assert_eq!((tally.dpor_misses, tally.bfs_spor_misses), (2, 0));
    let verified = tally.verified;
    collect_cells(false, &mut tally);
    assert_eq!(tally.verified, verified + 10, "{tally:?}");
}

#[test]
fn liveness_on_generated_cyclic_specs_agrees_across_stores_and_with_the_enumerator() {
    let tally = generated_cells(Part::Cyclic, SEEDS);
    assert!(tally.cyclic > 0 && tally.symmetric > 0, "{tally:?}");
    // Both liveness verdicts are common, the complete enumerator judged a
    // third of the properties too, and a lasso needed the SCC backstop.
    let (live, violated) = (tally.liveness, tally.liveness_violated);
    assert!((live / 6..=live * 5 / 6).contains(&violated), "{tally:?}");
    assert!(
        tally.enumerated >= live / 3 && tally.backstop > 0,
        "{tally:?}"
    );
    assert_eq!((tally.dpor_misses, tally.bfs_spor_misses), (0, 0));
}

/// The soak window: all three parts over the seeds `MP_SOAK_SEEDS=a..b`
/// (default `200..3000`, past the tier-1 set), judged as the tier-1 set
/// is. Prints each part's tally and every cell a DPOR row missed. Run it
/// in release: `MP_SOAK_SEEDS=0..3000 cargo test --release --test
/// proptest_end_to_end -- --ignored --nocapture`.
#[test]
#[ignore = "a soak window; run in release with --ignored"]
fn soak_window() {
    let window = std::env::var("MP_SOAK_SEEDS").unwrap_or_else(|_| "200..3000".into());
    let seed = |s: &str| s.parse::<u64>().expect("MP_SOAK_SEEDS=a..b");
    let (start, end) = window.split_once("..").expect("MP_SOAK_SEEDS=a..b");
    for part in [Part::Cyclic, Part::Split, Part::Plain] {
        let tally = generated_cells(part, seed(start)..seed(end));
        for cell in &tally.dpor_missed {
            println!("{part:?}: DPOR missed {cell}");
        }
    }
}
