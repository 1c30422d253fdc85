//! Order statistics of a handful of repetitions, and the rule that turns
//! two of them into `ok` / `regressed` / `unresolved`.

use crate::json::Json;

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, so a
/// spread printed here is the spread an outside harness will compute from
/// the same values. `None` below two samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let quantile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        // May be negative or exceed 4 after the clamp: linear extrapolation,
        // as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quantile(1), quantile(3)))
}

/// What is kept of one metric's repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// `None` when there was a single repetition.
    pub quartiles: Option<(f64, f64)>,
    pub reps: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            quartiles: quartiles(values),
            reps: values.len(),
        }
    }

    /// Interquartile range as a share of the median; `None` when it cannot
    /// be known (one repetition) or has no base (median 0).
    pub fn spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles?;
        (self.median != 0.0).then(|| (q3 - q1) / self.median.abs())
    }

    /// The stored form; `value` is what the metric reports.
    pub fn to_json(&self, value: f64, unit: &str) -> Json {
        Json::obj()
            .set("value", value)
            .set("unit", unit)
            .set("median", self.median)
            .set("min", self.min)
            .set("max", self.max)
            .set("q1", self.quartiles.map(|q| q.0))
            .set("q3", self.quartiles.map(|q| q.1))
            .set("reps", self.reps)
    }

    pub fn from_json(json: &Json) -> Result<Summary, String> {
        let quartiles = match (json.get("q1"), json.get("q3")) {
            (Some(Json::Num(q1)), Some(Json::Num(q3))) => Some((*q1, *q3)),
            _ => None,
        };
        Ok(Summary {
            median: json.num("median")?,
            min: json.num("min")?,
            max: json.num("max")?,
            quartiles,
            reps: json.count("reps")? as usize,
        })
    }
}

/// A metric value for people: counts whole, measurements with their digits.
pub fn display(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 0.001 {
        format!("{value:.6}")
    } else {
        format!("{value:.3e}")
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing one metric on one workload between two results.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Judgement {
    Ok,
    Regressed,
    /// The repetitions of either side scatter by more than the bound (or
    /// there was only one), so a difference of the bound's size cannot be
    /// told from noise.
    Unresolved,
}

impl Judgement {
    pub fn as_str(self) -> &'static str {
        match self {
            Judgement::Ok => "ok",
            Judgement::Regressed => "regressed",
            Judgement::Unresolved => "unresolved",
        }
    }
}

/// By what share of the base's median `new` is worse (negative = better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let change = (new - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Applies a metric's bound. A measured metric needs a known spread within
/// the bound on both sides before a verdict is given. An `exact` metric is a
/// count that must repeat digit for digit: it is judged from any number of
/// repetitions, one that differs between repetitions is unresolved, and any
/// worsening at all is a regression, whatever share the bound allows.
///
/// Each side is the value it reports and the summary of the repetitions
/// behind it (they differ where the report is not the median).
pub fn judge(
    base: (f64, &Summary),
    new: (f64, &Summary),
    better: Better,
    bound: f64,
    exact: bool,
) -> Judgement {
    let bound = if exact { 0.0 } else { bound };
    let resolved = |s: &Summary| {
        if exact {
            s.min == s.max
        } else {
            s.spread().is_some_and(|spread| spread <= bound)
        }
    };
    if !(resolved(base.1) && resolved(new.1)) {
        Judgement::Unresolved
    } else if worsening(base.0, new.0, better) > bound {
        Judgement::Regressed
    } else {
        Judgement::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn summary_round_trips_through_json() {
        for values in [vec![10.0, 10.4, 9.9, 10.1, 10.2], vec![42.0]] {
            let summary = Summary::of(&values);
            let json = summary.to_json(summary.median, "s");
            let parsed = Json::parse(&json.to_line()).unwrap();
            assert_eq!(Summary::from_json(&parsed).unwrap(), summary);
        }
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(s.spread(), Some((12.0 - 1.5) / 4.0));
        assert_eq!(Summary::of(&[1.0]).spread(), None);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), None);
    }

    #[test]
    fn values_display_whole_or_with_digits() {
        assert_eq!(display(569_106.0), "569106");
        assert_eq!(display(15.230_473), "15.230473");
        assert_eq!(display(3153.5455), "3153.5");
        assert_eq!(display(0.000_027_31), "2.731e-5");
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bound_logic() {
        let steady = |m: f64| Summary::of(&[m * 0.99, m, m * 1.01, m, m]);
        let judge = |a: &Summary, b: &Summary, better| {
            judge((a.median, a), (b.median, b), better, 0.1, false)
        };
        // Within the bound: ok, in either direction.
        assert_eq!(
            judge(&steady(10.0), &steady(10.5), Better::Lower),
            Judgement::Ok
        );
        assert_eq!(
            judge(&steady(10.0), &steady(5.0), Better::Lower),
            Judgement::Ok
        );
        // Beyond it: regressed.
        assert_eq!(
            judge(&steady(10.0), &steady(11.5), Better::Lower),
            Judgement::Regressed
        );
        assert_eq!(
            judge(&steady(10.0), &steady(8.0), Better::Higher),
            Judgement::Regressed
        );
        // A side noisier than the bound decides nothing, even when the
        // medians are far apart.
        let noisy = Summary::of(&[8.0, 10.0, 12.0, 14.0, 9.0]);
        assert_eq!(
            judge(&noisy, &steady(20.0), Better::Lower),
            Judgement::Unresolved
        );
        assert_eq!(
            judge(&steady(10.0), &noisy, Better::Lower),
            Judgement::Unresolved
        );
        // One repetition of a timing has no known spread.
        assert_eq!(
            judge(&Summary::of(&[10.0]), &steady(10.0), Better::Lower),
            Judgement::Unresolved
        );
    }

    #[test]
    fn exact_counts_allow_no_worsening_and_need_no_repetitions() {
        let count = |n: f64, reps: usize| Summary::of(&vec![n; reps]);
        let judge = |a: &Summary, b: &Summary| {
            judge((a.median, a), (b.median, b), Better::Lower, 0.0001, true)
        };
        assert_eq!(
            judge(&count(569_106.0, 3), &count(569_106.0, 5)),
            Judgement::Ok
        );
        assert_eq!(
            judge(&count(569_106.0, 1), &count(569_106.0, 1)),
            Judgement::Ok
        );
        assert_eq!(
            judge(&count(569_106.0, 1), &count(569_107.0, 1)),
            Judgement::Regressed
        );
        assert_eq!(
            judge(&count(569_106.0, 3), &count(500_000.0, 3)),
            Judgement::Ok
        );
        // A count that differs between repetitions is not a count.
        let wobbly = Summary::of(&[100.0, 101.0, 100.0]);
        assert_eq!(judge(&wobbly, &wobbly), Judgement::Unresolved);
    }
}
