//! Order statistics the report is built from.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The `q`-quantile (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a p99 of 500 samples is five
/// outliers, not a percentile.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q));
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    if q > 0.5 && v.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// acceptance check of this benchmark is computed with.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Cut `items` into `segments` runs of equal length (a remainder at the end
/// is dropped), reduce each with `f`, and return the median of the results.
/// One slow stretch of a run on a shared machine then moves one segment,
/// not the reported value. `None` when the segments are empty or `f` cannot
/// reduce one of them.
pub fn segment_median<T>(
    items: &[T],
    segments: usize,
    f: impl Fn(&[T]) -> Option<f64>,
) -> Option<f64> {
    let len = items.len().checked_div(segments).filter(|len| *len > 0)?;
    let per: Option<Vec<f64>> = items.chunks_exact(len).take(segments).map(f).collect();
    median(&per?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 of 999 samples: rank 990, nine beyond.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // the median never needs a tail
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(spread(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some(10.5 / 4.0));
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        // five segments of four items; one segment is ten times slower
        let mut walls = vec![1.0; 20];
        for w in &mut walls[8..12] {
            *w = 10.0;
        }
        let rate = |seg: &[f64]| Some(seg.len() as f64 / seg.iter().sum::<f64>());
        assert_eq!(segment_median(&walls, 5, rate), Some(1.0));
        // 23 items: the last three are dropped, segments stay equal
        walls.extend([100.0; 3]);
        assert_eq!(segment_median(&walls, 5, rate), Some(1.0));
        assert_eq!(segment_median(&walls[..3], 5, rate), None);
        // a segment too thin for its percentile spoils the whole reading
        assert_eq!(segment_median(&walls, 5, |seg| percentile(seg, 0.9)), None);
    }
}
