//! Order statistics the benchmark reports, and the metric-name rule.

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method — the one Python's
/// `statistics.quantiles(xs, n=4)` uses by default, so spreads printed
/// here match the ones computed over a set of runs. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The tail percentile the benchmark reports: the highest whole
/// percentile, at most `cap`, that leaves at least ten samples above it
/// (nearest-rank). Returns `(percentile, value)`; a sample too small to
/// support even the median (fewer than 20) reports the median as
/// percentile 50, and an empty one `None`.
pub fn tail_percentile(xs: &[f64], cap: u32) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    for p in (50..=cap).rev() {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return Some((p, s[rank - 1]));
        }
    }
    median(xs).map(|m| (50, m))
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90), Some((90, 90.0)));
        // 99 samples cannot support p90 (only 9 beyond it): p89 has 10.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90), Some((89, 89.0)));
        // 1000 samples would support p99, but the cap holds.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90), Some((90, 900.0)));
        // 20 samples support exactly the median.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90), Some((50, 10.0)));
        // Fewer fall back to the median.
        assert_eq!(tail_percentile(&[1.0, 2.0, 3.0], 90), Some((50, 2.0)));
        assert_eq!(tail_percentile(&[], 90), None);
    }

    #[test]
    fn names_and_units_follow_the_charset() {
        for ok in [
            "wall_s",
            "sim.retired.alu",
            "serve.net8020-x.run_ms",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "with space",
            "semi;colon",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "cycles/instr", "jobs/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "a very long unit!", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
