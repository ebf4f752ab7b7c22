//! Order statistics, the process's peak memory, and the result line.

use std::collections::BTreeMap;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The smallest value: the fastest of several timings of one piece of
/// work; 0 when there are none.
pub fn fastest(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().reduce(f64::min).unwrap_or(0.0)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The value at `pct`.
    pub value: f64,
    /// The percentile reported (100 = the maximum, used only when fewer
    /// than 20 samples exist).
    pub pct: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 / 50
/// that has at least ten samples beyond it (nearest-rank). With fewer
/// than twenty samples no rung qualifies and the maximum is reported as
/// percentile 100.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 100.0,
            samples: 0,
        };
    }
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if n - rank.min(n) >= 10 {
            return Tail {
                value: s[rank.max(1) - 1],
                pct,
                samples: n,
            };
        }
    }
    Tail {
        value: s[n - 1],
        pct: 100.0,
        samples: n,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values with their units, in a deterministic order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
pub fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number: shortest round-trip digits, with non-finite values
/// (which JSON cannot carry) mapped to `null` so a broken metric is
/// visible rather than silently zero.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        // 40 samples: p75 is the highest rung with ten samples beyond it.
        assert_eq!((t.pct, t.value, t.samples), (75.0, 30.0, 40));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.0);
        let t = tail(&[5.0, 7.0, 6.0]);
        assert_eq!((t.pct, t.value), (100.0, 7.0));
        assert_eq!(fastest([3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest([]), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        let s = result_json(true, 3, 0, &m);
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
