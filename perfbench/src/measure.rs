//! Order statistics, the fixed-work digest, request accounting and host readings shared
//! by every workload.

use std::collections::BTreeMap;
use std::time::Duration;

/// Milliseconds in a duration, as a float with every digit kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The median of `values` (mean of the two middle values for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A latency tail: the highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent (100 when fewer than eleven samples exist).
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The highest percentile of `values` that has at least ten samples above it. With fewer
/// than eleven samples no percentile qualifies, and the maximum is reported as p100.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    let index = if n >= 11 { n - 11 } else { n - 1 };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so the spread report matches the acceptance arithmetic exactly.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// FNV-1a over 64-bit words: a stable digest of the work a run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word into the digest.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one search state: reward bits, iterations and evaluations.
    pub fn state(&mut self, reward: f64, iterations: u64, evaluations: u64) {
        self.word(reward.to_bits());
        self.word(iterations);
        self.word(evaluations);
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The request kinds accounted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// One log's `InterfaceGenerator::generate` (oneshot).
    Generate,
    /// A `Synthesize` request.
    Synthesize,
    /// A `Refine` request.
    Refine,
    /// An `Append` request.
    Append,
    /// A `Retract` request.
    Retract,
    /// A `Close` request.
    Close,
}

impl Kind {
    /// The name printed in the failure table.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Generate => "generate",
            Kind::Synthesize => "Synthesize",
            Kind::Refine => "Refine",
            Kind::Append => "Append",
            Kind::Retract => "Retract",
            Kind::Close => "Close",
        }
    }
}

/// Attempted, answered and failed requests by kind.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    by_kind: BTreeMap<Kind, [u64; 2]>,
}

impl Ops {
    /// Count one request of `kind` and whether it was answered OK.
    pub fn record(&mut self, kind: Kind, ok: bool) {
        let entry = self.by_kind.entry(kind).or_default();
        entry[0] += 1;
        if !ok {
            entry[1] += 1;
        }
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.by_kind.values().map(|c| c[0]).sum()
    }

    /// Requests that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.by_kind.values().map(|c| c[1]).sum()
    }

    /// Requests answered OK over requests attempted.
    pub fn ok_ratio(&self) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            0.0
        } else {
            (attempted - self.failed()) as f64 / attempted as f64
        }
    }

    /// One line per kind: attempted, OK and failed counts.
    pub fn lines(&self) -> Vec<String> {
        self.by_kind
            .iter()
            .map(|(kind, [attempted, failed])| {
                format!(
                    "ops {:<10} attempted {attempted:>6}  ok {:>6}  failed {failed}",
                    kind.name(),
                    attempted - failed
                )
            })
            .collect()
    }
}

/// Peak resident set (VmHWM) of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The one-minute load average, from `/proc/loadavg`.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Aggregate CPU jiffies `(steal, total)` from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]; guest time is
    // already included in user/nice, so only the first eight fields make up the total.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few).value, 5.0);
        assert_eq!(tail(&few).percentile, 100.0);
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
