//! Small shared helpers: the seeded generator, order statistics, clocks,
//! process memory, and the one JSON shape the benchmark prints.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// makes is a pure function of the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for one named use of the workload seed.
pub fn derive_seed(seed: u64, tag: &str, index: u64) -> u64 {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    for b in tag.bytes().chain(index.to_le_bytes()) {
        h = Rng::new(h ^ u64::from(b)).next_u64();
    }
    h
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of nanosecond samples.
pub fn median_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// One field of `/proc/self/status`, in KiB.
fn proc_status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(f64::NAN)
}

/// Current resident set, MiB.
pub fn rss_mib() -> f64 {
    proc_status_kib("VmRSS:") / 1024.0
}

/// Peak resident set of the process so far, MiB.
pub fn hwm_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

/// A named number with its unit, in print order.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &str) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    hvac_telemetry::json::escaped(s)
}

/// Latency histogram with log-spaced buckets 0.5% wide, so a load phase
/// keeps constant memory however many requests it completes.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

/// Bucket growth factor.
const BUCKET_RATIO: f64 = 1.005;
/// Buckets up to 100 s.
const BUCKETS: usize = 5200;

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        let b = ((ns.max(1) as f64).ln() / BUCKET_RATIO.ln()) as usize;
        self.counts[b.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile, interpolated within its bucket, ns.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            let n = u64::from(n);
            if n > 0 && seen + n >= rank {
                let lo = BUCKET_RATIO.powi(b as i32);
                let frac = (rank - seen) as f64 / n as f64;
                return lo + lo * (BUCKET_RATIO - 1.0) * frac;
            }
            seen += n;
        }
        unreachable!("rank is at most the total count")
    }
}
