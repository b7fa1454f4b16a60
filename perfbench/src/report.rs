//! Percentiles, the result line, and the in-memory span log of a traced
//! run.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Nearest-rank quantile of an ascending-sorted slice (`0.0` if empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts `values` and returns them (for chaining into [`quantile`]).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p50, p90, p99, p99.9, … that still has at least ten
/// of `n` samples beyond it (`None` below 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    // Beyond percentile p lie n × (1 − p/100) samples; keep ≥ 10.
    let p = 100.0 * (1.0 - 10.0 / n as f64);
    let mut best = 50.0;
    for cand in [90.0, 99.0, 99.9, 99.99, 99.999] {
        if cand <= p {
            best = cand;
        }
    }
    Some(best)
}

/// Ordered list of named metrics with units.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }

    /// The value of metric `name` (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |e| e.1)
    }

    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// JSON array of numbers.
pub fn num_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(num).collect();
    format!("[{}]", items.join(", "))
}

/// JSON string literal (the benchmark only quotes plain ASCII).
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Flat JSON object from `(key, already-encoded value)` pairs.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One traced interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the run's epoch.
    pub start_us: u64,
    pub end_us: u64,
    /// Name of the span that caused this one (`""` for a root).
    pub parent: &'static str,
    /// Publication id (`u64::MAX` when the span is not about one).
    pub pub_id: u64,
}

/// In-memory span store, written out once at the end of a traced run.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        pub_id: u64,
        start_us: u64,
        end_us: u64,
    ) {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            pub_id,
        });
    }

    pub fn extend(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us.saturating_sub(s.start_us) as f64 / 1e3)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let id = if s.pub_id == u64::MAX {
                "null".to_owned()
            } else {
                s.pub_id.to_string()
            };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": \"{}\", \"pub_id\": {id}}}",
                s.name, s.start_us, s.end_us, s.parent
            )?;
        }
        w.flush()
    }
}

/// Microseconds elapsed since `epoch`.
pub fn us_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

/// Mean wall time of one call of `f`, in nanoseconds: the median of
/// five batches, each long enough to take about a 25th of `budget_ms`.
pub fn time_ns<F: FnMut()>(budget_ms: u64, mut f: F) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed().as_secs_f64() * 1e3;
        if el >= budget_ms as f64 / 25.0 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        batches.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    median(&batches)
}
