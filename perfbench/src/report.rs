//! The benchmark's result: metric lines, the JSON report, and the output
//! digest.

use crate::json::{self, Value};

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run printed as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Cells attempted and cells that failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric. JSON has no NaN or infinity: such values are
    /// written as 0, and [`Report::non_finite`] names them so the run can
    /// fail its checks.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// Names of metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One `name value unit` line per metric.
    pub fn lines(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{} {} {}\n", m.name, m.value, m.unit))
            .collect()
    }

    /// The single-line JSON report. Values keep every digit Rust's
    /// shortest round-trip formatting gives them.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    escape(&m.name),
                    value,
                    escape(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Reads a report written by [`Report::to_json`]. Metrics come back
    /// sorted by name.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = json::parse(text)?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Value::as_f64)
                .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                .map(|x| x as u64)
                .ok_or(format!("report has no whole number '{key}'"))
        };
        let correct = match doc.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("report has no boolean 'correct'".to_owned()),
        };
        let Some(Value::Object(members)) = doc.get("metrics") else {
            return Err("report has no 'metrics' object".to_owned());
        };
        let mut metrics = Vec::new();
        for (name, m) in members {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric '{name}' lacks a value or unit"));
            };
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit: unit.to_owned(),
            });
        }
        Ok(Report {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// JSON string escaping for the few strings this benchmark writes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// 64-bit FNV-1a over the bit patterns of a run's outputs: two runs
/// computed the same results exactly when their digests agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("wall_s", 1.234_567_890_123, "s");
        r.push("sim.events", 73_281_112.0, "count");
        r.push("odd\"name", 1e-9, "%");
        r
    }

    #[test]
    fn json_report_round_trips() {
        let r = sample();
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let back = Report::from_json(&line).unwrap();
        let mut want = r.metrics.clone();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back.metrics, want);
        assert_eq!((back.correct, back.attempted, back.failed), (true, 12, 0));
        assert!(Report::from_json("{\"correct\":true}").is_err());
    }

    #[test]
    fn non_finite_values_are_flagged_and_written_as_zero() {
        let mut r = sample();
        r.push("ratio", f64::NAN, "count");
        assert_eq!(r.non_finite(), ["ratio"]);
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.get("ratio"), Some(0.0));
    }

    #[test]
    fn digest_depends_on_every_bit() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f64(0.1 + 0.2);
        b.f64(0.3);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.f64(0.1 + 0.2);
        assert_eq!(a, c);
    }
}
