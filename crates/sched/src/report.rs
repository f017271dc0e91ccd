//! Deterministic reporting and `anp-bench-v5` telemetry records.
//!
//! Two audiences, two surfaces. Humans get the fixed-width per-policy
//! regret table, [`render_summary`], which contains **no wall-clock
//! numbers**, so stdout is byte-identical across `--jobs` settings and
//! machines (the CLI determinism test pins this). Machines get
//! [`SchedRecord`]s, which *do* carry decision latency, embedded in the
//! bench harness's `anp-bench-v5` JSON.

use anp_core::ModelKind;

use crate::study::{PolicyOutcome, PolicySpec};

/// One policy's row in the `anp-bench-v5` `sched` array.
#[derive(Debug, Clone)]
pub struct SchedRecord {
    /// Policy label (`"oracle"`, `"predictive:Queue:flow"`, …).
    pub policy: String,
    /// The prediction model, for predictive policies.
    pub model: Option<ModelKind>,
    /// The decision-time measurement engine, for predictive policies.
    pub backend: Option<String>,
    /// Mean realized stretch across streams (%).
    pub mean_slowdown_pct: f64,
    /// Mean makespan across streams (µs).
    pub makespan_us: f64,
    /// Mean realized stretch above the oracle's (percentage points).
    pub regret_pct: f64,
    /// Total SLO violations across streams.
    pub slo_violations: usize,
    /// Placement decisions that measured at decision time.
    pub decisions: u64,
    /// Wall clock spent deciding (seconds) — telemetry only, never
    /// printed to stdout.
    pub decision_wall_secs: f64,
}

impl SchedRecord {
    /// Serializes the record as a JSON object.
    pub fn to_json(&self) -> String {
        let model = match self.model {
            Some(m) => format!("\"{}\"", m.name()),
            None => "null".to_owned(),
        };
        let backend = match &self.backend {
            Some(b) => format!("\"{b}\""),
            None => "null".to_owned(),
        };
        format!(
            "{{\"policy\":\"{}\",\"model\":{},\"backend\":{},\
             \"mean_slowdown_pct\":{},\"makespan_us\":{},\"regret_pct\":{},\
             \"slo_violations\":{},\"decisions\":{},\"decision_wall_secs\":{}}}",
            self.policy,
            model,
            backend,
            self.mean_slowdown_pct,
            self.makespan_us,
            self.regret_pct,
            self.slo_violations,
            self.decisions,
            self.decision_wall_secs,
        )
    }
}

/// The oracle's mean realized stretch — the zero point of regret.
/// `None` when the suite ran without an oracle.
pub fn oracle_mean(outcomes: &[PolicyOutcome]) -> Option<f64> {
    outcomes
        .iter()
        .find(|o| o.spec == PolicySpec::Oracle)
        .map(|o| o.mean_stretch_pct)
}

/// Builds the telemetry records for a suite, anchoring regret at the
/// oracle (or at the suite's best policy when no oracle ran).
pub fn records(outcomes: &[PolicyOutcome]) -> Vec<SchedRecord> {
    let zero = oracle_mean(outcomes).unwrap_or_else(|| {
        outcomes
            .iter()
            .map(|o| o.mean_stretch_pct)
            .fold(f64::INFINITY, f64::min)
    });
    outcomes
        .iter()
        .map(|o| {
            let (model, backend) = match o.spec {
                PolicySpec::Predictive(m, e) => (Some(m), Some(e.name().to_owned())),
                PolicySpec::Probed(m) => (Some(m), Some("monitor".to_owned())),
                _ => (None, None),
            };
            SchedRecord {
                policy: o.label.clone(),
                model,
                backend,
                mean_slowdown_pct: o.mean_stretch_pct,
                makespan_us: o.mean_makespan_us,
                regret_pct: o.mean_stretch_pct - zero,
                slo_violations: o.slo_violations,
                decisions: o.decisions,
                decision_wall_secs: o.decision_wall.as_secs_f64(),
            }
        })
        .collect()
}

/// Renders the per-policy regret table. Deliberately free of wall-clock
/// columns: stdout must be byte-identical across worker counts. The
/// label column is as wide as the longest policy label, so every row's
/// numbers sit under their headers.
pub fn render_summary(outcomes: &[PolicyOutcome]) -> String {
    let zero = oracle_mean(outcomes).unwrap_or_else(|| {
        outcomes
            .iter()
            .map(|o| o.mean_stretch_pct)
            .fold(f64::INFINITY, f64::min)
    });
    let width = outcomes
        .iter()
        .map(|o| o.label.len())
        .fold("policy".len(), usize::max);
    let mut s = format!(
        "{:<width$} {:>9} {:>9} {:>13} {:>8} {:>7}\n",
        "policy", "stretch%", "regret%", "makespan(ms)", "slo-viol", "queued"
    );
    for o in outcomes {
        s.push_str(&format!(
            "{:<width$} {:>9.2} {:>9.2} {:>13.2} {:>8} {:>7}\n",
            o.label,
            o.mean_stretch_pct,
            o.mean_stretch_pct - zero,
            o.mean_makespan_us / 1_000.0,
            o.slo_violations,
            o.queued
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::DecisionEngine;
    use std::time::Duration;

    fn outcome(spec: PolicySpec, stretch: f64) -> PolicyOutcome {
        PolicyOutcome {
            spec,
            label: spec.label(),
            mean_stretch_pct: stretch,
            mean_makespan_us: 50_000.0,
            slo_violations: 1,
            jobs: 48,
            queued: 3,
            decisions: 10,
            decision_wall: Duration::from_millis(12),
            per_seed: Vec::new(),
        }
    }

    #[test]
    fn regret_is_anchored_at_the_oracle() {
        let suite = [
            outcome(PolicySpec::FirstFit, 30.0),
            outcome(
                PolicySpec::Predictive(ModelKind::Queue, DecisionEngine::Flow),
                12.0,
            ),
            outcome(PolicySpec::Oracle, 10.0),
        ];
        assert_eq!(oracle_mean(&suite), Some(10.0));
        let recs = records(&suite);
        assert_eq!(recs[0].regret_pct, 20.0);
        assert_eq!(recs[1].regret_pct, 2.0);
        assert_eq!(recs[2].regret_pct, 0.0);
        assert_eq!(recs[1].model, Some(ModelKind::Queue));
        assert_eq!(recs[1].backend.as_deref(), Some("flow"));
        assert_eq!(recs[0].model, None);
        let json = recs[1].to_json();
        assert!(json.contains("\"policy\":\"predictive:Queue:flow\""));
        assert!(json.contains("\"regret_pct\":2"));
        assert!(json.contains("\"decision_wall_secs\":0.012"));
    }

    #[test]
    fn summary_has_no_wall_clock_columns() {
        let suite = [outcome(PolicySpec::Oracle, 10.0)];
        let table = render_summary(&suite);
        assert!(table.contains("regret%"));
        assert!(!table.to_lowercase().contains("wall"));
        assert!(!table.to_lowercase().contains("secs"));
    }

    #[test]
    fn summary_columns_line_up_for_every_label() {
        let mut specs = crate::study::default_specs();
        specs.push(PolicySpec::Predictive(
            ModelKind::Queue,
            DecisionEngine::Des,
        ));
        let suite: Vec<_> = specs.into_iter().map(|s| outcome(s, 12.5)).collect();
        let table = render_summary(&suite);
        // Where each line's second field (`stretch%` or its value) ends.
        let stretch_end = |line: &str| {
            let label_end = line.find(' ').unwrap();
            let rest = &line[label_end..];
            let start = label_end + rest.len() - rest.trim_start().len();
            start + line[start..].find(' ').unwrap()
        };
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 10, "header plus nine policies:\n{table}");
        let header = stretch_end(lines[0]);
        for line in &lines {
            assert_eq!(stretch_end(line), header, "misaligned row:\n{table}");
        }
    }

    #[test]
    fn missing_oracle_anchors_regret_at_the_best_policy() {
        let suite = [
            outcome(PolicySpec::FirstFit, 30.0),
            outcome(PolicySpec::SoloOnly, 14.0),
        ];
        assert_eq!(oracle_mean(&suite), None);
        let recs = records(&suite);
        assert_eq!(recs[1].regret_pct, 0.0);
        assert_eq!(recs[0].regret_pct, 16.0);
    }
}
