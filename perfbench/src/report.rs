//! Metric names and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `ns`, `ratio`.
    pub unit: &'static str,
}

/// Builds a metric.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// The metric-name grammar.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The unit grammar.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The final stdout line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// Panics on a malformed or repeated name, a malformed unit or a
/// non-finite value: each is a bug in the benchmark, never input.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "bad metric name `{}`", m.name);
        assert!(valid_unit(m.unit), "bad unit `{}` of {}", m.unit, m.name);
        assert!(m.value.is_finite(), "non-finite value of {}", m.name);
        assert!(!metrics[..i].iter().any(|o| o.name == m.name), "repeated metric {}", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` prints an f64 with every digit it needs to round-trip.
        let _ = write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in ["setup_s", "sim.hit_ns", "model.leak_bits_full", "cpu.run_ns_per_instr.429-mcf"]
        {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[metric("latency_ms", 1.2034, "ms"), metric("setup_s", 0.8127, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        // Full precision, never an exponent JSON cannot read.
        let line = result_line(false, 1, 1, &[metric("x", 1e-7, "s")]);
        assert!(line.contains("\"value\": 0.0000001,"), "{line}");
    }

    #[test]
    #[should_panic(expected = "repeated metric")]
    fn repeated_names_are_refused() {
        let _ = result_line(true, 1, 0, &[metric("a", 1.0, "s"), metric("a", 2.0, "s")]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_values_are_refused() {
        let _ = result_line(true, 1, 0, &[metric("a", f64::NAN, "s")]);
    }
}
