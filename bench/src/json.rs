//! The result line, serialised by hand (the workspace carries no serde).

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "metric name {name:?} breaks the naming rule");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.0.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Names from `expected` (rows of `(name, unit, better)`) that are
    /// absent, not a finite number or in another unit.
    pub fn missing<'a>(&self, expected: &[(&'a str, &'a str, &'a str)]) -> Vec<&'a str> {
        expected
            .iter()
            .filter(|(name, unit, _)| {
                !self.get(name).is_some_and(|m| m.value.is_finite() && m.unit == *unit)
            })
            .map(|(name, _, _)| *name)
            .collect()
    }
}

/// Letters, digits, `_`, `.` and `-`; starts with a letter or digit; at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The one-line result object: `correct`, `attempted`, `failed`, `metrics`.
/// Values keep every digit `f64` formatting gives them.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every `"key": "string"` value for `key` inside the top-level array
/// `section` of a JSON document; enough of a parser to read the metric and
/// workload names out of `BENCHMARK.json`.
#[cfg(test)]
pub fn strings_in_section(doc: &str, section: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{section}\"")).expect("section present");
    let open = start + doc[start..].find('[').expect("section is an array");
    let close = open + doc[open..].find(']').expect("array closes");
    let needle = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = &doc[open..close];
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let q1 = rest.find('"').expect("string value opens");
        let q2 = q1 + 1 + rest[q1 + 1..].find('"').expect("string value closes");
        out.push(rest[q1 + 1..q2].to_string());
        rest = &rest[q2 + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("core.triplet_128x128_o1_iknp_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn missing_catches_absent_nan_and_wrong_unit() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "ms");
        m.put("b", f64::NAN, "ms");
        m.put("c", 2.0, "s");
        assert_eq!(
            m.missing(&[("a", "ms", ""), ("b", "ms", ""), ("c", "ms", ""), ("d", "ms", "")]),
            ["b", "c", "d"]
        );
    }

    #[test]
    fn result_line_is_one_line_with_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", 236.123456789, "ms");
        m.put("setup_s", 0.25, "s");
        let line = result_line(true, 120, 0, &m);
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 236.123456789, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
