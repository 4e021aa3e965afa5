//! Minimal JSON field extraction for the committed
//! `BENCH_cluster_serving.json`.
//!
//! The file is emitted by this workspace itself (`serving_json`), as flat
//! objects of numbers with unique keys, so a scanner over that known shape
//! beats hand-rolling a full parser. The serving gate test reads the
//! committed figures through it.

/// Extracts a numeric field from an object span.
pub fn num_field(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{}\"", key);
    let at = obj.find(&needle)?;
    let rest = obj[at + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_numeric_fields() {
        let obj = r#"{ "workload": "nw", "ticks": 3192, "speedup": 12.78, "delta": -1e3 }"#;
        assert_eq!(num_field(obj, "speedup"), Some(12.78));
        assert_eq!(num_field(obj, "ticks"), Some(3192.0));
        assert_eq!(num_field(obj, "delta"), Some(-1000.0));
        assert_eq!(num_field(obj, "workload"), None, "a string is not a number");
        assert_eq!(num_field(obj, "missing"), None);
    }
}
