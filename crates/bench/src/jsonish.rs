//! Minimal JSON field extraction for the committed `BENCH_*.json` baselines.
//!
//! The build container is offline, the vendored `serde` is derive-annotation
//! only, and the baseline files are emitted by this workspace itself — so a
//! tiny scanner over that known shape (flat objects, no escaped strings)
//! beats hand-rolling a full parser. The regression gate reads baselines
//! through these helpers; `serving_json` emits the same shape, keeping write
//! and read symmetric.

/// Returns the top-level `{...}` object spans of the array stored under
/// `"key": [ ... ]`.
pub fn objects_in_array<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{}\"", key);
    let Some(key_at) = text.find(&needle) else {
        return Vec::new();
    };
    let Some(open_rel) = text[key_at..].find('[') else {
        return Vec::new();
    };
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, b) in text[key_at + open_rel..].bytes().enumerate() {
        let pos = key_at + open_rel + i;
        match b {
            b'{' => {
                if depth == 0 {
                    obj_start = Some(pos);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(start) = obj_start.take() {
                        objects.push(&text[start..=pos]);
                    }
                }
            }
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    objects
}

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

/// Extracts a string field from an object span (no escape handling — the
/// baseline emitters never escape).
pub fn str_field(obj: &str, key: &str) -> Option<String> {
    let needle = format!("\"{}\"", key);
    let at = obj.find(&needle)?;
    let rest = obj[at + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "benchmark": "interp_vs_compiled",
      "results": [
        { "workload": "adpcm", "speedup": 14.58 },
        { "workload": "nw", "interp_ticks_per_sec": 3192, "speedup": 12.78 }
      ],
      "summary": { "x": 1 }
    }"#;

    #[test]
    fn extracts_objects_and_fields() {
        let objs = objects_in_array(SAMPLE, "results");
        assert_eq!(objs.len(), 2);
        assert_eq!(str_field(objs[0], "workload").as_deref(), Some("adpcm"));
        assert_eq!(num_field(objs[0], "speedup"), Some(14.58));
        assert_eq!(num_field(objs[1], "interp_ticks_per_sec"), Some(3192.0));
        assert_eq!(str_field(objs[1], "workload").as_deref(), Some("nw"));
        assert_eq!(num_field(objs[0], "missing"), None);
        assert!(objects_in_array(SAMPLE, "nonesuch").is_empty());
    }
}
