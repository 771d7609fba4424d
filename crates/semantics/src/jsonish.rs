//! Minimal JSON helpers for the hand-written emitters and readers.
//!
//! The build environment has no crates.io mirror, so nothing here can
//! derive serde traits. Emitters escape strings with [`quote`]; the few
//! readers (trace import, `protogen top`, `perf-gate`) pull single fields
//! out of documents this workspace wrote. Deliberately small: flat
//! objects, no escapes inside extracted strings, no nested arrays.

/// Quote a string as a JSON string literal, escaping the characters the
/// emitters here can actually produce (quotes, backslashes, control
/// bytes). Counterpart to the extraction helpers below.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extract an unsigned integer field: `"key": 123`.
pub fn get_u64(json: &str, key: &str) -> Option<u64> {
    value_after(json, key)?
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Extract a float field: `"key": 1.5`.
pub fn get_f64(json: &str, key: &str) -> Option<f64> {
    let v = value_after(json, key)?;
    let end = v
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

/// Extract a string field: `"key": "value"` (no escape handling).
pub fn get_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let v = value_after(json, key)?.strip_prefix('"')?;
    v.split('"').next()
}

/// The raw text following `"key":`, with leading whitespace stripped.
fn value_after<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let after = &json[json.find(&needle)? + needle.len()..];
    after.trim_start().strip_prefix(':').map(str::trim_start)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\"states\": 600, \"rate\": 0.25, \"deep\": false, \"mode\": \"broadcast\"}";

    #[test]
    fn extracts_each_type() {
        assert_eq!(get_u64(DOC, "states"), Some(600));
        assert_eq!(get_f64(DOC, "rate"), Some(0.25));
        assert_eq!(get_str(DOC, "mode"), Some("broadcast"));
    }

    #[test]
    fn missing_and_malformed_fields_are_none() {
        assert_eq!(get_u64(DOC, "absent"), None);
        assert_eq!(get_u64("{\"states\": \"oops\"}", "states"), None);
        assert_eq!(get_str("{\"mode\": 3}", "mode"), None);
    }
}
