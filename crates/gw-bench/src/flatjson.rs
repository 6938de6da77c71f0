//! Minimal flat-JSON writer/parser for tracked benchmark files.
//!
//! The workspace has no JSON dependency (the build environment vendors
//! its crates), and the tracked `BENCH_*.json` files only need a single
//! flat object of string and number fields — so this module hand-rolls
//! exactly that: no nesting, no arrays, no escapes beyond the ones the
//! writer can produce (keys and values here are plain ASCII identifiers).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A flat JSON value: string or finite number.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// String field.
    Str(String),
    /// Numeric field (always finite).
    Num(f64),
}

impl Val {
    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(*n),
            Val::Str(_) => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            Val::Num(_) => None,
        }
    }
}

/// Render fields as a pretty-printed flat JSON object, in the given
/// order (one field per line, so diffs of tracked files stay readable).
pub fn write(fields: &[(&str, Val)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, val)) in fields.iter().enumerate() {
        assert!(
            key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "flatjson keys are identifiers, got {key:?}"
        );
        let comma = if i + 1 == fields.len() { "" } else { "," };
        match val {
            Val::Str(s) => {
                assert!(
                    s.chars().all(|c| c.is_ascii() && c != '"' && c != '\\'),
                    "flatjson strings are plain ASCII, got {s:?}"
                );
                let _ = writeln!(out, "  \"{key}\": \"{s}\"{comma}");
            }
            Val::Num(n) => {
                assert!(n.is_finite(), "flatjson numbers are finite, got {n}");
                let _ = writeln!(out, "  \"{key}\": {n:.4}{comma}");
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Parse a flat JSON object produced by [`write()`] (or hand-edited in the
/// same shape). Returns an error string on any malformation.
pub fn parse(text: &str) -> Result<BTreeMap<String, Val>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut map = BTreeMap::new();
    for (lineno, raw) in body.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let (key, val) = line.split_once(':').ok_or_else(|| err("missing ':'"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| err("key not quoted"))?;
        let val = val.trim();
        let val = if let Some(s) = val.strip_prefix('"') {
            let s = s.strip_suffix('"').ok_or_else(|| err("unclosed string"))?;
            Val::Str(s.to_string())
        } else {
            let n: f64 = val.parse().map_err(|_| err("not a number"))?;
            if !n.is_finite() {
                return Err(err("non-finite number"));
            }
            Val::Num(n)
        };
        if map.insert(key.to_string(), val).is_some() {
            return Err(err("duplicate key"));
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_in_order() {
        let text = write(&[
            ("schema", Val::Str("v1".into())),
            ("speedup", Val::Num(1.75)),
            ("mbps", Val::Num(123.4567)),
        ]);
        assert!(text.starts_with("{\n  \"schema\": \"v1\",\n"));
        let map = parse(&text).unwrap();
        assert_eq!(map["schema"].as_str(), Some("v1"));
        assert_eq!(map["speedup"].as_num(), Some(1.75));
        assert_eq!(map["mbps"].as_num(), Some(123.4567));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("not json").is_err());
        assert!(parse("{\n  \"k\" 1\n}").is_err());
        assert!(parse("{\n  \"k\": nope\n}").is_err());
        assert!(parse("{\n  \"k\": 1,\n  \"k\": 2\n}").is_err());
    }
}
