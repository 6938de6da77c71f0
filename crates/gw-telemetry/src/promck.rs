//! `promck` — a strict, dependency-free Prometheus text-exposition
//! linter: the test oracle for the text format, as `gw_trace::json`'s
//! parser is for JSON.
//!
//! CI pipes every exporter rendering through
//! [`validate_exposition`] so a malformed metric name, a broken label
//! escape, or a non-monotone histogram fails the build instead of
//! silently confusing a scraper. Checked rules (text format 0.0.4):
//!
//! - every line is a `# HELP`/`# TYPE` comment, a plain `#` comment, or
//!   a sample `name[{labels}] value`;
//! - metric and label names match `[a-zA-Z_:][a-zA-Z0-9_:]*` /
//!   `[a-zA-Z_][a-zA-Z0-9_]*`;
//! - label values use `\\`, `\"`, `\n` escapes only;
//! - values parse as decimal floats or `+Inf`/`-Inf`/`NaN`;
//! - at most one `# TYPE` per family, before any of its samples, with a
//!   known type (`counter`/`gauge`/`histogram`/`summary`/`untyped`);
//! - no duplicate sample identity (name + label set);
//! - per histogram family and label set (ignoring `le`): `le` bounds
//!   strictly increasing, cumulative bucket counts non-decreasing, a
//!   `+Inf` bucket present whose count equals `_count` when present;
//! - input is newline-terminated.
//!
//! Errors are returned as `line N: message`.

use std::collections::{BTreeMap, HashSet};

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => return Some(f64::INFINITY),
        "-Inf" => return Some(f64::NEG_INFINITY),
        "NaN" => return Some(f64::NAN),
        _ => {}
    }
    // Reject forms Rust's parser accepts but the exposition format does
    // not advertise (hex, underscores, leading '+inf' variants).
    if s.is_empty() || s.contains(['x', 'X', '_']) {
        return None;
    }
    s.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Parse `{k="v",...}`; returns the canonical label set (sorted) and the
/// `le` value when present. `rest` starts at `{`.
fn parse_labels(rest: &str) -> Result<(Vec<(String, String)>, usize), String> {
    let bytes = rest.as_bytes();
    debug_assert_eq!(bytes[0], b'{');
    let mut labels = Vec::new();
    let mut i = 1usize;
    loop {
        if i >= bytes.len() {
            return Err("unterminated label set".into());
        }
        if bytes[i] == b'}' {
            i += 1;
            break;
        }
        // label name
        let start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let name = &rest[start..i];
        if !valid_label_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        i += 1; // '='
        if i >= bytes.len() || bytes[i] != b'"' {
            return Err("label value must be quoted".into());
        }
        i += 1;
        let mut value = String::new();
        loop {
            if i >= bytes.len() {
                return Err("unterminated label value".into());
            }
            match bytes[i] {
                b'"' => {
                    i += 1;
                    break;
                }
                b'\\' => {
                    i += 1;
                    match bytes.get(i) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        other => return Err(format!("bad escape {other:?} in label value")),
                    }
                    i += 1;
                }
                _ => {
                    value.push(rest[i..].chars().next().unwrap());
                    i += rest[i..].chars().next().unwrap().len_utf8();
                }
            }
        }
        labels.push((name.to_string(), value));
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {}
            other => return Err(format!("expected ',' or '}}' after label, got {other:?}")),
        }
    }
    labels.sort();
    Ok((labels, i))
}

/// The metric family a sample belongs to: `x_bucket`/`x_sum`/`x_count`
/// fold into `x` when `x` was declared a histogram.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Validate a full exposition rendering; `Ok(())` or `line N: message`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut sampled: HashSet<String> = HashSet::new();
    let mut seen_family_sample: HashSet<String> = HashSet::new();
    // (family, labels-without-le) -> [(le, cum_count)]
    type SeriesKey = (String, Vec<(String, String)>);
    let mut buckets: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey, f64> = BTreeMap::new();

    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        let err = |m: String| Err(format!("line {n}: {m}"));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(2, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let rest = parts.next().unwrap_or("");
                    let mut it = rest.splitn(2, ' ');
                    let (name, ty) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
                    if !valid_metric_name(name) {
                        return err(format!("bad metric name in TYPE: {name:?}"));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                        return err(format!("unknown TYPE {ty:?}"));
                    }
                    if types.insert(name.to_string(), ty.to_string()).is_some() {
                        return err(format!("duplicate TYPE for {name}"));
                    }
                    if seen_family_sample.contains(name) {
                        return err(format!("TYPE for {name} after its samples"));
                    }
                }
                Some("HELP") => {
                    let rest = parts.next().unwrap_or("");
                    let name = rest.split(' ').next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return err(format!("bad metric name in HELP: {name:?}"));
                    }
                }
                _ => {} // free-form comment
            }
            continue;
        }

        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return err(format!("bad metric name {name:?}"));
        }
        let rest = &line[name_end..];
        let (labels, consumed) = if rest.starts_with('{') {
            match parse_labels(rest) {
                Ok(ok) => ok,
                Err(m) => return err(m),
            }
        } else {
            (Vec::new(), 0)
        };
        let after = &rest[consumed..];
        let Some(value_str) = after.strip_prefix(' ') else {
            return err("expected ' value' after sample name".into());
        };
        if value_str.contains(' ') {
            return err("timestamps are not accepted by this linter".into());
        }
        let Some(value) = valid_value(value_str.trim_end()) else {
            return err(format!("bad sample value {value_str:?}"));
        };

        let identity = format!("{name}{labels:?}");
        if !sampled.insert(identity) {
            return err(format!("duplicate sample {name} with identical labels"));
        }
        let family = family_of(name, &types).to_string();
        seen_family_sample.insert(family.clone());

        // Histogram bookkeeping.
        if types.get(&family).map(String::as_str) == Some("histogram") {
            let mut no_le: Vec<(String, String)> =
                labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            no_le.sort();
            if name.ends_with("_bucket") {
                let Some(le) = labels.iter().find(|(k, _)| k == "le").map(|(_, v)| v) else {
                    return err("histogram _bucket sample without le label".into());
                };
                let Some(bound) = valid_value(le).or(match le.as_str() {
                    "+Inf" => Some(f64::INFINITY),
                    _ => None,
                }) else {
                    return err(format!("bad le bound {le:?}"));
                };
                buckets
                    .entry((family.clone(), no_le))
                    .or_default()
                    .push((bound, value));
            } else if name.ends_with("_count") {
                counts.insert((family.clone(), no_le), value);
            }
        }
    }

    for ((family, labels), series) in &buckets {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = -1.0f64;
        let mut has_inf = false;
        let mut inf_cum = 0.0;
        for &(bound, cum) in series {
            if bound <= prev_bound {
                return Err(format!(
                    "histogram {family}{labels:?}: le bounds not increasing at {bound}"
                ));
            }
            if cum < prev_cum {
                return Err(format!(
                    "histogram {family}{labels:?}: cumulative counts decrease at le={bound}"
                ));
            }
            if bound.is_infinite() {
                has_inf = true;
                inf_cum = cum;
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        if !has_inf {
            return Err(format!("histogram {family}{labels:?}: no +Inf bucket"));
        }
        if let Some(&count) = counts.get(&(family.clone(), labels.clone())) {
            if (count - inf_cum).abs() > f64::EPSILON {
                return Err(format!(
                    "histogram {family}{labels:?}: +Inf bucket {inf_cum} != _count {count}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(s: &str) {
        validate_exposition(s).unwrap_or_else(|e| panic!("expected valid, got {e}:\n{s}"));
    }

    fn bad(s: &str, needle: &str) {
        let e = validate_exposition(s).expect_err("expected invalid");
        assert!(e.contains(needle), "error {e:?} lacks {needle:?} for:\n{s}");
    }

    #[test]
    fn accepts_well_formed_families() {
        ok("# TYPE a_total counter\na_total 3\n");
        ok("# HELP g help text here\n# TYPE g gauge\ng{x=\"1\"} 2.5\ng{x=\"2\"} -0.5\n");
        ok(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 3\n\
             h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 4\n",
        );
        ok("# arbitrary comment\nup 1\n");
        ok("esc{v=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn rejects_malformed_lines() {
        bad("a_total 1", "newline");
        bad("9bad 1\n", "bad metric name");
        bad("a{b=\"1\" 2\n", "expected ',' or '}'");
        bad("a{b=1} 2\n", "quoted");
        bad("a 0x10\n", "bad sample value");
        bad("a 1 1700000000\n", "timestamps");
        bad(
            "# TYPE a counter\n# TYPE a counter\na 1\n",
            "duplicate TYPE",
        );
        bad("a 1\n# TYPE a counter\n", "after its samples");
        bad("# TYPE a widget\na 1\n", "unknown TYPE");
        bad("a 1\na 2\n", "duplicate sample");
        bad("esc{v=\"a\\qb\"} 1\n", "bad escape");
    }

    #[test]
    fn rejects_broken_histograms() {
        bad(
            "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n\
             h_bucket{le=\"+Inf\"} 2\n",
            "not increasing",
        );
        bad(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\n",
            "decrease",
        );
        bad(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n",
            "no +Inf bucket",
        );
        bad(
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",
            "!= _count",
        );
        bad("# TYPE h histogram\nh_bucket 1\n", "without le");
    }
}
