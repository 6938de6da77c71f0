//! Metric values, order statistics, the result-file JSON (writer and a
//! small reader) and the `--agree` comparison.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric's contract: unit, direction and the share of
/// the parent's median by which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Mirrors `end_to_end` in BENCHMARK.json. Failed jobs are not a metric
/// here: they travel in the result line's `attempted`/`failed` fields.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "job_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_mb_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// computes them (exclusive method); one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A parsed JSON value (the subset result files use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serialize on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest digits that round-trip; JSON has no
            // NaN or infinity, so those become null.
            Json::Num(n) if n.is_finite() => write!(out, "{n}").unwrap(),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Build a JSON object from `(key, value)` pairs.
pub fn obj<'k>(pairs: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(token) {
            Ok(())
        } else {
            Err(format!("expected '{token}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(map));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// --agree
// ---------------------------------------------------------------------------

/// Compare two result files per (workload, end-to-end metric): `b` may
/// not be worse than `a` by more than the metric's bound, and neither
/// may report a failed job. Returns the printed table and whether every
/// pair agreed.
pub fn agree(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("result file has no \"workloads\" object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut table = String::new();
    let mut ok = true;
    writeln!(
        table,
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "a", "b", "worse", "bound"
    )
    .unwrap();
    for (name, ra) in &wa {
        let rb = wb
            .get(name)
            .ok_or_else(|| format!("workload {name} missing from the second file"))?;
        for (side, r) in [("a", ra), ("b", rb)] {
            let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
            if failed != 0.0 {
                writeln!(table, "{name:<12} failed jobs in {side}: {failed}").unwrap();
                ok = false;
            }
        }
        for e in END_TO_END {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(e.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: {} missing", e.name))
            };
            let (va, vb) = (value(ra)?, value(rb)?);
            let worse = match e.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            // NaN (a zero or missing base) must not pass.
            let within = worse <= e.bound;
            ok &= within;
            writeln!(
                table,
                "{name:<12} {:<16} {va:>12.4} {vb:>12.4} {:>7.1}% {:>5.0}%{}",
                e.name,
                worse * 100.0,
                e.bound * 100.0,
                if within { "" } else { "  VIOLATION" }
            )
            .unwrap();
        }
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn json_round_trips() {
        let doc = obj([
            ("correct", Json::Bool(true)),
            ("n", Json::Num(0.1 + 0.2)),
            ("s", Json::Str("a \"q\" \\ \n".into())),
            ("list", Json::Arr(vec![Json::Num(-1e-9), Json::Null])),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert!(parse("{\"a\": 1} x").is_err());
    }

    fn result(wall: f64, failed: f64) -> Json {
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .map(|e| {
                Metric::new(
                    e.name,
                    if e.name == "job_wall_s" { wall } else { 1.0 },
                    e.unit,
                )
            })
            .collect();
        let run = obj([
            ("failed", Json::Num(failed)),
            ("metrics", metrics_json(&metrics)),
        ]);
        obj([("workloads", obj([("w", run)]))])
    }

    #[test]
    fn agree_flags_only_regressions_beyond_the_bound() {
        let bound = END_TO_END[0].bound;
        assert!(
            agree(&result(1.0, 0.0), &result(1.0 + 0.9 * bound, 0.0))
                .unwrap()
                .1
        );
        assert!(agree(&result(1.0, 0.0), &result(0.5, 0.0)).unwrap().1);
        assert!(
            !agree(&result(1.0, 0.0), &result(1.0 + 1.1 * bound, 0.0))
                .unwrap()
                .1
        );
        assert!(!agree(&result(1.0, 0.0), &result(1.0, 1.0)).unwrap().1);
    }
}
