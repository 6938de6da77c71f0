//! Property tests for the one JSON codec (`gw_trace::json`): whatever
//! value tree the writer renders, the strict parser accepts, and parsing
//! then re-writing reproduces the same bytes.
//!
//! Trees nest 0 to 8 deep. Strings draw from every control character,
//! `"`, `\`, `/`, non-ASCII and astral code points; numbers from
//! negatives, fractions, integers at and above 1e15, tiny magnitudes and
//! non-finite values (which the writer spells `0`).

use glasswing::trace::json::{self, Value};
use glasswing::trace::validate_json;
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};

const MAX_DEPTH: u32 = 8;

/// A random value tree, nested 0 to 8 containers deep.
struct Trees;

impl Strategy for Trees {
    type Value = Value;
    fn new_value(&self, rng: &mut TestRng) -> Value {
        let depth = rng.below(u64::from(MAX_DEPTH) + 1) as u32;
        tree(rng, depth)
    }
}

/// A random string over the awkward characters.
struct Texts;

impl Strategy for Texts {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        text(rng)
    }
}

/// A tree nested exactly `depth` containers deep: one child of each
/// container carries the full depth, its siblings are shallower.
fn tree(rng: &mut TestRng, depth: u32) -> Value {
    if depth == 0 {
        return match rng.below(6) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Num(number(rng)),
            3 => Value::Str(text(rng)),
            4 => Value::Arr(Vec::new()),
            _ => Value::Obj(Vec::new()),
        };
    }
    let n = 1 + rng.below(3);
    let deep = rng.below(n);
    let mut children = Vec::new();
    for i in 0..n {
        let d = if i == deep {
            depth - 1
        } else {
            rng.below(u64::from(depth)) as u32
        };
        children.push(tree(rng, d));
    }
    if rng.below(2) == 0 {
        return Value::Arr(children);
    }
    // Keys hold no digits, so the index suffix keeps them unique.
    let keys = (0..n)
        .map(|i| format!("{}{i}", text(rng)))
        .collect::<Vec<_>>();
    Value::Obj(keys.into_iter().zip(children).collect())
}

fn number(rng: &mut TestRng) -> f64 {
    let unit = rng.unit_f64();
    match rng.below(9) {
        0 => (unit - 0.5) * 2e9,
        1 => -(unit * 1e3),
        2 => (rng.below(2_000_000) as f64 - 1e6) / 1e3,
        3 => 1e15 + rng.below(1 << 20) as f64,
        4 => -(1e15 * (1.0 + rng.below(1_000_000) as f64)),
        5 => (unit - 0.5) * 2e-6,
        6 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize],
        7 => [0.0, -0.0, 1e15, 2f64.powi(53), 1e300, f64::MAX][rng.below(6) as usize],
        _ => rng.next_u64() as i64 as f64,
    }
}

fn text(rng: &mut TestRng) -> String {
    const SPECIAL: &[char] = &[
        '"',
        '\\',
        '/',
        '\u{7f}',
        'é',
        'ß',
        '中',
        '\u{2028}',
        '\u{fffd}',
        '😀',
        '\u{1d11e}',
        '\u{10ffff}',
        '\u{10000}',
    ];
    (0..rng.below(8))
        .map(|_| match rng.below(3) {
            0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            1 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
            _ => (b'a' + rng.below(26) as u8) as char,
        })
        .collect()
}

/// `s` as a JSON string with every character `\u`-escaped: astral code
/// points become surrogate pairs.
fn all_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

proptest! {
    #[test]
    fn written_trees_validate_and_rewrite_to_the_same_bytes(v in Trees) {
        let text = json::write(&v);
        prop_assert!(validate_json(&text).is_ok(), "{:?}", validate_json(&text));
        let back = json::parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(json::write(&back), text);
    }

    #[test]
    fn surrogate_pair_escapes_parse_to_the_string(s in Texts) {
        prop_assert_eq!(json::parse(&all_escaped(&s)), Ok(Value::Str(s.clone())));
    }
}
