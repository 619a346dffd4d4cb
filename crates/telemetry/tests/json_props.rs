//! Writer/parser properties of the one JSON layer over random trees:
//! ordered and duplicate keys, strings with every control character,
//! quotes, backslashes and astral characters, awkward floats (`-0.0`,
//! subnormals, `f64::MAX`, NaN and infinities) and integers up to
//! `u64::MAX`.
//!
//! For both layouts: `parse(write(t))` is `t` with non-finite numbers
//! turned into `null`, and `write(parse(write(t)))` reproduces the
//! bytes of `write(t)`.

use cat_telemetry::json::{parse_json, Json};
use proptest::prelude::*;
use proptest::TestRng;

const SPECIAL_FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    0.1,
    -1.5e-7,
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    2.225_073_858_507_2e-308,
    1e300,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const SPECIAL_INTS: [u64; 6] = [0, 1, 146_441, (1 << 53) + 1, u64::MAX - 1, u64::MAX];

const KEYS: [&str; 5] = ["a", "b", "\"k\"", "\u{1F600}", "\u{1}\\"];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

fn uint(rng: &mut TestRng) -> u64 {
    if pick(rng, 2) == 0 {
        SPECIAL_INTS[pick(rng, SPECIAL_INTS.len())]
    } else {
        (i64::MIN..i64::MAX).generate(rng) as u64
    }
}

fn float(rng: &mut TestRng) -> f64 {
    if pick(rng, 2) == 0 {
        SPECIAL_FLOATS[pick(rng, SPECIAL_FLOATS.len())]
    } else {
        // Arbitrary bits: every sign, exponent (subnormals, NaN
        // payloads, infinities) and mantissa.
        f64::from_bits((i64::MIN..i64::MAX).generate(rng) as u64)
    }
}

fn string(rng: &mut TestRng) -> String {
    let len = pick(rng, 9);
    (0..len)
        .map(|_| match pick(rng, 6) {
            // Every control character.
            0 => char::from(pick(rng, 0x20) as u8),
            1 => ['"', '\\', '/', '\u{7f}'][pick(rng, 4)],
            2 => ['\u{1F600}', '\u{10FFFF}', '\u{10000}'][pick(rng, 3)],
            3 => ['µ', '\u{2028}', '\u{FFFF}', 'é'][pick(rng, 4)],
            _ => char::from(b' ' + pick(rng, 95) as u8),
        })
        .collect()
}

struct Tree {
    depth: usize,
}

impl Strategy for Tree {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 5 } else { 7 };
        let child = Tree {
            depth: self.depth.saturating_sub(1),
        };
        match pick(rng, kinds) {
            0 => Json::Null,
            1 => Json::Bool(pick(rng, 2) == 1),
            2 => Json::Int(uint(rng)),
            3 => Json::Number(float(rng)),
            4 => Json::String(string(rng)),
            5 => (0..pick(rng, 5)).map(|_| child.generate(rng)).collect(),
            _ => Json::Object(
                (0..pick(rng, 5))
                    .map(|_| {
                        // Few distinct keys, so duplicates are common.
                        let key = KEYS[pick(rng, KEYS.len())].to_string();
                        (key, child.generate(rng))
                    })
                    .collect(),
            ),
        }
    }
}

/// What a tree reads back as: non-finite numbers become `null`.
fn readable(t: &Json) -> Json {
    match t {
        Json::Number(x) if !x.is_finite() => Json::Null,
        Json::Array(items) => items.iter().map(readable).collect(),
        Json::Object(members) => Json::Object(
            members
                .iter()
                .map(|(k, v)| (k.clone(), readable(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn check(tree: &Json, write: fn(&Json) -> String) {
    let text = write(tree);
    let back = parse_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let want = readable(tree);
    assert_eq!(back, want, "{text}");
    // `==` treats `1` and `1.0` as one value; the Debug form also pins
    // the variant and every float bit.
    assert_eq!(format!("{back:?}"), format!("{want:?}"));
    assert_eq!(write(&back), text, "rewrite changed bytes");
}

proptest! {
    #[test]
    fn compact_form_round_trips_exactly(tree in Tree { depth: 4 }) {
        check(&tree, |t| t.to_string());
        prop_assert!(!tree.to_string().contains('\n'));
    }

    #[test]
    fn document_form_round_trips_exactly(tree in Tree { depth: 4 }) {
        check(&tree, Json::to_document);
        // Documents are usually objects; give every case one.
        check(&Json::object([("top", tree.clone()), ("top", Json::Null)]), Json::to_document);
    }
}

#[test]
fn every_control_character_escapes() {
    let all: String = (0u8..0x20)
        .map(char::from)
        .chain("\"\\/\u{7f}".chars())
        .collect();
    let text = Json::from(all.as_str()).to_string();
    assert!(text.bytes().all(|b| b >= 0x20), "{text}");
    assert_eq!(parse_json(&text).unwrap(), Json::String(all));
}
