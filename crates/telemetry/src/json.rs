//! The workspace's one JSON layer: an ordered value tree ([`Json`]),
//! one writer and one parser. Every document and response (protocol
//! files, spec and stream lines, dictionaries, run reports, NDJSON
//! telemetry events, the daemon's bodies) is built as a tree and
//! written here; nothing else assembles JSON text.
//!
//! **Tree.** Objects keep their members in insertion order; duplicate
//! keys are kept and lookups take the last one. [`Json::Int`] holds
//! non-negative integer literals exactly over the whole `u64` range;
//! [`Json::Number`] holds every other number as an `f64`.
//!
//! **Number spelling.** An `Int` writes as its digits (`146441`). A
//! finite `Number` writes in Rust's shortest round-trip form, always
//! with a fraction or exponent (`1.0`, `-0.0`, `5e-7`, `1e-300`), so it
//! reads back to the same bits and variant. Non-finite numbers write as
//! `null`, keeping every document standard JSON.
//!
//! **Layout.** The compact form (`Display`, so `to_string()`) is one
//! line: `{"k": v, "k2": [1.0, 2.0]}`, with `": "` and `", "`
//! separators. The document form ([`Json::to_document`]) puts each
//! top-level member on its own line, indented two spaces; a top-level
//! array whose items are all containers (an empty one included) also
//! puts each item on its own line, indented four. Everything deeper is
//! compact, and the document ends with a newline. Strings escape `"`,
//! `\`, `\n`, `\r`, `\t` and other control characters as `\u00XX`, so
//! a compact value is always a valid NDJSON line.
//!
//! **Parser.** [`parse_json`] reads standard JSON (including `\u`
//! surrogate pairs), rejects trailing data and nesting deeper than 128
//! levels, and reports errors with their byte offset.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range.
    Int(u64),
    /// Any other number. Non-finite values write as `null`.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object's members in document order. Duplicate keys are kept;
    /// [`Json::get`] and [`Json::field`] return the last one.
    Object(Vec<(String, Json)>),
}

/// Value equality: same shape, same keys in the same order, floats
/// compared bitwise (so `-0.0 != 0.0`). An `Int` equals a `Number`
/// holding exactly the same integer, so a document that spells `1.0`
/// as `1` still compares equal.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Number(a), Json::Number(b)) => a.to_bits() == b.to_bits(),
            (Json::Int(n), Json::Number(x)) | (Json::Number(x), Json::Int(n)) => {
                x.to_bits() == (*n as f64).to_bits() && *x as u64 == *n
            }
            (Json::String(a), Json::String(b)) => a == b,
            (Json::Array(a), Json::Array(b)) => a == b,
            (Json::Object(a), Json::Object(b)) => a == b,
            _ => false,
        }
    }
}

/// An error from [`parse_json`] or from mapping a parsed tree onto a
/// typed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The text is not valid JSON.
    Parse(String),
    /// The JSON does not match the document's schema.
    Schema(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Parse(m) => write!(f, "protocol JSON parse error: {m}"),
            ProtocolError::Schema(m) => write!(f, "protocol JSON schema error: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn schema_err(message: impl Into<String>) -> ProtocolError {
    ProtocolError::Schema(message.into())
}

// ---------------------------------------------------------------------
// Building trees
// ---------------------------------------------------------------------

impl Json {
    /// An object with `members` in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

macro_rules! from_scalars {
    ($($t:ty => |$x:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $value
            }
        }
    )*};
}

from_scalars! {
    bool => |b| Json::Bool(b),
    u64 => |n| Json::Int(n),
    u32 => |n| Json::Int(n.into()),
    usize => |n| Json::Int(n as u64),
    f64 => |x| Json::Number(x),
    &str => |s| Json::String(s.to_string()),
    String => |s| Json::String(s),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        items.iter().cloned().map(Into::into).collect()
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// The compact form: one line, no trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl Json {
    /// The document form: top-level members one per line, a top-level
    /// array of containers one item per line, a trailing newline.
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes `self` compact (`indent` is `None`) or, for a container,
    /// with one item per line indented `indent + 2` spaces. Only the
    /// top level (`Some(0)`) passes a layout down, and only to arrays
    /// whose items are all containers.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Number(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Number(_) => out.push_str("null"),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => write_items(out, "[]", items.iter().map(|v| (None, v)), indent),
            Json::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_items(out, "{}", members, indent);
            }
        }
    }
}

fn write_items<'a>(
    out: &mut String,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    indent: Option<usize>,
) {
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in items.enumerate() {
        match indent {
            Some(n) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                out.extend(std::iter::repeat_n(' ', n + 2));
            }
            None if i > 0 => out.push_str(", "),
            None => {}
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        let nested = match value {
            Json::Array(inner) if indent == Some(0) && inner.iter().all(is_container) => Some(2),
            _ => None,
        };
        value.write(out, nested);
    }
    if let Some(n) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', n));
    }
    out.push_str(&brackets[1..]);
}

fn is_container(value: &Json) -> bool {
    matches!(value, Json::Array(_) | Json::Object(_))
}

/// Appends `s` quoted, copying each run of bytes that needs no escape
/// as one slice.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// One number as the writer spells it (`null` when non-finite).
pub fn num(x: f64) -> String {
    Json::Number(x).to_string()
}

/// One string quoted and escaped as the writer spells it.
pub fn quote(s: &str) -> String {
    Json::from(s).to_string()
}

/// A float slice as a compact JSON array.
pub fn num_array(xs: &[f64]) -> String {
    Json::from(xs).to_string()
}

/// An integer slice as a compact JSON array.
pub fn uint_array(xs: &[u64]) -> String {
    Json::from(xs).to_string()
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parses one standalone JSON value (rejecting trailing data). NDJSON
/// consumers call it once per line.
///
/// # Errors
/// [`ProtocolError::Parse`] on malformed JSON.
pub fn parse_json(text: &str) -> Result<Json, ProtocolError> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing data"));
    }
    Ok(value)
}

/// Maximum container nesting the parser accepts. The daemon feeds this
/// parser untrusted network input; without a bound, `[[[[…` recurses
/// once per byte and overflows the stack (an abort, not a catchable
/// error). The protocol schema nests four levels deep, so 128 is far
/// beyond any legitimate document.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: &str) -> ProtocolError {
        ProtocolError::Parse(format!("{message} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ProtocolError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ProtocolError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ProtocolError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Runs one container parse with the depth guard held.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ProtocolError>,
    ) -> Result<Json, ProtocolError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ProtocolError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ProtocolError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// Reads a string. Each run of bytes up to the next `"` or `\` is
    /// copied as one slice of the (already valid UTF-8) input; the run
    /// ends on an ASCII byte, so it is always a whole number of chars.
    fn string(&mut self) -> Result<String, ProtocolError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Consumes the 4 hex digits of a `\u` escape (the `\u` itself is
    /// already consumed) and, for UTF-16 high surrogates, the mandatory
    /// `\uXXXX` low-surrogate continuation — external writers such as
    /// Python's `json.dumps` escape astral characters as surrogate
    /// pairs.
    fn unicode_escape(&mut self) -> Result<char, ProtocolError> {
        let hi = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&hi) {
            return Err(self.error("unpaired low surrogate"));
        }
        if (0xD800..=0xDBFF).contains(&hi) {
            if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                return Err(self.error("unpaired high surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.error("unpaired high surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.error("bad \\u code point"));
        }
        char::from_u32(hi).ok_or_else(|| self.error("bad \\u code point"))
    }

    fn hex4(&mut self) -> Result<u32, ProtocolError> {
        let code = (self.text.get(self.pos..self.pos + 4))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A run of digits that fits a `u64` is an [`Json::Int`]; anything
    /// else (sign, fraction, exponent, overflow) is a [`Json::Number`].
    fn number(&mut self) -> Result<Json, ProtocolError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

// ---------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------

/// 2^64: the first float a `u64` cannot hold.
const U64_LIMIT: f64 = 18_446_744_073_709_551_616.0;

impl Json {
    /// The value under `key` (the last one when the key repeats), or a
    /// schema error when absent (or when `self` is not an object). Use
    /// [`Json::get`] for optional fields.
    pub fn field<'a>(&'a self, key: &str) -> Result<&'a Json, ProtocolError> {
        match self {
            Json::Object(_) => self
                .get(key)
                .ok_or_else(|| schema_err(format!("missing field `{key}`"))),
            _ => Err(schema_err(format!("expected object with field `{key}`"))),
        }
    }

    /// The value under `key` (the last one when the key repeats),
    /// `None` when absent or when `self` is not an object — for schema
    /// fields newer than the capture being read.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|m| &m.1),
            _ => None,
        }
    }

    /// The numeric value, or a schema error.
    pub fn as_f64(&self) -> Result<f64, ProtocolError> {
        match self {
            Json::Number(x) => Ok(*x),
            Json::Int(n) => Ok(*n as f64),
            _ => Err(schema_err("expected a number")),
        }
    }

    /// The value as a `u64` counter, or a schema error. Integer
    /// literals read back exactly; an integral float (`3.0`) below
    /// 2^64 is accepted too.
    pub fn as_u64(&self) -> Result<u64, ProtocolError> {
        match self {
            Json::Int(n) => Ok(*n),
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x < U64_LIMIT => Ok(*x as u64),
            Json::Number(_) => Err(schema_err("expected a non-negative integer")),
            _ => Err(schema_err("expected a number")),
        }
    }

    /// The value as a non-negative integer, or a schema error.
    pub fn as_usize(&self) -> Result<usize, ProtocolError> {
        usize::try_from(self.as_u64()?).map_err(|_| schema_err("integer out of range"))
    }

    /// The value as a boolean, or a schema error.
    pub fn as_bool(&self) -> Result<bool, ProtocolError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(schema_err("expected a boolean")),
        }
    }

    /// The string contents, or a schema error.
    pub fn as_str(&self) -> Result<&str, ProtocolError> {
        match self {
            Json::String(s) => Ok(s),
            _ => Err(schema_err("expected a string")),
        }
    }

    /// The array items, or a schema error.
    pub fn as_array(&self) -> Result<&[Json], ProtocolError> {
        match self {
            Json::Array(items) => Ok(items),
            _ => Err(schema_err("expected an array")),
        }
    }

    /// The array items mapped through `read`, or the first error.
    pub fn map_array<T>(
        &self,
        read: impl FnMut(&Json) -> Result<T, ProtocolError>,
    ) -> Result<Vec<T>, ProtocolError> {
        self.as_array()?.iter().map(read).collect()
    }

    /// The array items as `f64`, or a schema error.
    pub fn as_f64_array(&self) -> Result<Vec<f64>, ProtocolError> {
        self.map_array(Json::as_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        for x in [0.0, -1.5, 1e-300, 0.1 + 0.2, f64::MAX] {
            assert_eq!(num(x).parse::<f64>().unwrap(), x);
        }
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn arrays_format() {
        assert_eq!(num_array(&[1.0, 2.5]), "[1.0, 2.5]");
        assert_eq!(uint_array(&[3, 4]), "[3, 4]");
        assert_eq!(num_array(&[]), "[]");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "a\"b\\c\nd\te\u{1}µ";
        let quoted = quote(tricky);
        let mut p = Parser::new(&quoted);
        assert_eq!(p.string().unwrap(), tricky);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        // Python's `json.dumps` escapes astral characters this way.
        let mut p = Parser::new("\"\\ud83d\\ude00 ok\"");
        assert_eq!(p.string().unwrap(), "\u{1F600} ok");
        // Lone or malformed surrogates are rejected, not mangled.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83d\\n\"",
            "\"\\ude00\"",
            "\"\\ud83d\\ud83d\"",
        ] {
            assert!(Parser::new(bad).string().is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_are_exact_and_keep_their_spelling() {
        for n in [0, 1, 146_441, (1 << 53) + 1, u64::MAX] {
            let text = Json::Int(n).to_string();
            assert_eq!(text, n.to_string());
            assert_eq!(parse_json(&text).unwrap().as_u64().unwrap(), n);
        }
        // One past u64::MAX is a float, and a float keeps its fraction.
        assert!(matches!(
            parse_json("18446744073709551616"),
            Ok(Json::Number(_))
        ));
        assert_eq!(Json::Number(146_441.0).to_string(), "146441.0");
        assert!(
            matches!(parse_json("-0"), Ok(Json::Number(x)) if x.to_bits() == (-0.0f64).to_bits())
        );
    }

    #[test]
    fn objects_keep_order_and_duplicate_keys_resolve_to_the_last() {
        let doc = parse_json("{\"b\": 1, \"a\": 2, \"b\": 3}").unwrap();
        let Json::Object(members) = &doc else {
            panic!("not an object: {doc}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(doc.field("b").unwrap().as_u64().unwrap(), 3);
        assert_eq!(doc.to_string(), "{\"b\": 1, \"a\": 2, \"b\": 3}");
    }

    #[test]
    fn document_layout() {
        let doc = Json::object([
            ("n", Json::Int(1)),
            ("names", Json::from(&["x", "y"][..])),
            (
                "rows",
                Json::from_iter([Json::from(&[1.0, 2.0][..]), Json::Null]),
            ),
            ("empty", Json::Array(Vec::new())),
            ("inner", Json::object([("k", Json::Bool(true))])),
        ]);
        assert_eq!(
            doc.to_document(),
            "{\n  \"n\": 1,\n  \"names\": [\"x\", \"y\"],\n  \"rows\": [[1.0, 2.0], null],\n  \
             \"empty\": [\n  ],\n  \"inner\": {\"k\": true}\n}\n"
        );
        assert_eq!(Json::Object(Vec::new()).to_document(), "{\n}\n");
        let rows = Json::from_iter([Json::from(&[1u64][..]), Json::object([("a", Json::Null)])]);
        assert_eq!(
            Json::object([("rows", rows)]).to_document(),
            "{\n  \"rows\": [\n    [1],\n    {\"a\": null}\n  ]\n}\n"
        );
    }
}
