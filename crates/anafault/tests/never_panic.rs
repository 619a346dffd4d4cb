//! Never-panic fuzzing of every reader that fronts untrusted input: the
//! daemon parses request bodies, checkpoint lines and persisted files
//! with these, so each must return `Ok` or a typed [`ProtocolError`] —
//! never panic — on arbitrary text, on truncations of real documents
//! and on random edits of real documents. Specs that parse are also
//! built, which runs their netlist through `spice::parser`.

mod samples;

use anafault::protocol::{self, parse_json, CampaignSpec, DiagnoseRequest, ProtocolError};
use proptest::prelude::*;
use proptest::TestRng;

/// Characters that steer random edits into the parser's branches.
const JSON_CHARS: &[char] = &[
    '{',
    '}',
    '[',
    ']',
    '"',
    ':',
    ',',
    '\\',
    '/',
    'u',
    'd',
    '8',
    '0',
    '1',
    '9',
    '-',
    '+',
    '.',
    'e',
    'E',
    ' ',
    '\n',
    't',
    'r',
    'f',
    'n',
    'l',
    'a',
    's',
    'µ',
    '\u{1F600}',
    '\u{0}',
];

/// Tokens that steer random netlist edits into the SPICE parser.
const NETLIST_TOKENS: &[&str] = &[
    "R1 ", "C9 ", "V2 ", "I1 ", "M1 ", "X1 ", "in ", "out ", "0 ", " ", "\n", "\n+ ", "* ", "; ",
    "$", "1k", "2meg", "-1", "0", "inf", "-inf", "1e999", "nan", "4.7u", "5v", "1e-3", "k", "(",
    ")", ",", "=", "pulse(", "sin(", "pwl(", "dc ", "ic=", "w=", "l=", ".model ", "nmos ", "pmos ",
    "vto=", ".tran ", ".ic ", "v(out)=", ".end", ".op", ".foo", "uic",
];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

/// The documents every edit starts from: the checked-in snapshots and
/// today's writer output for the same fixtures.
fn documents() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut docs = Vec::new();
    for entry in std::fs::read_dir(dir).expect("golden dir") {
        let text = std::fs::read_to_string(entry.expect("entry").path()).expect("golden file");
        docs.extend(text.lines().map(str::to_string));
        docs.push(text);
    }
    docs.push(protocol::to_json(&samples::result()));
    docs.push(samples::spec().to_json());
    docs.push(protocol::dictionary_to_json(&samples::dictionary()));
    docs.push(samples::diagnose_request().to_json());
    docs
}

/// Feeds one text to every reader; a panic fails the test.
fn read_everything(text: &str) {
    let _ = parse_json(text);
    let _ = protocol::from_json(text);
    let _ = protocol::event_from_json(text);
    let _ = protocol::dictionary_from_json(text);
    let _ = protocol::candidate_from_json(text);
    let _ = DiagnoseRequest::from_json(text);
    if let Ok(spec) = CampaignSpec::from_json(text) {
        let built = spec.build_campaign();
        assert!(matches!(built, Ok(_) | Err(ProtocolError::Schema(_))));
    }
}

/// Arbitrary text, mostly from the JSON alphabet.
struct Garbage;

impl Strategy for Garbage {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let len = pick(rng, 96);
        (0..len)
            .map(|_| match pick(rng, 4) {
                0 => char::from_u32((0..0x11_0000usize).generate(rng) as u32).unwrap_or('?'),
                _ => JSON_CHARS[pick(rng, JSON_CHARS.len())],
            })
            .collect()
    }
}

/// A real document cut at a random character.
struct Truncated(Vec<String>);

impl Strategy for Truncated {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let doc: Vec<char> = self.0[pick(rng, self.0.len())].chars().collect();
        doc[..pick(rng, doc.len() + 1)].iter().collect()
    }
}

/// A real document after one to four random edits: a character
/// replaced, inserted or deleted, a span deleted or duplicated.
struct Mutated(Vec<String>);

impl Strategy for Mutated {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut doc: Vec<char> = self.0[pick(rng, self.0.len())].chars().collect();
        for _ in 0..1 + pick(rng, 4) {
            let at = pick(rng, doc.len() + 1);
            let c = JSON_CHARS[pick(rng, JSON_CHARS.len())];
            let end = (at + pick(rng, 16)).min(doc.len());
            match pick(rng, 5) {
                0 if at < doc.len() => doc[at] = c,
                1 => doc.insert(at, c),
                2 if at < doc.len() => {
                    doc.remove(at);
                }
                3 => {
                    doc.drain(at..end);
                }
                _ => {
                    let span: Vec<char> = doc[at..end].to_vec();
                    doc.splice(at..at, span);
                }
            }
        }
        doc.into_iter().collect()
    }
}

/// The sample spec with random token edits to its netlist.
struct NetlistEdits;

impl Strategy for NetlistEdits {
    type Value = CampaignSpec;

    fn generate(&self, rng: &mut TestRng) -> CampaignSpec {
        let mut spec = samples::spec();
        let mut netlist: Vec<char> = spec.netlist.chars().collect();
        for _ in 0..1 + pick(rng, 6) {
            let at = pick(rng, netlist.len() + 1);
            match pick(rng, 3) {
                0 => {
                    let end = (at + pick(rng, 12)).min(netlist.len());
                    netlist.drain(at..end);
                }
                _ => {
                    let token = NETLIST_TOKENS[pick(rng, NETLIST_TOKENS.len())];
                    netlist.splice(at..at, token.chars());
                }
            }
        }
        spec.netlist = netlist.into_iter().collect();
        spec
    }
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(texts in proptest::collection::vec(Garbage, 8..9)) {
        for text in &texts {
            read_everything(text);
        }
    }

    #[test]
    fn truncated_documents_never_panic(texts in proptest::collection::vec(Truncated(documents()), 8..9)) {
        for text in &texts {
            read_everything(text);
        }
    }
}

#[test]
fn mutated_documents_never_panic() {
    let mut rng = TestRng::for_test("mutated_documents_never_panic");
    let mutated = Mutated(documents());
    let (mut parsed, mut rejected) = (0, 0);
    for _ in 0..2048 {
        let text = mutated.generate(&mut rng);
        read_everything(&text);
        match parse_json(&text) {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    // Some edits leave valid JSON, so the typed readers see it too.
    assert!(
        parsed > 50 && rejected > 50,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn mutated_netlists_never_panic() {
    let mut rng = TestRng::for_test("mutated_netlists_never_panic");
    let (mut built, mut rejected) = (0, 0);
    for _ in 0..1024 {
        let spec = NetlistEdits.generate(&mut rng);
        // Through the document, as the daemon receives it.
        read_everything(&spec.to_json());
        match spec.build_campaign() {
            Ok(_) => built += 1,
            Err(ProtocolError::Schema(_)) => rejected += 1,
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    // The edits reach both sides of the netlist parser.
    assert!(
        built > 50 && rejected > 50,
        "{built} built, {rejected} rejected"
    );
}

/// Values the edits above rarely produce: a telemetry duration that
/// overflows `Duration`, counters beyond `u64`, and a netlist with no
/// title line.
#[test]
fn out_of_range_values_are_schema_errors() {
    let text = protocol::to_json(&samples::result());
    for (from, to) in [
        ("\"wall_seconds\": 0.01", "\"wall_seconds\": 1e300"),
        ("\"wall_seconds\": 0.01", "\"wall_seconds\": -1.0"),
        ("\"steps\": 120", "\"steps\": 18446744073709551616"),
        ("\"id\": 6", "\"id\": -6"),
    ] {
        let bad = text.replace(from, to);
        assert_ne!(bad, text, "tamper `{from}` did not apply");
        assert!(
            matches!(protocol::from_json(&bad), Err(ProtocolError::Schema(_))),
            "{to}"
        );
    }
    let mut spec = samples::spec();
    spec.netlist = "\n\n".to_string();
    assert!(matches!(
        spec.build_campaign(),
        Err(ProtocolError::Schema(_))
    ));
}
