//! `Json::parse`, which reads every request body the daemon accepts, must
//! answer any input with a value or an error — never a panic, and never a
//! stack overflow. Inputs are arbitrary text biased toward JSON's tokens,
//! deep nesting, and valid documents cut short at any character.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tricluster_obs::json::{Json, MAX_DEPTH};

/// Fragments of the grammar (and of its error cases) that random bytes
/// rarely spell out.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\ud800",
    ":",
    ",",
    " ",
    "\n",
    "null",
    "true",
    "fals",
    "-",
    "0",
    "18446744073709551616",
    "-9223372036854775809",
    "1e",
    ".5",
    "E+",
    "1e999",
    "é",
    "\u{0}",
];

/// Token-biased bytes (read lossily, as invalid UTF-8 never reaches the
/// parser): each part is a token or one arbitrary byte.
fn json_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..TOKENS.len() + 4, 0u32..256), 0..160).prop_map(|parts| {
        let mut out = Vec::new();
        for (pick, byte) in parts {
            match TOKENS.get(pick) {
                Some(token) => out.extend_from_slice(token.as_bytes()),
                None => out.push(byte as u8),
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    })
}

/// A document shaped like a `POST /jobs` body.
fn job_body(label: &str, eps: f64, depth: usize) -> String {
    let mut nested = Json::Arr(vec![Json::U64(1), Json::Null]);
    for i in 0..depth {
        nested = Json::Obj(vec![
            (format!("k{i}"), nested),
            ("b".into(), Json::Bool(i % 2 == 0)),
        ]);
    }
    Json::Obj(vec![
        ("label".into(), Json::Str(label.into())),
        ("eps".into(), Json::F64(eps)),
        ("threads".into(), Json::I64(-2)),
        (
            "dataset".into(),
            Json::Str("# time t0\ngene\ts0\ng0\t1.5\n".into()),
        ),
        ("nested".into(), nested),
    ])
    .render_pretty()
}

fn parse_never_panics(text: &str) -> Result<(), TestCaseError> {
    match catch_unwind(AssertUnwindSafe(|| Json::parse(text))) {
        Ok(_) => Ok(()),
        Err(_) => Err(TestCaseError::fail(format!("parser panicked on {text:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_text_never_panics(text in json_text()) {
        parse_never_panics(&text)?;
    }

    #[test]
    fn truncated_documents_never_panic(
        label in json_text(),
        eps in -1e6f64..1e6,
        depth in 0usize..8,
        cut in 0.0f64..1.0,
    ) {
        let full = job_body(&label, eps, depth);
        prop_assert!(Json::parse(&full).is_ok(), "the uncut document parses");
        let mut at = (cut * full.len() as f64) as usize;
        while !full.is_char_boundary(at) {
            at -= 1;
        }
        parse_never_panics(&full[..at])?;
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_overflow(depth in 0usize..4 * MAX_DEPTH, objects in proptest::bool::ANY) {
        let (open, close) = if objects { ("{\"a\":", "}") } else { ("[", "]") };
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        prop_assert_eq!(Json::parse(&text).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
    }
}

/// A nesting far past the limit is refused before it can use the stack.
#[test]
fn a_million_open_brackets_is_an_error() {
    assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
}
