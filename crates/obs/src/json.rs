//! Minimal hand-rolled JSON tree, renderer, and parser (pure `std`).
//!
//! Only what the observability layer needs: construction of object/array
//! trees, compact or pretty rendering with correct string escaping, and a
//! strict recursive-descent [`Json::parse`] so committed artifacts (bench
//! baselines, run reports) can be read back without external crates.
//! Object key order is preserved exactly as inserted, which keeps emitted
//! reports byte-stable run to run.

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    /// Non-finite values render as `null` (JSON has no NaN/Inf).
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object; panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style variant of [`Json::set`].
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Builder form of [`Json::set`] for optional fields: appends the field
    /// only when `value` is `Some`, so absent sections leave no key behind.
    pub fn maybe_with(self, key: &str, value: Option<Json>) -> Json {
        match value {
            Some(v) => self.with(key, v),
            None => self,
        }
    }

    /// Field lookup on an object (`None` for other variants or missing
    /// keys; the first occurrence wins when keys repeat).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup following a path of object keys.
    pub fn get_path(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |node, key| node.get(key))
    }

    /// Numeric view: `U64`, `I64`, and finite `F64` all convert.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned view (`U64`, or a non-negative `I64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object-field view.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses a JSON document. Strict: exactly one value, standard JSON
    /// syntax, no trailing garbage. Integers that fit land in `U64`/`I64`;
    /// everything else numeric becomes `F64`. Arrays and objects nested
    /// deeper than [`MAX_DEPTH`] are an error, so a hostile document cannot
    /// exhaust the parsing thread's stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` keeps a decimal point or exponent, so the
                    // token round-trips as a float.
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(fields) => write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                let (key, value) = &fields[i];
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                value.write(out, indent, depth + 1)
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// this workspace writes nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // surrogate pairs are not emitted by our renderer;
                            // map unpaired surrogates to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy the run up to the next quote or backslash.
                    // Neither byte can be a UTF-8 continuation byte, so the
                    // run boundary is always a char boundary and the run is
                    // validated once — not once per character, which made
                    // megabyte-scale strings quadratic to parse.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run]).map_err(|_| "invalid utf-8")?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = token.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        token
            .parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn floats_keep_a_float_token() {
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(1e-9).render(), "1e-9");
    }

    #[test]
    fn strings_escape_control_and_quotes() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\te\u{1}".to_string()).render(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let j = Json::obj()
            .with("zeta", Json::U64(1))
            .with("alpha", Json::Arr(vec![Json::U64(1), Json::Null]));
        assert_eq!(j.render(), r#"{"zeta":1,"alpha":[1,null]}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let j = Json::obj().with("a", Json::Arr(vec![Json::U64(1)]));
        assert_eq!(j.render_pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
        assert_eq!(Json::obj().render_pretty(), "{}\n");
    }

    #[test]
    fn parse_roundtrips_rendered_trees() {
        let j = Json::obj()
            .with("s", Json::Str("a\"b\\c\nd".into()))
            .with("n", Json::U64(18_446_744_073_709_551_615))
            .with("i", Json::I64(-42))
            .with("f", Json::F64(1.5e-3))
            .with(
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            )
            .with("nested", Json::obj().with("k", Json::U64(7)));
        for text in [j.render(), j.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), j, "{text}");
        }
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("0").unwrap(), Json::U64(0));
        assert_eq!(Json::parse("-3").unwrap(), Json::I64(-3));
        assert_eq!(Json::parse("2.5").unwrap(), Json::F64(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(Json::parse("-1.5e-2").unwrap(), Json::F64(-0.015));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"x",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past any thread's stack under unbounded recursion.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        // Depth is nesting, not length: long flat documents still parse.
        let flat = format!("[{}0]", "[],".repeat(10_000));
        assert_eq!(Json::parse(&flat).unwrap().as_arr().unwrap().len(), 10_001);
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""café""#).unwrap(),
            Json::Str("café".to_string())
        );
        assert_eq!(
            Json::parse("\"emoji \u{1F600}\"").unwrap(),
            Json::Str("emoji \u{1F600}".to_string())
        );
    }

    /// A megabyte-scale string (an inline TSV dataset, say) must parse in
    /// linear time. The per-character tail revalidation this guards against
    /// took ~20 s on this input; the bulk-run path takes milliseconds, so
    /// the generous bound stays robust on a loaded machine.
    #[test]
    fn parse_of_large_strings_is_linear() {
        let cell = "0.123456\t";
        let mut tsv = String::with_capacity(2 << 20);
        while tsv.len() < (2 << 20) {
            tsv.push_str(cell);
            tsv.push('\n');
        }
        let doc = Json::obj().with("dataset", Json::Str(tsv)).render();
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "parsing a {} B document took {:?}",
            doc.len(),
            start.elapsed()
        );
        assert_eq!(parsed.render(), doc);
    }

    #[test]
    fn accessors_navigate_trees() {
        let j = Json::parse(r#"{"a":{"b":[1,2.5,"x"]},"n":-1}"#).unwrap();
        assert_eq!(j.get_path(&["a", "b"]).unwrap().as_arr().unwrap().len(), 3);
        let arr = j.get_path(&["a", "b"]).unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(j.get("n").unwrap().as_f64(), Some(-1.0));
        assert_eq!(j.get("n").unwrap().as_u64(), None);
        assert_eq!(j.get("missing"), None);
        assert!(j.as_obj().unwrap().len() == 2);
    }
}
