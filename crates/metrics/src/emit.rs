//! Hand-rolled JSON and CSV emission and parsing (in-tree replacement
//! for `serde`).
//!
//! The simulator's deliverables are machine-readable result files under
//! `results/`; with the hermetic-build policy (no external crates) this
//! module owns that surface. Both formats round-trip: `emit → parse →
//! compare` is tested here and in `tests/emitters.rs`, so dropping serde
//! cannot silently corrupt output.
//!
//! JSON notes:
//! * Objects preserve insertion order, so emission is byte-stable — the
//!   determinism golden tests compare serialized reports byte-for-byte.
//! * Numbers are split into [`Json::UInt`]/[`Json::Int`] (exact 64-bit)
//!   and [`Json::Num`] (f64, emitted with Rust's shortest round-trip
//!   formatting). Non-finite floats are emitted as `null` per JSON.
//!
//! CSV notes: RFC 4180 quoting (fields containing comma, quote, CR or LF
//! are quoted; quotes are doubled).

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (exact).
    UInt(u64),
    /// A negative integer (exact).
    Int(i64),
    /// A float (shortest round-trip formatting).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`Json::UInt`] only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// A required unsigned-integer field of an object; the error names
    /// the field.
    pub fn field_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
    }

    /// A required boolean field of an object; the error names the field.
    pub fn field_bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("missing or non-boolean field \"{key}\""))
    }

    /// A required array field of an object; the error names the field.
    pub fn field_arr(&self, key: &str) -> Result<&[Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing or non-array field \"{key}\""))
    }

    /// A required array field of exactly `N` unsigned integers; the
    /// error names the field.
    pub fn field_u64s<const N: usize>(&self, key: &str) -> Result<[u64; N], String> {
        let xs = self.field_arr(key)?;
        if xs.len() != N {
            return Err(format!(
                "field \"{key}\": expected {N} elements, got {}",
                xs.len()
            ));
        }
        let mut out = [0u64; N];
        for (o, x) in out.iter_mut().zip(xs) {
            *o = x
                .as_u64()
                .ok_or_else(|| format!("field \"{key}\": non-integer element"))?;
        }
        Ok(out)
    }

    /// A required `null`-or-integer field of an object (the encoding of
    /// [`Json::opt_u64`]); the error names the field.
    pub fn field_opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            Some(Json::Null) => Ok(None),
            Some(Json::UInt(x)) => Ok(Some(*x)),
            _ => Err(format!("missing or non-integer, non-null field \"{key}\"")),
        }
    }

    /// Encodes an optional integer as `null` or [`Json::UInt`].
    pub fn opt_u64(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::UInt)
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's shortest representation round-trips exactly.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our
                            // output (we never escape above BMP), but
                            // accept lone code points.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = text
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            message: format!("bad number {text:?}"),
            offset: start,
        })
    }
}

/// A CSV table: a header row plus data rows, RFC 4180 quoting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Csv {
    /// Column names.
    pub header: Vec<String>,
    /// Data rows; each must match the header's width.
    pub rows: Vec<Vec<String>>,
}

impl Csv {
    /// Creates a table with the given columns.
    pub fn new(header: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Csv {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, row: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Serializes with `\n` line endings and a trailing newline.
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        write_csv_line(&self.header, &mut out);
        for r in &self.rows {
            write_csv_line(r, &mut out);
        }
        out
    }

    /// Parses a CSV document (first line is the header).
    ///
    /// # Errors
    ///
    /// Returns [`CsvError`] on ragged rows, unterminated quotes, or an
    /// empty document.
    pub fn parse(text: &str) -> Result<Csv, CsvError> {
        let mut records = parse_csv_records(text)?;
        if records.is_empty() {
            return Err(CsvError::Empty);
        }
        let header = records.remove(0);
        for (i, r) in records.iter().enumerate() {
            if r.len() != header.len() {
                return Err(CsvError::Ragged {
                    row: i + 2,
                    got: r.len(),
                    want: header.len(),
                });
            }
        }
        Ok(Csv {
            header,
            rows: records,
        })
    }
}

impl std::fmt::Display for Csv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn write_csv_line(fields: &[String], out: &mut String) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

/// A CSV parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The document has no header line.
    Empty,
    /// A quoted field never closed.
    UnterminatedQuote,
    /// A row's width differs from the header's (1-based row number).
    Ragged {
        /// 1-based line number of the offending row.
        row: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        want: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Empty => write!(f, "empty csv document"),
            CsvError::UnterminatedQuote => write!(f, "unterminated quoted field"),
            CsvError::Ragged { row, got, want } => {
                write!(f, "row {row} has {got} fields, expected {want}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

fn parse_csv_records(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => record.push(std::mem::take(&mut field)),
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote);
    }
    // A final line without trailing newline.
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !any {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_errors_name_the_field() {
        let o = Json::obj([("a", Json::UInt(1)), ("n", Json::Null)]);
        assert!(o.field_u64("b").expect_err("missing").contains("\"b\""));
        assert!(o.field_bool("a").expect_err("wrong type").contains("\"a\""));
        assert!(o.field_arr("a").expect_err("wrong type").contains("\"a\""));
        assert!(o.field_opt_u64("x").expect_err("missing").contains("\"x\""));
        assert_eq!(o.field_opt_u64("n"), Ok(None));
        assert_eq!(o.field_opt_u64("a"), Ok(Some(1)));
        let short = Json::obj([("xs", Json::Arr(vec![Json::UInt(1)]))]);
        let err = short.field_u64s::<2>("xs").expect_err("short");
        assert!(
            err.contains("\"xs\"") && err.contains("expected 2"),
            "{err}"
        );
        assert_eq!(Json::opt_u64(None), Json::Null);
        assert_eq!(Json::opt_u64(Some(3)), Json::UInt(3));
    }

    #[test]
    fn json_roundtrip_nested() {
        let v = Json::obj([
            ("name", Json::Str("w01 \"quoted\"\n".into())),
            ("served", Json::UInt(u64::MAX)),
            ("delta", Json::Int(-42)),
            ("ipc", Json::Num(1.2345678901234567)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            (
                "nested",
                Json::obj([("k", Json::Arr(vec![Json::UInt(0), Json::Num(-0.5)]))]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).expect("parse"), v);
    }

    #[test]
    fn json_emission_is_byte_stable() {
        let make = || {
            Json::obj([
                ("a", Json::UInt(1)),
                ("b", Json::Num(0.1 + 0.2)),
                ("c", Json::Str("x".into())),
            ])
            .to_string()
        };
        assert_eq!(make(), make());
        assert_eq!(make(), "{\"a\":1,\"b\":0.30000000000000004,\"c\":\"x\"}");
    }

    #[test]
    fn json_f64_roundtrips_exactly() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e308,
            -2.2250738585072014e-308,
            796.25,
        ] {
            let text = Json::Num(x).to_string();
            match Json::parse(&text).expect("parse") {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{x} via {text}"),
                other => panic!("parsed {other:?}"),
            }
        }
    }

    #[test]
    fn json_nonfinite_becomes_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn json_get() {
        let v = Json::obj([("x", Json::UInt(7))]);
        assert_eq!(v.get("x"), Some(&Json::UInt(7)));
        assert_eq!(v.get("y"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn json_typed_accessors() {
        let v = Json::obj([
            ("u", Json::UInt(7)),
            ("b", Json::Bool(true)),
            ("s", Json::Str("hi".into())),
            ("a", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
        ]);
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        // Wrong-shape accesses are None, not panics.
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
        assert_eq!(v.get("u").and_then(Json::as_str), None);
        assert_eq!(v.get("b").and_then(Json::as_arr), None);
        assert_eq!(v.get("a").and_then(Json::as_bool), None);
    }

    #[test]
    fn csv_roundtrip_with_quoting() {
        let mut c = Csv::new(["id", "note", "value"]);
        c.row(["w01", "plain", "1.5"]);
        c.row(["w02", "has,comma", "2.5"]);
        c.row(["w03", "has \"quotes\"", "3.5"]);
        c.row(["w04", "multi\nline", "4.5"]);
        let text = c.to_string();
        assert_eq!(Csv::parse(&text).expect("parse"), c);
    }

    #[test]
    fn csv_handles_crlf_and_missing_trailing_newline() {
        let c = Csv::parse("a,b\r\n1,2\r\n3,4").expect("parse");
        assert_eq!(c.header, vec!["a", "b"]);
        assert_eq!(c.rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        assert_eq!(
            Csv::parse("a,b\n1\n"),
            Err(CsvError::Ragged {
                row: 2,
                got: 1,
                want: 2
            })
        );
        assert_eq!(Csv::parse(""), Err(CsvError::Empty));
        assert_eq!(Csv::parse("a,\"b\n"), Err(CsvError::UnterminatedQuote));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn csv_row_width_checked() {
        Csv::new(["a", "b"]).row(["only-one"]);
    }
}
