//! The workspace's one JSON codec.
//!
//! Every artifact in the stack is hand-written JSON (no serde: the
//! build is offline), so the three pieces here are shared by every
//! writer and reader:
//!
//! * **Writers** append into a `&mut String`: [`string`] (the one
//!   escaper — `\"`, `\\`, and every other char below 0x20 as
//!   `\u00XX`), [`f64()`] (`{:?}`, the canonical snapshot float) and
//!   [`f64_or_null`] (`Display`, `null` when non-finite — the bench
//!   and run-profile float).
//! * **[`Cursor`]** — a strict byte cursor for the canonical grammars
//!   (`HealthReport`, `QoeRollup`, …): the caller spells out the exact
//!   emitted layout and anything else is an error naming a byte offset.
//! * **[`parse`]** — a generic [`Value`] parser built on the cursor for
//!   the pretty-printed perf artifacts, with a fixed nesting limit
//!   ([`MAX_DEPTH`]) so hostile input is an `Err`, never a stack
//!   overflow.
//!
//! ```
//! use telemetry::json::{self, Cursor};
//!
//! let mut out = String::new();
//! json::string(&mut out, "a\"b\n");
//! assert_eq!(out, r#""a\"b\u000a""#);
//! assert_eq!(Cursor::new(&out).string().unwrap(), "a\"b\n");
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---- writers --------------------------------------------------------

/// Append `s` as a quoted JSON string literal.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `x` in `{:?}` form: shortest round-trip, always with a
/// decimal point or exponent (`2.0`, not `2`). The snapshot float.
pub fn f64(out: &mut String, x: f64) {
    let _ = write!(out, "{x:?}");
}

/// Append `x` in `Display` form (`2`, not `2.0`), or `null` when it is
/// not finite — strict JSON has no NaN/inf.
pub fn f64_or_null(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Append `v`, or `null` for `None`.
pub fn opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

// ---- strict cursor --------------------------------------------------

/// Strict cursor over machine-written JSON. Errors name the byte offset
/// where reading stopped, so no error path ever slices the input.
#[derive(Debug)]
pub struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    /// An "expected `what`" error at the current offset.
    fn err(&self, what: &str) -> String {
        format!("json: expected {what} at byte {}", self.i)
    }

    /// Consume `l` if the input continues with it.
    pub fn eat(&mut self, l: &str) -> bool {
        if self.b[self.i..].starts_with(l.as_bytes()) {
            self.i += l.len();
            true
        } else {
            false
        }
    }

    /// Consume `l` or fail.
    pub fn lit(&mut self, l: &str) -> Result<(), String> {
        if self.eat(l) {
            Ok(())
        } else {
            Err(self.err(&format!("{l:?}")))
        }
    }

    /// Skip JSON whitespace.
    pub fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn token(&mut self, accept: fn(u8) -> bool, what: &str) -> Result<(usize, &'a str), String> {
        let start = self.i;
        while self.peek().is_some_and(accept) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err(what));
        }
        // Every accepted byte is ASCII, so this never fails.
        let tok = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        Ok((start, tok))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        let (at, tok) = self.token(|c| c.is_ascii_digit(), "an integer")?;
        tok.parse()
            .map_err(|e| format!("json: bad integer {tok:?} at byte {at}: {e}"))
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        let (at, tok) = self.token(
            |c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'),
            "a number",
        )?;
        tok.parse()
            .map_err(|e| format!("json: bad number {tok:?} at byte {at}: {e}"))
    }

    /// An integer or `null`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        if self.eat("null") {
            Ok(None)
        } else {
            self.u64().map(Some)
        }
    }

    /// A quoted string. Reads every JSON escape; raw control characters
    /// are rejected, as strict JSON requires.
    pub fn string(&mut self) -> Result<String, String> {
        self.lit("\"")?;
        let mut bytes: Vec<u8> = Vec::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("closing quote"));
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(bytes).map_err(|e| format!("json: {e}")),
                b'\\' => {
                    let at = self.i - 1;
                    let Some(e) = self.peek() else {
                        return Err(self.err("an escape"));
                    };
                    self.i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let code = self
                                .b
                                .get(self.i..self.i + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            self.i += 4;
                            char::from_u32(code)
                                .ok_or_else(|| format!("json: bad codepoint at byte {at}"))?
                        }
                        _ => return Err(format!("json: unknown escape at byte {at}")),
                    };
                    let mut buf = [0u8; 4];
                    bytes.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                c if c < 0x20 => {
                    return Err(format!(
                        "json: raw control byte in string at byte {}",
                        self.i - 1
                    ))
                }
                c => bytes.push(c),
            }
        }
    }

    /// Succeed only at the end of input (no trailing bytes at all; call
    /// [`Cursor::ws`] first to allow trailing whitespace).
    pub fn end(&self) -> Result<(), String> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(self.err("end of input"))
        }
    }
}

// ---- generic value --------------------------------------------------

/// Parsed JSON. Objects keep sorted key order (BTreeMap) — every JSON
/// writer in this workspace sorts keys anyway, and it makes structural
/// diffs deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The workspace's
/// artifacts nest at most four deep; the limit keeps the recursive
/// parser's stack bounded on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document (surrounding whitespace allowed, trailing
/// data rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut cur = Cursor::new(text);
    let v = value(&mut cur, 0)?;
    cur.ws();
    cur.end()?;
    Ok(v)
}

/// One value; `depth` counts the arrays/objects enclosing it.
fn value(cur: &mut Cursor<'_>, depth: usize) -> Result<Value, String> {
    cur.ws();
    let open = cur.peek();
    if matches!(open, Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "json: nesting deeper than {MAX_DEPTH} at byte {}",
            cur.i
        ));
    }
    if cur.eat("[") {
        let mut items = Vec::new();
        cur.ws();
        if !cur.eat("]") {
            loop {
                items.push(value(cur, depth + 1)?);
                cur.ws();
                if cur.eat("]") {
                    break;
                }
                cur.lit(",")?;
            }
        }
        Ok(Value::Arr(items))
    } else if cur.eat("{") {
        let mut map = BTreeMap::new();
        cur.ws();
        if !cur.eat("}") {
            loop {
                cur.ws();
                let key = cur.string()?;
                cur.ws();
                cur.lit(":")?;
                map.insert(key, value(cur, depth + 1)?);
                cur.ws();
                if cur.eat("}") {
                    break;
                }
                cur.lit(",")?;
            }
        }
        Ok(Value::Obj(map))
    } else if open == Some(b'"') {
        cur.string().map(Value::Str)
    } else if cur.eat("null") {
        Ok(Value::Null)
    } else if cur.eat("true") {
        Ok(Value::Bool(true))
    } else if cur.eat("false") {
        Ok(Value::Bool(false))
    } else {
        cur.f64().map(Value::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaper_roundtrips_every_control_char_quote_and_backslash() {
        let s: String = (0u8..0x20).map(char::from).chain(['"', '\\']).collect();
        let mut out = String::new();
        string(&mut out, &s);
        assert!(out.starts_with("\"\\u0000\\u0001"), "{out}");
        assert!(out.contains("\\u000a\\u000b"), "{out}");
        assert!(out.ends_with("\\u001f\\\"\\\\\""), "{out}");
        assert!(out[1..out.len() - 1].bytes().all(|b| b >= 0x20));
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.string().unwrap(), s);
        cur.end().unwrap();
    }

    #[test]
    fn float_writers_keep_their_conventions() {
        let mut out = String::new();
        f64(&mut out, 2.0);
        out.push(' ');
        f64_or_null(&mut out, 2.0);
        out.push(' ');
        f64_or_null(&mut out, f64::NAN);
        out.push(' ');
        opt_u64(&mut out, None);
        assert_eq!(out, "2.0 2 null null");
    }

    #[test]
    fn cursor_is_strict_and_reports_byte_offsets() {
        let mut cur = Cursor::new("{\"n\":12,\"x\":-1.5e3,\"o\":null}");
        cur.lit("{\"n\":").unwrap();
        assert_eq!(cur.u64().unwrap(), 12);
        cur.lit(",\"x\":").unwrap();
        assert_eq!(cur.f64().unwrap(), -1500.0);
        cur.lit(",\"o\":").unwrap();
        assert_eq!(cur.opt_u64().unwrap(), None);
        assert_eq!(
            cur.end().unwrap_err(),
            "json: expected end of input at byte 27"
        );
        cur.lit("}").unwrap();
        cur.end().unwrap();
        // Multi-byte input around the failure point: offsets, no slicing.
        let text = format!("a{}", "é".repeat(40));
        let mut cur = Cursor::new(&text);
        cur.lit("a").unwrap();
        assert_eq!(cur.lit("x").unwrap_err(), "json: expected \"x\" at byte 1");
        assert_eq!(
            cur.end().unwrap_err(),
            "json: expected end of input at byte 1"
        );
        assert_eq!(Cursor::new("\"x\\ty\"").string().unwrap(), "x\ty");
        assert!(Cursor::new("\"a\u{1}\"").string().is_err());
        assert!(Cursor::new("\"\\q\"").string().is_err());
        assert!(Cursor::new("\"\\ud800\"").string().is_err());
        assert!(Cursor::new("\"\\u+041\"").string().is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("{\"a\": nope}").is_err());
        assert!(parse("[1, 2,]").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = parse(r#"{"s": "a\"b\\cA", "n": -1.5e3, "z": null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\cA"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(v.get("z"), Some(&Value::Null));
    }

    #[test]
    fn value_parser_needs_separators_and_limits_nesting() {
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting deeper than"));
        // A million unclosed brackets: an error, not a stack overflow.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }
}
