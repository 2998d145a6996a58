//! The workspace's one JSON reader and string escaper.
//!
//! Chrome trace events and `.mtd` sidecars are small JSON
//! documents written by this workspace; [`parse`] reads them back and
//! [`escape_into`] writes their strings. Numbers keep their text, so a
//! reader can take one as an exact `u64` or as an `f64`.

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    Str(String),
    /// A number, as written.
    Num(String),
    Bool(bool),
    /// Fields in document order.
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    Null,
}

impl Value {
    /// The first field named `key`, if this is an object.
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(n, _)| n == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if it is a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one JSON document: a value with nothing but whitespace after it.
pub fn parse(s: &str) -> Option<Value> {
    let mut p = Parser {
        chars: s.chars().peekable(),
    };
    let value = p.value()?;
    p.skip_ws();
    p.chars.next().is_none().then_some(value)
}

/// Append `s` to `out` as the body of a JSON string: quotes, backslashes
/// and control characters escaped.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    /// Consume `word`, which the next character starts.
    fn keyword(&mut self, word: &str, value: Value) -> Option<Value> {
        for expect in word.chars() {
            if self.chars.next()? != expect {
                return None;
            }
        }
        Some(value)
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match *self.chars.peek()? {
            '{' => self.object(),
            '[' => self.array(),
            '"' => {
                self.chars.next();
                Some(Value::Str(self.string_body()?))
            }
            'n' => self.keyword("null", Value::Null),
            't' => self.keyword("true", Value::Bool(true)),
            'f' => self.keyword("false", Value::Bool(false)),
            c if c.is_ascii_digit() || c == '-' => {
                let mut num = String::new();
                while let Some(&c) = self.chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        num.push(c);
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                // Validate the token; readers reparse it as u64 or f64.
                num.parse::<f64>().ok()?;
                Some(Value::Num(num))
            }
            _ => None,
        }
    }

    /// A string body after the opening quote, consuming the closing quote.
    fn string_body(&mut self) -> Option<String> {
        let mut out = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(out),
                '\\' => match self.chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    '/' => out.push('/'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + self.chars.next()?.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.chars.next(); // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.chars.next();
            return Some(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.chars.next()? != '"' {
                return None;
            }
            let key = self.string_body()?;
            self.skip_ws();
            if self.chars.next()? != ':' {
                return None;
            }
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.chars.next()? {
                ',' => continue,
                '}' => return Some(Value::Object(fields)),
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.chars.next(); // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.chars.next();
            return Some(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next()? {
                ',' => continue,
                ']' => return Some(Value::Array(items)),
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_round_trip() {
        let text = "a\"b\\c\nd\u{1}é";
        let mut doc = String::from("\"");
        escape_into(&mut doc, text);
        doc.push('"');
        assert_eq!(parse(&doc), Some(Value::Str(text.to_string())));
    }

    #[test]
    fn keywords_numbers_and_nesting() {
        let v = parse(r#" {"a": [true, false, null], "n": -1.5e3, "u": 18446744073709551615} "#)
            .unwrap();
        let a = v.field("a").unwrap();
        assert_eq!(
            a,
            &Value::Array(vec![Value::Bool(true), Value::Bool(false), Value::Null])
        );
        assert_eq!(v.field("n").and_then(Value::as_f64), Some(-1500.0));
        assert_eq!(v.field("u").and_then(Value::as_u64), Some(u64::MAX));
        assert_eq!(v.field("n").and_then(Value::as_u64), None);
    }

    #[test]
    fn malformed_documents_rejected() {
        for doc in ["", "{", "[1,]", "{\"a\" 1}", "tru", "nul", "1 2", "\"\\x\""] {
            assert!(parse(doc).is_none(), "{doc:?}");
        }
    }
}
