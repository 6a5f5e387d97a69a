//! A minimal JSON writer for the one-line pass record (the benchmark
//! depends on nothing beyond the repository's own crates).

use std::fmt::Write;

/// A JSON object under construction, keys in insertion order.
#[derive(Default)]
pub struct Object {
    body: String,
}

impl Object {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&string(key));
        self.body.push(':');
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Object {
        self.key(key);
        if value.is_finite() {
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(self.body, "{value:?}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Object {
        self.key(key);
        self.body.push_str(&string(value));
        self
    }

    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut Object {
        self.key(key);
        let items: Vec<String> = values.iter().map(|v| string(v)).collect();
        let _ = write!(self.body, "[{}]", items.join(","));
        self
    }

    pub fn obj(&mut self, key: &str, value: &Object) -> &mut Object {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }
}

impl std::fmt::Display for Object {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.body)
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_objects_and_escapes() {
        let mut inner = Object::default();
        inner.num("x", 1.5).num("nan", f64::NAN);
        let mut o = Object::default();
        o.str("s", "a\"b\n").obj("in", &inner);
        o.strs("e", &["q".to_string()]);
        assert_eq!(
            o.to_string(),
            r#"{"s":"a\"b\u000a","in":{"x":1.5,"nan":null},"e":["q"]}"#
        );
    }
}
