//! The workspace's one JSON writer.
//!
//! Every JSON artifact (the provenance event stream, the Chrome trace, the
//! difftest and recovery reports, the `BENCH_*.json` files, the CLI's
//! `--json` output) is built as a [`Json`] value and rendered here, so
//! escaping, separators and layout are decided in one place. Two layouts:
//!
//! * [`Json::compact`]: no whitespace. The event stream is compared
//!   byte-for-byte across thread counts.
//! * [`Json::report`]: for committed artifacts. A container stays on one
//!   line (in compact form) unless an array of containers sits somewhere
//!   inside it; a container that breaks puts each member on its own line,
//!   `"key": value`, indented two spaces per level. The root always breaks.
//!
//! Wall-clock and scheduling-dependent values go under one `"volatile"`
//! key ([`Json::volatile`]); a determinism check compares two runs after
//! `jq -c 'del(.. | .volatile?)'`. Stats types rendered in more than one
//! place have one `From<&T> for Json` next to their definition
//! ([`RecoveryCounts`]' is here: its crate sits below this one).

use std::fmt::Write as _;

use njc_recover::RecoveryCounts;

/// Builds a [`Json`] object from `"key": value` pairs, in order; each value
/// goes through `Json::from`.
///
/// ```
/// use njc_observe::json_obj;
/// let v = json_obj! {"ev": "origin", "id": 3u64};
/// assert_eq!(v.compact(), r#"{"ev":"origin","id":3}"#);
/// ```
#[macro_export]
macro_rules! json_obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::Json::object()$(.with($key, $value))*
    };
}

/// A JSON value. Objects keep their members in insertion order, which is
/// the order they are rendered in.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer (wide enough for every `u64` and `i64` counter).
    Int(i128),
    /// A float printed with the given number of decimal places
    /// (`{:.N}`); non-finite values render as `null`.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends the member `key: value` to an object.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(members) => members.push((key.into(), value.into())),
            other => panic!("Json::with on a non-object: {other:?}"),
        }
        self
    }

    /// Appends `key: value` when `value` is present; omits the key
    /// otherwise.
    #[must_use]
    pub fn with_opt<T: Into<Json>>(self, key: impl Into<String>, value: Option<T>) -> Json {
        match value {
            Some(v) => self.with(key, v),
            None => self,
        }
    }

    /// Appends the `"volatile"` member: wall-clock and scheduling-dependent
    /// data that determinism checks delete before comparing two runs.
    #[must_use]
    pub fn volatile(self, value: impl Into<Json>) -> Json {
        self.with("volatile", value)
    }

    /// An array of `items`.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }

    /// An object of `members`, in iteration order.
    pub fn map<K: Into<String>, V: Into<Json>>(members: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// The compact rendering: no whitespace, no trailing newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The report rendering (see the module docs), newline-terminated.
    pub fn report(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Whether the report form spreads this value over several lines.
    fn breaks(&self) -> bool {
        match self {
            Json::Array(items) => items
                .iter()
                .any(|v| matches!(v, Json::Array(_) | Json::Object(_))),
            Json::Object(members) => members.iter().any(|(_, v)| v.breaks()),
            _ => false,
        }
    }

    /// Writes `self`; `depth` is `Some` when it breaks over lines at that
    /// indentation level, `None` for compact form.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Fixed(x, places) if x.is_finite() => {
                let _ = write!(out, "{x:.places$}");
            }
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => {
                write_members(out, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Object(members) => write_members(
                out,
                depth,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes a container's members between `open` and `close`: comma
/// separated, and one per line (indented, with `": "` after a key) when
/// `depth` is `Some`.
fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    let mut any = false;
    for (key, v) in members {
        if any {
            out.push(',');
        }
        any = true;
        if let Some(d) = depth {
            newline(out, d + 1);
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        v.write(out, depth.filter(|_| v.breaks()).map(|d| d + 1));
    }
    if let (Some(d), true) = (depth, any) {
        newline(out, d);
    }
    out.push(close);
}

/// The one string escaper: `"` and `\` are backslash-escaped, `\n`, `\r`
/// and `\t` use their short forms, other control characters `\u00XX`;
/// everything else (non-ASCII included) passes through as UTF-8.
fn write_str(out: &mut String, s: &str) {
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

macro_rules! from {
    ($($t:ty => |$x:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $e
            }
        }
    )*};
}
from! {
    bool => |b| Json::Bool(b);
    u32 => |n| Json::Int(n.into());
    u64 => |n| Json::Int(n.into());
    i64 => |n| Json::Int(n.into());
    usize => |n| Json::Int(n as i128);
    &str => |s| Json::Str(s.to_string());
    String => |s| Json::Str(s);
    &String => |s| Json::Str(s.clone());
}

impl From<&RecoveryCounts> for Json {
    fn from(c: &RecoveryCounts) -> Json {
        json_obj! {
            "strict": c.strict, "nullobject": c.null_object, "skipeffect": c.skip_effect,
            "total": c.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_unicode_passes_through() {
        let s = Json::from("q\"b\\n\nt\tc\u{1}é→");
        assert_eq!(s.compact(), "\"q\\\"b\\\\n\\nt\\tc\\u0001é→\"");
    }

    #[test]
    fn fixed_precision_floats() {
        assert_eq!(Json::Fixed(1379.00283, 4).compact(), "1379.0028");
        assert_eq!(Json::Fixed(23.2751, 3).compact(), "23.275");
        assert_eq!(Json::Fixed(2.0, 4).compact(), "2.0000");
        assert_eq!(Json::Fixed(f64::NAN, 4).compact(), "null");
    }

    #[test]
    fn empty_containers() {
        let v = json_obj! {"a": Json::array(Vec::<Json>::new()), "o": Json::object()};
        assert_eq!(v.compact(), "{\"a\":[],\"o\":{}}");
        assert_eq!(v.report(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
        assert_eq!(Json::object().report(), "{}\n");
    }

    #[test]
    fn both_layouts_on_a_nested_value() {
        let rows = Json::array([json_obj! {"x": 1u64}, Json::from(true)]);
        let v = json_obj! {"n": 3u64, "rows": rows, "flat": Json::array([1u64, 2])}.volatile(
            json_obj! {"wall_ms": Json::Fixed(1.5, 3), "cache": json_obj! {"hits": 0u64}},
        );
        assert_eq!(
            v.compact(),
            "{\"n\":3,\"rows\":[{\"x\":1},true],\"flat\":[1,2],\
             \"volatile\":{\"wall_ms\":1.500,\"cache\":{\"hits\":0}}}"
        );
        assert_eq!(
            v.report(),
            "{\n  \"n\": 3,\n  \"rows\": [\n    {\"x\":1},\n    true\n  ],\n  \"flat\": [1,2],\n  \
             \"volatile\": {\"wall_ms\":1.500,\"cache\":{\"hits\":0}}\n}\n"
        );
        // A container breaks when an array of containers sits anywhere
        // below it.
        let deep = json_obj! {"outer": json_obj! {"rows": v.clone()}};
        assert!(deep.report().contains("  \"outer\": {\n    \"rows\": {\n"));
    }

    #[test]
    fn recovery_counts_convert_with_total() {
        let c = RecoveryCounts {
            strict: 1,
            null_object: 2,
            skip_effect: 0,
        };
        assert_eq!(
            Json::from(&c).compact(),
            "{\"strict\":1,\"nullobject\":2,\"skipeffect\":0,\"total\":3}"
        );
    }
}
