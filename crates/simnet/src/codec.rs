//! Binary payload codec for the messages nodes exchange, and the JSON
//! length arithmetic that keeps their modelled wire sizes.
//!
//! # Layout
//!
//! A message is a 1-byte variant tag followed by its fields in
//! declaration order:
//!
//! * fixed-width integers little-endian (`usize` as 8 bytes), `f64` as its
//!   IEEE-754 bits, `bool` as one byte `0`/`1`, an IPv4 address as its
//!   four octets;
//! * `Option<T>` as a presence byte `0`/`1`, then `T` when present;
//! * `String` and `Vec<T>` as a `u32` little-endian count, then the UTF-8
//!   bytes or the items.
//!
//! [`decode`] accepts exactly one value spanning the whole input: it
//! rejects truncation, trailing bytes, unknown tags, bool and presence
//! bytes other than `0`/`1`, invalid UTF-8, and counts larger than the
//! bytes left, before allocating for them.
//!
//! # Wire size
//!
//! The simulator's message sizes were calibrated when every payload was
//! compact JSON text. [`Wire::json_len`] reproduces that text's byte
//! length arithmetically — digit counts, escaped string lengths and the
//! `{:?}` length of an `f64` — without writing it, so encoders can keep
//! each packet's on-the-wire size what it was while carrying the shorter
//! binary body.

use std::fmt::{self, Write as _};
use std::net::Ipv4Addr;

/// A value with a binary encoding and a JSON-equivalent size.
pub trait Wire: Sized {
    /// Append the binary encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value; `None` on malformed input.
    fn get(r: &mut Reader<'_>) -> Option<Self>;
    /// Byte length of this value as compact JSON (the vendored
    /// `serde_json::to_vec` of its `Serialize` form).
    fn json_len(&self) -> usize;
}

/// Encode `value` into a fresh buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.put(&mut out);
    out
}

/// Decode one value that spans all of `bytes`.
pub fn decode<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader { buf: bytes };
    let value = T::get(&mut r)?;
    r.buf.is_empty().then_some(value)
}

/// A cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.buf.split_first_chunk::<N>()?;
        self.buf = rest;
        Some(*head)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.buf.split_first()?;
        self.buf = rest;
        Some(b)
    }

    /// Read a `0`/`1` byte.
    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a count prefix. Every encoded item takes at least one byte,
    /// so a count above the bytes left is malformed.
    fn count(&mut self) -> Option<usize> {
        let n = u32::get(self)? as usize;
        (n <= self.buf.len()).then_some(n)
    }
}

/// A length as its `u32` count prefix.
fn count_prefix(len: usize) -> u32 {
    u32::try_from(len).expect("a sequence of 4 Gi items or bytes has no wire encoding")
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Length of `s` as a JSON string literal, quotes and escapes included.
fn json_str_len(s: &str) -> usize {
    2 + s
        .chars()
        .map(|c| match c {
            '"' | '\\' | '\u{8}' | '\u{c}' | '\n' | '\r' | '\t' => 2,
            c if (c as u32) < 0x20 => 6,
            c => c.len_utf8(),
        })
        .sum::<usize>()
}

/// A `fmt::Write` that only counts what is written.
struct Counter(usize);

impl fmt::Write for Counter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Length of an externally tagged struct variant, `{"tag":body}`, given
/// the length of its body.
pub fn json_variant(tag: &str, body: usize) -> usize {
    tag.len() + 5 + body
}

/// Length of a JSON object, accumulated member by member. Keys are plain
/// identifiers, which JSON never escapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonObject {
    len: usize,
    members: usize,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Add a `"key":value` member whose value is `value_len` bytes.
    pub fn member(self, key: &str, value_len: usize) -> JsonObject {
        JsonObject {
            len: self.len + key.len() + 3 + value_len,
            members: self.members + 1,
        }
    }

    /// Add a `"key":value` member.
    pub fn field(self, key: &str, value: &impl Wire) -> JsonObject {
        self.member(key, value.json_len())
    }

    /// Add a member that JSON omits when `None`
    /// (`skip_serializing_if = "Option::is_none"`).
    pub fn skip_none<T: Wire>(self, key: &str, value: &Option<T>) -> JsonObject {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Length of the finished object, braces and commas included.
    pub fn finish(self) -> usize {
        self.len + 2 + self.members.saturating_sub(1)
    }
}

macro_rules! wire_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                r.array().map(<$ty>::from_le_bytes)
            }
            fn json_len(&self) -> usize {
                digits(u64::from(*self))
            }
        }
    )*};
}
wire_uint!(u8, u16, u32, u64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        usize::try_from(u64::get(r)?).ok()
    }
    fn json_len(&self) -> usize {
        digits(*self as u64)
    }
}

impl Wire for i32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.array().map(i32::from_le_bytes)
    }
    fn json_len(&self) -> usize {
        usize::from(*self < 0) + digits(u64::from(self.unsigned_abs()))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        u64::get(r).map(f64::from_bits)
    }
    fn json_len(&self) -> usize {
        if !self.is_finite() {
            return 4; // null
        }
        let mut n = Counter(0);
        write!(n, "{self:?}").expect("counting never fails");
        n.0
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.flag()
    }
    fn json_len(&self) -> usize {
        if *self {
            4
        } else {
            5
        }
    }
}

impl Wire for Ipv4Addr {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.octets());
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.array::<4>().map(Ipv4Addr::from)
    }
    fn json_len(&self) -> usize {
        // A quoted dotted quad.
        2 + 3
            + self
                .octets()
                .iter()
                .map(|&o| digits(u64::from(o)))
                .sum::<usize>()
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        count_prefix(self.len()).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.count()?;
        let (text, rest) = r.buf.split_at(n);
        r.buf = rest;
        String::from_utf8(text.to_vec()).ok()
    }
    fn json_len(&self) -> usize {
        json_str_len(self)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        if r.flag()? {
            T::get(r).map(Some)
        } else {
            Some(None)
        }
    }
    fn json_len(&self) -> usize {
        self.as_ref().map_or(4, Wire::json_len) // null
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        count_prefix(self.len()).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.count()?;
        (0..n).map(|_| T::get(r)).collect()
    }
    fn json_len(&self) -> usize {
        2 + self.len().saturating_sub(1) + self.iter().map(Wire::json_len).sum::<usize>()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::get(r)?, B::get(r)?))
    }
    fn json_len(&self) -> usize {
        // `[a,b]`
        3 + self.0.json_len() + self.1.json_len()
    }
}

/// Implement [`Wire`] for a newtype over a [`Wire`] value; JSON shows the
/// inner value bare.
#[macro_export]
macro_rules! wire_newtype {
    ($($ty:ident),* $(,)?) => {$(
        impl $crate::codec::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $crate::codec::Wire::put(&self.0, out);
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                $crate::codec::Wire::get(r).map($ty)
            }
            fn json_len(&self) -> usize {
                $crate::codec::Wire::json_len(&self.0)
            }
        }
    )*};
}

/// Implement [`Wire`] for a struct with named fields, listed in
/// declaration order. A field is written `name`, `name as "key"` when its
/// JSON key differs, and takes a trailing `if some` when JSON omits it
/// while `None`.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident $(as $key:literal)? $(if $some:ident)?),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Wire::put(&self.$field, out); )*
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                Some($ty { $( $field: $crate::codec::Wire::get(r)?, )* })
            }
            fn json_len(&self) -> usize {
                let o = $crate::codec::JsonObject::new();
                $( let o = $crate::__wire_member!(o, &self.$field, $field $(as $key)? $(if $some)?); )*
                o.finish()
            }
        }
    };
}

/// Implement [`Wire`] for an enum whose variants all have named fields:
/// each row is `tag Variant { fields }`, with `as "Name"` after the
/// variant when its JSON tag differs and fields written as in
/// [`wire_struct!`]. The tag byte leads the encoding.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal $variant:ident $(as $name:literal)? {
            $($field:ident $(as $key:literal)? $(if $some:ident)?),* $(,)?
        }),* $(,)?
    }) => {
        impl $crate::codec::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant { $($field),* } => {
                        out.push($tag);
                        $( $crate::codec::Wire::put($field, out); )*
                    })*
                }
            }
            fn get(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($tag => $ty::$variant { $( $field: $crate::codec::Wire::get(r)?, )* },)*
                    _ => return None,
                })
            }
            fn json_len(&self) -> usize {
                match self {
                    $($ty::$variant { $($field),* } => {
                        let o = $crate::codec::JsonObject::new();
                        $( let o = $crate::__wire_member!(o, $field, $field $(as $key)? $(if $some)?); )*
                        $crate::codec::json_variant($crate::__wire_key!($variant $(as $name)?), o.finish())
                    })*
                }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident as $key:literal) => {
        $key
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_member {
    ($o:ident, $v:expr, $field:ident $(as $key:literal)?) => {
        $o.field($crate::__wire_key!($field $(as $key)?), $v)
    };
    ($o:ident, $v:expr, $field:ident $(as $key:literal)? if some) => {
        $o.skip_none($crate::__wire_key!($field $(as $key)?), $v)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Pair {
        n: u32,
        tag: Option<String>,
    }
    wire_struct!(Pair { n as "k", tag if some });

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        A { x: u8 },
        B { ys: Vec<Pair>, z: Option<Ipv4Addr> },
    }
    wire_enum!(Msg {
        1 A { x },
        2 B as "bee" { ys, z },
    });

    fn samples() -> Vec<Msg> {
        vec![
            Msg::A { x: 7 },
            Msg::B {
                ys: vec![],
                z: None,
            },
            Msg::B {
                ys: vec![
                    Pair { n: 10, tag: None },
                    Pair {
                        n: u32::MAX,
                        tag: Some("a\"b\n\u{1}é".into()),
                    },
                ],
                z: Some(Ipv4Addr::new(10, 200, 0, 1)),
            },
        ]
    }

    #[test]
    fn json_len_matches_hand_written_json() {
        let want = [
            r#"{"A":{"x":7}}"#.len(),
            r#"{"bee":{"ys":[],"z":null}}"#.len(),
            r#"{"bee":{"ys":[{"k":10},{"k":4294967295,"tag":"a\"b\n\u0001é"}],"z":"10.200.0.1"}}"#
                .len(),
        ];
        for (m, want) in samples().iter().zip(want) {
            assert_eq!(m.json_len(), want, "{m:?}");
        }
    }

    #[test]
    fn roundtrip_and_exact_framing() {
        for m in samples() {
            let bytes = encode(&m);
            assert_eq!(decode::<Msg>(&bytes), Some(m.clone()));
            for cut in 0..bytes.len() {
                assert_eq!(decode::<Msg>(&bytes[..cut]), None, "prefix {cut} of {m:?}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(decode::<Msg>(&long), None);
        }
        assert_eq!(decode::<Msg>(&[3, 0]), None, "unknown tag");
        assert_eq!(decode::<bool>(&[2]), None, "bad bool byte");
        assert_eq!(decode::<Option<u8>>(&[2, 0]), None, "bad presence byte");
        assert_eq!(
            decode::<Vec<u8>>(&[5, 0, 0, 0, 1, 2]),
            None,
            "count above the bytes left"
        );
        assert_eq!(decode::<String>(&[1, 0, 0, 0, 0xff]), None, "invalid UTF-8");
    }

    #[test]
    fn number_lengths() {
        for (n, len) in [
            (0u64, 1),
            (9, 1),
            (10, 2),
            (99, 2),
            (100, 3),
            (u64::MAX, 20),
        ] {
            assert_eq!(digits(n), len);
        }
        assert_eq!((-1i32).json_len(), 2);
        assert_eq!(i32::MIN.json_len(), "-2147483648".len());
        for f in [0.0f64, -0.0, 0.1, 1e300, -2.5e-10, 5e-324, 123456.789] {
            assert_eq!(f.json_len(), format!("{f:?}").len());
        }
        assert_eq!(f64::NAN.json_len(), 4);
    }
}
