//! Hand-rolled binary codec for WAL records and checkpoint images.
//!
//! The workspace has no serialization dependency, so — exactly as
//! `wsm_bench::json` hand-rolls its JSON writer — the durability layer
//! hand-rolls its wire format: fixed-width little-endian integers,
//! length-prefixed byte strings, one tag byte per enum variant.  Nothing here
//! is self-describing; the record framing in [`crate::log`] carries the
//! length and checksum that make decoding safe against torn or corrupt
//! input, and every decoder returns `None` instead of panicking on malformed
//! bytes.

use wsm_core::Operation;

/// A fixed, symmetric binary encoding.  `decode` consumes its input slice
/// in-place (advancing it past the value) and must reject, with `None`, any
/// input it could not have produced — the torn-tail detector relies on
/// decoders never panicking and never reading past the slice.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

/// Splits `n` bytes off the front of the input, if present.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Some(head)
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl Codec for usize {
    // Fixed 64-bit on the wire, so files are portable across word sizes.
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(input)?).ok()
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = usize::decode(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = usize::decode(input)?;
        // Guard the pre-allocation: a corrupt length must not OOM before the
        // element decoders notice the input is short.
        let mut out = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Some(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl<K: Codec, V: Codec> Codec for Operation<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Operation::Search(k) => {
                out.push(0);
                k.encode(out);
            }
            Operation::Insert(k, v) => {
                out.push(1);
                k.encode(out);
                v.encode(out);
            }
            Operation::Delete(k) => {
                out.push(2);
                k.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(Operation::Search(K::decode(input)?)),
            1 => Some(Operation::Insert(K::decode(input)?, V::decode(input)?)),
            2 => Some(Operation::Delete(K::decode(input)?)),
            _ => None,
        }
    }
}

/// Encodes a value into a fresh buffer (convenience for tests and framing).
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value that must consume the entire input.
pub fn decode_exact<T: Codec>(mut input: &[u8]) -> Option<T> {
    let v = T::decode(&mut input)?;
    input.is_empty().then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_exact::<T>(&bytes), Some(v));
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn compounds_round_trip() {
        round_trip(String::from("working-set"));
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(vec![255u8, 0, 128]);
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((3u64, String::from("x")));
        round_trip(vec![(1u64, 10u64), (2, 20)]);
    }

    #[test]
    fn operations_round_trip() {
        round_trip(Operation::<u64, u64>::Search(9));
        round_trip(Operation::<u64, u64>::Insert(1, 2));
        round_trip(Operation::<u64, u64>::Delete(3));
        round_trip(Operation::<u64, String>::Insert(1, "v".into()));
    }

    #[test]
    fn truncated_input_is_rejected_not_panicked() {
        let full = encode_to_vec(&Operation::<u64, u64>::Insert(1, 2));
        for cut in 0..full.len() {
            let mut input = &full[..cut];
            assert_eq!(Operation::<u64, u64>::decode(&mut input), None);
        }
    }

    #[test]
    fn bad_tags_and_bad_utf8_are_rejected() {
        assert_eq!(decode_exact::<bool>(&[2]), None);
        assert_eq!(decode_exact::<Option<u8>>(&[9, 1]), None);
        assert_eq!(decode_exact::<Operation<u64, u64>>(&[7]), None);
        let mut bad_string = encode_to_vec(&2u64);
        bad_string.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_exact::<String>(&bad_string), None);
        // A huge length prefix must fail cleanly, not allocate.
        let huge = encode_to_vec(&u64::MAX);
        assert_eq!(decode_exact::<Vec<u64>>(&huge), None);
    }

    #[test]
    fn trailing_bytes_fail_decode_exact() {
        let mut bytes = encode_to_vec(&1u32);
        bytes.push(0);
        assert_eq!(decode_exact::<u32>(&bytes), None);
    }
}
