//! # synergy-snapshot
//!
//! The durable checkpoint wire format behind SYNERGY's transparent state
//! capture: a hand-rolled, versioned, checksummed binary codec for
//! [`StateSnapshot`]s and the tenant/fleet metadata layered around them by
//! `synergy-runtime` and `synergy-hv`. In-memory migration (interpreter ⇄
//! compiled ⇄ hardware) already moves state freely between engines;
//! this crate is what lets that same state survive a *process* boundary — an
//! on-disk checkpoint for crash recovery, a byte stream for cross-node live
//! migration, or a golden file for CI wire-format compatibility gates.
//!
//! Like `synergy-bench`'s `jsonish` reader, the codec is written by hand:
//! the vendored `serde` stand-in derives traits but does not serialize.
//! Everything here is explicit little-endian byte layout.
//!
//! ## Frame layout (version 1)
//!
//! Every checkpoint is one *frame*:
//!
//! | offset | size | field | notes |
//! |--------|------|-------|-------|
//! | 0      | 4    | magic | `b"SYNC"` |
//! | 4      | 4    | version | `u32` LE, currently 1 |
//! | 8      | 1    | kind | [`KIND_RUNTIME`] or [`KIND_FLEET`] |
//! | 9      | 8    | payload length | `u64` LE |
//! | 17     | n    | payload | kind-specific, see the `synergy-runtime` / `synergy-hv` docs |
//! | 17 + n | 4    | CRC-32 | `u32` LE, IEEE polynomial, over bytes `0 .. 17 + n` |
//!
//! Decoding rejects short input ([`SnapshotError::Truncated`]), a wrong magic
//! ([`SnapshotError::BadMagic`]), an unrecognised version
//! ([`SnapshotError::UnknownVersion`]), trailing garbage
//! ([`SnapshotError::TrailingBytes`]), and any checksum mismatch
//! ([`SnapshotError::Corrupt`]) — always with a typed error, never a panic.
//! Payload contents are only parsed after the CRC has validated the frame.
//!
//! ## Primitive encodings
//!
//! | type | encoding |
//! |------|----------|
//! | `u8`/`u32`/`u64` | little-endian, fixed width |
//! | `bool` | one byte, 0 or 1 |
//! | `f64` | `u64` LE of the IEEE-754 bit pattern (bit-exact round trip) |
//! | string | `u32` byte length + UTF-8 bytes |
//! | byte blob | `u64` byte length + bytes (nested frames) |
//! | [`Bits`] | `u32` width + `ceil(width/64)` `u64` words, little-endian word order |
//! | [`Value`] | tag `u8` (0 scalar, 1 memory) + `Bits`, or `u32` depth + per-element `Bits` |
//! | [`StateSnapshot`] | `u64` time + `u32` count + (string name, `Value`) pairs in name order |
//!
//! ## Version policy
//!
//! Any change to the frame header, the primitive encodings, or the
//! runtime/fleet payload layouts bumps [`VERSION`]. Old readers reject new
//! checkpoints with [`SnapshotError::UnknownVersion`] (and vice versa); there
//! is deliberately no silent cross-version decoding. The committed golden
//! checkpoints under `tests/golden/` pin the current version in CI — a bump
//! requires deliberately regenerating them (`cargo run -p synergy-workloads
//! --example showseed -- golden tests/golden`).

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use synergy_interp::{StateSnapshot, Value};
use synergy_vlog::Bits;

/// Magic bytes opening every checkpoint frame.
pub const MAGIC: [u8; 4] = *b"SYNC";

/// Current wire-format version. See the crate docs for the version policy.
pub const VERSION: u32 = 1;

/// Frame kind: a single tenant runtime checkpoint (`synergy-runtime`).
pub const KIND_RUNTIME: u8 = 1;

/// Frame kind: a whole-hypervisor fleet checkpoint (`synergy-hv`).
pub const KIND_FLEET: u8 = 2;

/// Frame header length: magic + version + kind + payload length.
const HEADER_LEN: usize = 4 + 4 + 1 + 8;

/// CRC trailer length.
const TRAILER_LEN: usize = 4;

/// Upper bound on a declared bit width, guarding allocations while parsing.
/// (CRC validation already rejects corruption; this bounds hostile inputs
/// that happen to carry a valid checksum.)
const MAX_WIDTH_BITS: u64 = 1 << 24;

/// Typed decoding failures. Decoding never panics: every malformed input maps
/// to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ends before the encoded structure does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The frame does not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's version is not [`VERSION`] (see the version policy).
    UnknownVersion(u32),
    /// The frame kind differs from what the caller expected.
    WrongKind {
        /// Kind the caller required.
        expected: u8,
        /// Kind found in the frame header.
        found: u8,
    },
    /// The CRC-32 trailer does not match the frame contents.
    Corrupt {
        /// Checksum recorded in the trailer.
        expected: u32,
        /// Checksum computed over the received bytes.
        found: u32,
    },
    /// Bytes remain after the frame's declared end.
    TrailingBytes(usize),
    /// A CRC-valid payload contains a structurally invalid encoding
    /// (bad tag, width over the cap, invalid UTF-8, ...).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "truncated checkpoint: needed {} bytes, only {} available",
                needed, available
            ),
            SnapshotError::BadMagic(m) => write!(f, "bad checkpoint magic {:02x?}", m),
            SnapshotError::UnknownVersion(v) => write!(
                f,
                "unknown checkpoint version {} (this build reads version {})",
                v, VERSION
            ),
            SnapshotError::WrongKind { expected, found } => write!(
                f,
                "wrong checkpoint kind: expected {}, found {}",
                expected, found
            ),
            SnapshotError::Corrupt { expected, found } => write!(
                f,
                "corrupt checkpoint: CRC-32 mismatch (trailer {:08x}, computed {:08x})",
                expected, found
            ),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{} trailing bytes after checkpoint frame", n)
            }
            SnapshotError::Malformed(what) => write!(f, "malformed checkpoint payload: {}", what),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Convenience result alias for codec operations.
pub type SnapshotResult<T> = Result<T, SnapshotError>;

// -------------------------------------------------------------------- crc32

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ------------------------------------------------------------------- writer

/// Appends little-endian primitives to a payload buffer and seals it into a
/// checkpoint frame.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty payload writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an `f64` as the `u64` of its IEEE-754 bit pattern (bit-exact).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string (`u32` byte length).
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob (`u64` byte length), e.g. a nested
    /// frame.
    pub fn put_blob(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a [`Bits`] value: `u32` width + its little-endian words.
    pub fn put_bits(&mut self, b: &Bits) {
        self.put_u32(b.width() as u32);
        for &w in b.words() {
            self.put_u64(w);
        }
    }

    /// Appends a [`Value`]: tag byte + scalar bits or memory elements.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Scalar(b) => {
                self.put_u8(0);
                self.put_bits(b);
            }
            Value::Memory(elems) => {
                self.put_u8(1);
                self.put_u32(elems.len() as u32);
                for e in elems {
                    self.put_bits(e);
                }
            }
        }
    }

    /// Appends a [`StateSnapshot`]: time, entry count, then name/value pairs
    /// in name order (deterministic bytes for identical state).
    pub fn put_state(&mut self, s: &StateSnapshot) {
        self.put_u64(s.time);
        self.put_u32(s.values.len() as u32);
        for (name, value) in &s.values {
            self.put_str(name);
            self.put_value(value);
        }
    }

    /// Current payload length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seals the payload into a framed checkpoint: header, payload, CRC.
    pub fn into_frame(self, kind: u8) -> Vec<u8> {
        encode_frame(kind, &self.buf)
    }
}

/// Wraps a payload in the magic/version/kind/length header and CRC trailer.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a frame end to end (magic, version, length, CRC) and returns its
/// kind and payload. The payload is only handed out once the CRC has passed.
///
/// # Errors
///
/// Every malformed input maps to a typed [`SnapshotError`]; this never
/// panics.
pub fn decode_frame(bytes: &[u8]) -> SnapshotResult<(u8, &[u8])> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN + TRAILER_LEN,
            available: bytes.len(),
        });
    }
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN + TRAILER_LEN,
            available: bytes.len(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(SnapshotError::UnknownVersion(version));
    }
    let kind = bytes[8];
    let payload_len = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
    let total = (HEADER_LEN as u64)
        .saturating_add(payload_len)
        .saturating_add(TRAILER_LEN as u64);
    if (bytes.len() as u64) < total {
        return Err(SnapshotError::Truncated {
            needed: total.min(usize::MAX as u64) as usize,
            available: bytes.len(),
        });
    }
    if (bytes.len() as u64) > total {
        return Err(SnapshotError::TrailingBytes(bytes.len() - total as usize));
    }
    let crc_at = bytes.len() - TRAILER_LEN;
    let expected = u32::from_le_bytes(bytes[crc_at..].try_into().expect("4 bytes"));
    let found = crc32(&bytes[..crc_at]);
    if expected != found {
        return Err(SnapshotError::Corrupt { expected, found });
    }
    Ok((kind, &bytes[HEADER_LEN..crc_at]))
}

/// Like [`decode_frame`] but additionally requires a specific frame kind.
///
/// # Errors
///
/// [`SnapshotError::WrongKind`] on a kind mismatch, plus everything
/// [`decode_frame`] rejects.
pub fn decode_frame_of(bytes: &[u8], expected: u8) -> SnapshotResult<&[u8]> {
    let (kind, payload) = decode_frame(bytes)?;
    if kind != expected {
        return Err(SnapshotError::WrongKind {
            expected,
            found: kind,
        });
    }
    Ok(payload)
}

// ------------------------------------------------------------------- reader

/// Cursor over a CRC-validated payload with typed, bounds-checked reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> SnapshotResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: self.pos.saturating_add(n),
                available: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> SnapshotResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> SnapshotResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> SnapshotResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a bool byte, rejecting values other than 0 and 1.
    pub fn get_bool(&mut self) -> SnapshotResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "bool byte must be 0 or 1, got {}",
                other
            ))),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> SnapshotResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> SnapshotResult<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not valid UTF-8".into()))
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_blob(&mut self) -> SnapshotResult<&'a [u8]> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            // Saturating: a CRC-valid but hostile length (e.g. u64::MAX)
            // must produce a typed error, not a debug-build overflow panic.
            return Err(SnapshotError::Truncated {
                needed: self.pos.saturating_add(len.min(usize::MAX as u64) as usize),
                available: self.buf.len(),
            });
        }
        self.take(len as usize)
    }

    /// Reads an element count and sanity-checks it against the bytes left
    /// (each element occupies at least `min_bytes_each`), so a hostile count
    /// cannot trigger an over-allocation.
    pub fn get_count(&mut self, min_bytes_each: usize) -> SnapshotResult<usize> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_bytes_each.max(1)) > self.remaining() {
            return Err(SnapshotError::Malformed(format!(
                "element count {} exceeds remaining payload",
                n
            )));
        }
        Ok(n)
    }

    /// Reads a [`Bits`] value.
    pub fn get_bits(&mut self) -> SnapshotResult<Bits> {
        let width = self.get_u32()? as u64;
        if width == 0 || width > MAX_WIDTH_BITS {
            return Err(SnapshotError::Malformed(format!(
                "bit width {} outside 1..={}",
                width, MAX_WIDTH_BITS
            )));
        }
        let words = (width as usize).div_ceil(64);
        let mut out = Vec::with_capacity(words);
        for _ in 0..words {
            out.push(self.get_u64()?);
        }
        Ok(Bits::from_words(width as usize, out))
    }

    /// Reads a [`Value`].
    pub fn get_value(&mut self) -> SnapshotResult<Value> {
        match self.get_u8()? {
            0 => Ok(Value::Scalar(self.get_bits()?)),
            1 => {
                let depth = self.get_count(5)?;
                let mut elems = Vec::with_capacity(depth);
                for _ in 0..depth {
                    elems.push(self.get_bits()?);
                }
                Ok(Value::Memory(elems))
            }
            tag => Err(SnapshotError::Malformed(format!(
                "unknown value tag {}",
                tag
            ))),
        }
    }

    /// Reads a [`StateSnapshot`].
    pub fn get_state(&mut self) -> SnapshotResult<StateSnapshot> {
        let time = self.get_u64()?;
        let n = self.get_count(9)?;
        let mut values = BTreeMap::new();
        for _ in 0..n {
            let name = self.get_str()?;
            let value = self.get_value()?;
            values.insert(name, value);
        }
        Ok(StateSnapshot { values, time })
    }

    /// Asserts the payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] if bytes remain.
    pub fn finish(self) -> SnapshotResult<()> {
        if self.remaining() > 0 {
            return Err(SnapshotError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_bool(true);
        w.put_f64(0.1 + 0.2);
        w.put_str("héllo");
        w.put_blob(&[1, 2, 3]);
        let frame = w.into_frame(KIND_RUNTIME);

        let payload = decode_frame_of(&frame, KIND_RUNTIME).unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_blob().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn bits_values_and_snapshots_round_trip() {
        let wide = Bits::from_u128(130, 0x0123_4567_89ab_cdef_u128) // spans 3 words
            .or(&Bits::ones(130).shl(100));
        let snapshot = StateSnapshot {
            time: 42,
            values: [
                ("a".to_string(), Value::Scalar(wide.clone())),
                (
                    "mem".to_string(),
                    Value::Memory(vec![Bits::from_u64(9, 3), Bits::from_u64(9, 511)]),
                ),
            ]
            .into_iter()
            .collect(),
        };
        let mut w = Writer::new();
        w.put_state(&snapshot);
        let frame = w.into_frame(KIND_FLEET);
        let mut r = Reader::new(decode_frame_of(&frame, KIND_FLEET).unwrap());
        let back = r.get_state().unwrap();
        r.finish().unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.values["a"].as_scalar(), &wide);
    }

    #[test]
    fn truncation_at_every_boundary_is_a_typed_error() {
        let mut w = Writer::new();
        w.put_str("payload");
        w.put_u64(7);
        let frame = w.into_frame(KIND_RUNTIME);
        for len in 0..frame.len() {
            let err = decode_frame(&frame[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. }
                ),
                "truncation at {} gave {:?}",
                len,
                err
            );
        }
        assert!(decode_frame(&frame).is_ok());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(0x0102_0304_0506_0708);
        let frame = w.into_frame(KIND_RUNTIME);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {} bit {} was accepted",
                    byte,
                    bit
                );
            }
        }
    }

    #[test]
    fn wrong_kind_version_magic_and_trailing_bytes_are_typed() {
        let frame = Writer::new().into_frame(KIND_RUNTIME);
        assert_eq!(
            decode_frame_of(&frame, KIND_FLEET).unwrap_err(),
            SnapshotError::WrongKind {
                expected: KIND_FLEET,
                found: KIND_RUNTIME
            }
        );

        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame(&bad_magic).unwrap_err(),
            SnapshotError::BadMagic(_)
        ));

        // A version bump must be rejected by this reader — re-seal the frame
        // with a valid CRC so the version check (not the checksum) fires.
        let mut future = frame.clone();
        future[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        let crc_at = future.len() - 4;
        let crc = crc32(&future[..crc_at]);
        future[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&future).unwrap_err(),
            SnapshotError::UnknownVersion(VERSION + 1)
        );

        let mut trailing = frame;
        trailing.push(0);
        assert_eq!(
            decode_frame(&trailing).unwrap_err(),
            SnapshotError::TrailingBytes(1)
        );
    }

    #[test]
    fn hostile_blob_length_in_a_valid_frame_is_a_typed_error_not_a_panic() {
        // A frame can be CRC-valid and still hostile (anyone can compute the
        // checksum): a u64::MAX blob length must not overflow the cursor
        // arithmetic in debug builds.
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // blob "length" with no bytes behind it
        let frame = w.into_frame(KIND_FLEET);
        let mut r = Reader::new(decode_frame(&frame).unwrap().1);
        assert!(matches!(
            r.get_blob().unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn hostile_counts_and_tags_in_a_valid_frame_are_malformed_not_panics() {
        // Hand-craft CRC-valid payloads with bogus structure.
        let mut w = Writer::new();
        w.put_u8(7); // unknown value tag
        let frame = w.into_frame(KIND_RUNTIME);
        let mut r = Reader::new(decode_frame(&frame).unwrap().1);
        assert!(matches!(
            r.get_value().unwrap_err(),
            SnapshotError::Malformed(_)
        ));

        let mut w = Writer::new();
        w.put_u64(0); // snapshot time
        w.put_u32(u32::MAX); // absurd entry count
        let frame = w.into_frame(KIND_RUNTIME);
        let mut r = Reader::new(decode_frame(&frame).unwrap().1);
        assert!(matches!(
            r.get_state().unwrap_err(),
            SnapshotError::Malformed(_)
        ));

        let mut w = Writer::new();
        w.put_u32(0); // zero-width bits
        let frame = w.into_frame(KIND_RUNTIME);
        let mut r = Reader::new(decode_frame(&frame).unwrap().1);
        assert!(matches!(
            r.get_bits().unwrap_err(),
            SnapshotError::Malformed(_)
        ));
    }
}
