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
//! | byte blob | `u64` byte length + bytes (nested frames, see [`Writer::put_frame`]) |
//! | word run | `u64` words, little-endian, count carried by the caller ([`Writer::put_words`]) |
//! | [`Bits`] | `u32` width + `ceil(width/64)` `u64` words, little-endian word order |
//! | [`Value`] | tag `u8` (0 scalar, 1 memory) + `Bits`, or `u32` depth + per-element `Bits` |
//! | [`StateSnapshot`] | `u64` time + `u32` count + (string name, `Value`) pairs in name order |
//!
//! ## One pass over every byte
//!
//! Encoding writes each byte once and runs the CRC over it once; the format
//! above is unchanged by how it is produced.
//!
//! * **The kernel.** [`crc32`] is slicing-by-16: sixteen 256-entry tables,
//!   built by a `const fn`, fold sixteen input bytes per step with sixteen
//!   independent lookups instead of a dependent chain of sixteen. Same
//!   polynomial, same value as the bytewise loop (kept as the test oracle).
//! * **Sealed in place.** A [`Writer`] reserves the 17-byte header before
//!   the first payload byte, so [`Writer::into_frame`] patches the header
//!   and appends the trailer to the buffer it already has — the payload is
//!   never copied. The payload CRC runs from register 0 and the header's is
//!   shifted over the payload length and XORed in (CRC is linear), so the
//!   header can be written last.
//! * **Nested frames are never re-read.** [`Writer::put_frame`] writes a
//!   child frame (a tenant inside a fleet) straight into the parent's
//!   buffer. The child's own seal scans its bytes once. The parent does not
//!   scan them again: running the raw CRC register over *any* sealed frame
//!   from the standard preset ends at the residue `0xDEBB20E3`, so by
//!   linearity the register after a child of length `L`, entered with
//!   register `s`, is `(s ^ 0xFFFFFFFF) · x^(8L) mod P ^ 0xDEBB20E3` — one
//!   O(log L) polynomial product (zlib's `multmodp`/`x2nmodp`), whatever the
//!   child's size.
//! * **Decode still checks twice.** [`decode_frame`] validates the whole
//!   parent frame before a byte of it is parsed, and each child is
//!   validated again by whoever decodes it (`Runtime::restore_checkpoint`
//!   for a fleet's tenants). The residue argument only holds for a child
//!   the writer sealed itself; a reader has no such guarantee, and a child
//!   frame must stay self-validating when it is cut out and stored alone.
//!   Decoding gains from the kernel and the bulk [`Reader::get_words`] only.
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
#![forbid(unsafe_code)]

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

/// The IEEE 802.3 polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// The raw register after running over any sealed frame from the preset
/// `0xFFFFFFFF`: the CRC-32 residue.
const RESIDUE: u32 = 0xDEBB_20E3;

/// Input bytes the kernel folds per step.
const SLICES: usize = 16;

/// `TABLES[k][b]` is the register contribution of byte `b` followed by `k`
/// zero bytes; `TABLES[0]` is the classic bytewise table.
const fn crc_tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; SLICES] = crc_tables();

/// Runs the raw CRC register over `bytes` (no preset, no final inversion),
/// sixteen bytes a step.
fn crc_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = bytes.chunks_exact(SLICES);
    for b in &mut blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3 polynomial, the `cksum`/zlib variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(!0, bytes)
}

/// `a · b mod P` over GF(2), both in the reflected representation (bit 31
/// is `x^0`); zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    p
}

/// `X2N[k]` is `x^(2^k) mod P`.
const fn x2n_table() -> [u32; 32] {
    let mut t = [0u32; 32];
    let mut p = 1 << 30; // x^1
    t[0] = p;
    let mut k = 1;
    while k < 32 {
        p = multmodp(p, p);
        t[k] = p;
        k += 1;
    }
    t
}

static X2N: [u32; 32] = x2n_table();

/// The raw register `crc` run over `len` zero bytes: `crc · x^(8·len) mod
/// P`, in O(log len) products (zlib's `x2nmodp`). `x^(2^32) = x mod P`
/// (pinned by a test), so the table index wraps at 32.
fn shift(crc: u32, len: u64) -> u32 {
    let (mut n, mut k, mut p) = (len, 3usize, 1u32 << 31);
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(p, crc)
}

/// The raw register after running from `crc` over a sealed frame of `len`
/// bytes, without reading it: from the preset the frame would end at
/// [`RESIDUE`], and the register is linear in its starting value.
fn step_over_frame(crc: u32, len: usize) -> u32 {
    shift(crc ^ !0, len as u64) ^ RESIDUE
}

// ------------------------------------------------------------------- writer

/// The frame a [`Writer`] is filling: where its header sits and how much of
/// its payload the CRC register has folded.
#[derive(Debug, Clone, Copy)]
struct Open {
    /// Offset of the frame's reserved header in the buffer.
    start: usize,
    /// Buffer offset up to which the payload is folded into `crc`.
    folded: usize,
    /// Raw register over the payload folded so far, started from 0.
    crc: u32,
}

impl Open {
    fn at(start: usize) -> Open {
        Open {
            start,
            folded: start + HEADER_LEN,
            crc: 0,
        }
    }
}

/// Appends little-endian primitives to a checkpoint frame under
/// construction and seals it in place (see the crate docs).
#[derive(Debug)]
pub struct Writer {
    /// Reserved header, payload, and any nested frames, in wire order.
    buf: Vec<u8>,
    /// The innermost frame being written.
    open: Open,
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

impl Writer {
    /// Creates an empty frame writer, its header reserved.
    pub fn new() -> Self {
        Writer {
            buf: vec![0; HEADER_LEN],
            open: Open::at(0),
        }
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

    /// Appends `u64` words, little-endian, in one bulk run (the count is the
    /// caller's to write).
    pub fn put_words(&mut self, words: &[u64]) {
        self.buf.reserve(words.len() * 8);
        for w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Appends a [`Bits`] value: `u32` width + its little-endian words.
    pub fn put_bits(&mut self, b: &Bits) {
        self.put_u32(b.width() as u32);
        self.put_words(b.words());
    }

    /// Appends a nested frame of `kind` as a length-prefixed blob (`u64`
    /// byte length + frame), the payload written by `payload` straight into
    /// this buffer and sealed in place. The bytes are those of
    /// [`Writer::into_frame`] on a fresh writer given the same calls, behind
    /// their length. The nested frame is read once, by its own seal: this
    /// frame's CRC steps over it without reading it (see the crate docs).
    /// Returns the nested frame's length.
    pub fn put_frame(&mut self, kind: u8, payload: impl FnOnce(&mut Writer)) -> usize {
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        let parent = std::mem::replace(&mut self.open, Open::at(self.buf.len()));
        self.buf.extend_from_slice(&[0; HEADER_LEN]);
        payload(self);
        let len = self.seal(kind);
        self.open = parent;
        self.buf[len_at..len_at + 8].copy_from_slice(&(len as u64).to_le_bytes());
        self.fold(len_at + 8);
        self.open.crc = step_over_frame(self.open.crc, len);
        self.open.folded += len;
        len
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

    /// Payload bytes written so far into the frame being filled.
    pub fn len(&self) -> usize {
        self.buf.len() - self.open.start - HEADER_LEN
    }

    /// `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals the frame in place — header patched, CRC trailer appended —
    /// and hands out the buffer: the payload is not copied.
    pub fn into_frame(mut self, kind: u8) -> Vec<u8> {
        self.seal(kind);
        self.buf
    }

    /// Folds the open frame's payload up to buffer offset `end` into its
    /// CRC register.
    fn fold(&mut self, end: usize) {
        self.open.crc = crc_update(self.open.crc, &self.buf[self.open.folded..end]);
        self.open.folded = end;
    }

    /// Seals the open frame: folds the rest of its payload, patches its
    /// header, and appends the CRC of header + payload (the header's
    /// register shifted over the payload, XORed with the payload's).
    /// Returns the frame's length.
    fn seal(&mut self, kind: u8) -> usize {
        self.fold(self.buf.len());
        let Open { start, crc, .. } = self.open;
        let payload_len = (self.buf.len() - start - HEADER_LEN) as u64;
        let header = &mut self.buf[start..start + HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8] = kind;
        header[9..].copy_from_slice(&payload_len.to_le_bytes());
        let crc = !(shift(crc_update(!0, header), payload_len) ^ crc);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.len() - start
    }
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

    /// Reads `n` little-endian `u64` words in one bulk run. The payload must
    /// hold all of them before anything is allocated, so a hostile count is
    /// a typed [`SnapshotError::Truncated`], not an allocation.
    pub fn get_words(&mut self, n: usize) -> SnapshotResult<Vec<u64>> {
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8")))
            .collect())
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
        let words = self.get_words((width as usize).div_ceil(64))?;
        Ok(Bits::from_words(width as usize, words))
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

    /// The bytewise CRC-32 loop the kernel replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// The copying encoder `Writer::into_frame` replaced: header, payload
    /// and trailer assembled in a fresh buffer, CRC'd bytewise.
    fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32_bytewise(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// The old `Writer::put_blob`: `u64` length + the bytes, copied in.
    fn put_blob(w: &mut Writer, bytes: &[u8]) {
        w.put_u64(bytes.len() as u64);
        w.buf.extend_from_slice(bytes);
    }

    /// SplitMix64: a seeded, dependency-free byte source.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn the_sliced_kernel_matches_the_bytewise_oracle() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut rng = Rng(26);
        // Every length up to 1 KiB at every alignment of a 16-byte step...
        let buf = rng.bytes(1024 + SLICES);
        for start in 0..SLICES {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {} len {}", start, len);
            }
        }
        // ...and whole 1 MiB buffers.
        for _ in 0..3 {
            let big = rng.bytes(1 << 20);
            assert_eq!(crc32(&big), crc32_bytewise(&big));
        }
    }

    #[test]
    fn shifting_the_register_is_running_it_over_zeros() {
        // x^(2^32) = x mod P: the X2N table is periodic in 32, which is what
        // lets `shift` wrap its index.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        let mut rng = Rng(7);
        for len in [0usize, 1, 2, 15, 16, 17, 255, 4096, 70_001] {
            let crc = rng.next() as u32;
            assert_eq!(shift(crc, len as u64), crc_update(crc, &vec![0; len]));
        }
    }

    #[test]
    fn frames_sealed_in_place_match_the_copying_encoder() {
        let mut rng = Rng(3);
        for case in 0..64 {
            let (mut w, mut payload) = (Writer::new(), Vec::new());
            for _ in 0..rng.below(40) {
                match rng.below(4) {
                    0 => {
                        let v = rng.next() as u8;
                        w.put_u8(v);
                        payload.push(v);
                    }
                    1 => {
                        let v = rng.next() as u32;
                        w.put_u32(v);
                        payload.extend_from_slice(&v.to_le_bytes());
                    }
                    2 => {
                        let s = "x".repeat(rng.below(9));
                        w.put_str(&s);
                        payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        payload.extend_from_slice(s.as_bytes());
                    }
                    _ => {
                        let words: Vec<u64> = (0..rng.below(300)).map(|_| rng.next()).collect();
                        w.put_words(&words);
                        for v in words {
                            payload.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
            assert_eq!(w.len(), payload.len());
            let kind = [KIND_RUNTIME, KIND_FLEET][case % 2];
            assert_eq!(
                w.into_frame(kind),
                encode_frame(kind, &payload),
                "case {}",
                case
            );
        }
    }

    /// A payload item: raw bytes, or a nested frame of its own items.
    enum Item {
        Bytes(Vec<u8>),
        Frame(u8, Vec<Item>),
    }

    /// Writes `items` through the in-place path.
    fn write_items(w: &mut Writer, items: &[Item]) {
        for item in items {
            match item {
                Item::Bytes(b) => w.buf.extend_from_slice(b),
                Item::Frame(kind, inner) => {
                    w.put_frame(*kind, |w| write_items(w, inner));
                }
            }
        }
    }

    /// Writes `items` through the copying oracle: each nested frame sealed
    /// alone, bytewise, then copied in as a blob.
    fn oracle_items(w: &mut Writer, items: &[Item]) {
        for item in items {
            match item {
                Item::Bytes(b) => w.buf.extend_from_slice(b),
                Item::Frame(kind, inner) => {
                    let mut child = Writer::new();
                    oracle_items(&mut child, inner);
                    let payload = child.buf[HEADER_LEN..].to_vec();
                    put_blob(w, &encode_frame(*kind, &payload));
                }
            }
        }
    }

    fn random_items(rng: &mut Rng, depth: usize, max_bytes: usize) -> Vec<Item> {
        (0..rng.below(5))
            .map(|_| {
                if depth < 2 && rng.below(2) == 0 {
                    Item::Frame(rng.next() as u8, random_items(rng, depth + 1, max_bytes))
                } else {
                    let n = rng.below(max_bytes);
                    Item::Bytes(rng.bytes(n))
                }
            })
            .collect()
    }

    /// The residue step equals a full scan for any nesting: the parent's
    /// CRC never reads a nested frame and still matches the oracle that
    /// CRCs every byte. Sized for release builds (CI's `snapshot-compat`
    /// job); a debug build runs the same shapes smaller.
    #[test]
    fn nested_frames_stepped_over_match_a_full_scan() {
        let (cases, max_bytes) = if cfg!(debug_assertions) {
            (48, 600)
        } else {
            (400, 40_000)
        };
        let mut rng = Rng(0xF1EE7);
        let fixed = |rng: &mut Rng| {
            vec![
                // an empty payload
                vec![],
                // a nested frame with an empty payload, last in its parent
                vec![Item::Frame(KIND_RUNTIME, vec![])],
                // adjacent frames, the last one last in the payload
                vec![
                    Item::Bytes(rng.bytes(3)),
                    Item::Frame(KIND_RUNTIME, vec![Item::Bytes(rng.bytes(100))]),
                    Item::Frame(KIND_RUNTIME, vec![Item::Bytes(rng.bytes(1))]),
                ],
                // a frame nested in a frame, first and last
                vec![Item::Frame(
                    KIND_FLEET,
                    vec![Item::Frame(KIND_RUNTIME, vec![Item::Bytes(rng.bytes(17))])],
                )],
            ]
        };
        let shapes = fixed(&mut rng)
            .into_iter()
            .chain((0..cases).map(|_| random_items(&mut rng, 0, max_bytes)));
        for (case, items) in shapes.enumerate() {
            let mut w = Writer::new();
            write_items(&mut w, &items);
            let frame = w.into_frame(KIND_FLEET);
            let mut o = Writer::new();
            oracle_items(&mut o, &items);
            let payload = o.buf[HEADER_LEN..].to_vec();
            assert_eq!(frame, encode_frame(KIND_FLEET, &payload), "case {}", case);
            assert_eq!(crc_update(!0, &frame), RESIDUE, "case {}", case);
            assert!(decode_frame(&frame).is_ok());
        }
    }

    #[test]
    fn a_hostile_width_without_its_words_is_truncated_before_allocating() {
        // CRC-valid, declares a 2^24-bit scalar (2 MiB of words), carries
        // none: the reader must refuse before reserving anything.
        let mut w = Writer::new();
        w.put_u8(0); // scalar tag
        w.put_u32(MAX_WIDTH_BITS as u32);
        let frame = w.into_frame(KIND_RUNTIME);
        let mut r = Reader::new(decode_frame(&frame).unwrap().1);
        assert!(matches!(
            r.get_value().unwrap_err(),
            SnapshotError::Truncated { needed, available: 5 } if needed == 5 + (1 << 21)
        ));
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(
            r.get_words(usize::MAX).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
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
        w.put_words(&[7, u64::MAX]);
        let nested = w.put_frame(KIND_RUNTIME, |w| w.put_str("inner"));
        let frame = w.into_frame(KIND_RUNTIME);

        let payload = decode_frame_of(&frame, KIND_RUNTIME).unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_words(2).unwrap(), vec![7, u64::MAX]);
        let blob = r.get_blob().unwrap();
        assert_eq!(blob.len(), nested);
        let mut inner = Reader::new(decode_frame_of(blob, KIND_RUNTIME).unwrap());
        assert_eq!(inner.get_str().unwrap(), "inner");
        inner.finish().unwrap();
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
