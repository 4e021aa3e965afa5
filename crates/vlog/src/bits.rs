//! Arbitrary-width two-state bit vectors.
//!
//! [`Bits`] is the value type used throughout the SYNERGY reproduction for wire and
//! register contents. It models Verilog's packed vectors with two-state (0/1) logic;
//! see `DESIGN.md` for why four-state logic was not needed for the paper's
//! evaluation. Values carry an explicit bit width and all arithmetic wraps to that
//! width, matching the semantics of Verilog expressions once widths are resolved.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};

/// An arbitrary-width, two-state (0/1) bit vector.
///
/// The width is fixed at construction; operations that combine two values
/// (addition, bitwise ops, comparison) extend the narrower operand with zeros,
/// which matches Verilog's unsigned expression semantics after width resolution.
///
/// # Examples
///
/// ```
/// use synergy_vlog::Bits;
///
/// let a = Bits::from_u64(32, 40);
/// let b = Bits::from_u64(32, 2);
/// assert_eq!(a.add(&b).to_u64(), 42);
/// assert_eq!(a.width(), 32);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bits {
    /// Width in bits. Zero-width values are normalised to width 1.
    width: usize,
    /// Little-endian 64-bit words; bits above `width` are always zero.
    words: Vec<u64>,
}

fn words_for(width: usize) -> usize {
    width.div_ceil(64)
}

impl Bits {
    /// Creates a zero value of the given width.
    ///
    /// A requested width of 0 is normalised to 1, mirroring how Verilog treats
    /// degenerate ranges.
    pub fn zero(width: usize) -> Self {
        let width = width.max(1);
        Bits {
            width,
            words: vec![0; words_for(width)],
        }
    }

    /// Creates a value of the given width with every bit set.
    pub fn ones(width: usize) -> Self {
        let mut b = Bits::zero(width);
        for w in b.words.iter_mut() {
            *w = u64::MAX;
        }
        b.mask_top();
        b
    }

    /// Creates a value from the low bits of `v`, truncated or zero-extended to `width`.
    pub fn from_u64(width: usize, v: u64) -> Self {
        let mut b = Bits::zero(width);
        b.words[0] = v;
        b.mask_top();
        b
    }

    /// Creates a value from a `u128`, truncated or zero-extended to `width`.
    pub fn from_u128(width: usize, v: u128) -> Self {
        let mut b = Bits::zero(width);
        b.words[0] = v as u64;
        if b.words.len() > 1 {
            b.words[1] = (v >> 64) as u64;
        }
        b.mask_top();
        b
    }

    /// Creates a single-bit value from a boolean.
    pub fn from_bool(v: bool) -> Self {
        Bits::from_u64(1, v as u64)
    }

    /// Creates a value from raw little-endian words.
    pub fn from_words(width: usize, words: Vec<u64>) -> Self {
        let width = width.max(1);
        let mut b = Bits { width, words };
        b.words.resize(words_for(width), 0);
        b.mask_top();
        b
    }

    /// The width of this value in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// A view of the underlying little-endian words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }

    /// The low 64 bits of the value.
    pub fn to_u64(&self) -> u64 {
        self.words[0]
    }

    /// The low 128 bits of the value.
    pub fn to_u128(&self) -> u128 {
        let lo = self.words[0] as u128;
        let hi = if self.words.len() > 1 {
            self.words[1] as u128
        } else {
            0
        };
        (hi << 64) | lo
    }

    /// `true` if any bit is set (Verilog truthiness).
    pub fn to_bool(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        !self.to_bool()
    }

    /// Returns the bit at `idx`, or `false` if out of range.
    pub fn bit(&self, idx: usize) -> bool {
        if idx >= self.width {
            return false;
        }
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets the bit at `idx`. Bits outside the width are ignored.
    pub fn set_bit(&mut self, idx: usize, v: bool) {
        if idx >= self.width {
            return;
        }
        let w = idx / 64;
        let m = 1u64 << (idx % 64);
        if v {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Returns a copy truncated or zero-extended to `width`.
    pub fn resize(&self, width: usize) -> Bits {
        let width = width.max(1);
        let mut b = Bits::zero(width);
        let n = b.words.len().min(self.words.len());
        b.words[..n].copy_from_slice(&self.words[..n]);
        b.mask_top();
        b
    }

    /// The 64 bits starting at bit `pos`; bits beyond the width read as zero.
    fn word_at(&self, pos: usize) -> u64 {
        let (i, b) = (pos / 64, pos % 64);
        let lo = self.words.get(i).map_or(0, |w| w >> b);
        let hi = match b {
            0 => 0,
            _ => self.words.get(i + 1).map_or(0, |w| w << (64 - b)),
        };
        lo | hi
    }

    /// Sets every bit from `from` up to the width.
    fn set_ones_from(&mut self, from: usize) {
        if from < self.width {
            self.words[from / 64] |= u64::MAX << (from % 64);
            for w in &mut self.words[from / 64 + 1..] {
                *w = u64::MAX;
            }
            self.mask_top();
        }
    }

    /// Returns a copy sign-extended (from its own top bit) to `width`.
    pub fn sign_extend(&self, width: usize) -> Bits {
        let mut b = self.resize(width);
        if self.bit(self.width - 1) {
            b.set_ones_from(self.width);
        }
        b
    }

    /// Extracts the inclusive bit range `[hi:lo]` as a new value of width `hi - lo + 1`.
    ///
    /// Bits beyond this value's width read as zero.
    pub fn slice(&self, hi: usize, lo: usize) -> Bits {
        assert!(hi >= lo, "slice hi must be >= lo");
        let mut out = Bits::zero(hi - lo + 1);
        for (i, w) in out.words.iter_mut().enumerate() {
            *w = self.word_at(lo + 64 * i);
        }
        out.mask_top();
        out
    }

    /// Writes `val` into the inclusive bit range `[hi:lo]` of `self`.
    pub fn set_slice(&mut self, hi: usize, lo: usize, val: &Bits) {
        assert!(hi >= lo, "slice hi must be >= lo");
        if lo >= self.width {
            return;
        }
        let hi = hi.min(self.width - 1);
        for i in lo / 64..=hi / 64 {
            let base = 64 * i;
            let mask =
                (u64::MAX << lo.saturating_sub(base)) & (u64::MAX >> (63 - (hi - base).min(63)));
            let v = match base.checked_sub(lo) {
                Some(from) => val.word_at(from),
                None => val.words[0] << (lo - base),
            };
            self.words[i] = (self.words[i] & !mask) | (v & mask);
        }
    }

    /// Concatenates `{self, rhs}` — `self` occupies the high bits, as in Verilog.
    pub fn concat(&self, rhs: &Bits) -> Bits {
        let mut out = rhs.resize(self.width + rhs.width);
        out.set_slice(out.width - 1, rhs.width, self);
        out
    }

    /// Replicates the value `n` times, as in `{n{expr}}`.
    pub fn replicate(&self, n: usize) -> Bits {
        let mut out = Bits::zero(self.width * n);
        for k in 0..n {
            out.set_slice((k + 1) * self.width - 1, k * self.width, self);
        }
        out
    }

    fn binary_width(&self, rhs: &Bits) -> usize {
        self.width.max(rhs.width)
    }

    /// Wrapping addition at the wider operand's width.
    pub fn add(&self, rhs: &Bits) -> Bits {
        let w = self.binary_width(rhs);
        let a = self.resize(w);
        let b = rhs.resize(w);
        let mut out = Bits::zero(w);
        let mut carry = 0u64;
        for i in 0..out.words.len() {
            let (s1, c1) = a.words[i].overflowing_add(b.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask_top();
        out
    }

    /// Wrapping subtraction at the wider operand's width.
    pub fn sub(&self, rhs: &Bits) -> Bits {
        let w = self.binary_width(rhs);
        self.add(&rhs.resize(w).not().add(&Bits::from_u64(w, 1)))
            .resize(w)
    }

    /// Two's-complement negation at this value's width.
    pub fn neg(&self) -> Bits {
        Bits::zero(self.width).sub(self)
    }

    /// Wrapping multiplication at the wider operand's width.
    pub fn mul(&self, rhs: &Bits) -> Bits {
        let w = self.binary_width(rhs);
        let a = self.resize(w);
        let b = rhs.resize(w);
        let mut out = Bits::zero(w);
        for (i, &aw) in a.words.iter().enumerate() {
            if aw == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bw) in b.words.iter().enumerate() {
                if i + j >= out.words.len() {
                    break;
                }
                let cur = out.words[i + j] as u128 + (aw as u128) * (bw as u128) + carry;
                out.words[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        out.mask_top();
        out
    }

    /// Unsigned division; division by zero yields all-ones, as many simulators do.
    pub fn div(&self, rhs: &Bits) -> Bits {
        let w = self.binary_width(rhs);
        if rhs.is_zero() {
            return Bits::ones(w);
        }
        if w <= 128 {
            return Bits::from_u128(w, self.to_u128() / rhs.to_u128());
        }
        Bits::from_words(w, divmod(&self.words, &rhs.words).0)
    }

    /// Unsigned remainder; remainder by zero yields the dividend.
    pub fn rem(&self, rhs: &Bits) -> Bits {
        let w = self.binary_width(rhs);
        if rhs.is_zero() {
            return self.resize(w);
        }
        if w <= 128 {
            return Bits::from_u128(w, self.to_u128() % rhs.to_u128());
        }
        Bits::from_words(w, divmod(&self.words, &rhs.words).1)
    }

    /// Bitwise AND at the wider operand's width.
    pub fn and(&self, rhs: &Bits) -> Bits {
        self.zip(rhs, |a, b| a & b)
    }

    /// Bitwise OR at the wider operand's width.
    pub fn or(&self, rhs: &Bits) -> Bits {
        self.zip(rhs, |a, b| a | b)
    }

    /// Bitwise XOR at the wider operand's width.
    pub fn xor(&self, rhs: &Bits) -> Bits {
        self.zip(rhs, |a, b| a ^ b)
    }

    fn zip(&self, rhs: &Bits, f: impl Fn(u64, u64) -> u64) -> Bits {
        let w = self.binary_width(rhs);
        let a = self.resize(w);
        let b = rhs.resize(w);
        let mut out = Bits::zero(w);
        for i in 0..out.words.len() {
            out.words[i] = f(a.words[i], b.words[i]);
        }
        out.mask_top();
        out
    }

    /// Bitwise NOT at this value's width.
    pub fn not(&self) -> Bits {
        let mut out = self.clone();
        for w in out.words.iter_mut() {
            *w = !*w;
        }
        out.mask_top();
        out
    }

    /// Logical shift left by `n`; bits shifted past the width are lost.
    pub fn shl(&self, n: usize) -> Bits {
        let mut out = Bits::zero(self.width);
        if n < self.width {
            out.set_slice(self.width - 1, n, self);
        }
        out
    }

    /// Logical shift right by `n`.
    pub fn shr(&self, n: usize) -> Bits {
        if n < self.width {
            self.slice(n + self.width - 1, n)
        } else {
            Bits::zero(self.width)
        }
    }

    /// Arithmetic (sign-preserving) shift right by `n`.
    pub fn ashr(&self, n: usize) -> Bits {
        let mut out = self.shr(n);
        if self.bit(self.width - 1) {
            out.set_ones_from(self.width.saturating_sub(n));
        }
        out
    }

    /// Unsigned comparison of the numeric values (widths need not match).
    pub fn ucmp(&self, rhs: &Bits) -> Ordering {
        let w = self.binary_width(rhs);
        let a = self.resize(w);
        let b = rhs.resize(w);
        for i in (0..a.words.len()).rev() {
            match a.words[i].cmp(&b.words[i]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Signed two's-complement comparison at the wider operand's width.
    pub fn scmp(&self, rhs: &Bits) -> Ordering {
        let w = self.binary_width(rhs);
        let a = self.sign_extend(w);
        let b = rhs.sign_extend(w);
        let an = a.bit(w - 1);
        let bn = b.bit(w - 1);
        match (an, bn) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => a.ucmp(&b),
        }
    }

    /// Reduction AND: 1 iff every bit is set.
    pub fn reduce_and(&self) -> bool {
        self.words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            == self.width
    }

    /// Reduction OR: 1 iff any bit is set.
    pub fn reduce_or(&self) -> bool {
        self.to_bool()
    }

    /// Reduction XOR: parity of the set bits.
    pub fn reduce_xor(&self) -> bool {
        self.words.iter().map(|w| w.count_ones()).sum::<u32>() % 2 == 1
    }

    /// The number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Parses the numeric part of a Verilog literal in the given base.
    ///
    /// Underscores are ignored. Returns `None` on an invalid digit.
    pub fn parse_radix(width: usize, base: u32, digits: &str) -> Option<Bits> {
        let mut out = Bits::zero(width);
        let shift = match base {
            2 => 1,
            8 => 3,
            16 => 4,
            10 => 0,
            _ => return None,
        };
        let digits = digits.chars().filter(|&ch| ch != '_');
        if base == 10 {
            for ch in digits {
                mul_add(&mut out.words, 10, ch.to_digit(10)? as u64);
            }
        } else {
            // The last digit lands at bit 0; an octal digit may straddle a limb.
            for (k, ch) in digits.rev().enumerate() {
                let (d, pos) = (ch.to_digit(base)? as u64, k * shift);
                if pos < out.width {
                    let (i, b) = (pos / 64, pos % 64);
                    out.words[i] |= d << b;
                    if b + shift > 64 && i + 1 < out.words.len() {
                        out.words[i + 1] |= d >> (64 - b);
                    }
                }
            }
        }
        out.mask_top();
        Some(out)
    }

    /// Renders the value as a lowercase hexadecimal string without a prefix.
    pub fn to_hex_string(&self) -> String {
        (0..self.width.div_ceil(4))
            .rev()
            .map(|i| {
                let nib = (self.words[i / 16] >> (i % 16 * 4)) & 0xf;
                std::char::from_digit(nib as u32, 16).expect("a nibble is a hex digit")
            })
            .collect()
    }

    /// Renders the value as an unsigned decimal string.
    pub fn to_dec_string(&self) -> String {
        if self.width <= 128 {
            return format!("{}", self.to_u128());
        }
        // Short division by 10^19: nineteen digits per pass over the limbs.
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut limbs = self.words.clone();
        let mut chunks = Vec::new();
        loop {
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            if limbs.is_empty() {
                break;
            }
            chunks.push(div_limbs(&mut limbs, CHUNK));
        }
        let mut s = chunks.pop().unwrap_or(0).to_string();
        for c in chunks.iter().rev() {
            write!(s, "{:019}", c).expect("writing to a String cannot fail");
        }
        s
    }
}

/// Multiplies little-endian `limbs` by `m` and adds `a` in place, dropping
/// the carry out of the top limb.
fn mul_add(limbs: &mut [u64], m: u64, a: u64) {
    let mut carry = a as u128;
    for l in limbs {
        let cur = *l as u128 * m as u128 + carry;
        *l = cur as u64;
        carry = cur >> 64;
    }
}

/// Divides little-endian `limbs` in place by a non-zero `d` and returns the
/// remainder.
fn div_limbs(limbs: &mut [u64], d: u64) -> u64 {
    let mut r = 0u128;
    for l in limbs.iter_mut().rev() {
        let cur = (r << 64) | *l as u128;
        *l = (cur / d as u128) as u64;
        r = cur % d as u128;
    }
    r as u64
}

/// The quotient and remainder of `n / d` over little-endian limbs, each as
/// many limbs as `n`: Knuth's Algorithm D (TAOCP vol. 2, §4.3.1) with u64
/// digits and u128 intermediates. `d` must be non-zero.
fn divmod(n: &[u64], d: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let len = |x: &[u64]| x.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    let (nl, dl) = (len(n), len(d));
    let mut q = vec![0; n.len()];
    if nl < dl {
        return (q, n.to_vec());
    }
    if dl == 1 {
        q.copy_from_slice(n);
        let mut r = vec![0; n.len()];
        r[0] = div_limbs(&mut q[..nl], d[0]);
        return (q, r);
    }
    // D1: normalise so the divisor's top limb has its top bit set.
    let s = d[dl - 1].leading_zeros();
    let shifted = |x: &[u64], i: usize| match (s, i) {
        (0, _) => x[i],
        (_, 0) => x[0] << s,
        _ => x[i] << s | x[i - 1] >> (64 - s),
    };
    let dn: Vec<u64> = (0..dl).map(|i| shifted(d, i)).collect();
    let mut un: Vec<u64> = (0..nl).map(|i| shifted(n, i)).collect();
    un.push(if s == 0 { 0 } else { n[nl - 1] >> (64 - s) });
    let (top, next) = (dn[dl - 1] as u128, dn[dl - 2] as u128);
    const B: u128 = 1 << 64;
    for j in (0..=nl - dl).rev() {
        // D3: estimate the quotient digit from the top two limbs, then
        // correct it with the next one; it is then at most one too large.
        let num = (un[j + dl] as u128) << 64 | un[j + dl - 1] as u128;
        let (mut qhat, mut rhat) = (num / top, num % top);
        while qhat >= B || qhat * next > (rhat << 64 | un[j + dl - 2] as u128) {
            qhat -= 1;
            rhat += top;
            if rhat >= B {
                break;
            }
        }
        // D4: multiply and subtract.
        let (mut carry, mut borrow) = (0u128, false);
        for i in 0..=dl {
            let p = qhat * *dn.get(i).unwrap_or(&0) as u128 + carry;
            carry = p >> 64;
            let (t, b1) = un[i + j].overflowing_sub(p as u64);
            let (t, b2) = t.overflowing_sub(borrow as u64);
            un[i + j] = t;
            borrow = b1 || b2;
        }
        // D6: the estimate was one too large, so add the divisor back.
        if borrow {
            qhat -= 1;
            let mut c = 0u128;
            for i in 0..dl {
                let t = un[i + j] as u128 + dn[i] as u128 + c;
                un[i + j] = t as u64;
                c = t >> 64;
            }
            un[j + dl] = un[j + dl].wrapping_add(c as u64);
        }
        q[j] = qhat as u64;
    }
    // D8: the remainder is the low limbs, shifted back.
    let mut r = vec![0; n.len()];
    for i in 0..dl {
        r[i] = if s == 0 {
            un[i]
        } else {
            un[i] >> s | un[i + 1] << (64 - s)
        };
    }
    (q, r)
}

impl Default for Bits {
    fn default() -> Self {
        Bits::zero(1)
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{}", self.width, self.to_hex_string())
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dec_string())
    }
}

impl fmt::LowerHex for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex_string())
    }
}

impl fmt::Binary for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::with_capacity(self.width);
        for i in (0..self.width).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        write!(f, "{}", s)
    }
}

impl From<bool> for Bits {
    fn from(v: bool) -> Self {
        Bits::from_bool(v)
    }
}

impl From<u64> for Bits {
    fn from(v: u64) -> Self {
        Bits::from_u64(64, v)
    }
}

impl PartialOrd for Bits {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bits {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ucmp(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_width() {
        let b = Bits::zero(33);
        assert_eq!(b.width(), 33);
        assert!(b.is_zero());
        assert_eq!(Bits::zero(0).width(), 1);
    }

    #[test]
    fn from_and_to_u64() {
        let b = Bits::from_u64(8, 0x1ff);
        assert_eq!(b.to_u64(), 0xff, "value is truncated to width");
    }

    #[test]
    fn wide_values_round_trip() {
        let v: u128 = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210;
        let b = Bits::from_u128(128, v);
        assert_eq!(b.to_u128(), v);
    }

    #[test]
    fn add_wraps_at_width() {
        let a = Bits::from_u64(8, 250);
        let b = Bits::from_u64(8, 10);
        assert_eq!(a.add(&b).to_u64(), 4);
    }

    #[test]
    fn add_carries_across_words() {
        let a = Bits::from_u128(128, u64::MAX as u128);
        let b = Bits::from_u64(128, 1);
        assert_eq!(a.add(&b).to_u128(), (u64::MAX as u128) + 1);
    }

    #[test]
    fn sub_and_neg() {
        let a = Bits::from_u64(16, 5);
        let b = Bits::from_u64(16, 7);
        assert_eq!(a.sub(&b).to_u64(), 0xfffe);
        assert_eq!(b.sub(&a).to_u64(), 2);
        assert_eq!(a.neg().to_u64(), 0xfffb);
    }

    #[test]
    fn mul_wide() {
        let a = Bits::from_u64(64, u32::MAX as u64);
        let b = Bits::from_u64(64, u32::MAX as u64);
        assert_eq!(a.mul(&b).to_u64(), (u32::MAX as u64) * (u32::MAX as u64));
    }

    #[test]
    fn div_rem_basics() {
        let a = Bits::from_u64(32, 100);
        let b = Bits::from_u64(32, 7);
        assert_eq!(a.div(&b).to_u64(), 14);
        assert_eq!(a.rem(&b).to_u64(), 2);
        assert_eq!(a.div(&Bits::zero(32)).to_u64(), u32::MAX as u64);
    }

    #[test]
    fn div_wide_long_division() {
        let a = Bits::from_u128(200, 1u128 << 100);
        let b = Bits::from_u64(200, 3);
        let q = a.div(&b);
        let expected = (1u128 << 100) / 3;
        assert_eq!(q.to_u128(), expected);
    }

    #[test]
    fn bitwise_ops() {
        let a = Bits::from_u64(8, 0b1100);
        let b = Bits::from_u64(8, 0b1010);
        assert_eq!(a.and(&b).to_u64(), 0b1000);
        assert_eq!(a.or(&b).to_u64(), 0b1110);
        assert_eq!(a.xor(&b).to_u64(), 0b0110);
        assert_eq!(a.not().to_u64(), 0xf3);
    }

    #[test]
    fn shifts() {
        let a = Bits::from_u64(8, 0b1001_0001);
        assert_eq!(a.shl(1).to_u64(), 0b0010_0010);
        assert_eq!(a.shr(4).to_u64(), 0b1001);
        assert_eq!(a.ashr(4).to_u64(), 0b1111_1001);
        assert_eq!(a.shr(100).to_u64(), 0);
    }

    #[test]
    fn slicing_and_concat() {
        let a = Bits::from_u64(16, 0xabcd);
        assert_eq!(a.slice(15, 8).to_u64(), 0xab);
        assert_eq!(a.slice(7, 0).to_u64(), 0xcd);
        let c = a.slice(15, 8).concat(&a.slice(7, 0));
        assert_eq!(c.to_u64(), 0xabcd);
        assert_eq!(c.width(), 16);
    }

    #[test]
    fn set_slice_updates_range() {
        let mut a = Bits::zero(16);
        a.set_slice(11, 4, &Bits::from_u64(8, 0xff));
        assert_eq!(a.to_u64(), 0x0ff0);
    }

    #[test]
    fn replicate_builds_patterns() {
        let a = Bits::from_u64(2, 0b10);
        assert_eq!(a.replicate(4).to_u64(), 0b10101010);
        assert_eq!(a.replicate(4).width(), 8);
    }

    #[test]
    fn comparisons() {
        let a = Bits::from_u64(8, 200);
        let b = Bits::from_u64(8, 100);
        assert_eq!(a.ucmp(&b), Ordering::Greater);
        // 200 as signed 8-bit is negative.
        assert_eq!(a.scmp(&b), Ordering::Less);
    }

    #[test]
    fn reductions() {
        assert!(Bits::ones(7).reduce_and());
        assert!(!Bits::from_u64(7, 0b0111111).reduce_and());
        assert!(Bits::from_u64(7, 0b1).reduce_or());
        assert!(!Bits::from_u64(7, 0b11).reduce_xor());
        assert!(Bits::from_u64(7, 0b111).reduce_xor());
    }

    #[test]
    fn parse_radix_bases() {
        assert_eq!(Bits::parse_radix(8, 16, "ff").unwrap().to_u64(), 0xff);
        assert_eq!(Bits::parse_radix(8, 2, "1010_1010").unwrap().to_u64(), 0xaa);
        assert_eq!(Bits::parse_radix(16, 10, "1234").unwrap().to_u64(), 1234);
        assert_eq!(Bits::parse_radix(8, 8, "17").unwrap().to_u64(), 0o17);
        assert!(Bits::parse_radix(8, 16, "xyz").is_none());
    }

    #[test]
    fn display_formats() {
        let b = Bits::from_u64(16, 0x2a);
        assert_eq!(format!("{}", b), "42");
        assert_eq!(format!("{:x}", b), "002a");
        assert_eq!(format!("{:b}", Bits::from_u64(4, 0b1010)), "1010");
        assert_eq!(format!("{:?}", Bits::from_u64(8, 0xff)), "8'hff");
    }

    #[test]
    fn dec_string_wide() {
        let b = Bits::from_u128(130, 340_282_366_920_938_463_463_374_607_431_768_211_455u128);
        assert_eq!(b.to_dec_string(), "340282366920938463463374607431768211455");
    }

    #[test]
    fn sign_extension() {
        let b = Bits::from_u64(4, 0b1000);
        assert_eq!(b.sign_extend(8).to_u64(), 0xf8);
        assert_eq!(Bits::from_u64(4, 0b0100).sign_extend(8).to_u64(), 0x04);
    }

    // The bit-serial routines the limb-wise ones replaced, kept as oracles.

    fn serial_shl(x: &Bits, n: usize) -> Bits {
        let mut out = Bits::zero(x.width);
        for i in (n..x.width).rev() {
            out.set_bit(i, x.bit(i - n));
        }
        out
    }

    fn serial_shr(x: &Bits, n: usize) -> Bits {
        let mut out = Bits::zero(x.width);
        for i in 0..x.width.saturating_sub(n) {
            out.set_bit(i, x.bit(i + n));
        }
        out
    }

    fn serial_div(a: &Bits, b: &Bits) -> Bits {
        let w = a.binary_width(b);
        if b.is_zero() {
            return Bits::ones(w);
        }
        if w <= 128 {
            return Bits::from_u128(w, a.to_u128() / b.to_u128());
        }
        let mut quotient = Bits::zero(w);
        let mut rem = Bits::zero(w);
        for i in (0..w).rev() {
            rem = serial_shl(&rem, 1);
            rem.set_bit(0, a.bit(i));
            if rem.ucmp(b) != Ordering::Less {
                rem = rem.sub(b);
                quotient.set_bit(i, true);
            }
        }
        quotient
    }

    fn serial_rem(a: &Bits, b: &Bits) -> Bits {
        let w = a.binary_width(b);
        if b.is_zero() {
            return a.resize(w);
        }
        if w <= 128 {
            return Bits::from_u128(w, a.to_u128() % b.to_u128());
        }
        a.resize(w).sub(&serial_div(a, b).mul(b))
    }

    fn serial_dec(x: &Bits) -> String {
        if x.width <= 128 {
            return x.to_u128().to_string();
        }
        let mut digits = Vec::new();
        let mut cur = x.clone();
        let ten = Bits::from_u64(x.width, 10);
        while !cur.is_zero() {
            let d = serial_rem(&cur, &ten).to_u64();
            digits.push(std::char::from_digit(d as u32, 10).unwrap());
            cur = serial_div(&cur, &ten);
        }
        if digits.is_empty() {
            digits.push('0');
        }
        digits.iter().rev().collect()
    }

    /// A `width`-bit value whose low `1 + sel % limbs` limbs come from `raw`:
    /// each one random or one of the limbs long division finds hardest (0, 1,
    /// all ones, the top bit alone, all but the top bit).
    fn value(width: usize, raw: &[u64], sel: u64) -> Bits {
        let limbs = 1 + sel as usize % words_for(width.max(1));
        let words = raw[..limbs]
            .iter()
            .map(|&r| match r >> 61 {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                3 => 1 << 63,
                4 => (1 << 63) - 1,
                _ => r.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            })
            .collect();
        Bits::from_words(width, words)
    }

    /// `x` in base `2^shift`, built a bit at a time.
    fn radix_string(x: &Bits, shift: usize) -> String {
        (0..x.width.div_ceil(shift))
            .rev()
            .map(|k| {
                let d = (0..shift).fold(0, |d, j| d | (x.bit(k * shift + j) as u32) << j);
                std::char::from_digit(d, 1 << shift).unwrap()
            })
            .collect()
    }

    #[test]
    fn dec_string_of_all_ones_matches_the_serial_oracle() {
        for width in [129, 191, 192, 193, 256] {
            let x = Bits::ones(width);
            assert_eq!(x.to_dec_string(), serial_dec(&x), "width {}", width);
            assert_eq!(Bits::zero(width).to_dec_string(), "0");
        }
    }

    /// Hacker's Delight's add-back case at 64-bit digits: the corrected
    /// estimate of the only quotient digit is still one too large.
    #[test]
    fn division_adds_back_an_overestimated_digit() {
        let n = Bits::from_words(256, vec![0, 0, 1 << 63, (1 << 63) - 1]);
        let d = Bits::from_words(256, vec![1, 0, 1 << 63]);
        assert_eq!(n.div(&d), Bits::from_u64(256, u64::MAX - 1));
        assert_eq!(
            n.rem(&d),
            Bits::from_words(256, vec![2, u64::MAX, (1 << 63) - 1])
        );
        assert_eq!(n.div(&d), serial_div(&n, &d));
        assert_eq!(n.rem(&d), serial_rem(&n, &d));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Above the u128 fast paths and up to 256 bits, decimal rendering,
        /// division and shifts equal the bit-serial routines they replaced.
        #[test]
        fn limb_routines_match_the_serial_oracles_up_to_256_bits(
            width in 129usize..257,
            dwidth in 1usize..257,
            raw in collection::vec(any::<u64>(), 8..9),
            sel in any::<u64>(),
            n in 0usize..300,
        ) {
            let (a, b) = (value(width, &raw[..4], sel), value(dwidth, &raw[4..], sel >> 32));
            prop_assert_eq!(a.to_dec_string(), serial_dec(&a));
            prop_assert_eq!(a.div(&b), serial_div(&a, &b));
            prop_assert_eq!(a.rem(&b), serial_rem(&a, &b));
            prop_assert_eq!(a.shl(n), serial_shl(&a, n));
            prop_assert_eq!(a.shr(n), serial_shr(&a, n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every rendering parses back to the value, and a narrower parse
        /// keeps its low bits.
        #[test]
        fn renderings_parse_back(
            width in 1usize..4097,
            raw in collection::vec(any::<u64>(), 64..65),
            sel in any::<u64>(),
            narrow in any::<usize>(),
        ) {
            let x = value(width, &raw, sel);
            let dec = x.to_dec_string();
            prop_assert!(dec == "0" || !dec.starts_with('0'));
            prop_assert_eq!(x.to_hex_string(), radix_string(&x, 4));
            prop_assert_eq!(format!("{:b}", x), radix_string(&x, 1));
            for (base, digits) in [
                (10, dec),
                (16, radix_string(&x, 4)),
                (8, radix_string(&x, 3)),
                (2, radix_string(&x, 1)),
            ] {
                prop_assert_eq!(Bits::parse_radix(width, base, &digits), Some(x.clone()));
                let w = 1 + narrow % width;
                prop_assert_eq!(Bits::parse_radix(w, base, &digits), Some(x.resize(w)));
            }
        }

        /// `q·d + r == n` and `r < d` for divisors of one limb, of many, and
        /// wider than the dividend; division by zero gives all ones and the
        /// dividend.
        #[test]
        fn quotient_and_remainder_rebuild_the_dividend(
            width in 1usize..4097,
            raw in collection::vec(any::<u64>(), 128..129),
            sel in any::<u64>(),
            shape in 0u8..5,
        ) {
            let n = value(width, &raw[..64], sel);
            let d = match shape {
                0 => Bits::zero(width),
                1 => Bits::from_u64(width, 1),
                2 => Bits::from_u64(width, raw[64] | 1),
                3 => value(width, &raw[64..], sel >> 12),
                _ => {
                    let mut d = value(width + 64, &raw[64..], sel >> 12);
                    d.set_bit(width, true);
                    d
                }
            };
            let (q, r) = (n.div(&d), n.rem(&d));
            let w = width.max(d.width());
            prop_assert_eq!((q.width(), r.width()), (w, w));
            if d.is_zero() {
                prop_assert_eq!(q, Bits::ones(w));
                prop_assert_eq!(r, n.resize(w));
            } else {
                let wide = |x: &Bits| x.resize(2 * w);
                prop_assert_eq!(wide(&q).mul(&wide(&d)).add(&wide(&r)), wide(&n));
                prop_assert_eq!(r.ucmp(&d), Ordering::Less);
            }
        }

        /// Shifts (by amounts past the width too), slices, writes into a
        /// slice, concatenation, replication, sign extension and reduction
        /// agree with `bit()` at every index.
        #[test]
        fn bit_movers_agree_with_bit(
            width in 1usize..4097,
            raw in collection::vec(any::<u64>(), 128..129),
            sel in any::<u64>(),
            k in any::<usize>(),
            vwidth in 1usize..300,
            copies in 0usize..20,
        ) {
            let x = value(width, &raw[..64], sel);
            let v = value(vwidth, &raw[64..], sel >> 12);
            let sign = x.bit(width - 1);
            for n in [0, k % width, width - 1, width, width + 1, k, usize::MAX] {
                let (l, r, a) = (x.shl(n), x.shr(n), x.ashr(n));
                for i in 0..width {
                    prop_assert_eq!(l.bit(i), i >= n && x.bit(i - n), "shl {} at {}", n, i);
                    let src = i.checked_add(n).filter(|&j| j < width);
                    prop_assert_eq!(r.bit(i), src.is_some_and(|j| x.bit(j)), "shr {} at {}", n, i);
                    prop_assert_eq!(a.bit(i), src.map_or(sign, |j| x.bit(j)), "ashr {} at {}", n, i);
                }
            }
            let lo = k % (width + 100);
            for (hi, lo) in [(lo + vwidth - 1, lo), (usize::MAX, usize::MAX - 5)] {
                let s = x.slice(hi, lo);
                prop_assert_eq!(s.width(), hi - lo + 1);
                for i in 0..s.width() {
                    prop_assert_eq!(s.bit(i), x.bit(lo + i), "slice [{}:{}] at {}", hi, lo, i);
                }
                let mut y = x.clone();
                y.set_slice(hi, lo, &v);
                for i in 0..width {
                    let want = if (lo..=hi).contains(&i) { v.bit(i - lo) } else { x.bit(i) };
                    prop_assert_eq!(y.bit(i), want, "set_slice [{}:{}] at {}", hi, lo, i);
                }
            }
            let c = x.concat(&v);
            prop_assert_eq!(c.width(), width + vwidth);
            for i in 0..c.width() {
                let want = if i < vwidth { v.bit(i) } else { x.bit(i - vwidth) };
                prop_assert_eq!(c.bit(i), want, "concat at {}", i);
            }
            let rep = v.replicate(copies);
            prop_assert_eq!(rep.width(), (vwidth * copies).max(1));
            for i in 0..vwidth * copies {
                prop_assert_eq!(rep.bit(i), v.bit(i % vwidth), "replicate at {}", i);
            }
            for to in [width / 2, width, width + 70] {
                let e = x.sign_extend(to);
                for i in 0..to {
                    prop_assert_eq!(e.bit(i), if i < width { x.bit(i) } else { sign }, "sext at {}", i);
                }
            }
            prop_assert_eq!(x.reduce_and(), (0..width).all(|i| x.bit(i)));
            prop_assert!(Bits::ones(width).reduce_and());
        }
    }
}
