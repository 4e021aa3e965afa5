//! Output checks shared by the stages: digests of simulated state, and the
//! conditions under which a tenant's ticks must not count.

use synergy::runtime::StateSnapshot;
use synergy::snapshot::Writer;
use synergy::Runtime;

/// FNV-1a, 64 bit: a digest that is stable across builds and machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in, with a terminator so that adjacent fields cannot
    /// run together.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Folds a number in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as sixteen hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a tenant's architectural state, through the repository's own
/// wire encoding of [`StateSnapshot`] (every register, memory, and the
/// simulation time).
pub fn state_digest(state: &StateSnapshot) -> u64 {
    let mut w = Writer::new();
    w.put_state(state);
    let mut d = Digest::default();
    d.bytes(&w.into_frame(0));
    d.0
}

/// Why a tenant's ticks may not be counted, if there is a reason: a design
/// that `$finish`ed stops ticking, and a streaming design whose input ran dry
/// idles three to four times faster than one doing work — either would
/// inflate a throughput figure without anything having got faster.
pub fn idle_reason(rt: &Runtime) -> Option<String> {
    if let Some(code) = rt.finished() {
        return Some(format!("{} finished with code {}", rt.name(), code));
    }
    if rt.env.image().streams.iter().flatten().any(|s| s.eof) {
        return Some(format!("{} drained its input stream", rt.name()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields_and_orders() {
        let of = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.str(p);
            }
            d.hex()
        };
        assert_eq!(of(&["ab", "c"]), of(&["ab", "c"]));
        assert_ne!(of(&["ab", "c"]), of(&["a", "bc"]));
        assert_ne!(of(&["ab", "c"]), of(&["c", "ab"]));
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }

    #[test]
    fn state_digest_follows_the_state() {
        let mut a = StateSnapshot::default();
        let base = state_digest(&a);
        a.time = 1;
        assert_ne!(state_digest(&a), base);
        assert_eq!(state_digest(&StateSnapshot::default()), base);
    }
}
