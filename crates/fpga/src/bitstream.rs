//! Bitstreams and the compilation cache.
//!
//! Synergy's backends rely on compilation caches to reduce overhead in production
//! environments (§5.1, §7): virtualization events must not wait for a 20-minute
//! Quartus build or a 2-hour Vivado build. Bitstreams here are content-addressed by
//! the generated module's digest plus the device and synthesis options, exactly like
//! the deterministic-code-generation keying the paper describes. An entry also holds the
//! executable image its bitstream stands for — whatever the caller runs in place of
//! the real fabric — so a hit hands back something built, not a promise to build.
//! A design the caller refused has no bitstream; the cache keeps what the caller
//! hands it for that design instead ([`BitstreamCache::keep_refused`]), so the
//! refusal is not worked out again while the cache lives.

use crate::device::Device;
use crate::synth::{estimate, SynthOptions, SynthReport};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::Arc;
use synergy_vlog::elaborate::ElabModule;

/// A compiled configuration for a device: the output of synthesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bitstream {
    /// Content hash identifying this bitstream.
    pub id: u64,
    /// Name of the module the bitstream implements.
    pub module_name: String,
    /// Device the bitstream was compiled for.
    pub device_name: String,
    /// Resource usage and achieved timing.
    pub report: SynthReport,
}

/// Key for cache lookups.
fn cache_key(digest: u64, device: &Device, options: &SynthOptions) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one((digest, &device.name, options))
}

/// Statistics kept by the [`BitstreamCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of lookups that found an existing bitstream.
    pub hits: u64,
    /// Number of lookups that required a fresh compilation.
    pub misses: u64,
}

/// A shared, content-addressed bitstream cache.
///
/// Cloning the cache produces another handle to the same underlying storage, so a
/// hypervisor and its backends can share one cache.
#[derive(Debug, Clone, Default)]
pub struct BitstreamCache {
    inner: Arc<Mutex<CacheInner>>,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<u64, Entry>,
    /// What callers keep alive for the designs they refused, by their key.
    refused: HashMap<u64, Arc<dyn Any + Send + Sync>>,
    stats: CacheStats,
}

#[derive(Debug)]
struct Entry {
    bitstream: Bitstream,
    /// What executes in the bitstream's place; this crate only keeps it.
    image: Arc<dyn Any + Send + Sync>,
}

/// The result of asking the cache to compile a design.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOutcome {
    /// The bitstream (fresh or cached).
    pub bitstream: Bitstream,
    /// Whether the bitstream came from the cache.
    pub cache_hit: bool,
    /// Simulated latency of obtaining it: zero-ish for a hit, the full synthesis
    /// latency for a miss.
    pub latency_ns: u64,
}

impl BitstreamCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `module` (whose generated form hashes to `digest`) for `device`,
    /// reusing a cached bitstream when the content key matches. A hit returns the
    /// image stored with the bitstream; a miss calls `image` for one and stores it.
    /// (So does a hit on an entry whose image is of another type than `I`: the
    /// entry then keeps the new one.)
    ///
    /// # Errors
    ///
    /// What `image` returns; nothing is stored or counted then.
    pub fn compile<I: Any + Send + Sync, E>(
        &self,
        digest: u64,
        module: &ElabModule,
        device: &Device,
        options: SynthOptions,
        image: impl FnOnce() -> Result<Arc<I>, E>,
    ) -> Result<(CompileOutcome, Arc<I>), E> {
        let key = cache_key(digest, device, &options);
        let hit = {
            let mut inner = self.inner.lock();
            let hit = inner
                .entries
                .get(&key)
                .map(|e| (e.bitstream.clone(), Arc::clone(&e.image)));
            inner.stats.hits += hit.is_some() as u64;
            hit
        };
        let Some((bitstream, stored)) = hit else {
            let image = image()?;
            let report = estimate(module, device, options);
            let bitstream = Bitstream {
                id: key,
                module_name: module.name.clone(),
                device_name: device.name.clone(),
                report,
            };
            let mut inner = self.inner.lock();
            inner.stats.misses += 1;
            inner.entries.insert(
                key,
                Entry {
                    bitstream: bitstream.clone(),
                    image: image.clone(),
                },
            );
            let outcome = CompileOutcome {
                bitstream,
                cache_hit: false,
                latency_ns: report.synth_latency_ns,
            };
            return Ok((outcome, image));
        };
        let image = match stored.downcast::<I>() {
            Ok(image) => image,
            Err(_) => {
                let image = image()?;
                if let Some(e) = self.inner.lock().entries.get_mut(&key) {
                    e.image = image.clone();
                }
                image
            }
        };
        let outcome = CompileOutcome {
            bitstream,
            cache_hit: true,
            // A cache hit is a database lookup, not a build (§5.1).
            latency_ns: 1_000_000,
        };
        Ok((outcome, image))
    }

    /// Keeps `owner` for as long as the cache lives, under `key`: what the
    /// caller remembers about a design it refused to compile, so that a later
    /// caller finds the refusal instead of working it out again. A refusal is
    /// not a bitstream: it is counted as neither hit nor miss, is not in
    /// [`len`](Self::len), and no [`compile`](Self::compile) finds it. A
    /// second owner under the same key replaces the first. Like bitstreams,
    /// refusals are never evicted.
    pub fn keep_refused(&self, key: u64, owner: Arc<dyn Any + Send + Sync>) {
        // Whatever this replaces is dropped after the lock is released: the
        // owner's drop may take locks of its own.
        let _replaced = self.inner.lock().refused.insert(key, owner);
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Number of distinct bitstreams stored.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// `true` if the cache holds no bitstreams.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_vlog::{compile, parse};

    /// A counter stepping by `step`: its module's digest and its elaboration.
    fn counter(step: u32) -> (u64, ElabModule) {
        let src = format!(
            r#"module M(input wire clock, output wire [7:0] out);
                   reg [7:0] c = 0;
                   always @(posedge clock) c <= c + {step};
                   assign out = c;
               endmodule"#
        );
        let module = &parse(&src).unwrap().modules[0];
        let digest = BuildHasherDefault::<DefaultHasher>::default().hash_one(module);
        (digest, compile(&src, "M").unwrap())
    }

    fn design() -> (u64, ElabModule) {
        counter(1)
    }

    /// A lookup whose image says which call built it.
    fn lookup(
        cache: &BitstreamCache,
        &(digest, ref m): &(u64, ElabModule),
        device: &Device,
        options: SynthOptions,
        built_by: u32,
    ) -> (CompileOutcome, Arc<u32>) {
        cache
            .compile(digest, m, device, options, || {
                Ok::<_, std::convert::Infallible>(Arc::new(built_by))
            })
            .unwrap()
    }

    #[test]
    fn second_compile_hits_cache() {
        let d = design();
        let device = Device::f1();
        let cache = BitstreamCache::new();
        let opts = SynthOptions::native(&device);
        let (first, built) = lookup(&cache, &d, &device, opts, 1);
        let (second, kept) = lookup(&cache, &d, &device, opts, 2);
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert!(second.latency_ns < first.latency_ns);
        assert_eq!(first.bitstream, second.bitstream);
        assert!(
            Arc::ptr_eq(&built, &kept),
            "a hit is the image the miss built"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_refused_image_stores_and_counts_nothing() {
        let (digest, m) = design();
        let device = Device::f1();
        let cache = BitstreamCache::new();
        let opts = SynthOptions::native(&device);
        let refused = cache.compile(digest, &m, &device, opts, || Err::<Arc<u32>, _>("refused"));
        assert_eq!(refused.unwrap_err(), "refused");
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn a_refusal_is_not_a_bitstream() {
        let (digest, m) = design();
        let device = Device::f1();
        let cache = BitstreamCache::new();
        let opts = SynthOptions::native(&device);
        let owner = Arc::new(7u32);
        cache.keep_refused(digest, owner.clone());
        cache.keep_refused(cache_key(digest, &device, &opts), owner.clone());
        assert_eq!(Arc::strong_count(&owner), 3, "kept, under each key");
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        // Not even a lookup of the refused design's own key finds it.
        let (outcome, built) = lookup(&cache, &(digest, m), &device, opts, 1);
        assert!(!outcome.cache_hit);
        assert_eq!(*built, 1);
        let (outcome, _) = lookup(&cache, &counter(2), &device, opts, 2);
        assert!(!outcome.cache_hit, "an unrelated digest still misses");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), 2);
        cache.keep_refused(digest, Arc::new(8u32));
        assert_eq!(Arc::strong_count(&owner), 2, "a second owner replaces");
        drop(cache);
        assert_eq!(Arc::strong_count(&owner), 1, "gone with the cache");
    }

    #[test]
    fn an_image_of_another_type_is_replaced_on_a_hit() {
        let d = design();
        let device = Device::f1();
        let cache = BitstreamCache::new();
        let opts = SynthOptions::native(&device);
        lookup(&cache, &d, &device, opts, 1);
        let (outcome, text) = cache
            .compile(d.0, &d.1, &device, opts, || {
                Ok::<_, std::convert::Infallible>(Arc::new("image".to_string()))
            })
            .unwrap();
        assert!(outcome.cache_hit);
        assert_eq!(*text, "image");
        let (_, again) = cache
            .compile(d.0, &d.1, &device, opts, || {
                Ok::<_, std::convert::Infallible>(Arc::new(String::new()))
            })
            .unwrap();
        assert!(Arc::ptr_eq(&text, &again));
    }

    #[test]
    fn different_generated_modules_get_different_bitstreams() {
        let (one, two) = (counter(1), counter(2));
        assert_ne!(one.0, two.0);
        let device = Device::f1();
        let cache = BitstreamCache::new();
        let opts = SynthOptions::native(&device);
        let (_, first) = lookup(&cache, &one, &device, opts, 1);
        let (outcome, second) = lookup(&cache, &two, &device, opts, 2);
        assert!(!outcome.cache_hit);
        assert_eq!((*first, *second), (1, 2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn different_devices_get_different_bitstreams() {
        let d = design();
        let cache = BitstreamCache::new();
        let de10 = Device::de10();
        let f1 = Device::f1();
        lookup(&cache, &d, &de10, SynthOptions::native(&de10), 1);
        lookup(&cache, &d, &f1, SynthOptions::native(&f1), 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn different_options_are_not_conflated() {
        let d = design();
        let device = Device::f1();
        let cache = BitstreamCache::new();
        lookup(&cache, &d, &device, SynthOptions::native(&device), 1);
        lookup(
            &cache,
            &d,
            &device,
            SynthOptions::synergy(&device, 64, 1),
            2,
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_handles_see_the_same_cache() {
        let d = design();
        let device = Device::de10();
        let cache = BitstreamCache::new();
        let clone = cache.clone();
        lookup(&cache, &d, &device, SynthOptions::native(&device), 1);
        let (outcome, _) = lookup(&clone, &d, &device, SynthOptions::native(&device), 2);
        assert!(outcome.cache_hit);
    }
}
