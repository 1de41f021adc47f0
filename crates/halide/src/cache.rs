//! The keyed program cache behind compile-once/run-many execution.
//!
//! Compilation (validation, `compute_at` planning, lowering, simplification
//! and lane-program construction) is far more expensive than a single realize
//! over a small image, and at request rate it dominates. [`ProgramCache`] is a
//! small LRU map from [`CacheKey`] — pipeline fingerprint × schedule
//! fingerprint × backend × output extents × input-binding signature — to the
//! compiled artifact, with hit/miss/eviction counters so callers (and tests)
//! can verify that warm realizes do no compilation work.
//!
//! Parameter *values* are part of the key on purpose: lane programs constant-
//! fold `Expr::Param` at compilation, and image extents (injected as
//! `{name}.extent.{d}` parameters) drive bounds inference — so a program is
//! only reusable under the exact binding signature it was compiled for.

use crate::buffer::Buffer;
use crate::func::Pipeline;
use crate::realize::{ExecBackend, RealizeError, RealizeInputs};
use crate::schedule::Schedule;
use crate::types::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// 64-bit FNV-1a over a byte stream; collision-resistant enough for the cache
/// keys of a single process (keys also carry extents, which disambiguate the
/// common case).
#[derive(Debug, Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Structural fingerprint of a pipeline (funcs, definitions, image
/// parameters, output designation).
pub fn fingerprint_pipeline(pipeline: &Pipeline) -> u64 {
    let mut h = Fnv::new();
    // Debug formatting covers every field of every Func/Expr/ImageParam, so
    // two pipelines fingerprint equal iff they are structurally equal.
    h.write(format!("{pipeline:?}").as_bytes());
    h.finish()
}

/// Fingerprint of a schedule (every knob participates in its `Display`).
pub fn fingerprint_schedule(schedule: &Schedule) -> u64 {
    let mut h = Fnv::new();
    h.write(schedule.to_string().as_bytes());
    h.finish()
}

/// Signature of the inputs a program was compiled against: scalar parameter
/// values plus each bound image's name, element type and extents (extents
/// both clamp loads and feed bounds inference through the injected
/// `{name}.extent.{d}` parameters).
pub fn binding_signature(inputs: &RealizeInputs<'_>) -> u64 {
    // Every variable-length field is length-prefixed so structurally
    // different binding sets can never serialize to the same byte stream
    // (names may contain arbitrary bytes, and values must not be able to
    // masquerade as name suffixes — a colliding encoding would serve a
    // program constant-folded for the wrong parameter values).
    let mut h = Fnv::new();
    let write_name = |h: &mut Fnv, name: &str| {
        h.write(&(name.len() as u64).to_le_bytes());
        h.write(name.as_bytes());
    };
    for (name, value) in &inputs.params {
        write_name(&mut h, name);
        match value {
            Value::Int(v) => {
                h.write(b"i");
                h.write(&v.to_le_bytes());
            }
            Value::Float(v) => {
                h.write(b"f");
                h.write(&v.to_bits().to_le_bytes());
            }
        }
    }
    for (name, buf) in &inputs.images {
        h.write(b"|");
        write_name(&mut h, name);
        h.write(&[scalar_tag(buf)]);
        h.write(&(buf.extents().len() as u64).to_le_bytes());
        for &e in buf.extents() {
            h.write(&(e as u64).to_le_bytes());
        }
    }
    h.finish()
}

fn scalar_tag(buf: &Buffer) -> u8 {
    use crate::types::ScalarType::*;
    match buf.scalar_type() {
        UInt8 => 0,
        UInt16 => 1,
        UInt32 => 2,
        UInt64 => 3,
        Int32 => 4,
        Float32 => 5,
        Float64 => 6,
    }
}

/// The full cache key of one compiled program.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`fingerprint_pipeline`] of the pipeline.
    pub pipeline: u64,
    /// [`fingerprint_schedule`] of the schedule.
    pub schedule: u64,
    /// Execution backend the program targets.
    pub backend: ExecBackend,
    /// Output extents the loop bounds were synthesized for.
    pub extents: Vec<usize>,
    /// [`binding_signature`] of the inputs.
    pub bindings: u64,
}

impl CacheKey {
    /// Build the key for realizing `pipeline` under `schedule` on `backend`
    /// over `extents` with `inputs`.
    pub fn new(
        pipeline: &Pipeline,
        schedule: &Schedule,
        backend: ExecBackend,
        extents: &[usize],
        inputs: &RealizeInputs<'_>,
    ) -> CacheKey {
        CacheKey {
            pipeline: fingerprint_pipeline(pipeline),
            schedule: fingerprint_schedule(schedule),
            backend,
            extents: extents.to_vec(),
            bindings: binding_signature(inputs),
        }
    }
}

/// Hit/miss/eviction counters of a [`ProgramCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled program.
    pub hits: u64,
    /// Lookups that found nothing (the caller compiles and inserts).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    key: CacheKey,
    value: V,
    last_used: u64,
}

/// A small least-recently-used cache of compiled programs.
///
/// Capacities are expected to be tens of entries (one per pipeline × schedule
/// × extents in flight), so the store is a flat vector with linear probing —
/// no hashing infrastructure required, and iteration order is deterministic.
#[derive(Debug, Clone)]
pub struct ProgramCache<V> {
    capacity: usize,
    tick: u64,
    entries: Vec<Entry<V>>,
    stats: CacheStats,
}

impl<V: Clone> ProgramCache<V> {
    /// Create a cache holding at most `capacity` programs (minimum 1).
    pub fn new(capacity: usize) -> ProgramCache<V> {
        ProgramCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up `key`, refreshing its recency and counting a hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        self.tick += 1;
        match self.entries.iter_mut().find(|e| e.key == *key) {
            Some(e) => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The program for `key`, neither counted nor refreshed.
    fn peek(&self, key: &CacheKey) -> Option<V> {
        let entry = self.entries.iter().find(|e| e.key == *key);
        entry.map(|e| e.value.clone())
    }

    /// Insert (or replace) the program for `key`, evicting the least recently
    /// used entry if the cache is full.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.value = value;
            e.last_used = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache is non-empty when full");
            self.entries.swap_remove(oldest);
            self.stats.evictions += 1;
        }
        self.entries.push(Entry {
            key,
            value,
            last_used: self.tick,
        });
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of cached programs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters accumulated since construction (or the last [`Self::clear`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop every entry and reset the counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stats = CacheStats::default();
    }
}

impl<V: Clone> Default for ProgramCache<V> {
    fn default() -> Self {
        ProgramCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

/// Default capacity used by [`crate::realize::Realizer`] and
/// [`crate::compile::CompiledPipeline`].
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Default shard count of a [`ShardedCache`]. Small enough that per-shard
/// LRU capacities stay useful at the default total capacity, large enough
/// that a handful of worker threads rarely contend on one shard lock.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Hash a [`CacheKey`] for shard selection. `CacheKey` deliberately does not
/// implement `Hash` (its fingerprints are already hashes), so the shard
/// router folds every field through the same FNV-1a the fingerprints use.
fn shard_hash(key: &CacheKey) -> u64 {
    let mut h = Fnv::new();
    h.write(&key.pipeline.to_le_bytes());
    h.write(&key.schedule.to_le_bytes());
    h.write(&[key.backend as u8]);
    h.write(&(key.extents.len() as u64).to_le_bytes());
    for &e in &key.extents {
        h.write(&(e as u64).to_le_bytes());
    }
    h.write(&key.bindings.to_le_bytes());
    h.finish()
}

/// One in-flight compilation: the leader publishes the build result here and
/// wakes every coalesced waiter.
#[derive(Debug)]
struct Inflight<V> {
    done: Mutex<Option<Result<V, RealizeError>>>,
    cv: Condvar,
}

impl<V> Inflight<V> {
    fn new() -> Inflight<V> {
        Inflight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

/// A sharded, internally synchronized program cache.
///
/// Lookups hash the [`CacheKey`] to one of `shards` independent
/// [`ProgramCache`] LRUs, each behind its own mutex, so concurrent realize
/// workers touching different keys never contend on a global lock. Each shard
/// keeps its own [`CacheStats`]; [`ShardedCache::stats`] aggregates them (and
/// [`ShardedCache::shard_stats`] exposes the per-shard view for tests and
/// introspection).
///
/// [`ShardedCache::get_or_build`] adds *same-key request coalescing*: when
/// several threads miss on the same key concurrently, exactly one (the
/// leader) runs the build closure — outside every shard lock — while the
/// rest block on a condvar and share the leader's result. The counters
/// reconcile as `misses == builds + coalesced_waits` (every miss either
/// built or waited) and `hits + misses == lookups`.
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<Mutex<ProgramCache<V>>>,
    inflight: Mutex<BTreeMap<CacheKey, Arc<Inflight<V>>>>,
    builds: AtomicU64,
    coalesced: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// Create a cache with [`DEFAULT_CACHE_SHARDS`] shards holding at most
    /// `capacity` programs in total (each shard gets an equal slice,
    /// minimum 1).
    pub fn new(capacity: usize) -> ShardedCache<V> {
        ShardedCache::with_shards(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// Create a cache with an explicit shard count (minimum 1). The shard
    /// count is clamped to the total capacity so a tiny cache (e.g. capacity
    /// 1) keeps its strict entry bound instead of gaining one slot per shard.
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedCache<V> {
        let shards = shards.max(1).min(capacity.max(1));
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| Mutex::new(ProgramCache::new(per_shard)))
                .collect(),
            inflight: Mutex::new(BTreeMap::new()),
            builds: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<ProgramCache<V>> {
        &self.shards[(shard_hash(key) % self.shards.len() as u64) as usize]
    }

    /// Look up `key` in its shard, counting a hit or miss there.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.shard(key).lock().unwrap().get(key)
    }

    /// Insert (or replace) the program for `key` in its shard.
    pub fn insert(&self, key: CacheKey, value: V) {
        self.shard(&key).lock().unwrap().insert(key, value);
    }

    /// Look up `key`; on a miss, build it with same-key coalescing: one
    /// concurrent caller per key runs `build` (with no shard lock held) and
    /// inserts the result, the rest wait and share it. Build errors propagate
    /// to the leader and every coalesced waiter alike, and are not cached.
    pub fn get_or_build<F>(&self, key: &CacheKey, build: F) -> Result<V, RealizeError>
    where
        F: FnOnce() -> Result<V, RealizeError>,
    {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        // Missed (counted in the shard). Either become the leader for this
        // key or join an in-flight build as a coalesced waiter.
        let (slot, leader) = {
            let mut inflight = self.inflight.lock().unwrap();
            match inflight.get(key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    // A leader may have published and retired its build
                    // between the miss above and this lock: share it.
                    if let Some(v) = self.shard(key).lock().unwrap().peek(key) {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Ok(v);
                    }
                    let slot = Arc::new(Inflight::new());
                    inflight.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if leader {
            let result = build();
            self.builds.fetch_add(1, Ordering::Relaxed);
            if let Ok(v) = &result {
                // Insert before retiring the in-flight slot so a fresh caller
                // that misses the slot is guaranteed to hit the shard.
                self.insert(key.clone(), v.clone());
            }
            *slot.done.lock().unwrap() = Some(result.clone());
            slot.cv.notify_all();
            self.inflight.lock().unwrap().remove(key);
            result
        } else {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut done = slot.done.lock().unwrap();
            while done.is_none() {
                done = slot.cv.wait(done).unwrap();
            }
            done.clone().expect("leader published a result")
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of cached programs across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().capacity())
            .sum()
    }

    /// Counters aggregated across every shard.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let s = s.lock().unwrap().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// The per-shard counter view ([`Self::stats`] is its element-wise sum).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().stats())
            .collect()
    }

    /// Builds executed by [`Self::get_or_build`] leaders.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Misses that joined another caller's in-flight build instead of
    /// compiling. Reconciles as `misses == builds + coalesced_waits` when
    /// every miss went through [`Self::get_or_build`].
    pub fn coalesced_waits(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Drop every entry and reset all counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
        self.builds.store(0, Ordering::Relaxed);
        self.coalesced.store(0, Ordering::Relaxed);
    }
}

impl<V: Clone> Default for ShardedCache<V> {
    fn default() -> Self {
        ShardedCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            pipeline: n,
            schedule: 0,
            backend: ExecBackend::Lowered,
            extents: vec![8, 8],
            bindings: 0,
        }
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c: ProgramCache<u32> = ProgramCache::new(4);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), 10);
        assert_eq!(c.get(&key(1)), Some(10));
        assert_eq!(c.get(&key(2)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut c: ProgramCache<u32> = ProgramCache::new(2);
        c.insert(key(1), 1);
        c.insert(key(2), 2);
        // Touch key 1 so key 2 is the LRU.
        assert_eq!(c.get(&key(1)), Some(1));
        c.insert(key(3), 3);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.get(&key(2)), None, "LRU entry must be the one evicted");
        assert_eq!(c.get(&key(1)), Some(1));
        assert_eq!(c.get(&key(3)), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c: ProgramCache<u32> = ProgramCache::new(1);
        c.insert(key(1), 1);
        c.insert(key(1), 9);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&key(1)), Some(9));
    }

    #[test]
    fn schedule_fingerprints_separate_knobs() {
        let a = fingerprint_schedule(&Schedule::naive());
        let b = fingerprint_schedule(&Schedule::stencil_default());
        let c = fingerprint_schedule(&Schedule::naive().with_tile(Some((64, 64))));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a, fingerprint_schedule(&Schedule::naive()));
    }

    #[test]
    fn binding_signature_resists_boundary_shifts() {
        // Name/value boundaries are length-prefixed: a param whose name
        // absorbs the next entry's leading bytes must not encode identically.
        let a = RealizeInputs::new()
            .with_param("x", Value::Int(0x69))
            .with_param("z", Value::Int(0));
        let b = RealizeInputs::new()
            .with_param("xi", Value::Int(0x69))
            .with_param("z", Value::Int(0));
        assert_ne!(binding_signature(&a), binding_signature(&b));
    }

    #[test]
    fn sharded_stats_aggregate_across_shards() {
        // Spread keys over the shards, then verify the aggregated counters
        // equal the element-wise sum of the per-shard counters and reflect
        // every lookup exactly once.
        let c: ShardedCache<u32> = ShardedCache::with_shards(32, 4);
        for n in 0..16u64 {
            assert_eq!(c.get(&key(n)), None);
            c.insert(key(n), n as u32);
        }
        for n in 0..16u64 {
            assert_eq!(c.get(&key(n)), Some(n as u32));
        }
        let per_shard = c.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert!(
            per_shard.iter().filter(|s| s.misses > 0).count() > 1,
            "keys should spread across more than one shard: {per_shard:?}"
        );
        let total = c.stats();
        assert_eq!(total.hits, per_shard.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(
            total.misses,
            per_shard.iter().map(|s| s.misses).sum::<u64>()
        );
        assert_eq!((total.hits, total.misses), (16, 16));
        assert_eq!(c.len(), 16);
    }

    #[test]
    fn get_or_build_counts_one_build_per_cold_key() {
        let c: ShardedCache<u32> = ShardedCache::with_shards(8, 2);
        let v = c.get_or_build(&key(1), || Ok(7)).unwrap();
        assert_eq!(v, 7);
        // Warm lookups never rebuild.
        let v = c
            .get_or_build(&key(1), || panic!("must not rebuild a cached key"))
            .unwrap();
        assert_eq!(v, 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(c.builds(), 1);
        assert_eq!(c.coalesced_waits(), 0);
        assert_eq!(s.misses, c.builds() + c.coalesced_waits());
    }

    #[test]
    fn get_or_build_errors_propagate_and_are_not_cached() {
        let c: ShardedCache<u32> = ShardedCache::new(8);
        let err = c
            .get_or_build(&key(1), || Err(RealizeError::MissingInput("in".into())))
            .unwrap_err();
        assert_eq!(err, RealizeError::MissingInput("in".into()));
        // The failed build left nothing behind; the next call builds again.
        assert_eq!(c.get_or_build(&key(1), || Ok(5)).unwrap(), 5);
        assert_eq!(c.builds(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn concurrent_same_key_misses_coalesce_to_one_build() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Barrier;
        const THREADS: u64 = 8;
        let c: ShardedCache<u32> = ShardedCache::new(8);
        let built = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let v = c
                        .get_or_build(&key(42), || {
                            built.fetch_add(1, Ordering::Relaxed);
                            // Hold the build open long enough that the other
                            // threads' misses overlap it.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(11)
                        })
                        .unwrap();
                    assert_eq!(v, 11);
                });
            }
        });
        let s = c.stats();
        assert_eq!(
            s.misses,
            c.builds() + c.coalesced_waits(),
            "every miss either built or coalesced: {s:?}"
        );
        assert_eq!(s.hits + s.misses, THREADS, "one lookup per thread");
        // All threads synchronized on the barrier, so at least one of them
        // must have overlapped the 20ms build; typically all but one do.
        assert!(
            c.coalesced_waits() >= 1,
            "overlapping misses should coalesce (builds={}, waits={})",
            c.builds(),
            c.coalesced_waits()
        );
        assert_eq!(
            built.load(Ordering::Relaxed),
            c.builds(),
            "builder invocations match the builds counter"
        );
    }

    #[test]
    fn binding_signature_depends_on_params_and_image_shape() {
        use crate::buffer::Buffer;
        use crate::types::ScalarType;
        let img_a = Buffer::new(ScalarType::UInt8, &[8, 8]);
        let img_b = Buffer::new(ScalarType::UInt8, &[9, 8]);
        let base = RealizeInputs::new().with_image("in", &img_a);
        let shifted = RealizeInputs::new().with_image("in", &img_b);
        let with_param = RealizeInputs::new()
            .with_image("in", &img_a)
            .with_param("k", Value::Int(3));
        let sig = binding_signature(&base);
        assert_ne!(sig, binding_signature(&shifted), "extents are keyed");
        assert_ne!(sig, binding_signature(&with_param), "params are keyed");
        assert_eq!(sig, binding_signature(&base.clone()));
    }
}
