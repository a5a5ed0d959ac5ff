//! Sharded decomposition cache shared across compiles.
//!
//! Decomposing one SU(4) costs thousands of objective evaluations, so the
//! pass memoizes results per (target unitary, instruction set, pair
//! fidelities). The cache is shared: a `compiler::Compiler` hands the same
//! [`DecompositionCache`] to every [`NuOpPass`](crate::NuOpPass) it creates,
//! so instruction-set sweeps over the same workloads (the paper's Figs. 9–11
//! compile identical circuits against 21 sets) pay for each distinct
//! decomposition once.
//!
//! Two design points matter at scale:
//!
//! * **Hashed struct keys.** Keys quantize the target matrix to `u64` bit
//!   patterns instead of formatting ~16 complex entries into a `String`,
//!   which removes per-lookup allocation and comparison cost.
//! * **Sharding.** The map is split into [`DEFAULT_SHARDS`] independently
//!   locked shards selected by key hash, so parallel decomposition workers
//!   (and concurrent `compile_batch` circuits) don't serialize on one global
//!   mutex.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};

use circuit::QubitId;
use gates::{GateSetKind, InstructionSet};
use parking_lot::Mutex;
use qmath::Mat4;

use crate::decompose::{DecomposeConfig, Decomposition};
use crate::pass::HardwareFidelityProvider;

/// Number of shards used by [`DecompositionCache::new`].
pub const DEFAULT_SHARDS: usize = 16;

/// Matrix entries are quantized to 9 decimal digits (the granularity the old
/// string keys used); fidelities to 4, matching calibration precision.
const MATRIX_QUANTUM: f64 = 1e9;
const FIDELITY_QUANTUM: f64 = 1e4;

fn quantize(x: f64, scale: f64) -> u64 {
    // Map through i64 so negative values get distinct (two's-complement)
    // bit patterns instead of saturating.
    (x * scale).round() as i64 as u64
}

/// Fingerprint of everything else the decomposition result depends on: the
/// exact [`DecomposeConfig`] (threshold, layer cap, restarts, optimizer
/// settings, seed) and the set's member gate types (two custom discrete sets
/// may share a *name* yet contain different types).
fn config_fingerprint(set: &InstructionSet, config: &DecomposeConfig) -> u64 {
    let mut h = DefaultHasher::new();
    config.fidelity_threshold.to_bits().hash(&mut h);
    config.max_layers.hash(&mut h);
    config.restarts.hash(&mut h);
    config.one_qubit_fidelity.to_bits().hash(&mut h);
    config.seed.hash(&mut h);
    config.bfgs.max_iters.hash(&mut h);
    config.bfgs.grad_tol.to_bits().hash(&mut h);
    config.bfgs.f_tol.to_bits().hash(&mut h);
    config.bfgs.fd_step.to_bits().hash(&mut h);
    config.bfgs.c1.to_bits().hash(&mut h);
    config.bfgs.c2.to_bits().hash(&mut h);
    config.bfgs.max_line_search_steps.hash(&mut h);
    for t in set.gate_types() {
        t.name().hash(&mut h);
    }
    h.finish()
}

/// Cache key: quantized target-matrix bits, the instruction-set name, the
/// quantized calibrated fidelities of the physical pair, and a fingerprint of
/// the decomposition configuration — everything the noise-adaptive choice
/// depends on, so unrelated compilers can safely share one cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    set_name: String,
    matrix_bits: [u64; 32],
    fidelity_bits: Vec<u64>,
    config_bits: u64,
}

impl CacheKey {
    /// Builds the key for decomposing `target` on the physical pair
    /// `(q0, q1)` under `set` with `config`, with fidelities supplied by
    /// `provider`.
    pub fn new(
        target: &Mat4,
        set: &InstructionSet,
        q0: QubitId,
        q1: QubitId,
        provider: &dyn HardwareFidelityProvider,
        config: &DecomposeConfig,
    ) -> CacheKey {
        let mut matrix_bits = [0u64; 32];
        for i in 0..16 {
            let z = target[(i / 4, i % 4)];
            matrix_bits[2 * i] = quantize(z.re, MATRIX_QUANTUM);
            matrix_bits[2 * i + 1] = quantize(z.im, MATRIX_QUANTUM);
        }
        let fidelity_bits = match set.kind() {
            GateSetKind::Discrete(types) => types
                .iter()
                .map(|t| {
                    quantize(
                        provider.two_qubit_fidelity(q0, q1, t.name()),
                        FIDELITY_QUANTUM,
                    )
                })
                .collect(),
            GateSetKind::Continuous(family) => vec![quantize(
                provider.two_qubit_fidelity(q0, q1, family.name()),
                FIDELITY_QUANTUM,
            )],
        };
        CacheKey {
            set_name: set.name().to_string(),
            matrix_bits,
            fidelity_bits,
            config_bits: config_fingerprint(set, config),
        }
    }

    fn shard_index(&self, shards: usize) -> usize {
        let mut hasher = DefaultHasher::new();
        self.hash(&mut hasher);
        (hasher.finish() as usize) % shards
    }
}

/// A cached decomposition: the result plus the chosen gate-type label.
pub type CachedDecomposition = (Decomposition, String);

/// One independently locked shard: the memo map plus FIFO insertion order for
/// eviction when the cache is capacity-bounded.
#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, CachedDecomposition>,
    /// Insertion order; only maintained when a capacity bound is set.
    order: VecDeque<CacheKey>,
}

/// A sharded, thread-safe memo of two-qubit decompositions.
///
/// Cheap to share: wrap it in an [`std::sync::Arc`] and hand clones to every
/// pass that should reuse results. Hit/miss counters are global to the cache
/// and monotonically increasing.
///
/// By default the cache grows without bound — fine for one-shot experiment
/// sweeps, wrong for long-running compile services. Build with
/// [`DecompositionCache::with_capacity`] to cap the entry count (a compiler
/// takes such a cache through `compiler`'s `CompilerBuilder::shared_cache`);
/// when a shard is full, its oldest entry is evicted first-in-first-out.
pub struct DecompositionCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry cap; `None` means unbounded.
    per_shard_capacity: Option<usize>,
    /// Keys currently being computed by some thread; used by
    /// [`DecompositionCache::get_or_insert_with`] so concurrent workers that
    /// miss on the same key wait for one computation instead of racing to
    /// repeat it. Guarded by a std mutex because it pairs with a [`Condvar`].
    in_flight: StdMutex<HashSet<CacheKey>>,
    in_flight_done: Condvar,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    /// Times a caller blocked on another thread's in-flight computation.
    inflight_waits: AtomicUsize,
}

impl Default for DecompositionCache {
    fn default() -> Self {
        DecompositionCache::new()
    }
}

impl DecompositionCache {
    /// Creates a cache with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        DecompositionCache::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a cache with `shards` independently locked shards (minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        DecompositionCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            per_shard_capacity: None,
            in_flight: StdMutex::new(HashSet::new()),
            in_flight_done: Condvar::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            inflight_waits: AtomicUsize::new(0),
        }
    }

    /// Creates a capacity-bounded cache with [`DEFAULT_SHARDS`] shards. The
    /// bound is enforced per shard at `ceil(capacity / shards)` entries
    /// (minimum one), so the effective total — reported by
    /// [`DecompositionCache::capacity`] — can exceed `capacity` by up to
    /// `shards - 1` entries. When a shard is full its oldest entry is
    /// evicted FIFO — a deliberately simple policy: decomposition keys
    /// repeat within a workload sweep, so recency tracking buys little over
    /// insertion order.
    pub fn with_capacity(capacity: usize) -> Self {
        DecompositionCache::with_capacity_and_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a capacity-bounded cache with an explicit shard count.
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> Self {
        let mut cache = DecompositionCache::with_shards(shards);
        let per_shard = capacity.div_ceil(cache.shards.len()).max(1);
        cache.per_shard_capacity = Some(per_shard);
        cache
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total entry capacity (`None` = unbounded). The bound is enforced per
    /// shard, so the effective total is `per-shard bound × num_shards()`.
    pub fn capacity(&self) -> Option<usize> {
        self.per_shard_capacity.map(|c| c * self.shards.len())
    }

    /// Locks the shard holding `key`.
    fn lock_shard(&self, key: &CacheKey) -> parking_lot::MutexGuard<'_, Shard> {
        self.shards[key.shard_index(self.shards.len())].lock()
    }

    fn peek(&self, key: &CacheKey) -> Option<CachedDecomposition> {
        self.lock_shard(key).map.get(key).cloned()
    }

    /// Looks up a decomposition, recording a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<CachedDecomposition> {
        match self.peek(key) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns the cached decomposition for `key`, computing and inserting it
    /// with `compute` on a miss. The boolean is `true` for a cache hit.
    ///
    /// Concurrent callers that miss on the *same* key coordinate through an
    /// in-flight set: exactly one runs `compute`, the rest block until the
    /// result lands and then read it as a hit — so a batch of circuits
    /// sharing unitaries optimizes each distinct decomposition once. Callers
    /// with *different* keys never block each other here (the expensive
    /// computation runs outside all shard locks).
    pub fn get_or_insert_with<F>(&self, key: &CacheKey, compute: F) -> (CachedDecomposition, bool)
    where
        F: FnOnce() -> CachedDecomposition,
    {
        loop {
            if let Some(entry) = self.peek(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (entry, true);
            }
            let guard = self
                .in_flight
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            // Re-check under the in-flight lock: the computing thread inserts
            // into the shard *before* clearing its in-flight claim, so a
            // present entry can't be missed from here on.
            if let Some(entry) = self.peek(key) {
                drop(guard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (entry, true);
            }
            let mut guard = guard;
            if guard.insert(key.clone()) {
                drop(guard);
                break; // our claim: compute below
            }
            // Another thread is computing this key; wait for it to finish
            // (spurious wakeups just loop and re-check).
            self.inflight_waits.fetch_add(1, Ordering::Relaxed);
            let _waited = self
                .in_flight_done
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }

        // Clear the claim even if `compute` panics, so waiters can take over
        // instead of hanging.
        struct InFlightClaim<'a> {
            cache: &'a DecompositionCache,
            key: &'a CacheKey,
        }
        impl Drop for InFlightClaim<'_> {
            fn drop(&mut self) {
                self.cache
                    .in_flight
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .remove(self.key);
                self.cache.in_flight_done.notify_all();
            }
        }
        let claim = InFlightClaim { cache: self, key };

        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = compute();
        self.insert(key.clone(), entry.clone());
        drop(claim);
        (entry, false)
    }

    /// Stores a decomposition, evicting the shard's oldest entry first when a
    /// capacity bound is set and the shard is full.
    pub fn insert(&self, key: CacheKey, value: CachedDecomposition) {
        let mut shard = self.lock_shard(&key);
        if let Some(cap) = self.per_shard_capacity {
            if shard.map.insert(key.clone(), value).is_none() {
                shard.order.push_back(key);
                while shard.map.len() > cap {
                    let Some(oldest) = shard.order.pop_front() else {
                        break; // order list exhausted; nothing left to evict
                    };
                    shard.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            shard.map.insert(key, value);
        }
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime capacity evictions.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Times [`DecompositionCache::get_or_insert_with`] blocked on another
    /// thread's in-flight computation of the same key (deduplicated work).
    pub fn inflight_waits(&self) -> usize {
        self.inflight_waits.load(Ordering::Relaxed)
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.order.clear();
        }
    }
}

impl std::fmt::Debug for DecompositionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecompositionCache")
            .field("shards", &self.num_shards())
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .field("inflight_waits", &self.inflight_waits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::UniformFidelity;
    use qmath::{haar_random_su4, RngSeed};

    fn sample_key(seed: u64, fidelity: f64) -> CacheKey {
        let mut rng = RngSeed(seed).rng();
        let target = haar_random_su4(&mut rng);
        CacheKey::new(
            &target,
            &InstructionSet::g(2),
            0,
            1,
            &UniformFidelity(fidelity),
            &DecomposeConfig::default(),
        )
    }

    fn dummy_entry() -> CachedDecomposition {
        let template = crate::Template::fixed(gates::standard::cz(), 0);
        let decomposition = Decomposition {
            params: vec![0.0; template.parameter_count()],
            template,
            layers: 0,
            decomposition_fidelity: 1.0,
            hardware_fidelity: 1.0,
            overall_fidelity: 1.0,
            gate_label: "CZ".to_string(),
        };
        (decomposition, "CZ".to_string())
    }

    #[test]
    fn identical_inputs_produce_identical_keys() {
        assert_eq!(sample_key(5, 0.99), sample_key(5, 0.99));
    }

    #[test]
    fn keys_distinguish_matrix_set_fidelity_and_config() {
        let base = sample_key(5, 0.99);
        assert_ne!(base, sample_key(6, 0.99), "different target matrix");
        assert_ne!(base, sample_key(5, 0.95), "different pair fidelity");
        let mut rng = RngSeed(5).rng();
        let target = haar_random_su4(&mut rng);
        let provider = UniformFidelity(0.99);
        let other_set = CacheKey::new(
            &target,
            &InstructionSet::s(1),
            0,
            1,
            &provider,
            &DecomposeConfig::default(),
        );
        assert_ne!(base, other_set, "different instruction set");
        // Same set + target + fidelities but different decomposition options
        // must not share a key, or a shared cache would serve results
        // computed under the wrong config.
        let other_config = CacheKey::new(
            &target,
            &InstructionSet::g(2),
            0,
            1,
            &provider,
            &DecomposeConfig::sweep(),
        );
        assert_ne!(base, other_config, "different decompose config");
    }

    #[test]
    fn same_named_sets_with_different_members_get_distinct_keys() {
        use gates::GateType;
        let mut rng = RngSeed(5).rng();
        let target = haar_random_su4(&mut rng);
        let provider = UniformFidelity(0.99);
        let cfg = DecomposeConfig::default();
        let cz_only = InstructionSet::discrete("custom", vec![GateType::cz()]);
        let swap_only = InstructionSet::discrete("custom", vec![GateType::swap()]);
        assert_ne!(
            CacheKey::new(&target, &cz_only, 0, 1, &provider, &cfg),
            CacheKey::new(&target, &swap_only, 0, 1, &provider, &cfg),
        );
    }

    #[test]
    fn get_or_insert_with_computes_once_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = DecompositionCache::with_shards(4);
        let key = sample_key(1, 0.99);
        let computations = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (_, _) = cache.get_or_insert_with(&key, || {
                        computations.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so waiters actually contend.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        dummy_entry()
                    });
                });
            }
        });
        assert_eq!(
            computations.load(Ordering::Relaxed),
            1,
            "only one thread should run the computation"
        );
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn get_or_insert_with_hits_existing_entries() {
        let cache = DecompositionCache::new();
        let key = sample_key(2, 0.99);
        let (_, hit) = cache.get_or_insert_with(&key, dummy_entry);
        assert!(!hit);
        let (_, hit) = cache.get_or_insert_with(&key, || panic!("must not recompute"));
        assert!(hit);
    }

    #[test]
    fn contention_counters_stay_zero_without_concurrency() {
        let cache = DecompositionCache::with_shards(4);
        let key = sample_key(9, 0.99);
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), dummy_entry());
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.inflight_waits(), 0);
    }

    #[test]
    fn inflight_waits_count_deduplicated_computations() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = DecompositionCache::with_shards(4);
        let key = sample_key(11, 0.99);
        let computations = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    cache.get_or_insert_with(&key, || {
                        computations.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        dummy_entry()
                    });
                });
            }
        });
        assert_eq!(computations.load(Ordering::Relaxed), 1);
        // Every thread that lost the claim race waited at least once; threads
        // that arrived after the insert hit directly, so the count is bounded
        // by the loser count but may legitimately be smaller.
        assert!(cache.inflight_waits() <= 16);
    }

    #[test]
    fn fidelity_differences_below_quantum_share_a_key() {
        assert_eq!(sample_key(5, 0.99), sample_key(5, 0.99 + 1e-7));
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = DecompositionCache::with_shards(4);
        let key = sample_key(1, 0.99);
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key.clone(), dummy_entry());
        assert!(cache.get(&key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn entries_spread_across_shards() {
        let cache = DecompositionCache::new();
        for seed in 0..64 {
            cache.insert(sample_key(seed, 0.99), dummy_entry());
        }
        assert_eq!(cache.len(), 64);
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().map.is_empty())
            .count();
        assert!(populated > 1, "only {populated} shard(s) populated");
    }

    #[test]
    fn zero_shard_request_clamps_to_one() {
        let cache = DecompositionCache::with_shards(0);
        assert_eq!(cache.num_shards(), 1);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn bounded_cache_evicts_oldest_per_shard() {
        // One shard makes the FIFO order deterministic.
        let cache = DecompositionCache::with_capacity_and_shards(4, 1);
        assert_eq!(cache.capacity(), Some(4));
        let keys: Vec<CacheKey> = (0..6).map(|i| sample_key(i, 0.99)).collect();
        for key in &keys {
            cache.insert(key.clone(), dummy_entry());
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 2);
        // The two oldest keys were evicted; the four newest survive.
        assert!(cache.get(&keys[0]).is_none());
        assert!(cache.get(&keys[1]).is_none());
        for key in &keys[2..] {
            assert!(cache.get(key).is_some());
        }
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = DecompositionCache::with_capacity_and_shards(2, 1);
        let a = sample_key(1, 0.99);
        let b = sample_key(2, 0.99);
        cache.insert(a.clone(), dummy_entry());
        cache.insert(b.clone(), dummy_entry());
        cache.insert(a.clone(), dummy_entry());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&b).is_some());
    }

    #[test]
    fn bounded_cache_still_memoizes_through_get_or_insert_with() {
        let cache = DecompositionCache::with_capacity(64);
        let key = sample_key(3, 0.99);
        let (_, hit) = cache.get_or_insert_with(&key, dummy_entry);
        assert!(!hit);
        let (_, hit) = cache.get_or_insert_with(&key, || panic!("must not recompute"));
        assert!(hit);
    }

    #[test]
    fn tiny_capacity_is_clamped_to_one_entry_per_shard() {
        let cache = DecompositionCache::with_capacity_and_shards(0, 4);
        assert_eq!(cache.capacity(), Some(4));
        cache.insert(sample_key(1, 0.99), dummy_entry());
        assert_eq!(cache.len(), 1);
    }
}
