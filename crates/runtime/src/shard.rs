//! Sharded shared code cache for the compilation service.
//!
//! One [`CodeCache`] behind one lock is fine for one tenant; hundreds of
//! tenants hammering the same artifact store need the lock split. The
//! sharded cache routes every key by its *pristine body hash* —
//! `body_hash % shards` — so all compiles of the same source body (any
//! config, trap model, or override set) land in one shard, and distinct
//! bodies spread across shards. Routing on content, not on tenant,
//! is what makes cross-tenant deduplication a plain cache hit.
//!
//! Each shard is an independent LRU [`CodeCache`] plus a small frequency
//! table driving a TinyLFU-style **admission policy**: when a shard is
//! full, a candidate is admitted only if it has been asked for at least
//! as often as the would-be victim. One-shot compiles of cold bodies
//! cannot wash a hot tenant's artifacts out of a contended shard. Ties
//! admit, so with no frequency signal the policy degenerates to exactly
//! the single-tenant LRU behavior.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::cache::{CacheKey, CacheStats, CodeCache, CompiledArtifact};

/// Per-shard counter snapshot, for service observability.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStats {
    /// Which shard.
    pub index: usize,
    /// Lookups that found an artifact.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts inserted.
    pub inserts: u64,
    /// Artifacts evicted by the LRU.
    pub evictions: u64,
    /// Inserts the admission policy refused (candidate colder than the
    /// victim it would have evicted).
    pub admission_rejects: u64,
    /// Resident artifacts right now.
    pub occupancy: usize,
    /// Shard capacity.
    pub capacity: usize,
}

/// One shard: an LRU cache plus the admission frequency table.
#[derive(Debug)]
struct Shard {
    cache: CodeCache,
    /// Ask-counts per key (hits, misses, and insert attempts all count as
    /// interest). Periodically halved so stale popularity decays.
    freq: BTreeMap<CacheKey, u64>,
    admission_rejects: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            cache: CodeCache::new(capacity),
            freq: BTreeMap::new(),
            admission_rejects: 0,
        }
    }

    /// Records interest in `key` and returns its new count, aging the
    /// table (halve-and-drop) when it outgrows its budget.
    fn touch(&mut self, key: &CacheKey) -> u64 {
        let budget = 8 * self.cache.capacity().max(1);
        if self.freq.len() >= budget && !self.freq.contains_key(key) {
            self.freq = self
                .freq
                .iter()
                .filter_map(|(k, &c)| {
                    if c >= 2 {
                        Some((k.clone(), c / 2))
                    } else {
                        None
                    }
                })
                .collect();
        }
        let c = self.freq.entry(key.clone()).or_insert(0);
        *c += 1;
        *c
    }
}

/// A fixed-fanout sharded artifact cache, shared by every tenant of the
/// compilation service ([`TieredRuntime`] uses one shard).
///
/// [`TieredRuntime`]: crate::TieredRuntime
#[derive(Debug)]
pub struct ShardedCodeCache {
    shards: Vec<Mutex<Shard>>,
}

impl ShardedCodeCache {
    /// `shards` independent caches (clamped to ≥ 1) of `shard_capacity`
    /// artifacts each (clamped to ≥ 1).
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        ShardedCodeCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::new(shard_capacity)))
                .collect(),
        }
    }

    /// Shard fanout.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to: `body_hash % shards`. Deterministic and
    /// content-addressed — every compile of the same pristine body, under
    /// any config or override set, contends on (and deduplicates in) the
    /// same shard.
    pub fn shard_of(&self, key: &CacheKey) -> usize {
        (key.body_hash() % self.shards.len() as u64) as usize
    }

    /// Looks up `key` in its shard, refreshing recency and recording
    /// interest for the admission policy.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CompiledArtifact>> {
        let mut shard = self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.touch(key);
        shard.cache.get(key)
    }

    /// Offers `artifact` to `key`'s shard. Returns whether it is resident
    /// afterwards: a full shard admits the candidate only if it has been
    /// asked for at least as often as the LRU victim it would evict.
    pub fn insert(&self, key: CacheKey, artifact: Arc<CompiledArtifact>) -> bool {
        let mut shard = self.shards[self.shard_of(&key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let candidate_freq = shard.touch(&key);
        let full = shard.cache.len() >= shard.cache.capacity();
        if full && !shard.cache.contains(&key) {
            let victim_freq = shard
                .cache
                .peek_lru()
                .map(|victim| shard.freq.get(victim).copied().unwrap_or(0))
                .unwrap_or(0);
            if candidate_freq < victim_freq {
                shard.admission_rejects += 1;
                return false;
            }
        }
        shard.cache.insert(key, artifact);
        true
    }

    /// Whether `key` is resident, without touching recency, interest, or
    /// stats.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .cache
            .contains(key)
    }

    /// Resident artifacts across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).cache.len())
            .sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .cache
                .stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.inserts += s.inserts;
        }
        total
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                let s = shard.cache.stats();
                ShardStats {
                    index,
                    hits: s.hits,
                    misses: s.misses,
                    inserts: s.inserts,
                    evictions: s.evictions,
                    admission_rejects: shard.admission_rejects,
                    occupancy: shard.cache.len(),
                    capacity: shard.cache.capacity(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;
    use njc_core::ExplicitOverride;
    use njc_ir::{parse_function, Function};
    use njc_observe::FunctionTrace;
    use njc_opt::ConfigKind;

    fn func(i: usize) -> Function {
        parse_function(&format!(
            "func f{i}(v0: int) -> int {{\nbb0:\n  return v0\n}}"
        ))
        .unwrap()
    }

    fn key(f: &Function) -> CacheKey {
        CacheKey::new(
            f,
            ConfigKind::Full,
            TrapModel::windows_ia32(),
            &ExplicitOverride::new(),
        )
    }

    fn artifact(f: &Function) -> Arc<CompiledArtifact> {
        Arc::new(CompiledArtifact {
            body: Arc::new(f.clone()),
            trace: FunctionTrace::default(),
        })
    }

    #[test]
    fn routing_is_deterministic_and_content_addressed() {
        let cache = ShardedCodeCache::new(8, 2);
        for i in 0..32 {
            let f = func(i);
            let k = key(&f);
            assert_eq!(cache.shard_of(&k), cache.shard_of(&k));
            assert_eq!(
                cache.shard_of(&k),
                (k.body_hash() % 8) as usize,
                "route = body_hash mod shards"
            );
            // Same body under a different config still routes to the same
            // shard: dedup needs all variants of a body co-located.
            let other = CacheKey::new(
                &f,
                ConfigKind::OldNullCheck,
                TrapModel::aix_ppc(),
                &ExplicitOverride::new(),
            );
            assert_eq!(cache.shard_of(&k), cache.shard_of(&other));
        }
    }

    #[test]
    fn cold_candidate_cannot_evict_hot_entry() {
        let cache = ShardedCodeCache::new(1, 1);
        let hot = func(0);
        let cold = func(1);
        cache.insert(key(&hot), artifact(&hot));
        // Make `hot` popular.
        for _ in 0..5 {
            assert!(cache.get(&key(&hot)).is_some());
        }
        // A one-shot cold insert must bounce off the admission policy...
        assert!(!cache.insert(key(&cold), artifact(&cold)));
        assert!(cache.contains(&key(&hot)));
        assert!(!cache.contains(&key(&cold)));
        assert_eq!(cache.shard_stats()[0].admission_rejects, 1);
        // ...but sustained interest in `cold` eventually wins the slot.
        for _ in 0..6 {
            let _ = cache.get(&key(&cold));
        }
        assert!(cache.insert(key(&cold), artifact(&cold)));
        assert!(cache.contains(&key(&cold)));
        assert!(!cache.contains(&key(&hot)));
    }

    #[test]
    fn equal_interest_degenerates_to_lru() {
        // One miss + one insert per key (the single-tenant compile
        // pattern) leaves all frequencies equal, so ties admit and the
        // shard behaves exactly like the plain LRU cache.
        let cache = ShardedCodeCache::new(1, 1);
        for i in 0..3 {
            let f = func(i);
            assert!(cache.get(&key(&f)).is_none());
            assert!(cache.insert(key(&f), artifact(&f)), "tie admits");
        }
        let s = cache.shard_stats()[0];
        assert_eq!((s.evictions, s.admission_rejects, s.occupancy), (2, 0, 1));
    }

    #[test]
    fn aggregate_stats_sum_over_shards() {
        let cache = ShardedCodeCache::new(4, 2);
        for i in 0..8 {
            let f = func(i);
            let _ = cache.get(&key(&f));
            cache.insert(key(&f), artifact(&f));
            let _ = cache.get(&key(&f));
        }
        let total = cache.stats();
        assert_eq!(total.misses, 8);
        assert_eq!(total.hits, 8);
        assert_eq!(total.inserts, 8);
        let per: u64 = cache.shard_stats().iter().map(|s| s.inserts).sum();
        assert_eq!(per, total.inserts);
        assert_eq!(
            cache.len(),
            cache
                .shard_stats()
                .iter()
                .map(|s| s.occupancy)
                .sum::<usize>()
        );
    }
}
