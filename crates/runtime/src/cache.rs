//! Content-addressed code cache for tier-1 recompiles.
//!
//! An artifact is fully determined by *what was compiled* and *how*: the
//! pristine function body (via [`Function::body_hash`]), the configuration
//! preset, the trap model the compiler assumed, and the per-site explicit
//! override set. Two recompiles with identical keys are byte-identical
//! (the pipeline is deterministic), so the cache may hand out the stored
//! artifact instead — `hit vs recompile` equality is a test invariant, not
//! a hope.

use std::collections::BTreeMap;
use std::sync::Arc;

use njc_arch::TrapModel;
use njc_core::ExplicitOverride;
use njc_ir::{AccessKind, Function};
use njc_observe::{json_obj, FunctionTrace, Json};
use njc_opt::ConfigKind;

/// The identity of a compiled artifact: everything that can change the
/// produced code, and nothing that cannot.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CacheKey {
    /// FNV-1a over the function's canonical text form.
    body_hash: u64,
    /// Configuration preset, as a stable small integer.
    config: u8,
    /// The compiler-assumed trap model: protected bytes, reads trap,
    /// writes trap.
    trap: (u64, bool, bool),
    /// Sorted override slot keys, access kind encoded as a small integer.
    overrides: Vec<(u64, u8)>,
}

fn config_rank(kind: ConfigKind) -> u8 {
    match kind {
        ConfigKind::NoNullOptNoTrap => 0,
        ConfigKind::NoNullOptTrap => 1,
        ConfigKind::OldNullCheck => 2,
        ConfigKind::Phase1Only => 3,
        ConfigKind::Full => 4,
        ConfigKind::RefJit => 5,
        ConfigKind::AixSpeculation => 6,
        ConfigKind::AixNoSpeculation => 7,
        ConfigKind::AixNoNullOpt => 8,
        ConfigKind::AixIllegalImplicit => 9,
    }
}

fn access_rank(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

impl CacheKey {
    /// Keys `func` (its *pristine*, pre-optimization body) compiled under
    /// `kind` against `trap` with `overrides`.
    pub fn new(
        func: &Function,
        kind: ConfigKind,
        trap: TrapModel,
        overrides: &ExplicitOverride,
    ) -> Self {
        CacheKey {
            body_hash: func.body_hash(),
            config: config_rank(kind),
            trap: (
                trap.trap_area_bytes,
                trap.traps_on_read,
                trap.traps_on_write,
            ),
            overrides: overrides
                .keys()
                .map(|(off, kind)| (off, access_rank(kind)))
                .collect(),
        }
    }

    /// The pristine-body hash component of the key. The sharded cache
    /// routes on it, so equal bodies land in the same shard regardless of
    /// config, trap model, or override set.
    pub fn body_hash(&self) -> u64 {
        self.body_hash
    }
}

/// A finished tier-1 compile: the optimized body plus its provenance
/// trace (check ids, site records, ledger) for tiered reconciliation.
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledArtifact {
    /// The optimized function body, ready to install via
    /// [`njc_vm::RuntimeHooks::install`].
    pub body: Arc<Function>,
    /// The provenance trace of the recompile.
    pub trace: FunctionTrace,
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found an artifact.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts evicted to respect the capacity.
    pub evictions: u64,
    /// Artifacts inserted.
    pub inserts: u64,
}

impl From<&CacheStats> for Json {
    fn from(c: &CacheStats) -> Json {
        json_obj! {"hits": c.hits, "misses": c.misses, "inserts": c.inserts, "evictions": c.evictions}
    }
}

/// An LRU-evicting, content-addressed artifact cache.
///
/// Entries live in a `BTreeMap` so iteration order (and therefore
/// eviction tie-breaking) is deterministic; recency is a monotone tick
/// stamped on every touch. Eviction scans for the minimum tick — `O(n)`,
/// which is fine at code-cache capacities (tens of entries).
#[derive(Debug)]
pub struct CodeCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<CacheKey, (u64, Arc<CompiledArtifact>)>,
    stats: CacheStats,
}

impl CodeCache {
    /// A cache holding at most `capacity` artifacts (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        CodeCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<CompiledArtifact>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((last_use, artifact)) => {
                *last_use = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(artifact))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `artifact` under `key`, evicting least-recently-used entries
    /// while over capacity. Re-inserting an existing key refreshes it.
    pub fn insert(&mut self, key: CacheKey, artifact: Arc<CompiledArtifact>) {
        self.tick += 1;
        if self.entries.insert(key, (self.tick, artifact)).is_none() {
            self.stats.inserts += 1;
        }
        while self.entries.len() > self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
                .expect("non-empty while over capacity");
            self.entries.remove(&lru);
            self.stats.evictions += 1;
        }
    }

    /// Whether `key` is resident, without touching recency or stats.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// The key the next eviction would remove (the least-recently-used
    /// entry), without touching recency or stats. `None` when empty.
    /// Admission policies compare a candidate against this victim.
    pub fn peek_lru(&self) -> Option<&CacheKey> {
        self.entries
            .iter()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(k, _)| k)
    }

    /// Resident artifact count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_ir::parse_function;

    fn func(body: &str) -> Function {
        parse_function(body).unwrap()
    }

    fn artifact(f: &Function) -> Arc<CompiledArtifact> {
        Arc::new(CompiledArtifact {
            body: Arc::new(f.clone()),
            trace: FunctionTrace::default(),
        })
    }

    fn key(f: &Function) -> CacheKey {
        CacheKey::new(
            f,
            ConfigKind::Full,
            TrapModel::windows_ia32(),
            &ExplicitOverride::new(),
        )
    }

    #[test]
    fn key_distinguishes_every_component() {
        let f = func("func f(v0: int) -> int {\nbb0:\n  return v0\n}");
        let g = func("func g(v0: int) -> int {\nbb0:\n  return v0\n}");
        let base = key(&f);
        assert_ne!(base, key(&g), "different body");
        assert_ne!(
            base,
            CacheKey::new(
                &f,
                ConfigKind::OldNullCheck,
                TrapModel::windows_ia32(),
                &ExplicitOverride::new()
            ),
            "different config"
        );
        assert_ne!(
            base,
            CacheKey::new(
                &f,
                ConfigKind::Full,
                TrapModel::aix_ppc(),
                &ExplicitOverride::new()
            ),
            "different trap model"
        );
        let mut ov = ExplicitOverride::new();
        ov.insert(8, AccessKind::Read);
        assert_ne!(
            base,
            CacheKey::new(&f, ConfigKind::Full, TrapModel::windows_ia32(), &ov),
            "different override set"
        );
    }

    #[test]
    fn lru_evicts_least_recently_used_under_tiny_capacity() {
        let bodies: Vec<Function> = (0..3)
            .map(|i| {
                func(&format!(
                    "func f{i}(v0: int) -> int {{\nbb0:\n  return v0\n}}"
                ))
            })
            .collect();
        let mut cache = CodeCache::new(2);
        cache.insert(key(&bodies[0]), artifact(&bodies[0]));
        cache.insert(key(&bodies[1]), artifact(&bodies[1]));
        // Touch body 0 so body 1 is now the LRU.
        assert!(cache.get(&key(&bodies[0])).is_some());
        cache.insert(key(&bodies[2]), artifact(&bodies[2]));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&key(&bodies[0])), "recently used stays");
        assert!(!cache.contains(&key(&bodies[1])), "LRU evicted");
        assert!(cache.contains(&key(&bodies[2])));
        let s = cache.stats();
        assert_eq!((s.inserts, s.evictions, s.hits, s.misses), (3, 1, 1, 0));
    }
}
