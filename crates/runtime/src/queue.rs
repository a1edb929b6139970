//! Batched, prioritized, coalescing recompile queue.
//!
//! The service's compile demand arrives as per-tenant requests but is
//! served as per-*artifact* work: every request names a [`CacheKey`]
//! (pristine body × config × trap model × override set), and requests for
//! the same key **coalesce** into one pending compile with many waiters —
//! the artifact is compiled once and installed into every waiting tenant.
//! Coalesced arrivals are the service's *dedup hits*.
//!
//! Ordering is by **priority** — the modeled cycles at stake, hotness ×
//! trap cost, as computed by the submitting controller — with FIFO
//! tie-breaking. Two service properties temper the strict priority order:
//!
//! * **Backpressure**: the queue is bounded. A submit beyond capacity is
//!   rejected, not buffered; the controller simply re-submits on a later
//!   poll if the site is still hot. Demand collapses onto fresh profile
//!   data instead of queueing stale work.
//! * **Starvation-free aging**: every batch pop bumps the age of the
//!   requests left behind, and age feeds the effective priority. A
//!   low-priority request cannot wait forever behind a steady stream of
//!   hot ones.
//!
//! Workers pull work in **batches** (up to [`QueueConfig::batch_max`] at
//! a time) so one wake services several pending compiles — the
//! lock/notify overhead amortizes the way a real JIT compile queue's
//! does.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use njc_core::ExplicitOverride;
use njc_observe::{json_obj, Json};

use crate::cache::CacheKey;

/// Queue shape knobs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueConfig {
    /// Maximum pending compiles before submits are rejected (clamped ≥ 1).
    pub capacity: usize,
    /// Maximum compiles handed to a worker per pop (clamped ≥ 1).
    pub batch_max: usize,
    /// Effective-priority boost per batch survived in the queue, in the
    /// same modeled-cycle units as request priorities. Zero disables
    /// aging.
    pub aging_boost: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            batch_max: 4,
            aging_boost: 1_000,
        }
    }
}

/// One tenant waiting on a pending compile: where to install the
/// artifact once it exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Waiter {
    /// Tenant index in the service's registry.
    pub tenant: usize,
    /// The function index *within that tenant's module* to install into.
    pub function_index: usize,
}

/// A compile request from one tenant's controller.
#[derive(Clone, Debug)]
pub struct RecompileRequest {
    /// Full artifact identity; the coalescing key.
    pub key: CacheKey,
    /// Who wants it, and where it goes.
    pub waiter: Waiter,
    /// Override set to compile with (already encoded in `key`; carried
    /// separately so workers need not decode it).
    pub overrides: ExplicitOverride,
    /// Modeled cycles at stake: hotness × trap cost. Higher pops first.
    pub priority: u64,
}

/// Outcome of a submit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Submitted {
    /// New pending compile enqueued.
    Enqueued,
    /// Joined an existing pending compile for the same key (a dedup hit).
    Coalesced,
    /// Queue full; ask again on a later profile poll.
    Rejected,
}

/// A pending compile: one artifact, every tenant waiting on it.
#[derive(Clone, Debug)]
pub struct PendingCompile {
    /// Artifact identity.
    pub key: CacheKey,
    /// Override set to compile with.
    pub overrides: ExplicitOverride,
    /// Everyone to install into, in arrival order (first is the
    /// original requester).
    pub waiters: Vec<Waiter>,
    /// Max priority over all coalesced requests.
    pub priority: u64,
    /// Batches survived while pending.
    pub age: u64,
    /// FIFO tie-break.
    seq: u64,
    /// For queue-latency accounting.
    enqueued_at: Instant,
}

impl PendingCompile {
    /// Priority after aging: base + age × boost.
    fn effective(&self, boost: u64) -> u64 {
        self.priority.saturating_add(self.age.saturating_mul(boost))
    }
}

/// Queue counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueStats {
    /// Requests that enqueued a new pending compile.
    pub submitted: u64,
    /// Requests coalesced into an existing pending compile (dedup hits
    /// counted at the queue).
    pub coalesced: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Batches handed to workers.
    pub batches: u64,
    /// Compiles completed (artifact installed to all waiters).
    pub completed: u64,
    /// High-water mark of pending compiles.
    pub max_pending: u64,
    /// Popped entries that outranked a higher-base-priority survivor only
    /// thanks to aging — the starvation-freedom mechanism firing.
    pub aged_promotions: u64,
}

impl From<&QueueStats> for Json {
    fn from(q: &QueueStats) -> Json {
        json_obj! {
            "submitted": q.submitted, "coalesced": q.coalesced, "rejected": q.rejected,
            "batches": q.batches, "completed": q.completed, "max_pending": q.max_pending,
            "aged_promotions": q.aged_promotions,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    pending: BTreeMap<CacheKey, PendingCompile>,
    stats: QueueStats,
    latencies_us: Vec<u64>,
    next_seq: u64,
    closed: bool,
}

/// The shared recompile queue. Controllers [`submit`], workers
/// [`pop_batch`] (blocking) and [`complete`].
///
/// [`submit`]: RecompileQueue::submit
/// [`pop_batch`]: RecompileQueue::pop_batch
/// [`complete`]: RecompileQueue::complete
#[derive(Debug)]
pub struct RecompileQueue {
    config: QueueConfig,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl RecompileQueue {
    /// An empty queue with `config` (capacity and batch size clamped ≥ 1).
    pub fn new(config: QueueConfig) -> Self {
        RecompileQueue {
            config: QueueConfig {
                capacity: config.capacity.max(1),
                batch_max: config.batch_max.max(1),
                aging_boost: config.aging_boost,
            },
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
        }
    }

    /// Submits one request, coalescing on key. See [`Submitted`].
    pub fn submit(&self, req: RecompileRequest) -> Submitted {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Submitted::Rejected;
        }
        if let Some(pending) = inner.pending.get_mut(&req.key) {
            if !pending.waiters.contains(&req.waiter) {
                pending.waiters.push(req.waiter);
            }
            pending.priority = pending.priority.max(req.priority);
            inner.stats.coalesced += 1;
            return Submitted::Coalesced;
        }
        if inner.pending.len() >= self.config.capacity {
            inner.stats.rejected += 1;
            return Submitted::Rejected;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.pending.insert(
            req.key.clone(),
            PendingCompile {
                key: req.key,
                overrides: req.overrides,
                waiters: vec![req.waiter],
                priority: req.priority,
                age: 0,
                seq,
                enqueued_at: Instant::now(),
            },
        );
        inner.stats.submitted += 1;
        inner.stats.max_pending = inner.stats.max_pending.max(inner.pending.len() as u64);
        self.ready.notify_one();
        Submitted::Enqueued
    }

    /// Blocks until work or close; returns up to `batch_max` pending
    /// compiles in effective-priority order, or `None` once the queue is
    /// closed and drained.
    pub fn pop_batch(&self) -> Option<Vec<PendingCompile>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !inner.pending.is_empty() {
                return Some(Self::take_batch(&mut inner, &self.config));
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking [`pop_batch`]: `None` when nothing is pending.
    ///
    /// [`pop_batch`]: RecompileQueue::pop_batch
    pub fn try_pop_batch(&self) -> Option<Vec<PendingCompile>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.pending.is_empty() {
            return None;
        }
        Some(Self::take_batch(&mut inner, &self.config))
    }

    fn take_batch(inner: &mut Inner, config: &QueueConfig) -> Vec<PendingCompile> {
        // Effective priority desc, then FIFO.
        let mut order: Vec<(u64, u64, CacheKey)> = inner
            .pending
            .values()
            .map(|p| (p.effective(config.aging_boost), p.seq, p.key.clone()))
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let top_base = inner
            .pending
            .values()
            .map(|p| p.priority)
            .max()
            .unwrap_or(0);
        let mut batch = Vec::new();
        for (_, _, key) in order.into_iter().take(config.batch_max) {
            let p = inner.pending.remove(&key).expect("key pending");
            if p.age > 0 && p.priority < top_base {
                inner.stats.aged_promotions += 1;
            }
            batch.push(p);
        }
        for p in inner.pending.values_mut() {
            p.age += 1;
        }
        inner.stats.batches += 1;
        batch
    }

    /// Records a finished compile (installed into all its waiters) and
    /// its queue-to-done latency.
    pub fn complete(&self, job: &PendingCompile) {
        let us = job.enqueued_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.stats.completed += 1;
        inner.latencies_us.push(us);
    }

    /// Closes the queue: pending work still drains, new submits reject,
    /// and blocked workers wake (getting `None` once drained).
    pub fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> QueueStats {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// Completed-compile latencies in microseconds, submission order.
    pub fn latencies_us(&self) -> Vec<u64> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .latencies_us
            .clone()
    }

    /// Pending compiles right now.
    pub fn pending_len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use njc_arch::TrapModel;
    use njc_ir::parse_function;
    use njc_opt::ConfigKind;

    fn key(i: usize, overrides: &ExplicitOverride) -> CacheKey {
        let f = parse_function(&format!(
            "func f{i}(v0: int) -> int {{\nbb0:\n  return v0\n}}"
        ))
        .unwrap();
        CacheKey::new(&f, ConfigKind::Full, TrapModel::windows_ia32(), overrides)
    }

    fn req(i: usize, tenant: usize, priority: u64) -> RecompileRequest {
        let overrides = ExplicitOverride::new();
        RecompileRequest {
            key: key(i, &overrides),
            waiter: Waiter {
                tenant,
                function_index: i,
            },
            overrides,
            priority,
        }
    }

    #[test]
    fn coalesces_same_key_and_collects_waiters() {
        let q = RecompileQueue::new(QueueConfig::default());
        assert_eq!(q.submit(req(7, 0, 10)), Submitted::Enqueued);
        assert_eq!(q.submit(req(7, 1, 500)), Submitted::Coalesced);
        assert_eq!(q.submit(req(7, 1, 500)), Submitted::Coalesced, "idempotent");
        let batch = q.try_pop_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].waiters.len(), 2, "one compile, two installs");
        assert_eq!(batch[0].priority, 500, "max over coalesced requests");
        let s = q.stats();
        assert_eq!((s.submitted, s.coalesced), (1, 3 - 1));
    }

    #[test]
    fn pops_by_priority_with_fifo_ties_and_bounded_batches() {
        let q = RecompileQueue::new(QueueConfig {
            capacity: 16,
            batch_max: 2,
            aging_boost: 0,
        });
        q.submit(req(0, 0, 5));
        q.submit(req(1, 0, 50));
        q.submit(req(2, 0, 50));
        q.submit(req(3, 0, 500));
        let batch = q.try_pop_batch().unwrap();
        let prios: Vec<u64> = batch.iter().map(|p| p.priority).collect();
        assert_eq!(prios, vec![500, 50], "priority desc, batch capped at 2");
        assert_eq!(
            batch[1].waiters[0].function_index, 1,
            "FIFO among equal priorities"
        );
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let q = RecompileQueue::new(QueueConfig {
            capacity: 2,
            batch_max: 4,
            aging_boost: 0,
        });
        assert_eq!(q.submit(req(0, 0, 1)), Submitted::Enqueued);
        assert_eq!(q.submit(req(1, 0, 1)), Submitted::Enqueued);
        assert_eq!(q.submit(req(2, 0, 1)), Submitted::Rejected);
        // Coalescing still works at capacity: no new entry is created.
        assert_eq!(q.submit(req(0, 1, 9)), Submitted::Coalesced);
        assert_eq!(q.stats().rejected, 1);
    }

    #[test]
    fn aging_promotes_starved_low_priority_work() {
        let q = RecompileQueue::new(QueueConfig {
            capacity: 16,
            batch_max: 1,
            aging_boost: 100,
        });
        q.submit(req(0, 0, 10)); // the starvation candidate
        for round in 0..4 {
            q.submit(req(100 + round, 0, 1_000)); // hot stream
            let batch = q.try_pop_batch().unwrap();
            if batch[0].waiters[0].function_index == 0 {
                // Aged past the hot stream: 10 + age*100 > 1000 once
                // age > 9 — but the hot entry also ages, so promotion
                // happens as soon as the candidate's head start wins.
                assert!(batch[0].age > 0);
                assert!(q.stats().aged_promotions > 0);
                return;
            }
        }
        // Four rounds of a 1000-vs-10 stream with boost 100: by round 4
        // the candidate's effective priority is 10 + 4*100 = 410 < 1000,
        // so not yet promoted — keep starving it and it must surface.
        for round in 0..16 {
            q.submit(req(200 + round, 0, 1_000));
            let batch = q.try_pop_batch().unwrap();
            if batch[0].waiters[0].function_index == 0 {
                assert!(q.stats().aged_promotions > 0);
                return;
            }
        }
        panic!("low-priority request starved despite aging");
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = std::sync::Arc::new(RecompileQueue::new(QueueConfig::default()));
        q.submit(req(0, 0, 1));
        q.close();
        assert_eq!(q.submit(req(1, 0, 1)), Submitted::Rejected);
        let worker = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = 0;
                while let Some(batch) = q.pop_batch() {
                    for job in &batch {
                        q.complete(job);
                    }
                    seen += batch.len();
                }
                seen
            })
        };
        assert_eq!(worker.join().unwrap(), 1, "pending work drains past close");
        assert_eq!(q.stats().completed, 1);
        assert_eq!(q.latencies_us().len(), 1);
    }
}
