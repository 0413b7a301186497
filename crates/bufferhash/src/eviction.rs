//! Eviction policies (§5.1.2).
//!
//! BufferHash evicts at incarnation granularity using two primitives:
//!
//! * **full discard** — drop the oldest incarnation wholesale;
//! * **partial discard** — scan the oldest incarnation before dropping it
//!   and re-insert the entries that should be retained.
//!
//! The policies below are built from those primitives. FIFO (the default)
//! uses full discard; LRU uses full discard plus re-insertion-on-use at
//! lookup time; the update-based and priority-based policies use partial
//! discard and may trigger *cascaded evictions* when everything in the
//! evicted incarnation has to be retained.

use crate::types::Entry;

/// A function deriving an entry's priority for [`EvictionPolicy::PriorityBased`].
pub type PriorityFn = fn(&Entry) -> u64;

/// Default priority function: the entry's value (documented convention for
/// applications that encode a priority in the value).
pub fn value_as_priority(e: &Entry) -> u64 {
    e.value
}

/// How a super table makes room when its incarnation table is full.
#[derive(Debug, Clone, Copy, Default)]
pub enum EvictionPolicy {
    /// Drop the oldest incarnation wholesale (full discard). The most
    /// efficient policy and the BufferHash default; matches how commercial
    /// WAN optimizers age out fingerprints.
    #[default]
    Fifo,
    /// FIFO plus re-insertion: whenever a lookup finds an item in an
    /// incarnation (not the buffer), the item is re-inserted into the
    /// buffer, so recently used items survive eviction of old incarnations.
    Lru,
    /// Partial discard retaining entries that are still current: an entry is
    /// discarded only if its key was deleted, or appears in the buffer or in
    /// a younger incarnation (checked via the in-memory Bloom filters, so a
    /// false positive can occasionally discard a live entry — §5.1.2,
    /// footnote 2).
    UpdateBased,
    /// Partial discard retaining entries whose priority (derived by
    /// `priority`) is at least `threshold`.
    PriorityBased {
        /// Minimum priority an entry needs to be retained.
        threshold: u64,
        /// Function deriving an entry's priority.
        priority: PriorityFn,
    },
}

impl PartialEq for EvictionPolicy {
    /// Policies compare by kind and threshold; the priority function is
    /// intentionally ignored (function pointer identity is not meaningful).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (EvictionPolicy::Fifo, EvictionPolicy::Fifo)
            | (EvictionPolicy::Lru, EvictionPolicy::Lru)
            | (EvictionPolicy::UpdateBased, EvictionPolicy::UpdateBased) => true,
            (
                EvictionPolicy::PriorityBased { threshold: a, .. },
                EvictionPolicy::PriorityBased { threshold: b, .. },
            ) => a == b,
            _ => false,
        }
    }
}

impl Eq for EvictionPolicy {}

impl EvictionPolicy {
    /// Returns `true` for policies that use the partial-discard primitive
    /// (and therefore must scan the evicted incarnation).
    pub fn uses_partial_discard(&self) -> bool {
        matches!(self, EvictionPolicy::UpdateBased | EvictionPolicy::PriorityBased { .. })
    }

    /// Returns `true` if lookups should re-insert flash hits into the buffer.
    pub fn reinserts_on_use(&self) -> bool {
        matches!(self, EvictionPolicy::Lru)
    }

    /// Convenience constructor for a priority policy using the entry value
    /// as its priority.
    pub fn priority_threshold(threshold: u64) -> Self {
        EvictionPolicy::PriorityBased { threshold, priority: value_as_priority }
    }

    /// Decides whether `entry` of the incarnation being evicted is retained
    /// (§5.1.2), from facts the caller establishes: whether the entry's key
    /// is on the delete list (`deleted`), in the buffer (`buffered`), or
    /// possibly in a younger incarnation (`in_younger`).
    ///
    /// Full-discard policies retain nothing. The update-based policy
    /// retains an entry that is still current: not deleted and not
    /// superseded by the buffer or a younger incarnation. The
    /// priority-based policy retains a non-deleted entry whose priority
    /// reaches the threshold.
    pub fn retain(
        &self,
        entry: &Entry,
        deleted: bool,
        buffered: bool,
        in_younger: bool,
    ) -> RetainDecision {
        let retain = match self {
            EvictionPolicy::Fifo | EvictionPolicy::Lru => false,
            EvictionPolicy::UpdateBased => !(deleted || buffered || in_younger),
            EvictionPolicy::PriorityBased { threshold, priority } => {
                !deleted && priority(entry) >= *threshold
            }
        };
        if retain {
            RetainDecision::Retain
        } else {
            RetainDecision::Discard
        }
    }
}

/// Why an entry of an evicted incarnation was kept or dropped (returned by
/// the retain decision for statistics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainDecision {
    /// The entry is re-inserted into the buffer.
    Retain,
    /// The entry is discarded because the policy says it is dead.
    Discard,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fifo() {
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Fifo);
    }

    #[test]
    fn partial_discard_classification() {
        assert!(!EvictionPolicy::Fifo.uses_partial_discard());
        assert!(!EvictionPolicy::Lru.uses_partial_discard());
        assert!(EvictionPolicy::UpdateBased.uses_partial_discard());
        assert!(EvictionPolicy::priority_threshold(5).uses_partial_discard());
    }

    #[test]
    fn only_lru_reinserts_on_use() {
        assert!(EvictionPolicy::Lru.reinserts_on_use());
        assert!(!EvictionPolicy::Fifo.reinserts_on_use());
        assert!(!EvictionPolicy::UpdateBased.reinserts_on_use());
    }

    #[test]
    fn value_priority_helper() {
        let e = Entry::new(1, 99);
        assert_eq!(value_as_priority(&e), 99);
        if let EvictionPolicy::PriorityBased { threshold, priority } =
            EvictionPolicy::priority_threshold(50)
        {
            assert_eq!(threshold, 50);
            assert_eq!(priority(&e), 99);
        } else {
            panic!("expected priority policy");
        }
    }
}
