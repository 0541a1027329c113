//! Resource dispositions: cache-eviction categories.

/// Categorizes the cache eviction policy for a resource (paper §5).
///
/// The weighted LRU evicts unused resources in descending `t / w`, so a
/// *smaller* weight makes a resource a *more* attractive victim at equal
/// idle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Disposition {
    /// Can never be unloaded (e.g. system catalogs, delta fragments).
    NonSwappable,
    /// Long-lived hot structures; evicted only as a last resort.
    LongTerm,
    /// Ordinary cached structures (fully-resident column mains by default).
    MidTerm,
    /// Structures expected to be re-created cheaply.
    ShortTerm,
    /// Expected to be unloaded as soon as no longer needed.
    Temporary,
    /// A page of a page-loadable column.
    /// Accounted in the dedicated paged pool; evicted by the reactive and
    /// proactive mechanisms, where the weight plays no role (plain LRU).
    PagedAttribute,
}

impl Disposition {
    /// The weight `w` used by the weighted-LRU score `t / w`.
    pub fn weight(self) -> f64 {
        match self {
            Disposition::NonSwappable => f64::INFINITY,
            Disposition::LongTerm => 16.0,
            Disposition::MidTerm => 4.0,
            Disposition::ShortTerm => 2.0,
            Disposition::Temporary => 0.25,
            // Within the paged pool the weight is ignored; for global
            // low-memory sweeps paged pieces count as ordinary cache.
            Disposition::PagedAttribute => 1.0,
        }
    }

    /// True when the resource may be selected as an eviction victim.
    pub fn evictable(self) -> bool {
        !matches!(self, Disposition::NonSwappable)
    }

    /// True when the resource is accounted in the paged-attribute pool.
    pub fn is_paged(self) -> bool {
        matches!(self, Disposition::PagedAttribute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_order_eviction_priority() {
        // Lower weight ⇒ higher t/w ⇒ evicted earlier.
        assert!(Disposition::Temporary.weight() < Disposition::ShortTerm.weight());
        assert!(Disposition::ShortTerm.weight() < Disposition::MidTerm.weight());
        assert!(Disposition::MidTerm.weight() < Disposition::LongTerm.weight());
        assert!(Disposition::LongTerm.weight() < Disposition::NonSwappable.weight());
    }

    #[test]
    fn non_swappable_is_never_evictable() {
        assert!(!Disposition::NonSwappable.evictable());
        assert!(Disposition::PagedAttribute.evictable());
        assert!(Disposition::PagedAttribute.is_paged());
        assert!(!Disposition::MidTerm.is_paged());
    }
}
