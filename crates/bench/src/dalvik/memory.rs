//! Memory accounting for the Table 1 experiment.
//!
//! The paper reports, per application, the resident memory with and without
//! Dimmunix, and the overall RAM utilization of the phone (52% vs 50% of the
//! Nexus One's 512 MB). The simulator charges Dimmunix for exactly the
//! structures §4 describes — positions and their queues, RAG nodes, the
//! history, per-thread stack buffers and per-monitor nodes — and this module
//! turns those byte counts into the megabyte/percent figures of the table.

/// Total RAM of the reference device (Nexus One, §5).
const DEVICE_RAM_BYTES: usize = 512 * 1024 * 1024;

/// Memory report for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AppMemory {
    /// Resident bytes on the vanilla platform.
    pub vanilla_bytes: usize,
    /// Resident bytes with Dimmunix enabled.
    pub dimmunix_bytes: usize,
}

impl AppMemory {
    /// Creates a report from the two byte counts.
    pub fn new(vanilla_bytes: usize, dimmunix_bytes: usize) -> Self {
        AppMemory {
            vanilla_bytes,
            dimmunix_bytes,
        }
    }
}

/// Platform-wide memory utilization, aggregating every running application
/// plus a fixed system share (the OS itself and native services).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformMemory {
    /// Bytes used by the OS outside the profiled applications.
    pub system_bytes: usize,
    /// Sum of application bytes on the vanilla platform.
    pub apps_vanilla_bytes: usize,
    /// Sum of application bytes with Dimmunix.
    pub apps_dimmunix_bytes: usize,
    /// Device RAM used for the percentage figures.
    pub ram_bytes: usize,
}

impl PlatformMemory {
    /// Creates an empty report with the default device RAM and system share.
    pub fn new(system_bytes: usize) -> Self {
        PlatformMemory {
            system_bytes,
            apps_vanilla_bytes: 0,
            apps_dimmunix_bytes: 0,
            ram_bytes: DEVICE_RAM_BYTES,
        }
    }

    /// Adds one application's report.
    pub(crate) fn add_app(&mut self, app: AppMemory) {
        self.apps_vanilla_bytes += app.vanilla_bytes;
        self.apps_dimmunix_bytes += app.dimmunix_bytes;
    }

    /// Overall RAM utilization without Dimmunix (`0.50` for 50%).
    pub fn utilization_vanilla(&self) -> f64 {
        (self.system_bytes + self.apps_vanilla_bytes) as f64 / self.ram_bytes as f64
    }

    /// Overall RAM utilization with Dimmunix.
    pub fn utilization_dimmunix(&self) -> f64 {
        (self.system_bytes + self.apps_dimmunix_bytes) as f64 / self.ram_bytes as f64
    }

    /// Overall memory overhead attributable to Dimmunix, relative to the
    /// vanilla application footprint (the paper's "overall 4%").
    pub fn overall_overhead(&self) -> f64 {
        if self.apps_vanilla_bytes == 0 {
            0.0
        } else {
            (self.apps_dimmunix_bytes as f64 - self.apps_vanilla_bytes as f64)
                / self.apps_vanilla_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_memory_overhead() {
        let mut p = PlatformMemory::new(0);
        p.add_app(AppMemory::new(15_000_000, 15_800_000));
        assert!((p.overall_overhead() - 0.0533).abs() < 0.001);
    }

    #[test]
    fn platform_utilization_tracks_apps() {
        let mut p = PlatformMemory::new(150 * 1024 * 1024);
        for _ in 0..8 {
            p.add_app(AppMemory::new(
                12 * 1024 * 1024,
                12 * 1024 * 1024 + 500 * 1024,
            ));
        }
        assert!(p.utilization_dimmunix() > p.utilization_vanilla());
        assert!(p.overall_overhead() > 0.0 && p.overall_overhead() < 0.1);
        // Paper ballpark: utilization around half of RAM.
        assert!(p.utilization_vanilla() > 0.2 && p.utilization_vanilla() < 0.9);
    }

    #[test]
    fn empty_platform_has_zero_overhead() {
        let p = PlatformMemory::new(100);
        assert_eq!(p.overall_overhead(), 0.0);
    }
}
