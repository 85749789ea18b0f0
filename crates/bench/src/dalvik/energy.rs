//! A simple energy model for the §5 power-consumption experiment.
//!
//! The paper's claim is modest: Android's battery-usage screen attributes
//! 14% of the power draw to "applications + OS" both with and without
//! Dimmunix, i.e. the immunity layer's extra work is below the measurement
//! granularity. We model per-process energy as a linear function of busy
//! cycles and synchronization operations. The immunity layer's extra work
//! per synchronization is not a constant of the model: the caller passes it
//! in busy cycles (one cycle is 1 µs of one core at the simulator's
//! 10⁶ cycles per second), from a measured cost, and the vanilla platform
//! passes 0. The experiment then reports the application share of total
//! platform energy at the reporting granularity (whole percents), as the
//! paper does.

/// Energy cost parameters, in arbitrary "energy units".
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnergyModel {
    /// Cost of one busy cycle of application work.
    pub per_cycle: f64,
    /// Cost of one synchronization operation on the vanilla platform.
    pub per_sync: f64,
    /// Fixed platform draw (screen, radios, kernel) over the measured window,
    /// which dominates a phone's battery usage.
    pub platform_baseline: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            per_cycle: 1.0,
            per_sync: 25.0,
            // Calibrated against the paper's battery-screen figure: over the
            // Table-1 "intensive usage" window (30 s, all eight apps at
            // their busiest rate: 3.0e7 cycles + ~2.2e5 syncs ≈ 3.55e7
            // app energy units), screen/radios/kernel must dominate so that
            // applications + OS land at ~14% of total draw on the vanilla
            // platform.
            platform_baseline: 2.18e8,
        }
    }
}

/// Energy report for one measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnergyReport {
    /// Energy consumed by applications and the OS runtime.
    pub app_energy: f64,
    /// Fixed platform energy.
    pub platform_energy: f64,
}

impl EnergyReport {
    /// Share of total energy attributed to applications + OS, as the battery
    /// screen would report it (`0.14` for 14%).
    pub fn app_share(&self) -> f64 {
        self.app_energy / (self.app_energy + self.platform_energy)
    }

    /// The same share rounded to whole percents — the granularity at which
    /// Android reports battery usage and at which the paper compares runs.
    pub fn app_share_percent(&self) -> u32 {
        (self.app_share() * 100.0).round() as u32
    }
}

impl EnergyModel {
    /// Energy consumed by an application that executed `cycles` busy cycles
    /// and `syncs` synchronizations, each of which spent
    /// `immunity_cycles_per_sync` extra busy cycles in the immunity layer
    /// (0 on the vanilla platform).
    pub fn app_energy(&self, cycles: u64, syncs: u64, immunity_cycles_per_sync: f64) -> f64 {
        let syncs = syncs as f64;
        (cycles as f64 + syncs * immunity_cycles_per_sync) * self.per_cycle + syncs * self.per_sync
    }

    /// Builds the report for a whole measurement window; the arguments are
    /// [`app_energy`](Self::app_energy)'s.
    pub fn report(&self, cycles: u64, syncs: u64, immunity_cycles_per_sync: f64) -> EnergyReport {
        EnergyReport {
            app_energy: self.app_energy(cycles, syncs, immunity_cycles_per_sync),
            platform_energy: self.platform_baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimmunix_adds_small_per_sync_cost() {
        // One busy cycle of immunity work per sync costs exactly one cycle's
        // energy per sync, a small share of the application's energy.
        let m = EnergyModel::default();
        let vanilla = m.app_energy(1_000_000, 50_000, 0.0);
        let with = m.app_energy(1_000_000, 50_000, 1.0);
        assert_eq!(with - vanilla, 50_000.0 * m.per_cycle);
        assert!((with - vanilla) / vanilla < 0.05);
    }

    #[test]
    fn reported_share_is_unchanged_at_percent_granularity() {
        // The Table-1 "intensive usage" window: 30 simulated seconds of all
        // eight profiled apps (≈ 7,373 syncs/s in total) on a 1 MHz-cycle
        // simulated core.
        let m = EnergyModel::default();
        let cycles = 30_000_000;
        let syncs = 221_190;
        // 1 µs of immunity work per sync: one busy cycle.
        let vanilla = m.report(cycles, syncs, 0.0);
        let with = m.report(cycles, syncs, 1.0);
        assert_eq!(vanilla.app_share_percent(), with.app_share_percent());
        // The paper's battery screen attributes ~14% to applications + OS;
        // the model must reproduce that share at percent granularity.
        assert_eq!(vanilla.app_share_percent(), 14);
        assert_eq!(with.app_share_percent(), 14);
        assert!(
            (vanilla.app_share() - 0.14).abs() < 0.01,
            "vanilla share {:.4} drifted from the paper's 14%",
            vanilla.app_share()
        );
    }

    #[test]
    fn share_math_is_sane() {
        let r = EnergyReport {
            app_energy: 14.0,
            platform_energy: 86.0,
        };
        assert_eq!(r.app_share_percent(), 14);
    }
}
