//! Programmable-logic power model.
//!
//! A per-resource activity model in the spirit of vendor estimators
//! (XPE): dynamic power scales with clock frequency, resource usage and a
//! toggle-activity factor; static power is a device property. The
//! coefficients are calibrated so the paper's operating point — one 4-bit
//! QMLP IP next to a Linux PS — lands at the measured 2.09 W total board
//! power (see `canids-soc::power_rails` for the PS side and the
//! calibration note in EXPERIMENTS.md).

use crate::resources::ResourceEstimate;

/// Dynamic power coefficients in watts per resource per Hz of clock at
/// 100 % toggle activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCoefficients {
    /// Watts per LUT·Hz.
    pub per_lut_hz: f64,
    /// Watts per FF·Hz.
    pub per_ff_hz: f64,
    /// Watts per BRAM36·Hz.
    pub per_bram_hz: f64,
    /// Watts per DSP·Hz.
    pub per_dsp_hz: f64,
    /// PL static power in watts (device leakage at nominal temperature).
    pub pl_static_w: f64,
}

impl PowerCoefficients {
    /// UltraScale+ -class coefficients (16 nm), calibrated against the
    /// paper's ZCU104 operating point: a fully-toggling LUT at 200 MHz
    /// burns ≈ 16 µW, a BRAM36 ≈ 3 mW, a DSP ≈ 2 mW.
    pub fn ultrascale_plus() -> Self {
        PowerCoefficients {
            per_lut_hz: 8.0e-14,
            per_ff_hz: 2.0e-14,
            per_bram_hz: 1.5e-11,
            per_dsp_hz: 1.0e-11,
            pl_static_w: 0.28,
        }
    }
}

impl Default for PowerCoefficients {
    fn default() -> Self {
        PowerCoefficients::ultrascale_plus()
    }
}

/// A PL power estimate in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// Activity-dependent power.
    pub dynamic_w: f64,
    /// Leakage power.
    pub static_w: f64,
}

impl PowerEstimate {
    /// Total PL power.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.static_w
    }

    /// Energy for a task of the given duration, in joules.
    pub fn energy_j(&self, seconds: f64) -> f64 {
        self.total_w() * seconds
    }
}

/// Estimates PL power for a design occupying `usage` at `clock_hz` with
/// the given `toggle` activity (0..1; idle fabric still burns static
/// power).
///
/// # Example
///
/// ```
/// use canids_dataflow::power::{estimate_power, PowerCoefficients};
/// use canids_dataflow::resources::ResourceEstimate;
///
/// let usage = ResourceEstimate { lut: 8_000, ff: 12_000, bram36: 4, dsp: 0 };
/// let p = estimate_power(usage, 200_000_000, 0.125, PowerCoefficients::default());
/// // A small IDS IP: tens to a few hundred milliwatts of dynamic power.
/// assert!(p.dynamic_w > 0.001 && p.dynamic_w < 0.5, "{}", p.dynamic_w);
/// ```
pub fn estimate_power(
    usage: ResourceEstimate,
    clock_hz: u64,
    toggle: f64,
    coeffs: PowerCoefficients,
) -> PowerEstimate {
    let f = clock_hz as f64;
    let toggle = toggle.clamp(0.0, 1.0);
    let dynamic_w = toggle
        * f
        * (usage.lut as f64 * coeffs.per_lut_hz
            + usage.ff as f64 * coeffs.per_ff_hz
            + usage.bram36 as f64 * coeffs.per_bram_hz
            + usage.dsp as f64 * coeffs.per_dsp_hz);
    PowerEstimate {
        dynamic_w,
        static_w: coeffs.pl_static_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage() -> ResourceEstimate {
        ResourceEstimate {
            lut: 8_000,
            ff: 12_000,
            bram36: 4,
            dsp: 0,
        }
    }

    #[test]
    fn dynamic_scales_with_clock() {
        let c = PowerCoefficients::default();
        let p1 = estimate_power(usage(), 100_000_000, 0.2, c);
        let p2 = estimate_power(usage(), 200_000_000, 0.2, c);
        assert!((p2.dynamic_w / p1.dynamic_w - 2.0).abs() < 1e-9);
        assert_eq!(p1.static_w, p2.static_w);
    }

    #[test]
    fn dynamic_scales_with_toggle() {
        let c = PowerCoefficients::default();
        let idle = estimate_power(usage(), 200_000_000, 0.0, c);
        let busy = estimate_power(usage(), 200_000_000, 0.5, c);
        assert_eq!(idle.dynamic_w, 0.0);
        assert!(busy.dynamic_w > 0.0);
        assert!(idle.total_w() > 0.0, "static floor remains");
    }

    #[test]
    fn toggle_clamped() {
        let c = PowerCoefficients::default();
        let a = estimate_power(usage(), 1_000_000, 2.0, c);
        let b = estimate_power(usage(), 1_000_000, 1.0, c);
        assert_eq!(a, b);
    }

    #[test]
    fn energy_integrates_power() {
        let c = PowerCoefficients::default();
        let p = estimate_power(usage(), 200_000_000, 0.125, c);
        let e = p.energy_j(0.5);
        assert!((e - p.total_w() * 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_ip_power_is_sub_watt() {
        // The QMLP IP must be a small fraction of the 2.09 W board total.
        let c = PowerCoefficients::default();
        let p = estimate_power(usage(), 200_000_000, 0.125, c);
        assert!(p.total_w() < 0.8, "PL total {}", p.total_w());
        assert!(p.total_w() > 0.2, "PL static should be visible");
    }
}
