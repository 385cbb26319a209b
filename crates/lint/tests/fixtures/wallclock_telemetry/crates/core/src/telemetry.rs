// A telemetry module gets no blanket exemption: a raw wall-clock read
// without an allow is a finding.
pub struct WallClock;

impl WallClock {
    pub fn start_nanos() -> u128 {
        let t0 = std::time::Instant::now();
        t0.elapsed().as_nanos()
    }
}
