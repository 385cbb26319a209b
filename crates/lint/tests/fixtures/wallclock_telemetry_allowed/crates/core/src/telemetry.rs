// The audited shape: a wall-clock read in a telemetry module carries an
// explicit wallclock-in-sim allow with its reason.
pub struct WallClock;

impl WallClock {
    pub fn start_nanos() -> u128 {
        // lint:allow(wallclock-in-sim): the single audited wall-time gate for measured paths
        let t0 = std::time::Instant::now();
        t0.elapsed().as_nanos()
    }
}
