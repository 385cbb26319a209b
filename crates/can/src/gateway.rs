//! CAN gateway: frame forwarding between bus segments.
//!
//! Figure 1 of the paper shows a central gateway joining the high-speed
//! (powertrain/chassis) and low-speed (body/comfort) CAN segments. The
//! gateway forwards selected identifiers between segments, re-queuing
//! them for arbitration on the far side — which is also why an IDS on
//! one segment sees traffic that originated on the other.

use crate::bus::{Bus, BusEvent};
use crate::filter::FilterBank;
use crate::frame::CanFrame;
use crate::node::CanController;
use crate::time::SimTime;
use crate::timing::{frame_wire_and_slot, Bitrate};

/// Forwarding rule set between two segments.
#[derive(Debug, Clone, Default)]
pub struct GatewayConfig {
    /// Frames accepted from segment A towards segment B
    /// (empty bank = forward everything).
    pub a_to_b: FilterBank,
    /// Frames accepted from segment B towards segment A.
    pub b_to_a: FilterBank,
    /// Store-and-forward processing delay per frame.
    pub forward_delay: SimTime,
}

/// Forwarding statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Frames forwarded from A to B.
    pub a_to_b: u64,
    /// Frames forwarded from B to A.
    pub b_to_a: u64,
    /// Frames dropped by the filters.
    pub filtered: u64,
}

/// A two-port store-and-forward gateway between two [`Bus`] instances.
///
/// The gateway owns a node on each segment. Driving it is cooperative:
/// run both buses for a slice of time, then call
/// [`Gateway::pump`] with the slice's events to transfer frames, and
/// repeat. (The buses advance independently; the pump granularity bounds
/// the forwarding skew, which the `forward_delay` dominates in practice.)
#[derive(Debug)]
pub struct Gateway {
    config: GatewayConfig,
    node_a: usize,
    node_b: usize,
    stats: GatewayStats,
}

impl Gateway {
    /// Attaches gateway nodes to both segments.
    pub fn attach(bus_a: &mut Bus, bus_b: &mut Bus, config: GatewayConfig) -> Self {
        let node_a = bus_a.add_node(CanController::default());
        let node_b = bus_b.add_node(CanController::default());
        Gateway {
            config,
            node_a,
            node_b,
            stats: GatewayStats::default(),
        }
    }

    /// The gateway's node index on segment A.
    pub fn node_a(&self) -> usize {
        self.node_a
    }

    /// The gateway's node index on segment B.
    pub fn node_b(&self) -> usize {
        self.node_b
    }

    /// Forwarding statistics so far.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Transfers one time slice of traffic: events observed on each
    /// segment are filtered and queued for transmission on the other.
    ///
    /// Frames the gateway itself transmitted are not re-forwarded
    /// (split-horizon), so loops cannot form.
    pub fn pump(
        &mut self,
        bus_a: &mut Bus,
        bus_b: &mut Bus,
        events_a: &[BusEvent],
        events_b: &[BusEvent],
    ) {
        let forward = |events: &[BusEvent],
                       own_node: usize,
                       filters: &FilterBank,
                       dst: &mut Bus,
                       dst_node: usize,
                       count: &mut u64,
                       filtered: &mut u64,
                       delay: SimTime| {
            let frames: Vec<(SimTime, CanFrame)> = events
                .iter()
                .filter(|e| e.sender != own_node)
                .filter(|e| {
                    let ok = filters.accepts(&e.frame);
                    if !ok {
                        *filtered += 1;
                    }
                    ok
                })
                .map(|e| (e.time + delay, e.frame))
                .collect();
            *count += frames.len() as u64;
            if !frames.is_empty() {
                dst.attach_source(dst_node, Box::new(frames.into_iter()));
            }
        };
        let mut filtered = self.stats.filtered;
        let delay = self.config.forward_delay;
        forward(
            events_a,
            self.node_a,
            &self.config.a_to_b,
            bus_b,
            self.node_b,
            &mut self.stats.a_to_b,
            &mut filtered,
            delay,
        );
        forward(
            events_b,
            self.node_b,
            &self.config.b_to_a,
            bus_a,
            self.node_a,
            &mut self.stats.b_to_a,
            &mut filtered,
            delay,
        );
        self.stats.filtered = filtered;
    }
}

/// Analytic store-and-forward latency model of one gateway port: when a
/// frame observed complete on the source segment becomes visible on a
/// destination segment.
///
/// The full [`Gateway`] + [`Bus`] pair simulates forwarding with real
/// arbitration; replay harnesses that pace thousands of frames per
/// second (the cross-ECU fleet serving backend) need the same
/// first-order facts — the store-and-forward processing delay and the
/// destination segment's serialisation — without running a second
/// event-driven bus per board. This forwarder keeps exactly that state:
/// a frame released at `arrival + delay` waits for the destination wire
/// to go idle, then occupies it for its own duration plus the
/// interframe space, so a gateway feeding a slower (or busy) segment
/// builds real queueing delay instead of broadcasting frames for free.
///
/// # Example
///
/// ```
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::gateway::SegmentForwarder;
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
///
/// let mut fwd = SegmentForwarder::new(Bitrate::HIGH_SPEED_1M, SimTime::from_micros(20));
/// let f = CanFrame::new(CanId::standard(0x316)?, &[0u8; 8])?;
/// let delivered = fwd.forward(SimTime::from_micros(100), &f);
/// // Processing delay plus the frame's own wire time on the far side.
/// assert!(delivered >= SimTime::from_micros(120));
/// # Ok::<(), canids_can::error::FrameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SegmentForwarder {
    bitrate: Bitrate,
    delay: SimTime,
    busy_until: SimTime,
    forwarded: u64,
}

impl SegmentForwarder {
    /// A forwarder onto a destination segment running at `bitrate`, with
    /// a per-frame store-and-forward processing `delay`.
    pub fn new(bitrate: Bitrate, delay: SimTime) -> Self {
        SegmentForwarder {
            bitrate,
            delay,
            busy_until: SimTime::ZERO,
            forwarded: 0,
        }
    }

    /// Destination segment bitrate.
    pub fn bitrate(&self) -> Bitrate {
        self.bitrate
    }

    /// Frames forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Forwards a frame observed complete on the source segment at
    /// `arrival`; returns its end-of-frame time on the destination
    /// segment.
    ///
    /// Successive deliveries are strictly increasing (the destination
    /// wire serialises frames), so the output order matches the input
    /// order even when the processing delay varies upstream.
    pub fn forward(&mut self, arrival: SimTime, frame: &CanFrame) -> SimTime {
        let release = arrival + self.delay;
        let start = release.max(self.busy_until);
        let (wire, slot) = frame_wire_and_slot(frame, self.bitrate);
        let delivered = start + wire;
        self.busy_until = start + slot;
        self.forwarded += 1;
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::BusConfig;
    use crate::filter::AcceptanceFilter;
    use crate::frame::CanId;
    use crate::timing::Bitrate;

    fn frame(id: u16) -> CanFrame {
        let cid = CanId::standard(id).unwrap();
        CanFrame::new(cid, &[cid.low_byte()]).unwrap()
    }

    fn two_segments() -> (Bus, Bus) {
        (
            Bus::new(BusConfig {
                bitrate: Bitrate::HIGH_SPEED_500K,
                ..BusConfig::default()
            }),
            Bus::new(BusConfig {
                bitrate: Bitrate::LOW_SPEED_125K,
                ..BusConfig::default()
            }),
        )
    }

    #[test]
    fn forwards_frames_across_segments() {
        let (mut a, mut b) = two_segments();
        let src = a.add_node(CanController::default());
        let sink = b.add_node(CanController::default());
        let mut gw = Gateway::attach(&mut a, &mut b, GatewayConfig::default());

        let frames = vec![
            (SimTime::ZERO, frame(0x123)),
            (SimTime::from_micros(500), frame(0x456)),
        ];
        a.attach_source(src, Box::new(frames.into_iter()));
        a.run_until(SimTime::from_millis(2));
        let ev_a = a.take_events();
        gw.pump(&mut a, &mut b, &ev_a, &[]);
        b.run_until(SimTime::from_millis(10));

        assert_eq!(b.controller(sink).rx_pending(), 2);
        assert_eq!(gw.stats().a_to_b, 2);
        assert_eq!(gw.stats().b_to_a, 0);
    }

    #[test]
    fn filters_restrict_forwarding() {
        let (mut a, mut b) = two_segments();
        let src = a.add_node(CanController::default());
        let sink = b.add_node(CanController::default());
        let mut filters = FilterBank::new();
        filters.add(AcceptanceFilter::standard(0x7FF, 0x123));
        let mut gw = Gateway::attach(
            &mut a,
            &mut b,
            GatewayConfig {
                a_to_b: filters,
                ..GatewayConfig::default()
            },
        );

        let frames = vec![
            (SimTime::ZERO, frame(0x123)),
            (SimTime::from_micros(400), frame(0x456)),
        ];
        a.attach_source(src, Box::new(frames.into_iter()));
        a.run_until(SimTime::from_millis(2));
        let ev_a = a.take_events();
        gw.pump(&mut a, &mut b, &ev_a, &[]);
        b.run_until(SimTime::from_millis(10));

        assert_eq!(b.controller(sink).rx_pending(), 1);
        assert_eq!(gw.stats().a_to_b, 1);
        assert_eq!(gw.stats().filtered, 1);
    }

    #[test]
    fn split_horizon_prevents_loops() {
        let (mut a, mut b) = two_segments();
        let src = a.add_node(CanController::default());
        let _sink_b = b.add_node(CanController::default());
        let mut gw = Gateway::attach(&mut a, &mut b, GatewayConfig::default());

        a.attach_source(
            src,
            Box::new(vec![(SimTime::ZERO, frame(0x100))].into_iter()),
        );
        a.run_until(SimTime::from_millis(1));
        let ev_a = a.take_events();
        gw.pump(&mut a, &mut b, &ev_a, &[]);
        b.run_until(SimTime::from_millis(5));
        let ev_b = b.take_events();
        // The only frame on B was sent by the gateway itself: it must not
        // bounce back to A.
        gw.pump(&mut a, &mut b, &[], &ev_b);
        assert_eq!(gw.stats().b_to_a, 0);
        a.run_until(SimTime::from_millis(10));
        assert_eq!(gw.stats().a_to_b, 1);
    }

    #[test]
    fn segment_forwarder_adds_delay_and_wire_time() {
        let mut fwd = SegmentForwarder::new(Bitrate::HIGH_SPEED_1M, SimTime::from_micros(20));
        let f = frame(0x316);
        let t0 = SimTime::from_millis(1);
        let delivered = fwd.forward(t0, &f);
        let wire = crate::timing::frame_duration(&f, Bitrate::HIGH_SPEED_1M);
        assert_eq!(delivered, t0 + SimTime::from_micros(20) + wire);
        assert_eq!(fwd.forwarded(), 1);
    }

    #[test]
    fn segment_forwarder_serialises_bursts() {
        // Two frames arriving simultaneously cannot share the far wire:
        // the second queues behind the first's full slot.
        let mut fwd = SegmentForwarder::new(Bitrate::HIGH_SPEED_500K, SimTime::ZERO);
        let f = frame(0x100);
        let t0 = SimTime::from_micros(50);
        let first = fwd.forward(t0, &f);
        let second = fwd.forward(t0, &f);
        let slot = crate::timing::frame_slot_duration(&f, Bitrate::HIGH_SPEED_500K);
        assert_eq!(second, first + slot);
        // Strictly increasing delivery order.
        let third = fwd.forward(t0, &f);
        assert!(third > second);
    }

    #[test]
    fn segment_forwarder_matches_the_encoded_wire_length_recurrence() {
        // Back-to-back arrivals, so every frame after the first queues
        // behind its predecessor's slot. The reference takes each wire
        // length from `encode_frame`: `start = max(arrival + delay, busy)`,
        // `delivered = start + len` and `busy = start + len +
        // INTERFRAME_BITS` bit times.
        use crate::bits::encode_frame;
        use crate::timing::INTERFRAME_BITS;
        let frames = [
            CanFrame::new(CanId::standard(0).unwrap(), &[0; 8]).unwrap(),
            CanFrame::new(CanId::standard(0x7FF).unwrap(), &[0xFF; 8]).unwrap(),
            CanFrame::new(CanId::extended(0x1FFF_FFFF).unwrap(), &[0x1F, 0xF8]).unwrap(),
            CanFrame::remote(
                CanId::extended(0).unwrap(),
                crate::frame::Dlc::new(8).unwrap(),
            ),
            frame(0x2C0),
        ];
        for rate in [Bitrate::HIGH_SPEED_1M, Bitrate::LOW_SPEED_125K] {
            let delay = SimTime::from_micros(20);
            let mut fwd = SegmentForwarder::new(rate, delay);
            let bit = rate.bit_time();
            let mut busy = SimTime::ZERO;
            for (i, f) in frames.iter().cycle().take(20).enumerate() {
                let arrival = SimTime::from_micros(10 * i as u64);
                let wire = encode_frame(f).len() as u64;
                let start = (arrival + delay).max(busy);
                assert_eq!(fwd.forward(arrival, f), start + bit.mul_u64(wire), "{f}");
                busy = start + bit.mul_u64(wire + INTERFRAME_BITS as u64);
            }
        }
    }

    #[test]
    fn segment_forwarder_matches_full_gateway_simulation() {
        // The analytic model must not undercut the event-driven gateway:
        // a frame through Gateway+Bus arrives no earlier than the
        // forwarder's first-order prediction (the full simulation adds
        // arbitration and pump-granularity skew on top).
        let (mut a, mut b) = two_segments();
        let src = a.add_node(CanController::default());
        let sink = b.add_node(CanController::default());
        let delay = SimTime::from_millis(1);
        let mut gw = Gateway::attach(
            &mut a,
            &mut b,
            GatewayConfig {
                forward_delay: delay,
                ..GatewayConfig::default()
            },
        );
        a.attach_source(
            src,
            Box::new(vec![(SimTime::ZERO, frame(0x42))].into_iter()),
        );
        a.run_until(SimTime::from_millis(1));
        let ev_a = a.take_events();
        let arrival_on_a = ev_a[0].time;
        gw.pump(&mut a, &mut b, &ev_a, &[]);
        b.run_until(SimTime::from_millis(20));
        let rx = b.controller_mut(sink).pop_rx().unwrap();

        let mut fwd = SegmentForwarder::new(Bitrate::LOW_SPEED_125K, delay);
        let predicted = fwd.forward(arrival_on_a, &frame(0x42));
        assert!(
            rx.timestamp >= predicted,
            "full sim {} earlier than analytic {predicted}",
            rx.timestamp
        );
        // And within one frame slot of it (no hidden extra latency).
        let slot = crate::timing::frame_slot_duration(&frame(0x42), Bitrate::LOW_SPEED_125K);
        assert!(rx.timestamp <= predicted + slot + slot);
    }

    #[test]
    fn forward_delay_shifts_release_times() {
        let (mut a, mut b) = two_segments();
        let src = a.add_node(CanController::default());
        let sink = b.add_node(CanController::default());
        let mut gw = Gateway::attach(
            &mut a,
            &mut b,
            GatewayConfig {
                forward_delay: SimTime::from_millis(3),
                ..GatewayConfig::default()
            },
        );
        a.attach_source(
            src,
            Box::new(vec![(SimTime::ZERO, frame(0x42))].into_iter()),
        );
        a.run_until(SimTime::from_millis(1));
        let ev_a = a.take_events();
        let arrival_on_a = ev_a[0].time;
        gw.pump(&mut a, &mut b, &ev_a, &[]);
        b.run_until(SimTime::from_millis(20));
        let rx = b.controller_mut(sink).pop_rx().unwrap();
        assert!(rx.timestamp >= arrival_on_a + SimTime::from_millis(3));
    }
}
