//! Property tests for the event-driven network core (ISSUE 6):
//!
//! 1. The scheduler executes events in nondecreasing time, with stable
//!    FIFO ordering among same-time events — the invariant the
//!    bit-for-bit analytic equivalence rests on.
//! 2. Random multi-segment topologies conserve frames: every injected
//!    frame (and every fault-generated flood frame) ends either
//!    delivered at a sink or in the drop log with a typed reason.
//! 3. The wire count a frame carries through the fleet network is its
//!    own, at every board: each gateway hop equals the closed-form
//!    `SegmentForwarder` for arbitrary frames.
//! 4. A fleet hop run in place is the event path's exact execution: a
//!    `FleetNet` and a bare `NetSim` built to the same layout agree on
//!    every hop's outcome, the clock and the step count, with and without
//!    faults that force hops back through the scheduler.

use canids_can::frame::{CanFrame, CanId, Dlc};
use canids_can::gateway::SegmentForwarder;
use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_core::net::{
    Event, EventTime, Fault, FleetNet, GatewayId, NetConfig, NetOutcome, NetSim, QueueDiscipline,
    Scheduler, SegmentId, SinkId, Topology,
};
use proptest::prelude::*;

// --------------------------------------------------------------------
// 1. Scheduler ordering
// --------------------------------------------------------------------

/// Records `(firing time, insertion id)` into the shared trace.
struct Probe {
    at: SimTime,
    id: u32,
}

impl Event<Vec<(SimTime, u32)>> for Probe {
    fn time(&self) -> EventTime {
        EventTime::Absolute(self.at)
    }
    fn exec(
        self: Box<Self>,
        now: SimTime,
        trace: &mut Vec<(SimTime, u32)>,
        _spawn: &mut Vec<Box<dyn Event<Vec<(SimTime, u32)>>>>,
    ) {
        trace.push((now, self.id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_fires_in_nondecreasing_time_with_fifo_ties(
        // Few distinct times over many events forces plenty of ties.
        times in proptest::collection::vec(0u64..16, 1..60),
    ) {
        let mut sched: Scheduler<Vec<(SimTime, u32)>> = Scheduler::new();
        for (id, &t) in times.iter().enumerate() {
            sched.schedule(Box::new(Probe {
                at: SimTime::from_micros(t),
                id: u32::try_from(id).unwrap(),
            }));
        }
        let mut trace = Vec::new();
        sched.run(&mut trace);

        prop_assert_eq!(trace.len(), times.len());
        prop_assert_eq!(sched.executed(), times.len() as u64);
        for pair in trace.windows(2) {
            // Time never goes backwards.
            prop_assert!(pair[0].0 <= pair[1].0, "time regressed: {pair:?}");
            // Ties fire in insertion order (stable FIFO).
            if pair[0].0 == pair[1].0 {
                prop_assert!(
                    pair[0].1 < pair[1].1,
                    "same-time events reordered: {pair:?}"
                );
            }
        }
        // Every event fired at its own requested time.
        for &(now, id) in &trace {
            prop_assert_eq!(now, SimTime::from_micros(times[id as usize]));
        }
    }
}

// --------------------------------------------------------------------
// 2. Frame conservation on random topologies
// --------------------------------------------------------------------

/// A random single-backbone tree: each board hangs off the backbone
/// behind a chain of 1..=3 gateway+segment hops.
#[derive(Debug, Clone)]
struct RandomTopo {
    depths: Vec<usize>,
    bitrate_kbps: u32,
    discipline: QueueDiscipline,
    fault: Option<u8>,
    /// Injections as `(time µs, board index modulus)`.
    frames: Vec<(u64, usize)>,
}

fn random_topo() -> impl Strategy<Value = RandomTopo> {
    (
        proptest::collection::vec(1usize..=3, 1..=4),
        prop_oneof![Just(125u32), Just(250), Just(500), Just(1_000)],
        prop_oneof![
            (1usize..24).prop_map(|capacity| QueueDiscipline::DropTail { capacity }),
            (1usize..24).prop_map(|quota| QueueDiscipline::Pfc { quota }),
        ],
        prop_oneof![Just(None), (0u8..3).prop_map(Some)],
        proptest::collection::vec((0u64..20_000, 0usize..4), 1..80),
    )
        .prop_map(
            |(depths, bitrate_kbps, discipline, fault, frames)| RandomTopo {
                depths,
                bitrate_kbps,
                discipline,
                fault,
                frames,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_topologies_conserve_every_frame(topo in random_topo()) {
        let bitrate = Bitrate::new(topo.bitrate_kbps * 1_000);
        let delay = SimTime::from_micros(20);
        let mut b = Topology::builder();
        let backbone = b.segment(bitrate);
        let sinks: Vec<SinkId> = topo
            .depths
            .iter()
            .map(|&depth| {
                let mut upstream = backbone;
                for _ in 0..depth {
                    let gw = b.gateway(upstream, delay, topo.discipline);
                    let seg = b.segment(bitrate);
                    b.port(gw, seg);
                    upstream = seg;
                }
                b.sink(upstream)
            })
            .collect();
        let mut sim = NetSim::new(b.build());

        match topo.fault {
            Some(0) => sim.apply(Fault::BabblingIdiot {
                segment: backbone,
                dest: sinks[0],
                start: SimTime::from_micros(1_000),
                stop: SimTime::from_micros(9_000),
                gap: SimTime::from_micros(80),
            }),
            Some(1) => sim.apply(Fault::BusOff {
                segment: backbone,
                start: SimTime::from_micros(4_000),
                end: SimTime::from_micros(12_000),
            }),
            Some(2) => sim.apply(Fault::GatewayOutage {
                gateway: canids_core::net::GatewayId(0),
                start: SimTime::from_micros(4_000),
                end: SimTime::from_micros(12_000),
            }),
            _ => {}
        }

        let frame = CanFrame::new(CanId::standard(0x321).unwrap(), &[7; 8]).unwrap();
        let tokens: Vec<_> = topo
            .frames
            .iter()
            .map(|&(t, board)| {
                sim.inject(
                    SimTime::from_micros(t),
                    backbone,
                    sinks[board % sinks.len()],
                    frame,
                )
            })
            .collect();
        sim.run();

        let t = sim.topology();
        // Every injected frame resolved to a terminal outcome.
        prop_assert_eq!(t.in_flight(), 0);
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for token in tokens {
            match t.outcome(token) {
                Some(NetOutcome::Delivered(_)) => delivered += 1,
                Some(NetOutcome::Dropped(_)) => dropped += 1,
                None => prop_assert!(false, "unresolved token {token:?}"),
            }
        }
        prop_assert_eq!(delivered + dropped, topo.frames.len() as u64);

        // Global conservation, fault traffic included: everything that
        // entered the network left it at a sink or in the drop log.
        let sunk: u64 = t.sinks_delivered().iter().sum();
        prop_assert_eq!(
            sunk + t.drop_log().len() as u64,
            t.injected() as u64 + t.flood_injected()
        );
        // Typed-reason accounting matches the injected-token ledger:
        // token-carrying drop records are exactly the dropped tokens.
        let token_drops = t.drop_log().iter().filter(|r| r.token.is_some()).count() as u64;
        prop_assert_eq!(token_drops, dropped);
        // Nothing is left buffered in any gateway.
        for load in t.gateway_loads() {
            prop_assert_eq!(load.queued, 0, "gateway {} still buffered", load.gateway);
        }
    }
}

// --------------------------------------------------------------------
// 3. The carried wire count
// --------------------------------------------------------------------

/// Standard or extended, data or remote, DLC 0–8.
fn arb_frame() -> impl Strategy<Value = CanFrame> {
    let id = prop_oneof![
        (0u16..=0x7FF).prop_map(|id| CanId::standard(id).expect("masked")),
        (0u32..=0x1FFF_FFFF).prop_map(|id| CanId::extended(id).expect("masked")),
    ];
    (
        id,
        proptest::collection::vec(any::<u8>(), 0..=8),
        any::<bool>(),
    )
        .prop_map(|(id, payload, remote)| {
            if remote {
                CanFrame::remote(id, Dlc::from_len(payload.len()).expect("len <= 8"))
            } else {
                CanFrame::new(id, &payload).expect("len <= 8")
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fleet_hops_carry_each_frames_own_wire_count(
        boards in 1usize..=6,
        fast in any::<bool>(),
        delay_us in 0u64..40,
        // Gaps from back to back (the frames queue on every leaf) to
        // well past a frame slot.
        frames in proptest::collection::vec((arb_frame(), 0u64..400), 1..60),
    ) {
        let bitrate = if fast { Bitrate::HIGH_SPEED_1M } else { Bitrate::HIGH_SPEED_500K };
        let delay = SimTime::from_micros(delay_us);
        let mut net = FleetNet::single_backbone(boards, bitrate, delay, &NetConfig::default());
        let mut forwarders: Vec<SegmentForwarder> =
            (0..boards).map(|_| SegmentForwarder::new(bitrate, delay)).collect();
        let mut arrival = SimTime::ZERO;
        for (i, (frame, gap_us)) in frames.iter().enumerate() {
            arrival += SimTime::from_micros(*gap_us);
            for (board, forwarder) in forwarders.iter_mut().enumerate() {
                prop_assert_eq!(
                    net.deliver(board, arrival, *frame),
                    NetOutcome::Delivered(forwarder.forward(arrival, frame)),
                    "frame {} ({:?}) diverged on board {}", i, frame, board
                );
            }
        }
    }
}

// --------------------------------------------------------------------
// 4. In-place hops against the event path
// --------------------------------------------------------------------

/// A fault on the fleet layout, boards taken modulo the fleet's size,
/// times in µs.
fn arb_fleet_fault() -> impl Strategy<Value = (u8, usize, u64, u64, u64)> {
    // (kind, board, start, length, babble gap); kind 0 is a gateway
    // outage, 1 a leaf bus-off, 2 a backbone bus-off, 3 a babbling idiot.
    (0u8..4, 0usize..6, 0u64..12_000, 1u64..4_000, 40u64..400)
}

fn fleet_fault((kind, board, start, len, gap): (u8, usize, u64, u64, u64), boards: usize) -> Fault {
    let board = board % boards;
    let (start, end) = (
        SimTime::from_micros(start),
        SimTime::from_micros(start + len),
    );
    match kind {
        0 => Fault::GatewayOutage {
            gateway: GatewayId(board),
            start,
            end,
        },
        1 | 2 => Fault::BusOff {
            segment: SegmentId(if kind == 1 { 1 + board } else { 0 }),
            start,
            end,
        },
        _ => Fault::BabblingIdiot {
            segment: SegmentId(0),
            dest: SinkId(board),
            start,
            stop: end,
            gap: SimTime::from_micros(gap),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn in_place_hops_match_the_event_path(
        boards in 1usize..=6,
        fast in any::<bool>(),
        delay_us in 0u64..40,
        discipline in prop_oneof![
            (1usize..6).prop_map(|capacity| QueueDiscipline::DropTail { capacity }),
            Just(QueueDiscipline::default()),
            (0usize..4).prop_map(|quota| QueueDiscipline::Pfc { quota }),
        ],
        faults in proptest::collection::vec(arb_fleet_fault(), 0..4),
        // Back to back (the frames queue on every leaf) to well past a
        // frame slot.
        frames in proptest::collection::vec((arb_frame(), 0u64..400), 1..60),
    ) {
        let bitrate = if fast { Bitrate::HIGH_SPEED_1M } else { Bitrate::HIGH_SPEED_500K };
        let delay = SimTime::from_micros(delay_us);
        let config = NetConfig {
            discipline,
            faults: faults.into_iter().map(|f| fleet_fault(f, boards)).collect(),
        };
        let mut fleet = FleetNet::single_backbone(boards, bitrate, delay, &config);

        // The same layout as a bare simulation: segment 0 is the
        // backbone; board `b` owns gateway `b`, segment `1 + b` and sink
        // `b`. Every hop runs through its scheduler.
        let mut b = Topology::builder();
        let backbone = b.segment(bitrate);
        let sinks: Vec<SinkId> = (0..boards)
            .map(|_| {
                let gw = b.gateway(backbone, delay, discipline);
                let leaf = b.segment(bitrate);
                b.port(gw, leaf);
                b.sink(leaf)
            })
            .collect();
        let mut sim = NetSim::new(b.build());
        for &fault in &config.faults {
            sim.apply(fault);
        }

        let mut arrival = SimTime::ZERO;
        for (i, (frame, gap_us)) in frames.iter().enumerate() {
            arrival += SimTime::from_micros(*gap_us);
            for (board, &sink) in sinks.iter().enumerate() {
                let hop = fleet.deliver(board, arrival, *frame);
                sim.run_until(arrival);
                let token = sim.inject(arrival, backbone, sink, *frame);
                let expect = sim.resolve(token);
                prop_assert_eq!(
                    (hop, fleet.sim().now(), fleet.sim().executed()),
                    (expect, sim.now(), sim.executed()),
                    "frame {} diverged on board {}", i, board
                );
            }
        }
        fleet.finish();
        sim.run();

        let (got, want) = (fleet.sim().topology(), sim.topology());
        prop_assert_eq!(got.gateway_loads(), want.gateway_loads());
        prop_assert_eq!(got.drop_log(), want.drop_log());
        prop_assert_eq!(got.sinks_delivered(), want.sinks_delivered());
        prop_assert_eq!(got.injected(), want.injected());
        prop_assert_eq!(got.flood_injected(), want.flood_injected());
        prop_assert_eq!(fleet.sim().executed(), sim.executed());
        prop_assert_eq!(fleet.sim().now(), sim.now());
    }
}
