//! Event-driven fleet network core.
//!
//! The analytic gateway path ([`canids_can::gateway::SegmentForwarder`])
//! models one store-and-forward hop with closed-form math; it cannot
//! express backbone congestion, finite switch buffers, multi-segment
//! topologies, or faults. This module rebuilds the cross-ECU substrate
//! as a deterministic discrete-event simulation:
//!
//! * an [`Event`] trait with [`EventTime::Absolute`] / [`EventTime::Delta`]
//!   times and a [`Scheduler`] over a `BinaryHeap` with deterministic
//!   tie-breaking — (time, then sequence number) — so identical inputs
//!   replay identically, which the bit-for-bit cross-checks against the
//!   analytic path require;
//! * a [`Topology`] of nodes: CAN buses as links ([`SegmentId`]),
//!   gateways as switch nodes ([`GatewayId`]) with pluggable queue
//!   disciplines ([`QueueDiscipline::DropTail`] shared buffers and
//!   [`QueueDiscipline::Pfc`]-style per-port backpressure), and boards
//!   as sink nodes ([`SinkId`]) hosting `EcuStream`s;
//! * first-class fault events ([`Fault`]): a babbling-idiot node, a
//!   segment bus-off window, and a timed gateway outage, with every
//!   lost frame accounted under a typed [`DropReason`] (no silent loss).
//!
//! [`FleetNet`] packages the common single-backbone fleet topology and
//! is the transport of every `serve::FleetBackend` replay, configured
//! through `ReplayConfig::transport`. On uncongested topologies its
//! per-gateway egress math is *exactly* the `SegmentForwarder`
//! recurrence (`release = arrival + delay`,
//! `start = max(release, busy_until)`,
//! `delivered = start + frame_duration`,
//! `busy_until = start + frame_slot_duration`), so every board's gateway
//! hop matches the closed form frame for frame
//! (`tests/net_equivalence.rs`).
//!
//! # Lazy co-simulation
//!
//! The serve harness pushes capture frames one at a time in timestamp
//! order. [`FleetNet::deliver`] advances the simulation to the frame's
//! arrival, injects it, then runs events forward until that frame
//! resolves (delivered or dropped). This is sound for the FIFO
//! disciplines here because later arrivals can never change an earlier
//! frame's outcome. One documented consequence: fault traffic generated
//! while running ahead can execute slightly "late" relative to the next
//! capture frame's timestamp; all computed frame times use carried
//! timestamps (never the scheduler clock), so delivery times are
//! unaffected — only the interleaving of attacker frames between two
//! capture pushes can shift, and only in faulted scenarios.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use canids_can::frame::{CanFrame, CanId};
use canids_can::time::SimTime;
use canids_can::timing::{frame_wire_and_slot, Bitrate};

// ---------------------------------------------------------------------
// Node and frame identifiers
// ---------------------------------------------------------------------

/// A CAN bus segment (a link) in a [`Topology`].
///
/// # Example
///
/// ```
/// use canids_core::net::Topology;
/// use canids_can::timing::Bitrate;
///
/// let mut b = Topology::builder();
/// let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
/// assert_eq!(backbone.0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

/// A gateway (switch node) in a [`Topology`].
///
/// # Example
///
/// ```
/// use canids_core::net::{QueueDiscipline, Topology};
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
///
/// let mut b = Topology::builder();
/// let bus = b.segment(Bitrate::HIGH_SPEED_1M);
/// let gw = b.gateway(bus, SimTime::from_micros(20), QueueDiscipline::default());
/// assert_eq!(gw.0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GatewayId(pub usize);

/// A board sink node (frame destination) in a [`Topology`].
///
/// # Example
///
/// ```
/// use canids_core::net::Topology;
/// use canids_can::timing::Bitrate;
///
/// let mut b = Topology::builder();
/// let bus = b.segment(Bitrate::HIGH_SPEED_1M);
/// let board = b.sink(bus);
/// assert_eq!(board.0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SinkId(pub usize);

/// Handle to one injected frame; resolves to a [`NetOutcome`].
///
/// # Example
///
/// ```
/// use canids_core::net::{NetOutcome, NetSim, Topology};
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
///
/// let mut b = Topology::builder();
/// let bus = b.segment(Bitrate::HIGH_SPEED_1M);
/// let board = b.sink(bus);
/// let mut sim = NetSim::new(b.build());
/// let f = CanFrame::new(CanId::standard(0x42)?, &[0; 8])?;
/// let token = sim.inject(SimTime::from_micros(5), bus, board, f);
/// sim.run();
/// assert!(matches!(sim.outcome(token), Some(NetOutcome::Delivered(_))));
/// # Ok::<(), canids_can::error::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameToken(pub usize);

// ---------------------------------------------------------------------
// Event core
// ---------------------------------------------------------------------

/// When an event fires: at an absolute simulation time, or a delta from
/// the moment it is scheduled.
///
/// # Example
///
/// ```
/// use canids_core::net::EventTime;
/// use canids_can::time::SimTime;
///
/// let now = SimTime::from_micros(10);
/// assert_eq!(EventTime::Delta(SimTime::from_micros(5)).abs_time(now), SimTime::from_micros(15));
/// // Absolute times already in the past clamp to `now`: the scheduler
/// // never runs backwards.
/// assert_eq!(EventTime::Absolute(SimTime::from_micros(3)).abs_time(now), now);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventTime {
    /// Fire at this simulation time (clamped to "no earlier than now").
    Absolute(SimTime),
    /// Fire this long after the event is scheduled.
    Delta(SimTime),
}

impl EventTime {
    /// Resolves to an absolute firing time, given the scheduler clock.
    pub fn abs_time(self, now: SimTime) -> SimTime {
        match self {
            EventTime::Absolute(t) => t.max(now),
            EventTime::Delta(d) => now + d,
        }
    }
}

/// A schedulable simulation event over state `S`.
///
/// `exec` consumes the event and may spawn follow-up events (their
/// [`EventTime::Delta`] times resolve against the firing time).
///
/// # Example
///
/// ```
/// use canids_core::net::{Event, EventTime, Scheduler};
/// use canids_can::time::SimTime;
///
/// struct Tick(u32);
/// impl Event<Vec<u32>> for Tick {
///     fn time(&self) -> EventTime {
///         EventTime::Absolute(SimTime::from_micros(self.0 as u64))
///     }
///     fn exec(self: Box<Self>, _now: SimTime, log: &mut Vec<u32>) -> Vec<Box<dyn Event<Vec<u32>>>> {
///         log.push(self.0);
///         Vec::new()
///     }
/// }
///
/// let mut sched = Scheduler::new();
/// sched.schedule(Box::new(Tick(7)));
/// sched.schedule(Box::new(Tick(3)));
/// let mut log = Vec::new();
/// sched.run(&mut log);
/// assert_eq!(log, vec![3, 7]);
/// ```
pub trait Event<S> {
    /// When the event wants to fire.
    fn time(&self) -> EventTime;
    /// Fires the event at `now`, returning any follow-up events.
    fn exec(self: Box<Self>, now: SimTime, state: &mut S) -> Vec<Box<dyn Event<S>>>;
}

struct EventContainer<S> {
    time: SimTime,
    seq: u64,
    event: Box<dyn Event<S>>,
}

impl<S> PartialEq for EventContainer<S> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<S> Eq for EventContainer<S> {}
impl<S> PartialOrd for EventContainer<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for EventContainer<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the earliest
        // (time, seq) first. The sequence number makes ties FIFO.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic discrete-event scheduler: a `BinaryHeap` ordered by
/// (time, then monotone sequence number), so same-time events execute
/// in the order they were scheduled — stable FIFO ties.
///
/// # Example
///
/// ```
/// use canids_core::net::{Event, EventTime, Scheduler};
/// use canids_can::time::SimTime;
///
/// struct At(u64, u32);
/// impl Event<Vec<u32>> for At {
///     fn time(&self) -> EventTime {
///         EventTime::Absolute(SimTime::from_nanos(self.0))
///     }
///     fn exec(self: Box<Self>, _now: SimTime, log: &mut Vec<u32>) -> Vec<Box<dyn Event<Vec<u32>>>> {
///         log.push(self.1);
///         Vec::new()
///     }
/// }
///
/// let mut sched = Scheduler::new();
/// sched.schedule(Box::new(At(100, 1))); // same time, scheduled first
/// sched.schedule(Box::new(At(100, 2))); // same time, scheduled second
/// sched.schedule(Box::new(At(50, 0)));
/// let mut log = Vec::new();
/// sched.run(&mut log);
/// assert_eq!(log, vec![0, 1, 2]);
/// assert_eq!(sched.executed(), 3);
/// ```
pub struct Scheduler<S> {
    heap: BinaryHeap<EventContainer<S>>,
    now: SimTime,
    seq: u64,
    executed: u64,
}

impl<S> Default for Scheduler<S> {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl<S> Scheduler<S> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
        }
    }

    /// Current simulation time (the firing time of the last event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events executed so far (the bench's µs/event denominator).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Enqueues an event; its firing time resolves against `now`.
    pub fn schedule(&mut self, event: Box<dyn Event<S>>) {
        let time = event.time().abs_time(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(EventContainer { time, seq, event });
    }

    /// Firing time of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|c| c.time)
    }

    /// Pops and executes the earliest event; returns its firing time.
    pub fn step(&mut self, state: &mut S) -> Option<SimTime> {
        let c = self.heap.pop()?;
        self.now = c.time;
        self.executed += 1;
        for follow in c.event.exec(c.time, state) {
            self.schedule(follow);
        }
        Some(c.time)
    }

    /// Executes every event with firing time `<= until`.
    pub fn run_until(&mut self, state: &mut S, until: SimTime) {
        while self.next_time().is_some_and(|t| t <= until) {
            self.step(state);
        }
    }

    /// Executes events until the heap is empty.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state).is_some() {}
    }
}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

/// Gateway buffer policy.
///
/// # Example
///
/// ```
/// use canids_core::net::QueueDiscipline;
///
/// // The default is an unbounded drop-tail buffer: plain FIFO, which
/// // is exactly the analytic `SegmentForwarder` queueing model.
/// assert_eq!(QueueDiscipline::default(), QueueDiscipline::DropTail { capacity: usize::MAX });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// One buffer pool shared by every egress port: when `capacity`
    /// frames are queued anywhere on the gateway, *any* new arrival is
    /// dropped — a flood on one port starves the others.
    DropTail {
        /// Total frames buffered across all ports.
        capacity: usize,
    },
    /// PFC-style per-port backpressure: each port owns a reserved
    /// quota; a port exceeding it pauses its upstream (arrivals are
    /// held, counted as `paused`, never dropped) while other ports'
    /// traffic keeps flowing.
    Pfc {
        /// Per-port reserved buffer quota before backpressure begins.
        quota: usize,
    },
}

impl Default for QueueDiscipline {
    fn default() -> Self {
        QueueDiscipline::DropTail {
            capacity: usize::MAX,
        }
    }
}

/// Why a frame was lost — every drop carries one (no silent loss).
///
/// # Example
///
/// ```
/// use canids_core::net::DropReason;
///
/// assert_eq!(DropReason::BufferFull.label(), "buffer-full");
/// assert_ne!(DropReason::BusOff, DropReason::GatewayOutage);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// A drop-tail gateway's shared buffer was at capacity.
    BufferFull,
    /// The gateway was inside a timed outage (dark) window.
    GatewayOutage,
    /// The segment the frame needed was bus-off.
    BusOff,
    /// No gateway path exists from the source segment to the sink.
    Unroutable,
}

impl DropReason {
    /// Stable snake-case label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::BufferFull => "buffer-full",
            DropReason::GatewayOutage => "gateway-outage",
            DropReason::BusOff => "bus-off",
            DropReason::Unroutable => "unroutable",
        }
    }
}

/// Terminal outcome of one injected frame.
///
/// # Example
///
/// ```
/// use canids_core::net::{DropReason, NetOutcome};
/// use canids_can::time::SimTime;
///
/// let d = NetOutcome::Delivered(SimTime::from_micros(120));
/// assert!(matches!(d, NetOutcome::Delivered(_)));
/// assert!(matches!(NetOutcome::Dropped(DropReason::BufferFull), NetOutcome::Dropped(_)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetOutcome {
    /// End-of-frame time on the destination sink's segment.
    Delivered(SimTime),
    /// Lost, with the typed reason.
    Dropped(DropReason),
}

/// One accounted frame loss.
///
/// # Example
///
/// ```
/// use canids_core::net::{DropReason, DropRecord};
/// use canids_can::time::SimTime;
///
/// let r = DropRecord {
///     time: SimTime::from_millis(3),
///     token: None, // attacker (fault) traffic carries no token
///     reason: DropReason::BufferFull,
///     gateway: Some(canids_core::net::GatewayId(0)),
///     segment: None,
/// };
/// assert_eq!(r.reason.label(), "buffer-full");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// When the frame was lost.
    pub time: SimTime,
    /// The injected frame's token; `None` for fault-generated traffic.
    pub token: Option<FrameToken>,
    /// Typed loss reason.
    pub reason: DropReason,
    /// Gateway that dropped it, if the loss happened at a switch.
    pub gateway: Option<GatewayId>,
    /// Segment involved, for bus-off and routing losses.
    pub segment: Option<SegmentId>,
}

/// A first-class topology fault, scheduled as real simulation events.
///
/// # Example
///
/// ```
/// use canids_core::net::{Fault, GatewayId};
/// use canids_can::time::SimTime;
///
/// let outage = Fault::GatewayOutage {
///     gateway: GatewayId(0),
///     start: SimTime::from_millis(10),
///     end: SimTime::from_millis(12),
/// };
/// assert!(matches!(outage, Fault::GatewayOutage { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A node streams highest-priority frames onto `segment` toward
    /// `dest` every `gap`, from `start` until `stop` — the classic
    /// babbling idiot saturating one switch port.
    BabblingIdiot {
        /// Segment the babbler transmits on.
        segment: SegmentId,
        /// Sink its frames are addressed to (selects the victim port).
        dest: SinkId,
        /// First frame arrival.
        start: SimTime,
        /// No frames at or after this time.
        stop: SimTime,
        /// Inter-frame arrival gap.
        gap: SimTime,
    },
    /// `segment` is bus-off in `[start, end)`: frames released onto it
    /// in the window are lost with [`DropReason::BusOff`].
    BusOff {
        /// Affected segment.
        segment: SegmentId,
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
    },
    /// `gateway` is dark in `[start, end)`: frames arriving at it in
    /// the window are lost with [`DropReason::GatewayOutage`].
    GatewayOutage {
        /// Affected gateway.
        gateway: GatewayId,
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
    },
}

/// Event-driven transport configuration carried on
/// `serve::ReplayConfig` (via `FleetTransport::EventDriven`).
///
/// # Example
///
/// ```
/// use canids_core::net::{NetConfig, QueueDiscipline};
///
/// let config = NetConfig::default();
/// assert_eq!(config.discipline, QueueDiscipline::default());
/// assert!(config.faults.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetConfig {
    /// Buffer policy for every gateway in the generated topology.
    pub discipline: QueueDiscipline,
    /// Faults to schedule at construction. For the single-backbone
    /// fleet topology the id layout is: segment 0 = backbone, segment
    /// `1 + b` = board `b`'s local segment, gateway `b` and sink `b`
    /// belong to board `b`.
    pub faults: Vec<Fault>,
}

/// Per-gateway queue/occupancy counters for the serve report's
/// networking section.
///
/// # Example
///
/// ```
/// use canids_core::net::GatewayLoad;
///
/// let load = GatewayLoad { gateway: 0, forwarded: 10, ..GatewayLoad::default() };
/// assert_eq!(load.dropped(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewayLoad {
    /// Gateway index (board index in the fleet topology).
    pub gateway: usize,
    /// Frames delivered out of this gateway's ports.
    pub forwarded: u64,
    /// Frames lost to a full shared drop-tail buffer.
    pub dropped_full: u64,
    /// Frames lost inside a gateway outage window.
    pub dropped_outage: u64,
    /// Frames lost to an egress segment bus-off window.
    pub dropped_bus_off: u64,
    /// PFC backpressure admissions past a port's quota.
    pub paused: u64,
    /// Peak frames buffered at once across all ports.
    pub peak_queue: usize,
    /// Sim-time at which `peak_queue` was first reached
    /// ([`SimTime::ZERO`] when nothing was ever buffered).
    pub peak_at: SimTime,
    /// Frames still buffered when the replay ended.
    pub queued: usize,
}

impl GatewayLoad {
    /// Total frames this gateway dropped, over all reasons.
    pub fn dropped(&self) -> u64 {
        self.dropped_full + self.dropped_outage + self.dropped_bus_off
    }
}

struct Segment {
    bitrate: Bitrate,
    busy_until: SimTime,
    down: bool,
    /// Sink hosted on this segment (at most one per segment here).
    sinks: Vec<usize>,
    /// Gateways whose ingress is this segment.
    gateways: Vec<usize>,
}

struct Port {
    egress: usize,
    queue: usize,
}

struct GatewayNode {
    ingress: usize,
    delay: SimTime,
    discipline: QueueDiscipline,
    dark: bool,
    ports: Vec<Port>,
    queued_total: usize,
    load: GatewayLoad,
}

/// Incrementally builds a [`Topology`]; `build` freezes it and
/// precomputes routes.
///
/// # Example
///
/// ```
/// use canids_core::net::{QueueDiscipline, Topology};
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
///
/// let mut b = Topology::builder();
/// let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
/// let leaf = b.segment(Bitrate::HIGH_SPEED_500K);
/// let gw = b.gateway(backbone, SimTime::from_micros(20), QueueDiscipline::default());
/// b.port(gw, leaf);
/// let board = b.sink(leaf);
/// let topo = b.build();
/// assert_eq!(topo.segments(), 2);
/// assert_eq!(topo.sinks(), 1);
/// # let _ = board;
/// ```
#[derive(Default)]
pub struct TopologyBuilder {
    segments: Vec<Bitrate>,
    gateways: Vec<(usize, SimTime, QueueDiscipline)>,
    ports: Vec<Vec<usize>>,
    sinks: Vec<usize>,
}

impl TopologyBuilder {
    /// Adds a CAN bus segment (a link) running at `bitrate`.
    pub fn segment(&mut self, bitrate: Bitrate) -> SegmentId {
        self.segments.push(bitrate);
        SegmentId(self.segments.len() - 1)
    }

    /// Adds a gateway whose ingress side listens on `ingress`, with a
    /// per-frame store-and-forward `delay` and a buffer `discipline`.
    pub fn gateway(
        &mut self,
        ingress: SegmentId,
        delay: SimTime,
        discipline: QueueDiscipline,
    ) -> GatewayId {
        self.gateways.push((ingress.0, delay, discipline));
        self.ports.push(Vec::new());
        GatewayId(self.gateways.len() - 1)
    }

    /// Adds an egress port on `gateway` feeding `egress`; returns the
    /// port index on that gateway.
    pub fn port(&mut self, gateway: GatewayId, egress: SegmentId) -> usize {
        self.ports[gateway.0].push(egress.0);
        self.ports[gateway.0].len() - 1
    }

    /// Adds a board sink node attached to `segment`.
    pub fn sink(&mut self, segment: SegmentId) -> SinkId {
        self.sinks.push(segment.0);
        SinkId(self.sinks.len() - 1)
    }

    /// Freezes the topology and precomputes shortest-hop routes from
    /// every segment to every sink.
    pub fn build(self) -> Topology {
        let n_seg = self.segments.len();
        let mut segments: Vec<Segment> = self
            .segments
            .into_iter()
            .map(|bitrate| Segment {
                bitrate,
                busy_until: SimTime::ZERO,
                down: false,
                sinks: Vec::new(),
                gateways: Vec::new(),
            })
            .collect();
        let gateways: Vec<GatewayNode> = self
            .gateways
            .into_iter()
            .zip(self.ports)
            .enumerate()
            .map(|(g, ((ingress, delay, discipline), ports))| {
                segments[ingress].gateways.push(g);
                GatewayNode {
                    ingress,
                    delay,
                    discipline,
                    dark: false,
                    ports: ports
                        .into_iter()
                        .map(|egress| Port { egress, queue: 0 })
                        .collect(),
                    queued_total: 0,
                    load: GatewayLoad {
                        gateway: g,
                        ..GatewayLoad::default()
                    },
                }
            })
            .collect();
        for (s, &seg) in self.sinks.iter().enumerate() {
            segments[seg].sinks.push(s);
        }

        // BFS per sink, backwards from the sink's segment, recording for
        // every reachable segment which (gateway, port) is the next hop.
        let n_sinks = self.sinks.len();
        let mut next_hop = vec![vec![None; n_sinks]; n_seg];
        for (s, &home) in self.sinks.iter().enumerate() {
            let mut frontier = vec![home];
            let mut seen = vec![false; n_seg];
            seen[home] = true;
            while let Some(seg) = frontier.pop() {
                for (g, gw) in gateways.iter().enumerate() {
                    if let Some(p) = gw.ports.iter().position(|port| port.egress == seg) {
                        if !seen[gw.ingress] {
                            seen[gw.ingress] = true;
                            next_hop[gw.ingress][s] = Some((g, p));
                            frontier.push(gw.ingress);
                        }
                    }
                }
            }
        }

        Topology {
            segments,
            gateways,
            sink_delivered: vec![0; n_sinks],
            next_hop,
            outcomes: Vec::new(),
            drop_log: Vec::new(),
            flood_injected: 0,
        }
    }
}

/// The frozen node graph plus all mutable simulation state: segment
/// wires, gateway buffers, per-frame outcomes and the drop log.
///
/// # Example
///
/// ```
/// use canids_core::net::{QueueDiscipline, Topology};
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
///
/// let mut b = Topology::builder();
/// let bus = b.segment(Bitrate::HIGH_SPEED_1M);
/// let gw = b.gateway(bus, SimTime::from_micros(20), QueueDiscipline::default());
/// let leaf = b.segment(Bitrate::HIGH_SPEED_1M);
/// b.port(gw, leaf);
/// b.sink(leaf);
/// let topo = b.build();
/// assert_eq!((topo.segments(), topo.gateways(), topo.sinks()), (2, 1, 1));
/// assert!(topo.drop_log().is_empty());
/// ```
pub struct Topology {
    segments: Vec<Segment>,
    gateways: Vec<GatewayNode>,
    sink_delivered: Vec<u64>,
    /// `next_hop[segment][sink] = (gateway, port)` toward the sink.
    next_hop: Vec<Vec<Option<(usize, usize)>>>,
    outcomes: Vec<Option<NetOutcome>>,
    drop_log: Vec<DropRecord>,
    flood_injected: u64,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of gateways.
    pub fn gateways(&self) -> usize {
        self.gateways.len()
    }

    /// Number of sinks.
    pub fn sinks(&self) -> usize {
        self.sinks_delivered().len()
    }

    /// Frames delivered to each sink, indexed by [`SinkId`].
    pub fn sinks_delivered(&self) -> &[u64] {
        &self.sink_delivered
    }

    /// Terminal outcome of an injected frame, if resolved yet.
    pub fn outcome(&self, token: FrameToken) -> Option<NetOutcome> {
        self.outcomes.get(token.0).copied().flatten()
    }

    /// Tokens injected so far.
    pub fn injected(&self) -> usize {
        self.outcomes.len()
    }

    /// Injected frames with no terminal outcome yet (still queued or in
    /// flight).
    pub fn in_flight(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_none()).count()
    }

    /// Every accounted loss, in drop order (capture and fault traffic).
    pub fn drop_log(&self) -> &[DropRecord] {
        &self.drop_log
    }

    /// Fault-generated (babbling-idiot) frames injected so far.
    pub fn flood_injected(&self) -> u64 {
        self.flood_injected
    }

    /// Per-gateway queue/occupancy counters, indexed by [`GatewayId`].
    pub fn gateway_loads(&self) -> Vec<GatewayLoad> {
        self.gateways
            .iter()
            .map(|g| GatewayLoad {
                queued: g.queued_total,
                ..g.load
            })
            .collect()
    }

    fn drop_frame(
        &mut self,
        time: SimTime,
        token: Option<usize>,
        reason: DropReason,
        gateway: Option<usize>,
        segment: Option<usize>,
    ) {
        if let Some(t) = token {
            self.outcomes[t] = Some(NetOutcome::Dropped(reason));
        }
        self.drop_log.push(DropRecord {
            time,
            token: token.map(FrameToken),
            reason,
            gateway: gateway.map(GatewayId),
            segment: segment.map(SegmentId),
        });
    }

    /// A frame is complete on `segment` at `at`. Either it has reached
    /// the destination sink's segment, or it hops into the next
    /// gateway toward `dest`.
    fn segment_arrival(
        &mut self,
        at: SimTime,
        segment: usize,
        dest: usize,
        frame: CanFrame,
        token: Option<usize>,
    ) -> Vec<Box<dyn Event<Topology>>> {
        if self.segments[segment].sinks.contains(&dest) {
            if let Some(t) = token {
                self.outcomes[t] = Some(NetOutcome::Delivered(at));
            }
            self.sink_delivered[dest] += 1;
            return Vec::new();
        }
        match self.next_hop[segment][dest] {
            Some((gw, port)) => self.gateway_ingress(gw, port, at, frame, dest, token),
            None => {
                self.drop_frame(at, token, DropReason::Unroutable, None, Some(segment));
                Vec::new()
            }
        }
    }

    /// A frame reaches gateway `gw` at `at`, bound for egress `port`.
    fn gateway_ingress(
        &mut self,
        gw: usize,
        port: usize,
        at: SimTime,
        frame: CanFrame,
        dest: usize,
        token: Option<usize>,
    ) -> Vec<Box<dyn Event<Topology>>> {
        let node = &mut self.gateways[gw];
        if node.dark {
            node.load.dropped_outage += 1;
            self.drop_frame(at, token, DropReason::GatewayOutage, Some(gw), None);
            return Vec::new();
        }
        match node.discipline {
            QueueDiscipline::DropTail { capacity } => {
                if node.queued_total >= capacity {
                    node.load.dropped_full += 1;
                    self.drop_frame(at, token, DropReason::BufferFull, Some(gw), None);
                    return Vec::new();
                }
            }
            QueueDiscipline::Pfc { quota } => {
                if node.ports[port].queue >= quota {
                    node.load.paused += 1;
                }
            }
        }
        node.queued_total += 1;
        node.ports[port].queue += 1;
        if node.queued_total > node.load.peak_queue {
            // Strictly-greater keeps the *first* time the peak was hit.
            node.load.peak_queue = node.queued_total;
            node.load.peak_at = at;
        }
        let release = at + node.delay;
        vec![Box::new(PortService {
            gw,
            port,
            release,
            frame,
            dest,
            token,
        })]
    }
}

// ---------------------------------------------------------------------
// Internal simulation events
// ---------------------------------------------------------------------

/// A frame is complete on a segment at its carried `at` time. All time
/// math below uses carried timestamps, never the scheduler clock, so
/// lazy run-ahead cannot perturb delivery times.
struct FrameArrival {
    at: SimTime,
    segment: usize,
    dest: usize,
    frame: CanFrame,
    token: Option<usize>,
}

impl Event<Topology> for FrameArrival {
    fn time(&self) -> EventTime {
        EventTime::Absolute(self.at)
    }
    fn exec(self: Box<Self>, _now: SimTime, net: &mut Topology) -> Vec<Box<dyn Event<Topology>>> {
        if net.segments[self.segment].down {
            net.drop_frame(
                self.at,
                self.token,
                DropReason::BusOff,
                None,
                Some(self.segment),
            );
            return Vec::new();
        }
        net.segment_arrival(self.at, self.segment, self.dest, self.frame, self.token)
    }
}

/// The head-of-line frame of a gateway port starts serialising onto its
/// egress segment. This is the analytic `SegmentForwarder` recurrence,
/// verbatim: `start = max(release, busy_until)`,
/// `delivered = start + frame_duration`,
/// `busy_until = start + frame_slot_duration`.
struct PortService {
    gw: usize,
    port: usize,
    release: SimTime,
    frame: CanFrame,
    dest: usize,
    token: Option<usize>,
}

impl Event<Topology> for PortService {
    fn time(&self) -> EventTime {
        EventTime::Absolute(self.release)
    }
    fn exec(self: Box<Self>, _now: SimTime, net: &mut Topology) -> Vec<Box<dyn Event<Topology>>> {
        let egress = net.gateways[self.gw].ports[self.port].egress;
        if net.segments[egress].down {
            net.gateways[self.gw].queued_total -= 1;
            net.gateways[self.gw].ports[self.port].queue -= 1;
            net.gateways[self.gw].load.dropped_bus_off += 1;
            net.drop_frame(
                self.release,
                self.token,
                DropReason::BusOff,
                Some(self.gw),
                Some(egress),
            );
            return Vec::new();
        }
        let seg = &mut net.segments[egress];
        let start = self.release.max(seg.busy_until);
        let (wire, slot) = frame_wire_and_slot(&self.frame, seg.bitrate);
        let delivered = start + wire;
        seg.busy_until = start + slot;
        vec![Box::new(DeliverFrame {
            delivered,
            gw: self.gw,
            port: self.port,
            segment: egress,
            frame: self.frame,
            dest: self.dest,
            token: self.token,
        })]
    }
}

/// End of frame on the egress segment: the frame leaves the gateway
/// buffer and either reaches its sink or hops onward.
struct DeliverFrame {
    delivered: SimTime,
    gw: usize,
    port: usize,
    segment: usize,
    frame: CanFrame,
    dest: usize,
    token: Option<usize>,
}

impl Event<Topology> for DeliverFrame {
    fn time(&self) -> EventTime {
        EventTime::Absolute(self.delivered)
    }
    fn exec(self: Box<Self>, _now: SimTime, net: &mut Topology) -> Vec<Box<dyn Event<Topology>>> {
        net.gateways[self.gw].queued_total -= 1;
        net.gateways[self.gw].ports[self.port].queue -= 1;
        net.gateways[self.gw].load.forwarded += 1;
        net.segment_arrival(
            self.delivered,
            self.segment,
            self.dest,
            self.frame,
            self.token,
        )
    }
}

/// Flips a gateway's outage (dark) flag at a window edge.
struct SetGatewayDark {
    gateway: usize,
    at: SimTime,
    dark: bool,
}

impl Event<Topology> for SetGatewayDark {
    fn time(&self) -> EventTime {
        EventTime::Absolute(self.at)
    }
    fn exec(self: Box<Self>, _now: SimTime, net: &mut Topology) -> Vec<Box<dyn Event<Topology>>> {
        net.gateways[self.gateway].dark = self.dark;
        Vec::new()
    }
}

/// Flips a segment's bus-off flag at a window edge.
struct SetSegmentDown {
    segment: usize,
    at: SimTime,
    down: bool,
}

impl Event<Topology> for SetSegmentDown {
    fn time(&self) -> EventTime {
        EventTime::Absolute(self.at)
    }
    fn exec(self: Box<Self>, _now: SimTime, net: &mut Topology) -> Vec<Box<dyn Event<Topology>>> {
        net.segments[self.segment].down = self.down;
        Vec::new()
    }
}

/// The babbling idiot: one highest-priority frame now, the next one
/// `gap` later, until `stop`.
struct Babble {
    segment: usize,
    dest: usize,
    at: SimTime,
    stop: SimTime,
    gap: SimTime,
}

fn flood_frame() -> CanFrame {
    // lint:allow(panic-in-lib): id 0 is statically within the 11-bit range
    CanFrame::new(CanId::standard(0).expect("id 0 is valid"), &[0xAA; 8])
        // lint:allow(panic-in-lib): a static 8-byte payload is always well-formed
        .expect("static flood frame is well-formed")
}

impl Event<Topology> for Babble {
    fn time(&self) -> EventTime {
        EventTime::Absolute(self.at)
    }
    fn exec(self: Box<Self>, _now: SimTime, net: &mut Topology) -> Vec<Box<dyn Event<Topology>>> {
        if self.at >= self.stop {
            return Vec::new();
        }
        net.flood_injected += 1;
        vec![
            Box::new(FrameArrival {
                at: self.at,
                segment: self.segment,
                dest: self.dest,
                frame: flood_frame(),
                token: None,
            }),
            Box::new(Babble {
                at: self.at + self.gap,
                ..*self
            }),
        ]
    }
}

// ---------------------------------------------------------------------
// Simulation façade
// ---------------------------------------------------------------------

/// A [`Topology`] paired with its [`Scheduler`]: inject frames, apply
/// faults, run, and read outcomes.
///
/// # Example
///
/// ```
/// use canids_core::net::{NetOutcome, NetSim, QueueDiscipline, Topology};
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
///
/// let mut b = Topology::builder();
/// let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
/// let gw = b.gateway(backbone, SimTime::from_micros(20), QueueDiscipline::default());
/// let leaf = b.segment(Bitrate::HIGH_SPEED_1M);
/// b.port(gw, leaf);
/// let board = b.sink(leaf);
///
/// let mut sim = NetSim::new(b.build());
/// let f = CanFrame::new(CanId::standard(0x316)?, &[0; 8])?;
/// let token = sim.inject(SimTime::from_micros(100), backbone, board, f);
/// sim.run();
/// // 20 µs gateway delay plus the frame's own wire time on the leaf.
/// match sim.outcome(token) {
///     Some(NetOutcome::Delivered(t)) => assert!(t >= SimTime::from_micros(120)),
///     other => panic!("unexpected outcome {other:?}"),
/// }
/// # Ok::<(), canids_can::error::FrameError>(())
/// ```
pub struct NetSim {
    topology: Topology,
    sched: Scheduler<Topology>,
}

impl NetSim {
    /// Wraps a built topology with a fresh scheduler at time zero.
    pub fn new(topology: Topology) -> Self {
        NetSim {
            topology,
            sched: Scheduler::new(),
        }
    }

    /// Schedules a fault's window-edge (and babble) events.
    pub fn apply(&mut self, fault: Fault) {
        match fault {
            Fault::BabblingIdiot {
                segment,
                dest,
                start,
                stop,
                gap,
            } => self.sched.schedule(Box::new(Babble {
                segment: segment.0,
                dest: dest.0,
                at: start,
                stop,
                gap,
            })),
            Fault::BusOff {
                segment,
                start,
                end,
            } => {
                self.sched.schedule(Box::new(SetSegmentDown {
                    segment: segment.0,
                    at: start,
                    down: true,
                }));
                self.sched.schedule(Box::new(SetSegmentDown {
                    segment: segment.0,
                    at: end,
                    down: false,
                }));
            }
            Fault::GatewayOutage {
                gateway,
                start,
                end,
            } => {
                self.sched.schedule(Box::new(SetGatewayDark {
                    gateway: gateway.0,
                    at: start,
                    dark: true,
                }));
                self.sched.schedule(Box::new(SetGatewayDark {
                    gateway: gateway.0,
                    at: end,
                    dark: false,
                }));
            }
        }
    }

    /// Injects a frame completing on `segment` at `at`, addressed to
    /// `dest`; returns its outcome token.
    pub fn inject(
        &mut self,
        at: SimTime,
        segment: SegmentId,
        dest: SinkId,
        frame: CanFrame,
    ) -> FrameToken {
        let token = self.topology.outcomes.len();
        self.topology.outcomes.push(None);
        self.sched.schedule(Box::new(FrameArrival {
            at,
            segment: segment.0,
            dest: dest.0,
            frame,
            token: Some(token),
        }));
        FrameToken(token)
    }

    /// Runs until the event heap is empty.
    pub fn run(&mut self) {
        self.sched.run(&mut self.topology);
    }

    /// Runs every event with firing time `<= until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.sched.run_until(&mut self.topology, until);
    }

    /// Runs until `token` has a terminal outcome and returns it.
    ///
    /// # Panics
    ///
    /// If the heap drains first — impossible for a frame accepted by
    /// [`NetSim::inject`], whose event chain always terminates in a
    /// delivery or an accounted drop.
    pub fn resolve(&mut self, token: FrameToken) -> NetOutcome {
        loop {
            if let Some(outcome) = self.topology.outcome(token) {
                return outcome;
            }
            if self.sched.step(&mut self.topology).is_none() {
                // lint:allow(panic-in-lib): frame conservation is the documented invariant (see net_properties)
                panic!("frame {token:?} left in flight with an empty event heap");
            }
        }
    }

    /// Outcome of an injected frame, if resolved yet.
    pub fn outcome(&self, token: FrameToken) -> Option<NetOutcome> {
        self.topology.outcome(token)
    }

    /// The node graph and its counters.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total events executed (for µs/event benchmarks).
    pub fn executed(&self) -> u64 {
        self.sched.executed()
    }
}

// ---------------------------------------------------------------------
// Fleet façade
// ---------------------------------------------------------------------

/// The fleet serving topology — one backbone segment fanning out
/// through one gateway per board onto that board's local segment — with
/// the lazy per-frame co-simulation API `serve::FleetBackend` drives.
///
/// Node id layout (documented for [`NetConfig::faults`]): segment 0 is
/// the backbone; board `b` owns gateway `b`, local segment `1 + b`, and
/// sink `b`.
///
/// Uncongested, each gateway behaves *exactly* like the analytic
/// [`canids_can::gateway::SegmentForwarder`]:
///
/// ```
/// use canids_core::net::{FleetNet, NetConfig, NetOutcome};
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::gateway::SegmentForwarder;
/// use canids_can::time::SimTime;
/// use canids_can::timing::Bitrate;
///
/// let delay = SimTime::from_micros(20);
/// let mut net = FleetNet::single_backbone(2, Bitrate::HIGH_SPEED_1M, delay, &NetConfig::default());
/// let mut fwd = SegmentForwarder::new(Bitrate::HIGH_SPEED_1M, delay);
/// let f = CanFrame::new(CanId::standard(0x316)?, &[0; 8])?;
/// for t in [100, 150, 160] {
///     let arrival = SimTime::from_micros(t);
///     assert_eq!(
///         net.deliver(0, arrival, f),
///         NetOutcome::Delivered(fwd.forward(arrival, &f)),
///     );
/// }
/// # Ok::<(), canids_can::error::FrameError>(())
/// ```
pub struct FleetNet {
    sim: NetSim,
    backbone: SegmentId,
    boards: Vec<SinkId>,
    outages: Vec<(usize, SimTime, SimTime)>,
}

impl FleetNet {
    /// Builds the `shards`-board single-backbone topology: every
    /// segment runs at `bitrate`, every gateway forwards with `delay`
    /// under `config.discipline`, and `config.faults` are scheduled.
    pub fn single_backbone(
        shards: usize,
        bitrate: Bitrate,
        delay: SimTime,
        config: &NetConfig,
    ) -> Self {
        let mut b = Topology::builder();
        let backbone = b.segment(bitrate);
        let boards = (0..shards)
            .map(|_| {
                let gw = b.gateway(backbone, delay, config.discipline);
                let leaf = b.segment(bitrate);
                b.port(gw, leaf);
                b.sink(leaf)
            })
            .collect();
        let mut sim = NetSim::new(b.build());
        let mut outages = Vec::new();
        for &fault in &config.faults {
            if let Fault::GatewayOutage {
                gateway,
                start,
                end,
            } = fault
            {
                outages.push((gateway.0, start, end));
            }
            sim.apply(fault);
        }
        FleetNet {
            sim,
            backbone,
            boards,
            outages,
        }
    }

    /// Number of boards (shards).
    pub fn shards(&self) -> usize {
        self.boards.len()
    }

    /// Advances the simulation to `arrival`, injects the frame on the
    /// backbone addressed to `shard`'s board, and runs until its
    /// terminal outcome.
    pub fn deliver(&mut self, shard: usize, arrival: SimTime, frame: CanFrame) -> NetOutcome {
        self.sim.run_until(arrival);
        let token = self
            .sim
            .inject(arrival, self.backbone, self.boards[shard], frame);
        self.sim.resolve(token)
    }

    /// Drains any remaining (fault) events so end-of-run counters are
    /// final.
    pub fn finish(&mut self) {
        self.sim.run();
    }

    /// Per-gateway (= per-board) queue/occupancy counters.
    pub fn gateway_loads(&self) -> Vec<GatewayLoad> {
        self.sim.topology().gateway_loads()
    }

    /// Configured gateway outage windows as `(board, start, end)`, for
    /// the serve layer's admission event log.
    pub fn outage_windows(&self) -> &[(usize, SimTime, SimTime)] {
        &self.outages
    }

    /// Every accounted loss so far.
    pub fn drop_log(&self) -> &[DropRecord] {
        self.sim.topology().drop_log()
    }

    /// The underlying simulation (counters, clock, topology).
    pub fn sim(&self) -> &NetSim {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::gateway::SegmentForwarder;

    fn frame(id: u16) -> CanFrame {
        let cid = CanId::standard(id).unwrap();
        CanFrame::new(cid, &[cid.low_byte(); 8]).unwrap()
    }

    #[test]
    fn scheduler_orders_by_time_then_sequence() {
        struct Tag(u64, u32);
        impl Event<Vec<u32>> for Tag {
            fn time(&self) -> EventTime {
                EventTime::Absolute(SimTime::from_nanos(self.0))
            }
            fn exec(
                self: Box<Self>,
                _now: SimTime,
                log: &mut Vec<u32>,
            ) -> Vec<Box<dyn Event<Vec<u32>>>> {
                log.push(self.1);
                Vec::new()
            }
        }
        let mut sched = Scheduler::new();
        for (t, tag) in [(500, 0), (100, 1), (100, 2), (300, 3), (100, 4)] {
            sched.schedule(Box::new(Tag(t, tag)));
        }
        let mut log = Vec::new();
        sched.run(&mut log);
        assert_eq!(log, vec![1, 2, 4, 3, 0]);
        assert_eq!(sched.executed(), 5);
        assert_eq!(sched.now(), SimTime::from_nanos(500));
    }

    #[test]
    fn delta_events_resolve_against_firing_time() {
        struct Chain(u32);
        impl Event<Vec<SimTime>> for Chain {
            fn time(&self) -> EventTime {
                EventTime::Delta(SimTime::from_micros(10))
            }
            fn exec(
                self: Box<Self>,
                now: SimTime,
                log: &mut Vec<SimTime>,
            ) -> Vec<Box<dyn Event<Vec<SimTime>>>> {
                log.push(now);
                if self.0 > 0 {
                    vec![Box::new(Chain(self.0 - 1))]
                } else {
                    Vec::new()
                }
            }
        }
        let mut sched = Scheduler::new();
        sched.schedule(Box::new(Chain(2)));
        let mut log = Vec::new();
        sched.run(&mut log);
        let us = |n| SimTime::from_micros(n);
        assert_eq!(log, vec![us(10), us(20), us(30)]);
    }

    #[test]
    fn uncongested_fleet_gateway_matches_segment_forwarder_exactly() {
        let delay = SimTime::from_micros(20);
        let wire = Bitrate::HIGH_SPEED_500K;
        let mut net = FleetNet::single_backbone(3, wire, delay, &NetConfig::default());
        let mut forwarders: Vec<SegmentForwarder> =
            (0..3).map(|_| SegmentForwarder::new(wire, delay)).collect();
        // Includes back-to-back arrivals that queue behind the far wire.
        let arrivals = [0u64, 5, 10, 11, 400, 401, 402, 9_000];
        for (i, &us) in arrivals.iter().enumerate() {
            let shard = i % 3;
            let f = frame(0x100 + i as u16);
            let at = SimTime::from_micros(us);
            let expect = forwarders[shard].forward(at, &f);
            assert_eq!(
                net.deliver(shard, at, f),
                NetOutcome::Delivered(expect),
                "frame {i} diverged from the analytic path"
            );
        }
        let loads = net.gateway_loads();
        assert_eq!(loads.len(), 3);
        assert_eq!(loads.iter().map(|l| l.forwarded).sum::<u64>(), 8);
        assert_eq!(loads.iter().map(|l| l.dropped()).sum::<u64>(), 0);
        assert!(loads.iter().all(|l| l.queued == 0 && l.peak_queue >= 1));
    }

    /// One gateway, two ports: flood port 0 hard. Shared drop-tail
    /// starves the far port; PFC keeps it flowing.
    fn two_port_flood(discipline: QueueDiscipline) -> (Vec<NetOutcome>, Vec<NetOutcome>, Topology) {
        let mut b = Topology::builder();
        let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
        let gw = b.gateway(backbone, SimTime::from_micros(20), discipline);
        let near = b.segment(Bitrate::LOW_SPEED_125K);
        let far = b.segment(Bitrate::HIGH_SPEED_1M);
        b.port(gw, near);
        b.port(gw, far);
        let near_board = b.sink(near);
        let far_board = b.sink(far);
        let mut sim = NetSim::new(b.build());
        // ~8x the 125 kb/s service rate for 50 ms.
        sim.apply(Fault::BabblingIdiot {
            segment: SegmentId(0),
            dest: near_board,
            start: SimTime::ZERO,
            stop: SimTime::from_millis(50),
            gap: SimTime::from_micros(120),
        });
        let mut near_tokens = Vec::new();
        let mut far_tokens = Vec::new();
        for i in 0..40u64 {
            let at = SimTime::from_millis(10) + SimTime::from_micros(1_000 * i);
            near_tokens.push(sim.inject(at, backbone, near_board, frame(0x200)));
            far_tokens.push(sim.inject(at, backbone, far_board, frame(0x300)));
        }
        sim.run();
        let outcome = |tokens: &[FrameToken]| {
            tokens
                .iter()
                .map(|&t| sim.outcome(t).expect("resolved"))
                .collect::<Vec<_>>()
        };
        (outcome(&near_tokens), outcome(&far_tokens), sim.topology)
    }

    #[test]
    fn drop_tail_flood_starves_the_far_port() {
        let (near, far, topo) = two_port_flood(QueueDiscipline::DropTail { capacity: 16 });
        let far_dropped = far
            .iter()
            .filter(|o| matches!(o, NetOutcome::Dropped(DropReason::BufferFull)))
            .count();
        assert!(
            far_dropped > 0,
            "shared buffer must starve the far port under flood"
        );
        let near_dropped = near
            .iter()
            .filter(|o| matches!(o, NetOutcome::Dropped(_)))
            .count();
        assert!(near_dropped > 0);
        assert!(topo.gateway_loads()[0].dropped_full > 0);
    }

    #[test]
    fn pfc_flood_backpressures_without_starving_the_far_port() {
        let (near, far, topo) = two_port_flood(QueueDiscipline::Pfc { quota: 16 });
        assert!(
            far.iter().all(|o| matches!(o, NetOutcome::Delivered(_))),
            "PFC must keep the far port flowing"
        );
        // The flooded port backs up (paused), but nothing is dropped.
        assert!(
            near.iter().all(|o| matches!(o, NetOutcome::Delivered(_))),
            "PFC holds frames instead of dropping them"
        );
        let load = &topo.gateway_loads()[0];
        assert!(load.paused > 0, "flood must trip the pause watermark");
        assert_eq!(load.dropped(), 0);
        assert!(load.peak_queue > 16);
        assert!(load.peak_at > SimTime::ZERO);
    }

    #[test]
    fn gateway_peak_at_stamps_the_first_peak() {
        // Fast backbone feeding a slow leaf through one gateway: the
        // burst piles up in the gateway buffer, so the peak is hit at a
        // deterministic carried timestamp.
        let burst = |times: &[u64]| {
            let mut b = Topology::builder();
            let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
            let gw = b.gateway(
                backbone,
                SimTime::from_micros(20),
                QueueDiscipline::default(),
            );
            let leaf = b.segment(Bitrate::LOW_SPEED_125K);
            b.port(gw, leaf);
            let board = b.sink(leaf);
            let mut sim = NetSim::new(b.build());
            for (i, &us) in times.iter().enumerate() {
                sim.inject(
                    SimTime::from_micros(us),
                    backbone,
                    board,
                    frame(0x100 + i as u16),
                );
            }
            sim.run();
            sim.topology.gateway_loads()[0]
        };
        let early = burst(&[0, 1, 2, 3]);
        assert!(early.peak_queue >= 2, "back-to-back burst must overlap");
        assert!(early.peak_at > SimTime::ZERO);
        // A second, identical burst long after the queue drained re-hits
        // the same depth; the stamp keeps the *first* occurrence.
        let repeated = burst(&[0, 1, 2, 3, 50_000, 50_001, 50_002, 50_003]);
        assert_eq!(repeated.peak_queue, early.peak_queue);
        assert_eq!(repeated.peak_at, early.peak_at);
    }

    #[test]
    fn gateway_outage_drops_exactly_the_dark_window() {
        let config = NetConfig {
            faults: vec![Fault::GatewayOutage {
                gateway: GatewayId(0),
                start: SimTime::from_micros(500),
                end: SimTime::from_micros(900),
            }],
            ..NetConfig::default()
        };
        let mut net =
            FleetNet::single_backbone(1, Bitrate::HIGH_SPEED_1M, SimTime::from_micros(20), &config);
        // Window is [start, end): 500 is dark, 900 is back up.
        for (us, dark) in [
            (0, false),
            (499, false),
            (500, true),
            (899, true),
            (900, false),
        ] {
            let outcome = net.deliver(0, SimTime::from_micros(us), frame(0x111));
            match (dark, outcome) {
                (true, NetOutcome::Dropped(DropReason::GatewayOutage)) => {}
                (false, NetOutcome::Delivered(_)) => {}
                other => panic!("frame at {us} µs: unexpected {other:?}"),
            }
        }
        assert_eq!(net.gateway_loads()[0].dropped_outage, 2);
        assert_eq!(net.outage_windows().len(), 1);
    }

    #[test]
    fn bus_off_window_kills_frames_released_into_it() {
        let mut b = Topology::builder();
        let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
        let gw = b.gateway(
            backbone,
            SimTime::from_micros(20),
            QueueDiscipline::default(),
        );
        let leaf = b.segment(Bitrate::HIGH_SPEED_1M);
        b.port(gw, leaf);
        let board = b.sink(leaf);
        let mut sim = NetSim::new(b.build());
        sim.apply(Fault::BusOff {
            segment: SegmentId(1),
            start: SimTime::from_micros(100),
            end: SimTime::from_micros(200),
        });
        // Release = arrival + 20 µs: arrivals at 90/170 µs release inside
        // the window, an arrival at 190 µs releases after it closes.
        let dead_a = sim.inject(SimTime::from_micros(90), backbone, board, frame(1));
        let dead_b = sim.inject(SimTime::from_micros(170), backbone, board, frame(2));
        let live = sim.inject(SimTime::from_micros(190), backbone, board, frame(3));
        sim.run();
        for t in [dead_a, dead_b] {
            assert_eq!(
                sim.outcome(t),
                Some(NetOutcome::Dropped(DropReason::BusOff))
            );
        }
        assert!(matches!(sim.outcome(live), Some(NetOutcome::Delivered(_))));
        assert_eq!(sim.topology().gateway_loads()[0].dropped_bus_off, 2);
    }

    #[test]
    fn unroutable_sink_is_an_accounted_drop() {
        let mut b = Topology::builder();
        let a = b.segment(Bitrate::HIGH_SPEED_1M);
        let other = b.segment(Bitrate::HIGH_SPEED_1M);
        let stranded = b.sink(other); // no gateway reaches it from `a`
        let mut sim = NetSim::new(b.build());
        let t = sim.inject(SimTime::from_micros(1), a, stranded, frame(9));
        sim.run();
        assert_eq!(
            sim.outcome(t),
            Some(NetOutcome::Dropped(DropReason::Unroutable))
        );
        assert_eq!(sim.topology().drop_log().len(), 1);
        assert_eq!(sim.topology().drop_log()[0].token, Some(t));
    }

    #[test]
    fn two_hop_chain_routes_and_conserves_frames() {
        // backbone -> gw0 -> mid -> gw1 -> leaf -> sink
        let mut b = Topology::builder();
        let backbone = b.segment(Bitrate::HIGH_SPEED_1M);
        let mid = b.segment(Bitrate::HIGH_SPEED_500K);
        let leaf = b.segment(Bitrate::MEDIUM_250K);
        let gw0 = b.gateway(
            backbone,
            SimTime::from_micros(10),
            QueueDiscipline::default(),
        );
        b.port(gw0, mid);
        let gw1 = b.gateway(mid, SimTime::from_micros(10), QueueDiscipline::default());
        b.port(gw1, leaf);
        let board = b.sink(leaf);
        let mut sim = NetSim::new(b.build());
        let tokens: Vec<FrameToken> = (0..20)
            .map(|i| {
                sim.inject(
                    SimTime::from_micros(50 * i),
                    backbone,
                    board,
                    frame(i as u16),
                )
            })
            .collect();
        sim.run();
        let mut last = SimTime::ZERO;
        for t in tokens {
            match sim.outcome(t) {
                Some(NetOutcome::Delivered(at)) => {
                    assert!(at > last, "two-hop deliveries must stay FIFO");
                    last = at;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(sim.topology().sinks_delivered()[board.0], 20);
        assert_eq!(sim.topology().in_flight(), 0);
        let loads = sim.topology().gateway_loads();
        assert_eq!(loads[0].forwarded, 20);
        assert_eq!(loads[1].forwarded, 20);
    }
}
