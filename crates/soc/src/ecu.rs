//! The integrated IDS ECU runtime.
//!
//! The paper's architecture (Fig. 1): CAN packets received at the
//! interface are handled by the ECU as usual; *additionally* each packet
//! is copied into a FIFO-style buffer and examined by the IDS IP. This
//! module is that runtime: a FIFO service loop that featurises each
//! frame, runs the attached accelerator model(s) through the driver, and
//! reports per-message detection latency, throughput, drops, power and
//! energy.

use canids_can::frame::CanFrame;
use canids_can::time::SimTime;
use canids_dataflow::ip::AcceleratorIp;
use canids_qnn::kernel::{ClassMemo, MemoCounts, PackedScratch};

use crate::accel::pack_features_into;
use crate::board::{BoardConfig, Zcu104Board};
use crate::dma::{run_batch_multi, DmaConfig, FeatureBatch, MultiBatchReport};
use crate::error::SocError;

/// Maps a CAN frame to the accelerator's input features.
///
/// Implemented for closures so callers can plug in the dataset crate's
/// encoders without a dependency from this crate.
pub trait FrameFeaturizer {
    /// Encodes one frame as binary features.
    fn featurize(&self, frame: &CanFrame) -> Vec<f32>;

    /// Appends one frame's features to `words` as packed AXI input words
    /// and returns the feature count: feature `i` is bit `i % 32` of the
    /// `i / 32`-th appended word, set when the feature is at least one
    /// half. This is the form [`EcuStream::push`] consumes under every
    /// policy.
    ///
    /// The provided method packs [`featurize`](Self::featurize)'s vector
    /// exactly as [`pack_features`](crate::accel::pack_features) does; a
    /// featuriser that has the bits already overrides it to skip the
    /// float vector.
    fn featurize_packed(&self, frame: &CanFrame, words: &mut Vec<u32>) -> usize {
        let features = self.featurize(frame);
        pack_features_into(&features, words);
        features.len()
    }
}

impl<F> FrameFeaturizer for F
where
    F: Fn(&CanFrame) -> Vec<f32>,
{
    fn featurize(&self, frame: &CanFrame) -> Vec<f32> {
        self(frame)
    }
}

/// How the service loop schedules the attached models over the SoC
/// fabric — the integration trade the `ablation_driver` sketches, as a
/// first-class, testable policy. Every policy produces **identical
/// per-frame classifications** (the functional model is shared); only
/// timing, drops and energy differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// One driver context consults every model back to back: the verdict
    /// pays the full per-call software path once *per model*.
    Sequential,
    /// Models spread round-robin over the A53 cores; the verdict waits
    /// for the slowest core plus the AXI arbitration penalty (the
    /// historical default behaviour for up to four models).
    #[default]
    RoundRobin,
    /// Frames accumulate into a `batch`-deep buffer that one DMA
    /// transfer broadcasts to every model: the dispatch overhead is
    /// amortised across the batch, at the cost of the first frame's
    /// verdict waiting for the batch to fill.
    DmaBatch {
        /// Frames per transfer (clamped to at least one, and to the
        /// FIFO depth at serving time — buffered frames occupy FIFO
        /// slots, so a deeper window could never fill).
        batch: usize,
    },
    /// Per-frame serving with interrupt-driven completion through the
    /// GIC instead of the status-poll loop: the core sleeps during the
    /// compute but pays an interrupt entry per verdict.
    InterruptPerFrame,
}

impl SchedPolicy {
    /// Short label for tables and JSON reports.
    pub fn label(&self) -> String {
        match self {
            SchedPolicy::Sequential => "sequential".to_owned(),
            SchedPolicy::RoundRobin => "round-robin".to_owned(),
            SchedPolicy::DmaBatch { batch } => format!("dma-batch-{batch}"),
            SchedPolicy::InterruptPerFrame => "interrupt-per-frame".to_owned(),
        }
    }
}

/// ECU runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcuConfig {
    /// Software FIFO depth between the RX path and the IDS service loop.
    pub queue_depth: usize,
    /// AXI arbitration penalty per additional concurrent model (fraction
    /// of the base service time).
    pub multi_model_overhead: f64,
    /// How models are scheduled over the fabric.
    pub policy: SchedPolicy,
    /// DMA engine parameters (used by [`SchedPolicy::DmaBatch`]).
    pub dma: DmaConfig,
}

impl Default for EcuConfig {
    fn default() -> Self {
        EcuConfig {
            queue_depth: 64,
            multi_model_overhead: 0.05,
            policy: SchedPolicy::default(),
            dma: DmaConfig::default(),
        }
    }
}

impl EcuConfig {
    /// Validated overhead fraction.
    fn overhead(&self) -> f64 {
        self.multi_model_overhead.clamp(0.0, 1.0)
    }
}

/// One per-frame IDS verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Frame arrival time (end of frame on the wire).
    pub arrival: SimTime,
    /// The inspected frame.
    pub frame: CanFrame,
    /// `true` when any attached model classified the frame as an attack.
    pub flagged: bool,
    /// Time the verdict became available.
    pub completed_at: SimTime,
    /// Per-model verdict bitmask: bit `i` is set when the `i`-th model of
    /// the ECU's model list flagged the frame. Models beyond index 63 are
    /// folded into `flagged` only (no deployed board carries that many).
    pub model_flags: u64,
    /// Which models were consulted for this frame, as the same bitmask —
    /// detached (shed/migrated-away) models have their bit clear, so a
    /// clear `model_flags` bit is distinguishable between "saw nothing"
    /// and "was not serving".
    pub active_mask: u64,
}

impl Detection {
    /// Detection delay from frame arrival to verdict.
    pub fn latency(&self) -> SimTime {
        self.completed_at.saturating_sub(self.arrival)
    }

    /// Whether model `i` (ECU model-list index) flagged this frame.
    pub fn model_flagged(&self, i: usize) -> bool {
        i < 64 && self.model_flags & (1 << i) != 0
    }

    /// Whether model `i` (ECU model-list index) was consulted for this
    /// frame.
    pub fn model_consulted(&self, i: usize) -> bool {
        i < 64 && self.active_mask & (1 << i) != 0
    }
}

/// Bitmask over the first 64 board-local model positions marked active
/// — the single source of the 64-bit fold rule `Detection::model_flags`
/// and the serving harness share.
pub fn active_mask_of(active: &[bool]) -> u64 {
    active
        .iter()
        .take(64)
        .enumerate()
        .fold(0u64, |m, (k, &a)| if a { m | (1 << k) } else { m })
}

/// One profiled stage interval on the ECU service loop, recorded only
/// when [`EcuStream::enable_profiling`] was called. Stage names are
/// static strings (`"infer"` for a per-frame service interval,
/// `"dma_window"` for a batched DMA transfer) so upper layers can intern
/// them without this crate depending on their span taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSample {
    /// Static stage name (`"infer"` or `"dma_window"`).
    pub stage: &'static str,
    /// Service start on the board clock.
    pub start: SimTime,
    /// Completion instant on the board clock.
    pub end: SimTime,
    /// Frames covered by the interval (1 per-frame, the window size for
    /// a DMA transfer).
    pub frames: u32,
}

/// Aggregate report of a processed capture.
#[derive(Debug, Clone, PartialEq)]
pub struct EcuReport {
    /// The scheduling policy the capture was served under.
    pub policy: SchedPolicy,
    /// Per-frame verdicts not taken through
    /// [`EcuStream::take_detections`] before the session closed, in
    /// service order (dropped frames excluded): every verdict of
    /// [`IdsEcu::process_capture`], which takes none.
    pub detections: Vec<Detection>,
    /// Frames lost to software-FIFO overflow.
    pub dropped: u64,
    /// Mean verdict latency.
    pub mean_latency: SimTime,
    /// Worst-case verdict latency.
    pub max_latency: SimTime,
    /// Serviced frames per second over the capture span.
    pub throughput_fps: f64,
    /// Fraction of wall time the service loop was busy.
    pub busy_fraction: f64,
    /// Mean board power over the run (rail model).
    pub mean_power_w: f64,
    /// Energy per inspected message (mean power × mean latency).
    pub energy_per_message_j: f64,
    /// Profiled stage intervals not yet drained through
    /// [`EcuStream::take_stage_samples`] when the session closed; empty
    /// unless [`EcuStream::enable_profiling`] was called.
    pub stage_samples: Vec<StageSample>,
    /// The session's kernel runs and class-memo hits over every
    /// attached model, DMA windows and MMIO starts together: `runs +
    /// hits` is the number of (frame, consulted model) pairs served.
    pub kernel: MemoCounts,
}

/// The IDS-augmented ECU.
///
/// # Example
///
/// ```
/// use canids_soc::prelude::*;
/// use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
/// use canids_qnn::prelude::*;
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::time::SimTime;
///
/// let mlp = QuantMlp::new(MlpConfig::default())?;
/// let ip = AcceleratorIp::compile(&mlp.export()?, CompileConfig::default())?;
/// let mut ecu = IdsEcu::with_ips([ip], EcuConfig::default())?;
///
/// let frame = CanFrame::new(CanId::standard(0x316)?, &[1, 2, 3])?;
/// let featurize = |_f: &CanFrame| vec![0.0f32; 75];
/// let report = ecu.process_capture(&[(SimTime::ZERO, frame)], &featurize)?;
/// assert_eq!(report.detections.len(), 1);
/// assert!(report.mean_latency.as_millis_f64() < 0.15);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct IdsEcu {
    board: Zcu104Board,
    models: Vec<usize>,
    config: EcuConfig,
}

impl std::fmt::Debug for IdsEcu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdsEcu")
            .field("models", &self.models)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl IdsEcu {
    /// Builds the ECU runtime over a board and the accelerator indices to
    /// consult per frame.
    pub fn new(board: Zcu104Board, models: Vec<usize>, config: EcuConfig) -> Self {
        IdsEcu {
            board,
            models,
            config,
        }
    }

    /// Builds the ECU of a compiled deployment: a default
    /// [`Zcu104Board`] with every IP attached in order, each consulted
    /// per frame.
    ///
    /// # Errors
    ///
    /// [`SocError`] when an IP cannot be mapped onto the board's bus.
    pub fn with_ips(
        ips: impl IntoIterator<Item = AcceleratorIp>,
        config: EcuConfig,
    ) -> Result<Self, SocError> {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let models = ips
            .into_iter()
            .map(|ip| board.attach_accelerator(ip))
            .collect::<Result<_, _>>()?;
        Ok(IdsEcu::new(board, models, config))
    }

    /// The underlying board.
    pub fn board(&self) -> &Zcu104Board {
        &self.board
    }

    /// Attached model indices.
    pub fn models(&self) -> &[usize] {
        &self.models
    }

    /// The runtime configuration.
    pub fn config(&self) -> &EcuConfig {
        &self.config
    }

    /// Replaces the scheduling policy for subsequent sessions (the board
    /// and attached IPs are untouched, so one deployment can be replayed
    /// under every policy).
    ///
    /// Board time is monotonic across sessions: a later session must
    /// push arrivals at or after the previous session's last completion,
    /// or the accelerators will still report busy.
    pub fn set_policy(&mut self, policy: SchedPolicy) {
        self.config.policy = policy;
    }

    /// Opens a frame-at-a-time serving session — the streaming
    /// counterpart of [`IdsEcu::process_capture`].
    ///
    /// Frames are handed to [`EcuStream::push`] as they arrive (in
    /// non-decreasing time order); [`EcuStream::try_finish`] closes the
    /// session and returns the same [`EcuReport`] the batch path
    /// produces. `process_capture` is itself implemented on top of this
    /// session, so the two serving modes are equivalent by construction.
    pub fn stream(&mut self) -> EcuStream<'_> {
        let rx_cost = self.board.cpu().rx_path();
        let overhead = self.config.overhead();
        let queue = ServiceQueue::new(self.config.queue_depth);
        let active = vec![true; self.models.len()];
        let kernels = vec![Default::default(); self.models.len()];
        let mmio_counts = self.board.memo_counts();
        EcuStream {
            ecu: self,
            rx_cost,
            overhead,
            active,
            verdicts: VerdictLog::default(),
            queue,
            dropped: 0,
            busy: SimTime::ZERO,
            first_arrival: None,
            words: Vec::new(),
            core_time: Vec::new(),
            batch_buf: FeatureBatch::default(),
            batch_meta: Vec::new(),
            kernels,
            window: MultiBatchReport::default(),
            mmio_counts,
            profiling: false,
            samples: Vec::new(),
        }
    }

    /// Processes a time-stamped capture through the IDS service loop.
    ///
    /// Frames arrive at their timestamps; the single service loop
    /// (one driver context) handles them FIFO. When more than
    /// `queue_depth` frames are backlogged, new arrivals are dropped —
    /// the hardware-FIFO overflow behaviour of a saturated ECU.
    ///
    /// # Errors
    ///
    /// Propagates driver/bus errors.
    pub fn process_capture<F: FrameFeaturizer>(
        &mut self,
        frames: &[(SimTime, CanFrame)],
        featurizer: &F,
    ) -> Result<EcuReport, SocError> {
        let mut session = self.stream();
        session.verdicts.pending.reserve(frames.len());
        for &(arrival, frame) in frames {
            session.push(arrival, frame, featurizer)?;
        }
        session.try_finish()
    }
}

/// An open frame-at-a-time serving session on an [`IdsEcu`].
///
/// Created by [`IdsEcu::stream`]; consumed by [`EcuStream::try_finish`].
///
/// The stream keeps the verdicts not yet taken through
/// [`take_detections`](EcuStream::take_detections) and running totals
/// of all of them, so a caller that takes verdicts as they land holds
/// only the frames in flight, however long the capture.
///
/// # Example
///
/// ```
/// use canids_soc::prelude::*;
/// use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
/// use canids_qnn::prelude::*;
/// use canids_can::frame::{CanFrame, CanId};
/// use canids_can::time::SimTime;
///
/// let mlp = QuantMlp::new(MlpConfig::default())?;
/// let ip = AcceleratorIp::compile(&mlp.export()?, CompileConfig::default())?;
/// let mut ecu = IdsEcu::with_ips([ip], EcuConfig::default())?;
///
/// let featurize = |_f: &CanFrame| vec![0.0f32; 75];
/// let mut session = ecu.stream();
/// for i in 0..10u64 {
///     let frame = CanFrame::new(CanId::standard(0x316)?, &[i as u8])?;
///     session.push(SimTime::from_micros(i * 200), frame, &featurize)?;
/// }
/// let report = session.try_finish()?;
/// assert_eq!(report.detections.len(), 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EcuStream<'a> {
    ecu: &'a mut IdsEcu,
    rx_cost: SimTime,
    overhead: f64,
    /// Per-model serving mask, index-aligned with the ECU's `models`.
    /// Detached (shed or migrated-away) models keep their IP attached but
    /// are skipped by the service loop — the graceful-degradation lever
    /// the fleet admission policies pull.
    active: Vec<bool>,
    verdicts: VerdictLog,
    queue: ServiceQueue,
    dropped: u64,
    busy: SimTime,
    first_arrival: Option<SimTime>,
    /// The current frame's packed input words, reused frame to frame.
    words: Vec<u32>,
    /// Per-core busy time of the current frame, zeroed per frame
    /// ([`SchedPolicy::RoundRobin`] and [`SchedPolicy::InterruptPerFrame`]).
    core_time: Vec<SimTime>,
    /// Frames packed once and awaiting the next DMA transfer
    /// ([`SchedPolicy::DmaBatch`] only).
    batch_buf: FeatureBatch,
    /// Arrival metadata of the batched frames, index-aligned with
    /// `batch_buf`.
    batch_meta: Vec<(SimTime, CanFrame)>,
    /// Per attached model (index-aligned with the ECU's `models`), the
    /// kernel scratch and class memo its DMA windows classify through.
    kernels: Vec<(PackedScratch, ClassMemo)>,
    /// The last DMA window's classes, one row per active model, reused
    /// from window to window.
    window: MultiBatchReport,
    /// The board's MMIO memo counts when the session opened.
    mmio_counts: MemoCounts,
    /// Whether per-stage profiling samples are recorded.
    profiling: bool,
    /// Profiled stage intervals awaiting [`EcuStream::take_stage_samples`].
    samples: Vec<StageSample>,
}

/// A session's verdicts: those not yet taken through
/// [`EcuStream::take_detections`], and what an [`EcuReport`] needs of
/// every verdict booked, taken or not.
#[derive(Debug, Clone, Default)]
struct VerdictLog {
    pending: Vec<Detection>,
    count: usize,
    latency_sum_ns: u64,
    max_latency: SimTime,
    /// Completion of the verdict booked last.
    last_completed: Option<SimTime>,
}

impl VerdictLog {
    fn book(&mut self, d: Detection) {
        let latency = d.latency();
        self.count += 1;
        self.latency_sum_ns += latency.as_nanos();
        self.max_latency = self.max_latency.max(latency);
        self.last_completed = Some(d.completed_at);
        self.pending.push(d);
    }
}

impl std::fmt::Debug for EcuStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcuStream")
            .field("serviced", &self.verdicts.count)
            .field("dropped", &self.dropped)
            .field("queue", &self.queue)
            .finish_non_exhaustive()
    }
}

/// The single-server software-FIFO model shared by the ECU service loop
/// and the streaming line-rate harness
/// (`canids_core::serve::ServeHarness`): a bounded queue of pending
/// verdict completions plus the server-busy clock. Keeping this state
/// machine in one place means both paths drop and queue frames under
/// *exactly* the same policy.
#[derive(Debug, Clone)]
pub struct ServiceQueue {
    depth: usize,
    completions: std::collections::VecDeque<SimTime>,
    server_free_at: SimTime,
}

impl ServiceQueue {
    /// A queue admitting at most `depth` pending verdicts.
    pub fn new(depth: usize) -> Self {
        ServiceQueue {
            depth,
            completions: std::collections::VecDeque::new(),
            server_free_at: SimTime::ZERO,
        }
    }

    /// Retires verdicts completed at or before `now`.
    pub fn retire(&mut self, now: SimTime) {
        while let Some(&front) = self.completions.front() {
            if front <= now {
                self.completions.pop_front();
            } else {
                break;
            }
        }
    }

    /// Retires verdicts completed at or before `arrival`, then reports
    /// whether a frame arriving now fits the FIFO (`false` = drop it).
    pub fn admit(&mut self, arrival: SimTime) -> bool {
        self.admit_with_pending(arrival, 0)
    }

    /// [`ServiceQueue::admit`] with `pending` additional frames the
    /// caller is holding outside the queue (e.g. a DMA batch buffer that
    /// has not been flushed yet) — those occupy FIFO slots too.
    pub fn admit_with_pending(&mut self, arrival: SimTime, pending: usize) -> bool {
        self.retire(arrival);
        self.completions.len() + pending < self.depth
    }

    /// The instant the server can begin a frame that is ready at `ready`
    /// (its ready time, or when the previous frame finishes).
    pub fn start_time(&self, ready: SimTime) -> SimTime {
        ready.max(self.server_free_at)
    }

    /// Books `service` time from `start` (obtained via [`start_time`])
    /// for an admitted frame; returns its completion time.
    ///
    /// [`start_time`]: ServiceQueue::start_time
    pub fn serve(&mut self, start: SimTime, service: SimTime) -> SimTime {
        let completed_at = start + service;
        self.server_free_at = completed_at;
        self.completions.push_back(completed_at);
        completed_at
    }

    /// Verdicts still pending completion.
    pub fn backlog(&self) -> usize {
        self.completions.len()
    }
}

impl EcuStream<'_> {
    /// Offers one frame to the service loop.
    ///
    /// The frame is featurised and packed **once**, and the same packed
    /// words are fed to every attached model — the shared
    /// feature-packing pass of the multi-detector deployment.
    ///
    /// Each model classifies through a class memo of its own
    /// ([`ClassMemo`], [`MEMO_SLOTS`](canids_qnn::kernel::MEMO_SLOTS)
    /// entries, about 2.5 KB): the session's, one per attached model,
    /// for DMA windows, and the accelerator peripheral's for MMIO starts.
    /// A repeated frame, as in a flood, is classified once per model
    /// while it stays in the memo. The memo changes no class and no
    /// modelled time; [`EcuReport::kernel`] counts its runs and hits.
    ///
    /// Returns the verdict, or `None` when either the software FIFO was
    /// full at the arrival instant and the frame was dropped, or the
    /// policy is [`SchedPolicy::DmaBatch`] and the verdict is deferred to
    /// the next transfer (the final report distinguishes the two: every
    /// deferred frame appears in `detections`, dropped frames in
    /// `dropped`).
    ///
    /// # Errors
    ///
    /// Propagates driver/bus errors.
    pub fn push<F: FrameFeaturizer>(
        &mut self,
        arrival: SimTime,
        frame: CanFrame,
        featurizer: &F,
    ) -> Result<Option<Detection>, SocError> {
        self.first_arrival.get_or_insert(arrival);

        if !self
            .queue
            .admit_with_pending(arrival, self.batch_meta.len())
        {
            self.dropped += 1;
            return Ok(None);
        }

        // One featurisation into packed words per frame, shared by all
        // models and policies.
        self.words.clear();
        let dim = featurizer.featurize_packed(&frame, &mut self.words);

        if let SchedPolicy::DmaBatch { batch } = self.ecu.config.policy {
            if self.batch_buf.is_empty() && self.batch_buf.dim() != dim {
                self.batch_buf = FeatureBatch::new(dim);
            }
            self.batch_buf.push_packed(dim, &self.words)?;
            self.batch_meta.push((arrival, frame));
            self.busy += self.rx_cost;
            // The window cannot exceed the FIFO: unflushed batch frames
            // occupy FIFO slots, so a window larger than `queue_depth`
            // would stall at the admission check and never fill.
            let window = batch.max(1).min(self.ecu.config.queue_depth.max(1));
            if self.batch_meta.len() >= window {
                self.flush_batch()?;
                return Ok(self.verdicts.pending.last().copied());
            }
            return Ok(None);
        }

        let words = &self.words;
        let ready = arrival + self.rx_cost;
        let start = self.queue.start_time(ready);
        let multi_factor = self.multi_factor();

        let mut model_flags = 0u64;
        let (flagged, service) = match self.ecu.config.policy {
            SchedPolicy::Sequential => {
                // One driver context walks the active models back to back;
                // the verdict pays the full software path once per model.
                self.ecu.board.set_now(start);
                let mut flagged = false;
                for (k, (&idx, _)) in self
                    .ecu
                    .models
                    .iter()
                    .zip(&self.active)
                    .enumerate()
                    .filter(|&(_, (_, &a))| a)
                {
                    let rec = self.ecu.board.infer_packed(idx, words)?;
                    if rec.class != 0 {
                        flagged = true;
                        if k < 64 {
                            model_flags |= 1 << k;
                        }
                    }
                }
                (flagged, self.ecu.board.now().saturating_sub(start))
            }
            SchedPolicy::RoundRobin | SchedPolicy::InterruptPerFrame => {
                // Active models spread round-robin over the A53 cores;
                // each core runs its share back to back and the verdict
                // waits for the slowest core plus the AXI-arbitration
                // penalty.
                let irq = self.ecu.config.policy == SchedPolicy::InterruptPerFrame;
                let cores = self.ecu.board.cpu().cores.max(1);
                let core_time = &mut self.core_time;
                core_time.clear();
                core_time.resize(cores, SimTime::ZERO);
                let mut flagged = false;
                let active = self
                    .ecu
                    .models
                    .iter()
                    .zip(&self.active)
                    .enumerate()
                    .filter(|&(_, (_, &a))| a)
                    .map(|(k, (&idx, _))| (k, idx));
                for (i, (k, idx)) in active.enumerate() {
                    self.ecu.board.set_now(start);
                    let rec = if irq {
                        self.ecu.board.infer_packed_irq(idx, words)?
                    } else {
                        self.ecu.board.infer_packed(idx, words)?
                    };
                    if rec.class != 0 {
                        flagged = true;
                        if k < 64 {
                            model_flags |= 1 << k;
                        }
                    }
                    core_time[i % cores] += rec.latency();
                }
                let slowest = core_time.iter().copied().max().unwrap_or(SimTime::ZERO);
                let service = SimTime::from_secs_f64(slowest.as_secs_f64() * multi_factor);
                (flagged, service)
            }
            SchedPolicy::DmaBatch { .. } => unreachable!("handled above"),
        };

        let completed_at = self.queue.serve(start, service);
        self.busy += service + self.rx_cost;
        if self.profiling {
            self.samples.push(StageSample {
                stage: "infer",
                start,
                end: completed_at,
                frames: 1,
            });
        }

        let detection = Detection {
            arrival,
            frame,
            flagged,
            completed_at,
            model_flags,
            active_mask: active_mask_of(&self.active),
        };
        self.verdicts.book(detection);
        Ok(Some(detection))
    }

    /// Runs the pending DMA batch through every active model as one
    /// broadcast transfer and books its completions. The classes land in
    /// the stream's own window report, so a window allocates nothing
    /// once the report's rows have grown to the active model count.
    fn flush_batch(&mut self) -> Result<(), SocError> {
        if self.batch_meta.is_empty() {
            return Ok(());
        }
        let ecu = &*self.ecu;
        let mut any_active = false;
        for (&idx, _) in ecu.models.iter().zip(&self.active).filter(|&(_, &a)| a) {
            ecu.board
                .accelerator(idx)
                .ok_or(SocError::NoSuchAccelerator(idx))?;
            any_active = true;
        }
        let window = &mut self.window;
        if any_active {
            // Every active model's IP exists (checked above).
            let ips = ecu
                .models
                .iter()
                .zip(&self.active)
                .zip(&mut self.kernels)
                .filter(|&((_, &a), _)| a)
                .filter_map(|((&idx, _), buffers)| Some((ecu.board.accelerator(idx)?, buffers)));
            run_batch_multi(
                ips,
                ecu.board.cpu(),
                ecu.config.dma,
                &self.batch_buf,
                window,
            )?;
        } else {
            // With every model detached the window still drains (frames
            // pay only the RX path and are never flagged).
            window.classes.clear();
            window.flagged.clear();
            window.flagged.resize(self.batch_meta.len(), false);
            window.total = SimTime::ZERO;
        }

        // The transfer starts once the last frame of the window has been
        // received and the server is free; every frame in the window
        // completes when the slowest model's pipeline drains (plus the
        // multi-model arbitration margin).
        let last_arrival = self.batch_meta.last().map(|&(t, _)| t).unwrap_or_default();
        let ready = last_arrival + self.rx_cost;
        let start = self.queue.start_time(ready);
        let service = SimTime::from_secs_f64(self.window.total.as_secs_f64() * self.multi_factor());
        let completed_at = self.queue.serve(start, service);
        for _ in 1..self.batch_meta.len() {
            // The remaining frames of the window occupy FIFO slots until
            // the same completion instant.
            self.queue.serve(completed_at, SimTime::ZERO);
        }
        self.busy += service;
        self.ecu.board.set_now(completed_at);
        if self.profiling {
            self.samples.push(StageSample {
                stage: "dma_window",
                start,
                end: completed_at,
                frames: self.batch_meta.len() as u32,
            });
        }

        let active_mask = active_mask_of(&self.active);
        for (f, (&(arrival, frame), &flagged)) in
            self.batch_meta.iter().zip(&self.window.flagged).enumerate()
        {
            // Fold the window's per-model class rows into one bitmask,
            // keyed on the board-local positions of the active models.
            let positions = self.active.iter().enumerate().filter(|&(_, &a)| a);
            let model_flags = positions
                .zip(&self.window.classes)
                .filter(|(_, classes)| classes[f] != 0)
                .fold(0u64, |m, ((k, _), _)| if k < 64 { m | (1 << k) } else { m });
            self.verdicts.book(Detection {
                arrival,
                frame,
                flagged,
                completed_at,
                model_flags,
                active_mask,
            });
        }
        self.batch_meta.clear();
        self.batch_buf.clear();
        Ok(())
    }

    /// AXI arbitration margin for the currently active model count.
    fn multi_factor(&self) -> f64 {
        let k = self.active.iter().filter(|&&a| a).count().max(1);
        1.0 + self.overhead * (k as f64 - 1.0)
    }

    /// Enables or disables model `i` (index into the ECU's model list)
    /// for subsequent pushes. A detached model's IP stays attached to the
    /// board; the service loop simply skips it, so re-admission is free.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set_model_active(&mut self, i: usize, active: bool) {
        self.active[i] = active;
    }

    /// Whether model `i` is currently served.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn model_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Number of models the service loop currently consults.
    pub fn active_models(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Frames currently occupying FIFO slots: verdicts pending completion
    /// plus frames buffered in an unflushed DMA window. The fleet
    /// admission policies watch this to detect sustained overload before
    /// the FIFO overflows.
    pub fn backlog(&self) -> usize {
        self.queue.backlog() + self.batch_meta.len()
    }

    /// Frames serviced so far (excluding frames deferred in an unflushed
    /// DMA batch), taken or not.
    pub fn serviced(&self) -> usize {
        self.verdicts.count
    }

    /// Verdicts booked and not yet taken, in service order (new entries
    /// appear at the tail; under [`SchedPolicy::DmaBatch`] a whole
    /// window lands at once).
    pub fn detections(&self) -> &[Detection] {
        &self.verdicts.pending
    }

    /// Moves the verdicts booked since the last call into `out`
    /// (appending), in service order: the incremental view a streaming
    /// harness drains between pushes. The report still counts them in
    /// its latency, throughput, busy and energy figures, but no longer
    /// lists them.
    pub fn take_detections(&mut self, out: &mut Vec<Detection>) {
        out.append(&mut self.verdicts.pending);
    }

    /// Frames dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Turns on per-stage profiling: subsequent service intervals are
    /// recorded as [`StageSample`]s (a `"infer"` sample per frame on the
    /// per-message policies, a `"dma_window"` sample per flushed batch).
    /// Sampling is off by default and the service-loop timing model is
    /// identical either way — profiling only observes.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Drains the profiled stage intervals recorded since the last call
    /// into `out` (appending), preserving record order.
    pub fn take_stage_samples(&mut self, out: &mut Vec<StageSample>) {
        out.append(&mut self.samples);
    }

    /// Closes the session and aggregates the report. Under
    /// [`SchedPolicy::DmaBatch`] a partial trailing window is flushed
    /// first.
    ///
    /// The latency, throughput, busy and energy figures cover every
    /// verdict of the session; [`EcuReport::detections`] lists those not
    /// taken through [`take_detections`](Self::take_detections).
    ///
    /// # Errors
    ///
    /// Propagates driver/bus errors from the trailing flush.
    pub fn try_finish(mut self) -> Result<EcuReport, SocError> {
        self.flush_batch()?;
        let EcuStream {
            ecu,
            verdicts,
            dropped,
            busy,
            first_arrival,
            samples,
            kernels,
            mmio_counts,
            ..
        } = self;
        let mut kernel = ecu.board.memo_counts() - mmio_counts;
        for (_, memo) in &kernels {
            kernel += memo.counts();
        }
        let span = match (first_arrival, verdicts.last_completed) {
            (Some(first), Some(last)) => last.saturating_sub(first),
            _ => SimTime::ZERO,
        };
        let mean_latency = match verdicts.count {
            0 => SimTime::ZERO,
            n => SimTime::from_nanos(verdicts.latency_sum_ns / n as u64),
        };
        let busy_fraction = if span > SimTime::ZERO {
            (busy.as_secs_f64() / span.as_secs_f64()).min(1.0)
        } else {
            0.0
        };
        let throughput_fps = if span > SimTime::ZERO {
            verdicts.count as f64 / span.as_secs_f64()
        } else {
            0.0
        };
        let mean_power_w = ecu.board.power_model().total_w(busy_fraction);
        let energy_per_message_j = mean_power_w * mean_latency.as_secs_f64();

        Ok(EcuReport {
            policy: ecu.config.policy,
            detections: verdicts.pending,
            dropped,
            mean_latency,
            max_latency: verdicts.max_latency,
            throughput_fps,
            busy_fraction,
            mean_power_w,
            energy_per_message_j,
            stage_samples: samples,
            kernel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::frame::CanId;
    use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
    use canids_qnn::prelude::*;

    /// An ECU with `n` seeded default-topology detectors attached.
    fn ecu_with(n: usize, config: EcuConfig) -> IdsEcu {
        let ips = (0..n).map(|i| {
            let mlp = QuantMlp::new(MlpConfig {
                seed: 42 + i as u64,
                ..MlpConfig::default()
            })
            .unwrap();
            AcceleratorIp::compile(&mlp.export().unwrap(), CompileConfig::default()).unwrap()
        });
        IdsEcu::with_ips(ips, config).unwrap()
    }

    fn frames(n: usize, period_us: u64) -> Vec<(SimTime, CanFrame)> {
        (0..n)
            .map(|i| {
                (
                    SimTime::from_micros(period_us * i as u64),
                    CanFrame::new(CanId::standard(0x316).unwrap(), &[i.to_le_bytes()[0]; 8])
                        .unwrap(),
                )
            })
            .collect()
    }

    fn zero_feat(_f: &CanFrame) -> Vec<f32> {
        vec![0.0; 75]
    }

    #[test]
    fn per_message_latency_near_paper() {
        let mut ecu = ecu_with(1, EcuConfig::default());
        // Frames every 200 µs: no queueing.
        let report = ecu.process_capture(&frames(50, 200), &zero_feat).unwrap();
        let ms = report.mean_latency.as_millis_f64();
        assert!(
            (0.10..0.14).contains(&ms),
            "latency {ms} ms vs paper 0.12 ms"
        );
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn keeps_up_at_line_rate() {
        // 1 Mb/s full-payload line rate ≈ 120 µs/frame; the service path
        // must not accumulate backlog.
        let mut ecu = ecu_with(1, EcuConfig::default());
        let report = ecu.process_capture(&frames(200, 120), &zero_feat).unwrap();
        assert_eq!(report.dropped, 0);
        assert!(
            report.max_latency.as_millis_f64() < 0.5,
            "backlog grew: max {}",
            report.max_latency
        );
        assert!(report.throughput_fps > 8_000.0, "{}", report.throughput_fps);
    }

    #[test]
    fn overload_drops_frames() {
        // 20 µs inter-arrival is ~6x beyond the service rate.
        let mut ecu = ecu_with(
            1,
            EcuConfig {
                queue_depth: 8,
                ..EcuConfig::default()
            },
        );
        let report = ecu.process_capture(&frames(300, 20), &zero_feat).unwrap();
        assert!(report.dropped > 100, "dropped {}", report.dropped);
    }

    #[test]
    fn power_and_energy_near_paper_under_load() {
        let mut ecu = ecu_with(1, EcuConfig::default());
        let report = ecu.process_capture(&frames(300, 125), &zero_feat).unwrap();
        assert!(
            (1.9..2.2).contains(&report.mean_power_w),
            "power {} W vs paper 2.09 W",
            report.mean_power_w
        );
        let mj = report.energy_per_message_j * 1e3;
        assert!((0.2..0.3).contains(&mj), "energy {mj} mJ vs paper 0.25 mJ");
    }

    #[test]
    fn two_models_flag_union_and_cost_slightly_more() {
        let mut ecu = ecu_with(2, EcuConfig::default());
        let two = ecu.process_capture(&frames(40, 250), &zero_feat).unwrap();
        let mut ecu1 = ecu_with(1, EcuConfig::default());
        let one = ecu1.process_capture(&frames(40, 250), &zero_feat).unwrap();
        let ratio = two.mean_latency.as_secs_f64() / one.mean_latency.as_secs_f64();
        assert!(ratio > 1.0 && ratio < 1.2, "multi-model ratio {ratio}");
    }

    #[test]
    fn empty_capture_is_empty_report() {
        let mut ecu = ecu_with(1, EcuConfig::default());
        let report = ecu.process_capture(&[], &zero_feat).unwrap();
        assert!(report.detections.is_empty());
        assert_eq!(report.mean_latency, SimTime::ZERO);
    }

    #[test]
    fn service_queue_drops_when_full_and_drains_on_time() {
        let mut q = ServiceQueue::new(2);
        assert!(q.admit(SimTime::ZERO));
        q.serve(q.start_time(SimTime::ZERO), SimTime::from_micros(100));
        assert!(q.admit(SimTime::ZERO));
        q.serve(q.start_time(SimTime::ZERO), SimTime::from_micros(100));
        // Two verdicts pending (complete at 100 us and 200 us): full.
        assert_eq!(q.backlog(), 2);
        assert!(!q.admit(SimTime::from_micros(50)), "FIFO full -> drop");
        // By 150 us the first verdict has retired.
        assert!(q.admit(SimTime::from_micros(150)));
        assert_eq!(q.backlog(), 1);
        // The server is busy until 200 us, so the next start waits.
        assert_eq!(
            q.start_time(SimTime::from_micros(150)),
            SimTime::from_micros(200)
        );
    }

    #[test]
    fn streaming_session_matches_batch_capture() {
        // The two serving modes must agree frame for frame: batch replay
        // on one ECU, incremental pushes on an identically built one.
        let mut batch_ecu = ecu_with(1, EcuConfig::default());
        let f = frames(60, 150);
        let batch = batch_ecu.process_capture(&f, &zero_feat).unwrap();

        let mut stream_ecu = ecu_with(1, EcuConfig::default());
        let mut session = stream_ecu.stream();
        for (i, &(t, frame)) in f.iter().enumerate() {
            let det = session.push(t, frame, &zero_feat).unwrap();
            assert!(det.is_some(), "no backlog at this pace");
            assert_eq!(session.serviced(), i + 1);
        }
        assert_eq!(session.dropped(), 0);
        let streamed = session.try_finish().unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn taken_detections_and_the_report_tail_equal_one_capture() {
        // Frames every 60 µs queue behind a ~100 µs service, so the
        // latencies vary. Verdicts taken every seventh push, then the
        // report's tail, must rebuild one `process_capture` on a fresh
        // ECU, figure for figure.
        let f = frames(100, 60);
        for policy in [SchedPolicy::RoundRobin, SchedPolicy::DmaBatch { batch: 8 }] {
            let config = EcuConfig {
                policy,
                ..EcuConfig::default()
            };
            let whole = ecu_with(2, config)
                .process_capture(&f, &featurize_bits)
                .unwrap();
            let mut ecu = ecu_with(2, config);
            let mut session = ecu.stream();
            let mut taken = Vec::new();
            for (i, &(t, frame)) in f.iter().enumerate() {
                session.push(t, frame, &featurize_bits).unwrap();
                if i % 7 == 3 {
                    session.take_detections(&mut taken);
                    assert!(session.detections().is_empty());
                    assert_eq!(session.serviced(), taken.len());
                }
            }
            let tail = session.try_finish().unwrap();
            assert!(!taken.is_empty() && !tail.detections.is_empty());
            let bits = |r: &EcuReport| {
                let (e, p) = (r.energy_per_message_j, r.mean_power_w);
                [r.throughput_fps, r.busy_fraction, p, e].map(f64::to_bits)
            };
            assert_eq!(bits(&tail), bits(&whole), "{}", policy.label());
            let lat: Vec<u64> = whole
                .detections
                .iter()
                .map(|d| d.latency().as_nanos())
                .collect();
            let mean = lat.iter().sum::<u64>() / lat.len() as u64;
            assert_eq!(whole.mean_latency, SimTime::from_nanos(mean));
            assert_eq!(
                whole.max_latency.as_nanos(),
                lat.iter().copied().max().unwrap()
            );
            let span = whole.detections[lat.len() - 1].completed_at - f[0].0;
            let fps = lat.len() as f64 / span.as_secs_f64();
            assert_eq!(whole.throughput_fps.to_bits(), fps.to_bits());
            assert!(whole.max_latency > whole.mean_latency, "latencies vary");
            taken.extend_from_slice(&tail.detections);
            let joined = EcuReport {
                detections: taken,
                ..tail
            };
            assert_eq!(joined, whole, "{}", policy.label());
        }
    }

    #[test]
    fn streaming_session_reports_drops_in_flight() {
        let mut ecu = ecu_with(
            1,
            EcuConfig {
                queue_depth: 4,
                ..EcuConfig::default()
            },
        );
        let mut session = ecu.stream();
        let mut saw_drop = false;
        for (t, frame) in frames(200, 10) {
            if session.push(t, frame, &zero_feat).unwrap().is_none() {
                saw_drop = true;
            }
        }
        assert!(saw_drop, "20x overload must overflow a 4-deep FIFO");
        let report = session.try_finish().unwrap();
        assert!(report.dropped > 0);
        assert_eq!(report.dropped + report.detections.len() as u64, 200);
    }

    #[test]
    fn empty_streaming_session_is_empty_report() {
        let mut ecu = ecu_with(1, EcuConfig::default());
        let report = ecu.stream().try_finish().unwrap();
        assert!(report.detections.is_empty());
        assert_eq!(report.mean_latency, SimTime::ZERO);
        assert_eq!(report.throughput_fps, 0.0);
    }

    fn featurize_bits(f: &CanFrame) -> Vec<f32> {
        // A content-dependent featurisation so policies actually disagree
        // on timing-visible state while predictions must stay equal.
        let mut bits = vec![0.0f32; 75];
        for (i, slot) in bits.iter_mut().enumerate() {
            let byte = f.data_padded()[i % 8];
            *slot = f32::from((byte >> (i % 8)) & 1);
        }
        bits
    }

    #[test]
    fn all_policies_produce_identical_predictions() {
        let f = frames(70, 1_000);
        let mut baseline: Option<Vec<(SimTime, bool)>> = None;
        for policy in [
            SchedPolicy::Sequential,
            SchedPolicy::RoundRobin,
            SchedPolicy::DmaBatch { batch: 16 },
            SchedPolicy::InterruptPerFrame,
        ] {
            let mut ecu = ecu_with(
                2,
                EcuConfig {
                    policy,
                    ..EcuConfig::default()
                },
            );
            let report = ecu.process_capture(&f, &featurize_bits).unwrap();
            assert_eq!(report.policy, policy);
            assert_eq!(report.dropped, 0, "{}", policy.label());
            let verdicts: Vec<(SimTime, bool)> = report
                .detections
                .iter()
                .map(|d| (d.arrival, d.flagged))
                .collect();
            match &baseline {
                None => baseline = Some(verdicts),
                Some(b) => assert_eq!(
                    &verdicts,
                    b,
                    "policy {} diverged functionally",
                    policy.label()
                ),
            }
        }
    }

    #[test]
    fn model_flags_agree_across_policies_and_respect_the_mask() {
        // Per-model verdict bits: consistent across every scheduling
        // policy (the functional model is shared), consistent with the
        // fused flag, and cleared together with the active mask when a
        // model is detached.
        let f = frames(50, 1_000);
        let mut baseline: Option<Vec<u64>> = None;
        for policy in [
            SchedPolicy::Sequential,
            SchedPolicy::RoundRobin,
            SchedPolicy::DmaBatch { batch: 8 },
            SchedPolicy::InterruptPerFrame,
        ] {
            let mut ecu = ecu_with(
                2,
                EcuConfig {
                    policy,
                    ..EcuConfig::default()
                },
            );
            let report = ecu.process_capture(&f, &featurize_bits).unwrap();
            for d in &report.detections {
                assert_eq!(d.active_mask, 0b11, "{}", policy.label());
                assert_eq!(d.flagged, d.model_flags != 0, "{}", policy.label());
                assert_eq!(d.model_flagged(0), d.model_flags & 1 != 0);
                assert!(d.model_consulted(0) && d.model_consulted(1));
                assert!(!d.model_consulted(64), "out-of-range index is false");
            }
            let masks: Vec<u64> = report.detections.iter().map(|d| d.model_flags).collect();
            match &baseline {
                None => baseline = Some(masks),
                Some(b) => assert_eq!(&masks, b, "{} diverged per-model", policy.label()),
            }
        }

        // Detach model 1: its bit disappears from both masks.
        let mut ecu = ecu_with(2, EcuConfig::default());
        let mut session = ecu.stream();
        session.set_model_active(1, false);
        for &(t, frame) in &f {
            session.push(t, frame, &featurize_bits).unwrap();
        }
        assert!(!session.detections().is_empty());
        for d in session.detections() {
            assert_eq!(d.active_mask, 0b01);
            assert!(!d.model_flagged(1));
            assert!(!d.model_consulted(1));
        }
    }

    #[test]
    fn sequential_costs_roughly_n_times_round_robin() {
        let f = frames(30, 1_000);
        let mut rr = ecu_with(2, EcuConfig::default());
        let rr_report = rr.process_capture(&f, &zero_feat).unwrap();
        let mut seq = ecu_with(
            2,
            EcuConfig {
                policy: SchedPolicy::Sequential,
                ..EcuConfig::default()
            },
        );
        let seq_report = seq.process_capture(&f, &zero_feat).unwrap();
        let ratio = seq_report.mean_latency.as_secs_f64() / rr_report.mean_latency.as_secs_f64();
        assert!(
            (1.5..2.2).contains(&ratio),
            "sequential/round-robin ratio {ratio}"
        );
    }

    #[test]
    fn dma_batch_defers_verdicts_to_the_window() {
        let mut ecu = ecu_with(
            1,
            EcuConfig {
                policy: SchedPolicy::DmaBatch { batch: 4 },
                ..EcuConfig::default()
            },
        );
        let f = frames(10, 500);
        let mut session = ecu.stream();
        let mut immediate = 0usize;
        for &(t, frame) in &f {
            if session.push(t, frame, &zero_feat).unwrap().is_some() {
                immediate += 1;
            }
        }
        // Verdicts only materialise at window boundaries (frames 4 and 8).
        assert_eq!(immediate, 2);
        assert_eq!(session.serviced(), 8);
        let report = session.try_finish().unwrap();
        // The trailing partial window flushed on finish.
        assert_eq!(report.detections.len(), 10);
        assert_eq!(report.dropped, 0);
        // All frames of one window share a completion instant, and the
        // amortised mean still lands below the per-message path.
        let w0: Vec<_> = report.detections[..4]
            .iter()
            .map(|d| d.completed_at)
            .collect();
        assert!(w0.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn dma_batch_window_clamps_to_queue_depth() {
        // Regression: a window deeper than the FIFO used to be
        // unreachable (buffered frames count against the FIFO, so the
        // buffer capped below the flush threshold) and every later
        // frame was silently dropped.
        let mut ecu = ecu_with(
            1,
            EcuConfig {
                queue_depth: 8,
                policy: SchedPolicy::DmaBatch { batch: 1000 },
                ..EcuConfig::default()
            },
        );
        let report = ecu.process_capture(&frames(40, 1_000), &zero_feat).unwrap();
        assert_eq!(report.dropped, 0, "clamped window must keep flushing");
        assert_eq!(report.detections.len(), 40);
    }

    #[test]
    fn dma_batch_first_verdict_waits_for_the_window() {
        let mut batched = ecu_with(
            1,
            EcuConfig {
                policy: SchedPolicy::DmaBatch { batch: 8 },
                ..EcuConfig::default()
            },
        );
        let f = frames(8, 500);
        let b = batched.process_capture(&f, &zero_feat).unwrap();
        let mut per_msg = ecu_with(1, EcuConfig::default());
        let p = per_msg.process_capture(&f, &zero_feat).unwrap();
        // First-verdict delay: batch waits for the fill, per-message does
        // not. Amortised service cost: batch wins.
        assert!(b.detections[0].latency() > p.detections[0].latency());
        assert!(b.busy_fraction < p.busy_fraction);
    }

    #[test]
    fn interrupt_policy_is_slower_per_frame_under_linux() {
        let f = frames(20, 1_000);
        let mut polled = ecu_with(1, EcuConfig::default());
        let poll_report = polled.process_capture(&f, &zero_feat).unwrap();
        let mut irq = ecu_with(
            1,
            EcuConfig {
                policy: SchedPolicy::InterruptPerFrame,
                ..EcuConfig::default()
            },
        );
        let irq_report = irq.process_capture(&f, &zero_feat).unwrap();
        assert!(irq_report.mean_latency > poll_report.mean_latency);
        // But not absurdly so: one interrupt entry per verdict.
        let delta =
            irq_report.mean_latency.as_micros_f64() - poll_report.mean_latency.as_micros_f64();
        assert!((2.0..20.0).contains(&delta), "irq delta {delta} us");
    }

    #[test]
    fn set_policy_reuses_one_deployment() {
        let mut ecu = ecu_with(1, EcuConfig::default());
        let f = frames(10, 500);
        let a = ecu.process_capture(&f, &zero_feat).unwrap();
        assert_eq!(a.policy, SchedPolicy::RoundRobin);
        ecu.set_policy(SchedPolicy::Sequential);
        // Board time is monotonic across sessions: the second replay
        // rides after the first.
        let offset = SimTime::from_secs(1);
        let f2: Vec<(SimTime, CanFrame)> = f.iter().map(|&(t, fr)| (t + offset, fr)).collect();
        let b = ecu.process_capture(&f2, &zero_feat).unwrap();
        assert_eq!(b.policy, SchedPolicy::Sequential);
        assert_eq!(ecu.config().policy, SchedPolicy::Sequential);
        let flags_a: Vec<bool> = a.detections.iter().map(|d| d.flagged).collect();
        let flags_b: Vec<bool> = b.detections.iter().map(|d| d.flagged).collect();
        assert_eq!(flags_a, flags_b);
    }

    #[test]
    fn detached_models_are_skipped_and_readmitted() {
        // Sequential pays the path once per *active* model: detaching one
        // of two models halves the service time, re-attaching restores it.
        let mut ecu = ecu_with(
            2,
            EcuConfig {
                policy: SchedPolicy::Sequential,
                ..EcuConfig::default()
            },
        );
        let f = frames(30, 1_000);
        let mut session = ecu.stream();
        assert_eq!(session.active_models(), 2);
        let d2 = session.push(f[0].0, f[0].1, &zero_feat).unwrap().unwrap();
        session.set_model_active(1, false);
        assert_eq!(session.active_models(), 1);
        assert!(session.model_active(0) && !session.model_active(1));
        let d1 = session.push(f[1].0, f[1].1, &zero_feat).unwrap().unwrap();
        let ratio = d2.latency().as_secs_f64() / d1.latency().as_secs_f64();
        assert!((1.5..2.5).contains(&ratio), "2-model/1-model ratio {ratio}");
        session.set_model_active(1, true);
        let d2b = session.push(f[2].0, f[2].1, &zero_feat).unwrap().unwrap();
        assert!(
            d2b.latency() > d1.latency(),
            "re-admitted model serves again"
        );
        let report = session.try_finish().unwrap();
        assert_eq!(report.detections.len(), 3);
    }

    #[test]
    fn all_models_detached_still_drains_frames() {
        for policy in [
            SchedPolicy::Sequential,
            SchedPolicy::RoundRobin,
            SchedPolicy::DmaBatch { batch: 4 },
        ] {
            let mut ecu = ecu_with(
                1,
                EcuConfig {
                    policy,
                    ..EcuConfig::default()
                },
            );
            let mut session = ecu.stream();
            session.set_model_active(0, false);
            for (t, frame) in frames(8, 500) {
                session.push(t, frame, &zero_feat).unwrap();
            }
            let report = session.try_finish().unwrap();
            assert_eq!(report.detections.len(), 8, "{}", policy.label());
            assert_eq!(report.dropped, 0);
            assert!(report.detections.iter().all(|d| !d.flagged));
        }
    }

    #[test]
    fn backlog_counts_pending_and_batched_frames() {
        let mut ecu = ecu_with(
            1,
            EcuConfig {
                policy: SchedPolicy::DmaBatch { batch: 8 },
                ..EcuConfig::default()
            },
        );
        let f = frames(3, 10);
        let mut session = ecu.stream();
        assert_eq!(session.backlog(), 0);
        for &(t, frame) in &f {
            session.push(t, frame, &zero_feat).unwrap();
        }
        // Three frames buffered in the unflushed window occupy slots.
        assert_eq!(session.backlog(), 3);
    }

    #[test]
    fn detection_latency_accounts_queueing() {
        let mut ecu = ecu_with(1, EcuConfig::default());
        // Two frames arriving simultaneously: the second waits for the first.
        let f = frames(2, 0);
        let report = ecu.process_capture(&f, &zero_feat).unwrap();
        let l0 = report.detections[0].latency();
        let l1 = report.detections[1].latency();
        assert!(l1 > l0, "second frame queues behind the first");
    }

    #[test]
    fn default_packed_featurisation_and_feature_batch_match_pack_features() {
        // Values on both sides of the one-half cut, NaN and signed zero
        // included, spread over all three input words.
        let levels = [0.0, 1.0, 0.49, 0.5, -0.0, 2.0, f32::NAN, -1.0, 0.51];
        let featurize = |f: &CanFrame| -> Vec<f32> {
            let seed = usize::from(f.data_padded()[0]);
            (0..75)
                .map(|i| levels[(i * 7 + seed) % levels.len()])
                .collect()
        };
        let mut batch = FeatureBatch::new(75);
        let mut expected = Vec::new();
        for (_, frame) in frames(20, 100) {
            let want = crate::accel::pack_features(&featurize(&frame));
            let mut words = vec![0xDEAD_BEEF];
            assert_eq!(featurize.featurize_packed(&frame, &mut words), 75);
            assert_eq!(words[0], 0xDEAD_BEEF, "appends, keeping earlier words");
            assert_eq!(&words[1..], want.as_slice());
            batch.push(&featurize(&frame)).unwrap();
            expected.extend(want);
        }
        assert_eq!(batch.len(), 20);
        assert_eq!(batch.frames(), expected.as_slice());
    }

    #[test]
    fn reused_window_buffers_match_a_fresh_batch_per_window() {
        // Three models under 4-frame DMA windows; model 1 is detached for
        // windows 1 and 2 and serves again from window 3. The stream
        // reuses one window report (class rows and flags) throughout;
        // every detection must equal a fresh `run_batch_multi` over the
        // same window and the same active models.
        let config = EcuConfig {
            policy: SchedPolicy::DmaBatch { batch: 4 },
            ..EcuConfig::default()
        };
        let mut ecu = ecu_with(3, config);
        let ips: Vec<AcceleratorIp> = (0..3)
            .map(|i| ecu.board().accelerator(i).unwrap().clone())
            .collect();
        let cpu = *ecu.board().cpu();
        // A pool of frames with payloads from a fixed LCG, each tagged
        // with the models that flag it.
        let mut state = 0x2545_F491_u32;
        let pool: Vec<(CanFrame, u64)> = (0..96)
            .map(|_| {
                let payload: Vec<u8> = (0..8)
                    .map(|_| {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        state.to_be_bytes()[0]
                    })
                    .collect();
                let frame = CanFrame::new(CanId::standard(0x316).unwrap(), &payload).unwrap();
                let levels: Vec<u32> = featurize_bits(&frame)
                    .iter()
                    .map(|&v| u32::from(v >= 0.5))
                    .collect();
                let flags = ips
                    .iter()
                    .enumerate()
                    .filter(|(_, ip)| ip.infer(&levels).0 != 0)
                    .fold(0u64, |m, (k, _)| m | 1 << k);
                (frame, flags)
            })
            .collect();
        let pick = |keep: &dyn Fn(u64) -> bool| -> Vec<CanFrame> {
            pool.iter()
                .filter(|&&(_, m)| keep(m))
                .map(|&(fr, _)| fr)
                .collect()
        };
        let (loud2, quiet, rest) = (
            pick(&|m| m & 0b100 != 0),
            pick(&|m| m == 0),
            pick(&|_| true),
        );
        assert!(
            loud2.len() >= 4 && quiet.len() >= 4,
            "the pool must hold both kinds"
        );
        // Window 0: model 2 flags every frame. Windows 1 and 2 (model 1
        // detached): every other frame is one no model flags, so a row
        // left over from window 0 would show in `flagged`. Windows 3–5:
        // the pool in order.
        let order: Vec<CanFrame> = loud2[..4]
            .iter()
            .chain([quiet[0], rest[0], quiet[1], rest[1]].iter())
            .chain([rest[2], quiet[2], rest[3], quiet[3]].iter())
            .chain(rest[4..16].iter())
            .copied()
            .collect();
        let f: Vec<(SimTime, CanFrame)> = order
            .into_iter()
            .enumerate()
            .map(|(i, frame)| (SimTime::from_micros(1_000 * i as u64), frame))
            .collect();
        let active_in = |window: usize| -> &'static [usize] {
            if (1..=2).contains(&window) {
                &[0, 2]
            } else {
                &[0, 1, 2]
            }
        };

        let mut session = ecu.stream();
        for (i, &(t, frame)) in f.iter().enumerate() {
            session.push(t, frame, &featurize_bits).unwrap();
            if i + 1 == 4 {
                session.set_model_active(1, false);
            }
            if i + 1 == 12 {
                session.set_model_active(1, true);
            }
        }
        let report = session.try_finish().unwrap();
        assert_eq!(report.detections.len(), f.len());

        let mut flags_seen = [[false; 2]; 3];
        for (w, (window, detections)) in f.chunks(4).zip(report.detections.chunks(4)).enumerate() {
            let active = active_in(w);
            let vectors: Vec<Vec<f32>> = window.iter().map(|(_, fr)| featurize_bits(fr)).collect();
            let batch = FeatureBatch::from_features(75, &vectors).unwrap();
            let mut buffers: Vec<(PackedScratch, ClassMemo)> = vec![Default::default(); 3];
            let mut reference = MultiBatchReport::default();
            let ips_in = active
                .iter()
                .zip(buffers.iter_mut())
                .map(|(&k, b)| (&ips[k], b));
            run_batch_multi(ips_in, &cpu, config.dma, &batch, &mut reference).unwrap();
            let mask = active.iter().fold(0u64, |m, &k| m | 1 << k);
            for (j, d) in detections.iter().enumerate() {
                let flags = active
                    .iter()
                    .zip(&reference.classes)
                    .filter(|(_, classes)| classes[j] != 0)
                    .fold(0u64, |m, (&k, _)| m | 1 << k);
                assert_eq!(d.frame, window[j].1, "window {w} frame {j}");
                assert_eq!(d.model_flags, flags, "window {w} frame {j}");
                assert_eq!(d.flagged, reference.flagged[j], "window {w} frame {j}");
                assert_eq!(d.active_mask, mask, "window {w} frame {j}");
                for &k in active {
                    flags_seen[k][usize::from(d.model_flagged(k))] = true;
                }
            }
        }
        // Every model both flagged and passed some frame, so a stale row,
        // flag or bit position would show.
        assert_eq!(
            flags_seen, [[true; 2]; 3],
            "the frames must split every model"
        );
    }
}
