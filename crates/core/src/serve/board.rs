//! The simulated-SoC backends: one N-detector ECU, or a fleet of them
//! behind the event-driven gateway network, both served through one
//! [`BoardSession`].

use std::borrow::Cow;
use std::collections::VecDeque;

use canids_can::frame::CanFrame;
use canids_can::timing::frame_bit_count;
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits, FEATURE_BITS_DIM};
use canids_dataset::record::LabeledFrame;
use canids_soc::ecu::{Detection, EcuStream, FrameFeaturizer, IdsEcu, StageSample};

use super::{
    AdmissionPolicy, FleetAction, FleetEvent, FleetTransport, ReplayConfig, ServeBackend,
    ServeSession, ServeTopology, ShardPush, ShardTotals, ShardVerdict,
};
use crate::deploy::MultiIdsDeployment;
use crate::error::CoreError;
use crate::fleet::{FleetDeployment, Slot};
use crate::net::{FleetNet, GatewayLoad, NetOutcome};
use crate::report::EnergyStats;
use crate::telemetry::{Counter, Probe, Stage};

/// The single-board substrate: one simulated N-detector ECU served
/// frame-at-a-time through the full SoC path (driver, DMA, interrupts,
/// FIFO queueing), so latencies/drops/energy are platform facts rather
/// than host noise.
///
/// Construct it from a [`MultiIdsDeployment`], borrowed or owned: a
/// fresh ECU is built per session, so one backend supports any number
/// of replays.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{EcuBackend, ReplayConfig, ServeHarness};
/// use canids_soc::ecu::SchedPolicy;
///
/// let bundles = vec![/* DetectorBundle::new(...) */];
/// let deployment = deploy_multi_ids(&bundles, CompileConfig::default())?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(EcuBackend::new(&deployment));
/// let config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });
/// let report = harness.replay(&capture, &config)?;
/// assert!(report.energy.is_some(), "the SoC path reports power/energy");
/// # Ok::<(), canids_core::CoreError>(())
/// ```
pub struct EcuBackend<'d> {
    deployment: Cow<'d, MultiIdsDeployment>,
    /// The ECU the current session serves on, rebuilt per open.
    session_ecu: Option<IdsEcu>,
}

impl std::fmt::Debug for EcuBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcuBackend")
            .field("models", &self.deployment.ips.len())
            .finish_non_exhaustive()
    }
}

impl<'d> EcuBackend<'d> {
    /// A backend over a compiled deployment: every session gets a fresh
    /// ECU ([`MultiIdsDeployment::fresh_ecu`]) configured from the
    /// replay's [`ReplayConfig::ecu`].
    pub fn new(deployment: &'d MultiIdsDeployment) -> Self {
        EcuBackend {
            deployment: Cow::Borrowed(deployment),
            session_ecu: None,
        }
    }

    /// A backend that owns its deployment — same session semantics as
    /// [`new`](EcuBackend::new), without borrowing from the caller.
    /// This is the form a [`crate::population::Population::serve`]
    /// factory returns: the deployment is compiled on the worker thread
    /// and lives inside the backend, so nothing non-`Sync` crosses
    /// threads.
    pub fn owning(deployment: MultiIdsDeployment) -> Self {
        EcuBackend {
            deployment: Cow::Owned(deployment),
            session_ecu: None,
        }
    }
}

impl ServeBackend for EcuBackend<'_> {
    type Session<'s>
        = BoardSession<'s>
    where
        Self: 's;

    fn label(&self) -> String {
        "ecu".to_owned()
    }

    fn models(&self) -> usize {
        self.deployment.ips.len()
    }

    fn open(&mut self, config: &ReplayConfig) -> Result<BoardSession<'_>, CoreError> {
        let names: Vec<String> = self
            .deployment
            .plan
            .models
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let ecu = self
            .session_ecu
            .insert(self.deployment.fresh_ecu(config.ecu)?);
        let mut topology = ServeTopology::single_shard(&names, config.ecu.queue_depth.max(1));
        topology.shard_names[0] = "ecu".to_owned();
        Ok(BoardSession::new(vec![ecu.stream()], None, topology))
    }
}

/// The cross-ECU substrate: one compiled [`FleetDeployment`] served
/// fleet-wide, every backbone frame reaching each shard through that
/// shard's gateway port on the event-driven [`FleetNet`] (processing
/// delay + far-segment serialisation — no free broadcast; buffers and
/// faults from [`ReplayConfig::transport`]).
///
/// Fresh ECUs are built per session, so one backend supports any number
/// of replays.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{FleetBackend, ReplayConfig, ServeHarness};
///
/// let bundles = vec![/* DetectorBundle::new(...) */];
/// let plan = FleetPlan::build(&bundles, &FleetConfig::new(vec![BoardSpec::zcu104("a")]))?;
/// let deployment = plan.deploy(&bundles, &CompileConfig::default())?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(FleetBackend::new(&deployment));
/// let report = harness.replay(&capture, &ReplayConfig::default())?;
/// assert_eq!(report.boards.len(), 1);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
pub struct FleetBackend<'d> {
    deployment: &'d FleetDeployment,
    ecus: Vec<IdsEcu>,
}

impl std::fmt::Debug for FleetBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBackend")
            .field("shards", &self.deployment.shards.len())
            .finish_non_exhaustive()
    }
}

impl<'d> FleetBackend<'d> {
    /// A backend over a compiled fleet.
    pub fn new(deployment: &'d FleetDeployment) -> Self {
        FleetBackend {
            deployment,
            ecus: Vec::new(),
        }
    }
}

impl ServeBackend for FleetBackend<'_> {
    type Session<'s>
        = BoardSession<'s>
    where
        Self: 's;

    fn label(&self) -> String {
        "fleet".to_owned()
    }

    fn models(&self) -> usize {
        self.deployment.models()
    }

    fn open(&mut self, config: &ReplayConfig) -> Result<BoardSession<'_>, CoreError> {
        let m = self.deployment.shards.len();
        if m == 0 {
            return Err(CoreError::EmptyFleet);
        }
        let n_models = self.deployment.models();
        let priorities: Vec<u32> = config
            .admission
            .priorities()
            .map(<[u32]>::to_vec)
            .unwrap_or_else(|| vec![0; n_models]);

        // Warm standbys exist only under Rebalance.
        let (extra_ips, standbys) = if matches!(config.admission, AdmissionPolicy::Rebalance { .. })
        {
            crate::fleet::place_standbys(self.deployment, &priorities)
        } else {
            (vec![Vec::new(); m], vec![None; n_models])
        };

        self.ecus = self
            .deployment
            .shards
            .iter()
            .zip(&extra_ips)
            .map(|(shard, extra)| {
                IdsEcu::with_ips(shard.ips.iter().chain(extra).cloned(), config.ecu)
            })
            .collect::<Result<_, _>>()?;
        let mut streams: Vec<EcuStream<'_>> = self.ecus.iter_mut().map(IdsEcu::stream).collect();
        for sb in standbys.iter().flatten() {
            streams[sb.shard].set_model_active(sb.local, false);
        }

        let mut model_names = vec![String::new(); n_models];
        for shard in &self.deployment.shards {
            for (local, &fleet_idx) in shard.members.iter().enumerate() {
                model_names[fleet_idx] = format!("{}-ids-{fleet_idx}", shard.kinds[local].slug());
            }
        }
        let topology = ServeTopology {
            models: n_models,
            homes: self.deployment.locations.clone(),
            standbys,
            model_names,
            shard_names: self
                .deployment
                .shards
                .iter()
                .map(|s| s.spec.name.clone())
                .collect(),
            shard_models: self.deployment.shards.iter().map(|s| s.ips.len()).collect(),
            queue_depths: vec![config.ecu.queue_depth.max(1); m],
        };
        let FleetTransport::EventDriven(net_config) = &config.transport;
        let net =
            FleetNet::single_backbone(m, config.wire_bitrate(), config.gateway_delay, net_config);
        Ok(BoardSession::new(streams, Some(net), topology))
    }
}

/// An open [`EcuBackend`] or [`FleetBackend`] session (see
/// [`ServeSession`]): one [`EcuStream`] per board. A fleet session also
/// owns the [`FleetNet`] that carries every backbone frame to each
/// board through its gateway port; a single-ECU session has none, so its
/// board receives each frame at its backbone arrival. A fleet session
/// counts each frame's wire length once, on its first board's push, and
/// hands that count to every board's gateway hop.
///
/// The session takes each board's verdicts as it drains them, so it
/// holds only the ordinals of the frames each board has admitted and
/// not yet answered.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{EcuBackend, ReplayConfig, ServeBackend, ServeSession};
///
/// let bundles = vec![/* DetectorBundle::new(...) */];
/// let deployment = deploy_multi_ids(&bundles, CompileConfig::default())?;
/// let mut backend = EcuBackend::new(&deployment);
/// let session = backend.open(&ReplayConfig::default())?;
/// assert_eq!(session.topology().shards(), 1);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
pub struct BoardSession<'a> {
    streams: Vec<EcuStream<'a>>,
    /// The fleet's gateway network (`None` on a single ECU).
    net: Option<FleetNet>,
    /// `(ordinal, frame_bit_count)` of the frame being pushed, counted
    /// on its first board and reused by the rest.
    wire_bits: Option<(usize, usize)>,
    /// Frames the network transport lost per board, before its ECU.
    net_dropped: Vec<u64>,
    /// Per board, the ordinals of the frames it admitted and has not
    /// answered yet, in order.
    in_flight: Vec<VecDeque<usize>>,
    /// Per board, the verdicts drained so far.
    serviced: Vec<usize>,
    /// The detections of one drain, reused across drains.
    detections: Vec<Detection>,
    topology: ServeTopology,
    probe: Option<Probe>,
    /// The stage samples of one drain, reused across drains.
    samples: Vec<StageSample>,
}

impl std::fmt::Debug for BoardSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoardSession")
            .field("boards", &self.streams.len())
            .field("networked", &self.net.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> BoardSession<'a> {
    fn new(streams: Vec<EcuStream<'a>>, net: Option<FleetNet>, topology: ServeTopology) -> Self {
        let boards = streams.len();
        BoardSession {
            streams,
            net,
            wire_bits: None,
            net_dropped: vec![0; boards],
            in_flight: vec![VecDeque::new(); boards],
            serviced: vec![0; boards],
            detections: Vec::new(),
            topology,
            probe: None,
            samples: Vec::new(),
        }
    }
}

/// Appends a shard verdict per detection of `detections` (emptied),
/// each answering the oldest of board `shard`'s frames in flight.
fn emit_verdicts(
    shard: usize,
    detections: &mut Vec<Detection>,
    in_flight: &mut VecDeque<usize>,
    serviced: &mut usize,
    out: &mut Vec<ShardVerdict>,
) {
    let answered = in_flight.drain(..detections.len());
    *serviced += answered.len();
    out.extend(
        detections
            .drain(..)
            .zip(answered)
            .map(|(d, ordinal)| ShardVerdict {
                shard,
                ordinal,
                completed_at: d.completed_at,
                flagged: d.flagged,
                model_flags: d.model_flags,
                active_mask: d.active_mask,
            }),
    );
}

impl ServeSession for BoardSession<'_> {
    fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    fn push_shard(
        &mut self,
        shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError> {
        let delivered = match &mut self.net {
            None => rec.timestamp,
            Some(net) => {
                let bits = match self.wire_bits {
                    Some((counted, bits)) if counted == ordinal => bits,
                    _ => {
                        let bits = frame_bit_count(&rec.frame);
                        self.wire_bits = Some((ordinal, bits));
                        bits
                    }
                };
                match net.deliver_counted(shard, rec.timestamp, bits) {
                    NetOutcome::Delivered(t) => {
                        if let Some(probe) = &self.probe {
                            probe.record(shard as u32, Stage::GatewayHop, rec.timestamp, t);
                        }
                        t
                    }
                    NetOutcome::Dropped(_) => {
                        // Lost before the board: the typed reason is in the
                        // net drop log and the gateway counters.
                        self.net_dropped[shard] += 1;
                        return Ok(ShardPush {
                            delivered: rec.timestamp,
                            admitted: false,
                        });
                    }
                }
            }
        };
        let stream = &mut self.streams[shard];
        let before = stream.dropped();
        stream.push(delivered, rec.frame, &PaperFeaturizer)?;
        let admitted = stream.dropped() == before;
        if admitted {
            self.in_flight[shard].push_back(ordinal);
        }
        Ok(ShardPush {
            delivered,
            admitted,
        })
    }

    fn drain_verdicts(&mut self, shard: usize, out: &mut Vec<ShardVerdict>) {
        let stream = &mut self.streams[shard];
        if let Some(probe) = &self.probe {
            stream.take_stage_samples(&mut self.samples);
            record_stage_samples(probe, shard as u32, &self.samples);
            self.samples.clear();
        }
        stream.take_detections(&mut self.detections);
        emit_verdicts(
            shard,
            &mut self.detections,
            &mut self.in_flight[shard],
            &mut self.serviced[shard],
            out,
        );
    }

    fn backlog(&self, shard: usize) -> usize {
        self.streams[shard].backlog()
    }

    fn active_models(&self, shard: usize) -> usize {
        self.streams[shard].active_models()
    }

    fn set_slot_active(&mut self, slot: Slot, active: bool) {
        self.streams[slot.shard].set_model_active(slot.local, active);
    }

    fn network(&mut self) -> (Vec<GatewayLoad>, Vec<FleetEvent>) {
        let Some(net) = &mut self.net else {
            return (Vec::new(), Vec::new());
        };
        net.finish();
        let events = net
            .outage_windows()
            .iter()
            .map(|&(board, start, until)| FleetEvent {
                time: start,
                board,
                model: 0,
                action: FleetAction::GatewayDark { until },
            })
            .collect();
        (net.gateway_loads(), events)
    }

    fn attach_probe(&mut self, probe: Probe) {
        for stream in &mut self.streams {
            stream.enable_profiling();
        }
        self.probe = Some(probe);
    }

    fn finish(self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
        let BoardSession {
            streams,
            net_dropped,
            mut in_flight,
            mut serviced,
            probe,
            ..
        } = self;
        let mut totals = Vec::with_capacity(streams.len());
        for (b, stream) in streams.into_iter().enumerate() {
            let mut report = stream.try_finish()?;
            if let Some(probe) = &probe {
                // Samples from the trailing DMA flush land in the report.
                record_stage_samples(probe, b as u32, &report.stage_samples);
                probe.add(Counter::KernelRuns, report.kernel.runs);
                probe.add(Counter::KernelMemoHits, report.kernel.hits);
            }
            emit_verdicts(
                b,
                &mut report.detections,
                &mut in_flight[b],
                &mut serviced[b],
                out,
            );
            debug_assert!(in_flight[b].is_empty());
            totals.push(ShardTotals {
                dropped: report.dropped + net_dropped[b],
                serviced: serviced[b],
                energy: Some(EnergyStats {
                    mean_power_w: report.mean_power_w,
                    energy_per_message_j: report.energy_per_message_j,
                }),
                busy_wall: None,
            });
        }
        Ok(totals)
    }
}

/// The paper's frame encoding as a board featuriser: the
/// [`IdBitsPayloadBits`] bitmask split straight into the accelerator's
/// AXI input words, with no float vector between frame and IP.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PaperFeaturizer;

impl FrameFeaturizer for PaperFeaturizer {
    fn featurize(&self, frame: &CanFrame) -> Vec<f32> {
        IdBitsPayloadBits.encode(frame)
    }

    fn featurize_packed(&self, frame: &CanFrame, words: &mut Vec<u32>) -> usize {
        let bits = IdBitsPayloadBits.encode_bits(frame);
        words.extend((0..FEATURE_BITS_DIM.div_ceil(32)).map(|k| (bits >> (32 * k)) as u32));
        FEATURE_BITS_DIM
    }
}

/// Forwards profiled SoC stage intervals to a telemetry probe, mapping
/// the soc crate's static stage names onto the interned [`Stage`] table.
fn record_stage_samples(probe: &Probe, shard: u32, samples: &[StageSample]) {
    for s in samples {
        if let Some(stage) = Stage::from_name(s.stage) {
            probe.record(shard, stage, s.start, s.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{deploy_multi_ids, DetectorBundle};
    use crate::serve::tests::{quick_capture, untrained_model};
    use crate::serve::{ServeHarness, Verdict};
    use canids_dataflow::ip::CompileConfig;
    use canids_dataset::attacks::AttackKind;
    use canids_soc::ecu::{EcuConfig, SchedPolicy};

    #[test]
    fn ecu_backend_overload_drops_and_skips_verdicts() {
        // Simulated SoC path: saturated pacing over a deep-sequential
        // 2-model ECU with a tiny FIFO must drop deterministically, and
        // dropped frames must produce no verdict.
        let bundles = vec![
            DetectorBundle::new(AttackKind::Dos, untrained_model(1)),
            DetectorBundle::new(AttackKind::Fuzzy, untrained_model(2)),
        ];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let capture = quick_capture(true, 9);
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut harness = ServeHarness::new(deployment.serve_backend());
        let config = ReplayConfig {
            ecu: EcuConfig {
                queue_depth: 4,
                policy: SchedPolicy::Sequential,
            },
            ..ReplayConfig::default()
        };
        let report = harness
            .replay_with(&capture, &config, &mut verdicts)
            .unwrap();
        assert_eq!(report.backend, "ecu");
        assert!(report.dropped > 0, "saturated 2-model sequential must drop");
        assert_eq!(report.serviced, verdicts.len());
        assert_eq!(report.serviced + report.dropped as usize, report.offered);
        assert_eq!(report.verdicts.len(), report.serviced);
        // Deterministic rerun: the simulated path is bit-stable.
        let mut harness2 = ServeHarness::new(deployment.serve_backend());
        let report2 = harness2.replay(&capture, &config).unwrap();
        assert_eq!(report.dropped, report2.dropped);
        assert_eq!(report.latency, report2.latency);
        assert_eq!(report.verdicts, report2.verdicts);
    }

    #[test]
    fn paper_featurizer_packs_the_words_of_its_float_features() {
        use canids_can::frame::CanId;

        for (id, payload) in [
            (CanId::standard(0x7FF).unwrap(), &[0xFF; 8][..]),
            (CanId::standard(0x316).unwrap(), &[5, 32, 14]),
            (CanId::extended(0x1ABC_DEF0).unwrap(), &[0x80, 0x01]),
        ] {
            let frame = CanFrame::new(id, payload).unwrap();
            let mut words = Vec::new();
            assert_eq!(PaperFeaturizer.featurize_packed(&frame, &mut words), 75);
            let floats = PaperFeaturizer.featurize(&frame);
            assert_eq!(words, canids_soc::accel::pack_features(&floats));
        }
    }
}
