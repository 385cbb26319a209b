//! The pure-software backend: the paper's integer model classifying
//! on the host, served at a modelled cost on the sim clock.

use std::time::Duration;

use canids_can::time::SimTime;
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_dataset::record::LabeledFrame;
use canids_qnn::export::IntegerMlp;
use canids_qnn::QnnError;
use canids_soc::ecu::ServiceQueue;

use super::{
    ReplayConfig, ServeBackend, ServeSession, ServeTopology, ShardPush, ShardTotals, ShardVerdict,
};
use crate::error::CoreError;
use crate::fleet::Slot;
use crate::stream::{StreamVerdict, StreamingEvaluator};
use crate::telemetry::{Counter, Probe, Stage};

/// Modelled software service time per frame per active model.
///
/// The software backend books this cost on the sim clock, as the ECU
/// books its cycle model: a dispatch of `n` frames with `k` active
/// models serves each frame for `k × SOFTWARE_FRAME_COST` (at least
/// 1 ns), from the dispatch's service start. The value is a fixed model
/// of the software path, not a host measurement: it was calibrated once,
/// when the software backend moved onto the sim clock, to the
/// benchmark's traced `stream.push_ns_per_frame` on `line_1m` (about
/// 0.9 µs per frame on a 2-core x86-64 host then), and it stays fixed as
/// the host code gets faster, because every software report's latency,
/// drops and capacity rest on it. There is no per-dispatch term.
///
/// ```
/// use canids_core::serve::SOFTWARE_FRAME_COST;
///
/// assert_eq!(SOFTWARE_FRAME_COST.as_nanos(), 900);
/// ```
pub const SOFTWARE_FRAME_COST: SimTime = SimTime::from_nanos(900);

/// The pure-software substrate: N [`StreamingEvaluator`]s behind one
/// [`ServiceQueue`]. Classification runs on the host; service time is
/// modelled on the sim clock at [`SOFTWARE_FRAME_COST`] per frame per
/// active model, so drops, latency and `sustained_fps` are identical on
/// every run and every host, as on the simulated-SoC backends. Host
/// speed is the benchmark's to measure, not the report's.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{ReplayConfig, ServeHarness, SoftwareBackend};
///
/// let report = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(SoftwareBackend::single(report.detector.int_mlp.clone()));
/// let serve = harness.replay(&capture, &ReplayConfig::default())?;
/// assert!(serve.sustained_fps.is_some(), "software reports its modelled capacity");
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SoftwareBackend {
    models: Vec<IntegerMlp>,
    names: Vec<String>,
}

impl SoftwareBackend {
    /// A single-model software substrate.
    pub fn single(model: IntegerMlp) -> Self {
        SoftwareBackend::new(vec![model])
    }

    /// An N-model software substrate (shared truth, per-model flags).
    pub fn new(models: Vec<IntegerMlp>) -> Self {
        let names = (0..models.len()).map(|i| format!("model-{i}")).collect();
        SoftwareBackend { models, names }
    }
}

impl ServeBackend for SoftwareBackend {
    type Session<'s> = SoftwareSession;

    fn label(&self) -> String {
        "software".to_owned()
    }

    fn models(&self) -> usize {
        self.models.len()
    }

    /// # Errors
    ///
    /// [`QnnError::DimensionMismatch`] (as [`CoreError::Qnn`]) when a
    /// model's input width differs from the frame encoding's.
    fn open(&mut self, config: &ReplayConfig) -> Result<SoftwareSession, CoreError> {
        let dim = IdBitsPayloadBits.dim();
        if let Some(m) = self.models.iter().find(|m| m.input_dim() != dim) {
            return Err(CoreError::Qnn(QnnError::DimensionMismatch {
                context: "software backend: model input vs frame encoding",
                expected: dim,
                actual: m.input_dim(),
            }));
        }
        let depth = config.ecu.queue_depth.max(1);
        Ok(SoftwareSession {
            evals: self
                .models
                .iter()
                .map(|m| StreamingEvaluator::new(m.clone()))
                .collect(),
            active: vec![true; self.models.len()],
            queue: ServiceQueue::new(depth),
            // Unflushed window frames occupy FIFO slots, so a window
            // wider than the FIFO would never fill.
            batch: config.batch.clamp(1, depth),
            window_ords: Vec::new(),
            window_recs: Vec::new(),
            verdict_buf: Vec::new(),
            flags: Vec::new(),
            dropped: 0,
            serviced: 0,
            busy: SimTime::ZERO,
            pending: Vec::new(),
            topology: ServeTopology::single_shard(&self.names, depth),
            probe: None,
        })
    }
}

/// An open [`SoftwareBackend`] session (see [`ServeSession`]).
///
/// # Example
///
/// ```no_run
/// use canids_core::serve::{ReplayConfig, ServeBackend, ServeSession, SoftwareBackend};
/// use canids_qnn::prelude::*;
///
/// let model = QuantMlp::new(MlpConfig::paper_4bit())?.export()?;
/// let mut backend = SoftwareBackend::single(model);
/// let session = backend.open(&ReplayConfig::default())?;
/// assert_eq!(session.active_models(0), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SoftwareSession {
    evals: Vec<StreamingEvaluator>,
    active: Vec<bool>,
    queue: ServiceQueue,
    /// Frames per inference dispatch (1 = frame-at-a-time), at most the
    /// FIFO depth.
    batch: usize,
    /// Ordinals/records of admitted frames awaiting their dispatch.
    window_ords: Vec<usize>,
    window_recs: Vec<LabeledFrame>,
    /// Reusable per-dispatch verdict buffer.
    verdict_buf: Vec<StreamVerdict>,
    /// Reusable per-dispatch (flagged, model flags) buffer.
    flags: Vec<(bool, u64)>,
    dropped: u64,
    serviced: usize,
    /// Modelled service time booked so far.
    busy: SimTime,
    pending: Vec<ShardVerdict>,
    topology: ServeTopology,
    /// Telemetry probe; when attached, each dispatch records one
    /// [`Stage::Infer`] span, and `finish` adds the evaluators' kernel
    /// runs and memo hits to [`Counter::KernelRuns`] and
    /// [`Counter::KernelMemoHits`].
    probe: Option<Probe>,
}

impl ServeSession for SoftwareSession {
    fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    fn push_shard(
        &mut self,
        _shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError> {
        let arrival = rec.timestamp;
        let admitted = self
            .queue
            .admit_with_pending(arrival, self.window_recs.len());
        if admitted {
            // Defer into the window; the whole window is classified in
            // one dispatch when it fills (or at finish), with service
            // starting at the flush-trigger arrival — the same
            // deferred-verdict semantics as `SchedPolicy::DmaBatch`. At
            // batch 1 every frame is its own window.
            self.window_ords.push(ordinal);
            self.window_recs.push(*rec);
            if self.window_recs.len() >= self.batch {
                self.flush_window(arrival);
            }
        } else {
            self.dropped += 1;
        }
        Ok(ShardPush {
            delivered: arrival,
            admitted,
        })
    }

    fn drain_verdicts(&mut self, _shard: usize, out: &mut Vec<ShardVerdict>) {
        out.append(&mut self.pending);
    }

    fn backlog(&self, _shard: usize) -> usize {
        self.queue.backlog() + self.window_recs.len()
    }

    fn active_models(&self, _shard: usize) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    fn set_slot_active(&mut self, slot: Slot, active: bool) {
        // A buffered window was admitted under the current activation;
        // classify it before the mask changes.
        if let Some(last) = self.window_recs.last() {
            let ready = last.timestamp;
            self.flush_window(ready);
        }
        self.active[slot.local] = active;
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.probe = Some(probe);
    }

    fn finish(mut self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
        if let Some(last) = self.window_recs.last() {
            let ready = last.timestamp;
            self.flush_window(ready);
        }
        out.append(&mut self.pending);
        if let Some(probe) = &self.probe {
            for eval in &self.evals {
                let counts = eval.memo_counts();
                probe.add(Counter::KernelRuns, counts.runs);
                probe.add(Counter::KernelMemoHits, counts.hits);
            }
        }
        Ok(vec![ShardTotals {
            dropped: self.dropped,
            serviced: self.serviced,
            energy: None,
            busy_wall: Some(Duration::from_nanos(self.busy.as_nanos())),
        }])
    }
}

impl SoftwareSession {
    /// Classifies every buffered window frame in one dispatch and books
    /// their (deferred) verdicts on the sim clock, service beginning at
    /// `ready` — the flush trigger's arrival, mirroring the DMA-batch
    /// transfer instant — or when the server frees up. Each frame is
    /// served for [`SOFTWARE_FRAME_COST`] per active model (at least
    /// 1 ns, so completions advance), and the dispatch records one
    /// [`Stage::Infer`] span from its service start to its last
    /// completion.
    fn flush_window(&mut self, ready: SimTime) {
        let n = self.window_recs.len();
        if n == 0 {
            return;
        }
        self.flags.clear();
        self.flags.resize(n, (false, 0));
        for (k, (eval, _)) in self
            .evals
            .iter_mut()
            .zip(&self.active)
            .enumerate()
            .filter(|&(_, (_, &a))| a)
        {
            self.verdict_buf.clear();
            eval.push_batch(&self.window_recs, &mut self.verdict_buf);
            for (slot, v) in self.flags.iter_mut().zip(&self.verdict_buf) {
                if v.flagged {
                    slot.0 = true;
                    if k < 64 {
                        slot.1 |= 1 << k;
                    }
                }
            }
        }
        let active = self.active.iter().filter(|&&a| a).count() as u64;
        let per = SimTime::from_nanos(SOFTWARE_FRAME_COST.mul_u64(active).as_nanos().max(1));
        let active_mask = canids_soc::ecu::active_mask_of(&self.active);
        let dispatch_start = self.queue.start_time(ready);
        let mut completed_at = dispatch_start;
        self.window_recs.clear();
        for (ordinal, &(flagged, model_flags)) in self.window_ords.drain(..).zip(&self.flags) {
            let start = self.queue.start_time(ready);
            completed_at = self.queue.serve(start, per);
            self.serviced += 1;
            self.pending.push(ShardVerdict {
                shard: 0,
                ordinal,
                completed_at,
                flagged,
                model_flags,
                active_mask,
            });
        }
        self.busy += per.mul_u64(n as u64);
        if let Some(probe) = &self.probe {
            probe.record(0, Stage::Infer, dispatch_start, completed_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::tests::{quick_capture, untrained_model};
    use crate::serve::{ServeHarness, Verdict};
    use canids_qnn::metrics::ConfusionMatrix;
    use canids_soc::ecu::EcuConfig;

    #[test]
    fn software_backend_matches_streaming_evaluator() {
        let model = untrained_model(3);
        let capture = quick_capture(true, 3);
        let mut reference = StreamingEvaluator::new(model.clone());
        for rec in capture.iter() {
            reference.push(rec);
        }
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut harness = ServeHarness::new(SoftwareBackend::single(model));
        let report = harness
            .replay_with(&capture, &ReplayConfig::default(), &mut verdicts)
            .unwrap();
        assert_eq!(report.backend, "software");
        assert_eq!(report.offered, capture.len());
        // The modelled service time is far below the wire inter-arrival
        // time, so nothing drops: the fused CM is the evaluator's CM and
        // every verdict matches the record.
        assert_eq!(report.dropped, 0);
        assert_eq!(report.cm, *reference.confusion());
        assert_eq!(verdicts.len(), capture.len());
        for (v, rec) in verdicts.iter().zip(capture.iter()) {
            assert_eq!(v.truth_attack, rec.label.is_attack());
            assert_eq!(v.flagged, v.model_flags != 0);
            assert_eq!(v.consulted, 1);
            assert_eq!(v.boards, 1);
        }
        assert!(verdicts.windows(2).all(|w| w[0].ordinal < w[1].ordinal));
        assert!(report.sustained_fps.is_some());
        assert!(report.energy.is_none(), "no rail model in software");
        assert_eq!(report.per_model.len(), 1);
        assert_eq!(
            report.per_model[0].flagged,
            verdicts.iter().filter(|v| v.flagged).count()
        );
    }

    #[test]
    fn batched_software_dispatch_never_changes_classification() {
        // Batching is a dispatch optimisation: every window size
        // classifies every frame identically to the frame-at-a-time path
        // (same per-model prediction sequence, so same CM and flag
        // counts), and the verdict stream still covers each ordinal
        // exactly once. A window wider than the default 64-deep FIFO is
        // clamped to it, so it still fills and nothing drops.
        let models: Vec<IntegerMlp> = (0..2).map(|i| untrained_model(60 + i)).collect();
        let capture = quick_capture(true, 11);
        let deep = EcuConfig {
            queue_depth: capture.len() + 1,
            ..EcuConfig::default()
        };
        let cases = [
            (1usize, deep),
            (8, deep),
            (32, deep),
            (1000, deep),
            (128, ReplayConfig::default().ecu),
        ];
        let mut baseline: Option<(ConfusionMatrix, usize)> = None;
        for (batch, ecu) in cases {
            let mut verdicts: Vec<Verdict> = Vec::new();
            let config = ReplayConfig {
                ecu,
                ..ReplayConfig::default().with_batch(batch)
            };
            let mut harness = ServeHarness::new(SoftwareBackend::new(models.clone()));
            let report = harness
                .replay_with(&capture, &config, &mut verdicts)
                .unwrap();
            assert_eq!(report.offered, capture.len(), "batch {batch}");
            assert_eq!(report.dropped, 0, "batch {batch} admits everything");
            assert_eq!(report.serviced, capture.len(), "batch {batch}");
            assert_eq!(verdicts.len(), capture.len(), "batch {batch}");
            let mut ords: Vec<usize> = verdicts.iter().map(|v| v.ordinal).collect();
            ords.sort_unstable();
            assert!(
                ords.iter().enumerate().all(|(i, &o)| i == o),
                "batch {batch}"
            );
            match &baseline {
                None => baseline = Some((report.cm, report.flagged)),
                Some((cm, flagged)) => {
                    assert_eq!(&report.cm, cm, "batch {batch}");
                    assert_eq!(report.flagged, *flagged, "batch {batch}");
                }
            }
        }
    }

    #[test]
    fn multi_model_software_backend_reports_per_model_sections() {
        let models: Vec<IntegerMlp> = (0..3).map(|i| untrained_model(40 + i)).collect();
        let capture = quick_capture(true, 8);
        let mut singles: Vec<StreamingEvaluator> = models
            .iter()
            .map(|m| StreamingEvaluator::new(m.clone()))
            .collect();
        for rec in capture.iter() {
            for s in &mut singles {
                s.push(rec);
            }
        }
        let mut harness = ServeHarness::new(SoftwareBackend::new(models));
        let report = harness.replay(&capture, &ReplayConfig::default()).unwrap();
        assert_eq!(report.dropped, 0);
        for (m, single) in report.per_model.iter().zip(&singles) {
            assert_eq!(m.cm, *single.confusion(), "model {}", m.model);
            assert_eq!(m.consulted, capture.len());
        }
    }
}
