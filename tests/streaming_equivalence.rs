//! Streaming-vs-batch equivalence — the correctness anchor of the
//! streaming serving mode — plus line-rate harness accounting.

use canids_core::prelude::*;
use canids_dataset::generator::TrafficConfig;

fn trained() -> TrainedDetector {
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let capture = pipeline.generate_capture();
    pipeline.train(&capture).unwrap()
}

#[test]
fn streaming_and_batch_agree_on_every_frame() {
    let detector = trained();
    let enc = IdBitsPayloadBits;

    // Batch path: whole capture materialised, then classified.
    let (xs, ys) = detector.test_set.to_xy(&enc);
    let mut batch_preds = Vec::with_capacity(xs.len());
    let mut batch_cm = ConfusionMatrix::new();
    for (x, &y) in xs.iter().zip(&ys) {
        let pred = detector.int_mlp.infer_bits(x).class;
        batch_preds.push(pred);
        batch_cm.record(pred != 0, y != 0);
    }
    assert_eq!(
        batch_cm, detector.test_cm,
        "batch path reproduces training-time metrics"
    );

    // Streaming path: frame at a time, reused buffers, online matrix.
    let mut eval = detector.streaming_evaluator();
    let stream_preds: Vec<usize> = detector
        .test_set
        .iter()
        .map(|rec| eval.push(rec).class)
        .collect();

    assert_eq!(stream_preds, batch_preds, "identical predictions");
    assert_eq!(*eval.confusion(), batch_cm, "identical confusion matrices");
}

#[test]
fn streaming_order_does_not_leak_state() {
    // Pushing the same record twice yields the same verdict: the
    // evaluator's reused buffers must be fully overwritten per frame.
    let detector = trained();
    let mut eval = detector.streaming_evaluator();
    let records: Vec<_> = detector.test_set.iter().take(20).collect();
    let first: Vec<usize> = records.iter().map(|r| eval.push(r).class).collect();
    let second: Vec<usize> = records.iter().map(|r| eval.push(r).class).collect();
    assert_eq!(first, second);
}

#[test]
fn line_rate_replay_is_conservative_and_complete() {
    let detector = trained();
    let dos = AttackProfile::dos().with_schedule(BurstSchedule::Continuous);
    let mut harness = ServeHarness::new(SoftwareBackend::single(detector.int_mlp.clone()));
    // The same DoS traffic paced at classic 1 Mb/s, then at a CAN-FD-class
    // 5 Mb/s data rate.
    let reports: Vec<ServeReport> = [
        (0x11E, Bitrate::HIGH_SPEED_1M),
        (0x5FD, Bitrate::new(5_000_000)),
    ]
    .into_iter()
    .map(|(seed, bitrate)| {
        let capture = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(150),
            attack: Some(dos),
            seed,
            ..TrafficConfig::default()
        })
        .build();
        harness
            .replay(&capture, &ReplayConfig::default().with_bitrate(bitrate))
            .unwrap()
    })
    .collect();
    assert_eq!(reports.len(), 2);
    for r in &reports {
        // Conservation: every offered frame is serviced or dropped.
        assert_eq!(r.serviced + r.dropped as usize, r.offered);
        assert_eq!(r.cm.total() as usize, r.serviced);
        assert!(r.latency.p50 <= r.latency.p99);
        assert!(r.latency.p99 <= r.latency.max);
        assert!(
            r.offered_fps > 1_000.0,
            "{} offers {}",
            r.scenario,
            r.offered_fps
        );
    }
    // FD-class pacing strictly raises the offered load.
    assert!(reports[1].offered_fps > reports[0].offered_fps);
    // The paper's line-rate claim, checked for real in release builds
    // (debug builds measure an unoptimised binary).
    if !cfg!(debug_assertions) {
        let classic = &reports[0];
        assert!(
            classic.keeps_up() && classic.sustained_fps.unwrap_or(0.0) >= classic.offered_fps,
            "classic CAN line rate not sustained: {:.0}/{:.0} fps, {} drops",
            classic.sustained_fps.unwrap_or(0.0),
            classic.offered_fps,
            classic.dropped
        );
    }
}

#[test]
fn ecu_streaming_session_equals_batch_processing() {
    // The SoC-level second serving mode: pushing frames one at a time
    // through an EcuStream session matches process_capture exactly.
    let detector = trained();
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let ip = pipeline.compile(&detector.int_mlp).unwrap();
    let frames: Vec<_> = detector
        .test_set
        .iter()
        .take(200)
        .map(|r| (r.timestamp, r.frame))
        .collect();
    let enc = IdBitsPayloadBits;
    let featurize = move |f: &canids_can::frame::CanFrame| enc.encode(f);

    let mut board = Zcu104Board::new(BoardConfig::default());
    let idx = board.attach_accelerator(ip.clone()).unwrap();
    let mut batch_ecu = IdsEcu::new(board, vec![idx], EcuConfig::default());
    let batch = batch_ecu.process_capture(&frames, &featurize).unwrap();

    let mut board2 = Zcu104Board::new(BoardConfig::default());
    let idx2 = board2.attach_accelerator(ip).unwrap();
    let mut stream_ecu = IdsEcu::new(board2, vec![idx2], EcuConfig::default());
    let mut session = stream_ecu.stream();
    for &(t, f) in &frames {
        session.push(t, f, &featurize).unwrap();
    }
    let streamed = session.finish();

    assert_eq!(batch, streamed);
    assert!(!streamed.detections.is_empty());
}
