//! The FINN cosim invariant, property-tested across the whole stack:
//!
//! float fake-quant network → integer export → dataflow graph →
//! cycle-accurate simulator → memory-mapped peripheral, and the packed
//! serving kernel beside them
//!
//! must all produce identical classes (and scores where exposed) for
//! every input. The packed input format is pinned too: a frame encoded
//! straight into bits, and the AXI words the IP classifies, equal the
//! float features packed after the fact.

use canids_can::frame::{CanFrame, CanId, Dlc};
use canids_can::time::SimTime;
use canids_core::deploy::{deploy_multi_ids, DeploymentPlan, DetectorBundle, PlanConfig};
use canids_core::fleet::{BoardSpec, FleetConfig, FleetPlan};
use canids_core::stream::StreamingEvaluator;
use canids_core::CoreError;
use canids_dataflow::folding::{auto_fold, FoldingGoal};
use canids_dataflow::graph::DataflowGraph;
use canids_dataflow::ip::{AcceleratorIp, CompileConfig, RegisterMap};
use canids_dataflow::simulator::{AcceleratorSim, SimConfig};
use canids_dataflow::verify::verify_bit_exact;
use canids_dataflow::DataflowError;
use canids_dataset::attacks::AttackKind;
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_dataset::generator::{DatasetBuilder, TrafficConfig};
use canids_qnn::kernel::{pack_levels, ClassMemo, PackedMlp, PackedScratch};
use canids_qnn::prelude::*;
use canids_soc::accel::{pack_features, AccelPeripheral, CTRL_START};
use canids_soc::axi::MmioDevice;
use proptest::prelude::*;

/// Trains a small model so thresholds are calibrated and non-trivial.
fn trained_model(bits: u8, hidden: Vec<usize>, seed: u64) -> IntegerMlp {
    let dim = 16usize;
    let mut mlp = QuantMlp::new(MlpConfig {
        input_dim: dim,
        hidden,
        weight_bits: BitWidth::new(bits).unwrap(),
        act_bits: BitWidth::new(bits).unwrap(),
        seed,
        ..MlpConfig::default()
    })
    .unwrap();
    // Deterministic toy training set keyed on the seed.
    let mut state = seed | 1;
    let mut bit = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
    };
    let xs: Vec<Vec<f32>> = (0..300)
        .map(|_| (0..dim).map(|_| f32::from(bit() as u8)).collect())
        .collect();
    let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] + x[3] > 1.0)).collect();
    Trainer::new(TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    })
    .fit(&mut mlp, &xs, &ys)
    .unwrap();
    mlp.export().unwrap()
}

/// Deterministic binary input vectors.
fn random_inputs(dim: usize, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed | 1;
    let mut bit = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
    };
    (0..n)
        .map(|_| (0..dim).map(|_| u32::from(bit())).collect())
        .collect()
}

/// The packed kernel and the compiled IP's functional model both match
/// `model.infer` in class and scores on every input.
fn assert_kernel_and_ip_exact(model: &IntegerMlp, ip: &AcceleratorIp, inputs: &[Vec<u32>]) {
    let kernel = PackedMlp::new(model).unwrap();
    for x in inputs {
        let want = model.infer(x);
        assert_eq!(
            kernel.infer(pack_levels(x).unwrap()),
            want,
            "kernel, x={x:?}"
        );
        assert_eq!(ip.infer(x), (want.class, want.scores), "IP, x={x:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn integer_graph_sim_peripheral_agree(
        bits in prop_oneof![Just(2u8), Just(3), Just(4), Just(8)],
        seed in 0u64..1_000,
        inputs in proptest::collection::vec(
            proptest::collection::vec(0u32..=1, 16), 1..8),
    ) {
        let model = trained_model(bits, vec![10, 6], seed);

        // Layer 1: graph lowering must be exact.
        let graph = DataflowGraph::from_integer_mlp(&model).unwrap();
        verify_bit_exact(&graph, &model, 32, seed).unwrap();

        // Layer 2: the cycle-accurate simulator must be exact.
        let folding = auto_fold(&graph, FoldingGoal::MinResource).unwrap();
        let sim = AcceleratorSim::new(graph.clone(), &folding, SimConfig::default()).unwrap();
        let report = sim.run(&inputs);
        for (i, x) in inputs.iter().enumerate() {
            let want = model.infer(x);
            prop_assert_eq!(report.predictions[i], want.class);
            prop_assert_eq!(&report.scores[i], &want.scores);
        }

        // Layer 3: the packed serving kernel, alone and behind the
        // compiled IP, must be exact.
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        assert_kernel_and_ip_exact(&model, &ip, &inputs);

        // Layer 4: the memory-mapped peripheral must be exact.
        let mut dev = AccelPeripheral::new(ip);
        let mut now = SimTime::ZERO;
        for x in &inputs {
            let bits_f: Vec<f32> = x.iter().map(|&b| b as f32).collect();
            for (w, word) in pack_features(&bits_f).into_iter().enumerate() {
                dev.write(RegisterMap::INPUT_BASE + 4 * w as u32, word, now).unwrap();
            }
            dev.write(RegisterMap::CTRL, CTRL_START, now).unwrap();
            now += SimTime::from_micros(100);
            let class = dev.read(RegisterMap::OUT_CLASS, now).unwrap() as usize;
            prop_assert_eq!(class, model.infer(x).class);
            now += SimTime::from_micros(10);
        }
    }
}

#[test]
fn paper_topology_cosim_holds() {
    // The exact deployment topology (75-64-32-2 at 4 bits).
    let mut mlp = QuantMlp::new(MlpConfig::paper_4bit()).unwrap();
    let mut state = 0xBEEFu64;
    let mut bit = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
    };
    let xs: Vec<Vec<f32>> = (0..400)
        .map(|_| (0..75).map(|_| f32::from(bit() as u8)).collect())
        .collect();
    let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
    Trainer::new(TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    })
    .fit(&mut mlp, &xs, &ys)
    .unwrap();
    let model = mlp.export().unwrap();
    let graph = DataflowGraph::from_integer_mlp(&model).unwrap();
    verify_bit_exact(&graph, &model, 512, 0xC0).unwrap();
    let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
    let mut inputs = random_inputs(75, 512, 0xC0DE);
    inputs.extend([vec![0; 75], vec![1; 75]]);
    assert_kernel_and_ip_exact(&model, &ip, &inputs);
}

/// The paper topology with 16-bit weight codes: binary, 75 wide, and
/// outside the packed kernel's `i8` code storage.
fn sixteen_bit_model() -> IntegerMlp {
    QuantMlp::new(MlpConfig {
        weight_bits: BitWidth::new(16).unwrap(),
        ..MlpConfig::paper_4bit()
    })
    .unwrap()
    .export()
    .unwrap()
}

/// Whether `e` is the kernel's refusal of a 16-bit weight code.
fn refuses_the_weight_code(e: &QnnError) -> bool {
    matches!(
        e,
        QnnError::KernelRange {
            quantity: "weight code",
            ..
        }
    )
}

#[test]
fn sixteen_bit_codes_are_refused_by_the_ip_and_kept_in_software() {
    // 16-bit weight codes do not fit the kernel's i8 storage: the kernel
    // refuses the model with a typed error; the IP compile, the
    // multi-detector deployment and both planners return that refusal;
    // and a bare streaming evaluator keeps the i64 reference,
    // bit-identical to `infer`.
    let model = sixteen_bit_model();
    assert!(PackedMlp::new(&model).is_err_and(|e| refuses_the_weight_code(&e)));
    assert!(matches!(
        AcceleratorIp::compile(&model, CompileConfig::default()),
        Err(DataflowError::KernelRefused(e)) if refuses_the_weight_code(&e)
    ));
    let bundles = [DetectorBundle::new(AttackKind::Dos, model.clone())];
    assert!(matches!(
        deploy_multi_ids(&bundles, CompileConfig::default()),
        Err(CoreError::Dataflow(DataflowError::KernelRefused(e))) if refuses_the_weight_code(&e)
    ));
    assert!(matches!(
        DeploymentPlan::build(&bundles, &PlanConfig::default()),
        Err(CoreError::Dataflow(DataflowError::KernelRefused(e))) if refuses_the_weight_code(&e)
    ));
    assert!(matches!(
        FleetPlan::build(&bundles, &FleetConfig::new(vec![BoardSpec::zcu104("ecu")])),
        Err(CoreError::Dataflow(DataflowError::KernelRefused(e))) if refuses_the_weight_code(&e)
    ));

    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(100),
        seed: 0x16B,
        ..TrafficConfig::default()
    })
    .build();
    let mut eval = StreamingEvaluator::new(model.clone());
    for rec in capture.iter() {
        let want = model.infer_bits(&IdBitsPayloadBits.encode(&rec.frame));
        assert_eq!(eval.push(rec).class, want.class);
    }
    assert_eq!(eval.frames(), capture.len() as u64);
}

/// A standard or extended identifier.
fn arb_id() -> impl Strategy<Value = CanId> {
    prop_oneof![
        (0u16..=0x7FF).prop_map(|id| CanId::standard(id).expect("masked")),
        (0u32..=0x1FFF_FFFF).prop_map(|id| CanId::extended(id).expect("masked")),
    ]
}

/// Data frames of every payload length and remote frames of every DLC,
/// on standard and extended identifiers.
fn arb_frame() -> impl Strategy<Value = CanFrame> {
    prop_oneof![
        (arb_id(), proptest::collection::vec(any::<u8>(), 0..=8))
            .prop_map(|(id, payload)| CanFrame::new(id, &payload).expect("len <= 8")),
        (arb_id(), 0u8..=8)
            .prop_map(|(id, dlc)| CanFrame::remote(id, Dlc::new(dlc).expect("<= 8"))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn paper_encoding_writes_the_bitmask_of_its_float_features(frame in arb_frame()) {
        let enc = IdBitsPayloadBits;
        prop_assert_eq!(
            enc.encode_bits(&frame),
            canids_qnn::kernel::pack_features(&enc.encode(&frame))
        );
    }
}

#[test]
fn paper_encoding_bitmask_covers_every_dlc() {
    let enc = IdBitsPayloadBits;
    let ids = [
        CanId::standard(0x000).unwrap(),
        CanId::standard(0x5A5).unwrap(),
        CanId::standard(0x7FF).unwrap(),
        CanId::extended(0x1FFF_FFFF).unwrap(),
        CanId::extended(0x0AB5_4321).unwrap(),
    ];
    let payload = [0x80, 0x01, 0xFF, 0x00, 0x5A, 0xA5, 0x7E, 0xC3];
    for id in ids {
        for dlc in 0..=8u8 {
            let data = CanFrame::new(id, &payload[..usize::from(dlc)]).unwrap();
            let remote = CanFrame::remote(id, Dlc::new(dlc).unwrap());
            for frame in [data, remote] {
                assert_eq!(
                    enc.encode_bits(&frame),
                    canids_qnn::kernel::pack_features(&enc.encode(&frame)),
                    "{frame:?}"
                );
            }
        }
    }
}

#[test]
fn ip_word_entry_point_matches_the_reference_and_refuses_wide_codes() {
    // The paper model's IP classifies the AXI words the driver writes
    // exactly as the reference does; 16-bit codes compile to no IP.
    let paper = QuantMlp::new(MlpConfig::paper_4bit())
        .unwrap()
        .export()
        .unwrap();
    let ip = AcceleratorIp::compile(&paper, CompileConfig::default()).unwrap();
    let mut scratch = PackedScratch::default();
    let mut memo = ClassMemo::default();
    let mut inputs = vec![vec![0; 75], vec![1; 75]];
    inputs.extend(random_inputs(75, 128, 0x3D));
    for x in inputs {
        let bits: Vec<f32> = x.iter().map(|&b| b as f32).collect();
        let words = pack_features(&bits);
        let want = paper.infer(&x);
        let (class, scores) = ip.infer_words(&words, &mut scratch, &mut memo);
        assert_eq!(class, want.class);
        assert_eq!(scores, want.scores.as_slice());
    }
    assert!(matches!(
        AcceleratorIp::compile(&sixteen_bit_model(), CompileConfig::default()),
        Err(DataflowError::KernelRefused(e)) if refuses_the_weight_code(&e)
    ));
}

#[test]
fn ip_infer_writes_levels_as_the_driver_writes_words() {
    // `infer` on unpacked levels answers what the word entry point
    // answers for the words the driver writes from the same levels as
    // features: a short input reads 0 past its end, a long one is cut at
    // the input width, and any nonzero level sets its bit.
    let model = QuantMlp::new(MlpConfig::paper_4bit())
        .unwrap()
        .export()
        .unwrap();
    let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
    let (mut scratch, mut memo) = (PackedScratch::default(), ClassMemo::default());
    let ones = |n: usize| -> Vec<u32> { (0..n).map(|i| u32::from(i % 3 != 1)).collect() };
    let level_two: Vec<u32> = (0..75).map(|i| [0, 2, 1][i % 3]).collect();
    for x in [ones(74), ones(76), level_two] {
        let features: Vec<f32> = x.iter().map(|&level| level as f32).collect();
        let words = pack_features(&features);
        let (class, scores) = ip.infer_words(&words, &mut scratch, &mut memo);
        assert_eq!(ip.infer(&x), (class, scores.to_vec()), "x={x:?}");
    }
    for x in random_inputs(75, 256, 0x75) {
        let want = model.infer(&x);
        assert_eq!(ip.infer(&x), (want.class, want.scores), "x={x:?}");
    }
}
