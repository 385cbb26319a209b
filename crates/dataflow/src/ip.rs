//! The compiled accelerator IP artifact.
//!
//! [`AcceleratorIp::compile`] is the equivalent of the FINN build flow
//! the paper uses: streamlined network in, stitched IP out — with a
//! register map for the AXI-Lite control interface, folding, resource
//! and power estimates, a cycle-accurate simulator, and a built-in
//! bit-exactness verification step (FINN's cppsim/rtlsim gate).
//!
//! The IP's functional model is the packed lane kernel ([`PackedMlp`]),
//! compiled once here and shared by every clone of the IP:
//! [`AcceleratorIp::infer_words`] classifies the packed AXI input words
//! the DMA and MMIO paths carry, allocation-free and through the
//! caller's [`ClassMemo`], and [`AcceleratorIp::infer`] writes unpacked
//! levels into those words first. The compile refuses a model the
//! kernel cannot hold with [`DataflowError::KernelRefused`]; the
//! dataflow graph's `i64` model ([`DataflowGraph::compute`]) stays the
//! compile gate's reference and the simulator's model, and serves
//! nothing.

use std::sync::Arc;

use canids_qnn::export::IntegerMlp;
use canids_qnn::kernel::{ClassMemo, PackedMlp, PackedScratch, MAX_INPUT_BITS};

use crate::error::DataflowError;
use crate::folding::{auto_fold, FoldingConfig, FoldingGoal};
use crate::graph::DataflowGraph;
use crate::passes::{round_and_clip_thresholds, validate_thresholds_sorted};
use crate::power::{estimate_power, PowerCoefficients, PowerEstimate};
use crate::resources::{estimate_resources, Device, ResourceEstimate, Utilization};
use crate::simulator::{AcceleratorSim, SimConfig};
use crate::verify::verify_with;

/// Compilation parameters.
#[derive(Debug, Clone)]
pub struct CompileConfig {
    /// IP core name (used by codegen and the register map).
    pub name: String,
    /// Target clock for the programmable logic.
    pub clock_hz: u64,
    /// Folding selection goal.
    pub goal: FoldingGoal,
    /// Inter-stage FIFO depth.
    pub fifo_depth: usize,
    /// Samples used by the built-in bit-exactness verification.
    pub verify_samples: usize,
}

impl Default for CompileConfig {
    fn default() -> Self {
        // The deployed folding targets 1M frames/s of streaming
        // throughput: compute latency drops to ~2 µs (negligible next to
        // the 0.1 ms software path) while the design stays far below the
        // paper's 4 % resource envelope.
        CompileConfig {
            name: "qmlp_ids".to_owned(),
            clock_hz: 200_000_000,
            goal: FoldingGoal::TargetFps {
                fps: 1_000_000.0,
                clock_hz: 200_000_000,
            },
            fifo_depth: 2,
            verify_samples: 64,
        }
    }
}

/// Access mode of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegAccess {
    /// Read-only.
    ReadOnly,
    /// Read/write.
    ReadWrite,
    /// Write-only.
    WriteOnly,
}

/// One AXI-Lite register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Register name.
    pub name: &'static str,
    /// Byte offset from the IP base address.
    pub offset: u32,
    /// Access mode.
    pub access: RegAccess,
}

/// The AXI-Lite register map the driver programs against (the layout the
/// FINN stitched-IP wrapper exposes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterMap {
    /// Registers, ascending by offset.
    pub registers: Vec<Register>,
    /// Number of 32-bit words of packed input expected per frame.
    pub input_words: u32,
}

impl RegisterMap {
    /// Control register offset (bit 0 = start).
    pub const CTRL: u32 = 0x00;
    /// Status register offset (bit 0 = done, bit 1 = idle).
    pub const STATUS: u32 = 0x04;
    /// First input-data word offset.
    pub const INPUT_BASE: u32 = 0x10;
    /// Predicted-class register offset.
    pub const OUT_CLASS: u32 = 0x40;
    /// First output-score word offset.
    pub const OUT_SCORE_BASE: u32 = 0x44;

    /// Looks a register up by name.
    pub fn by_name(&self, name: &str) -> Option<&Register> {
        self.registers.iter().find(|r| r.name == name)
    }
}

/// The stitched accelerator IP: compiled graph + folding + estimates.
///
/// # Example
///
/// ```
/// use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
/// use canids_qnn::prelude::*;
///
/// let mlp = QuantMlp::new(MlpConfig::default())?;
/// let ip = AcceleratorIp::compile(&mlp.export()?, CompileConfig::default())?;
/// assert!(ip.latency_secs() < 1e-4, "compute latency is microseconds");
/// assert_eq!(ip.input_dim(), 75);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorIp {
    /// What the compile produced, shared by every clone: a clone of the
    /// IP is a reference count, not a copy of its graph and kernel.
    compiled: Arc<Compiled>,
}

/// The artifact behind an [`AcceleratorIp`].
#[derive(Debug)]
struct Compiled {
    name: String,
    graph: DataflowGraph,
    folding: FoldingConfig,
    clock_hz: u64,
    sim_config: SimConfig,
    resources: ResourceEstimate,
    /// Single-frame latency, `Σ (fold_i + 1)` cycles.
    latency_cycles: u64,
    /// Steady-state initiation interval, `max fold_i` cycles.
    initiation_interval: u64,
    /// The packed serving kernel.
    kernel: PackedMlp,
}

impl AcceleratorIp {
    /// Compiles a streamlined integer network into an IP core:
    /// lowering → packed-kernel compilation → threshold passes → folding
    /// → resource estimation → bit-exactness verification of both the
    /// graph and the kernel.
    ///
    /// # Errors
    ///
    /// [`DataflowError::KernelRefused`] when the packed kernel cannot
    /// hold the model (for example weight codes wider than `i8`); any
    /// other [`DataflowError`] from lowering, folding validation or the
    /// verification gate.
    pub fn compile(model: &IntegerMlp, config: CompileConfig) -> Result<Self, DataflowError> {
        let mut graph = DataflowGraph::from_integer_mlp(model)?;
        let kernel = PackedMlp::new(model).map_err(DataflowError::KernelRefused)?;
        round_and_clip_thresholds(&mut graph);
        validate_thresholds_sorted(&graph)?;
        let folding = auto_fold(&graph, config.goal)?;
        let resources = estimate_resources(&graph, &folding);
        let latency_cycles = folding.fold_cycles(&graph).iter().map(|f| f + 1).sum();
        let initiation_interval = folding.initiation_interval(&graph);
        let compiled = Arc::new(Compiled {
            name: config.name,
            graph,
            folding,
            clock_hz: config.clock_hz,
            sim_config: SimConfig {
                fifo_depth: config.fifo_depth,
            },
            resources,
            latency_cycles,
            initiation_interval,
            kernel,
        });
        let ip = AcceleratorIp { compiled };
        verify_with(
            &[&|x: &[u32]| ip.graph().compute(x), &|x: &[u32]| ip.infer(x)],
            ip.input_dim(),
            model,
            config.verify_samples,
            0xC051,
        )?;
        Ok(ip)
    }

    /// IP core name.
    pub fn name(&self) -> &str {
        &self.compiled.name
    }

    /// The compiled dataflow graph.
    pub fn graph(&self) -> &DataflowGraph {
        &self.compiled.graph
    }

    /// The chosen folding.
    pub fn folding(&self) -> &FoldingConfig {
        &self.compiled.folding
    }

    /// PL clock frequency.
    pub fn clock_hz(&self) -> u64 {
        self.compiled.clock_hz
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.graph().input_dim()
    }

    /// 32-bit words of packed binary input per frame (what the driver
    /// writes over AXI).
    pub fn input_words(&self) -> u32 {
        (self.input_dim() as u32).div_ceil(32)
    }

    /// Builds a fresh cycle-accurate simulator for this IP.
    pub fn simulator(&self) -> AcceleratorSim {
        let c = &self.compiled;
        AcceleratorSim::new(c.graph.clone(), &c.folding, c.sim_config)
            // lint:allow(panic-in-lib): `compile` validated this folding against this graph, and neither changes after it
            .expect("folding validated at compile time")
    }

    /// Functional (untimed) inference on unpacked input levels. `x` is
    /// written into AXI input words as the driver writes a frame (a
    /// nonzero level sets the input's bit, missing inputs read 0, inputs
    /// past [`input_dim`](Self::input_dim) are ignored) and classified
    /// by the packed kernel, bit-identical to the compiled
    /// [`IntegerMlp`] on binary inputs of the model's width.
    pub fn infer(&self, x: &[u32]) -> (usize, Vec<i64>) {
        let mut words = [0u32; MAX_INPUT_BITS / 32];
        for (i, _) in x
            .iter()
            .take(self.input_dim())
            .enumerate()
            .filter(|&(_, &level)| level != 0)
        {
            words[i / 32] |= 1 << (i % 32);
        }
        let p = self.compiled.kernel.infer(frame_bits(&words));
        (p.class, p.scores)
    }

    /// Classifies one frame given as packed AXI input words, the layout
    /// the driver writes to `IN_W*` and a DMA batch streams: input `i` is
    /// bit `i % 32` of word `i / 32`. Words past
    /// [`input_words`](Self::input_words) and bits past
    /// [`input_dim`](Self::input_dim) are ignored; missing words read as
    /// zero.
    ///
    /// This is the allocation-free entry point of the DMA and MMIO
    /// paths: the packed kernel runs through the caller's `scratch` and
    /// `memo` ([`ClassMemo::classify`]), and the returned scores borrow
    /// `scratch`. Keep one memo per IP.
    pub fn infer_words<'s>(
        &self,
        words: &[u32],
        scratch: &'s mut PackedScratch,
        memo: &mut ClassMemo,
    ) -> (usize, &'s [i64]) {
        let class = memo.classify(&self.compiled.kernel, frame_bits(words), scratch);
        (class, scratch.scores())
    }

    /// Single-frame compute latency in cycles (the simulator's
    /// [`AcceleratorSim::single_frame_latency_cycles`], fixed at compile).
    pub fn latency_cycles(&self) -> u64 {
        self.compiled.latency_cycles
    }

    /// Single-frame compute latency in seconds at the IP clock.
    pub fn latency_secs(&self) -> f64 {
        self.latency_cycles() as f64 / self.clock_hz() as f64
    }

    /// Steady-state initiation interval in cycles (fixed at compile, so
    /// a DMA window's timing reads it without walking the folding).
    pub fn initiation_interval(&self) -> u64 {
        self.compiled.initiation_interval
    }

    /// Peak streaming throughput in frames/second.
    pub fn peak_throughput_fps(&self) -> f64 {
        self.clock_hz() as f64 / self.initiation_interval() as f64
    }

    /// Resource estimate.
    pub fn resources(&self) -> ResourceEstimate {
        self.compiled.resources
    }

    /// Utilisation on a device.
    pub fn utilization(&self, device: Device) -> Utilization {
        device.utilization(self.resources())
    }

    /// PL power estimate at the given toggle activity.
    pub fn power(&self, toggle: f64) -> PowerEstimate {
        estimate_power(
            self.resources(),
            self.clock_hz(),
            toggle,
            PowerCoefficients::default(),
        )
    }

    /// Energy per inference in joules at the given toggle activity
    /// (compute time × PL power).
    pub fn energy_per_inference_j(&self, toggle: f64) -> f64 {
        self.power(toggle).energy_j(self.latency_secs())
    }

    /// The AXI-Lite register map exposed to the processing system.
    pub fn register_map(&self) -> RegisterMap {
        let mut registers = vec![
            Register {
                name: "CTRL",
                offset: RegisterMap::CTRL,
                access: RegAccess::ReadWrite,
            },
            Register {
                name: "STATUS",
                offset: RegisterMap::STATUS,
                access: RegAccess::ReadOnly,
            },
        ];
        for w in 0..self.input_words() {
            registers.push(Register {
                name: match w {
                    0 => "IN_W0",
                    1 => "IN_W1",
                    2 => "IN_W2",
                    3 => "IN_W3",
                    _ => "IN_WN",
                },
                offset: RegisterMap::INPUT_BASE + 4 * w,
                access: RegAccess::WriteOnly,
            });
        }
        registers.push(Register {
            name: "OUT_CLASS",
            offset: RegisterMap::OUT_CLASS,
            access: RegAccess::ReadOnly,
        });
        for (c, name) in ["OUT_SCORE0", "OUT_SCORE1", "OUT_SCORE2", "OUT_SCORE3"]
            .iter()
            .enumerate()
            .take(self.graph().label_select.classes.min(4))
        {
            registers.push(Register {
                name,
                offset: RegisterMap::OUT_SCORE_BASE + 4 * c as u32,
                access: RegAccess::ReadOnly,
            });
        }
        RegisterMap {
            registers,
            input_words: self.input_words(),
        }
    }
}

/// The frame bitmask of packed AXI input words: word `k` holds inputs
/// `32k..32k + 32`. Words past the kernel's widest input are ignored.
fn frame_bits(words: &[u32]) -> u128 {
    words
        .iter()
        .take(MAX_INPUT_BITS / 32)
        .enumerate()
        .fold(0, |bits, (k, &w)| bits | u128::from(w) << (32 * k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_qnn::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_model() -> IntegerMlp {
        let mut rng = StdRng::seed_from_u64(21);
        let xs: Vec<Vec<f32>> = (0..300)
            .map(|_| {
                (0..75)
                    .map(|_| f32::from(rng.gen_bool(0.5) as u8))
                    .collect()
            })
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let mut mlp = QuantMlp::new(MlpConfig::default()).unwrap();
        Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &xs, &ys)
        .unwrap();
        mlp.export().unwrap()
    }

    #[test]
    fn compile_produces_consistent_ip() {
        let model = trained_model();
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        assert_eq!(ip.input_dim(), 75);
        assert_eq!(ip.input_words(), 3);
        assert!(ip.latency_cycles() > 0);
        assert!(ip.peak_throughput_fps() >= 100_000.0);
        assert!(ip.resources().lut > 0);
    }

    #[test]
    fn compiled_ip_is_bit_exact_with_model() {
        let model = trained_model();
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let x: Vec<u32> = (0..75).map(|_| u32::from(rng.gen_bool(0.5))).collect();
            let (class, scores) = ip.infer(&x);
            let want = model.infer(&x);
            assert_eq!(class, want.class);
            assert_eq!(scores, want.scores);
        }
    }

    #[test]
    fn latency_meets_line_rate_budget() {
        // Paper context: a CAN frame takes ≥ ~120 µs on the wire at 1 Mb/s;
        // the accelerator compute latency must be far below that.
        let model = trained_model();
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        assert!(
            ip.latency_secs() < 20e-6,
            "compute latency {} s",
            ip.latency_secs()
        );
    }

    #[test]
    fn register_map_layout() {
        let model = trained_model();
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        let map = ip.register_map();
        assert_eq!(map.input_words, 3);
        assert_eq!(map.by_name("CTRL").unwrap().offset, 0x00);
        assert_eq!(map.by_name("STATUS").unwrap().offset, 0x04);
        assert_eq!(map.by_name("OUT_CLASS").unwrap().offset, 0x40);
        assert!(map.by_name("IN_W2").is_some());
        assert!(map.by_name("OUT_SCORE1").is_some());
        // Offsets strictly ascend.
        for w in map.registers.windows(2) {
            assert!(w[0].offset < w[1].offset);
        }
    }

    #[test]
    fn power_and_energy_in_paper_ballpark() {
        let model = trained_model();
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        let p = ip.power(0.125);
        assert!(p.total_w() > 0.2 && p.total_w() < 1.0, "PL power {p:?}");
        let e = ip.energy_per_inference_j(0.125);
        // Compute-only energy is micro-joules; the paper's 0.25 mJ is the
        // whole-board figure over the full 0.12 ms software path.
        assert!(e < 1e-5, "energy {e}");
    }

    #[test]
    fn min_resource_goal_compiles_too() {
        let model = trained_model();
        let ip = AcceleratorIp::compile(
            &model,
            CompileConfig {
                goal: FoldingGoal::MinResource,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        assert_eq!(ip.initiation_interval(), 75 * 64);
    }
}
