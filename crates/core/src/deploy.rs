//! The N-detector deployment engine (the paper's "multiple models can be
//! executed simultaneously for a comprehensive IDS integration"), grown
//! from a fixed DoS+Fuzzy pair into a plan → compile → serve subsystem:
//!
//! 1. **Planning** — [`DeploymentPlan::build`] takes N [`DetectorBundle`]s
//!    plus a target [`Device`] and allocates a **per-model folding
//!    budget**: every model starts at the fastest rung of a
//!    throughput-target ladder (greedy latency-first) and the allocator
//!    folds the largest offender one rung deeper at a time — re-searching
//!    its [`canids_dataflow::folding::LayerFolding`] configuration
//!    against the device's capacity — until the summed
//!    [`ResourceEstimate`] fits. When even fully-sequential folding
//!    cannot place a model, [`CoreError::PlanOverflow`] names it. Every
//!    IP holds the packed serving kernel, so a model the kernel cannot
//!    hold is refused before any rung is searched, with the
//!    [`DataflowError::KernelRefused`] the compile would return.
//! 2. **Compilation** — [`DeploymentPlan::deploy`] compiles each bundle
//!    with its planned folding goal (scenario-parallel on scoped
//!    threads), and refuses such a model too. The deployment is the
//!    plan and its IPs: [`MultiIdsDeployment::fresh_ecu`] attaches them
//!    to a new simulated ZCU104 ([`IdsEcu::with_ips`]) whose
//!    [`SchedPolicy`](canids_soc::ecu::SchedPolicy) is first-class
//!    configuration.
//! 3. **Serving** — the ECU featurises and packs each frame **once** and
//!    feeds the same packed words to all N models (see
//!    [`canids_soc::ecu::EcuStream::push`]); wire-paced N-detector
//!    replays live in [`crate::serve::ServeHarness`] over
//!    [`crate::serve::EcuBackend`], which builds a fresh ECU per
//!    session.
//!
//! Headroom is computed against the device's *true* remaining resources
//! ([`Device::headroom_after`]) — an exhausted resource class reports
//! zero headroom instead of fabricating capacity.

use canids_dataflow::folding::{auto_fold, FoldingConfig, FoldingGoal};
use canids_dataflow::graph::DataflowGraph;
use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
use canids_dataflow::resources::{estimate_resources, Device, ResourceEstimate};
use canids_dataflow::DataflowError;
use canids_dataset::attacks::AttackKind;
use canids_qnn::export::IntegerMlp;
use canids_qnn::kernel::PackedMlp;
use canids_soc::ecu::{EcuConfig, IdsEcu};

use crate::error::CoreError;

/// A named detector ready for deployment.
#[derive(Debug, Clone)]
pub struct DetectorBundle {
    /// Which attack this detector was trained for.
    pub kind: AttackKind,
    /// The streamlined network.
    pub model: IntegerMlp,
}

impl DetectorBundle {
    /// Bundles a model under its attack kind.
    pub fn new(kind: AttackKind, model: IntegerMlp) -> Self {
        DetectorBundle { kind, model }
    }
}

/// Parameters of the folding-budget allocation.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Target device.
    pub device: Device,
    /// PL clock every model is planned at.
    pub clock_hz: u64,
    /// Ladder of per-model throughput targets, fastest first. The
    /// allocator starts every model at the top (latency-first) and
    /// demotes one rung at a time; below the last rung lies
    /// fully-sequential folding.
    pub fps_ladder: Vec<f64>,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            device: Device::ZCU104,
            clock_hz: 200_000_000,
            // 1M frames/s (the single-model deployment default) down to
            // the paper's classic-CAN line rate.
            fps_ladder: vec![1_000_000.0, 250_000.0, 100_000.0, 25_000.0, 8_300.0],
        }
    }
}

/// One model's allocated folding budget.
#[derive(Debug, Clone)]
pub struct ModelPlan {
    /// The bundle's attack kind.
    pub kind: AttackKind,
    /// Unique IP-core name (kind slug, disambiguated per duplicate).
    pub name: String,
    /// The folding goal the allocator settled on.
    pub goal: FoldingGoal,
    /// The concrete per-layer folding that goal selects.
    pub folding: FoldingConfig,
    /// Estimated resources at that folding.
    pub resources: ResourceEstimate,
    /// Peak streaming throughput at that folding.
    pub peak_fps: f64,
    /// How many rungs below the fastest target the allocator had to
    /// fold this model (0 = latency-first budget granted in full).
    pub demotions: usize,
}

/// Per-model candidate foldings, fastest first.
struct RungLadder {
    rungs: Vec<(FoldingGoal, FoldingConfig, ResourceEstimate, f64)>,
}

impl RungLadder {
    fn build(graph: &DataflowGraph, config: &PlanConfig) -> Result<Self, CoreError> {
        let mut rungs: Vec<(FoldingGoal, FoldingConfig, ResourceEstimate, f64)> = Vec::new();
        let goals = config
            .fps_ladder
            .iter()
            .map(|&fps| FoldingGoal::TargetFps {
                fps,
                clock_hz: config.clock_hz,
            })
            .chain(std::iter::once(FoldingGoal::MinResource));
        for goal in goals {
            let folding = match auto_fold(graph, goal) {
                Ok(f) => f,
                // A target beyond this topology's reach just isn't a
                // rung; deeper (cheaper) rungs follow.
                Err(DataflowError::TargetUnreachable { .. }) => continue,
                Err(e) => return Err(e.into()),
            };
            let resources = estimate_resources(graph, &folding);
            let peak_fps = config.clock_hz as f64 / folding.initiation_interval(graph) as f64;
            // Skip rungs that do not actually shrink the design — a
            // demotion must buy resources.
            if rungs.last().is_some_and(|(_, _, r, _)| *r == resources) {
                continue;
            }
            rungs.push((goal, folding, resources, peak_fps));
        }
        debug_assert!(!rungs.is_empty(), "MinResource always folds");
        Ok(RungLadder { rungs })
    }
}

fn component(r: ResourceEstimate, class: &'static str) -> u64 {
    match class {
        "LUT" => r.lut,
        "FF" => r.ff,
        "BRAM36" => r.bram36,
        "DSP" => r.dsp,
        _ => unreachable!("unknown resource class {class}"),
    }
}

/// Unique per-model IP-core names: `dos-ids`, and `dos-ids-2`,
/// `dos-ids-3`, … for folded duplicates of the same kind.
fn model_names(models: &[(AttackKind, &DataflowGraph)]) -> Vec<String> {
    let mut counts: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    models
        .iter()
        .map(|(kind, _)| {
            let slug = kind.slug();
            let n = counts.entry(slug).or_insert(0);
            *n += 1;
            if *n == 1 {
                format!("{slug}-ids")
            } else {
                format!("{slug}-ids-{n}")
            }
        })
        .collect()
}

/// Lowers `bundle` for planning and refuses it as the IP compile would:
/// lowering errors first, then [`DataflowError::KernelRefused`] when the
/// packed serving kernel cannot hold the model.
pub(crate) fn lower(bundle: &DetectorBundle) -> Result<DataflowGraph, CoreError> {
    let graph = DataflowGraph::from_integer_mlp(&bundle.model)?;
    PackedMlp::new(&bundle.model).map_err(DataflowError::KernelRefused)?;
    Ok(graph)
}

/// A fitted N-detector plan: per-model folding budgets whose sum is
/// proven to fit the device.
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    /// Target device.
    pub device: Device,
    /// PL clock the budgets were planned at.
    pub clock_hz: u64,
    /// Per-model budgets, in bundle order.
    pub models: Vec<ModelPlan>,
    /// Summed resource estimate (`≤` device capacity in every class).
    pub total_resources: ResourceEstimate,
    /// Peak device utilisation fraction of the plan.
    pub utilization: f64,
    /// Additional copies of the largest planned IP that still fit in the
    /// true remaining resources.
    pub headroom: u64,
}

impl DeploymentPlan {
    /// Allocates per-model folding budgets for `bundles` on
    /// `config.device` — greedy latency-first with a fold-deeper
    /// fallback.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyDeployment`] without bundles;
    /// [`CoreError::PlanOverflow`] naming the offending model when even
    /// fully-sequential folding cannot fit the set;
    /// [`DataflowError::KernelRefused`] (as [`CoreError::Dataflow`]) for
    /// a model the packed serving kernel cannot hold, which
    /// [`deploy`](Self::deploy) would refuse; lowering errors otherwise.
    pub fn build(bundles: &[DetectorBundle], config: &PlanConfig) -> Result<Self, CoreError> {
        let graphs = bundles.iter().map(lower).collect::<Result<Vec<_>, _>>()?;
        let models: Vec<_> = bundles.iter().map(|b| b.kind).zip(&graphs).collect();
        DeploymentPlan::fit(&models, config)
    }

    /// The allocator behind [`build`](Self::build), over models already
    /// lowered (and checked against the kernel) by [`lower`]: the
    /// fleet planner lowers each bundle once and fits every placement
    /// trial from those graphs.
    pub(crate) fn fit(
        models: &[(AttackKind, &DataflowGraph)],
        config: &PlanConfig,
    ) -> Result<Self, CoreError> {
        if models.is_empty() {
            return Err(CoreError::EmptyDeployment);
        }
        let names = model_names(models);
        let ladders = models
            .iter()
            .map(|(_, graph)| RungLadder::build(graph, config))
            .collect::<Result<Vec<_>, _>>()?;

        // Greedy: everyone starts latency-first; while the sum
        // overflows, fold the largest offender (in the overflowing
        // class) one rung deeper.
        let mut rung = vec![0usize; models.len()];
        let total = loop {
            let total = rung
                .iter()
                .zip(&ladders)
                .fold(ResourceEstimate::default(), |acc, (&r, ladder)| {
                    acc + ladder.rungs[r].2
                });
            let Some((class, required, capacity)) = config.device.first_overflow(total) else {
                break total;
            };
            let victim = (0..models.len())
                .filter(|&i| rung[i] + 1 < ladders[i].rungs.len())
                .max_by_key(|&i| {
                    (
                        component(ladders[i].rungs[rung[i]].2, class),
                        usize::MAX - i,
                    )
                });
            match victim {
                Some(i) => rung[i] += 1,
                None => {
                    // Everyone is already fully folded: blame the model
                    // contributing most to the overflowing class.
                    let worst = (0..models.len())
                        .max_by_key(|&i| {
                            (
                                component(ladders[i].rungs[rung[i]].2, class),
                                usize::MAX - i,
                            )
                        })
                        // lint:allow(panic-in-lib): an overflowing class implies a contributing bundle
                        .expect("at least one bundle");
                    return Err(CoreError::PlanOverflow {
                        detector: worst,
                        name: names[worst].clone(),
                        resource: class,
                        required,
                        capacity,
                    });
                }
            }
        };

        let plans: Vec<ModelPlan> = models
            .iter()
            .zip(names)
            .zip(rung.iter().zip(&ladders))
            .map(|((&(kind, _), name), (&r, ladder))| {
                let (goal, folding, resources, peak_fps) = ladder.rungs[r].clone();
                ModelPlan {
                    kind,
                    name,
                    goal,
                    folding,
                    resources,
                    peak_fps,
                    demotions: r,
                }
            })
            .collect();
        let largest = plans
            .iter()
            .map(|m| m.resources)
            .max_by_key(|r| r.lut)
            .unwrap_or_default();
        Ok(DeploymentPlan {
            device: config.device,
            clock_hz: config.clock_hz,
            utilization: config.device.utilization(total).max_fraction(),
            headroom: config.device.headroom_after(total, largest),
            total_resources: total,
            models: plans,
        })
    }

    /// The slowest planned model's peak throughput — the plan-level
    /// streaming ceiling.
    pub fn min_peak_fps(&self) -> f64 {
        self.models
            .iter()
            .map(|m| m.peak_fps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Compiles every bundle at its planned folding (scenario-parallel,
    /// one scoped thread per model) and returns the serving-ready
    /// deployment: this plan and the compiled IPs.
    ///
    /// `base` supplies the non-folding compilation parameters (FIFO
    /// depth, verification samples); the per-model name, clock and
    /// folding goal come from the plan.
    ///
    /// # Panics
    ///
    /// Panics when `bundles` is not the slice the plan was built from
    /// (length mismatch).
    ///
    /// # Errors
    ///
    /// [`CoreError::PlanMismatch`] when a same-length but different
    /// bundle set is handed in (the compiled IPs would not match the
    /// plan's folding/resource facts); compilation errors otherwise,
    /// among them [`DataflowError::KernelRefused`] for a model the packed
    /// serving kernel cannot hold.
    pub fn deploy(
        &self,
        bundles: &[DetectorBundle],
        base: &CompileConfig,
    ) -> Result<MultiIdsDeployment, CoreError> {
        assert_eq!(
            bundles.len(),
            self.models.len(),
            "plan was built from a different bundle set"
        );
        let jobs: Vec<(&DetectorBundle, &ModelPlan)> =
            bundles.iter().zip(self.models.iter()).collect();
        let compiled = crate::par::scoped_map(&jobs, |(bundle, model_plan)| {
            AcceleratorIp::compile(
                &bundle.model,
                CompileConfig {
                    name: model_plan.name.clone(),
                    clock_hz: self.clock_hz,
                    goal: model_plan.goal,
                    ..base.clone()
                },
            )
        });
        let mut ips = Vec::with_capacity(jobs.len());
        for (i, ip) in compiled.into_iter().enumerate() {
            let ip = ip?;
            // Identity check: the compiled artifact must realise its
            // plan entry — a different same-length bundle set would
            // yield silently mismatched hardware facts.
            let m = &self.models[i];
            if bundles[i].kind != m.kind
                || *ip.folding() != m.folding
                || ip.resources() != m.resources
            {
                return Err(CoreError::PlanMismatch {
                    detector: i,
                    name: m.name.clone(),
                });
            }
            ips.push(ip);
        }
        Ok(MultiIdsDeployment {
            kinds: bundles.iter().map(|b| b.kind).collect(),
            plan: self.clone(),
            ips,
        })
    }
}

/// A compiled multi-IDS deployment: its plan (summed resources,
/// utilisation, headroom) and its IPs. ECUs are built per session
/// ([`fresh_ecu`](Self::fresh_ecu)), since the simulated board clock is
/// monotonic.
#[derive(Debug, Clone)]
pub struct MultiIdsDeployment {
    /// Attack kind per compiled IP.
    pub kinds: Vec<AttackKind>,
    /// The folding-budget plan this deployment realises.
    pub plan: DeploymentPlan,
    /// The compiled IPs, in bundle order.
    pub ips: Vec<AcceleratorIp>,
}

impl MultiIdsDeployment {
    /// A fresh ECU over the already-compiled IPs (new board, new clock)
    /// — the way to replay one capture under several
    /// [`SchedPolicy`](canids_soc::ecu::SchedPolicy)s
    /// without recompiling or fighting the monotonic board time.
    ///
    /// # Errors
    ///
    /// Propagates SoC attach errors.
    pub fn fresh_ecu(&self, config: EcuConfig) -> Result<IdsEcu, CoreError> {
        Ok(IdsEcu::with_ips(self.ips.iter().cloned(), config)?)
    }

    /// A serving backend over this deployment for the unified harness
    /// ([`crate::serve::ServeHarness`]): every replay session gets a
    /// fresh ECU, configured from the replay's
    /// [`crate::serve::ReplayConfig::ecu`].
    pub fn serve_backend(&self) -> crate::serve::EcuBackend<'_> {
        crate::serve::EcuBackend::new(self)
    }
}

/// Compiles and deploys several detectors onto one board with default
/// planning (ZCU104) — the compatibility entry point over
/// [`DeploymentPlan::build`] + [`DeploymentPlan::deploy`].
///
/// The caller's `compile.goal` is honoured as the allocator's starting
/// rung: a `TargetFps` goal heads the fold-deeper ladder (slower
/// default rungs remain as fallback), `MinResource` plans every model
/// fully sequential, and `MaxParallel` starts from a one-cycle
/// initiation-interval budget.
///
/// # Errors
///
/// Planning and compilation errors (see [`DeploymentPlan::deploy`]).
pub fn deploy_multi_ids(
    bundles: &[DetectorBundle],
    compile: CompileConfig,
) -> Result<MultiIdsDeployment, CoreError> {
    let defaults = PlanConfig::default();
    let fps_ladder = match compile.goal {
        FoldingGoal::TargetFps { fps, .. } => std::iter::once(fps)
            .chain(defaults.fps_ladder.into_iter().filter(|&f| f < fps))
            .collect(),
        FoldingGoal::MinResource => Vec::new(),
        // MaxParallel ≙ a one-cycle II budget at the PL clock.
        FoldingGoal::MaxParallel => std::iter::once(compile.clock_hz as f64)
            .chain(defaults.fps_ladder)
            .collect(),
    };
    let plan = DeploymentPlan::build(
        bundles,
        &PlanConfig {
            device: defaults.device,
            clock_hz: compile.clock_hz,
            fps_ladder,
        },
    )?;
    plan.deploy(bundles, &compile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_qnn::prelude::*;
    use canids_soc::ecu::SchedPolicy;

    fn tiny_model(seed: u64) -> IntegerMlp {
        QuantMlp::new(MlpConfig {
            seed,
            ..MlpConfig::default()
        })
        .unwrap()
        .export()
        .unwrap()
    }

    fn bundles(n: usize) -> Vec<DetectorBundle> {
        let kinds = [
            AttackKind::Dos,
            AttackKind::Fuzzy,
            AttackKind::GearSpoof,
            AttackKind::RpmSpoof,
        ];
        (0..n)
            .map(|i| DetectorBundle::new(kinds[i % kinds.len()], tiny_model(i as u64 + 1)))
            .collect()
    }

    #[test]
    fn dual_deployment_fits_with_headroom() {
        let deployment = deploy_multi_ids(&bundles(2), CompileConfig::default()).unwrap();
        assert_eq!(deployment.kinds.len(), 2);
        let plan = &deployment.plan;
        assert!(
            plan.utilization < 0.08,
            "two IPs stay well under 8%: {}",
            plan.utilization
        );
        assert!(plan.headroom >= 4, "headroom {}", plan.headroom);
        let ecu = deployment.fresh_ecu(EcuConfig::default()).unwrap();
        assert_eq!(ecu.models().len(), 2);
        // Latency-first: the default ladder's top rung was granted.
        assert!(deployment.plan.models.iter().all(|m| m.demotions == 0));
        assert!(deployment.plan.min_peak_fps() >= 1_000_000.0);
    }

    #[test]
    fn resources_sum_across_ips() {
        let one = deploy_multi_ids(&bundles(1), CompileConfig::default()).unwrap();
        let two = deploy_multi_ids(&bundles(2), CompileConfig::default()).unwrap();
        assert!(two.plan.total_resources.lut > one.plan.total_resources.lut);
    }

    #[test]
    fn plan_resources_match_compiled_ips() {
        let bs = bundles(2);
        let plan = DeploymentPlan::build(&bs, &PlanConfig::default()).unwrap();
        let deployment = plan.deploy(&bs, &CompileConfig::default()).unwrap();
        for (m, ip) in plan.models.iter().zip(&deployment.ips) {
            assert_eq!(m.resources, ip.resources(), "{}", m.name);
            assert_eq!(&m.folding, ip.folding(), "{}", m.name);
        }
        let summed = deployment
            .ips
            .iter()
            .fold(ResourceEstimate::default(), |acc, ip| acc + ip.resources());
        assert_eq!(summed, plan.total_resources);
    }

    #[test]
    fn duplicate_kinds_get_unique_names() {
        let bs = bundles(8);
        let plan = DeploymentPlan::build(&bs, &PlanConfig::default()).unwrap();
        let mut names: Vec<&str> = plan.models.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"dos-ids"));
        assert!(names.contains(&"dos-ids-2"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "names must be unique");
    }

    #[test]
    fn allocator_folds_deeper_on_small_devices() {
        // Twenty latency-first models overflow a PYNQ-Z2 (~3k LUT each
        // against 53k); the allocator must demote some of them rather
        // than fail.
        let bs = bundles(20);
        let plan = DeploymentPlan::build(
            &bs,
            &PlanConfig {
                device: Device::PYNQ_Z2,
                ..PlanConfig::default()
            },
        )
        .unwrap();
        assert!(plan.device.first_overflow(plan.total_resources).is_none());
        let demoted = plan.models.iter().filter(|m| m.demotions > 0).count();
        assert!(demoted > 0, "PYNQ-Z2 cannot grant twenty 1M fps budgets");
        // Every model still meets classic-CAN line rate.
        assert!(plan.min_peak_fps() >= 8_300.0, "{}", plan.min_peak_fps());
    }

    #[test]
    fn overflow_names_the_offending_model() {
        let toy = Device {
            name: "toy",
            luts: 4_000,
            ffs: 8_000,
            bram36: 4,
            dsps: 8,
        };
        let err = DeploymentPlan::build(
            &bundles(3),
            &PlanConfig {
                device: toy,
                ..PlanConfig::default()
            },
        )
        .unwrap_err();
        match err {
            CoreError::PlanOverflow {
                detector,
                name,
                resource,
                required,
                capacity,
            } => {
                assert!(detector < 3);
                assert!(!name.is_empty());
                assert_eq!(resource, "LUT");
                assert!(required > capacity, "{required} !> {capacity}");
            }
            other => panic!("expected PlanOverflow, got {other:?}"),
        }
    }

    #[test]
    fn deploy_multi_ids_honours_the_callers_goal() {
        // Regression: the compatibility wrapper must not silently trade
        // a MinResource request for the latency-first ladder.
        let min = deploy_multi_ids(
            &bundles(1),
            CompileConfig {
                goal: FoldingGoal::MinResource,
                ..CompileConfig::default()
            },
        )
        .unwrap();
        let fast = deploy_multi_ids(&bundles(1), CompileConfig::default()).unwrap();
        assert!(
            min.plan.total_resources.lut < fast.plan.total_resources.lut,
            "MinResource deployment must be smaller: {} !< {}",
            min.plan.total_resources.lut,
            fast.plan.total_resources.lut
        );
        assert!(min.plan.min_peak_fps() < fast.plan.min_peak_fps());
        // A custom throughput target heads the ladder.
        let custom = deploy_multi_ids(
            &bundles(1),
            CompileConfig {
                goal: FoldingGoal::TargetFps {
                    fps: 50_000.0,
                    clock_hz: 200_000_000,
                },
                ..CompileConfig::default()
            },
        )
        .unwrap();
        assert!(custom.plan.min_peak_fps() >= 50_000.0);
        assert!(custom.plan.total_resources.lut <= fast.plan.total_resources.lut);
    }

    #[test]
    fn deploying_a_different_bundle_set_is_rejected() {
        let planned = bundles(2);
        let plan = DeploymentPlan::build(&planned, &PlanConfig::default()).unwrap();
        // Same length, different topology: the plan's hardware facts
        // would not describe these IPs.
        let swapped: Vec<DetectorBundle> = (0..2)
            .map(|i| {
                let mlp = QuantMlp::new(MlpConfig {
                    seed: 90 + i as u64,
                    hidden: vec![16],
                    ..MlpConfig::default()
                })
                .unwrap();
                DetectorBundle::new(AttackKind::Dos, mlp.export().unwrap())
            })
            .collect();
        let err = plan
            .deploy(&swapped, &CompileConfig::default())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::PlanMismatch { detector: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn empty_deployment_is_rejected() {
        assert!(matches!(
            DeploymentPlan::build(&[], &PlanConfig::default()),
            Err(CoreError::EmptyDeployment)
        ));
    }

    #[test]
    fn fresh_ecu_reuses_compiled_ips() {
        let deployment = deploy_multi_ids(&bundles(2), CompileConfig::default()).unwrap();
        for policy in [SchedPolicy::Sequential, SchedPolicy::DmaBatch { batch: 8 }] {
            let ecu = deployment
                .fresh_ecu(EcuConfig {
                    policy,
                    ..EcuConfig::default()
                })
                .unwrap();
            assert_eq!(ecu.config().policy, policy);
            assert_eq!(ecu.models().len(), 2);
        }
    }
}
