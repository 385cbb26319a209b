//! The cross-ECU fleet subsystem: one detector fleet sharded across
//! several heterogeneous boards, one level above [`crate::deploy`].
//!
//! The single-board engine answers "how many detectors fit on *this*
//! device"; a vehicle has more detectors than any one ECU should carry,
//! and its sibling architecture work argues for the IDS as a
//! distributed, gateway-coupled function. This module is that layer:
//!
//! 1. **Partitioning** — [`FleetPlan::build`] assigns N
//!    [`DetectorBundle`]s to M boards ([`BoardSpec`]: device, clock,
//!    optional admission-control model cap), keeping per-board
//!    utilisation balanced and reusing [`DeploymentPlan::build`] per
//!    shard so every shard inherits the folding-budget ladder and its
//!    fit proof. When no board can take a model even fold-deepest,
//!    [`CoreError::FleetOverflow`] names it and the closest-fit board's
//!    shortfall.
//! 2. **Compilation** — [`FleetPlan::deploy`] compiles every shard
//!    through the single-board engine and keeps the compiled IPs
//!    board-side, so replays can build fresh ECUs per scenario (the
//!    simulated board clock is monotonic).
//! 3. **Serving** — through the unified serving API: wrap a compiled
//!    fleet in [`FleetDeployment::serve_backend`] and replay it with
//!    [`crate::serve::ServeHarness`]. Frames reach each shard through
//!    its gateway port on the event-driven [`crate::net`] runtime
//!    (store-and-forward delay + far-segment serialisation, not a free
//!    broadcast; gateway buffers and faults per replay through
//!    [`crate::serve::FleetTransport`]), and a fleet-level
//!    [`AdmissionPolicy`] governs sustained overload: keep today's FIFO
//!    drops, shed by static or *measured* model value, or migrate to a
//!    warm standby.

use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
use canids_dataflow::resources::{Device, ResourceEstimate};
use canids_dataset::attacks::AttackKind;

use crate::deploy::{DeploymentPlan, DetectorBundle, PlanConfig};
use crate::error::CoreError;
use crate::serve::FleetBackend;

pub use crate::serve::{AdmissionPolicy, FleetAction, FleetEvent, OverloadThresholds};

/// One board of the fleet: which device it is, the PL clock its shard is
/// planned at, and an instance name for reports.
///
/// The device and clock drive *planning and compilation* (resource fit,
/// folding budgets, IP latency facts). The serving runtime models every
/// board with the ZCU104 SoC (A53/Linux CPU cost model and power
/// rails) — the only platform the `soc` crate currently simulates — so
/// per-board power/energy figures are ZCU104-class estimates even for
/// Ultra96/PYNQ-Z2 shards.
#[derive(Debug, Clone)]
pub struct BoardSpec {
    /// Instance name (e.g. `"front-zcu104"`), unique within the fleet by
    /// convention.
    pub name: String,
    /// The FPGA device the shard must fit.
    pub device: Device,
    /// PL clock the shard is planned and compiled at.
    pub clock_hz: u64,
}

impl BoardSpec {
    /// A ZCU104-class board (the paper's target ECU) at 200 MHz.
    pub fn zcu104(name: &str) -> Self {
        BoardSpec {
            name: name.to_owned(),
            device: Device::ZCU104,
            clock_hz: 200_000_000,
        }
    }

    /// An Ultra96-class board at 150 MHz.
    pub fn ultra96(name: &str) -> Self {
        BoardSpec {
            name: name.to_owned(),
            device: Device::ULTRA96,
            clock_hz: 150_000_000,
        }
    }

    /// A PYNQ-Z2-class board at 100 MHz (the group's earlier hybrid
    /// baseline).
    pub fn pynq_z2(name: &str) -> Self {
        BoardSpec {
            name: name.to_owned(),
            device: Device::PYNQ_Z2,
            clock_hz: 100_000_000,
        }
    }
}

/// Fleet partitioning parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The boards available to the fleet, in stable index order.
    pub boards: Vec<BoardSpec>,
    /// Per-model throughput-target ladder handed to every shard's
    /// folding-budget allocator (see [`PlanConfig::fps_ladder`]).
    pub fps_ladder: Vec<f64>,
    /// Admission control: at most this many models per board, bounding
    /// the per-board *service* load independently of the resource fit (a
    /// board can hold dozens of folded IPs it cannot serve at line rate
    /// under a per-message integration).
    pub max_models_per_board: Option<usize>,
}

impl FleetConfig {
    /// A fleet over `boards` with the default ladder and no model cap.
    pub fn new(boards: Vec<BoardSpec>) -> Self {
        FleetConfig {
            boards,
            fps_ladder: PlanConfig::default().fps_ladder,
            max_models_per_board: None,
        }
    }

    /// Sets the admission-control model cap (builder style).
    pub fn with_model_cap(mut self, cap: usize) -> Self {
        self.max_models_per_board = Some(cap);
        self
    }
}

fn shard_plan_config(spec: &BoardSpec, ladder: &[f64]) -> PlanConfig {
    PlanConfig {
        device: spec.device,
        clock_hz: spec.clock_hz,
        fps_ladder: ladder.to_vec(),
    }
}

/// One board's share of the fleet plan.
#[derive(Debug, Clone)]
pub struct FleetShard {
    /// The board this shard targets.
    pub spec: BoardSpec,
    /// Fleet-wide bundle indices assigned here, in assignment order.
    pub members: Vec<usize>,
    /// The shard's single-board plan (`None` for a spare board with no
    /// models — spare capacity is a legitimate migration target).
    pub plan: Option<DeploymentPlan>,
}

impl FleetShard {
    /// Summed planned resources of this shard (zero when spare).
    pub fn resources(&self) -> ResourceEstimate {
        self.plan
            .as_ref()
            .map(|p| p.total_resources)
            .unwrap_or_default()
    }

    /// Peak device utilisation of this shard (zero when spare).
    pub fn utilization(&self) -> f64 {
        self.plan.as_ref().map_or(0.0, |p| p.utilization)
    }
}

/// A fitted fleet plan: every bundle placed on exactly one board, every
/// shard proven to fit its device by the single-board allocator.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Per-board shards, index-aligned with the config's board list.
    pub shards: Vec<FleetShard>,
    /// Board index per bundle, in bundle order.
    pub assignment: Vec<usize>,
}

impl FleetPlan {
    /// Partitions `bundles` across `config.boards`.
    ///
    /// Greedy, capacity-normalised: each bundle goes to the board with
    /// the lowest current peak utilisation that (a) has a free admission
    /// slot and (b) still yields a fitting [`DeploymentPlan`] with the
    /// bundle added — so a small PYNQ-Z2 saturates after a couple of
    /// models while a ZCU104 keeps absorbing, without hand-tuned
    /// weights. Re-planning the whole shard per placement keeps the
    /// fold-deeper ladder in play: a board may accept one more model by
    /// demoting an existing one.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyDeployment`] without bundles,
    /// [`CoreError::EmptyFleet`] without boards,
    /// [`CoreError::FleetOverflow`] when a bundle fits no board (the
    /// closest-fit board's shortfall is reported; `resource == "SLOTS"`
    /// when every board is at the admission cap); lowering errors
    /// otherwise.
    pub fn build(bundles: &[DetectorBundle], config: &FleetConfig) -> Result<Self, CoreError> {
        if bundles.is_empty() {
            return Err(CoreError::EmptyDeployment);
        }
        if config.boards.is_empty() {
            return Err(CoreError::EmptyFleet);
        }
        let m = config.boards.len();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut plans: Vec<Option<DeploymentPlan>> = vec![None; m];
        let mut assignment = vec![0usize; bundles.len()];

        for (i, bundle) in bundles.iter().enumerate() {
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&a, &b| {
                let ua = plans[a].as_ref().map_or(0.0, |p| p.utilization);
                let ub = plans[b].as_ref().map_or(0.0, |p| p.utilization);
                ua.total_cmp(&ub).then(a.cmp(&b))
            });

            // Closest rejection across boards, for the typed overflow —
            // ranked by *relative* shortfall (required/capacity), since
            // absolute gaps are incomparable across resource classes
            // (2 BRAM36 short is much further from fitting than 500 LUTs
            // short).
            let mut best_reject: Option<(f64, &'static str, u64, u64)> = None;
            let mut placed = false;
            for &b in &order {
                if let Some(cap) = config.max_models_per_board {
                    if members[b].len() >= cap {
                        continue;
                    }
                }
                // Re-planning the whole shard per trial clones the
                // member models (IntegerMlp weights) — O(N²·M) clones
                // over a build. Fleets are tens of models on a handful
                // of boards, and the clones are a few KB each; keeping
                // the single-board allocator as the one source of fit
                // truth is worth far more than the copies.
                let trial: Vec<DetectorBundle> = members[b]
                    .iter()
                    .map(|&j| bundles[j].clone())
                    .chain(std::iter::once(bundle.clone()))
                    .collect();
                match DeploymentPlan::build(
                    &trial,
                    &shard_plan_config(&config.boards[b], &config.fps_ladder),
                ) {
                    Ok(plan) => {
                        members[b].push(i);
                        plans[b] = Some(plan);
                        assignment[i] = b;
                        placed = true;
                        break;
                    }
                    Err(CoreError::PlanOverflow {
                        resource,
                        required,
                        capacity,
                        ..
                    }) => {
                        let over = required as f64 / capacity.max(1) as f64;
                        if best_reject.is_none_or(|(o, ..)| over < o) {
                            best_reject = Some((over, resource, required, capacity));
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            if !placed {
                let (resource, required, capacity) = match best_reject {
                    Some((_, r, req, cap)) => (r, req, cap),
                    // Every board skipped at the admission cap.
                    None => {
                        let cap = config.max_models_per_board.unwrap_or(0) as u64;
                        ("SLOTS", cap + 1, cap)
                    }
                };
                return Err(CoreError::FleetOverflow {
                    detector: i,
                    name: format!("{}-ids", bundle.kind.slug()),
                    boards: m,
                    resource,
                    required,
                    capacity,
                });
            }
        }

        let shards = config
            .boards
            .iter()
            .zip(members)
            .zip(plans)
            .map(|((spec, members), plan)| FleetShard {
                spec: spec.clone(),
                members,
                plan,
            })
            .collect();
        Ok(FleetPlan { shards, assignment })
    }

    /// Detectors placed.
    pub fn models(&self) -> usize {
        self.assignment.len()
    }

    /// Boards carrying at least one model.
    pub fn occupied_boards(&self) -> usize {
        self.shards.iter().filter(|s| !s.members.is_empty()).count()
    }

    /// Worst per-board peak utilisation across the fleet.
    pub fn max_utilization(&self) -> f64 {
        self.shards
            .iter()
            .map(FleetShard::utilization)
            .fold(0.0, f64::max)
    }

    /// Compiles every shard through the single-board engine
    /// (model-parallel within each shard) and returns the serving-ready
    /// fleet.
    ///
    /// # Panics
    ///
    /// Panics when `bundles` is not the slice the plan was built from
    /// (length mismatch).
    ///
    /// # Errors
    ///
    /// Per-shard compilation and identity errors (see
    /// [`DeploymentPlan::deploy`]).
    pub fn deploy(
        &self,
        bundles: &[DetectorBundle],
        base: &CompileConfig,
    ) -> Result<FleetDeployment, CoreError> {
        assert_eq!(
            bundles.len(),
            self.assignment.len(),
            "fleet plan was built from a different bundle set"
        );
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let sub: Vec<DetectorBundle> =
                shard.members.iter().map(|&i| bundles[i].clone()).collect();
            let (ips, kinds) = match &shard.plan {
                Some(plan) => {
                    let d = plan.deploy(&sub, base)?;
                    (d.ips, d.kinds)
                }
                None => (Vec::new(), Vec::new()),
            };
            shards.push(ShardDeployment {
                spec: shard.spec.clone(),
                members: shard.members.clone(),
                plan: shard.plan.clone(),
                kinds,
                ips,
            });
        }
        let mut locations = vec![
            Slot {
                shard: usize::MAX,
                local: usize::MAX,
            };
            bundles.len()
        ];
        for (s, shard) in shards.iter().enumerate() {
            for (local, &fleet_idx) in shard.members.iter().enumerate() {
                locations[fleet_idx] = Slot { shard: s, local };
            }
        }
        Ok(FleetDeployment { shards, locations })
    }
}

/// One board's compiled share of the fleet.
#[derive(Debug, Clone)]
pub struct ShardDeployment {
    /// The board this shard runs on.
    pub spec: BoardSpec,
    /// Fleet-wide bundle indices, aligned with `ips`.
    pub members: Vec<usize>,
    /// The shard's plan (`None` for a spare board).
    pub plan: Option<DeploymentPlan>,
    /// Attack kind per compiled IP.
    pub kinds: Vec<AttackKind>,
    /// The compiled IPs, in member order.
    pub ips: Vec<AcceleratorIp>,
}

/// Where a model runs: board index + accelerator index on that board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Shard (board) index.
    pub shard: usize,
    /// Accelerator index on that board's ECU.
    pub local: usize,
}

/// A compiled fleet: per-shard IPs plus the model→slot map. ECUs are
/// built fresh per replay (the simulated board clock is monotonic), so
/// one deployment serves any number of scenario/policy replays — in
/// parallel, since only plain compiled artifacts are shared.
#[derive(Debug, Clone)]
pub struct FleetDeployment {
    /// Per-board shards, index-aligned with the plan's board list.
    pub shards: Vec<ShardDeployment>,
    /// Home slot per fleet model, in bundle order.
    pub locations: Vec<Slot>,
}

impl FleetDeployment {
    /// Total detectors across the fleet.
    pub fn models(&self) -> usize {
        self.locations.len()
    }

    /// A serving backend over this fleet for the unified harness
    /// ([`crate::serve::ServeHarness`]): every replay session builds
    /// fresh per-shard ECUs, so one deployment supports any number of
    /// replays.
    pub fn serve_backend(&self) -> FleetBackend<'_> {
        FleetBackend::new(self)
    }
}

/// Pre-provisions warm standby copies for [`AdmissionPolicy::Rebalance`]:
/// each model gets at most one standby, on the board (≠ home) whose
/// *true* resource remainder best absorbs the IP. Models that fit
/// nowhere simply have no standby (migration falls back to shedding).
pub(crate) fn place_standbys(
    deployment: &FleetDeployment,
    priorities: &[u32],
) -> (Vec<Vec<AcceleratorIp>>, Vec<Option<Slot>>) {
    let m = deployment.shards.len();
    let mut extra_ips: Vec<Vec<AcceleratorIp>> = vec![Vec::new(); m];
    let mut extra_res: Vec<ResourceEstimate> = vec![ResourceEstimate::default(); m];
    let mut standby: Vec<Option<Slot>> = vec![None; deployment.locations.len()];

    // Lowest-priority models migrate first, so they get standbys first.
    let mut order: Vec<usize> = (0..deployment.locations.len()).collect();
    order.sort_by_key(|&i| (priorities[i], std::cmp::Reverse(i)));
    for model in order {
        let home = deployment.locations[model];
        let ip = &deployment.shards[home.shard].ips[home.local];
        let need = ip.resources();
        let mut best: Option<(f64, usize)> = None;
        for (b, shard) in deployment.shards.iter().enumerate() {
            if b == home.shard {
                continue;
            }
            let used = shard
                .plan
                .as_ref()
                .map(|p| p.total_resources)
                .unwrap_or_default()
                + extra_res[b]
                + need;
            if shard.spec.device.first_overflow(used).is_some() {
                continue;
            }
            let frac = shard.spec.device.utilization(used).max_fraction();
            if best.is_none_or(|(f, _)| frac < f) {
                best = Some((frac, b));
            }
        }
        if let Some((_, b)) = best {
            let local = deployment.shards[b].ips.len() + extra_ips[b].len();
            extra_ips[b].push(ip.clone());
            extra_res[b] += need;
            standby[model] = Some(Slot { shard: b, local });
        }
    }
    (extra_ips, standby)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::frame::{CanFrame, CanId};
    use canids_dataset::generator::{DatasetBuilder, TrafficConfig};
    use canids_dataset::record::{Label, LabeledFrame};
    use canids_qnn::prelude::*;

    use canids_can::time::SimTime;
    use canids_dataset::generator::Dataset;
    use canids_soc::ecu::{EcuConfig, SchedPolicy};

    use crate::serve::{Pacing, ReplayConfig, ServeHarness, ServeReport};

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

    fn hetero_fleet() -> FleetConfig {
        FleetConfig::new(vec![
            BoardSpec::zcu104("zcu-a"),
            BoardSpec::ultra96("u96-a"),
            BoardSpec::pynq_z2("pynq-a"),
        ])
    }

    /// A capture with explicit pacing: `burst` frames every
    /// `burst_gap_us`, then `quiet` frames every `quiet_gap_us`.
    fn two_phase_capture(
        burst: usize,
        burst_gap_us: u64,
        quiet: usize,
        quiet_gap_us: u64,
    ) -> Dataset {
        let mut records = Vec::with_capacity(burst + quiet);
        let mut t = SimTime::ZERO;
        for i in 0..burst + quiet {
            let gap = if i < burst {
                burst_gap_us
            } else {
                quiet_gap_us
            };
            t += SimTime::from_micros(gap);
            let frame =
                CanFrame::new(CanId::standard(0x316).unwrap(), &[i.to_le_bytes()[0]; 8]).unwrap();
            records.push(LabeledFrame::new(t, frame, Label::Normal));
        }
        Dataset::from_records(records)
    }

    #[test]
    fn plan_places_every_model_and_every_shard_fits() {
        let bs = bundles(6);
        let plan = FleetPlan::build(&bs, &hetero_fleet()).unwrap();
        assert_eq!(plan.models(), 6);
        assert_eq!(plan.shards.len(), 3);
        let mut placed: Vec<usize> = plan
            .shards
            .iter()
            .flat_map(|s| s.members.iter().copied())
            .collect();
        placed.sort_unstable();
        assert_eq!(placed, (0..6).collect::<Vec<_>>(), "exact partition");
        for shard in &plan.shards {
            if let Some(p) = &shard.plan {
                assert!(
                    shard
                        .spec
                        .device
                        .first_overflow(p.total_resources)
                        .is_none(),
                    "{} overflows",
                    shard.spec.name
                );
                assert_eq!(p.models.len(), shard.members.len());
            } else {
                assert!(shard.members.is_empty());
            }
        }
        // Capacity-normalised balance: the big ZCU104 carries at least as
        // many models as the small PYNQ-Z2.
        assert!(plan.shards[0].members.len() >= plan.shards[2].members.len());
        assert!(plan.max_utilization() > 0.0);
    }

    #[test]
    fn model_cap_overflows_with_slots() {
        let bs = bundles(5);
        let config = FleetConfig::new(vec![BoardSpec::zcu104("a"), BoardSpec::zcu104("b")])
            .with_model_cap(2);
        let err = FleetPlan::build(&bs, &config).unwrap_err();
        match err {
            CoreError::FleetOverflow {
                detector,
                boards,
                resource,
                required,
                capacity,
                ..
            } => {
                assert_eq!(detector, 4, "fifth model finds both boards capped");
                assert_eq!(boards, 2);
                assert_eq!(resource, "SLOTS");
                assert!(required > capacity);
            }
            other => panic!("expected FleetOverflow, got {other:?}"),
        }
        // Four models fit exactly, two per board.
        let plan = FleetPlan::build(&bundles(4), &config).unwrap();
        assert!(plan.shards.iter().all(|s| s.members.len() == 2));
    }

    #[test]
    fn resource_overflow_names_closest_fit_shortfall() {
        let toy = Device {
            name: "toy",
            luts: 4_000,
            ffs: 8_000,
            bram36: 4,
            dsps: 8,
        };
        let boards = vec![
            BoardSpec {
                name: "toy-a".to_owned(),
                device: toy,
                clock_hz: 100_000_000,
            },
            BoardSpec {
                name: "toy-b".to_owned(),
                device: toy,
                clock_hz: 100_000_000,
            },
        ];
        // One model per toy board fits (≈99 % LUT); the third fits
        // neither, even fold-deepest.
        let err = FleetPlan::build(&bundles(3), &FleetConfig::new(boards)).unwrap_err();
        match err {
            CoreError::FleetOverflow {
                detector,
                resource,
                required,
                capacity,
                ..
            } => {
                assert_eq!(detector, 2);
                assert_ne!(resource, "SLOTS");
                assert!(required > capacity, "{required} !> {capacity}");
            }
            other => panic!("expected FleetOverflow, got {other:?}"),
        }
    }

    #[test]
    fn spare_boards_stay_spare() {
        let plan = FleetPlan::build(
            &bundles(1),
            &FleetConfig::new(vec![BoardSpec::zcu104("a"), BoardSpec::zcu104("b")]),
        )
        .unwrap();
        assert_eq!(plan.shards[0].members, vec![0]);
        assert!(plan.shards[1].members.is_empty());
        assert!(plan.shards[1].plan.is_none());
        assert_eq!(plan.shards[1].resources(), ResourceEstimate::default());
        assert_eq!(plan.occupied_boards(), 1);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(matches!(
            FleetPlan::build(&[], &hetero_fleet()),
            Err(CoreError::EmptyDeployment)
        ));
        assert!(matches!(
            FleetPlan::build(&bundles(1), &FleetConfig::new(Vec::new())),
            Err(CoreError::EmptyFleet)
        ));
    }

    #[test]
    fn priorities_must_cover_every_model() {
        let bs = bundles(2);
        let plan = FleetPlan::build(&bs, &hetero_fleet()).unwrap();
        let deployment = plan.deploy(&bs, &CompileConfig::default()).unwrap();
        let capture = two_phase_capture(5, 500, 0, 0);
        let err = ServeHarness::new(deployment.serve_backend())
            .replay(
                &capture,
                &ReplayConfig::default().with_admission(AdmissionPolicy::ShedLowestValue {
                    priorities: vec![1],
                }),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::PriorityMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn fleet_replay_accounts_every_frame_per_board() {
        let bs = bundles(3);
        let plan = FleetPlan::build(&bs, &hetero_fleet()).unwrap();
        let deployment = plan.deploy(&bs, &CompileConfig::default()).unwrap();
        let capture = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(120),
            seed: 0xF1EE7,
            ..TrafficConfig::default()
        })
        .build();
        let config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });
        let report = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &config)
            .unwrap();
        assert_eq!(report.offered, capture.len());
        assert_eq!(report.boards.len(), 3);
        assert_eq!(report.dropped, 0, "DMA batch absorbs 1 Mb/s per shard");
        assert_eq!(report.fully_covered, report.offered);
        assert_eq!(report.verdicts.len(), report.offered);
        assert!(report.keeps_up());
        assert!(report.events.is_empty(), "DropFrames never acts");
        for b in &report.boards {
            assert_eq!(b.offered, report.offered);
            assert_eq!(b.serviced + b.dropped as usize, b.offered);
            assert!(b.energy.expect("fleet boards meter energy").mean_power_w > 0.0);
            assert!(b.latency.p50 <= b.latency.p99);
        }
        // Gateway coupling is not free: every fleet verdict pays at least
        // the store-and-forward delay plus the far-segment wire time.
        assert!(
            report.latency.p50 > config.gateway_delay,
            "p50 {} must exceed the forwarding floor",
            report.latency.p50
        );
        assert!(report.latency.p99 <= report.latency.max);
        assert!(report.offered_fps > 1_000.0, "saturated pacing");
    }

    #[test]
    fn fleet_telemetry_traces_gateway_hops_and_admission_events() {
        use crate::telemetry::{Counter, Stage, TelemetryConfig};

        // Gateway hops: every offered frame crosses the backbone ->
        // board gateway once per replay, stamped on the virtual clock.
        let bs = bundles(3);
        let plan = FleetPlan::build(&bs, &hetero_fleet()).unwrap();
        let deployment = plan.deploy(&bs, &CompileConfig::default()).unwrap();
        let capture = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(120),
            seed: 0xF1EE7,
            ..TrafficConfig::default()
        })
        .build();
        let config = ReplayConfig::default()
            .with_policy(SchedPolicy::DmaBatch { batch: 32 })
            .with_telemetry(TelemetryConfig::default());
        let report = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &config)
            .unwrap();
        let t = report.telemetry.as_ref().unwrap();
        let hops = t.stage_stats(Stage::GatewayHop);
        assert_eq!(
            hops.count as usize,
            capture.len() * report.boards.len(),
            "one hop span per frame per board shard"
        );
        assert!(hops.mean_ns > 0.0, "forwarding is never free");

        // Admission decisions: the shed/readmit cycle lands in the
        // counters and as zero-width spans at the decision instants.
        let bs2 = bundles(2);
        let plan2 =
            FleetPlan::build(&bs2, &FleetConfig::new(vec![BoardSpec::zcu104("solo")])).unwrap();
        let deployment2 = plan2.deploy(&bs2, &CompileConfig::default()).unwrap();
        let shed_capture = two_phase_capture(300, 150, 200, 1_000);
        let shed_config = ReplayConfig {
            pacing: Pacing::AsRecorded,
            admission: AdmissionPolicy::ShedLowestValue {
                priorities: vec![5, 1],
            },
            ecu: EcuConfig {
                policy: SchedPolicy::Sequential,
                ..EcuConfig::default()
            },
            ..ReplayConfig::default()
        }
        .with_telemetry(TelemetryConfig::default());
        let shed_report = ServeHarness::new(deployment2.serve_backend())
            .replay(&shed_capture, &shed_config)
            .unwrap();
        let st = shed_report.telemetry.as_ref().unwrap();
        assert_eq!(st.metrics.counter(Counter::AdmissionShed), 1);
        assert_eq!(st.metrics.counter(Counter::AdmissionReadmit), 1);
        let admission_spans: Vec<_> = st
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Admission)
            .collect();
        assert_eq!(admission_spans.len(), 2);
        let event_times: Vec<SimTime> = shed_report.events.iter().map(|e| e.time).collect();
        for s in &admission_spans {
            assert_eq!(s.start, s.end, "admission spans are instants");
            assert!(event_times.contains(&s.start), "span matches an event");
        }
    }

    #[test]
    fn shed_then_readmit_when_load_subsides() {
        // One ZCU104, two models, per-message sequential serving: the
        // 150 us burst overloads the 2-model service (~240 us/frame) but
        // is sustainable with one (~120 us/frame); the quiet tail lets
        // the shard re-admit.
        let bs = bundles(2);
        let plan =
            FleetPlan::build(&bs, &FleetConfig::new(vec![BoardSpec::zcu104("solo")])).unwrap();
        let deployment = plan.deploy(&bs, &CompileConfig::default()).unwrap();
        let capture = two_phase_capture(300, 150, 200, 1_000);
        let config = ReplayConfig {
            pacing: Pacing::AsRecorded,
            admission: AdmissionPolicy::ShedLowestValue {
                priorities: vec![5, 1],
            },
            ecu: EcuConfig {
                policy: SchedPolicy::Sequential,
                ..EcuConfig::default()
            },
            ..ReplayConfig::default()
        };
        let report = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &config)
            .unwrap();
        assert_eq!(report.dropped, 0, "shedding must prevent FIFO drops");
        let sheds: Vec<&FleetEvent> = report
            .events
            .iter()
            .filter(|e| e.action == FleetAction::Shed)
            .collect();
        let readmits: Vec<&FleetEvent> = report
            .events
            .iter()
            .filter(|e| e.action == FleetAction::Readmit)
            .collect();
        assert_eq!(
            sheds.len(),
            1,
            "one shed rides out the burst: {:?}",
            report.events
        );
        assert_eq!(
            readmits.len(),
            1,
            "quiet tail re-admits: {:?}",
            report.events
        );
        assert_eq!(sheds[0].model, 1, "the lowest-priority model sheds");
        assert_eq!(readmits[0].model, 1);
        assert!(sheds[0].time < readmits[0].time);
        assert_eq!(report.verdicts.len(), report.offered);
    }

    #[test]
    fn rebalance_migrates_to_the_spare_board() {
        // Two boards, both models homed on the first; the second is
        // spare. Under the same overload the rebalancer moves the
        // lowest-priority model to the spare board's warm standby instead
        // of shedding it.
        let bs = bundles(2);
        let plan = FleetPlan::build(
            &bs,
            &FleetConfig::new(vec![BoardSpec::zcu104("busy"), BoardSpec::zcu104("spare")])
                .with_model_cap(2),
        )
        .unwrap();
        // The greedy partitioner spreads 2 models over 2 empty boards, so
        // force co-location through a single-board plan first.
        let colocated =
            FleetPlan::build(&bs, &FleetConfig::new(vec![BoardSpec::zcu104("busy")])).unwrap();
        let mut shards = colocated.shards;
        shards.push(FleetShard {
            spec: BoardSpec::zcu104("spare"),
            members: Vec::new(),
            plan: None,
        });
        let forced = FleetPlan {
            shards,
            assignment: colocated.assignment,
        };
        drop(plan);
        let deployment = forced.deploy(&bs, &CompileConfig::default()).unwrap();
        assert_eq!(deployment.shards[0].ips.len(), 2);
        assert!(deployment.shards[1].ips.is_empty());

        let capture = two_phase_capture(300, 150, 100, 1_000);
        let config = ReplayConfig {
            pacing: Pacing::AsRecorded,
            admission: AdmissionPolicy::Rebalance {
                priorities: vec![5, 1],
            },
            ecu: EcuConfig {
                policy: SchedPolicy::Sequential,
                ..EcuConfig::default()
            },
            ..ReplayConfig::default()
        };
        let report = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &config)
            .unwrap();
        assert_eq!(report.dropped, 0, "migration must prevent FIFO drops");
        let migrations: Vec<&FleetEvent> = report
            .events
            .iter()
            .filter(|e| matches!(e.action, FleetAction::Migrate { .. }))
            .collect();
        assert_eq!(
            migrations.len(),
            1,
            "one migration settles the fleet: {:?}",
            report.events
        );
        assert_eq!(migrations[0].model, 1, "the lowest-priority model moves");
        assert_eq!(migrations[0].board, 0);
        assert!(matches!(
            migrations[0].action,
            FleetAction::Migrate { to: 1 }
        ));
        assert_eq!(report.shed_count(), 0, "a fitting standby means no shed");
    }

    #[test]
    fn external_epoch_timestamps_and_duplicates_are_accounted_per_frame() {
        // External HCRL captures carry epoch-seconds timestamps and can
        // repeat a timestamp at microsecond precision: per-frame
        // accounting must stay keyed on the frame, and the offered load
        // must be computed over the capture's span, not absolute time.
        let bs = bundles(1);
        let plan =
            FleetPlan::build(&bs, &FleetConfig::new(vec![BoardSpec::zcu104("solo")])).unwrap();
        let deployment = plan.deploy(&bs, &CompileConfig::default()).unwrap();
        let epoch = SimTime::from_secs_f64(1_478_198_376.389_427);
        let frame = CanFrame::new(CanId::standard(0x316).unwrap(), &[1u8; 8]).unwrap();
        let records: Vec<LabeledFrame> = [0u64, 1_000, 1_000, 2_000]
            .iter()
            .map(|&us| LabeledFrame::new(epoch + SimTime::from_micros(us), frame, Label::Normal))
            .collect();
        let capture = Dataset::from_records(records);
        let report = ServeHarness::new(deployment.serve_backend())
            .replay(
                &capture,
                &ReplayConfig::default().with_pacing(Pacing::AsRecorded),
            )
            .unwrap();
        assert_eq!(report.offered, 4);
        assert_eq!(report.dropped, 0);
        // The two equal-timestamp frames stay separate entries.
        assert_eq!(report.verdicts.len(), 4);
        assert_eq!(report.fully_covered, 4);
        // 4 frames over a 2 ms span, not over 1.5 billion seconds.
        assert!(
            (1_000.0..4_000.0).contains(&report.offered_fps),
            "offered_fps {}",
            report.offered_fps
        );
    }

    #[test]
    fn policy_sweep_returns_reports_in_order() {
        let bs = bundles(2);
        let plan = FleetPlan::build(
            &bs,
            &FleetConfig::new(vec![BoardSpec::zcu104("a"), BoardSpec::ultra96("b")]),
        )
        .unwrap();
        let deployment = plan.deploy(&bs, &CompileConfig::default()).unwrap();
        let capture = two_phase_capture(60, 500, 0, 0);
        let base = ReplayConfig::default().with_pacing(Pacing::AsRecorded);
        let shed = base
            .clone()
            .with_admission(AdmissionPolicy::ShedLowestValue {
                priorities: vec![1, 2],
            });
        let reports: Vec<ServeReport> = [base, shed]
            .iter()
            .map(|config| {
                ServeHarness::new(deployment.serve_backend())
                    .replay(&capture, config)
                    .unwrap()
            })
            .collect();
        assert_eq!(reports[0].admission, "drop-frames");
        assert_eq!(reports[1].admission, "shed-lowest-value");
        // Identical serving conditions, no overload: classifications and
        // headline accounting agree.
        assert_eq!(reports[0].offered, reports[1].offered);
        assert_eq!(reports[0].verdicts, reports[1].verdicts);
        assert_eq!(
            ServeReport::table_header().len(),
            reports[0].table_row().len()
        );
    }
}
