//! Admission governance, harness-side: per-shard backlog hysteresis
//! that sheds, readmits and migrates models through the session's
//! activation interface, its event log, and the windowed value scorer
//! the population ledger shares.

use std::cmp::Reverse;
use std::collections::VecDeque;

use canids_can::time::SimTime;

use super::{AdmissionPolicy, OverloadThresholds, ReplayConfig, ServeSession, ServeTopology};
use crate::fleet::Slot;
use crate::telemetry::{Counter, Probe, Stage};

/// What an admission event did.
///
/// # Example
///
/// ```
/// use canids_core::serve::FleetAction;
///
/// assert_ne!(FleetAction::Shed, FleetAction::Readmit);
/// assert!(matches!(FleetAction::Migrate { to: 1 }, FleetAction::Migrate { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Model detached from its shard.
    Shed,
    /// Previously shed model re-admitted.
    Readmit,
    /// Model migrated to another board's warm standby.
    Migrate {
        /// Destination board index.
        to: usize,
    },
    /// The board's gateway went dark (event-driven transport fault):
    /// every frame arriving before `until` was dropped. For this
    /// variant `FleetEvent::model` carries no meaning and is 0.
    GatewayDark {
        /// End of the outage window (exclusive).
        until: SimTime,
    },
}

/// One admission-policy event during a replay.
///
/// # Example
///
/// ```
/// use canids_core::serve::{FleetAction, FleetEvent};
/// use canids_can::time::SimTime;
///
/// let e = FleetEvent {
///     time: SimTime::from_millis(3),
///     board: 0,
///     model: 5,
///     action: FleetAction::Shed,
/// };
/// assert_eq!(e.action, FleetAction::Shed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Board-local time the action was taken.
    pub time: SimTime,
    /// Board the overload was detected on.
    pub board: usize,
    /// Fleet model index acted on.
    pub model: usize,
    /// What happened.
    pub action: FleetAction,
}

/// Per-model replay bookkeeping: where the model may run and where it
/// currently runs (`None` while shed or mid-migration).
#[derive(Debug, Clone, Copy)]
struct ModelState {
    home: Slot,
    standby: Option<Slot>,
    serving: Option<Slot>,
}

impl ModelState {
    /// The slot a migration would move this model to, given where it
    /// currently serves.
    fn other_slot(&self, from: Slot) -> Option<Slot> {
        match self.standby {
            Some(sb) if sb != from => Some(sb),
            _ if self.home != from => Some(self.home),
            _ => None,
        }
    }
}

/// Per-shard overload detector state.
#[derive(Debug, Clone, Default)]
struct ShardCtl {
    hot: u32,
    cool: u32,
    /// Models shed from this shard: (fleet model, slot it served at).
    shed: Vec<(usize, Slot)>,
}

/// The victim ranking of a model or tenant: lower is shed first, higher
/// is readmitted first. Its parts are the windowed score, then the
/// static priority, then the index, where the younger (higher) index
/// ranks lower.
pub(crate) type ShedKey = (u64, u32, Reverse<usize>);

/// Windowed confirmed-positive scorer, one window per key: the models
/// of [`AdmissionPolicy::ShedLowestMeasuredValue`] and the tenants of
/// the population ledger's `ShedLowestValueTenant`. Each key expires its
/// hits against its own ordinal, so a key that is not expired (a shed
/// tenant) keeps its score frozen.
#[derive(Debug)]
pub(crate) struct ValueScore {
    window: usize,
    /// Per key, ordinals of recent confirmed positives (monotone).
    hits: Vec<VecDeque<usize>>,
}

impl ValueScore {
    /// A scorer over `keys` keys, counting hits over the last `window`
    /// ordinals (clamped to at least 1).
    pub(crate) fn new(window: usize, keys: usize) -> Self {
        ValueScore {
            window: window.max(1),
            hits: vec![VecDeque::new(); keys],
        }
    }

    /// Records a confirmed positive of `key` at `ordinal`.
    pub(crate) fn record(&mut self, key: usize, ordinal: usize) {
        self.hits[key].push_back(ordinal);
    }

    /// Expires `key`'s hits older than the window relative to `current`.
    pub(crate) fn expire(&mut self, key: usize, current: usize) {
        let dq = &mut self.hits[key];
        while dq.front().is_some_and(|&o| o + self.window <= current) {
            dq.pop_front();
        }
    }

    /// `key`'s confirmed positives inside the window.
    pub(crate) fn score(&self, key: usize) -> usize {
        self.hits[key].len()
    }

    /// `key`'s [`ShedKey`]: its score, then `priority`, then its index.
    pub(crate) fn rank(&self, key: usize, priority: u32) -> ShedKey {
        (self.score(key) as u64, priority, Reverse(key))
    }
}

/// The harness-side admission controller: watches per-shard backlog
/// hysteresis and sheds / re-admits / migrates models through the
/// session's activation interface, the same for every backend.
pub(super) struct AdmissionController {
    admission: AdmissionPolicy,
    priorities: Vec<u32>,
    thresholds: OverloadThresholds,
    migration_delay: SimTime,
    states: Vec<ModelState>,
    ctl: Vec<ShardCtl>,
    pending_activation: Vec<(SimTime, usize, Slot)>,
    /// Every shed, readmit and migrate so far, in decision order.
    pub(super) events: Vec<FleetEvent>,
    value: Option<ValueScore>,
    depths: Vec<usize>,
}

impl AdmissionController {
    pub(super) fn new(config: &ReplayConfig, topology: &ServeTopology) -> Self {
        let n = topology.models;
        let priorities = config
            .admission
            .priorities()
            .map(<[u32]>::to_vec)
            .unwrap_or_else(|| vec![0; n]);
        let value = match config.admission {
            AdmissionPolicy::ShedLowestMeasuredValue { window, .. } => {
                Some(ValueScore::new(window, n))
            }
            _ => None,
        };
        AdmissionController {
            admission: config.admission.clone(),
            priorities,
            thresholds: config.thresholds,
            migration_delay: config.migration_delay,
            states: topology
                .homes
                .iter()
                .zip(&topology.standbys)
                .map(|(&home, &standby)| ModelState {
                    home,
                    standby,
                    serving: Some(home),
                })
                .collect(),
            ctl: vec![ShardCtl::default(); topology.shards()],
            pending_activation: Vec::new(),
            events: Vec::new(),
            value,
            depths: topology.queue_depths.clone(),
        }
    }

    /// Completes due migrations: the standby goes live.
    pub(super) fn activate_due<S: ServeSession>(&mut self, arrival: SimTime, session: &mut S) {
        let states = &mut self.states;
        self.pending_activation.retain(|&(t, model, slot)| {
            if t <= arrival {
                session.set_slot_active(slot, true);
                states[model].serving = Some(slot);
                false
            } else {
                true
            }
        });
    }

    /// Records one shard verdict's contribution to the measured value
    /// scores (confirmed positives only).
    pub(super) fn observe(&mut self, model: usize, ordinal: usize, flagged: bool, truth: bool) {
        if let Some(value) = &mut self.value {
            if flagged && truth {
                value.record(model, ordinal);
            }
        }
    }

    /// Expires measured-value hits against the current frame ordinal.
    pub(super) fn tick(&mut self, current_ordinal: usize) {
        if let Some(value) = &mut self.value {
            for model in 0..self.states.len() {
                value.expire(model, current_ordinal);
            }
        }
    }

    /// The (lower = shed first) victim ranking of a model. Static
    /// policies rank by priority with later duplicates first on ties —
    /// the measured policy ranks by windowed score, with static
    /// priority then index breaking ties.
    fn shed_key(&self, model: usize) -> ShedKey {
        let priority = self.priorities[model];
        match &self.value {
            Some(value) => value.rank(model, priority),
            None => (u64::from(priority), 0, Reverse(model)),
        }
    }

    /// Governs shard `b` after one arrival was delivered at `delivered`.
    pub(super) fn govern<S: ServeSession>(
        &mut self,
        b: usize,
        delivered: SimTime,
        session: &mut S,
    ) {
        if self.admission == AdmissionPolicy::DropFrames {
            return;
        }
        let th = self.thresholds;
        let frac = session.backlog(b) as f64 / self.depths[b] as f64;
        if frac >= th.high_frac {
            self.ctl[b].hot += 1;
            self.ctl[b].cool = 0;
        } else if frac <= th.low_frac {
            self.ctl[b].cool += 1;
            self.ctl[b].hot = 0;
        } else {
            self.ctl[b].hot = 0;
            self.ctl[b].cool = 0;
        }

        if self.ctl[b].hot >= th.shed_sustain {
            self.ctl[b].hot = 0;
            // Victim: the lowest-value model currently served here. A
            // shard never gives up its last model.
            let victim = self
                .states
                .iter()
                .enumerate()
                .filter_map(|(mdl, st)| match st.serving {
                    Some(sl) if sl.shard == b => Some((mdl, sl)),
                    _ => None,
                })
                .min_by_key(|&(mdl, _)| self.shed_key(mdl));
            let Some((victim, slot)) = victim else {
                return;
            };
            if session.active_models(b) <= 1 {
                return;
            }
            let migrate_to = if matches!(self.admission, AdmissionPolicy::Rebalance { .. }) {
                self.states[victim].other_slot(slot).filter(|dest| {
                    let dest_frac =
                        session.backlog(dest.shard) as f64 / self.depths[dest.shard] as f64;
                    dest_frac < th.high_frac
                })
            } else {
                None
            };
            session.set_slot_active(slot, false);
            self.states[victim].serving = None;
            match migrate_to {
                Some(dest) => {
                    self.pending_activation
                        .push((delivered + self.migration_delay, victim, dest));
                    self.events.push(FleetEvent {
                        time: delivered,
                        board: b,
                        model: victim,
                        action: FleetAction::Migrate { to: dest.shard },
                    });
                }
                None => {
                    self.ctl[b].shed.push((victim, slot));
                    self.events.push(FleetEvent {
                        time: delivered,
                        board: b,
                        model: victim,
                        action: FleetAction::Shed,
                    });
                }
            }
        } else if self.ctl[b].cool >= th.readmit_sustain {
            // Load has subsided: the most valuable shed model comes
            // back first. With none shed, there is nothing to do.
            let best = self.ctl[b]
                .shed
                .iter()
                .enumerate()
                .max_by_key(|&(_, &(mdl, _))| self.shed_key(mdl));
            let Some((pos, _)) = best else {
                return;
            };
            self.ctl[b].cool = 0;
            let (model, slot) = self.ctl[b].shed.remove(pos);
            session.set_slot_active(slot, true);
            self.states[model].serving = Some(slot);
            self.events.push(FleetEvent {
                time: delivered,
                board: b,
                model,
                action: FleetAction::Readmit,
            });
        }
    }
}

/// Counts freshly emitted admission-policy events on the telemetry
/// probe and stamps each as a zero-width [`Stage::Admission`] span at
/// its decision time.
pub(super) fn note_admission_events(probe: &Probe, shard: u32, fresh: &[FleetEvent]) {
    for event in fresh {
        let counter = match event.action {
            FleetAction::Shed => Counter::AdmissionShed,
            FleetAction::Readmit => Counter::AdmissionReadmit,
            FleetAction::Migrate { .. } => Counter::AdmissionMigrate,
            FleetAction::GatewayDark { .. } => continue,
        };
        probe.inc(counter);
        probe.record(shard, Stage::Admission, event.time, event.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_score_window_expires_old_hits() {
        // The model controller expires every key against the frame
        // ordinal; the tenant ledger expires only the tenant it serves
        // (key 0 here), so key 1, a shed tenant, keeps its hit frozen.
        for ledger in [false, true] {
            let keys = if ledger { 1 } else { 2 };
            let mut score = ValueScore::new(10, 2);
            let expire = |score: &mut ValueScore, current| {
                (0..keys).for_each(|key| score.expire(key, current));
            };
            score.record(0, 0);
            score.record(0, 4);
            score.record(1, 5);
            expire(&mut score, 9);
            assert_eq!(score.score(0), 2, "both hits inside the window");
            expire(&mut score, 10);
            assert_eq!(score.score(0), 1, "ordinal 0 expired at 0 + 10 <= 10");
            expire(&mut score, 100);
            assert_eq!(score.score(0), 0);
            assert_eq!(score.score(1), usize::from(ledger), "ledger {ledger}");
        }
        // The shared key sheds the lower score first, then the lower
        // priority, then the higher index.
        let mut score = ValueScore::new(10, 3);
        score.record(1, 0);
        assert!(score.rank(0, 9) < score.rank(1, 0), "score first");
        assert!(score.rank(0, 1) < score.rank(2, 2), "then priority");
        assert!(score.rank(2, 1) < score.rank(0, 1), "then the higher index");
        // Degenerate window clamps to 1.
        let clamped = ValueScore::new(0, 1);
        assert_eq!(clamped.window, 1);
    }
}
