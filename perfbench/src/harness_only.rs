//! A serving backend that does no serving: every pushed frame is admitted
//! and answered at once with an unflagged verdict. Replaying a capture
//! through it costs pacing plus the harness's own bookkeeping (arrival
//! ledger, admission governor, per-shard verdict fusion, in-order
//! emission) over the real workload's topology, which is how the
//! benchmark times the `core::serve` layer from outside the crate.

use canids_core::serve::{
    ServeBackend, ServeSession, ServeTopology, ShardPush, ShardTotals, ShardVerdict,
};
use canids_core::{CoreError, ReplayConfig};
use canids_dataset::record::LabeledFrame;

/// The bookkeeping-only backend over a given topology.
#[derive(Debug, Clone)]
pub struct HarnessOnly {
    topology: ServeTopology,
}

impl HarnessOnly {
    /// A backend shaped like `topology` (shards, models, slots).
    pub fn new(topology: ServeTopology) -> Self {
        HarnessOnly { topology }
    }
}

impl ServeBackend for HarnessOnly {
    type Session<'s> = HarnessOnlySession;

    fn label(&self) -> String {
        "harness-only".to_owned()
    }

    fn models(&self) -> usize {
        self.topology.models
    }

    fn open(&mut self, _config: &ReplayConfig) -> Result<HarnessOnlySession, CoreError> {
        let shards = self.topology.shards();
        // Every homed model is consulted, as on the real backend when
        // no admission event fires.
        let masks = (0..shards)
            .map(|s| match self.topology.shard_models[s] {
                64.. => u64::MAX,
                n => (1u64 << n) - 1,
            })
            .collect();
        Ok(HarnessOnlySession {
            topology: self.topology.clone(),
            masks,
            pending: Vec::new(),
            serviced: vec![0; shards],
        })
    }
}

/// An open [`HarnessOnly`] session.
#[derive(Debug)]
pub struct HarnessOnlySession {
    topology: ServeTopology,
    masks: Vec<u64>,
    pending: Vec<ShardVerdict>,
    serviced: Vec<usize>,
}

impl ServeSession for HarnessOnlySession {
    fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    fn push_shard(
        &mut self,
        shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError> {
        self.serviced[shard] += 1;
        self.pending.push(ShardVerdict {
            shard,
            ordinal,
            completed_at: rec.timestamp,
            flagged: false,
            model_flags: 0,
            active_mask: self.masks[shard],
        });
        Ok(ShardPush {
            delivered: rec.timestamp,
            admitted: true,
        })
    }

    fn drain_verdicts(&mut self, _shard: usize, out: &mut Vec<ShardVerdict>) {
        out.append(&mut self.pending);
    }

    fn backlog(&self, _shard: usize) -> usize {
        0
    }

    fn active_models(&self, shard: usize) -> usize {
        self.topology.shard_models[shard]
    }

    fn set_slot_active(&mut self, _slot: canids_core::fleet::Slot, _active: bool) {}

    fn finish(self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
        let mut pending = self.pending;
        out.append(&mut pending);
        Ok(self
            .serviced
            .into_iter()
            .map(|serviced| ShardTotals {
                dropped: 0,
                serviced,
                energy: None,
                busy_wall: None,
            })
            .collect())
    }
}
