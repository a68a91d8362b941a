//! Load-driven rebalancing: watch per-shard request counts, detect a
//! hot machine, and repack shards across replicas with live migration.
//!
//! The planner is deliberately boring: longest-processing-time (LPT)
//! greedy repack. Sort shards by observed load, place each on the
//! replica with the least assigned load so far, preferring the current
//! owner on ties (a shard that need not move, should not move). LPT is
//! within 4/3 of the optimal makespan, fully deterministic, and every
//! move it emits is a whole-shard migration — the unit the transfer
//! protocol ships.
//!
//! [`Rebalancer::rebalance`] wires the plan to an
//! [`ElasticCluster`]: read [`shard_loads`](ElasticCluster::shard_loads),
//! plan, then [`migrate`](ElasticCluster::migrate) each move. Run it
//! from a maintenance thread on a timer, or once after a skew report.

use crate::elastic::ElasticCluster;
use crate::migrate::MigrateError;
use amoeba_rpc::Client;

/// The shard repacking planner.
#[derive(Debug, Clone, Copy)]
pub struct Rebalancer {
    /// Imbalance trigger: plan only if the hottest replica carries
    /// more than `threshold ×` the mean replica load. Default 1.25.
    pub threshold: f64,
}

impl Default for Rebalancer {
    fn default() -> Rebalancer {
        Rebalancer { threshold: 1.25 }
    }
}

impl Rebalancer {
    /// A planner triggering at `threshold ×` the mean replica load.
    pub fn new(threshold: f64) -> Rebalancer {
        Rebalancer { threshold }
    }

    /// Plans moves for `loads[shard]` observed requests currently
    /// placed per `owner[shard]` across `replicas` machines. Returns
    /// `(shard, new_owner)` for every shard the LPT repack relocates —
    /// empty when the cluster is already balanced (hottest replica
    /// within `threshold ×` the mean) or the inputs are degenerate.
    pub fn plan(&self, loads: &[u64], owner: &[usize], replicas: usize) -> Vec<(usize, usize)> {
        if replicas < 2 || loads.is_empty() || loads.len() != owner.len() {
            return Vec::new();
        }
        let mut replica_load = vec![0u64; replicas];
        for (s, &load) in loads.iter().enumerate() {
            if owner[s] >= replicas {
                return Vec::new();
            }
            replica_load[owner[s]] += load;
        }
        let total: u64 = replica_load.iter().sum();
        let max = replica_load.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / replicas as f64;
        if total == 0 || (max as f64) <= mean * self.threshold {
            return Vec::new();
        }
        // LPT repack: heaviest shard first onto the least-loaded
        // replica. Stable order (by shard index on equal load) keeps
        // the plan deterministic for a given load vector.
        let mut shards: Vec<usize> = (0..loads.len()).collect();
        shards.sort_by_key(|&s| std::cmp::Reverse(loads[s]));
        let mut assigned = vec![0u64; replicas];
        let mut plan = Vec::new();
        for s in shards {
            let min = assigned.iter().copied().min().unwrap_or(0);
            // Prefer the current owner among the least-loaded
            // replicas; otherwise the lowest index — sticky and
            // deterministic.
            let to = if assigned[owner[s]] == min {
                owner[s]
            } else {
                (0..replicas)
                    .find(|&r| assigned[r] == min)
                    .expect("replicas is non-zero")
            };
            assigned[to] += loads[s];
            if to != owner[s] {
                plan.push((s, to));
            }
        }
        plan
    }

    /// Reads the cluster's current per-shard loads, plans, and applies
    /// every move via live migration. Returns the moves performed
    /// (empty when balanced).
    ///
    /// # Errors
    /// The first [`MigrateError`]; earlier moves stay in effect and
    /// the cluster remains fully serviceable.
    pub fn rebalance(
        &self,
        cluster: &ElasticCluster,
        client: &Client,
    ) -> Result<Vec<(usize, usize)>, MigrateError> {
        let loads = cluster.shard_loads();
        let owner = cluster.owners();
        let plan = self.plan(&loads, &owner, cluster.replicas());
        for &(shard, to) in &plan {
            cluster.migrate(client, shard, to)?;
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_load_plans_nothing() {
        let r = Rebalancer::default();
        let loads = vec![10; 16];
        let owner: Vec<usize> = (0..16).map(|s| s % 4).collect();
        assert!(r.plan(&loads, &owner, 4).is_empty());
    }

    #[test]
    fn zero_load_plans_nothing() {
        let r = Rebalancer::default();
        let owner: Vec<usize> = (0..16).map(|s| s % 4).collect();
        assert!(r.plan(&[0; 16], &owner, 4).is_empty());
    }

    #[test]
    fn single_replica_plans_nothing() {
        let r = Rebalancer::default();
        assert!(r.plan(&[100, 1, 1, 1], &[0, 0, 0, 0], 1).is_empty());
    }

    #[test]
    fn skew_on_one_replica_spreads_out() {
        // Replica 0 owns the four hottest shards (the Zipf-head shape
        // a hot tenant set produces); everyone else is cold.
        let r = Rebalancer::default();
        let mut loads = vec![1u64; 16];
        let owner: Vec<usize> = (0..16).map(|s| s % 4).collect();
        // Shards 0,4,8,12 → replica 0.
        loads[0] = 1000;
        loads[4] = 500;
        loads[8] = 330;
        loads[12] = 250;
        let plan = r.plan(&loads, &owner, 4);
        assert!(!plan.is_empty(), "skew must trigger a plan");
        // Apply and check the hottest replica is now near the mean.
        let mut new_owner = owner.clone();
        for &(s, to) in &plan {
            new_owner[s] = to;
        }
        let mut replica_load = vec![0u64; 4];
        for (s, &load) in loads.iter().enumerate() {
            replica_load[new_owner[s]] += load;
        }
        let total: u64 = loads.iter().sum();
        let mean = total as f64 / 4.0;
        let max = *replica_load.iter().max().unwrap() as f64;
        assert!(
            max <= mean * 2.0,
            "LPT should cut the hot replica down: {replica_load:?}"
        );
        // The four hot shards must no longer share an owner.
        let hot_owners: std::collections::HashSet<usize> =
            [0usize, 4, 8, 12].iter().map(|&s| new_owner[s]).collect();
        assert_eq!(hot_owners.len(), 4, "hot shards spread over all replicas");
    }

    #[test]
    fn plan_is_deterministic_and_sticky() {
        let r = Rebalancer::default();
        let mut loads = vec![5u64; 16];
        loads[3] = 900;
        loads[7] = 900;
        let owner: Vec<usize> = (0..16).map(|s| s % 2).collect();
        let a = r.plan(&loads, &owner, 2);
        let b = r.plan(&loads, &owner, 2);
        assert_eq!(a, b, "same inputs, same plan");
        // Shards whose owner already matches LPT's choice never move:
        // every planned move must actually change the owner.
        for &(s, to) in &a {
            assert_ne!(owner[s], to);
        }
    }

    #[test]
    fn degenerate_inputs_plan_nothing() {
        let r = Rebalancer::default();
        assert!(r.plan(&[], &[], 4).is_empty());
        assert!(r.plan(&[1, 2], &[0], 4).is_empty(), "length mismatch");
        assert!(r.plan(&[1, 2], &[0, 9], 4).is_empty(), "owner out of range");
    }
}
