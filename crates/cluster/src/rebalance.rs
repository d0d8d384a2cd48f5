//! Workflow-aware rebalancing.
//!
//! §3.2: "It exposes workflow DAGs to the Cluster Manager, providing
//! visibility into completed and upcoming tasks. [...] For example, if no
//! workflows are expected to require a Speech-To-Text agent soon, it can
//! reallocate GPU resources from Whisper to Llama in anticipation of
//! increased demand."
//!
//! The [`Rebalancer`] is advisory: it looks at DAG lookahead (pending task
//! counts per capability) plus current endpoint placements and emits
//! [`RebalanceAction`]s. The runtime decides whether and when to apply
//! them — keeping policy (here) separate from mechanism (the manager).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use murakkab_agents::Capability;

/// DAG lookahead: pending task counts indexed by `capability as usize`.
pub type Upcoming = [usize; Capability::ALL.len()];

/// A deployed serving endpoint / resident agent, as the rebalancer sees it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EndpointView {
    /// Allocation label ("whisper", "nvlm-text", ...), shared with the
    /// deployment that owns it.
    pub label: Arc<str>,
    /// Capability it serves.
    pub capability: Capability,
    /// GPU units it holds.
    pub gpus: f64,
    /// Queued + running requests.
    pub load: usize,
}

/// A recommended resource move.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RebalanceAction {
    /// Release an idle agent's resources (no load, no upcoming demand).
    ReleaseIdle {
        /// The idle endpoint's label.
        label: Arc<str>,
    },
    /// Grow an overloaded endpoint using free GPUs.
    ScaleUp {
        /// The endpoint's label.
        label: Arc<str>,
        /// Additional GPU units to grant.
        add_gpus: f64,
    },
    /// Pre-provision an agent for upcoming demand that nothing serves yet.
    Prewarm {
        /// The capability about to be needed.
        capability: Capability,
        /// Pending task count driving the recommendation.
        upcoming: usize,
    },
}

/// Advisory rebalancing policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rebalancer {
    /// Queue length per held GPU above which an endpoint counts as
    /// overloaded.
    pub overload_per_gpu: f64,
}

impl Default for Rebalancer {
    fn default() -> Self {
        Rebalancer {
            overload_per_gpu: 4.0,
        }
    }
}

impl Rebalancer {
    /// Plans actions from the cluster's free GPU units (what
    /// [`ClusterManager::free_gpu_units`](crate::ClusterManager::free_gpu_units)
    /// reports), DAG lookahead and endpoint views.
    ///
    /// Deterministic: output ordering follows the inputs (endpoints in
    /// slice order, demand in `Capability` order).
    pub fn plan(
        &self,
        gpus_free: f64,
        upcoming: &Upcoming,
        endpoints: &[EndpointView],
    ) -> Vec<RebalanceAction> {
        let mut actions = Vec::new();
        let idle = |ep: &EndpointView| {
            ep.load == 0 && upcoming[ep.capability as usize] == 0 && ep.gpus > 0.0
        };

        // 1. Idle agents with no upcoming demand: release (the paper's
        //    Whisper example).
        for ep in endpoints.iter().filter(|ep| idle(ep)) {
            actions.push(RebalanceAction::ReleaseIdle {
                label: Arc::clone(&ep.label),
            });
        }

        // 2. Overloaded endpoints: grow into free GPUs (plus whatever the
        //    releases above will return to the pool).
        let releasable: f64 = endpoints
            .iter()
            .filter(|ep| idle(ep))
            .map(|ep| ep.gpus)
            .sum();
        let mut budget = gpus_free + releasable;
        for ep in endpoints {
            if ep.gpus == 0.0 {
                continue;
            }
            let load_per_gpu = ep.load as f64 / ep.gpus;
            if load_per_gpu > self.overload_per_gpu && budget >= 1.0 {
                let want = ((load_per_gpu / self.overload_per_gpu).ceil() - 1.0)
                    .max(1.0)
                    .min(budget.floor());
                actions.push(RebalanceAction::ScaleUp {
                    label: Arc::clone(&ep.label),
                    add_gpus: want,
                });
                budget -= want;
            }
        }

        // 3. Upcoming demand with no resident agent: prewarm.
        for cap in Capability::ALL {
            let count = upcoming[cap as usize];
            if count > 0 && !endpoints.iter().any(|ep| ep.capability == cap) {
                actions.push(RebalanceAction::Prewarm {
                    capability: cap,
                    upcoming: count,
                });
            }
        }

        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(label: &str, cap: Capability, gpus: f64, load: usize) -> EndpointView {
        EndpointView {
            label: label.into(),
            capability: cap,
            gpus,
            load,
        }
    }

    fn demand(counts: &[(Capability, usize)]) -> Upcoming {
        let mut upcoming = [0; Capability::ALL.len()];
        for &(cap, n) in counts {
            upcoming[cap as usize] = n;
        }
        upcoming
    }

    #[test]
    fn paper_example_whisper_to_llama() {
        // Whisper idle with no upcoming STT; NVLM overloaded. The plan
        // should release Whisper and scale up the LLM.
        let upcoming = demand(&[(Capability::Summarization, 24)]);
        let endpoints = vec![
            ep("whisper", Capability::SpeechToText, 1.0, 0),
            ep("nvlm-text", Capability::Summarization, 8.0, 48),
        ];
        let actions = Rebalancer::default().plan(0.0, &upcoming, &endpoints);
        assert!(actions.contains(&RebalanceAction::ReleaseIdle {
            label: "whisper".into()
        }));
        assert!(actions.iter().any(
            |a| matches!(a, RebalanceAction::ScaleUp { label, .. } if &**label == "nvlm-text")
        ));
    }

    #[test]
    fn busy_or_demanded_agents_are_kept() {
        let upcoming = demand(&[(Capability::SpeechToText, 4)]);
        let endpoints = vec![ep("whisper", Capability::SpeechToText, 1.0, 0)];
        let actions = Rebalancer::default().plan(2.0, &upcoming, &endpoints);
        assert!(actions.is_empty(), "{actions:?}");
        // Same if it is loaded rather than demanded.
        let endpoints = vec![ep("whisper", Capability::SpeechToText, 1.0, 2)];
        let actions = Rebalancer::default().plan(2.0, &demand(&[]), &endpoints);
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn no_budget_no_scaleup() {
        let endpoints = vec![ep("nvlm-text", Capability::Summarization, 8.0, 64)];
        let actions = Rebalancer::default().plan(0.0, &demand(&[]), &endpoints);
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn prewarm_for_unserved_demand() {
        let upcoming = demand(&[(Capability::Embedding, 16)]);
        let actions = Rebalancer::default().plan(4.0, &upcoming, &[]);
        assert_eq!(
            actions,
            vec![RebalanceAction::Prewarm {
                capability: Capability::Embedding,
                upcoming: 16
            }]
        );
    }

    #[test]
    fn scale_up_is_bounded_by_budget() {
        let endpoints = vec![ep("nvlm-text", Capability::Summarization, 2.0, 40)];
        let actions = Rebalancer::default().plan(3.0, &demand(&[]), &endpoints);
        let RebalanceAction::ScaleUp { add_gpus, .. } = &actions[0] else {
            panic!("expected scale-up, got {actions:?}");
        };
        assert!(*add_gpus >= 1.0 && *add_gpus <= 3.0);
    }

    #[test]
    fn action_counts_follow_free_gpus_alone() {
        // Three overloaded endpoints and one idle one: how many scale-ups
        // fit depends only on the free-GPU budget passed in.
        let upcoming = demand(&[(Capability::Summarization, 8)]);
        let endpoints = vec![
            ep("a", Capability::Summarization, 1.0, 40),
            ep("b", Capability::Summarization, 1.0, 40),
            ep("c", Capability::Summarization, 1.0, 40),
            ep("whisper", Capability::SpeechToText, 1.0, 0),
        ];
        let counts: Vec<usize> = [0.0, 0.5, 1.0, 2.0, 9.0, 100.0]
            .into_iter()
            .map(|free| {
                Rebalancer::default()
                    .plan(free, &upcoming, &endpoints)
                    .len()
            })
            .collect();
        // The idle Whisper's release always fires and returns its GPU to
        // the budget. Each overloaded endpoint wants 9 more GPUs (load 40
        // per GPU against 4), taken greedily in order: a budget below 10
        // feeds one scale-up, 9 free (budget 10) a second, and 100 free
        // all three.
        assert_eq!(counts, vec![2, 2, 2, 2, 3, 4]);
    }
}
