//! The engine's compiled graph form against the `TaskGraph` it was
//! built from, over random DAGs.

use murakkab::engine::CompiledGraph;
use murakkab_agents::{Capability, Work};
use murakkab_workflow::{TaskGraph, TaskId};
use proptest::prelude::*;

/// A random DAG: `n` tasks with capabilities and work drawn from
/// `kinds`, edges only from lower to higher ids (acyclic by
/// construction).
fn random_dag(n: usize, kinds: &[(usize, u32)], edges: &[(usize, usize)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            let (cap, amount) = kinds[i % kinds.len()];
            let capability = Capability::ALL[cap % Capability::ALL.len()];
            let work = match amount % 4 {
                0 => Work::Tokens {
                    prompt: amount,
                    output: amount / 3,
                },
                1 => Work::AudioSeconds(f64::from(amount) / 7.0),
                2 => Work::Frames(amount),
                _ => Work::Items(amount),
            };
            g.add_task(format!("t{i}"), "stage", capability, work)
        })
        .collect();
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            g.add_edge(ids[a], ids[b])
                .expect("forward edges are acyclic");
        }
    }
    g
}

proptest! {
    /// Local index `i` is the graph's `i`-th task: same capability,
    /// work and indegree, and its successors are the graph's, ascending.
    #[test]
    fn compiled_form_preserves_every_task_and_edge(
        n in 1usize..40,
        kinds in prop::collection::vec((0usize..16, 1u32..5_000), 1..8),
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..120),
    ) {
        let g = random_dag(n, &kinds, &edges);
        let c = CompiledGraph::from_graph(&g).expect("compiles");
        prop_assert_eq!(c.len(), g.len());
        let ids: Vec<TaskId> = g.tasks().map(|t| t.id).collect();
        let mut edge_total = 0;
        for (i, node) in g.tasks().enumerate() {
            let t = &c.tasks()[i];
            prop_assert_eq!(t.capability, node.capability);
            prop_assert_eq!(t.work, node.work);
            prop_assert_eq!(t.indegree as usize, g.predecessors(node.id).count());
            let succ: Vec<TaskId> = c.successors(i).iter().map(|&s| ids[s as usize]).collect();
            let expect: Vec<TaskId> = g.successors(node.id).collect();
            prop_assert_eq!(succ, expect);
            prop_assert!(c.successors(i).windows(2).all(|w| w[0] < w[1]));
            edge_total += c.successors(i).len();
        }
        prop_assert_eq!(edge_total, g.edge_count());
    }
}
