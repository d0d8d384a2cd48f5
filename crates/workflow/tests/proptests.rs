//! Property-based tests for the task-graph IR.

use murakkab_agents::{Capability, Work};
use murakkab_sim::SimDuration;
use murakkab_workflow::{TaskGraph, TaskId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Builds a random DAG: `n` nodes, edges only from lower to higher ids
/// (guaranteed acyclic), selected by the bit mask stream.
fn random_dag(n: usize, edges: &[(usize, usize)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|i| {
            g.add_task(
                format!("t{i}"),
                format!("stage{}", i % 4),
                Capability::Summarization,
                Work::Tokens {
                    prompt: 100,
                    output: 10,
                },
            )
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
    /// Topological order exists for every generated DAG and respects all
    /// edges.
    #[test]
    fn topo_sort_respects_every_edge(
        n in 1usize..40,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..120),
    ) {
        let g = random_dag(n, &edges);
        let order = g.topo_sort().expect("acyclic by construction");
        prop_assert_eq!(order.len(), g.len());
        let pos: BTreeMap<TaskId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for node in g.tasks() {
            for s in g.successors(node.id) {
                prop_assert!(pos[&node.id] < pos[&s]);
            }
        }
    }

    /// Simulating completion frontier-by-frontier consumes the whole
    /// graph: ready() never starves on an incomplete acyclic graph.
    #[test]
    fn frontier_always_progresses(
        n in 1usize..30,
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..80),
    ) {
        let g = random_dag(n, &edges);
        let mut done = BTreeSet::new();
        while done.len() < g.len() {
            let ready = g.ready(&done);
            prop_assert!(!ready.is_empty(), "starved with {} of {} done", done.len(), g.len());
            for t in ready {
                done.insert(t);
            }
        }
        prop_assert_eq!(done.len(), g.len());
        prop_assert!(g.ready(&done).is_empty());
    }

    /// The critical path is at least the longest single task and at most
    /// the serial sum.
    #[test]
    fn critical_path_is_bounded(
        n in 1usize..25,
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..60),
        durs in prop::collection::vec(1u64..100, 25),
    ) {
        let g = random_dag(n, &edges);
        let dur = |t: TaskId| SimDuration::from_secs(durs[t.raw() as usize % durs.len()]);
        let cp = g.critical_path(|node| dur(node.id)).expect("acyclic");
        let max_single = g.tasks().map(|t| dur(t.id)).max().expect("non-empty");
        let serial: u64 = g.tasks().map(|t| dur(t.id).as_micros()).sum();
        prop_assert!(cp >= max_single);
        prop_assert!(cp.as_micros() <= serial);
    }

    /// absorb() preserves node count, edge count and acyclicity, for any
    /// pair of generated graphs.
    #[test]
    fn absorb_preserves_structure(
        n1 in 1usize..15,
        e1 in prop::collection::vec((0usize..15, 0usize..15), 0..30),
        n2 in 1usize..15,
        e2 in prop::collection::vec((0usize..15, 0usize..15), 0..30),
    ) {
        let mut a = random_dag(n1, &e1);
        let b = random_dag(n2, &e2);
        let (an, ae) = (a.len(), a.edge_count());
        let map = a.absorb_prefixed(&b, "x/");
        prop_assert_eq!(a.len(), an + b.len());
        prop_assert_eq!(a.edge_count(), ae + b.edge_count());
        prop_assert_eq!(map.len(), b.len());
        a.topo_sort().expect("still acyclic");
        // Absorbed names carry the prefix.
        for (_, new_id) in map {
            prop_assert!(a.task(new_id).unwrap().name.starts_with("x/"));
        }
    }
}
