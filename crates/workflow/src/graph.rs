//! The task-graph intermediate representation.
//!
//! "It also identifies the relationship between tasks and generates the
//! corresponding internal representation as a directed acyclic graph (DAG)
//! where the nodes represent agents, and edges represent dataflow between
//! them" (§3.1). Nodes here are task *instances* — e.g. "transcribe scene 7
//! of formula_1.mov" — so the scheduler can exploit instance-level
//! parallelism directly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use murakkab_agents::{Capability, Work};
use murakkab_hardware::HardwareTarget;
use murakkab_sim::{define_id, SimDuration, SimError};

define_id!(TaskId, "task");

/// A fixed agent/hardware assignment (imperative workflows arrive fully
/// pinned; declarative ones leave this `None` for the orchestrator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PinnedConfig {
    /// Agent name from the library.
    pub agent: String,
    /// Hardware target to run on.
    pub target: HardwareTarget,
}

/// One task instance in the DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskNode {
    /// Unique id within the graph.
    pub id: TaskId,
    /// Human-readable name, e.g. `"stt/formula_1/scene-7"`.
    pub name: String,
    /// Required capability.
    pub capability: Capability,
    /// Work the instance carries.
    pub work: Work,
    /// Optional pinned agent/hardware (imperative mode).
    pub pinned: Option<PinnedConfig>,
    /// Group key for instances of the same logical stage (e.g. all STT
    /// tasks share `"stt"`); used by lookahead and reporting.
    pub stage: String,
}

/// A directed acyclic graph of task instances.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    nodes: BTreeMap<TaskId, TaskNode>,
    /// Edges as predecessor -> successors.
    succ: BTreeMap<TaskId, BTreeSet<TaskId>>,
    /// Reverse edges.
    pred: BTreeMap<TaskId, BTreeSet<TaskId>>,
    next_id: u64,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a task and returns its id.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        stage: impl Into<String>,
        capability: Capability,
        work: Work,
    ) -> TaskId {
        let id = TaskId::from_raw(self.next_id);
        self.next_id += 1;
        self.nodes.insert(
            id,
            TaskNode {
                id,
                name: name.into(),
                capability,
                work,
                pinned: None,
                stage: stage.into(),
            },
        );
        self.succ.insert(id, BTreeSet::new());
        self.pred.insert(id, BTreeSet::new());
        id
    }

    /// Pins a task to an agent/hardware config.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for an unknown task.
    pub fn pin(&mut self, id: TaskId, config: PinnedConfig) -> Result<(), SimError> {
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or_else(|| SimError::not_found("task", id.to_string()))?;
        node.pinned = Some(config);
        Ok(())
    }

    /// Adds a dataflow edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] if either endpoint is unknown and
    /// [`SimError::InvalidInput`] if the edge would create a cycle or a
    /// self-loop.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), SimError> {
        if !self.nodes.contains_key(&from) {
            return Err(SimError::not_found("task", from.to_string()));
        }
        if !self.nodes.contains_key(&to) {
            return Err(SimError::not_found("task", to.to_string()));
        }
        if from == to {
            return Err(SimError::InvalidInput(format!("self-loop on {from}")));
        }
        if self.reaches(to, from) {
            return Err(SimError::InvalidInput(format!(
                "edge {from} -> {to} would create a cycle"
            )));
        }
        self.succ.get_mut(&from).expect("checked").insert(to);
        self.pred.get_mut(&to).expect("checked").insert(from);
        Ok(())
    }

    /// Whether `to` is reachable from `from` (BFS).
    fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut queue = VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(n) = queue.pop_front() {
            for &s in &self.succ[&n] {
                if s == to {
                    return true;
                }
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        false
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.values().map(BTreeSet::len).sum()
    }

    /// Looks up a task.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotFound`] for an unknown id.
    pub fn task(&self, id: TaskId) -> Result<&TaskNode, SimError> {
        self.nodes
            .get(&id)
            .ok_or_else(|| SimError::not_found("task", id.to_string()))
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskNode> {
        self.nodes.values()
    }

    /// Direct predecessors of a task.
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.pred.get(&id).into_iter().flatten().copied()
    }

    /// Direct successors of a task.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succ.get(&id).into_iter().flatten().copied()
    }

    /// Tasks whose predecessors are all in `completed` and which are not
    /// themselves completed — the schedulable frontier.
    pub fn ready(&self, completed: &BTreeSet<TaskId>) -> Vec<TaskId> {
        self.nodes
            .keys()
            .filter(|id| !completed.contains(id))
            .filter(|id| self.pred[id].iter().all(|p| completed.contains(p)))
            .copied()
            .collect()
    }

    /// A topological ordering (deterministic: id order among ready nodes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if the graph contains a cycle
    /// (cannot happen via [`TaskGraph::add_edge`], but graphs can be
    /// deserialized).
    pub fn topo_sort(&self) -> Result<Vec<TaskId>, SimError> {
        let mut indeg: BTreeMap<TaskId, usize> = self
            .nodes
            .keys()
            .map(|&id| (id, self.pred[&id].len()))
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut ready: BTreeSet<TaskId> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        while let Some(&id) = ready.iter().next() {
            ready.remove(&id);
            order.push(id);
            for &s in &self.succ[&id] {
                let d = indeg.get_mut(&s).expect("node exists");
                *d -= 1;
                if *d == 0 {
                    ready.insert(s);
                }
            }
        }
        if order.len() != self.nodes.len() {
            return Err(SimError::InvalidInput("task graph contains a cycle".into()));
        }
        Ok(order)
    }

    /// Critical-path length under a per-task duration estimate.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskGraph::topo_sort`] errors.
    pub fn critical_path(
        &self,
        mut estimate: impl FnMut(&TaskNode) -> SimDuration,
    ) -> Result<SimDuration, SimError> {
        let order = self.topo_sort()?;
        let mut finish: BTreeMap<TaskId, SimDuration> = BTreeMap::new();
        let mut best = SimDuration::ZERO;
        for id in order {
            let start = self.pred[&id]
                .iter()
                .map(|p| finish[p])
                .max()
                .unwrap_or(SimDuration::ZERO);
            let f = start + estimate(&self.nodes[&id]);
            best = best.max(f);
            finish.insert(id, f);
        }
        Ok(best)
    }

    /// Counts not-yet-completed tasks per capability — the DAG lookahead
    /// the workflow-aware cluster manager consumes (§3.2: "it exposes
    /// workflow DAGs to the Cluster Manager, providing visibility into
    /// completed and upcoming tasks").
    pub fn upcoming_by_capability(
        &self,
        completed: &BTreeSet<TaskId>,
    ) -> BTreeMap<Capability, usize> {
        let mut out = BTreeMap::new();
        for (id, node) in &self.nodes {
            if !completed.contains(id) {
                *out.entry(node.capability).or_insert(0) += 1;
            }
        }
        out
    }

    /// Merges `other` into `self`, remapping ids; returns the id mapping.
    pub fn absorb(&mut self, other: &TaskGraph) -> BTreeMap<TaskId, TaskId> {
        self.absorb_prefixed(other, "")
    }

    /// Merges `other` into `self` with `prefix` prepended to task and
    /// stage names (multi-tenant merges keep workflows distinguishable in
    /// traces and lookups).
    ///
    /// # Panics
    ///
    /// Panics if an absorbed edge would create a cycle (impossible for
    /// a valid `other`).
    pub fn absorb_prefixed(&mut self, other: &TaskGraph, prefix: &str) -> BTreeMap<TaskId, TaskId> {
        let mut ids = Vec::with_capacity(other.nodes.len());
        // Sub-graphs built by the planner have dense ids 0..len (the
        // graph API only ever appends), so old-id → new-id lookup is
        // direct indexing; fall back to position search otherwise.
        let dense = other.next_id == other.nodes.len() as u64;
        for node in other.nodes.values() {
            let new = self.add_task(
                format!("{prefix}{}", node.name),
                format!("{prefix}{}", node.stage),
                node.capability,
                node.work,
            );
            if let Some(p) = &node.pinned {
                self.pin(new, p.clone()).expect("freshly added");
            }
            ids.push(new);
        }
        let lookup = |old: TaskId| -> TaskId {
            if dense {
                ids[old.raw() as usize]
            } else {
                let pos = other
                    .nodes
                    .keys()
                    .position(|&k| k == old)
                    .expect("edge endpoint exists");
                ids[pos]
            }
        };
        for (from, succs) in &other.succ {
            for to in succs {
                self.add_edge(lookup(*from), lookup(*to))
                    .expect("absorbed edges cannot cycle");
            }
        }
        other.nodes.keys().copied().zip(ids).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            "extract",
            "extract",
            Capability::FrameExtraction,
            Work::VideoSeconds(36.0),
        );
        let b = g.add_task(
            "stt",
            "stt",
            Capability::SpeechToText,
            Work::AudioSeconds(36.0),
        );
        let c = g.add_task(
            "detect",
            "detect",
            Capability::ObjectDetection,
            Work::Frames(10),
        );
        let d = g.add_task(
            "summarize",
            "summarize",
            Capability::Summarization,
            Work::Tokens {
                prompt: 900,
                output: 120,
            },
        );
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn builds_and_queries_diamond() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert!(g.task(a).is_ok());
        assert!(g.task(TaskId::from_raw(99)).is_err());
    }

    #[test]
    fn rejects_cycles_and_self_loops() {
        let (mut g, [a, _, _, d]) = diamond();
        assert!(matches!(g.add_edge(d, a), Err(SimError::InvalidInput(_))));
        assert!(matches!(g.add_edge(a, a), Err(SimError::InvalidInput(_))));
        assert!(matches!(
            g.add_edge(a, TaskId::from_raw(42)),
            Err(SimError::NotFound { .. })
        ));
    }

    #[test]
    fn ready_frontier_advances() {
        let (g, [a, b, c, d]) = diamond();
        let mut done = BTreeSet::new();
        assert_eq!(g.ready(&done), vec![a]);
        done.insert(a);
        assert_eq!(g.ready(&done), vec![b, c]);
        done.insert(b);
        assert_eq!(g.ready(&done), vec![c]);
        done.insert(c);
        assert_eq!(g.ready(&done), vec![d]);
        done.insert(d);
        assert!(g.ready(&done).is_empty());
    }

    #[test]
    fn topo_sort_respects_edges() {
        let (g, _) = diamond();
        let order = g.topo_sort().unwrap();
        let pos: BTreeMap<TaskId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for node in g.tasks() {
            for s in g.successors(node.id) {
                assert!(pos[&node.id] < pos[&s]);
            }
        }
    }

    #[test]
    fn critical_path_takes_longest_branch() {
        let (g, _) = diamond();
        // extract 2s; stt 6s; detect 1s; summarize 3s => 2+6+3 = 11.
        let cp = g
            .critical_path(|n| match n.capability {
                Capability::FrameExtraction => SimDuration::from_secs(2),
                Capability::SpeechToText => SimDuration::from_secs(6),
                Capability::ObjectDetection => SimDuration::from_secs(1),
                _ => SimDuration::from_secs(3),
            })
            .unwrap();
        assert_eq!(cp, SimDuration::from_secs(11));
    }

    #[test]
    fn upcoming_by_capability_counts_pending() {
        let (g, [a, ..]) = diamond();
        let mut done = BTreeSet::new();
        let up = g.upcoming_by_capability(&done);
        assert_eq!(up[&Capability::SpeechToText], 1);
        assert_eq!(up.len(), 4);
        done.insert(a);
        let up = g.upcoming_by_capability(&done);
        assert!(!up.contains_key(&Capability::FrameExtraction));
    }

    #[test]
    fn pinning_marks_nodes() {
        let (mut g, [a, ..]) = diamond();
        g.pin(
            a,
            PinnedConfig {
                agent: "OpenCV".into(),
                target: HardwareTarget::cpu_cores(1),
            },
        )
        .unwrap();
        assert_eq!(g.task(a).unwrap().pinned.as_ref().unwrap().agent, "OpenCV");
        assert!(g
            .pin(
                TaskId::from_raw(77),
                PinnedConfig {
                    agent: "x".into(),
                    target: HardwareTarget::ONE_GPU,
                }
            )
            .is_err());
    }

    #[test]
    fn absorb_remaps_ids_and_edges() {
        let (mut g, _) = diamond();
        let (other, _) = diamond();
        let before = g.len();
        let map = g.absorb(&other);
        assert_eq!(g.len(), before + other.len());
        assert_eq!(map.len(), other.len());
        assert_eq!(g.edge_count(), 8);
        g.topo_sort().unwrap();
    }

    #[test]
    fn serde_roundtrip_preserves_structure() {
        let (g, _) = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), g.len());
        assert_eq!(back.edge_count(), g.edge_count());
        back.topo_sort().unwrap();
    }
}
