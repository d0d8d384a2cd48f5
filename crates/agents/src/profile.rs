//! Execution profiles and the offline profiler.
//!
//! §3.2: "Murakkab generates an execution profile for each model/tool and
//! hardware resource pair when a new one is added to the library — the
//! profile captures an efficiency vs quality tradeoff. Efficiency metrics
//! include cost, power consumption, and latency."

use serde::{Deserialize, Serialize};

use murakkab_hardware::{catalog, HardwareTarget};
use murakkab_sim::{SimDuration, SimError};

use crate::capability::{Capability, Work};
use crate::spec::{AgentSpec, Backend};

/// What a profile-based selection optimises first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise dollar cost.
    Cost,
    /// Minimise power/energy.
    Power,
    /// Minimise latency.
    Latency,
    /// Maximise result quality.
    Quality,
}

/// Measured efficiency/quality of one (agent, hardware target) pair on the
/// capability's reference workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionProfile {
    /// Agent name.
    pub agent: String,
    /// Capability the profile is filed under.
    pub capability: Capability,
    /// Hardware target.
    pub target: HardwareTarget,
    /// Latency of the reference work.
    pub latency: SimDuration,
    /// Average power draw while running, in watts (device active power).
    pub power_w: f64,
    /// Energy for the reference work in watt-hours.
    pub energy_wh: f64,
    /// Dollar cost for the reference work.
    pub cost_usd: f64,
    /// Quality score in `[0, 1]`.
    pub quality: f64,
}

impl ExecutionProfile {
    /// The profile's score under an objective (lower is better for
    /// efficiency objectives; quality is negated so lower stays better).
    pub fn score(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Cost => self.cost_usd,
            Objective::Power => self.energy_wh,
            Objective::Latency => self.latency.as_secs_f64(),
            Objective::Quality => -self.quality,
        }
    }

    /// True if `self` dominates `other` (no worse on latency, energy, cost
    /// and quality; strictly better on at least one).
    pub fn dominates(&self, other: &ExecutionProfile) -> bool {
        let le = self.latency <= other.latency
            && self.energy_wh <= other.energy_wh + 1e-12
            && self.cost_usd <= other.cost_usd + 1e-12
            && self.quality >= other.quality - 1e-12;
        let lt = self.latency < other.latency
            || self.energy_wh < other.energy_wh - 1e-12
            || self.cost_usd < other.cost_usd - 1e-12
            || self.quality > other.quality + 1e-12;
        le && lt
    }
}

/// Generates execution profiles by evaluating agents' cost models on
/// reference workloads over a menu of hardware targets.
#[derive(Debug, Clone)]
pub struct Profiler {
    targets: Vec<HardwareTarget>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            targets: vec![
                HardwareTarget::ONE_GPU,
                HardwareTarget::gpus(2),
                HardwareTarget::gpus(8),
                HardwareTarget::cpu_cores(8),
                HardwareTarget::cpu_cores(64),
                HardwareTarget::Hybrid {
                    gpus: 1,
                    gpu_share: 1.0,
                    cores: 64,
                },
            ],
        }
    }
}

impl Profiler {
    /// The reference workload used to profile a capability.
    pub fn reference_work(capability: Capability) -> Work {
        match capability {
            Capability::FrameExtraction => Work::VideoSeconds(36.0),
            Capability::SpeechToText => Work::AudioSeconds(36.0),
            Capability::ObjectDetection => Work::Frames(10),
            Capability::Summarization => Work::Tokens {
                prompt: 600,
                output: 80,
            },
            Capability::Embedding => Work::Tokens {
                prompt: 400,
                output: 1,
            },
            Capability::SentimentAnalysis => Work::Items(100),
            Capability::WebSearch => Work::Items(1),
            Capability::Calculation => Work::Items(1),
            Capability::VectorStore => Work::Items(10),
            Capability::Ranking => Work::Items(100),
            Capability::TextGeneration => Work::Tokens {
                prompt: 512,
                output: 256,
            },
        }
    }

    /// Profiles one agent over every supported target.
    ///
    /// External agents yield a single profile pinned to a zero-core CPU
    /// target: they consume no local resources, so hardware targets are
    /// meaningless for them.
    pub fn profile_agent(&self, spec: &AgentSpec) -> Vec<ExecutionProfile> {
        let work = Self::reference_work(spec.capability);
        if let Backend::External {
            latency_s,
            cost_per_call_usd,
        } = &spec.backend
        {
            return vec![ExecutionProfile {
                agent: spec.name.clone(),
                capability: spec.capability,
                target: HardwareTarget::cpu_cores(0),
                latency: SimDuration::from_secs_f64(*latency_s),
                power_w: 0.0,
                energy_wh: 0.0,
                cost_usd: *cost_per_call_usd,
                quality: spec.quality,
            }];
        }
        let mut out = Vec::new();
        for target in &self.targets {
            if !spec.supports_target(target) {
                continue;
            }
            let Ok(latency) = spec.estimate_latency(&work, target) else {
                continue;
            };
            let power_w = active_power_w(spec, target);
            let hours = latency.as_hours_f64();
            let energy_wh = power_w * latency.as_secs_f64() / 3600.0;
            let cost_usd = match &spec.backend {
                Backend::External {
                    cost_per_call_usd, ..
                } => *cost_per_call_usd,
                _ => hourly_usd(target) * hours,
            };
            out.push(ExecutionProfile {
                agent: spec.name.clone(),
                capability: spec.capability,
                target: *target,
                latency,
                power_w,
                energy_wh,
                cost_usd,
                quality: spec.quality,
            });
        }
        out
    }

    /// Profiles an entire library into a store.
    pub fn profile_library(&self, lib: &crate::library::AgentLibrary) -> ProfileStore {
        let mut store = ProfileStore::new();
        for spec in lib.all() {
            for p in self.profile_agent(spec) {
                store.insert(p);
            }
        }
        store
    }
}

/// Active power of an agent on a target (A100 pool assumptions — the
/// profile captures relative efficiency; the runtime recomputes exact
/// energy from the real devices it placed work on).
fn active_power_w(spec: &AgentSpec, target: &HardwareTarget) -> f64 {
    let gpu = catalog::a100_80g();
    let cpu = catalog::epyc_7v12();
    let cpu_w_per_core = cpu.pool_tdp_w / 96.0;
    let util = spec.gpu_util();
    let gpu_w = |units: f64| units * (gpu.idle_w + (gpu.tdp_w - gpu.idle_w) * util);
    match *target {
        HardwareTarget::Gpu { count, share } => gpu_w(f64::from(count) * share),
        HardwareTarget::Cpu { cores } => f64::from(cores) * cpu_w_per_core,
        HardwareTarget::Hybrid {
            gpus,
            gpu_share,
            cores,
        } => gpu_w(f64::from(gpus) * gpu_share) + f64::from(cores) * cpu_w_per_core,
    }
}

/// On-demand dollar rate of a target per hour.
fn hourly_usd(target: &HardwareTarget) -> f64 {
    let gpu = catalog::a100_80g();
    let cpu = catalog::epyc_7v12();
    match *target {
        HardwareTarget::Gpu { count, share } => gpu.hourly_usd * f64::from(count) * share,
        HardwareTarget::Cpu { cores } => cpu.hourly_usd_per_core * f64::from(cores),
        HardwareTarget::Hybrid {
            gpus,
            gpu_share,
            cores,
        } => {
            gpu.hourly_usd * f64::from(gpus) * gpu_share
                + cpu.hourly_usd_per_core * f64::from(cores)
        }
    }
}

/// All generated profiles, queryable by capability.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileStore {
    profiles: Vec<ExecutionProfile>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ProfileStore::default()
    }

    /// Adds a profile.
    pub fn insert(&mut self, p: ExecutionProfile) {
        self.profiles.push(p);
    }

    /// All profiles.
    pub fn all(&self) -> &[ExecutionProfile] {
        &self.profiles
    }

    /// Profiles for a capability.
    pub fn for_capability(&self, cap: Capability) -> Vec<&ExecutionProfile> {
        self.profiles
            .iter()
            .filter(|p| p.capability == cap)
            .collect()
    }

    /// The Pareto-nondominated profiles for a capability over
    /// (latency, energy, cost, quality).
    pub fn pareto_front(&self, cap: Capability) -> Vec<&ExecutionProfile> {
        let candidates = self.for_capability(cap);
        candidates
            .iter()
            .filter(|p| !candidates.iter().any(|q| q.dominates(p)))
            .copied()
            .collect()
    }

    /// The best profile for a capability under `objective`, among those
    /// meeting `min_quality`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsatisfiable`] if nothing meets the quality
    /// bar.
    pub fn best(
        &self,
        cap: Capability,
        objective: Objective,
        min_quality: f64,
    ) -> Result<&ExecutionProfile, SimError> {
        self.for_capability(cap)
            .into_iter()
            .filter(|p| p.quality >= min_quality)
            .min_by(|a, b| {
                a.score(objective)
                    .total_cmp(&b.score(objective))
                    // Deterministic tie-break.
                    .then_with(|| a.agent.cmp(&b.agent))
                    .then_with(|| a.target.short_label().cmp(&b.target.short_label()))
            })
            .ok_or_else(|| {
                SimError::Unsatisfiable(format!(
                    "no {cap:?} profile meets quality >= {min_quality}"
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::stock_library;

    fn store() -> ProfileStore {
        Profiler::default().profile_library(&stock_library())
    }

    #[test]
    fn profiling_covers_stt_on_gpu_and_cpu() {
        let s = store();
        let stt = s.for_capability(Capability::SpeechToText);
        assert!(stt
            .iter()
            .any(|p| p.agent == "Whisper" && p.target.needs_gpu()));
        assert!(stt
            .iter()
            .any(|p| p.agent == "Whisper" && !p.target.needs_gpu()));
        assert!(stt.iter().any(|p| p.agent == "DeepSpeech"));
        // DeepSpeech never profiles on GPU.
        assert!(!stt
            .iter()
            .any(|p| p.agent == "DeepSpeech" && p.target.needs_gpu()));
    }

    #[test]
    fn whisper_gpu_is_faster_cpu_is_cheaper_energy() {
        let s = store();
        let stt = s.for_capability(Capability::SpeechToText);
        let gpu = stt
            .iter()
            .find(|p| p.agent == "Whisper" && p.target == HardwareTarget::ONE_GPU)
            .unwrap();
        let cpu = stt
            .iter()
            .find(|p| p.agent == "Whisper" && p.target == HardwareTarget::cpu_cores(8))
            .unwrap();
        assert!(gpu.latency < cpu.latency, "GPU should be faster");
        assert!(
            cpu.energy_wh < gpu.energy_wh,
            "CPU should use less energy: {} vs {}",
            cpu.energy_wh,
            gpu.energy_wh
        );
    }

    #[test]
    fn best_by_objective_picks_different_configs() {
        let s = store();
        let fastest = s
            .best(Capability::SpeechToText, Objective::Latency, 0.9)
            .unwrap();
        let greenest = s
            .best(Capability::SpeechToText, Objective::Power, 0.9)
            .unwrap();
        assert!(fastest.latency <= greenest.latency);
        assert!(greenest.energy_wh <= fastest.energy_wh);
    }

    #[test]
    fn quality_floor_filters_low_quality_agents() {
        let s = store();
        // DeepSpeech (0.80) is below a 0.9 bar.
        let best = s
            .best(Capability::SpeechToText, Objective::Cost, 0.9)
            .unwrap();
        assert_ne!(best.agent, "DeepSpeech");
        // Raising the bar to 0.96 leaves only Whisper.
        let strict = s
            .best(Capability::SpeechToText, Objective::Cost, 0.96)
            .unwrap();
        assert_eq!(strict.agent, "Whisper");
        // Dropping the bar can only lower (or keep) the achievable cost.
        let unconstrained = s
            .best(Capability::SpeechToText, Objective::Cost, 0.0)
            .unwrap();
        assert!(unconstrained.cost_usd <= strict.cost_usd);
    }

    #[test]
    fn impossible_quality_is_unsatisfiable() {
        let s = store();
        assert!(matches!(
            s.best(Capability::SpeechToText, Objective::Cost, 1.5),
            Err(SimError::Unsatisfiable(_))
        ));
    }

    #[test]
    fn pareto_front_is_nondominated_and_nonempty() {
        let s = store();
        for cap in [
            Capability::SpeechToText,
            Capability::ObjectDetection,
            Capability::Summarization,
        ] {
            let front = s.pareto_front(cap);
            assert!(!front.is_empty(), "{cap:?}");
            for a in &front {
                for b in &front {
                    assert!(
                        !a.dominates(b),
                        "{cap:?}: {} dominates {}",
                        a.agent,
                        b.agent
                    );
                }
            }
        }
    }

    #[test]
    fn dominance_is_strict() {
        let s = store();
        let p = &s.all()[0];
        assert!(!p.dominates(p), "a profile cannot dominate itself");
    }

    #[test]
    fn external_agent_cost_is_per_call() {
        let s = store();
        let gpt = s
            .for_capability(Capability::Summarization)
            .into_iter()
            .find(|p| p.agent == "GPT-4o")
            .unwrap()
            .clone();
        assert!((gpt.cost_usd - 0.024).abs() < 1e-12);
        assert_eq!(gpt.power_w, 0.0, "external calls draw no local power");
    }
}
