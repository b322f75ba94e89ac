//! Model registry: load, validate, cache, and evict compiled networks.
//!
//! Every model enters through [`Registry::load`], which parses the
//! compiled-model JSON and runs the full structural validation
//! (`CompiledNn::validate`) before the model is ever allowed near the
//! scheduler — a serving process never simulates an inconsistent network.
//! Admitted models are cached under a configurable byte budget with LRU
//! eviction; evicting a model drops its `Arc<ServedModel>`, which closes
//! the batcher queue so the model's batcher thread exits once in-flight
//! requests drain (clients holding the old `Arc` finish normally).
//!
//! Installation is also where the execution backend is chosen: the
//! configured [`Choice`](c2nn_hal::Choice) is resolved against the
//! global [`c2nn_hal::BackendRegistry`] and its built-in cost table, so a
//! model no backend can run (or a named backend refuses) is rejected here
//! with a typed reason — never discovered inside a batcher thread.

use crate::admission::Admission;
use crate::chaos::Chaos;
use crate::metrics::IoGauges;
use crate::protocol::{BackendSelectionReport, ServerStatsReport};
use crate::scheduler::{BatchConfig, ServedModel};
use crate::stats::ModelCounters;
use c2nn_core::CompiledNn;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Registry-wide configuration.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Total model-weight budget in bytes. When exceeded, least-recently
    /// used models are evicted (the most recent model always stays, even
    /// if it alone exceeds the budget).
    pub byte_budget: usize,
    /// Batching parameters applied to every admitted model.
    pub batch: BatchConfig,
    /// Global bound on `sim` requests between admission and reply; past
    /// it, clients get typed `Overloaded` replies instead of queueing.
    pub max_inflight: usize,
    /// Soft per-model bound on queued+running requests, so one hot model
    /// cannot starve the rest.
    pub max_inflight_per_model: usize,
    /// Armed chaos schedule injected into every model's batcher
    /// (`None` in production).
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            byte_budget: 512 << 20,
            batch: BatchConfig::default(),
            max_inflight: 1024,
            max_inflight_per_model: 512,
            chaos: None,
        }
    }
}

struct EntryCell {
    model: Arc<ServedModel>,
    last_used: u64,
}

struct Inner {
    entries: Vec<EntryCell>,
    tick: u64,
}

/// Thread-safe model cache with LRU byte-budget eviction, plus the
/// server's admission-control state (the registry is the natural owner:
/// it is the one component every request path already touches).
pub struct Registry {
    cfg: RegistryConfig,
    admission: Arc<Admission>,
    io: Arc<IoGauges>,
    inner: Mutex<Inner>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new(cfg: RegistryConfig) -> Registry {
        // retry hint = one coalescing window: the time the scheduler needs
        // to drain one batch's worth of queued lanes
        let retry_hint_ms = cfg.batch.max_wait.as_millis().clamp(1, 1_000) as u64;
        let admission = Admission::new(cfg.max_inflight, cfg.max_inflight_per_model, retry_hint_ms);
        Registry {
            admission,
            cfg,
            io: Arc::new(IoGauges::default()),
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                tick: 0,
            }),
        }
    }

    /// The admission-control state shared with connection handlers and
    /// every model's batcher.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// Connection/event-loop gauges, fed by whichever I/O model serves
    /// this registry and rendered by the metrics exposition.
    pub fn gauges(&self) -> &Arc<IoGauges> {
        &self.io
    }

    /// The armed chaos schedule, if any.
    pub fn chaos(&self) -> Option<&Arc<Chaos>> {
        self.cfg.chaos.as_ref()
    }

    /// Server-wide overload/health counters for the stats endpoint,
    /// including the per-backend selection rollup over cached models.
    pub fn server_report(&self) -> ServerStatsReport {
        let backends = {
            let inner = self.inner.lock().unwrap();
            let mut rollup: Vec<BackendSelectionReport> = Vec::new();
            for e in &inner.entries {
                let m = &e.model;
                let entry = match rollup.iter_mut().find(|r| r.backend == m.backend) {
                    Some(r) => r,
                    None => {
                        rollup.push(BackendSelectionReport {
                            backend: m.backend.clone(),
                            ..BackendSelectionReport::default()
                        });
                        rollup.last_mut().unwrap()
                    }
                };
                entry.models += 1;
                entry.auto_selected += m.auto_selected as u64;
                entry.requests += m.stats.requests.load(Ordering::Relaxed);
            }
            rollup.sort_by(|a, b| a.backend.cmp(&b.backend));
            rollup
        };
        let adm = &self.admission;
        ServerStatsReport {
            backends,
            inflight: adm.inflight() as u64,
            max_inflight: adm.max_inflight().min(u64::MAX as usize) as u64,
            pressure: format!("{:?}", adm.pressure()).to_lowercase(),
            draining: adm.draining(),
            rejected_sims: adm.rejected_sims.load(Ordering::Relaxed),
            rejected_loads: adm.rejected_loads.load(Ordering::Relaxed),
            rejected_draining: adm.rejected_draining.load(Ordering::Relaxed),
            pool_poisoned_epochs: c2nn_tensor::Pool::global().poisoned_epochs(),
            chaos_injected: self.cfg.chaos.as_ref().map_or(0, |c| c.injected()),
            wire_json_frames: self.io.wire_frames(crate::protocol::WireFormat::Json),
            wire_binary_frames: self.io.wire_frames(crate::protocol::WireFormat::Binary),
        }
    }

    /// Parse, validate, and admit a model from an opaque compiled-model
    /// document (UTF-8 JSON bytes — the wire carries them without caring).
    /// Replaces any existing model of the same name.
    pub fn load(&self, name: &str, model: &[u8]) -> Result<Arc<ServedModel>, String> {
        let text = std::str::from_utf8(model)
            .map_err(|_| format!("model '{name}' rejected: document is not valid UTF-8"))?;
        let nn = CompiledNn::<f32>::from_json_str(text)
            .map_err(|e| format!("model '{name}' rejected: {e}"))?;
        self.install(name, nn)
    }

    /// Validate and admit an already-compiled model. `compile` output
    /// always passes validation, but models arriving over the wire or
    /// from stale files may not. Backend selection happens here: a model
    /// the configured backend (or, under `auto`, every backend)
    /// refuses is rejected with the typed admission reason.
    pub fn install(&self, name: &str, nn: CompiledNn<f32>) -> Result<Arc<ServedModel>, String> {
        nn.validate()
            .map_err(|e| format!("model '{name}' failed validation: {e}"))?;
        let model = ServedModel::spawn_selected(
            name,
            nn,
            self.cfg.batch.clone(),
            Arc::clone(&self.admission),
            self.cfg.chaos.clone(),
        )
        .map_err(|e| format!("model '{name}' rejected: {e}"))?;
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.retain(|e| e.model.name != name);
        inner.entries.push(EntryCell {
            model: Arc::clone(&model),
            last_used: tick,
        });
        self.evict_locked(&mut inner);
        Ok(model)
    }

    /// Look up a model by name, marking it most-recently used.
    pub fn get(&self, name: &str) -> Option<Arc<ServedModel>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.iter_mut().find(|e| e.model.name == name)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.model))
    }

    /// Names of currently cached models, most recently used first.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let mut entries: Vec<(&u64, &str)> = inner
            .entries
            .iter()
            .map(|e| (&e.last_used, e.model.name.as_str()))
            .collect();
        entries.sort_by(|a, b| b.0.cmp(a.0));
        entries.into_iter().map(|(_, n)| n.to_string()).collect()
    }

    /// Snapshot the stats of every cached model.
    pub fn stats(&self) -> Vec<crate::protocol::ModelStatsReport> {
        let inner = self.inner.lock().unwrap();
        inner.entries.iter().map(|e| e.model.report()).collect()
    }

    /// Total bytes of all cached models.
    pub fn total_bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.entries.iter().map(|e| e.model.bytes).sum()
    }

    fn evict_locked(&self, inner: &mut Inner) {
        loop {
            let total: usize = inner.entries.iter().map(|e| e.model.bytes).sum();
            if total <= self.cfg.byte_budget || inner.entries.len() <= 1 {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("non-empty entries");
            inner.entries.remove(victim);
        }
    }

    /// Shared counters of a model, if cached (used by tests and the stats
    /// endpoint without bumping LRU recency).
    pub fn peek_stats(&self, name: &str) -> Option<Arc<ModelCounters>> {
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .find(|e| e.model.name == name)
            .map(|e| Arc::clone(&e.model.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2nn_circuits::generators::counter;
    use c2nn_core::{compile, CompileOptions};

    fn counter_nn(width: usize) -> CompiledNn<f32> {
        compile(&counter(width), CompileOptions::with_l(4)).unwrap()
    }

    fn tiny_registry(byte_budget: usize) -> Registry {
        Registry::new(RegistryConfig {
            byte_budget,
            ..RegistryConfig::default()
        })
    }

    #[test]
    fn load_validates_and_caches() {
        let reg = tiny_registry(usize::MAX);
        let json = counter_nn(4).to_json_string();
        let m = reg.load("ctr", json.as_bytes()).unwrap();
        assert_eq!(m.nn.num_primary_inputs, 1);
        assert!(reg.get("ctr").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn malformed_model_is_rejected() {
        let reg = tiny_registry(usize::MAX);
        let err = reg.load("bad", b"{\"not\": \"a model\"}").unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        assert!(reg.get("bad").is_none());
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // budget fits roughly two counters; loading a third evicts the
        // least recently used
        let one = counter_nn(4).memory_bytes();
        let reg = tiny_registry(one * 2 + one / 2);
        reg.install("a", counter_nn(4)).unwrap();
        reg.install("b", counter_nn(4)).unwrap();
        reg.get("a"); // bump a → b is now LRU
        reg.install("c", counter_nn(4)).unwrap();
        assert!(reg.get("b").is_none(), "b was LRU and must be evicted");
        assert!(reg.get("a").is_some());
        assert!(reg.get("c").is_some());
        assert!(reg.total_bytes() <= one * 2 + one / 2);
    }

    #[test]
    fn newest_model_survives_even_over_budget() {
        let reg = tiny_registry(1); // absurdly small
        reg.install("only", counter_nn(4)).unwrap();
        assert!(
            reg.get("only").is_some(),
            "most recent model is never evicted"
        );
    }

    #[test]
    fn unknown_backend_is_a_typed_install_error() {
        let reg = Registry::new(RegistryConfig {
            batch: BatchConfig {
                backend: c2nn_hal::Choice::Named("tpu".to_string()),
                ..BatchConfig::default()
            },
            ..RegistryConfig::default()
        });
        let err = reg.install("m", counter_nn(4)).unwrap_err();
        assert!(err.contains("unknown backend `tpu`"), "{err}");
        assert!(err.contains("scalar") && err.contains("bitplane"), "{err}");
        assert!(reg.get("m").is_none());
    }

    #[test]
    fn server_report_rolls_up_backend_selections() {
        let reg = tiny_registry(usize::MAX);
        reg.install("a", counter_nn(4)).unwrap();
        reg.install("b", counter_nn(6)).unwrap();
        let report = reg.server_report();
        let total_models: u64 = report.backends.iter().map(|b| b.models).sum();
        assert_eq!(total_models, 2);
        // default config is auto: every selection is cost-model driven
        for b in &report.backends {
            assert_eq!(b.auto_selected, b.models, "{b:?}");
        }
    }

    #[test]
    fn reload_replaces_in_place() {
        let reg = tiny_registry(usize::MAX);
        reg.install("m", counter_nn(4)).unwrap();
        reg.install("m", counter_nn(6)).unwrap();
        assert_eq!(reg.names(), vec!["m".to_string()]);
        let m = reg.get("m").unwrap();
        assert_eq!(m.nn.num_primary_outputs, 6);
    }
}
