//! The compiled-session registry: builtin benchmarks plus user-submitted
//! models.
//!
//! At boot the server walks `ppl_models`' benchmark registry, runs the
//! full pipeline on every expressible model–guide pair — parse, guide-type
//! inference, compatibility check, compilation to shared
//! `CompiledProgram`s — and keeps each resulting [`Session`] behind an
//! `Arc`.  Request handling therefore never parses or type-checks
//! anything: a query borrows the pre-compiled session, and all its
//! particles (across all worker threads) execute the same immutable
//! program tables, exactly as PR 2's zero-copy core intends.
//!
//! PR 6 adds a second population: **user models** admitted through
//! `POST /v1/models` (see [`crate::ingest`]).  They live in a bounded,
//! interior-mutable side table keyed by their deterministic content-hash
//! id.  When the table is full the least-recently-used user model is
//! evicted; builtins are immortal.  Evicting a model never poisons the
//! response cache: cache keys embed the content-hash id, so a re-submitted
//! model (same id ⇒ same sources ⇒ same deterministic results) may safely
//! reuse cached bytes.
//!
//! Each entry also carries the *rendered protocols* (latent and
//! observation) so `GET /v1/models` can tell clients what a request must
//! look like before they try one — the paper's static-certification
//! discipline, published as API metadata.

use guide_ppl::Session;
use ppl_inference::ParamSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default capacity of the user-model table (overridable with
/// [`Registry::with_user_capacity`] / the `--user-models` flag).
pub const DEFAULT_USER_MODEL_CAPACITY: usize = 32;

/// Per-request execution cap for user-submitted models.  Builtins keep the
/// full [`crate::api::MAX_REQUEST_EXECUTIONS`] budget; untrusted models get
/// a tenth of it, folded into the same accounting in `decode_request`.
pub const MAX_USER_MODEL_EXECUTIONS: u64 = crate::api::MAX_REQUEST_EXECUTIONS / 10;

/// A variational parameter from its `(name, init, positive)` triple: the
/// one constructor for registry defaults, request `params` and the schemas
/// stored fits carry.
pub(crate) fn param_spec(name: impl Into<String>, init: f64, positive: bool) -> ParamSpec {
    ParamSpec {
        name: name.into(),
        init,
        positive,
    }
}

/// Where a model entered the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelOrigin {
    /// Compiled at boot from the benchmark registry; never evicted.
    Builtin,
    /// Admitted over HTTP through `POST /v1/models`; subject to LRU
    /// eviction.
    User,
}

impl ModelOrigin {
    /// The wire spelling used in listings and `/metrics`.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelOrigin::Builtin => "builtin",
            ModelOrigin::User => "user",
        }
    }
}

/// One servable model: a compiled session plus the metadata the API
/// publishes about it.
#[derive(Debug)]
pub struct ModelEntry {
    /// Stable lookup id: the registry name for builtins, the content-hash
    /// id (`m-<16 hex>`) for user models.  Cache fingerprints embed this,
    /// so it must be unique for the lifetime of the process.
    pub id: String,
    /// Display name (registry name, or the name the submitter chose).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The compiled, type-checked session.
    pub session: Arc<Session>,
    /// The latent protocol, rendered.
    pub latent_protocol: String,
    /// The observation protocol, rendered; `None` when the model has no
    /// observation channel.
    pub observation_protocol: Option<String>,
    /// The benchmark's reference observation count (a hint for clients;
    /// branchy protocols admit other counts too).
    pub default_observation_count: usize,
    /// The algorithm the paper's evaluation uses for this model.
    pub default_method: &'static str,
    /// The registry's initial variational parameters: a VI request's
    /// default `params`, and (their values) the guide arguments of an
    /// IS/MH request that supplies none.
    pub guide_param_defaults: Vec<ParamSpec>,
    /// Whether the model is a builtin or was submitted by a user.
    pub origin: ModelOrigin,
    /// Per-request execution budget for this model (folded into the
    /// global `MAX_REQUEST_EXECUTIONS` accounting).
    pub max_request_executions: u64,
    /// Times this exact model (same content hash) was submitted.
    pub submissions: AtomicU64,
    /// Times this model served a `/v1/query` or `/v1/batch` request.
    pub queries: AtomicU64,
    /// Times this model served a `POST /v1/fit` request (including
    /// idempotent reuses of an existing artifact).
    pub fits: AtomicU64,
    /// Joint executions run on cache misses (particles, MH iterations,
    /// VI samples) — the numerator of the model's throughput gauge.
    pub executions: AtomicU64,
    /// Wall-clock nanoseconds spent running those executions.
    pub execution_nanos: AtomicU64,
}

impl ModelEntry {
    /// Records one query against this model.
    pub fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries served so far.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Records one fit request against this model.
    pub fn record_fit(&self) {
        self.fits.fetch_add(1, Ordering::Relaxed);
    }

    /// Fit requests served so far.
    pub fn fit_count(&self) -> u64 {
        self.fits.load(Ordering::Relaxed)
    }

    /// Submissions seen so far (1 for builtins).
    pub fn submission_count(&self) -> u64 {
        self.submissions.load(Ordering::Relaxed)
    }

    /// Records one inference run: `executions` joint executions taking
    /// `nanos` wall-clock nanoseconds (cache hits run nothing and record
    /// nothing).
    pub fn record_execution(&self, executions: u64, nanos: u64) {
        self.executions.fetch_add(executions, Ordering::Relaxed);
        self.execution_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Joint executions per second across the model's recorded runs, or
    /// `None` before any run.  Approximate (two relaxed counters), which
    /// is fine for a throughput gauge.
    pub fn executions_per_sec(&self) -> Option<f64> {
        let nanos = self.execution_nanos.load(Ordering::Relaxed);
        if nanos == 0 {
            return None;
        }
        Some(self.executions.load(Ordering::Relaxed) as f64 / (nanos as f64 / 1e9))
    }
}

/// A user-model slot: the entry plus its LRU bookkeeping.
#[derive(Debug)]
struct UserSlot {
    entry: Arc<ModelEntry>,
    /// Monotonic tick of the last lookup (or insertion).
    last_used: u64,
    /// Monotonic tick of the first insertion (for stable listing order).
    inserted: u64,
}

#[derive(Debug, Default)]
struct UserModels {
    slots: HashMap<String, UserSlot>,
    tick: u64,
}

/// The registry of compiled sessions: immutable builtins built at boot,
/// plus a bounded, lock-protected table of user-submitted models.
#[derive(Debug, Default)]
pub struct Registry {
    builtins: Vec<Arc<ModelEntry>>,
    by_name: HashMap<String, usize>,
    user: Mutex<UserModels>,
    user_capacity: usize,
    evictions: AtomicU64,
}

impl Registry {
    /// Builds sessions for every expressible benchmark in `ppl_models`.
    ///
    /// Benchmarks that are registered but not expressible (`dp`) are
    /// skipped; an expressible benchmark whose pipeline fails would be a
    /// bug in the model library, so it panics rather than silently serving
    /// a partial catalogue.
    pub fn from_benchmarks() -> Registry {
        let mut registry = Registry {
            user_capacity: DEFAULT_USER_MODEL_CAPACITY,
            ..Registry::default()
        };
        for b in ppl_models::all_benchmarks() {
            if !b.expressible {
                continue;
            }
            let session = Session::from_benchmark(b.name)
                .unwrap_or_else(|e| panic!("registry model '{}' failed the pipeline: {e}", b.name));
            registry.push(ModelEntry {
                id: b.name.to_string(),
                name: b.name.to_string(),
                description: b.description.to_string(),
                latent_protocol: session.latent_protocol(),
                observation_protocol: session.observation_protocol(),
                default_observation_count: b.observations.len(),
                default_method: b.inference.abbreviation(),
                guide_param_defaults: b
                    .guide_params
                    .iter()
                    .map(|p| param_spec(p.name, p.init, p.positive))
                    .collect(),
                session: Arc::new(session),
                origin: ModelOrigin::Builtin,
                max_request_executions: crate::api::MAX_REQUEST_EXECUTIONS,
                submissions: AtomicU64::new(1),
                queries: AtomicU64::new(0),
                fits: AtomicU64::new(0),
                executions: AtomicU64::new(0),
                execution_nanos: AtomicU64::new(0),
            });
        }
        registry
    }

    /// Sets the user-model capacity (0 disables submissions entirely).
    pub fn with_user_capacity(mut self, capacity: usize) -> Registry {
        self.user_capacity = capacity;
        self
    }

    /// The user-model capacity.
    pub fn user_capacity(&self) -> usize {
        self.user_capacity
    }

    /// Adds a builtin entry (later entries shadow earlier ones by name).
    pub fn push(&mut self, entry: ModelEntry) {
        self.by_name.insert(entry.id.clone(), self.builtins.len());
        self.builtins.push(Arc::new(entry));
    }

    /// Looks up a model by builtin name or user-model id.  A user-model
    /// hit refreshes its LRU position.
    pub fn get(&self, name_or_id: &str) -> Option<Arc<ModelEntry>> {
        if let Some(&i) = self.by_name.get(name_or_id) {
            return Some(Arc::clone(&self.builtins[i]));
        }
        let mut user = self.user.lock().expect("registry poisoned");
        user.tick += 1;
        let tick = user.tick;
        user.slots.get_mut(name_or_id).map(|slot| {
            slot.last_used = tick;
            Arc::clone(&slot.entry)
        })
    }

    /// Registers a user model under its content-hash id.
    ///
    /// Idempotent: re-submitting the same id returns the existing entry
    /// (with its submission counter bumped) and reports `created = false`.
    /// When the table is at capacity the least-recently-used user model is
    /// evicted first — builtins are never candidates.  Returns `None` when
    /// the capacity is zero.
    pub fn insert_user(&self, entry: ModelEntry) -> Option<(Arc<ModelEntry>, bool)> {
        if self.user_capacity == 0 {
            return None;
        }
        let mut user = self.user.lock().expect("registry poisoned");
        user.tick += 1;
        let tick = user.tick;
        if let Some(slot) = user.slots.get_mut(&entry.id) {
            slot.last_used = tick;
            slot.entry.submissions.fetch_add(1, Ordering::Relaxed);
            return Some((Arc::clone(&slot.entry), false));
        }
        while user.slots.len() >= self.user_capacity {
            // Scan-on-evict, like the response cache: the table is small
            // (tens of entries), and no two slots share a fresh tick.
            let victim = user
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(id, _)| id.clone())
                .expect("non-empty over-capacity table");
            user.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let arc = Arc::new(entry);
        user.slots.insert(
            arc.id.clone(),
            UserSlot {
                entry: Arc::clone(&arc),
                last_used: tick,
                inserted: tick,
            },
        );
        Some((arc, true))
    }

    /// Removes a user model by id.  Builtins cannot be removed.
    pub fn remove_user(&self, id: &str) -> bool {
        let mut user = self.user.lock().expect("registry poisoned");
        user.slots.remove(id).is_some()
    }

    /// All entries: builtins in registry order, then user models in
    /// insertion order.
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        let mut out: Vec<Arc<ModelEntry>> = self.builtins.iter().map(Arc::clone).collect();
        let user = self.user.lock().expect("registry poisoned");
        let mut slots: Vec<&UserSlot> = user.slots.values().collect();
        slots.sort_by_key(|s| s.inserted);
        out.extend(slots.into_iter().map(|s| Arc::clone(&s.entry)));
        out
    }

    /// Number of servable models (builtin + user).
    pub fn len(&self) -> usize {
        self.builtins.len() + self.user_len()
    }

    /// Number of builtin models.
    pub fn builtin_len(&self) -> usize {
        self.builtins.len()
    }

    /// Number of user models currently resident.
    pub fn user_len(&self) -> usize {
        self.user.lock().expect("registry poisoned").slots.len()
    }

    /// User models evicted since boot.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// True when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user_entry(id: &str) -> ModelEntry {
        let session = Session::from_benchmark("ex-1").unwrap();
        ModelEntry {
            id: id.to_string(),
            name: format!("user-{id}"),
            description: "test user model".into(),
            latent_protocol: session.latent_protocol(),
            observation_protocol: session.observation_protocol(),
            default_observation_count: 0,
            default_method: "IS",
            guide_param_defaults: Vec::new(),
            session: Arc::new(session),
            origin: ModelOrigin::User,
            max_request_executions: MAX_USER_MODEL_EXECUTIONS,
            submissions: AtomicU64::new(1),
            queries: AtomicU64::new(0),
            fits: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            execution_nanos: AtomicU64::new(0),
        }
    }

    #[test]
    fn registry_compiles_every_expressible_benchmark_once() {
        let registry = Registry::from_benchmarks();
        assert!(registry.len() >= 15, "{} models", registry.len());
        let ex1 = registry.get("ex-1").expect("ex-1 registered");
        assert!(!ex1.latent_protocol.is_empty());
        assert!(ex1.observation_protocol.is_some());
        assert_eq!(ex1.default_method, "IS");
        assert_eq!(ex1.default_observation_count, 1);
        assert_eq!(ex1.origin, ModelOrigin::Builtin);
        assert_eq!(
            ex1.max_request_executions,
            crate::api::MAX_REQUEST_EXECUTIONS
        );
        // The inexpressible benchmark is not served.
        assert!(registry.get("dp").is_none());
        assert!(registry.get("unknown").is_none());
        // `weight` carries VI parameter defaults for argument-less requests.
        let weight = registry.get("weight").expect("weight registered");
        assert_eq!(weight.guide_param_defaults.len(), 2);
        assert_eq!(weight.guide_param_defaults[0].name, "mu");
    }

    #[test]
    fn user_models_are_idempotent_and_evict_lru_only() {
        let registry = Registry::from_benchmarks().with_user_capacity(2);
        let builtin_count = registry.builtin_len();
        let (a, created) = registry.insert_user(user_entry("m-a")).unwrap();
        assert!(created);
        assert_eq!(a.submission_count(), 1);
        // Idempotent re-submit: same entry back, counter bumped.
        let (a2, created) = registry.insert_user(user_entry("m-a")).unwrap();
        assert!(!created);
        assert_eq!(a2.id, "m-a");
        assert_eq!(a2.submission_count(), 2);
        registry.insert_user(user_entry("m-b")).unwrap();
        assert_eq!(registry.user_len(), 2);
        // Touch m-a so m-b becomes the LRU victim.
        registry.get("m-a").unwrap();
        registry.insert_user(user_entry("m-c")).unwrap();
        assert_eq!(registry.user_len(), 2);
        assert_eq!(registry.evictions(), 1);
        assert!(registry.get("m-b").is_none(), "LRU user model evicted");
        assert!(registry.get("m-a").is_some());
        assert!(registry.get("m-c").is_some());
        // Builtins are untouched by eviction pressure.
        assert_eq!(registry.builtin_len(), builtin_count);
        assert!(registry.get("ex-1").is_some());
        // Listings put builtins first, then user models by insertion.
        let entries = registry.entries();
        assert_eq!(entries.len(), builtin_count + 2);
        assert_eq!(entries[builtin_count].id, "m-a");
        assert_eq!(entries[builtin_count + 1].id, "m-c");
        // Removal works for user models only.
        assert!(registry.remove_user("m-a"));
        assert!(!registry.remove_user("m-a"));
        assert!(!registry.remove_user("ex-1"));
        assert!(registry.get("ex-1").is_some());
    }

    #[test]
    fn zero_capacity_disables_submissions() {
        let registry = Registry::from_benchmarks().with_user_capacity(0);
        assert!(registry.insert_user(user_entry("m-a")).is_none());
        assert_eq!(registry.user_len(), 0);
    }
}
