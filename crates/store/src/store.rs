//! The artifact store: an in-memory index over optionally-persistent,
//! crash-safe artifact files.
//!
//! # Persistence and crash safety
//!
//! With a directory configured ([`Store::open`]), each artifact is one
//! file `<id>.json` written atomically: the bytes go to `<id>.json.tmp`
//! first, then a `rename` publishes them.  A crash mid-write leaves only
//! a `.tmp` file, which the boot scan ignores (and a later successful
//! write of the same artifact overwrites).  Malformed or truncated
//! `a-*.json` files are *skipped with a counted warning* at boot — a
//! corrupt checkpoint must never prevent the server from starting.
//!
//! # Bounded GC
//!
//! The index holds at most `capacity` artifacts.  Inserting beyond
//! capacity evicts the least-recently-used artifact and deletes its file,
//! using the same tick-based scan-on-evict pattern as the serving
//! registry: every insert and `get` takes a fresh tick, so no two
//! artifacts tie, and warm-path artifacts survive pressure from one-off
//! fits.

use crate::artifact::{Artifact, ArtifactError};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default maximum number of artifacts the store retains.
pub const DEFAULT_STORE_CAPACITY: usize = 256;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem I/O failed; the operation names what it was doing.
    Io {
        /// What the store was doing when the I/O failed.
        what: &'static str,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The artifact could not be serialised (a non-finite float reached
    /// the encoder).
    Encode,
    /// The artifact bytes on disk could not be decoded.
    Artifact(ArtifactError),
}

impl StoreError {
    /// Stable machine-readable code for this error.
    pub fn code(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "store.io",
            StoreError::Encode => "store.encode",
            StoreError::Artifact(e) => e.code(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { what, source } => write!(f, "{}: {what}: {source}", self.code()),
            StoreError::Encode => write!(
                f,
                "{}: artifact contains a non-finite number and cannot be encoded",
                self.code()
            ),
            StoreError::Artifact(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

struct Slot {
    artifact: Arc<Artifact>,
    bytes: u64,
    last_used: u64,
}

struct Index {
    slots: HashMap<String, Slot>,
    tick: u64,
}

/// The artifact store (see module docs).  Cheap to share behind an `Arc`;
/// all methods take `&self`.
pub struct Store {
    dir: Option<PathBuf>,
    capacity: usize,
    index: Mutex<Index>,
    warm_starts: AtomicU64,
    evictions: AtomicU64,
    skipped_at_boot: u64,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Creates a purely in-memory store (no persistence) with the given
    /// capacity.
    pub fn in_memory(capacity: usize) -> Store {
        Store {
            dir: None,
            capacity: capacity.max(1),
            index: Mutex::new(Index {
                slots: HashMap::new(),
                tick: 0,
            }),
            warm_starts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            skipped_at_boot: 0,
        }
    }

    /// Opens (creating if needed) a persistent store rooted at `dir` and
    /// warm-starts the index from the artifacts already on disk.
    ///
    /// Files are scanned in filename order so boot ticks — and therefore
    /// later LRU decisions — are deterministic.  `.tmp` leftovers from an
    /// interrupted write and files that fail to decode are skipped, and
    /// [`Store::skipped_at_boot`] counts them; a corrupt file never stops
    /// boot.  If disk holds more than `capacity` artifacts, the excess
    /// (oldest filenames first) is evicted immediately.
    pub fn open(dir: &Path, capacity: usize) -> Result<Store, StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::Io {
            what: "creating the store directory",
            source: e,
        })?;
        let mut names: Vec<PathBuf> = fs::read_dir(dir)
            .map_err(|e| StoreError::Io {
                what: "scanning the store directory",
                source: e,
            })?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| {
                path.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("a-") && n.ends_with(".json"))
            })
            .collect();
        names.sort();
        let mut skipped = 0u64;
        let mut store = Store {
            dir: Some(dir.to_path_buf()),
            capacity: capacity.max(1),
            index: Mutex::new(Index {
                slots: HashMap::new(),
                tick: 0,
            }),
            warm_starts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            skipped_at_boot: 0,
        };
        for path in names {
            let Ok(bytes) = fs::read(&path) else {
                skipped += 1;
                continue;
            };
            match Artifact::from_bytes(&bytes) {
                Ok(artifact) => {
                    // Trust the content hash over the filename: a renamed
                    // file re-registers under its true id.
                    store.insert_unlocked(Arc::new(artifact), bytes.len() as u64);
                }
                Err(_) => skipped += 1,
            }
        }
        store.skipped_at_boot = skipped;
        Ok(store)
    }

    fn insert_unlocked(&self, artifact: Arc<Artifact>, bytes: u64) {
        let mut index = self.index.lock().expect("store poisoned");
        index.tick += 1;
        let tick = index.tick;
        index.slots.insert(
            artifact.id.clone(),
            Slot {
                artifact,
                bytes,
                last_used: tick,
            },
        );
        self.evict_over_capacity(&mut index);
    }

    fn evict_over_capacity(&self, index: &mut Index) {
        while index.slots.len() > self.capacity {
            let victim = index
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(id, _)| id.clone())
                .expect("non-empty over capacity");
            index.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(dir) = &self.dir {
                let _ = fs::remove_file(dir.join(format!("{victim}.json")));
            }
        }
    }

    /// Persists `artifact`, returning `(id, created)`.  Re-putting an
    /// artifact that is already indexed is idempotent (`created` =
    /// `false`, no disk write).  With a directory configured the bytes go
    /// through the atomic `.tmp` → rename protocol; an I/O failure leaves
    /// the index unchanged.
    pub fn put(&self, artifact: Artifact) -> Result<(String, bool), StoreError> {
        let id = artifact.id.clone();
        {
            let mut index = self.index.lock().expect("store poisoned");
            index.tick += 1;
            let tick = index.tick;
            if let Some(slot) = index.slots.get_mut(&id) {
                slot.last_used = tick;
                return Ok((id, false));
            }
        }
        let bytes = artifact.to_bytes().ok_or(StoreError::Encode)?;
        if let Some(dir) = &self.dir {
            let tmp = dir.join(format!("{id}.json.tmp"));
            let final_path = dir.join(format!("{id}.json"));
            fs::write(&tmp, &bytes).map_err(|e| StoreError::Io {
                what: "writing the artifact file",
                source: e,
            })?;
            fs::rename(&tmp, &final_path).map_err(|e| StoreError::Io {
                what: "publishing the artifact file",
                source: e,
            })?;
        }
        self.insert_unlocked(Arc::new(artifact), bytes.len() as u64);
        Ok((id, true))
    }

    /// Looks up an artifact by id, refreshing its LRU position.
    pub fn get(&self, id: &str) -> Option<Arc<Artifact>> {
        let mut index = self.index.lock().expect("store poisoned");
        index.tick += 1;
        let tick = index.tick;
        let slot = index.slots.get_mut(id)?;
        slot.last_used = tick;
        Some(Arc::clone(&slot.artifact))
    }

    /// Deletes an artifact (index and file).  Returns whether it existed.
    pub fn delete(&self, id: &str) -> bool {
        let existed = {
            let mut index = self.index.lock().expect("store poisoned");
            index.slots.remove(id).is_some()
        };
        if existed {
            if let Some(dir) = &self.dir {
                let _ = fs::remove_file(dir.join(format!("{id}.json")));
            }
        }
        existed
    }

    /// All indexed artifacts, sorted by id for deterministic listings.
    pub fn list(&self) -> Vec<Arc<Artifact>> {
        let index = self.index.lock().expect("store poisoned");
        let mut all: Vec<Arc<Artifact>> = index
            .slots
            .values()
            .map(|slot| Arc::clone(&slot.artifact))
            .collect();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all
    }

    /// Number of artifacts currently indexed.
    pub fn len(&self) -> usize {
        self.index.lock().expect("store poisoned").slots.len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total serialised bytes of the indexed artifacts.
    pub fn bytes(&self) -> u64 {
        let index = self.index.lock().expect("store poisoned");
        index.slots.values().map(|slot| slot.bytes).sum()
    }

    /// Number of indexed artifacts belonging to `model_id`.
    pub fn count_for_model(&self, model_id: &str) -> u64 {
        let index = self.index.lock().expect("store poisoned");
        index
            .slots
            .values()
            .filter(|slot| slot.artifact.model_id == model_id)
            .count() as u64
    }

    /// Records one artifact-warm query (a fit skipped thanks to the
    /// store).
    pub fn record_warm_start(&self) {
        self.warm_starts.fetch_add(1, Ordering::Relaxed);
    }

    /// Artifact-warm queries served so far.
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts.load(Ordering::Relaxed)
    }

    /// Artifacts evicted by capacity GC so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Files skipped (`.tmp` leftovers excluded) by the boot scan because
    /// they failed to read or decode.
    pub fn skipped_at_boot(&self) -> u64 {
        self.skipped_at_boot
    }

    /// The persistence directory, when configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The store's artifact capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{compute_id, FitConfig, FitParam, ObsLit, ARTIFACT_FORMAT_VERSION};
    use std::sync::atomic::AtomicU32;

    fn tempdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ppl-store-test-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    fn artifact(seed: u64) -> Artifact {
        let schema = vec![FitParam {
            name: "mu".into(),
            init: 0.0,
            positive: false,
        }];
        let config = FitConfig {
            iterations: 10,
            samples_per_iteration: 4,
            learning_rate: 0.05,
            fd_epsilon: 1e-4,
        };
        let observations = vec![ObsLit::Real(2.5)];
        let id = compute_id(
            "m-0011223344556677",
            &observations,
            &[],
            &schema,
            &config,
            seed,
        );
        Artifact {
            version: ARTIFACT_FORMAT_VERSION,
            id,
            model_id: "m-0011223344556677".into(),
            seed,
            observations,
            model_args: vec![],
            schema,
            config,
            params: vec![2.25 + seed as f64],
            fit_iterations: 10,
            elbo_tail: vec![-1.5],
            rng_state: 7 + seed,
            rng_inc: 0xda3e_39cb_94b9_5bdb,
        }
    }

    #[test]
    fn put_is_idempotent_and_persists_canonical_bytes() {
        let dir = tempdir("put");
        let store = Store::open(&dir, 8).expect("open");
        let a = artifact(1);
        let (id, created) = store.put(a.clone()).expect("put");
        assert!(created);
        let (id2, created2) = store.put(a.clone()).expect("re-put");
        assert!(!created2);
        assert_eq!(id, id2);
        assert_eq!(store.len(), 1);
        // The file on disk holds exactly the canonical encoding.
        let on_disk = fs::read(dir.join(format!("{id}.json"))).expect("file");
        assert_eq!(on_disk, a.to_bytes().expect("finite"));
        assert_eq!(store.bytes(), on_disk.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn boot_scan_restores_index_and_skips_tmp_and_malformed_files() {
        let dir = tempdir("boot");
        {
            let store = Store::open(&dir, 8).expect("open");
            store.put(artifact(1)).expect("put");
            store.put(artifact(2)).expect("put");
        }
        // Simulate a crash mid-write plus two corrupt files.
        fs::write(dir.join("a-0000000000000000.json.tmp"), b"{\"version\"").expect("tmp");
        fs::write(dir.join("a-1111111111111111.json"), b"not json at all").expect("bad");
        let renamed = artifact(3).to_bytes().expect("finite");
        // Valid record, wrong filename-id binding: content hash disagrees
        // after tampering.
        let tampered = String::from_utf8(renamed)
            .expect("utf8")
            .replace("\"seed\":3", "\"seed\":4");
        fs::write(dir.join("a-2222222222222222.json"), tampered).expect("tampered");

        let store = Store::open(&dir, 8).expect("reopen");
        assert_eq!(store.len(), 2, "only the two valid artifacts load");
        assert_eq!(store.skipped_at_boot(), 2, ".tmp is ignored, not counted");
        assert!(store.get(&artifact(1).id).is_some());
        assert!(store.get(&artifact(2).id).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capacity_gc_evicts_lru_and_removes_files() {
        let dir = tempdir("gc");
        let store = Store::open(&dir, 2).expect("open");
        let (id1, _) = store.put(artifact(1)).expect("put");
        let (id2, _) = store.put(artifact(2)).expect("put");
        // Refresh artifact 1 so artifact 2 is the LRU victim.
        assert!(store.get(&id1).is_some());
        let (id3, _) = store.put(artifact(3)).expect("put");
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.get(&id2).is_none(), "LRU artifact evicted");
        assert!(!dir.join(format!("{id2}.json")).exists(), "file removed");
        assert!(store.get(&id1).is_some());
        assert!(store.get(&id3).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_and_listing_and_model_counts() {
        let store = Store::in_memory(8);
        let (id1, _) = store.put(artifact(1)).expect("put");
        store.put(artifact(2)).expect("put");
        assert_eq!(store.count_for_model("m-0011223344556677"), 2);
        assert_eq!(store.count_for_model("m-ffffffffffffffff"), 0);
        let listed = store.list();
        assert_eq!(listed.len(), 2);
        assert!(listed.windows(2).all(|w| w[0].id < w[1].id), "sorted by id");
        assert!(store.delete(&id1));
        assert!(!store.delete(&id1), "second delete reports absence");
        assert_eq!(store.len(), 1);
    }
}
