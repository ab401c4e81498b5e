//! Content-addressed result cache.
//!
//! One file per entry, named by the content key (the SHA-256 of the
//! canonical instance + options JSON, see `gncg_json::canon`), so two
//! sweeps that describe the same computation — whatever their field
//! order, float spelling, or range syntax — share the entry. The sweep
//! engine (`gncg_sweep::engine`) is the only code that gets from or
//! puts to it. The cache stores only *deterministic, budget-free*
//! computations: a unit that carries a wall-clock budget can degrade
//! nondeterministically, so the engine bypasses the cache entirely (no
//! get, no put) for it.
//!
//! # Entry format and self-verification
//!
//! ```text
//! {"key":"<hex>","payload":<value>,"payload_sha":"<hex>","v":1}
//! ```
//!
//! written as canonical compact JSON. `payload_sha` is the SHA-256 of
//! the payload's own canonical print, so a [`ResultCache::get`]
//! re-hashes what it read and never trusts bytes that were truncated,
//! bit-flipped, or copied under the wrong name: any mismatch (parse
//! failure, wrong `v`, key mismatch, hash mismatch) *quarantines* the
//! file — renames it to `*.quarantine.<pid>.<seq>` so the evidence
//! survives for inspection — and reports a miss, forcing a recompute
//! that overwrites the slot with a valid entry.
//!
//! # Crash and race safety
//!
//! [`ResultCache::put`] writes to a uniquely-named `*.tmp.<pid>.<seq>`
//! sibling, fsyncs, then renames over the final name — readers never
//! observe a partial entry. Writers racing on one key are benign:
//! payloads are deterministic functions of the key, so whichever rename
//! lands last installs the same bytes. A writer whose rename fails
//! because a sibling swept its tmp first just verifies the winner's
//! entry and reports success. After a successful install the writer
//! sweeps leftover tmps for that key, so injected-fault crashes
//! (`GNCG_FAULT_INJECT`, exercised via the `fault_point` inside `put`)
//! cannot accumulate debris as long as some writer eventually succeeds;
//! [`ResultCache::gc`] removes whatever debris remains.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gncg_json::{canon, Value};

/// Process-wide directory override for [`ResultCache::from_env`], the
/// programmatic analogue of `GNCG_CACHE_DIR` (mirrors the
/// `netfault::set_probability` pattern: tests and embedders configure
/// the process without touching its environment).
static DIR_OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Install (`Some`) or clear (`None`) the process-wide cache directory.
/// While installed, [`ResultCache::from_env`] uses it and ignores
/// `GNCG_CACHE_DIR`.
pub fn set_process_cache_dir(dir: Option<PathBuf>) {
    *DIR_OVERRIDE.lock().unwrap() = dir;
}

/// A content-addressed cache rooted at one directory. Cheap to clone
/// conceptually (wrap in `Arc` to share across jobs).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    seq: AtomicU64,
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            seq: AtomicU64::new(0),
        })
    }

    /// The cache the process asks for: the [`set_process_cache_dir`]
    /// override when installed, else `Some` iff `GNCG_CACHE_DIR` is set
    /// (re-read per call via `gncg_config::env`; unsetting it turns the
    /// cache off). Returns `None` (cache off) if the directory cannot
    /// be created.
    pub fn from_env() -> Option<Self> {
        let dir = DIR_OVERRIDE
            .lock()
            .unwrap()
            .clone()
            .or_else(gncg_config::env::cache_dir)?;
        Self::at(dir).ok()
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    fn unique_suffix(&self) -> String {
        format!(
            "{}.{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Look up `key`. Verifies the entry end-to-end (version, key
    /// field, payload hash) before returning its payload; anything
    /// invalid is quarantined and reported as a miss. Bumps the
    /// `cache_hits` / `cache_misses` trace counters.
    pub fn get(&self, key: &str) -> Option<Value> {
        let path = self.entry_path(key);
        // `None` only when there was nothing to read. Judging presence
        // by a later `exists()` instead would race a writer installing
        // the entry between the two calls and quarantine its valid file.
        let bytes = fs::read(&path).ok();
        let payload = bytes
            .as_deref()
            .and_then(|b| std::str::from_utf8(b).ok())
            .and_then(|text| Self::verify(key, text));
        match payload {
            Some(p) => {
                gncg_trace::incr(gncg_trace::Counter::CacheHits);
                Some(p)
            }
            None => {
                if bytes.is_some() {
                    // Present but invalid: quarantine the evidence so the
                    // slot is free for a valid recompute.
                    let q = self
                        .dir
                        .join(format!("{key}.json.quarantine.{}", self.unique_suffix()));
                    let _ = fs::rename(&path, &q);
                }
                gncg_trace::incr(gncg_trace::Counter::CacheMisses);
                None
            }
        }
    }

    /// Parse + verify one entry's text; `None` on any defect.
    fn verify(key: &str, text: &str) -> Option<Value> {
        let entry = gncg_json::parse(text).ok()?;
        if entry.get("v")?.as_u64()? != 1 {
            return None;
        }
        if entry.get("key")?.as_str()? != key {
            return None;
        }
        let payload = entry.get("payload")?;
        let recorded = entry.get("payload_sha")?.as_str()?;
        if canon::sha256_hex(canon::canonical_string(payload).as_bytes()) != recorded {
            return None;
        }
        Some(payload.clone())
    }

    /// Install `payload` under `key` atomically (tmp + fsync + rename).
    /// Racing writers converge on one valid entry; see the module docs.
    /// Contains a `fault_point` so `GNCG_FAULT_INJECT` soaks exercise
    /// the crash-mid-put path.
    pub fn put(&self, key: &str, payload: &Value) -> std::io::Result<()> {
        // Absorb injected crashes by retrying the whole attempt — the
        // same discipline the parallel chunk runners hold: a crashed
        // attempt left at most a uniquely-named tmp (swept on the next
        // success), never a partial entry, so a retry cannot double any
        // side effect. Without this a `GNCG_FAULT_INJECT` soak would
        // turn cache writes inside session jobs into job panics.
        loop {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.put_attempt(key, payload)
            })) {
                Ok(result) => return result,
                Err(p) if gncg_parallel::fault::is_injected(&*p) => continue,
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    }

    /// One crash-prone attempt: the `fault_point`s model a writer dying
    /// before the tmp exists and between fsync and rename.
    fn put_attempt(&self, key: &str, payload: &Value) -> std::io::Result<()> {
        gncg_parallel::fault::fault_point();
        let entry = gncg_json::object(vec![
            ("key", Value::String(key.to_string())),
            ("payload", payload.clone()),
            (
                "payload_sha",
                Value::String(canon::sha256_hex(
                    canon::canonical_string(payload).as_bytes(),
                )),
            ),
            ("v", Value::Number(1.0)),
        ]);
        let bytes = canon::canonical_string(&entry);
        let tmp = self
            .dir
            .join(format!("{key}.json.tmp.{}", self.unique_suffix()));
        let final_path = self.entry_path(key);
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes.as_bytes())?;
            f.sync_all()?;
            gncg_parallel::fault::fault_point();
            fs::rename(&tmp, &final_path)
        })();
        if write.is_err() {
            // A sibling writer may have swept our tmp after installing
            // its own (identical) entry — losing the race to an equal
            // payload is success, not failure.
            let valid = fs::read_to_string(&final_path)
                .ok()
                .and_then(|text| Self::verify(key, &text))
                .is_some();
            let _ = fs::remove_file(&tmp);
            if !valid {
                return write;
            }
        }
        self.sweep_tmps(key);
        Ok(())
    }

    /// Remove leftover `*.tmp.*` siblings of `key` (crashed writers).
    /// Best-effort; an in-flight writer whose tmp we sweep falls back to
    /// verifying the installed entry.
    fn sweep_tmps(&self, key: &str) {
        let prefix = format!("{key}.json.tmp.");
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = fs::remove_file(e.path());
            }
        }
    }

    /// Garbage-collect debris: orphaned `*.tmp.*` files (crashed
    /// writers) and `*.quarantine.*` files (inspected-or-not corrupt
    /// entries). Valid entries are never touched. Returns the number of
    /// files removed.
    pub fn gc(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        for e in fs::read_dir(&self.dir)?.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if (name.contains(".json.tmp.") || name.contains(".json.quarantine."))
                && fs::remove_file(e.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Number of valid-named entries (`*.json`, excluding debris) —
    /// for `gncg sweep gc` reporting and tests.
    pub fn entry_count(&self) -> std::io::Result<usize> {
        let mut n = 0;
        for e in fs::read_dir(&self.dir)?.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".json") {
                n += 1;
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gncg_json::object;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gncg_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn payload() -> Value {
        object(vec![
            ("beta", Value::Number(1.25)),
            ("n", Value::Number(8.0)),
        ])
    }

    #[test]
    fn put_get_roundtrip() {
        let cache = ResultCache::at(tmpdir("roundtrip")).unwrap();
        let key = canon::content_key(&payload());
        assert!(cache.get(&key).is_none());
        cache.put(&key, &payload()).unwrap();
        let got = cache.get(&key).expect("hit after put");
        assert_eq!(
            canon::canonical_string(&got),
            canon::canonical_string(&payload())
        );
        // No tmp debris after a successful put.
        for e in fs::read_dir(cache.dir()).unwrap().flatten() {
            assert!(
                !e.file_name().to_string_lossy().contains(".tmp."),
                "tmp survivor: {:?}",
                e.file_name()
            );
        }
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recomputed() {
        let cache = ResultCache::at(tmpdir("corrupt")).unwrap();
        let key = canon::content_key(&payload());
        cache.put(&key, &payload()).unwrap();

        // Flip a payload byte without updating the recorded hash.
        let path = cache.dir().join(format!("{key}.json"));
        let text = fs::read_to_string(&path).unwrap().replace("1.25", "9.25");
        fs::write(&path, text).unwrap();

        assert!(cache.get(&key).is_none(), "tampered entry must miss");
        assert!(!path.exists(), "tampered entry must be quarantined away");
        let quarantined = fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".quarantine."))
            .count();
        assert_eq!(quarantined, 1);

        // Recompute fills the slot again.
        cache.put(&key, &payload()).unwrap();
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.gc().unwrap(), 1); // removes the quarantine file
        assert!(cache.get(&key).is_some(), "gc never touches valid entries");
    }

    #[test]
    fn truncated_and_wrong_key_entries_miss() {
        let cache = ResultCache::at(tmpdir("trunc")).unwrap();
        let key = canon::content_key(&payload());
        cache.put(&key, &payload()).unwrap();

        // Truncation.
        let path = cache.dir().join(format!("{key}.json"));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.get(&key).is_none());

        // A valid entry copied under the wrong name (content address
        // mismatch) must not be trusted either.
        cache.put(&key, &payload()).unwrap();
        let other = "0".repeat(64);
        fs::copy(
            cache.dir().join(format!("{key}.json")),
            cache.dir().join(format!("{other}.json")),
        )
        .unwrap();
        assert!(cache.get(&other).is_none());
    }
}
