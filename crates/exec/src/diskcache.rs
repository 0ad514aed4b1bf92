//! Content-addressed **on-disk** artifact store shared by the CLI and the
//! serve daemon.
//!
//! Within one matrix run, the executor's rows hold each solve once; this
//! store persists what is worth sharing *across* processes:
//!
//! * **Modules** — canonical textual IR keyed by its content
//!   [`fingerprint`](kaleidoscope_ir::Module::fingerprint), so a client can
//!   submit a module once and query by fingerprint afterwards. The files
//!   also index the revisions that were submitted: a warm start looks for
//!   the longest stored prefix of an edited module
//!   ([`DiskCache::has_module`], one `stat`). Canonical
//!   text hashes to its own name, so a module file needs no integrity
//!   line: a fetch returns the text only when `fnv1a64(text)` is the
//!   fingerprint asked for, and quarantines the file otherwise.
//! * **Reports** — rendered `analyze` reports keyed by
//!   `(fingerprint, config scope, stats flag, PTS_REPR_VERSION)`. Only
//!   *healthy* reports are stored: a degraded report depends on the budget
//!   that tripped it, and budgets are excluded from cache keys by the same
//!   argument as the executor's effective keys (the fixpoint is unique, so
//!   any solve that completes produces the same bytes).
//!
//! # Layout
//!
//! ```text
//! <cache-dir>/
//!   modules/<fp:016x>.kir                canonical module text
//!   reports/<fp:016x>-<scope>-v<N>.txt   healthy analyze report (checked)
//!   state/<fp:016x>-k<key>[c]-v<N>i<M>.bin  solved-state snapshot (checked)
//!   fe/<digest:016x>-v<F>.pack           one load's frontend entries (checked)
//!   heads/t<fnv1a64(tenant):016x>.fp     tenant's last-served fingerprint
//!   quarantine/                          corrupt artifacts parked by recovery
//! ```
//!
//! A **checked** artifact is one file whose first line is the integrity
//! line `"<fnv1a64:016x> <len>\n"` over the body that follows it. A file
//! whose line is missing, malformed or wrong (a torn write, a manual edit,
//! a file written by older code) reads as a miss.
//!
//! **Frontend entries** (`fe/`) hold one function's lowered IR, keyed by a
//! content hash of the function's signature and raw body text mixed with
//! [`FE_CACHE_VERSION`] (`v<F>` in the filename keeps incompatible
//! encodings from ever being fetched).
//! Entries carry an import list validated by the frontend loader against
//! the current revision's header, so a stale id mapping reads as a miss,
//! never a wrong function. One frontend load writes all the entries it
//! missed as a single **pack**:
//!
//! ```text
//! "<digest:016x> <len>\n"                 integrity line over the body
//! n: u64 LE                               entry count
//! n × (key, len, fnv1a64(entry)): u64 LE  entry table
//! entry bytes, concatenated in table order
//! ```
//!
//! The pack is named by its integrity digest, so a name always means the
//! same bytes. Each process keeps an index from every key to each
//! (pack, offset, len, digest) holding it, refreshed once per load by
//! listing `fe/` (see `DiskCache::fe_reader`). A key can live in several packs:
//! two modules sharing a function's text under different callee ids each
//! keep their copy, and a lookup tries every copy until the loader's
//! import validation accepts one.
//!
//! **State snapshots** are the serialized
//! [`SolvedState`](kaleidoscope_pta::SolvedState) of a converged solve,
//! fetched by the fingerprint of the *previous* revision to warm-start an
//! incremental re-solve. They are keyed by the solve's
//! [`SolveOptions::cache_key`](kaleidoscope_pta::SolveOptions::cache_key)
//! (`k<key>`), whether a context plan fed generation (`c`),
//! `PTS_REPR_VERSION` (`v<N>`) and
//! [`INCR_STATE_VERSION`](kaleidoscope_pta::INCR_STATE_VERSION) (`i<M>`) —
//! a snapshot must never warm a solve under a different schedule, policy
//! set, or representation.
//!
//! **Tenant heads** record the last module fingerprint served for each
//! tenant, so the daemon can auto-select a warm-start snapshot for
//! watch-mode traffic that doesn't carry an explicit `prev_fingerprint`.
//! Heads are advisory: a stale, missing, or evicted head only costs a
//! cold solve, never a wrong answer, so they carry no integrity line
//! and are excluded from the eviction cap.
//!
//! `<scope>` is `all` (the full Table-3 matrix) or `c<k>` for a single
//! configuration (`k` = [`PolicyConfig::key`]), with an `s2` suffix when
//! solver stats rows are included. `<N>` is
//! [`PTS_REPR_VERSION`](kaleidoscope_pta::PTS_REPR_VERSION), so a
//! representation change can never serve a stale report.
//!
//! Every fetch is verified against the integrity line; a mismatch is
//! treated as a miss and the entry is recomputed. Writes go to a temp file
//! in the same directory and are published with an atomic rename, so
//! concurrent daemon workers and CLI runs can share one directory without
//! locking — last writer wins with identical bytes.
//!
//! [`DiskCache::recover`] is the crash-recovery sweep: `.tmp*` orphans
//! from publishes that died before their rename are deleted, and checked
//! artifacts that fail verification (or are not in the current format),
//! and module files whose text does not hash to their name, are moved
//! into `quarantine/` (counted in [`DiskCacheStats`]) instead of silently
//! re-missing on every fetch forever. Opening a store does not sweep: a
//! sweep deletes every `.tmp*` file, including the live publish of
//! another process sharing the directory, so only the owner of the
//! directory (the serve daemon, at start and at drain) runs it.
//!
//! The directory is chosen by `--cache-dir`, falling back to the
//! `KD_CACHE_DIR` environment variable; with neither, callers run without
//! a disk store (the CLI) or pick their own default (the daemon).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ffi::OsString;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use kaleidoscope::PolicyConfig;
use kaleidoscope_ir::fnv1a64;

/// Environment variable naming the shared cache directory.
pub const CACHE_DIR_ENV: &str = "KD_CACHE_DIR";

/// Version of the per-function frontend cache (`fe/` namespace): the IR
/// byte codec, the key derivation, the import-list layout and the pack
/// layout. Any change to `kaleidoscope_ir::codec` or to the entry or pack
/// framing must bump this so stale entries are never decoded. The version
/// is part of every key and every pack name, so an entry in an older
/// layout is never looked up.
///
/// v3: an entry holds the import list and the lowered function only; v2
/// entries also carried the function's recorded constraint block.
pub const FE_CACHE_VERSION: u32 = 3;

/// What an analyze report covered: the whole Table-3 matrix or a single
/// configuration, with or without solver-stats rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportScope {
    /// `None` = all eight Table-3 configurations in order.
    pub config: Option<PolicyConfig>,
    /// Whether solver counters are included in the report.
    pub stats: bool,
    /// Ignored. It partitioned the reports of a solver schedule that has
    /// since been removed; the field stays so existing callers compile.
    pub wave: bool,
}

impl ReportScope {
    /// The filename fragment for this scope.
    fn tag(&self) -> String {
        let mut base = match self.config {
            None => "all".to_string(),
            Some(c) => format!("c{}", c.key()),
        };
        if self.stats {
            // `s2`, not `s`: the stats line lost three fields, so reports
            // stored under the old suffix must not be served.
            base.push_str("s2");
        }
        base
    }
}

/// Traffic counters for the disk store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Report lookups performed.
    pub report_lookups: u64,
    /// Report lookups served from disk (verified).
    pub report_hits: u64,
    /// Solved-state snapshot lookups performed.
    pub state_lookups: u64,
    /// Snapshot lookups served from disk (verified).
    pub state_hits: u64,
    /// Per-function frontend entry lookups performed.
    pub fe_lookups: u64,
    /// Frontend entry lookups served from disk (verified).
    pub fe_hits: u64,
    /// Artifacts, module files and `fe/` packs or entries rejected by
    /// integrity verification.
    pub verify_failures: u64,
    /// `.tmp` publish orphans removed by recovery sweeps.
    pub tmp_swept: u64,
    /// Corrupt artifacts moved to `quarantine/` by recovery sweeps.
    pub quarantined: u64,
}

/// The on-disk artifact store. See the module docs for the layout.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    report_lookups: AtomicU64,
    report_hits: AtomicU64,
    state_lookups: AtomicU64,
    state_hits: AtomicU64,
    fe_lookups: AtomicU64,
    fe_hits: AtomicU64,
    verify_failures: AtomicU64,
    tmp_swept: AtomicU64,
    quarantined: AtomicU64,
    fe_index: Mutex<FeIndex>,
}

/// One evictable unit of the store: a module, report, snapshot or pack
/// file.
#[derive(Debug)]
struct Artifact {
    path: PathBuf,
    bytes: u64,
    mtime: Option<std::time::SystemTime>,
}

/// Where one copy of an `fe/` entry lives.
#[derive(Debug, Clone, Copy)]
struct FeSlot {
    /// Index into [`FeIndex::paths`].
    pack: u32,
    offset: u64,
    len: u64,
    digest: u64,
}

/// This process's view of the `fe/` packs (see the module docs).
#[derive(Debug, Default)]
struct FeIndex {
    /// Every pack file name read so far, healthy or not, with its id.
    packs: HashMap<OsString, u32>,
    /// Pack paths by id.
    paths: Vec<PathBuf>,
    /// Every indexed copy of every key, sorted by key; the copies of one
    /// key in the order their packs were read. A flat vector, not a map
    /// of vectors: a worker indexes every function the directory holds,
    /// at 40 bytes each.
    slots: Vec<(u64, FeSlot)>,
}

/// A pack to index: its file name, its path, and its entry table (`None`
/// for a pack that failed verification, so it is not re-read every load).
type NewPack = (OsString, PathBuf, Option<Vec<(u64, FeSlot)>>);

impl FeIndex {
    /// Record `packs`, then restore the key order once for all of them.
    fn insert(&mut self, packs: Vec<NewPack>) {
        for (name, path, table) in packs {
            let id = self.paths.len() as u32;
            self.paths.push(path);
            self.packs.insert(name, id);
            let table = table.into_iter().flatten();
            self.slots
                .extend(table.map(|(key, s)| (key, FeSlot { pack: id, ..s })));
        }
        // In place, so indexing never doubles the index's memory; each
        // key's copies stay in the order their packs were read.
        self.slots.sort_unstable_by_key(|&(key, s)| (key, s.pack));
    }

    /// Every indexed copy of `key`.
    fn copies(&self, key: u64) -> impl Iterator<Item = FeSlot> + '_ {
        let start = self.slots.partition_point(|&(k, _)| k < key);
        self.slots[start..]
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, s)| s)
    }
}

/// The file-name suffix of current-version `fe/` packs.
fn pack_suffix() -> String {
    format!("-v{FE_CACHE_VERSION}.pack")
}

/// The integrity line over a body made of `chunks`:
/// `"<fnv1a64:016x> <len>\n"`.
fn integrity_line(chunks: &[&[u8]]) -> String {
    let len: usize = chunks.iter().map(|c| c.len()).sum();
    format!("{:016x} {len}\n", fnv1a64(chunks))
}

/// The length of the integrity line opening `bytes`, when it matches the
/// body after it; `None` for a missing, malformed or wrong line.
fn verified_header_len(bytes: &[u8]) -> Option<usize> {
    // 16 hex digits, a space, at most 20 decimal digits and the newline.
    let nl = bytes.iter().take(38).position(|&b| b == b'\n')?;
    let body = &bytes[nl + 1..];
    (integrity_line(&[body]).as_bytes() == &bytes[..=nl]).then_some(nl + 1)
}

/// The entry table of a verified pack `body` that starts at file offset
/// `base`: `(key, slot)` per entry with absolute offsets. `None` unless
/// the table and the entries it lists exactly fill the body.
fn pack_table(body: &[u8], base: u64) -> Option<Vec<(u64, FeSlot)>> {
    let word = |i: usize| -> Option<u64> {
        let b = body.get(i * 8..i * 8 + 8)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    };
    let n = usize::try_from(word(0)?).ok()?;
    let table_end = n.checked_mul(24)?.checked_add(8)?;
    if table_end > body.len() {
        return None;
    }
    let mut offset = base + table_end as u64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (key, len, digest) = (word(1 + 3 * i)?, word(2 + 3 * i)?, word(3 + 3 * i)?);
        out.push((
            key,
            FeSlot {
                pack: 0,
                offset,
                len,
                digest,
            },
        ));
        offset = offset.checked_add(len)?;
    }
    (offset == base + body.len() as u64).then_some(out)
}

/// Whether `bytes`, read from the module file at `path`, hash to the
/// fingerprint the file is named by.
fn module_name_matches(path: &Path, bytes: &[u8]) -> bool {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .is_some_and(|fp| fnv1a64(&[bytes]) == fp)
}

/// Whether `path` is a publish's temp file (`*.tmp<pid>-<seq>`).
fn is_tmp(path: &Path) -> bool {
    path.extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.starts_with("tmp"))
}

impl DiskCache {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// Opening does not run the crash-recovery sweep; the owner of the
    /// directory calls [`DiskCache::recover`] (see the module docs).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        for sub in ["modules", "reports", "state", "fe", "heads"] {
            fs::create_dir_all(dir.join(sub))?;
        }
        Ok(DiskCache {
            dir,
            max_bytes: None,
            report_lookups: AtomicU64::new(0),
            report_hits: AtomicU64::new(0),
            state_lookups: AtomicU64::new(0),
            state_hits: AtomicU64::new(0),
            fe_lookups: AtomicU64::new(0),
            fe_hits: AtomicU64::new(0),
            verify_failures: AtomicU64::new(0),
            tmp_swept: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            fe_index: Mutex::new(FeIndex::default()),
        })
    }

    /// Crash-recovery sweep, run by the serve daemon at start and again at
    /// drain (its workers are stopped then, so anything `.tmp` is an
    /// orphan by definition). Idempotent: a clean store sweeps to itself.
    ///
    /// 1. `.tmp*` publish orphans are deleted: a crash between tmp-write
    ///    and rename leaves one behind, invisible to fetches but
    ///    permanent.
    /// 2. Every file in `reports/`, `state/` and `fe/` that is not a
    ///    current-format checked artifact whose integrity line verifies —
    ///    a torn or edited file, a pack whose table does not fit, or a
    ///    file written by older code — and every `modules/` file whose
    ///    text does not hash to its name is moved into `quarantine/`
    ///    (preserved for inspection, out of the fetch path), so it stops
    ///    costing a failed verify on every fetch.
    pub fn recover(&self) {
        for sub in ["modules", "heads", "reports", "state", "fe"] {
            let Ok(entries) = fs::read_dir(self.dir.join(sub)) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if is_tmp(&path) {
                    if fs::remove_file(&path).is_ok() {
                        self.tmp_swept.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                // Heads carry no integrity line; a module's is its name.
                let current_format = match sub {
                    "modules" => path.extension().is_some_and(|e| e == "kir"),
                    "reports" => path.extension().is_some_and(|e| e == "txt"),
                    "state" => path.extension().is_some_and(|e| e == "bin"),
                    "fe" => path.to_string_lossy().ends_with(&pack_suffix()),
                    _ => continue,
                };
                let healthy = current_format
                    && fs::read(&path).is_ok_and(|bytes| match sub {
                        "modules" => module_name_matches(&path, &bytes),
                        _ => verified_header_len(&bytes).is_some_and(|h| {
                            sub != "fe" || pack_table(&bytes[h..], h as u64).is_some()
                        }),
                    });
                if !healthy {
                    self.quarantine(&path);
                }
            }
        }
    }

    /// Move `path` into `quarantine/`, counting it.
    fn quarantine(&self, path: &Path) {
        let quarantine = self.dir.join("quarantine");
        let Some(name) = path.file_name() else { return };
        if fs::create_dir_all(&quarantine).is_ok()
            && fs::rename(path, quarantine.join(name)).is_ok()
        {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Test hook for the `torn` fault directive: leave exactly the debris a
    /// publish that died mid-flight leaves — a `.tmp<pid>` orphan, and a
    /// report whose integrity line was cut short. The next
    /// [`DiskCache::recover`] sweep must delete the one and quarantine the
    /// other.
    #[doc(hidden)]
    pub fn inject_torn_publish(&self) -> io::Result<()> {
        let pid = std::process::id();
        let reports = self.dir.join("reports");
        // Died between tmp-write and rename: the orphan.
        fs::write(
            reports.join(format!("{pid:016x}-all-v0.tmp{pid}")),
            "partial publish bytes",
        )?;
        // A visible report whose integrity line is truncated, as a
        // non-atomic write cut short leaves it.
        let txt = reports.join(format!(
            "{pid:016x}-all-v{}.txt",
            kaleidoscope_pta::PTS_REPR_VERSION
        ));
        fs::write(txt, "00ab")?;
        Ok(())
    }

    /// Cap the store's total artifact bytes. After every publish the
    /// oldest artifacts (by modification time) are evicted until the store
    /// fits; the artifact just published is the newest, so it survives
    /// unless it alone exceeds the cap. `0` disables the cap.
    pub fn with_max_bytes(mut self, max: u64) -> DiskCache {
        self.max_bytes = if max == 0 { None } else { Some(max) };
        self
    }

    /// The configured size cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Resolve a store from an explicit `--cache-dir` value, falling back
    /// to `KD_CACHE_DIR`. `Ok(None)` means neither is set.
    pub fn resolve(flag: Option<&str>) -> io::Result<Option<DiskCache>> {
        let dir = flag
            .map(str::to_owned)
            .or_else(|| std::env::var(CACHE_DIR_ENV).ok().filter(|s| !s.is_empty()));
        dir.map(DiskCache::open).transpose()
    }

    /// The root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current traffic counters.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            report_lookups: self.report_lookups.load(Ordering::Relaxed),
            report_hits: self.report_hits.load(Ordering::Relaxed),
            state_lookups: self.state_lookups.load(Ordering::Relaxed),
            state_hits: self.state_hits.load(Ordering::Relaxed),
            fe_lookups: self.fe_lookups.load(Ordering::Relaxed),
            fe_hits: self.fe_hits.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            tmp_swept: self.tmp_swept.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    fn module_path(&self, fp: u64) -> PathBuf {
        self.dir.join("modules").join(format!("{fp:016x}.kir"))
    }

    fn report_path(&self, fp: u64, scope: ReportScope) -> PathBuf {
        self.dir.join("reports").join(format!(
            "{fp:016x}-{}-v{}.txt",
            scope.tag(),
            kaleidoscope_pta::PTS_REPR_VERSION
        ))
    }

    /// Atomically publish the concatenated `chunks` at `path` (a
    /// same-directory temp file, unique per process and publish, then a
    /// rename, so readers never observe a torn file).
    fn publish(path: &Path, chunks: &[&[u8]]) -> io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
        let written = (|| {
            let mut f = io::BufWriter::new(fs::File::create(&tmp)?);
            for chunk in chunks {
                f.write_all(chunk)?;
            }
            f.flush()
        })();
        match written.and_then(|()| fs::rename(&tmp, path)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Total bytes currently stored across modules, reports, snapshots
    /// and packs.
    pub fn total_bytes(&self) -> u64 {
        Self::scan_artifacts(&self.dir)
            .iter()
            .map(|a| a.bytes)
            .sum()
    }

    /// Enumerate evictable artifacts: every file but in-flight publishes.
    fn scan_artifacts(dir: &Path) -> Vec<Artifact> {
        let mut out = Vec::new();
        for sub in ["modules", "reports", "state", "fe"] {
            let Ok(entries) = fs::read_dir(dir.join(sub)) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() || is_tmp(&path) {
                    continue;
                }
                out.push(Artifact {
                    path,
                    bytes: meta.len(),
                    mtime: meta.modified().ok(),
                });
            }
        }
        out
    }

    /// Evict oldest artifacts until the store fits under `max_bytes`.
    /// Ties on modification time break by path, so eviction order is
    /// deterministic even on coarse-mtime filesystems.
    fn enforce_cap(&self) {
        let Some(cap) = self.max_bytes else { return };
        let mut artifacts = Self::scan_artifacts(&self.dir);
        let mut total: u64 = artifacts.iter().map(|a| a.bytes).sum();
        if total <= cap {
            return;
        }
        artifacts.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        for a in &artifacts {
            if total <= cap {
                break;
            }
            let _ = fs::remove_file(&a.path);
            total = total.saturating_sub(a.bytes);
        }
    }

    /// Store a module's canonical text under fingerprint `fp`.
    ///
    /// `text` must be the canonical form
    /// ([`Module::to_text`](kaleidoscope_ir::Module::to_text)) so that
    /// re-parsing the stored text yields the same fingerprint.
    pub fn put_module(&self, fp: u64, text: &str) -> io::Result<()> {
        let path = self.module_path(fp);
        if path.exists() {
            return Ok(()); // content-addressed: identical by construction
        }
        Self::publish(&path, &[text.as_bytes()])?;
        self.enforce_cap();
        Ok(())
    }

    /// Fetch a module's canonical text by fingerprint. The text is
    /// returned only when it hashes to `fp`. A file whose content does not
    /// is counted as a verify failure and quarantined, so the next inline
    /// submission of the module stores it again.
    pub fn get_module(&self, fp: u64) -> Option<String> {
        let path = self.module_path(fp);
        let bytes = fs::read(&path).ok()?;
        if fnv1a64(&[&bytes]) == fp {
            if let Ok(text) = String::from_utf8(bytes) {
                return Some(text);
            }
        }
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        self.quarantine(&path);
        None
    }

    /// Whether a module text is stored under `fp`: one `stat`, no read.
    /// The text is not checked against `fp`; a warm start that picks a
    /// revision by this index still reads only snapshots tagged with `fp`.
    pub fn has_module(&self, fp: u64) -> bool {
        self.module_path(fp).is_file()
    }

    /// Publish `bytes` at `path` behind its integrity line, then enforce
    /// the size cap.
    fn put_checked(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        Self::publish(path, &[integrity_line(&[bytes]).as_bytes(), bytes])?;
        self.enforce_cap();
        Ok(())
    }

    /// Read the checked artifact at `path`, verify its integrity line, and
    /// `decode` the body. Counts the lookup, and the hit or the verify
    /// failure. A mismatch is a miss, so a torn or tampered entry is
    /// recomputed, never served.
    fn get_checked<T>(
        &self,
        path: &Path,
        lookups: &AtomicU64,
        hits: &AtomicU64,
        decode: impl FnOnce(Vec<u8>) -> Option<T>,
    ) -> Option<T> {
        lookups.fetch_add(1, Ordering::Relaxed);
        let mut bytes = fs::read(path).ok()?;
        let Some(header) = verified_header_len(&bytes) else {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        bytes.drain(..header);
        let body = decode(bytes)?;
        hits.fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    /// Store a healthy analyze report.
    pub fn put_report(&self, fp: u64, scope: ReportScope, text: &str) -> io::Result<()> {
        self.put_checked(&self.report_path(fp, scope), text.as_bytes())
    }

    /// Fetch a verified report; integrity mismatches count as misses (and
    /// bump `verify_failures`).
    pub fn get_report(&self, fp: u64, scope: ReportScope) -> Option<String> {
        self.get_checked(
            &self.report_path(fp, scope),
            &self.report_lookups,
            &self.report_hits,
            |b| String::from_utf8(b).ok(),
        )
    }

    fn state_path(&self, fp: u64, opts_key: u64, with_ctx: bool) -> PathBuf {
        self.dir.join("state").join(format!(
            "{fp:016x}-k{opts_key:x}{}-v{}i{}.bin",
            if with_ctx { "c" } else { "" },
            kaleidoscope_pta::PTS_REPR_VERSION,
            kaleidoscope_pta::INCR_STATE_VERSION,
        ))
    }

    /// Store a solved-state snapshot for `(fp, opts_key, with_ctx)` —
    /// the serialized fixpoint of a converged solve, fetched later by the
    /// next revision of the same tenant to warm-start incrementally.
    pub fn put_state(
        &self,
        fp: u64,
        opts_key: u64,
        with_ctx: bool,
        bytes: &[u8],
    ) -> io::Result<()> {
        self.put_checked(&self.state_path(fp, opts_key, with_ctx), bytes)
    }

    /// Fetch a verified solved-state snapshot; integrity mismatches count
    /// as misses (the caller solves cold), never as wrong warm-starts.
    pub fn get_state(&self, fp: u64, opts_key: u64, with_ctx: bool) -> Option<Vec<u8>> {
        self.get_checked(
            &self.state_path(fp, opts_key, with_ctx),
            &self.state_lookups,
            &self.state_hits,
            Some,
        )
    }

    fn fe_index(&self) -> MutexGuard<'_, FeIndex> {
        // The index is only ever extended whole under the lock, so a
        // poisoned one is still consistent.
        self.fe_index.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Start one frontend load's lookups: list `fe/` once, forget packs
    /// that are gone (evicted or quarantined) and index every pack not
    /// read before. A pack whose integrity line or table fails counts one
    /// verify failure and serves nothing.
    pub(crate) fn fe_reader(&self) -> FeReader<'_> {
        let suffix = pack_suffix();
        let listed: HashMap<OsString, PathBuf> = fs::read_dir(self.dir.join("fe"))
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(&suffix))
            .map(|e| (e.file_name(), e.path()))
            .collect();
        let mut index = self.fe_index();
        let before = index.packs.len();
        index.packs.retain(|name, _| listed.contains_key(name));
        if index.packs.len() != before {
            let live: HashSet<u32> = index.packs.values().copied().collect();
            index.slots.retain(|(_, s)| live.contains(&s.pack));
        }
        let mut new = Vec::new();
        for (name, path) in listed {
            if index.packs.contains_key(&name) {
                continue;
            }
            let table = fs::read(&path).ok().and_then(|bytes| {
                let h = verified_header_len(&bytes)?;
                pack_table(&bytes[h..], h as u64)
            });
            if table.is_none() {
                self.verify_failures.fetch_add(1, Ordering::Relaxed);
            }
            new.push((name, path, table));
        }
        if !new.is_empty() {
            index.insert(new);
        }
        FeReader {
            cache: self,
            open: HashMap::new(),
            buf: Vec::new(),
        }
    }

    /// Publish one load's missed frontend entries (`(key, encoded entry)`,
    /// pre-encoded by the frontend loader) as a single pack, and index it.
    /// The entries are written as they are, never copied into one buffer.
    /// An empty batch writes nothing.
    pub(crate) fn put_fe_pack(&self, entries: &[(u64, Vec<u8>)]) -> io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut table = Vec::with_capacity(8 + 24 * entries.len());
        table.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        let mut slots = Vec::with_capacity(entries.len());
        for (key, bytes) in entries {
            let slot = FeSlot {
                pack: 0,
                offset: 0,
                len: bytes.len() as u64,
                digest: fnv1a64(&[bytes]),
            };
            table.extend_from_slice(&key.to_le_bytes());
            table.extend_from_slice(&slot.len.to_le_bytes());
            table.extend_from_slice(&slot.digest.to_le_bytes());
            slots.push((*key, slot));
        }
        let mut chunks: Vec<&[u8]> = Vec::with_capacity(entries.len() + 2);
        chunks.push(&table);
        chunks.extend(entries.iter().map(|(_, bytes)| bytes.as_slice()));
        let header = integrity_line(&chunks);
        let name = OsString::from(format!("{}{}", &header[..16], pack_suffix()));
        let path = self.dir.join("fe").join(&name);
        chunks.insert(0, header.as_bytes());
        Self::publish(&path, &chunks)?;
        let mut offset = (header.len() + table.len()) as u64;
        for (_, slot) in &mut slots {
            slot.offset = offset;
            offset += slot.len;
        }
        let mut index = self.fe_index();
        if !index.packs.contains_key(&name) {
            index.insert(vec![(name, path, Some(slots))]);
        }
        drop(index);
        self.enforce_cap();
        Ok(())
    }

    fn head_path(&self, tenant: &str) -> PathBuf {
        // Tenant names are client-chosen free text; key the file by hash
        // so odd characters can't escape the directory.
        self.dir
            .join("heads")
            .join(format!("t{:016x}.fp", fnv1a64(&[tenant.as_bytes()])))
    }

    /// Record `fp` as the last module fingerprint served for `tenant`
    /// (the warm-start candidate for that tenant's next request).
    pub fn put_tenant_head(&self, tenant: &str, fp: u64) -> io::Result<()> {
        Self::publish(&self.head_path(tenant), &[format!("{fp:016x}").as_bytes()])
    }

    /// The last module fingerprint served for `tenant`, if recorded.
    /// Malformed head files read as absent (a cold solve, never an error).
    pub fn get_tenant_head(&self, tenant: &str) -> Option<u64> {
        let text = fs::read_to_string(self.head_path(tenant)).ok()?;
        u64::from_str_radix(text.trim(), 16).ok()
    }
}

/// One frontend load's lookups into the `fe/` packs, from
/// [`DiskCache::fe_reader`]. Keeps each pack it reads open for the rest
/// of the load.
#[derive(Debug)]
pub(crate) struct FeReader<'a> {
    cache: &'a DiskCache,
    open: HashMap<u32, fs::File>,
    buf: Vec<u8>,
}

impl FeReader<'_> {
    /// The first copy of entry `key` that `accept` takes. Every indexed
    /// copy is read and checked against its digest in turn; a copy that
    /// fails counts one verify failure and is skipped. `accept` decides
    /// what the bytes mean (the frontend loader's import validation), so
    /// a hit depends only on which packs exist, not on the order they
    /// were listed in.
    pub(crate) fn get<T>(
        &mut self,
        key: u64,
        mut accept: impl FnMut(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let cache = self.cache;
        cache.fe_lookups.fetch_add(1, Ordering::Relaxed);
        let slots: Vec<FeSlot> = cache.fe_index().copies(key).collect();
        for slot in slots {
            let file = match self.open.entry(slot.pack) {
                Entry::Occupied(f) => f.into_mut(),
                Entry::Vacant(v) => {
                    // A pack evicted since it was indexed is simply gone.
                    let path = cache.fe_index().paths[slot.pack as usize].clone();
                    let Ok(f) = fs::File::open(path) else {
                        continue;
                    };
                    v.insert(f)
                }
            };
            self.buf.resize(slot.len as usize, 0);
            let read = file
                .seek(SeekFrom::Start(slot.offset))
                .and_then(|_| file.read_exact(&mut self.buf));
            if read.is_err() || fnv1a64(&[&self.buf]) != slot.digest {
                cache.verify_failures.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(t) = accept(&self.buf) {
                cache.fe_hits.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("kd-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn module_round_trip_by_fingerprint() {
        let cache = DiskCache::open(tmpdir("mod")).unwrap();
        let text = "module \"m\"\n";
        let fp = fnv1a64(&[text.as_bytes()]);
        assert_eq!(cache.get_module(fp), None);
        assert!(!cache.has_module(fp));
        cache.put_module(fp, text).unwrap();
        assert!(cache.has_module(fp));
        assert_eq!(cache.get_module(fp).as_deref(), Some(text));
        assert_eq!(cache.stats().verify_failures, 0);
    }

    #[test]
    fn module_under_another_fingerprint_is_quarantined_not_served() {
        let dir = tmpdir("mod-wrong");
        let cache = DiskCache::open(&dir).unwrap();
        let (text, other) = ("module \"m\"\n", "module \"other\"\n");
        let fp = fnv1a64(&[text.as_bytes()]);
        cache.put_module(fp, text).unwrap();
        fs::write(cache.module_path(fp), other).unwrap();
        assert_eq!(cache.get_module(fp), None, "another module's text");
        assert_eq!(cache.stats().verify_failures, 1);
        assert_eq!(cache.stats().quarantined, 1);
        // The slot is free again: resubmitting the module repairs it.
        cache.put_module(fp, text).unwrap();
        assert_eq!(cache.get_module(fp).as_deref(), Some(text));

        // The recovery sweep parks a mismatched file before any fetch.
        let other_fp = fnv1a64(&[other.as_bytes()]);
        cache.put_module(other_fp, other).unwrap();
        fs::write(cache.module_path(other_fp), text).unwrap();
        cache.recover();
        assert_eq!(cache.stats().quarantined, 2);
        assert!(!cache.module_path(other_fp).exists());
        assert_eq!(cache.get_module(fp).as_deref(), Some(text), "healthy kept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_round_trip_and_scope_separation() {
        let cache = DiskCache::open(tmpdir("rep")).unwrap();
        let all = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        let one = ReportScope {
            config: Some(PolicyConfig::all()),
            stats: false,
            wave: false,
        };
        cache.put_report(1, all, "full matrix\n").unwrap();
        assert_eq!(cache.get_report(1, all).as_deref(), Some("full matrix\n"));
        assert_eq!(cache.get_report(1, one), None, "scopes don't alias");
        assert_eq!(cache.get_report(2, all), None, "fingerprints don't alias");
        let stats = cache.stats();
        assert_eq!(stats.report_lookups, 3);
        assert_eq!(stats.report_hits, 1);
    }

    #[test]
    fn corrupt_report_is_a_miss_not_a_wrong_answer() {
        let dir = tmpdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let scope = ReportScope {
            config: None,
            stats: true,
            wave: false,
        };
        cache.put_report(7, scope, "pristine\n").unwrap();
        // Damage the stored report behind the store's back.
        let path = cache.report_path(7, scope);
        fs::write(&path, "tampered\n").unwrap();
        assert_eq!(cache.get_report(7, scope), None);
        assert_eq!(cache.stats().verify_failures, 1);
        // Re-publishing repairs the entry.
        cache.put_report(7, scope, "pristine\n").unwrap();
        assert_eq!(cache.get_report(7, scope).as_deref(), Some("pristine\n"));
    }

    #[test]
    fn resolve_prefers_flag_over_env() {
        let dir = tmpdir("resolve");
        let c = DiskCache::resolve(Some(dir.to_str().unwrap()))
            .unwrap()
            .unwrap();
        assert_eq!(c.dir(), dir.as_path());
        // No flag and (in the test environment) no env: disabled. Guard the
        // assertion so a developer's exported KD_CACHE_DIR doesn't fail it.
        if std::env::var(CACHE_DIR_ENV).is_err() {
            assert!(DiskCache::resolve(None).unwrap().is_none());
        }
    }

    #[test]
    fn max_bytes_cap_evicts_oldest_artifacts_at_publish() {
        let cache = DiskCache::open(tmpdir("evict"))
            .unwrap()
            .with_max_bytes(256);
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        let body = "x".repeat(100); // 121 B per report with its integrity line
        let now = std::time::SystemTime::now();
        for fp in 0..4u64 {
            cache.put_report(fp, scope, &body).unwrap();
            // Coarse-mtime filesystems would otherwise tie all four entries;
            // back-date each so "oldest" is unambiguous.
            let age = std::time::Duration::from_secs(100 - fp * 10);
            let f = fs::File::options()
                .write(true)
                .open(cache.report_path(fp, scope))
                .unwrap();
            f.set_modified(now - age).unwrap();
        }
        // Publishing one more must evict the oldest entries, not the newest.
        cache.put_report(9, scope, &body).unwrap();
        assert!(cache.total_bytes() <= 256, "cap enforced after publish");
        assert_eq!(cache.get_report(9, scope).as_deref(), Some(body.as_str()));
        assert_eq!(cache.get_report(0, scope), None, "oldest evicted");
        assert!(!cache.report_path(0, scope).exists());
        assert_eq!(cache.get_report(3, scope).as_deref(), Some(body.as_str()));
    }

    #[test]
    fn uncapped_store_never_evicts() {
        let cache = DiskCache::open(tmpdir("uncapped"))
            .unwrap()
            .with_max_bytes(0);
        assert_eq!(cache.max_bytes(), None);
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        for fp in 0..8u64 {
            cache.put_report(fp, scope, &"y".repeat(200)).unwrap();
        }
        for fp in 0..8u64 {
            assert!(cache.get_report(fp, scope).is_some());
        }
    }

    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        ["modules", "reports", "state", "fe", "heads"]
            .iter()
            .flat_map(|sub| fs::read_dir(dir.join(sub)).unwrap().flatten())
            .map(|e| e.path())
            .filter(|p| is_tmp(p))
            .collect()
    }

    #[test]
    fn open_leaves_live_tmp_files_alone() {
        // Another process sharing the directory is mid-publish: opening
        // the store (as every `kd worker` and `kd analyze` does) must not
        // delete its temp file.
        let dir = tmpdir("live-tmp");
        let live = dir.join("fe").join("00000000000000ab-v2.tmp4242-0");
        drop(DiskCache::open(&dir).unwrap());
        fs::write(&live, "in-flight pack").unwrap();
        let cache = DiskCache::open(&dir).unwrap();
        assert!(live.exists(), "open swept a live publish");
        assert_eq!(cache.stats().tmp_swept, 0);
        assert_eq!(tmp_files(&dir), vec![live]);
    }

    #[test]
    fn recover_sweeps_tmp_orphans_and_quarantines_corrupt_reports() {
        let dir = tmpdir("recover");
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        // A healthy store, then a simulated crash mid-publish.
        let cache = DiskCache::open(&dir).unwrap();
        cache.put_report(1, scope, "healthy\n").unwrap();
        cache.inject_torn_publish().unwrap();
        drop(cache);
        // The sweep deletes the orphan and quarantines the torn report;
        // the healthy report is untouched.
        let cache = DiskCache::open(&dir).unwrap();
        cache.recover();
        let stats = cache.stats();
        assert_eq!(stats.tmp_swept, 1, "tmp orphan swept");
        assert_eq!(stats.quarantined, 1, "torn report quarantined");
        assert_eq!(cache.get_report(1, scope).as_deref(), Some("healthy\n"));
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).unwrap().count(),
            1,
            "quarantine holds the torn report"
        );
    }

    #[test]
    fn recovered_store_behaves_identically_to_a_clean_one() {
        let dir = tmpdir("recover-clean");
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.inject_torn_publish().unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        cache.recover();
        // The torn fingerprint's entry is gone: fetch misses cleanly
        // (no verify failure — the corrupt file left the fetch path) and
        // publish-then-fetch round-trips as on a fresh store.
        // The torn report's fingerprint is the injecting pid, so this
        // fetch would have hit the corrupt file before recovery.
        let fp = std::process::id() as u64;
        assert_eq!(cache.get_report(fp, scope), None);
        assert_eq!(cache.stats().verify_failures, 0, "quarantine beat verify");
        cache.put_report(fp, scope, "fresh\n").unwrap();
        assert_eq!(cache.get_report(fp, scope).as_deref(), Some("fresh\n"));
    }

    #[test]
    fn state_round_trip_and_key_separation() {
        let cache = DiskCache::open(tmpdir("state")).unwrap();
        let blob: Vec<u8> = (0..=255u8).collect();
        assert_eq!(cache.get_state(5, 3, false), None);
        cache.put_state(5, 3, false, &blob).unwrap();
        assert_eq!(cache.get_state(5, 3, false).as_deref(), Some(&blob[..]));
        assert_eq!(cache.get_state(5, 7, false), None, "opts keys don't alias");
        assert_eq!(cache.get_state(5, 3, true), None, "ctx flag doesn't alias");
        assert_eq!(cache.get_state(6, 3, false), None, "fps don't alias");
        let stats = cache.stats();
        assert_eq!(stats.state_lookups, 5);
        assert_eq!(stats.state_hits, 1);
        // A tampered snapshot is a miss (solve cold), never a warm-start.
        fs::write(cache.state_path(5, 3, false), b"garbage").unwrap();
        assert_eq!(cache.get_state(5, 3, false), None);
        assert_eq!(cache.stats().verify_failures, 1);
    }

    #[test]
    fn corrupt_state_is_quarantined_by_recover() {
        let dir = tmpdir("state-recover");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.put_state(11, 1, false, b"valid snapshot").unwrap();
            fs::write(cache.state_path(11, 1, false), b"torn").unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        cache.recover();
        assert_eq!(cache.stats().quarantined, 1, "torn snapshot quarantined");
        assert_eq!(cache.get_state(11, 1, false), None);
        assert_eq!(cache.stats().verify_failures, 0, "quarantine beat verify");
    }

    /// Look `key` up through a fresh load's reader, taking any bytes.
    fn get_fe(cache: &DiskCache, key: u64) -> Option<Vec<u8>> {
        cache.fe_reader().get(key, |b| Some(b.to_vec()))
    }

    /// The one pack file in `dir/fe`.
    fn only_pack(dir: &Path) -> PathBuf {
        let packs: Vec<PathBuf> = fs::read_dir(dir.join("fe"))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        assert_eq!(packs.len(), 1, "{packs:?}");
        packs.into_iter().next().unwrap()
    }

    #[test]
    fn fe_packs_round_trip_and_verify() {
        let dir = tmpdir("fe");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(get_fe(&cache, 0xABCD), None);
        let entries = vec![
            (0xABCD, b"entry bytes".to_vec()),
            (0x1234, b"other".to_vec()),
        ];
        cache.put_fe_pack(&entries).unwrap();
        cache.put_fe_pack(&[]).unwrap();
        let pack = only_pack(&dir);
        assert!(pack
            .to_string_lossy()
            .ends_with(&format!("-v{FE_CACHE_VERSION}.pack")));
        assert_eq!(get_fe(&cache, 0xABCD).as_deref(), Some(&b"entry bytes"[..]));
        assert_eq!(get_fe(&cache, 0x1234).as_deref(), Some(&b"other"[..]));
        assert_eq!(get_fe(&cache, 0xABCE), None, "keys don't alias");
        // Another process sees the pack through its own index.
        let other = DiskCache::open(&dir).unwrap();
        assert_eq!(get_fe(&other, 0xABCD).as_deref(), Some(&b"entry bytes"[..]));
        let stats = cache.stats();
        assert_eq!((stats.fe_lookups, stats.fe_hits), (4, 2));
        // An entry changed after the pack was indexed is a miss.
        let mut bytes = fs::read(&pack).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 1;
        fs::write(&pack, &bytes).unwrap();
        assert_eq!(get_fe(&cache, 0x1234), None);
        assert_eq!(cache.stats().verify_failures, 1);
    }

    #[test]
    fn fe_lookup_tries_every_copy_of_a_key() {
        let dir = tmpdir("fe-copies");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put_fe_pack(&[(7, b"first".to_vec())]).unwrap();
        cache.put_fe_pack(&[(7, b"second".to_vec())]).unwrap();
        // Whichever copy is listed first, the one the caller accepts wins,
        // in this process and in a fresh one.
        for c in [&cache, &DiskCache::open(&dir).unwrap()] {
            for want in [&b"first"[..], b"second"] {
                let got = c.fe_reader().get(7, |b| (b == want).then(|| b.to_vec()));
                assert_eq!(got.as_deref(), Some(want));
            }
            assert_eq!(c.fe_reader().get(7, |_| None::<()>), None);
        }
    }

    #[test]
    fn evicted_pack_is_forgotten() {
        let dir = tmpdir("fe-evict");
        let cache = DiskCache::open(&dir).unwrap();
        cache.put_fe_pack(&[(9, b"entry".to_vec())]).unwrap();
        fs::remove_file(only_pack(&dir)).unwrap();
        assert_eq!(get_fe(&cache, 9), None);
        assert!(cache.fe_index().slots.is_empty());
        assert_eq!(cache.stats().verify_failures, 0);
    }

    #[test]
    fn corrupt_fe_pack_is_quarantined_by_recover() {
        let dir = tmpdir("fe-recover");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache
                .put_fe_pack(&[(0x77, b"valid entry".to_vec())])
                .unwrap();
            fs::write(only_pack(&dir), b"torn").unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        cache.recover();
        assert_eq!(cache.stats().quarantined, 1, "torn pack quarantined");
        assert_eq!(get_fe(&cache, 0x77), None);
        assert_eq!(cache.stats().verify_failures, 0, "quarantine beat verify");
    }

    #[test]
    fn older_format_entries_read_as_misses_and_are_quarantined() {
        let dir = tmpdir("old-format");
        let cache = DiskCache::open(&dir).unwrap();
        // A pack of the previous entry version: its integrity line and
        // table verify, but no load lists it.
        cache.put_fe_pack(&[(0xaa, b"entry".to_vec())]).unwrap();
        let pack = only_pack(&dir);
        let name = pack.file_name().unwrap().to_string_lossy();
        let stale = pack.with_file_name(name.replace(&pack_suffix(), "-v2.pack"));
        fs::rename(&pack, &stale).unwrap();
        let bytes = fs::read(&stale).unwrap();
        let h = verified_header_len(&bytes).expect("integrity line verifies");
        assert!(
            pack_table(&bytes[h..], h as u64).is_some(),
            "table verifies"
        );
        // What the layout before packs left: a body file plus a `.sum`
        // sidecar per report, snapshot and per-function `fe/` entry.
        let scope = ReportScope {
            config: None,
            stats: false,
            wave: false,
        };
        let old = |path: PathBuf, body: &[u8]| {
            let sum = format!("{:016x} {}", fnv1a64(&[body]), body.len());
            fs::write(path.with_extension("sum"), sum).unwrap();
            fs::write(path, body).unwrap();
        };
        old(cache.report_path(1, scope), b"module `m`: 1 functions\n");
        old(cache.state_path(1, 0, false), b"KDIS snapshot");
        old(dir.join("fe").join("00000000000000aa-v1.bin"), b"entry");
        assert_eq!(cache.get_report(1, scope), None);
        assert_eq!(cache.get_state(1, 0, false), None);
        assert_eq!(get_fe(&cache, 0xaa), None);
        assert_eq!(get_fe(&DiskCache::open(&dir).unwrap(), 0xaa), None);
        assert_eq!(
            cache.stats().verify_failures,
            2,
            "the v2 pack is never read"
        );
        cache.recover();
        assert_eq!(cache.stats().quarantined, 7);
        for sub in ["reports", "state", "fe"] {
            assert_eq!(fs::read_dir(dir.join(sub)).unwrap().count(), 0, "{sub}");
        }
    }

    /// Every truncation and 64 seeded single-bit flips of the checked file
    /// at `path` (whose intact bytes `fetch` returns as `want`) read as a
    /// miss counted in `verify_failures` by a fresh store.
    fn assert_damage_is_a_miss(
        dir: &Path,
        path: &Path,
        want: &[u8],
        fetch: impl Fn(&DiskCache) -> Option<Vec<u8>>,
    ) {
        let intact = fs::read(path).unwrap();
        assert_eq!(fetch(&DiskCache::open(dir).unwrap()).as_deref(), Some(want));
        let mut rng = kaleidoscope_prng::Rng::seed_from_u64(0x5eed);
        let truncations = (0..intact.len()).map(|n| intact[..n].to_vec());
        let flips = (0..64).map(|_| {
            let bit = rng.gen_range(0..intact.len() * 8);
            let mut b = intact.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        for damaged in truncations.chain(flips).collect::<Vec<_>>() {
            fs::write(path, &damaged).unwrap();
            let cache = DiskCache::open(dir).unwrap();
            assert_eq!(fetch(&cache), None, "damaged bytes served");
            assert_eq!(cache.stats().verify_failures, 1, "miss not counted");
        }
        fs::write(path, intact).unwrap();
    }

    #[test]
    fn truncated_or_bit_flipped_artifacts_are_counted_misses() {
        let dir = tmpdir("damage");
        let cache = DiskCache::open(&dir).unwrap();
        let scope = ReportScope {
            config: None,
            stats: true,
            wave: false,
        };
        let report = "module `m`: 2 functions, 9 instructions\nconfig ...\n";
        cache.put_report(3, scope, report).unwrap();
        assert_damage_is_a_miss(&dir, &cache.report_path(3, scope), report.as_bytes(), |c| {
            c.get_report(3, scope).map(String::into_bytes)
        });
        let snapshot: Vec<u8> = (0..200u8).collect();
        cache.put_state(3, 1, true, &snapshot).unwrap();
        assert_damage_is_a_miss(&dir, &cache.state_path(3, 1, true), &snapshot, |c| {
            c.get_state(3, 1, true)
        });
        cache
            .put_fe_pack(&[(1, b"first entry".to_vec()), (2, b"second".to_vec())])
            .unwrap();
        let pack = only_pack(&dir);
        assert_damage_is_a_miss(&dir, &pack, b"second", |c| {
            let mut r = c.fe_reader();
            let first = r.get(1, |b| Some(b.to_vec()));
            let second = r.get(2, |b| Some(b.to_vec()));
            assert_eq!(first.is_some(), second.is_some(), "one pack, one verdict");
            second
        });
    }

    #[test]
    fn tenant_heads_round_trip_and_tolerate_garbage() {
        let cache = DiskCache::open(tmpdir("heads")).unwrap();
        assert_eq!(cache.get_tenant_head("acme"), None);
        cache.put_tenant_head("acme", 0xFEED_F00D).unwrap();
        cache.put_tenant_head("other", 0x42).unwrap();
        assert_eq!(cache.get_tenant_head("acme"), Some(0xFEED_F00D));
        assert_eq!(cache.get_tenant_head("other"), Some(0x42));
        cache.put_tenant_head("acme", 0x1).unwrap();
        assert_eq!(cache.get_tenant_head("acme"), Some(0x1), "last write wins");
        // A scribbled head reads as absent, never an error.
        fs::write(cache.head_path("acme"), "not hex at all").unwrap();
        assert_eq!(cache.get_tenant_head("acme"), None);
    }

    #[test]
    fn repr_version_partitions_reports() {
        let cache = DiskCache::open(tmpdir("repr")).unwrap();
        let v = kaleidoscope_pta::PTS_REPR_VERSION;
        let name = |config, stats, wave| {
            let scope = ReportScope {
                config,
                stats,
                wave,
            };
            let path = cache.report_path(3, scope);
            path.file_name().unwrap().to_string_lossy().into_owned()
        };
        let one = Some(PolicyConfig::all());
        let k = PolicyConfig::all().key();
        assert_eq!(
            name(None, false, false),
            format!("0000000000000003-all-v{v}.txt")
        );
        assert_eq!(
            name(None, true, false),
            format!("0000000000000003-alls2-v{v}.txt")
        );
        assert_eq!(
            name(one, false, false),
            format!("0000000000000003-c{k}-v{v}.txt")
        );
        assert_eq!(
            name(one, true, false),
            format!("0000000000000003-c{k}s2-v{v}.txt")
        );
        // `wave` no longer partitions anything.
        assert_eq!(name(None, true, true), name(None, true, false));
        assert_eq!(name(one, false, true), name(one, false, false));
    }
}
