//! The disk cache's write-back, measured on the bundled app models: how
//! many files a cold request creates, and which `fe/` entries later loads
//! find, however the loads are spread over processes sharing a directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use kaleidoscope_exec::{
    analyze_request, load_frontend, AnalyzeRequest, CacheDisposition, DiskCache, ModuleSource,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("kd-fe-packs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn model_text(name: &str) -> String {
    kaleidoscope_apps::model(name)
        .expect("bundled model")
        .module
        .to_text()
}

fn count_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("read cache dir")
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                count_files(&path)
            } else {
                1
            }
        })
        .sum()
}

#[test]
fn cold_full_matrix_request_creates_a_dozen_files() {
    let dir = tmpdir("files");
    let cache = Arc::new(DiskCache::open(&dir).expect("open cache"));
    let text = model_text("MbedTLS");
    let req = AnalyzeRequest {
        module: ModuleSource::Text(&text),
        config: None,
        stats: false,
        budget: None,
        jobs: 2,
        prev_fingerprint: None,
        tenant: Some("acme"),
    };
    let answer = analyze_request(&req, Some(&cache)).expect("answered");
    assert_eq!(answer.cache, CacheDisposition::Stored);
    assert!(answer.frontend.funcs > 100, "{}", answer.frontend.funcs);
    // One module, one `fe/` pack, one report, one tenant head and the
    // eight solved-state snapshots of the matrix: no file per function.
    let files = count_files(&dir);
    assert!(files <= 12, "a cold request created {files} files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fe_hits_do_not_depend_on_which_process_loaded_what() {
    // Lighttpd and Memcached share four function texts whose callees
    // have different ids in each module. Loads alternate between two
    // stores on one directory (two daemon workers) and go through one
    // store on another directory (a replay): both must see the same hits,
    // and neither module's entries may displace the other's.
    let (lighttpd, memcached) = (model_text("Lighttpd"), model_text("Memcached"));
    let shared_dir = tmpdir("shared");
    let workers = [
        DiskCache::open(&shared_dir).expect("open"),
        DiskCache::open(&shared_dir).expect("open"),
    ];
    let replay = DiskCache::open(tmpdir("replay")).expect("open");
    let mut misses = Vec::new();
    for (step, text) in [&lighttpd, &memcached, &lighttpd].into_iter().enumerate() {
        let a = load_frontend(text, Some(&workers[step % 2]), 1).expect("load");
        let b = load_frontend(text, Some(&replay), 1).expect("load");
        assert_eq!(
            a.stats.fe_cache_hits, b.stats.fe_cache_hits,
            "step {step}: hits differ between the shared and the replayed store"
        );
        assert_eq!(a.module.to_text(), b.module.to_text());
        misses.push(a.stats.fe_cache_misses);
    }
    assert_eq!(misses[0], lighttpd_funcs(&lighttpd), "first load is cold");
    assert!(misses[1] > 0, "Memcached's own functions miss");
    assert_eq!(misses[2], 0, "Lighttpd's entries survived Memcached's load");
    let _ = std::fs::remove_dir_all(&shared_dir);
}

fn lighttpd_funcs(text: &str) -> usize {
    kaleidoscope_ir::parse_module(text)
        .expect("parses")
        .funcs
        .len()
}
