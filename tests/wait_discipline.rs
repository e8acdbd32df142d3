//! The waiting rule (DESIGN.md §4e) as a test over the source tree: a
//! thread waits for I/O parked on the one source it needs, so outside
//! test code nothing sleeps to poll — except at the sites listed here,
//! each with its reason — and nothing brings back the readiness
//! machinery the rule made unnecessary.

use std::path::{Path, PathBuf};

/// Every non-test `thread::sleep` under `crates/*/src`, with why it is
/// not a wait for I/O. A new site fails the test; so does an entry whose
/// site is gone.
const ALLOWED_SLEEPS: &[(&str, &str)] = &[
    (
        "crates/taintmap/src/client.rs",
        "bounded exponential backoff between RPC retries",
    ),
    (
        "crates/taintmap/src/server.rs",
        "fault-injected `service_delay`",
    ),
    (
        "crates/hbase/src/master.rs",
        "HMaster polls the region-server znodes over RPC, as the real one watches ZooKeeper",
    ),
    (
        "crates/rocketmq/src/client.rs",
        "`pull_blocking` is a pull consumer: it re-asks the broker over RPC at an interval",
    ),
    (
        "crates/mapreduce/src/client.rs",
        "`await_finished` polls the job report over RPC, as the YARN client does",
    ),
    (
        "crates/zookeeper/src/election.rs",
        "re-dials a peer whose election listener is not up yet",
    ),
];

/// Names of the deleted readiness mechanism; none may reappear.
const FORBIDDEN: &[&str] = &[
    "Reactor",
    "TimerWheel",
    "register_readable",
    "register_acceptable",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn nothing_sleeps_to_poll_and_nothing_registers_readiness() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate directory").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "walked only {} files", files.len());

    let mut sleeps = Vec::new();
    let mut forbidden = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("utf-8 source file");
        let non_test = text.split("#[cfg(test)]").next().unwrap_or_default();
        let name = path
            .strip_prefix(root)
            .expect("walked from the root")
            .to_string_lossy()
            .into_owned();
        for (n, line) in non_test.lines().enumerate() {
            if line.contains("thread::sleep") {
                sleeps.push((name.clone(), n + 1));
            }
            for word in FORBIDDEN {
                if line.contains(word) {
                    forbidden.push(format!("{name}:{}: `{word}`", n + 1));
                }
            }
        }
    }
    assert!(forbidden.is_empty(), "{}", forbidden.join("\n"));

    // One allow-list entry per site, compared as sorted lists: a new
    // site and a stale entry both show up as a difference.
    let mut found: Vec<&str> = sleeps.iter().map(|(file, _)| file.as_str()).collect();
    let mut allowed: Vec<&str> = ALLOWED_SLEEPS.iter().map(|(file, _)| *file).collect();
    found.sort_unstable();
    allowed.sort_unstable();
    assert_eq!(
        found, allowed,
        "non-test `thread::sleep` sites (left) differ from ALLOWED_SLEEPS (right); found at {sleeps:?}"
    );
}
