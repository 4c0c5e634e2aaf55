//! End-to-end checkpoint/resume tests of the `thrifty-barrier` binary.
//!
//! A crash mid-sweep leaves the journal with a prefix of fsync'd records,
//! possibly ending in a torn line. These tests reconstruct exactly those
//! on-disk states from a complete journal (truncating it to `k` records,
//! or mid-record) and assert the resumed sweep's stdout is byte-identical
//! to an uninterrupted run at every `--jobs` level — the acceptance bar
//! from the supervision design. The real SIGKILL rehearsal lives in CI's
//! interrupted-sweep smoke job.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_thrifty-barrier"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh temp path for every call: libtest runs tests on parallel
/// threads of one process, so the pid alone would let two tests (or two
/// calls of one helper) share a file and race on it.
fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("tb-journal-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let call = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{}-{call}-{name}", std::process::id()))
}

/// One complete journaled n=8 sweep, reused by every test below: returns
/// the clean stdout and the journal's lines (header + 50 cell records).
fn complete_sweep() -> (Vec<u8>, Vec<String>) {
    let journal = tmp("complete.jsonl");
    let journal_str = journal.to_str().unwrap();
    let out = bin(&["sweep", "--nodes", "8", "--journal", journal_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    let body = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<String> = body.lines().map(String::from).collect();
    assert_eq!(lines.len(), 51, "header + one record per cell");
    std::fs::remove_file(&journal).ok();
    (out.stdout, lines)
}

#[test]
fn resume_after_simulated_crash_is_byte_identical_at_every_jobs_level() {
    let (clean, lines) = complete_sweep();
    // Kill at cell 20: the journal holds the header and the first twenty
    // fsync'd records, nothing else.
    for jobs in ["1", "2", "4"] {
        let journal = tmp(&format!("kill20-j{jobs}.jsonl"));
        std::fs::write(&journal, format!("{}\n", lines[..21].join("\n"))).unwrap();
        let out = bin(&[
            "sweep",
            "--nodes",
            "8",
            "--resume",
            journal.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert_eq!(
            out.stdout, clean,
            "resumed stdout must byte-match the uninterrupted sweep at --jobs {jobs}"
        );
        assert!(
            stderr(&out).contains("20 of 50 cells replayed"),
            "resume note goes to stderr: {:?}",
            stderr(&out)
        );
        // The journal is now complete again: resuming a second time
        // replays everything and runs nothing.
        let again = bin(&[
            "sweep",
            "--nodes",
            "8",
            "--resume",
            journal.to_str().unwrap(),
        ]);
        assert!(again.status.success(), "{}", stderr(&again));
        assert_eq!(again.stdout, clean);
        assert!(
            stderr(&again).contains("50 of 50 cells replayed"),
            "{:?}",
            stderr(&again)
        );
        std::fs::remove_file(&journal).ok();
    }
}

#[test]
fn torn_trailing_record_is_truncated_not_fatal() {
    let (clean, lines) = complete_sweep();
    let journal = tmp("torn.jsonl");
    // A crash mid-write: 30 whole records, then half of the 31st.
    let mut body = format!("{}\n", lines[..31].join("\n"));
    body.push_str(&lines[31][..lines[31].len() / 2]);
    std::fs::write(&journal, body).unwrap();
    let out = bin(&[
        "sweep",
        "--nodes",
        "8",
        "--resume",
        journal.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(out.stdout, clean, "torn tail truncated, rest replayed");
    assert!(
        stderr(&out).contains("30 of 50 cells replayed"),
        "the torn record does not count: {:?}",
        stderr(&out)
    );
    std::fs::remove_file(&journal).ok();
}

/// The watchdog acceptance bar: a sweep whose every cell wedges (the
/// `hang` scenario loses wake-ups and disables guard recovery) still
/// terminates, exits 0, and reports the cells as livelocked.
#[test]
fn hang_scenario_terminates_with_livelock_coverage() {
    let out = bin(&["sweep", "--nodes", "8", "--faults", "hang"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("50 failed cells"), "{stdout}");
    assert!(stdout.contains("50 livelocked"), "{stdout}");
}
