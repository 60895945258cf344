//! `flexserve` rejects malformed or unknown flags and spec files with
//! exit 2 before it admits or runs anything.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexserve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn flexserve(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flexserve"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("flexserve runs")
}

fn assert_rejected(dir: &PathBuf, args: &[&str], needle: &str) {
    let out = flexserve(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    assert!(stderr.contains(needle), "{args:?}: stderr lacks `{needle}`: {stderr}");
    assert!(!dir.join("flexserve-journals").exists(), "{args:?} opened a journal");
}

#[test]
fn out_of_range_priority_exits_2_without_running() {
    let dir = tmpdir("priority");
    assert_rejected(&dir, &["run", "--priority", "300"], "invalid value `300` for --priority");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_unknown_flags_exit_2() {
    let dir = tmpdir("flags");
    assert_rejected(&dir, &["run", "--trials", "abc"], "invalid value `abc` for --trials");
    assert_rejected(&dir, &["run", "--max-attempts", "0x1_0000_0000"], "--max-attempts");
    assert_rejected(&dir, &["run", "--no-such-flag"], "unknown flag `--no-such-flag`");
    // `--name` is not the job flag; `--job` is.
    assert_rejected(&dir, &["run", "--name", "x"], "unknown flag `--name`");
    // Flags belong to their subcommand: `run` has no socket.
    assert_rejected(&dir, &["run", "--socket", "s.sock"], "unknown flag `--socket`");
    assert_rejected(&dir, &["bogus"], "unknown subcommand `bogus`");
    assert_rejected(&dir, &[], "missing subcommand");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_spec_files_exit_2_without_running() {
    let dir = tmpdir("spec");
    for (name, spec, needle) in [
        ("priority.json", r#"{"priority": 300}"#, "priority: 300 does not fit in u8"),
        ("typo.json", r#"{"trails": 40}"#, "trails: unknown field"),
    ] {
        std::fs::write(dir.join(name), spec).expect("write spec");
        assert_rejected(&dir, &["run", "--spec", name], needle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
