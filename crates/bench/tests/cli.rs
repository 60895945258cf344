//! Every bench binary rejects a flag it does not read: it exits 2 with
//! the error on stderr before it simulates anything.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "printed before rejecting: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(needle), "stderr lacks `{needle}`: {stderr}");
}

#[test]
fn mistyped_faultsweep_flag_exits_2_without_simulating() {
    let out = run(env!("CARGO_BIN_EXE_faultsweep"), &["--trails", "40"]);
    assert_usage_error(&out, "unknown flag `--trails`");
}

#[test]
fn malformed_faultsweep_value_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_faultsweep"), &["--trials", "abc"]);
    assert_usage_error(&out, "invalid value `abc` for --trials");
}

#[test]
fn every_bench_binary_rejects_an_unknown_flag() {
    for exe in [
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_faultsweep"),
        env!("CARGO_BIN_EXE_fig4"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_flexcheck"),
        env!("CARGO_BIN_EXE_flexprof"),
        env!("CARGO_BIN_EXE_flexsim"),
        env!("CARGO_BIN_EXE_superscalar"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
    ] {
        let out = run(exe, &["--no-such-flag"]);
        assert_usage_error(&out, "--no-such-flag");
    }
}

#[test]
fn help_prints_the_synopsis_and_exits_0() {
    let out = run(env!("CARGO_BIN_EXE_faultsweep"), &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: faultsweep"));
}
