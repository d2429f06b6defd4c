//! `spannerd`'s command line: help is an answer (stdout, exit 0), a bad
//! flag or value is an error (stderr, exit 2).

use std::process::{Command, Output};

fn spannerd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spannerd"))
        .args(args)
        .output()
        .expect("spannerd runs")
}

#[test]
fn help_goes_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = spannerd(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage: spannerd"));
        assert!(out.stderr.is_empty(), "{flag}: {:?}", out.stderr);
    }
}

#[test]
fn bad_flags_and_values_go_to_stderr_and_exit_two() {
    // A zero deadline or evaluation cap would fail every request.
    for args in [
        &["--bogus"][..],
        &["--workers", "x"],
        &["--deadline-ms", "0"],
        &["--max-eval-millis", "0"],
    ] {
        let out = spannerd(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: spannerd"));
        assert!(out.stdout.is_empty(), "{args:?}: {:?}", out.stdout);
    }
}
