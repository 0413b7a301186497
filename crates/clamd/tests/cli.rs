//! The binaries' flag handling: a value that does not parse is refused
//! with `invalid value` and exit status 2, never a panic.

use std::process::Command;

/// Runs `clamd-loadgen` with `args`; returns its exit code and stderr.
fn loadgen(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_clamd-loadgen")).args(args).output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_bad_multiples_list_is_an_invalid_value_not_a_panic() {
    // Too few levels to span saturation, then levels that are not numbers.
    for list in ["1,2", "a,b,c", "0.5,x,1.5", ""] {
        let (code, stderr) = loadgen(&["--multiples", list]);
        assert_eq!(code, Some(2), "--multiples {list:?}: {stderr}");
        assert!(stderr.contains("invalid value") && stderr.contains("--multiples"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
