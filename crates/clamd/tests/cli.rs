//! The binaries' flag handling: a value that does not parse, or that
//! the run could not honour, is refused with `invalid value` and exit
//! status 2 before anything boots, never a panic or a hang.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a refusal may take; a run still going after it is killed.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `clamd-loadgen` on a small sweep with `flag value`; returns its
/// exit code and stderr. A child still running at [`DEADLINE`] is killed
/// and fails the test rather than hanging it.
fn loadgen(flag: &str, value: &str) -> (Option<i32>, String) {
    let args = ["--ops", "64", "--key-space", "64", flag, value];
    let mut child = Command::new(env!("CARGO_BIN_EXE_clamd-loadgen"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let started = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > DEADLINE {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("clamd-loadgen {args:?} still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Runs `flag value`, checks it is refused, and returns the refusal.
fn assert_refused(flag: &str, value: &str) -> String {
    let (code, stderr) = loadgen(flag, value);
    assert_eq!(code, Some(2), "{flag} {value:?}: {stderr}");
    assert!(stderr.contains("invalid value") && stderr.contains(flag), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

#[test]
fn a_bad_multiples_list_is_an_invalid_value_not_a_panic() {
    // Too few levels to span saturation, levels that are not numbers,
    // then levels no sweep can offer: zero (its requests never fall
    // due), negative, infinite or not a number.
    for list in ["1,2", "a,b,c", "0.5,x,1.5", "", "0,1,2", "-1,1,2", "0.5,inf,2", "0.5,NaN,2"] {
        assert_refused("--multiples", list);
    }
    // The refusal names the rule the list broke.
    assert!(assert_refused("--multiples", "1,2").contains("at least three levels"));
    assert!(assert_refused("--multiples", "0,1,2").contains("positive"));
}

#[test]
fn no_connections_or_a_share_outside_zero_to_one_is_an_invalid_value() {
    // The refusal names the rule, not the parser's wording.
    let refusal = assert_refused("--connections", "0");
    assert!(refusal.contains("at least one connection"), "{refusal}");
    for flag in ["--lookup-fraction", "--hit-fraction"] {
        for share in ["1.5", "-0.1", "NaN"] {
            assert_refused(flag, share);
        }
        assert!(assert_refused(flag, "1.5").contains("[0, 1]"));
    }
}
