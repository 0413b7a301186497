//! The binaries as processes. Their flag handling: a value that does not
//! parse, or that the run could not honour, is refused with `invalid
//! value` and exit status 2 before anything boots, never a panic or a
//! hang. And `clamd` under a file-descriptor limit: running out for a
//! moment does not stop it accepting.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use clamd::ClamdClient;

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

/// A child process, killed and reaped when dropped.
struct Killed(Child);

impl Drop for Killed {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_moment_without_a_free_descriptor_does_not_stop_the_acceptor() {
    // `ulimit -n` in the shell limits the `clamd` it execs, and nothing
    // else. Twenty-odd descriptors serve about ten connections (a socket
    // and its writer's clone each).
    let script = "ulimit -n 24 && exec \"$0\" --addr 127.0.0.1:0 --stripes 1 \
                  --flash-bytes 16777216 --dram-bytes 2097152";
    let mut daemon = Killed(
        Command::new("sh")
            .args(["-c", script, env!("CARGO_BIN_EXE_clamd")])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let mut banner = String::new();
    BufReader::new(daemon.0.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("clamd listening on ").expect(&banner).to_string();
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("clamd refused a connection");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        ClamdClient::from_stream(stream)
    };
    let mut first = connect();
    assert_eq!(first.lookup(1).unwrap(), None);
    // Forty at once: the daemon runs out of descriptors partway through
    // accepting them, and counts each `accept` that fails.
    let crowd: Vec<TcpStream> = (0..40).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    let started = Instant::now();
    while first.stats().unwrap().0.accept_errors == 0 {
        assert!(started.elapsed() < DEADLINE, "the daemon never ran out of descriptors");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Then they all leave, and a newcomer is answered.
    drop(crowd);
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(connect().lookup(1).unwrap(), None);
}
