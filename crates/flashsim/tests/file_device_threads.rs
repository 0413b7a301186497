//! A `FileDevice` starts no thread: ring requests run on the thread that
//! submits them. This is its own test binary so that no other test's
//! threads are counted.

use flashsim::{CompletionRing, Device, FileDevice, IoRequest, RingRequest};

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn a_file_device_runs_a_ring_round_without_starting_a_thread() {
    let mut path = std::env::temp_dir();
    path.push(format!("flashsim-threads-{}", std::process::id()));
    let before = threads();
    {
        let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 8).unwrap();
        assert_eq!(threads(), before, "construction starts no thread");
        let mut ring = CompletionRing::for_queue(dev.queue());
        let mut requests: Vec<RingRequest> = (0..8u64)
            .map(|i| RingRequest::new(IoRequest::write(i * 4096, vec![i as u8; 4096])))
            .collect();
        requests.extend((0..8u64).map(|i| RingRequest::new(IoRequest::read(i * 4096, 4096))));
        let done = dev.submit(requests, &mut ring).unwrap();
        assert_eq!(threads(), before, "nor does a ring round");
        assert_eq!(done.len(), 16, "every request finished inside the call");
        assert!(done.iter().all(|c| c.result.is_ok()));
        assert!(done.iter().any(|c| c.lane != 0), "the queue depth still books lanes");
    }
    assert_eq!(threads(), before);
    std::fs::remove_file(&path).ok();
}
