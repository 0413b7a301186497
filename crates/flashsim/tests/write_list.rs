//! The list contract of `Device::medium_write`: a write of several buffers
//! is one command over their concatenation. On every device, twin devices
//! given the same script, one writing lists and the other their
//! concatenations, per-op and through the ring, read back the same bytes,
//! return the same latencies and keep the same ledger (one write a list,
//! its total bytes). Two edge cases: a `CrashDevice` cut whose torn prefix
//! ends inside the second buffer, and a `SharedDevice` window whose bounds
//! check refuses a list that overruns it.

use flashsim::{
    CompletionRing, CrashDevice, Device, DeviceError, DramDevice, FileDevice, FlashChip, IoRequest,
    IoStats, MagneticDisk, RingRequest, SharedDevice, SimDuration, Ssd,
};

/// Three buffers, the middle one empty, of distinct non-zero bytes.
fn buffers(seed: u8) -> Vec<Vec<u8>> {
    let fill = |len: usize, tag: u8| (0..len).map(|i| (i as u8 ^ tag) | 1).collect();
    vec![fill(5_000, seed), Vec::new(), fill(11_000, seed.wrapping_add(0x5a))]
}

fn slices(bufs: &[Vec<u8>]) -> Vec<&[u8]> {
    bufs.iter().map(Vec::as_slice).collect()
}

/// Runs one request on a fresh ring and returns its latency and result.
fn on_ring(
    dev: &mut dyn Device,
    request: IoRequest,
) -> (SimDuration, Result<Vec<u8>, DeviceError>) {
    let mut ring = CompletionRing::for_queue(dev.queue());
    let done = dev.submit(vec![RingRequest::new(request)], &mut ring).unwrap().remove(0);
    (done.latency, done.result)
}

/// Drives `lists` with buffer lists and `flat` with their
/// concatenations. `measured` devices report host time, so their
/// latencies are compared with their own ledgers instead of each other.
fn check_lists_equal_concatenations(lists: &mut dyn Device, flat: &mut dyn Device, measured: bool) {
    let name = lists.name();
    let same_latency = |a: SimDuration, b: SimDuration, what: &str| {
        if !measured {
            assert_eq!(a, b, "{name}: {what}");
        }
    };
    let same_ledger = |a: IoStats, b: IoStats, what: &str| {
        let zero = SimDuration::ZERO;
        let blank = |s: IoStats| {
            if measured {
                IoStats { write_time: zero, read_time: zero, ..s }
            } else {
                s
            }
        };
        assert_eq!(blank(a), blank(b), "{name}: {what}");
    };

    // Per-op, at an offset inside a page.
    let (at, bufs) = (3 * 4096 + 100, buffers(1));
    let whole = bufs.concat();
    let listed = lists.write_list_at(at, &slices(&bufs)).unwrap();
    let flattened = flat.write_at(at, &whole).unwrap();
    same_latency(listed, flattened, "per-op latency");
    let s = lists.stats();
    assert_eq!((s.writes, s.bytes_written, s.write_time), (1, 16_000, listed), "{name}");
    same_ledger(lists.stats(), flat.stats(), "per-op ledger");

    // Through the ring, page-aligned and behind the first write.
    let (at2, bufs2) = (64 * 1024, buffers(2));
    let (listed, got) = on_ring(lists, IoRequest::write_list(at2, bufs2.clone()));
    let (flattened, want) = on_ring(flat, IoRequest::write(at2, bufs2.concat()));
    assert_eq!(got, want, "{name}: ring result");
    assert!(got.is_ok(), "{name}: {got:?}");
    same_latency(listed, flattened, "ring latency");
    same_ledger(lists.stats(), flat.stats(), "ring ledger");

    for (offset, expect) in [(at, whole), (at2, bufs2.concat())] {
        let (mut a, mut b) = (vec![0u8; expect.len()], vec![0u8; expect.len()]);
        lists.read_at(offset, &mut a).unwrap();
        flat.read_at(offset, &mut b).unwrap();
        assert!(a == expect && b == expect, "{name}: bytes read back at {offset}");
    }

    // A list of empty buffers is an empty write; one past the end is
    // refused whole.
    assert_eq!(lists.write_list_at(0, &[&[], &[]]), Ok(SimDuration::ZERO), "{name}");
    let end = lists.geometry().capacity - 10;
    let over = lists.write_list_at(end, &[&[1u8; 8], &[1u8; 8]]);
    assert!(matches!(over, Err(DeviceError::OutOfBounds { len: 16, .. })), "{name}: {over:?}");
    same_ledger(lists.stats(), flat.stats(), "empty and refused lists count nothing");
}

#[test]
fn dram() {
    let twin = || DramDevice::new(1 << 20).unwrap();
    check_lists_equal_concatenations(&mut twin(), &mut twin(), false);
}

#[test]
fn magnetic_disk() {
    let twin = || MagneticDisk::new(1 << 20).unwrap();
    check_lists_equal_concatenations(&mut twin(), &mut twin(), false);
}

#[test]
fn flash_chip() {
    let twin = || FlashChip::new(1 << 20).unwrap();
    let (mut lists, mut flat) = (twin(), twin());
    check_lists_equal_concatenations(&mut lists, &mut flat, false);
    // A list reaching a programmed page is refused whole, as its
    // concatenation is: the dirty-page check covers the whole range.
    let bufs = buffers(3);
    let listed = lists.write_list_at(0, &slices(&bufs));
    assert_eq!(listed, flat.write_at(0, &bufs.concat()));
    assert!(matches!(listed, Err(DeviceError::WriteToDirtyPage { .. })), "{listed:?}");
    assert_eq!(lists.programmed_pages(), flat.programmed_pages());
}

#[test]
fn ssd() {
    let twin = || Ssd::intel(8 << 20).unwrap();
    check_lists_equal_concatenations(&mut twin(), &mut twin(), false);
}

#[test]
fn file_device() {
    let path = |side: &str| {
        std::env::temp_dir().join(format!("flashsim-write-list-{side}-{}", std::process::id()))
    };
    let (a, b) = (path("lists"), path("flat"));
    let mut lists = FileDevice::create(&a, 1 << 20).unwrap();
    let mut flat = FileDevice::create(&b, 1 << 20).unwrap();
    check_lists_equal_concatenations(&mut lists, &mut flat, true);
    drop((lists, flat));
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap(), "the two images");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn unarmed_crash_device() {
    let twin = || CrashDevice::new(Ssd::intel(8 << 20).unwrap());
    let (mut lists, mut flat) = (twin(), twin());
    check_lists_equal_concatenations(&mut lists, &mut flat, false);
    assert_eq!(lists.applied_writes(), flat.applied_writes(), "one applied write a list");
}

#[test]
fn boxed_device() {
    let twin = || -> Box<dyn Device> { Box::new(Ssd::intel(8 << 20).unwrap()) };
    check_lists_equal_concatenations(&mut twin(), &mut twin(), false);
}

#[test]
fn shared_device_partition() {
    let twin = || SharedDevice::new(Ssd::intel(8 << 20).unwrap()).partition(2 << 20, 2 << 20);
    check_lists_equal_concatenations(&mut twin().unwrap(), &mut twin().unwrap(), false);
}

#[test]
fn a_torn_prefix_may_end_inside_the_second_buffer() {
    // Two buffers; the prefix ends 7 bytes into the second.
    let bufs: Vec<Vec<u8>> = buffers(4).into_iter().filter(|b| !b.is_empty()).collect();
    let whole = bufs.concat();
    let torn = bufs[0].len() + 7;
    let cut = || {
        let mut dev = CrashDevice::cut_after(DramDevice::new(1 << 20).unwrap(), 0);
        dev.set_torn_write_bytes(torn);
        dev
    };
    let (mut lists, mut flat) = (cut(), cut());
    let listed = lists.write_list_at(4096, &slices(&bufs));
    let flattened = flat.write_at(4096, &whole);
    assert!(matches!(listed, Err(DeviceError::Io(_))), "{listed:?}");
    assert_eq!(listed, flattened);
    assert_eq!(lists.crash_stats(), flat.crash_stats());
    assert_eq!(lists.crash_stats().torn_write, Some((4096, torn as u64)));

    let read_back = |dev: CrashDevice<DramDevice>| {
        let mut image = vec![0u8; whole.len() + 4096];
        dev.into_inner().read_at(4096, &mut image).unwrap();
        image
    };
    let image = read_back(lists);
    assert_eq!(image, read_back(flat), "the same torn image");
    assert_eq!(&image[..torn], &whole[..torn], "the prefix landed");
    assert!(image[torn..].iter().all(|&b| b == 0), "nothing past the prefix");
}

#[test]
fn a_windows_bounds_check_refuses_a_list_that_overruns_it() {
    // Two adjacent windows: a list that starts in the first and runs past
    // its end must be refused whole, not spill into the second.
    let shared = SharedDevice::new(Ssd::intel(8 << 20).unwrap());
    let mut window = shared.partition(0, 256 * 1024).unwrap();
    let bufs = vec![vec![0xab; 128 * 1024], vec![0xcd; 128 * 1024]];
    let start = 4096; // in range, but start + 256 KiB is 4 KiB past the end
    let per_op = window.write_list_at(start, &slices(&bufs));
    assert!(matches!(per_op, Err(DeviceError::OutOfBounds { len: 262_144, .. })), "{per_op:?}");
    let (latency, ringed) = on_ring(&mut window, IoRequest::write_list(start, bufs));
    assert!(matches!(ringed, Err(DeviceError::OutOfBounds { len: 262_144, .. })), "{ringed:?}");
    assert_eq!(latency, SimDuration::ZERO, "a refused request costs nothing");

    let s = shared.stats();
    assert_eq!((s.writes, s.bytes_written), (0, 0), "nothing was written");
    let mut device = vec![0u8; 512 * 1024];
    shared.with(|ssd| ssd.read_at(0, &mut device).unwrap());
    assert!(device.iter().all(|&b| b == 0), "neither window holds a byte");
}
