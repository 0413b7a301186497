//! The `clamd` TCP server: connection handling over the group-commit
//! [`Engine`].
//!
//! Each accepted connection gets one thread, its **reader**: it blocks in
//! `read`, decodes frames and submits every frame one read returned in
//! one hand-off into the batcher's shard queues, one shard per stripe; the
//! reader that queues onto a shard no thread leads runs its gathers. So
//! concurrent arrivals — pipelined on one connection or spread across
//! many — coalesce into per-stripe group-commit gathers that commit
//! independent stripes concurrently, and the thread that completes a
//! connection's next response in order writes it.
//!
//! Nothing polls: shutting a connection's socket down is what ends its
//! reader, and [`ClamdServer::shutdown`] wakes the acceptor with one
//! connection to its own address. A client that stops reading is closed
//! once a delivery to it misses the stall limit
//! ([`ServerStats::connections_stalled`]). A client that half-closes
//! after its last request still gets every response: its reader waits
//! for them to be written before the connection is unregistered.
//!
//! A protocol violation ([`WireError`](crate::proto::WireError)) is
//! connection-fatal: the server counts it, answers with one structured
//! `ERROR` frame after the responses of the frames ahead of it — echoing
//! the offending request id when the header's magic and version checked
//! out, id 0 otherwise — and closes that connection. Other connections are
//! unaffected.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bufferhash::{BufferHashError, Clam, ClamConfig, ClamStats, RecoveryReport, StripedClam};
use flashsim::{Device, FileDevice, SharedDevice, Ssd};

use crate::batcher::{BatcherConfig, Engine};
use crate::proto;
use crate::stats::ServerStats;
use crate::superblock::{Superblock, SUPERBLOCK_BYTES};

/// Read chunk size for connection readers.
const READ_CHUNK: usize = 64 * 1024;

/// Configuration for a `clamd` server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Number of CLAM stripes the key space is hashed over.
    pub stripes: usize,
    /// Total flash capacity across all stripes, in bytes.
    pub flash_bytes: u64,
    /// Total DRAM budget across all stripes, in bytes.
    pub dram_bytes: u64,
    /// Group-commit batcher tuning.
    pub batcher: BatcherConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            stripes: 4,
            flash_bytes: 64 << 20,
            dram_bytes: 8 << 20,
            batcher: BatcherConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Refuses a store of no stripes as an invalid configuration.
    fn check_stripes(&self) -> bufferhash::Result<()> {
        if self.stripes == 0 {
            return Err(BufferHashError::InvalidConfig("a store needs at least one stripe".into()));
        }
        Ok(())
    }

    /// `device` split into `stripes` partitions, each paired with its
    /// stripe's CLAM configuration: the partition's whole capacity (the
    /// split rounds every partition down to the erase block) and an equal
    /// share of the DRAM budget. Creating a store and recovering it both
    /// derive the layout here, so they agree.
    pub(crate) fn stripe_partitions<D: Device>(
        &self,
        device: &SharedDevice<D>,
    ) -> Result<Vec<(SharedDevice<D>, ClamConfig)>, BootError> {
        self.check_stripes()?;
        let dram = self.dram_bytes / self.stripes as u64;
        let partitions = device.split(self.stripes)?.into_iter().map(|partition| {
            let config = ClamConfig::small_test(partition.geometry().capacity, dram)?;
            Ok((partition, config))
        });
        partitions.collect()
    }
}

/// Boot errors: device, store or socket failures while bringing a server
/// up. Boxed because three subsystems' error types meet here.
pub type BootError = Box<dyn std::error::Error + Send + Sync>;

/// Builds a fresh in-memory store: one simulated Intel-class SSD
/// partitioned into `config.stripes` stripes that share the device.
pub fn boot_sim(config: &ServerConfig) -> Result<StripedClam<SharedDevice<Ssd>>, BootError> {
    let device = SharedDevice::new(Ssd::intel(config.flash_bytes)?);
    boot_fresh(config.stripe_partitions(&device)?)
}

/// A store over a file-backed image.
pub type FileStore = StripedClam<SharedDevice<FileDevice>>;

/// Builds (or recovers) a file-backed store at `path`: [`boot_image`]
/// without the layout.
pub fn boot_file(
    path: &std::path::Path,
    config: &ServerConfig,
    queue_depth: usize,
) -> Result<(FileStore, Vec<RecoveryReport>), BootError> {
    boot_image(path, config, queue_depth).map(|(store, reports, _)| (store, reports))
}

/// Builds (or recovers) a file-backed store at `path`, and returns the
/// image's layout with it.
///
/// A missing file is created: a [`Superblock`] page recording the layout,
/// then `config.flash_bytes` of stripes, booted empty with no reports.
/// Each stripe gets a file handle, a device lock and an `IoStats` of its
/// own on its window, so stripes overlap their I/O.
/// An existing file is opened in place and its superblock read before any
/// slot: the stripes are built in the windows it records, and a
/// configuration whose `stripes`, `flash_bytes` or `dram_bytes` differ is
/// refused without a byte read or written beyond it. Then every stripe is
/// **recovered** from its flash contents ([`StripedClam::recover`]); the
/// per-stripe [`RecoveryReport`]s come back alongside the store. A file
/// without a superblock (made before they existed) has no layout to
/// return: its stripes are derived from `config`.
pub fn boot_image(
    path: &std::path::Path,
    config: &ServerConfig,
    queue_depth: usize,
) -> Result<(FileStore, Vec<RecoveryReport>, Option<Superblock>), BootError> {
    // Checked before a missing image is created.
    config.check_stripes()?;
    if !path.exists() {
        let image_bytes = config.flash_bytes.checked_add(SUPERBLOCK_BYTES).ok_or_else(|| {
            BufferHashError::InvalidConfig(format!("{} bytes of flash", config.flash_bytes))
        })?;
        let mut device =
            SharedDevice::new(FileDevice::with_queue_depth(path, image_bytes, queue_depth)?);
        let data = device.geometry().capacity - SUPERBLOCK_BYTES;
        let stripes = config.stripe_partitions(&device.partition(SUPERBLOCK_BYTES, data)?)?;
        let superblock = Superblock::describe(config, SUPERBLOCK_BYTES, &stripes);
        let store = boot_fresh(detached(stripes)?)?;
        device.write_at(0, &superblock.encode())?;
        return Ok((store, Vec::new(), Some(superblock)));
    }
    let mut device = SharedDevice::new(FileDevice::open_existing(path, queue_depth)?);
    let mut page = vec![0u8; SUPERBLOCK_BYTES as usize];
    device.read_at(0, &mut page)?;
    let superblock = Superblock::decode(&page)?;
    let stripes = match &superblock {
        Some(superblock) => superblock.stripes(&device, config)?,
        None => config.stripe_partitions(&device)?,
    };
    let (store, reports) = StripedClam::recover(detached(stripes)?)?;
    Ok((store, reports, superblock))
}

/// A file image's stripes, each in its window.
type FileStripes = Vec<(SharedDevice<FileDevice>, ClamConfig)>;

/// Each stripe on a file handle and a device lock of its own
/// ([`SharedDevice::detach`]), so no stripe's I/O waits on another's.
fn detached(stripes: FileStripes) -> Result<FileStripes, BootError> {
    stripes.into_iter().map(|(partition, config)| Ok((partition.detach()?, config))).collect()
}

/// An empty store over `stripes`.
fn boot_fresh<D: Device>(
    stripes: Vec<(SharedDevice<D>, ClamConfig)>,
) -> Result<StripedClam<SharedDevice<D>>, BootError> {
    let clams = stripes.into_iter().map(|(partition, stripe)| Clam::new(partition, stripe));
    Ok(StripedClam::new(clams.collect::<bufferhash::Result<_>>()?))
}

/// A running `clamd` server.
pub struct ClamdServer<D: Device + 'static> {
    engine: Engine<D>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ClamdServer<SharedDevice<Ssd>> {
    /// Starts a server over a fresh simulated-SSD store.
    pub fn start_sim(config: ServerConfig) -> Result<Self, BootError> {
        let store = boot_sim(&config)?;
        Self::start(store, Vec::new(), config)
    }
}

impl<D: Device + 'static> ClamdServer<D> {
    /// Starts serving `store` on `config.addr`. `recovery` carries the
    /// boot-time recovery reports (empty for a fresh store). A bind, or an
    /// accept thread the OS refuses, is returned as the error.
    pub fn start(
        store: StripedClam<D>,
        recovery: Vec<RecoveryReport>,
        config: ServerConfig,
    ) -> Result<Self, BootError> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let engine = Engine::start(store, recovery, config.batcher.clone());
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));

        let accept_engine = engine.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread =
            std::thread::Builder::new().name("clamd-accept".to_string()).spawn(move || {
                for (conn, stream) in (1..).zip(listener.incoming()) {
                    // The connection that wakes the acceptor for shutdown
                    // is not served.
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else {
                        // Say, no descriptor free: accept again after a pause.
                        accept_engine.count_accept_error();
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    };
                    spawn_connection(stream, conn, &accept_engine, &accept_conns);
                }
            })?;

        Ok(ClamdServer {
            engine,
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server ledger (per-shard gather ledgers merged).
    pub fn stats(&self) -> ServerStats {
        self.engine.stats()
    }

    /// Each batcher shard's own gather ledger, in shard order.
    pub fn per_shard_stats(&self) -> Vec<ServerStats> {
        self.engine.per_shard_stats()
    }

    /// Number of batcher shards running: one per stripe.
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Aggregated store statistics across all stripes.
    pub fn clam_stats(&self) -> ClamStats {
        self.engine.clam_stats()
    }

    /// Per-stripe boot recovery reports (empty for a fresh store).
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.engine.recovery_reports().to_vec()
    }

    /// Stops accepting, drains every queued request (their responses are
    /// still delivered), flushes every stripe to flash, closes all
    /// connections and joins every thread, counting one that panicked in
    /// [`ServerStats::thread_panics`]. Dropping the server does the same.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(handle) = self.accept_thread.take() {
            // The acceptor blocks in `accept`; a connection to its own
            // address wakes it to see the flag. If it has already exited,
            // nothing listens and the connect fails harmlessly.
            drop(TcpStream::connect(self.local_addr));
            join_counting_panics(handle, &self.engine);
        }
        // Drain the batcher first so in-flight requests are written to
        // their sockets, flush every stripe so what was acknowledged
        // survives a restart, then close every connection, which ends its
        // reader.
        self.engine.shutdown();
        self.engine.flush_stripes();
        self.engine.unregister_all();
        let handles =
            std::mem::take(&mut *self.conn_threads.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            join_counting_panics(handle, &self.engine);
        }
    }
}

impl<D: Device + 'static> Drop for ClamdServer<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Registers an accepted connection's socket with the engine and spawns
/// the connection's reader. When its reading ends — the client
/// half-closed or left, or the connection was closed — the reader waits
/// for the responses still in flight to be written, then unregisters it.
/// A connection whose reader cannot be spawned is closed.
fn spawn_connection<D: Device + 'static>(
    stream: TcpStream,
    conn: u64,
    engine: &Engine<D>,
    conn_threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    let _ = stream.set_nodelay(true);
    let registered = stream.try_clone().and_then(|sink| engine.register_socket(conn, sink));
    if registered.is_err() {
        return;
    }
    let reader_engine = engine.clone();
    let spawned = std::thread::Builder::new().name(format!("clamd-conn-{conn}")).spawn(move || {
        read_loop(stream, conn, &reader_engine);
        reader_engine.await_last_response(conn);
        reader_engine.unregister_conn(conn);
    });
    let Ok(reader) = spawned else { return engine.unregister_conn(conn) };

    let mut threads = conn_threads.lock().unwrap_or_else(PoisonError::into_inner);
    // Join the threads of connections that have closed, so the list holds
    // the live connections' threads and not every one since start.
    let (done, live): (Vec<_>, Vec<_>) = threads.drain(..).partition(|h| h.is_finished());
    *threads = live;
    for handle in done {
        join_counting_panics(handle, engine);
    }
    threads.push(reader);
}

/// Joins a server thread; one that panicked is counted
/// ([`ServerStats::thread_panics`]) and its panic goes no further.
fn join_counting_panics<D: Device + 'static>(handle: JoinHandle<()>, engine: &Engine<D>) {
    if handle.join().is_err() {
        engine.count_thread_panic();
    }
}

/// Decodes frames off one connection and submits them for group commit,
/// every frame one `read` returned in one hand-off, until the client
/// leaves or the engine shuts the socket down.
fn read_loop<D: Device + 'static>(mut stream: TcpStream, conn: u64, engine: &Engine<D>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut start = 0usize;
    let mut chunk = [0u8; READ_CHUNK];
    let mut requests = Vec::new();
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let violation = loop {
            match proto::decode_request(&buf[start..]) {
                Ok(Some((request, consumed))) => {
                    start += consumed;
                    requests.push(request);
                }
                Ok(None) => break None,
                Err(wire) => break Some(wire),
            }
        };
        // The frames ahead of a violation were well-formed and still run.
        engine.submit_chunk(conn, requests.drain(..));
        if let Some(wire) = violation {
            let id = proto::peek_request_id(&buf[start..]).unwrap_or(0);
            engine.reject(conn, id, &wire);
            // The ERROR frame goes out after the responses ahead of it,
            // and then the socket is shut down, which ends this read.
            while matches!(stream.read(&mut chunk), Ok(n) if n > 0) {}
            return;
        }
        // Compact the buffer once the parsed prefix dominates it.
        if start > 0 && start >= buf.len() / 2 {
            buf.drain(..start);
            start = 0;
        }
    }
}

/// Convenience constructor used by tests and the smoke harness: a fresh
/// sim-backed server on an ephemeral loopback port, one batcher shard per
/// stripe.
pub fn ephemeral_sim_server(
    stripes: usize,
    flash_bytes: u64,
    dram_bytes: u64,
) -> Result<ClamdServer<SharedDevice<Ssd>>, BootError> {
    ClamdServer::start_sim(ServerConfig { stripes, flash_bytes, dram_bytes, ..Default::default() })
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::batcher::STALL_LIMIT;
    use crate::client::ClamdClient;
    use crate::proto::{ErrorCode, Op, Request, RespBody};

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let mut server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        // Idempotent.
        server.shutdown();
    }

    /// A thread of the server's that panics, as a reader would, once
    /// finished.
    fn panicked_thread() -> JoinHandle<()> {
        let handle = std::thread::spawn(|| panic!("a server thread panics"));
        while !handle.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle
    }

    #[test]
    fn a_panicked_thread_is_counted_and_shutdown_still_returns() {
        let mut server = ephemeral_sim_server(1, 16 << 20, 4 << 20).unwrap();
        let threads = Arc::clone(&server.conn_threads);
        let push = |handle| threads.lock().unwrap().push(handle);
        // Reaped when the next connection's reader is registered.
        push(panicked_thread());
        let mut client = ClamdClient::connect(server.local_addr()).unwrap();
        client.insert(1, 10).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().thread_panics == 0 {
            assert!(Instant::now() < deadline, "the reaped panic was never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Joined at shutdown.
        push(panicked_thread());
        server.shutdown();
        assert_eq!(server.stats().thread_panics, 2);
    }

    #[test]
    fn config_derives_per_stripe_share() {
        // Each stripe takes its whole partition, which the split rounds
        // down to the erase block.
        for stripes in 1..=6 {
            let config = ServerConfig { stripes, ..Default::default() };
            let device = SharedDevice::new(Ssd::intel(config.flash_bytes).unwrap());
            let partitions = config.stripe_partitions(&device).unwrap();
            assert_eq!(partitions.len(), stripes);
            for (partition, stripe) in partitions {
                assert_eq!(stripe.flash_capacity, partition.geometry().capacity);
                assert_eq!(stripe.dram_bytes, config.dram_bytes / stripes as u64);
            }
        }
        // Four stripes divide the default flash evenly.
        let config = ServerConfig { stripes: 4, ..Default::default() };
        let device = SharedDevice::new(Ssd::intel(config.flash_bytes).unwrap());
        let (_, stripe) = &config.stripe_partitions(&device).unwrap()[0];
        assert_eq!(stripe.flash_capacity, config.flash_bytes / 4);
    }

    #[test]
    fn a_store_of_no_stripes_is_refused_at_boot() {
        let config = ServerConfig { stripes: 0, ..Default::default() };
        let refused = |e: BootError| e.to_string().contains("invalid configuration");
        assert!(boot_sim(&config).is_err_and(refused));
        assert!(ClamdServer::start_sim(config.clone()).is_err_and(refused));
        let path = std::env::temp_dir().join(format!("clamd-no-stripes-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(boot_file(&path, &config, 1).is_err_and(refused));
        assert!(!path.exists(), "a refused boot creates no image");
    }

    fn temp_image(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("clamd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn a_flipped_superblock_byte_is_refused_by_its_crc_and_the_image_kept() {
        let path = temp_image("flipped-superblock");
        let config = ServerConfig { stripes: 2, flash_bytes: 16 << 20, ..Default::default() };
        let (store, _, superblock) = boot_image(&path, &config, 1).unwrap();
        assert!(superblock.is_some(), "a fresh image gets a superblock");
        store.insert(7, 70).unwrap();
        store.flush_all().unwrap();
        drop(store);
        let mut image = std::fs::read(&path).unwrap();
        assert_eq!(image.len() as u64, (16 << 20) + SUPERBLOCK_BYTES);
        image[20] ^= 1; // a bit of the recorded flash size
        std::fs::write(&path, &image).unwrap();
        let refused = boot_file(&path, &config, 1).err().expect("a bad superblock boots nothing");
        assert!(refused.to_string().contains("fails its CRC"), "{refused}");
        assert!(
            std::fs::read(&path).unwrap() == image,
            "a refused boot leaves the image as it was"
        );
        image[20] ^= 1;
        std::fs::write(&path, &image).unwrap();
        let (store, reports) = boot_file(&path, &config, 1).unwrap();
        assert_eq!((reports.len(), store.lookup(7).unwrap().value), (2, Some(70)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_image_without_a_superblock_boots_from_the_flags() {
        let path = temp_image("no-superblock");
        let config = ServerConfig { stripes: 2, flash_bytes: 16 << 20, ..Default::default() };
        let device = SharedDevice::new(FileDevice::with_queue_depth(&path, 16 << 20, 1).unwrap());
        let store = boot_fresh(config.stripe_partitions(&device).unwrap()).unwrap();
        store.insert_batch(&(1..=5_000).map(|k| (k, k + 1)).collect::<Vec<_>>()).unwrap();
        store.flush_all().unwrap();
        drop((store, device));
        let (store, reports, superblock) = boot_image(&path, &config, 1).unwrap();
        assert_eq!((reports.len(), superblock), (2, None));
        assert!((1..=5_000).all(|k| store.lookup(k).unwrap().value == Some(k + 1)));
        let _ = std::fs::remove_file(&path);
    }

    /// Each stripe of a file image has a device lock of its own: a lookup
    /// that reads stripe 1's flash completes while stripe 0's lock is held.
    #[test]
    fn a_file_stripe_reads_while_another_holds_its_device_lock() {
        let path = temp_image("stripe-locks");
        let config = ServerConfig { stripes: 2, flash_bytes: 16 << 20, ..Default::default() };
        let (store, _) = boot_file(&path, &config, 1).unwrap();
        let key = (1..).find(|&key| store.stripe_index(key) == 1).unwrap();
        store.insert(key, 7).unwrap();
        store.flush_all().unwrap();
        drop(store);
        // Rebooted, the key is on flash alone.
        let (store, _) = boot_file(&path, &config, 1).unwrap();
        let stripe_0 = store.stripe(0).unwrap();
        let (locked, held) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (answer, answered) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                stripe_0.with(|clam| {
                    clam.device().with(|_| {
                        locked.send(()).unwrap();
                        let _ = released.recv();
                    })
                })
            });
            held.recv().unwrap();
            let store = &store;
            scope.spawn(move || drop(answer.send(store.lookup(key).map(|found| found.value))));
            let found = answered.recv_timeout(Duration::from_secs(5));
            release.send(()).unwrap();
            let found = found.expect("stripe 1's lookup waited for stripe 0's device lock");
            assert_eq!(found.unwrap(), Some(7));
        });
        let source = &store.stats().lookups_by_source;
        assert_eq!(source[bufferhash::LookupSource::Flash as usize], 1, "read from flash");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn raw_garbage_gets_a_structured_error_frame() {
        let server = ephemeral_sim_server(2, 16 << 20, 4 << 20).unwrap();
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.write_all(b"GET / HTTP/1.1\r\n\r\n....................").unwrap();
        sock.flush().unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            match sock.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if let Ok(Some(_)) = proto::decode_response(&buf) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let (response, _) = proto::decode_response(&buf).unwrap().expect("one error frame");
        assert_eq!(response.id, 0);
        let RespBody::Error { code, .. } = response.body else { panic!("expected error") };
        assert_eq!(code, ErrorCode::BadMagic);
        assert_eq!(server.stats().wire_errors, 1);
    }

    #[test]
    fn closed_connections_leave_no_thread_handles_behind() {
        let server = ephemeral_sim_server(1, 16 << 20, 4 << 20).unwrap();
        let handles = || server.conn_threads.lock().unwrap().len();
        let running =
            || server.conn_threads.lock().unwrap().iter().filter(|h| !h.is_finished()).count();
        let deadline = Instant::now() + Duration::from_secs(20);
        let wait = |what: &str| {
            assert!(Instant::now() < deadline, "{what}: {} handles", handles());
            std::thread::sleep(Duration::from_millis(5));
        };
        for _ in 0..200 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
        }
        while server.stats().connections_closed < 200 || running() > 0 {
            wait("200 closed connections");
        }
        // The next accept must forget the 200 finished threads.
        let _open = TcpStream::connect(server.local_addr()).unwrap();
        while running() < 1 {
            wait("the open connection's thread");
        }
        assert_eq!(handles(), 1, "only the open connection's one thread is held");
    }

    /// A client that sends 64 Ki-key lookup batches and never reads fills
    /// its socket buffers with their answers; the delivery that finds
    /// them full is cut at the stall limit and closes the connection,
    /// while another connection on the same shard keeps being answered.
    #[test]
    fn a_client_that_never_reads_is_closed_without_stalling_the_others() {
        let server = ephemeral_sim_server(1, 16 << 20, 4 << 20).unwrap();
        let addr = server.local_addr();
        let batch = proto::MAX_BATCH_OPS as u64;
        let mut frame = Vec::new();
        let misses = (0..batch).collect();
        proto::encode_request(&Request { id: 1, op: Op::LookupBatch(misses) }, &mut frame);
        let deadline = Instant::now() + Duration::from_secs(30);
        let wait_for = |what: &str, done: &dyn Fn(&ServerStats) -> bool| loop {
            let stats = server.stats();
            if done(&stats) {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: {stats}");
            std::thread::sleep(Duration::from_millis(1));
        };
        let hogging = AtomicBool::new(true);
        let worst = std::thread::scope(|scope| {
            // The other connection reads a key it wrote: a hit, so the
            // misses count only the hog's lookups.
            let other = scope.spawn(|| {
                let mut client = ClamdClient::connect(addr).unwrap();
                client.insert(1 << 40, 7).unwrap();
                let mut worst = Duration::ZERO;
                // The deadline ends the loop if the hog's side fails.
                while hogging.load(Ordering::SeqCst) && Instant::now() < deadline {
                    let asked = Instant::now();
                    assert_eq!(client.lookup(1 << 40).unwrap(), Some(7));
                    worst = worst.max(asked.elapsed());
                }
                worst
            });
            // One frame at a time, each sent once the last was answered,
            // so the shard never queues more than one.
            let mut hog = TcpStream::connect(addr).unwrap();
            for sent in 1..=128 {
                if hog.write_all(&frame).is_err() {
                    break;
                }
                wait_for("the hog's frame answered or its connection closed", &|stats| {
                    stats.lookup_misses >= sent * batch || stats.connections_closed > 0
                });
                if server.stats().connections_closed > 0 {
                    break;
                }
            }
            wait_for("the hog's connection closed", &|stats| stats.connections_closed > 0);
            hogging.store(false, Ordering::SeqCst);
            // What was written before the close is still readable; then
            // the connection ends.
            let mut sink = [0u8; 64 * 1024];
            let ended = loop {
                match hog.read(&mut sink) {
                    Ok(0) => break true,
                    Ok(_) => {}
                    Err(e) => break e.kind() == ErrorKind::ConnectionReset,
                }
            };
            assert!(ended, "the server closed the connection");
            other.join().unwrap()
        });
        // Besides the stall, the other connection may wait for the hog's
        // frame it queued behind: about 8 ms to serve in an optimized
        // build, and ten times that in a debug one.
        let slack = Duration::from_millis(if cfg!(debug_assertions) { 400 } else { 100 });
        assert!(worst < STALL_LIMIT + slack, "worst lookup {worst:?}");
        let (wire, _) = ClamdClient::connect(addr).unwrap().stats().unwrap();
        assert_eq!(wire.connections_stalled, 1, "{wire}");
    }

    /// A new connection is served as soon as it is accepted: the acceptor
    /// blocks in `accept` rather than sleeping between polls.
    #[test]
    fn a_fresh_connection_is_answered_at_once() {
        let server = ephemeral_sim_server(1, 16 << 20, 4 << 20).unwrap();
        let mut firsts: Vec<Duration> = (0..20)
            .map(|_| {
                let opened = Instant::now();
                let mut client = ClamdClient::connect(server.local_addr()).unwrap();
                assert_eq!(client.lookup(1).unwrap(), None);
                opened.elapsed()
            })
            .collect();
        firsts.sort();
        assert!(firsts[10] < Duration::from_millis(5), "first replies {firsts:?}");
    }
}
