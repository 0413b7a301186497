//! Booting, preloading and recovering the store on either backing, with a
//! handle on the device kept so its `IoStats` stay readable after the
//! store has moved into a server.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bufferhash::{Clam, ClamConfig, RecoveryReport, StripedClam};
use clamd::{BatcherConfig, ServerConfig};
use flashsim::{Device, FileDevice, SharedDevice, Ssd};

use crate::ops::preload_pairs;
use crate::spec::{
    Workload, DRAM_BYTES, FILE_QUEUE_DEPTH, FLASH_BYTES, REPEATS, REPEAT_FOR, STRIPES,
};

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
pub type Store<M> = StripedClam<SharedDevice<M>>;

/// Keys per `insert_batch` call during preload: large, so set-up costs
/// the engine's bulk rate and not one stripe dispatch per 64 keys.
const PRELOAD_BATCH: usize = 4096;

/// The server configuration every serving workload runs: the `clamd`
/// binary's defaults (one batcher shard per stripe) at this geometry.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        stripes: STRIPES,
        flash_bytes: FLASH_BYTES,
        dram_bytes: DRAM_BYTES,
        batcher: BatcherConfig { shards: STRIPES, ..BatcherConfig::default() },
    }
}

fn stripe_config() -> bufferhash::Result<ClamConfig> {
    ClamConfig::small_test(FLASH_BYTES / STRIPES as u64, DRAM_BYTES / STRIPES as u64)
}

/// A device kind the store can sit on.
pub trait Medium: Device + Sized + 'static {
    /// A fresh, empty device; `image` is where a file-backed one lives.
    fn create(image: &Path) -> Result<SharedDevice<Self>, BoxError>;

    /// Rebuilds a store from what `device` holds, the way a rebooted
    /// `clamd` would: nothing but the flash contents survives.
    fn recover(
        device: SharedDevice<Self>,
        image: &Path,
    ) -> Result<(Store<Self>, Vec<RecoveryReport>), BoxError>;
}

impl Medium for Ssd {
    fn create(_image: &Path) -> Result<SharedDevice<Self>, BoxError> {
        Ok(SharedDevice::new(Ssd::intel(FLASH_BYTES)?))
    }

    fn recover(
        device: SharedDevice<Self>,
        _image: &Path,
    ) -> Result<(Store<Self>, Vec<RecoveryReport>), BoxError> {
        let config = stripe_config()?;
        let stripes = device.split(STRIPES)?.into_iter().map(|p| (p, config.clone())).collect();
        Ok(StripedClam::recover(stripes)?)
    }
}

impl Medium for FileDevice {
    fn create(image: &Path) -> Result<SharedDevice<Self>, BoxError> {
        let _ = std::fs::remove_file(image);
        Ok(SharedDevice::new(FileDevice::with_queue_depth(image, FLASH_BYTES, FILE_QUEUE_DEPTH)?))
    }

    /// Closes the image and reopens it through `clamd::boot_file`, the
    /// `clamd --flash-file` boot path.
    fn recover(
        device: SharedDevice<Self>,
        image: &Path,
    ) -> Result<(Store<Self>, Vec<RecoveryReport>), BoxError> {
        drop(device);
        clamd::boot_file(image, &server_config(), FILE_QUEUE_DEPTH)
    }
}

/// Boots an empty store over `device`'s stripes.
fn boot<M: Medium>(device: &SharedDevice<M>) -> Result<Store<M>, BoxError> {
    let config = stripe_config()?;
    let stripes = device
        .split(STRIPES)?
        .into_iter()
        .map(|partition| Clam::new(partition, config.clone()))
        .collect::<bufferhash::Result<Vec<_>>>()?;
    Ok(StripedClam::new(stripes))
}

/// Device, and the store booted on it and preloaded.
pub struct SetUp<M: Medium> {
    pub device: SharedDevice<M>,
    pub store: Store<M>,
}

/// One set-up: a fresh device, an empty store, the workload's preload.
pub fn set_up<M: Medium>(w: &Workload, seed: u64, image: &Path) -> Result<SetUp<M>, BoxError> {
    let device = M::create(image)?;
    let store = boot(&device)?;
    let mut batch = Vec::with_capacity(PRELOAD_BATCH);
    for pair in preload_pairs(w, seed) {
        batch.push(pair);
        if batch.len() == PRELOAD_BATCH {
            store.insert_batch(&batch)?;
            batch.clear();
        }
    }
    store.insert_batch(&batch)?;
    Ok(SetUp { device, store })
}

/// Runs `step` at least [`REPEATS`] times and for at least
/// [`REPEAT_FOR`] in all, keeps the last result and returns how long each
/// took in seconds. A step of milliseconds is repeated until its median
/// stops belonging to whatever the host did in one of them.
pub fn repeated<T>(
    mut step: impl FnMut() -> Result<T, BoxError>,
) -> Result<(T, Vec<f64>), BoxError> {
    let begun = Instant::now();
    let mut times = Vec::with_capacity(REPEATS);
    loop {
        let started = Instant::now();
        let done = step()?;
        times.push(started.elapsed().as_secs_f64());
        if times.len() >= REPEATS && begun.elapsed() >= REPEAT_FOR {
            return Ok((done, times));
        }
    }
}

/// Where this process keeps its flash image. The name carries the pid so
/// concurrent runs in one checkout do not share a file.
pub fn image_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("flash-{workload}-{}.img", std::process::id()))
}
