//! The `clamd` server binary.
//!
//! Serves a striped CLAM over TCP with group-commit batching, one
//! shard queue per stripe. By default
//! the store is a fresh simulated Intel-class SSD; with `--flash-file`
//! the store is file-backed, and an existing image is **recovered in
//! place** (the per-stripe recovery reports print at startup).
//!
//! ```text
//! clamd [--addr 127.0.0.1:7979] [--stripes 4]
//!       [--flash-bytes 67108864] [--dram-bytes 8388608]
//!       [--flash-file PATH] [--queue-depth N]
//! ```

mod cli;

use clamd::batcher::BatcherConfig;
use clamd::server::{ClamdServer, ServerConfig};

use cli::{check_flags, flag_value, parse};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let valued = "--addr --stripes --flash-bytes --dram-bytes --flash-file --queue-depth";
    check_flags(&args, valued, "--help -h");
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "clamd: fingerprint-lookup service over a CLAM\n\
             \n\
             --addr ADDR         listen address (default 127.0.0.1:7979; port 0 = ephemeral)\n\
             --stripes N         CLAM stripes, one shard queue each (default 4)\n\
             --flash-bytes N     total flash capacity (default 64 MiB)\n\
             --dram-bytes N      total DRAM budget (default 8 MiB)\n\
             --flash-file PATH   file-backed store; existing images are recovered\n\
             --queue-depth N     file-device completion-ring lanes (default {})",
            flashsim::DEFAULT_FILE_QUEUE_DEPTH
        );
        return;
    }
    let config = ServerConfig {
        addr: flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7979".to_string()),
        stripes: parse(&args, "--stripes", 4),
        flash_bytes: parse(&args, "--flash-bytes", 64 << 20),
        dram_bytes: parse(&args, "--dram-bytes", 8 << 20),
        batcher: BatcherConfig::default(),
    };

    match flag_value(&args, "--flash-file") {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            let (store, reports) = cli::boot_flash_file(&args, &path, &config, "clamd: ")
                .unwrap_or_else(|e| {
                    eprintln!("clamd: cannot boot from {}: {e}", path.display());
                    std::process::exit(1);
                });
            serve(ClamdServer::start(store, reports, config));
        }
        None => serve(ClamdServer::start_sim(config)),
    }
}

/// Prints the bound address and serves until killed; connection and
/// batcher threads do all the work.
fn serve<D: flashsim::Device + 'static>(
    server: Result<ClamdServer<D>, clamd::server::BootError>,
) -> ! {
    let server = server.unwrap_or_else(|e| {
        eprintln!("clamd: cannot start: {e}");
        std::process::exit(1);
    });
    println!("clamd listening on {}", server.local_addr());
    loop {
        std::thread::park();
    }
}
