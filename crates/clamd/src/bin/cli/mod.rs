//! What the `clamd` and `clamd-loadgen` binaries share: flag parsing,
//! and booting the file-backed store `--flash-file` names.

use std::path::Path;

use bufferhash::RecoveryReport;
use clamd::server::{boot_image, BootError, FileStore, ServerConfig};

/// Exits with status 2, naming the flag, unless every argument is a flag
/// of `valued` followed by its value or a flag of `bare` (each list
/// space-separated): an unknown flag would otherwise boot with a default
/// in its place.
pub fn check_flags(args: &[String], valued: &str, bare: &str) {
    let listed = |list: &str, flag: &str| list.split_whitespace().any(|known| known == flag);
    let mut words = args.iter();
    while let Some(flag) = words.next() {
        let refused = match (listed(valued, flag), listed(bare, flag)) {
            (false, false) => "unknown flag",
            (true, _) if words.next().is_none_or(|value| value.starts_with("--")) => {
                "missing value for"
            }
            _ => continue,
        };
        eprintln!("{}: {refused} {flag}", env!("CARGO_BIN_NAME"));
        std::process::exit(2);
    }
}

/// The word after flag `name`, if it was given.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Flag `name` parsed, or `default` without it; a value that does not
/// parse exits with status 2, naming the rule it broke.
pub fn parse<T>(args: &[String], name: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match flag_value(args, name) {
        Some(raw) => raw.parse().unwrap_or_else(|rule| refuse(name, &raw, rule)),
        None => default,
    }
}

/// Exits with status 2: `raw` is no value for flag `name`, by `rule`.
pub fn refuse(name: &str, raw: &str, rule: impl std::fmt::Display) -> ! {
    eprintln!("{}: invalid value {raw:?} for {name}: {rule}", env!("CARGO_BIN_NAME"));
    std::process::exit(2);
}

/// Boots the store at `path` with `--queue-depth` ([`boot_image`]: an
/// existing image is recovered in place) and prints, after `prefix`, the
/// layout it adopted, then each stripe's recovery report or that the
/// store is fresh.
pub fn boot_flash_file(
    args: &[String],
    path: &Path,
    config: &ServerConfig,
    prefix: &str,
) -> Result<(FileStore, Vec<RecoveryReport>), BootError> {
    let queue_depth = parse(args, "--queue-depth", flashsim::DEFAULT_FILE_QUEUE_DEPTH);
    let (store, reports, superblock) = boot_image(path, config, queue_depth)?;
    match superblock {
        Some(layout) => println!("{prefix}image layout: {layout}"),
        None => println!("{prefix}image has no superblock; layout derived from the flags"),
    }
    // A recovered image has one report per stripe, a fresh one none.
    if reports.is_empty() {
        println!("{prefix}created fresh store at {}", path.display());
    } else {
        println!("{prefix}recovered {} stripes from {}", reports.len(), path.display());
        for (i, report) in reports.iter().enumerate() {
            println!("  stripe {i}: {report}");
        }
    }
    Ok((store, reports))
}
