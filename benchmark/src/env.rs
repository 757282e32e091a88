//! The benchmark's footprint on the host: one work directory per
//! invocation, a free-space check, and what `/proc` says about us.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Everything a run writes (stores, shard dirs, WAL, sockets, traces)
/// lives under `.bench_work/` of the current directory — inside the
/// checkout the benchmark was started from, and a short *relative* path,
/// so unix socket names stay under the 108-byte limit however deep the
/// checkout sits.
const WORK_ROOT: &str = ".bench_work";

/// The largest workload keeps a ~100 MB shard plane plus a second copy
/// while a set-up repetition replaces it; refuse to start without room
/// for that and a margin.
const MIN_FREE_BYTES: u64 = 512 << 20;

/// One work directory, removed when dropped — on success, on an error
/// return and on an unwinding panic alike.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(WORK_ROOT).join(format!("{}-{stamp}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create work dir {}: {e}", path.display()))?;
        let work = WorkDir { path };
        match free_bytes(&work.path) {
            Some(free) if free < MIN_FREE_BYTES => Err(format!(
                "only {} MiB free under {WORK_ROOT}; the benchmark needs {} MiB",
                free >> 20,
                MIN_FREE_BYTES >> 20
            )),
            Some(_) => Ok(work),
            None => {
                eprintln!("note: could not read free space (no `df`); continuing unchecked");
                Ok(work)
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory (any previous one is removed first).
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty root behind; fails (harmlessly) while another
        // invocation still has its own directory there.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Free bytes on the filesystem holding `path`, from `df -Pk` (the
/// standard library has no `statvfs`, and the product crates forbid
/// pulling in `libc`).
fn free_bytes(path: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(path).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) if meta.is_file() => meta.len(),
            _ => 0,
        })
        .sum()
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// `VmHWM` of this process (its peak resident set) in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores, kernel and compiler, recorded beside every committed result.
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
}

pub fn host() -> Host {
    let read = |cmd: &str, arg: &str| {
        Command::new(cmd)
            .arg(arg)
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel: read("uname", "-r"),
        rustc: read("rustc", "--version"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_dir_is_removed_on_drop_and_on_panic() {
        let path = {
            let work = WorkDir::create().expect("work dir");
            std::fs::write(work.fresh("sub").unwrap().join("f"), b"abc").unwrap();
            assert_eq!(dir_bytes(work.path()), 3);
            work.path().to_path_buf()
        };
        assert!(!path.exists(), "dropped work dir must be gone");

        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let work = WorkDir::create().expect("work dir");
            *seen.lock().unwrap() = work.path().to_path_buf();
            panic!("workload failed");
        });
        assert!(result.is_err());
        assert!(
            !seen.lock().unwrap().exists(),
            "work dir must not survive a panic"
        );
    }

    #[test]
    fn peak_rss_is_read() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
