//! Read-only byte sources for zero-copy file access.
//!
//! The label store wants to serve a multi-gigabyte segment without copying
//! it into the heap at open time. On unix we memory-map the file
//! (`PROT_READ`, `MAP_PRIVATE`) straight through the raw C ABI — the
//! workspace is hermetic, so no `libc` crate; `std` already links the
//! platform libc and these four symbols are part of POSIX. Everywhere
//! else, and whenever the map fails (exotic filesystems, empty files),
//! we fall back to reading the file into an owned buffer behind the same
//! [`ByteSource`] trait, so callers never branch on platform.
//!
//! All the `unsafe` in the fsdl workspace lives in this one small crate;
//! every consumer (including `fsdl-labels`) keeps `forbid(unsafe_code)`.
//!
//! Soundness contract, relied on by the store's lazy open path: the
//! mapping is private and read-only, the backing segment file is
//! immutable by protocol (written once via temp-file + atomic rename and
//! never modified in place), and [`Mmap`] owns the mapping for its whole
//! lifetime — so the `&[u8]` handed out by [`ByteSource::as_bytes`] is
//! stable for as long as the source is alive, even if the file is later
//! unlinked (POSIX keeps mapped pages valid after unlink).

use std::fmt;
use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;

/// How a [`ByteSource`] holds its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Pages are memory-mapped from the file; resident set grows only as
    /// pages are touched.
    Mapped,
    /// Bytes were read into an owned heap buffer (portable fallback).
    Owned,
}

/// A stable, immutable view over a file's bytes: memory-mapped or owned,
/// same interface either way.
pub trait ByteSource: Send + Sync + fmt::Debug {
    /// The full contents of the file at open time.
    fn as_bytes(&self) -> &[u8];

    /// Whether the bytes are mapped or owned.
    fn kind(&self) -> SourceKind;
}

/// Owned-buffer source: the portable read-file fallback.
pub struct OwnedBytes {
    bytes: Vec<u8>,
}

impl OwnedBytes {
    /// Read `path` fully into an owned buffer.
    pub fn read(path: &Path) -> io::Result<OwnedBytes> {
        let mut f = File::open(path)?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        Ok(OwnedBytes { bytes })
    }
}

impl ByteSource for OwnedBytes {
    fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Owned
    }
}

impl fmt::Debug for OwnedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OwnedBytes")
            .field("len", &self.bytes.len())
            .finish()
    }
}

/// Open `path` preferring a memory map, falling back to an owned read on
/// any mapping failure or on platforms without mmap. Infallible apart
/// from genuine I/O errors (file missing, permission denied, ...).
pub fn open(path: &Path) -> io::Result<Box<dyn ByteSource>> {
    #[cfg(unix)]
    {
        match Mmap::map(path) {
            Ok(m) => return Ok(Box::new(m)),
            Err(_) => {
                // Fall through: e.g. zero-length file (EINVAL), a
                // filesystem that refuses mappings, or fd exhaustion.
            }
        }
    }
    Ok(Box::new(OwnedBytes::read(path)?))
}

/// Open `path` with the portable owned-buffer path, never mapping. Used
/// where the caller wants deterministic eager semantics (full copy, no
/// page-fault surprises) or to exercise the fallback in tests.
pub fn open_owned(path: &Path) -> io::Result<Box<dyn ByteSource>> {
    Ok(Box::new(OwnedBytes::read(path)?))
}

#[cfg(unix)]
pub use unix::Mmap;

#[cfg(unix)]
mod unix {
    use super::{ByteSource, SourceKind};
    use std::fmt;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    // POSIX mmap ABI. `std` links the platform libc, so these symbols
    // resolve without any external crate. Values below are identical on
    // Linux and the BSD family (including macOS) for the flags we use.
    mod ffi {
        use std::os::raw::{c_int, c_void};

        pub const PROT_READ: c_int = 1;
        pub const MAP_PRIVATE: c_int = 2;

        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
    }

    /// A read-only, private memory mapping of an entire file.
    pub struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ | MAP_PRIVATE — no writer exists,
    // the kernel owns the pages, and `ptr` is valid for `len` bytes until
    // `munmap` in Drop. Shared immutable access from any thread is sound.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map the whole of `path` read-only. Fails (rather than
        /// panicking) on zero-length files and on any kernel refusal;
        /// callers fall back to an owned read.
        pub fn map(path: &Path) -> io::Result<Mmap> {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map an empty file",
                ));
            }
            let len = usize::try_from(len).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "file too large to map")
            })?;
            // SAFETY: fd is valid for the duration of the call; we request
            // a fresh private read-only mapping chosen by the kernel.
            let ptr = unsafe {
                ffi::mmap(
                    std::ptr::null_mut(),
                    len,
                    ffi::PROT_READ,
                    ffi::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return Err(io::Error::last_os_error());
            }
            // The fd can be closed now; the mapping keeps the pages alive.
            Ok(Mmap {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// Length of the mapping in bytes.
        pub fn len(&self) -> usize {
            self.len
        }

        /// True when the mapping is empty (never constructed today, but
        /// keeps the clippy `len_without_is_empty` contract honest).
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    impl ByteSource for Mmap {
        fn as_bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until Drop runs; the file behind it is
            // immutable by store protocol.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        fn kind(&self) -> SourceKind {
            SourceKind::Mapped
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once.
            unsafe {
                ffi::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }

    impl fmt::Debug for Mmap {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Mmap").field("len", &self.len).finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsdl-mmap-{}-{}", name, std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("file.bin")
    }

    #[test]
    fn mapped_and_owned_agree() {
        let path = scratch("agree");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        fs::write(&path, &payload).unwrap();

        let owned = open_owned(&path).unwrap();
        assert_eq!(owned.kind(), SourceKind::Owned);
        assert_eq!(owned.as_bytes(), &payload[..]);

        let pref = open(&path).unwrap();
        assert_eq!(pref.as_bytes(), &payload[..]);
        #[cfg(unix)]
        assert_eq!(pref.kind(), SourceKind::Mapped);
    }

    #[test]
    fn empty_file_falls_back_to_owned() {
        let path = scratch("empty");
        fs::write(&path, b"").unwrap();
        let src = open(&path).unwrap();
        assert_eq!(src.kind(), SourceKind::Owned);
        assert!(src.as_bytes().is_empty());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = scratch("missing").with_file_name("no-such-file.bin");
        assert!(open(&path).is_err());
        assert!(open_owned(&path).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn mapping_survives_unlink() {
        let path = scratch("unlink");
        fs::write(&path, vec![0xabu8; 4096]).unwrap();
        let m = Mmap::map(&path).unwrap();
        fs::remove_file(&path).unwrap();
        assert_eq!(m.len(), 4096);
        assert!(!m.is_empty());
        assert!(m.as_bytes().iter().all(|&b| b == 0xab));
    }

    #[cfg(unix)]
    #[test]
    fn bytes_stable_across_threads() {
        let path = scratch("threads");
        let payload: Vec<u8> = (0..65_536u32).map(|i| (i % 256) as u8).collect();
        fs::write(&path, &payload).unwrap();
        let m = std::sync::Arc::new(Mmap::map(&path).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                let want = payload.clone();
                std::thread::spawn(move || assert_eq!(m.as_bytes(), &want[..]))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
