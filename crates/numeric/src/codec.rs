//! The workspace's one byte codec and one content-addressed file store.
//!
//! The workspace is dependency-free by policy, so every byte layout it
//! persists or transmits — the characterization cache, the stage-result
//! cache, the service's wire messages — is hand-rolled. This module is the
//! single place those layouts are built from:
//!
//! * [`fnv`] — 64-bit FNV-1a, the content key and checksum function.
//!   Tiny and stable across platforms, which is the whole point of a shared
//!   on-disk store.
//! * [`ByteWriter`] / [`ByteReader`] — little-endian primitives, `f64` as
//!   its raw IEEE-754 bit pattern (so round trips are bit-identical,
//!   signed zeros and NaN payloads included), and `u64`-length-prefixed
//!   strings and slices. Every reader accessor returns `None` past the end,
//!   and every length prefix is checked against the *remaining* bytes before
//!   anything is allocated, so damaged or hostile input degrades to `None`.
//! * [`ContentStore`] — a directory of checksummed entries, one file per
//!   64-bit key:
//!
//! ```text
//! magic            8 bytes   per store
//! format version   4 bytes   u32 LE
//! key              8 bytes   u64 LE, echoed from the file name
//! payload length   8 bytes   u64 LE
//! payload          N bytes   the caller's encoding
//! checksum         8 bytes   u64 LE, FNV-1a over the payload
//! ```
//!
//! ```
//! use rlc_numeric::codec::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.f64(-0.0);
//! w.str("stage");
//! let bytes = w.finish();
//! let mut r = ByteReader::new(&bytes);
//! assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
//! assert_eq!(r.str().as_deref(), Some("stage"));
//! assert!(r.done());
//! ```

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// 64-bit FNV-1a over a byte slice.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter(Vec<u8>);

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        ByteWriter(Vec::new())
    }

    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter(Vec::with_capacity(capacity))
    }

    /// Appends raw bytes, without a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a bool as one byte (`0` or `1`).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Cursor-style decoder over a byte slice; every accessor returns `None`
/// when the bytes run out or do not form a valid value.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed (layouts must decode exactly).
    pub fn done(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a bool (strictly `0` or `1`).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix counting items of `width` bytes each; `None`
    /// when they cannot fit in the remaining bytes.
    fn prefix_len(&mut self, width: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n.checked_mul(width)? <= self.remaining()).then_some(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.prefix_len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.prefix_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Option<Vec<u64>> {
        let n = self.prefix_len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
}

/// Distinguishes temporary files of concurrent writers within one process.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A directory of checksummed, content-addressed entries (layout in the
/// module docs), named `<prefix>-<key as 16 hex digits>.bin`.
///
/// * [`ContentStore::load`] re-verifies magic, format version, echoed key,
///   length and checksum; any damage reads as a miss, and the caller's next
///   [`ContentStore::store`] heals the entry.
/// * [`ContentStore::store`] writes a process- and sequence-unique temporary
///   file in the same directory, syncs it, then renames it into place.
///   Renames within a directory are atomic, so concurrent readers see either
///   no entry or a complete one, never a torn write.
///
/// The key itself and the payload layout belong to the caller, which should
/// also echo enough of the request inside the payload to reject a 64-bit key
/// collision.
#[derive(Debug, Clone)]
pub struct ContentStore {
    dir: PathBuf,
    prefix: &'static str,
    magic: &'static [u8; 8],
    version: u32,
}

impl ContentStore {
    /// Opens (creating if necessary) a store directory.
    ///
    /// # Errors
    /// The I/O error when the directory cannot be created.
    pub fn open(
        dir: impl Into<PathBuf>,
        prefix: &'static str,
        magic: &'static [u8; 8],
        version: u32,
    ) -> io::Result<ContentStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ContentStore {
            dir,
            prefix,
            magic,
            version,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of the entry for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}-{key:016x}.bin", self.prefix))
    }

    /// The payload stored under `key`, or `None` when there is no entry or
    /// it fails any check.
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        let bytes = fs::read(self.entry_path(key)).ok()?;
        let mut r = ByteReader::new(&bytes);
        if r.take(self.magic.len())? != self.magic || r.u32()? != self.version || r.u64()? != key {
            return None;
        }
        let len = usize::try_from(r.u64()?).ok()?;
        let payload = r.take(len)?;
        let checksum = r.u64()?;
        (r.done() && fnv(payload) == checksum).then(|| payload.to_vec())
    }

    /// Atomically persists `payload` under `key`.
    ///
    /// # Errors
    /// The I/O error of the write, sync or rename; the temporary file is
    /// removed and the previous entry, if any, stays in place.
    pub fn store(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        let mut w = ByteWriter::with_capacity(payload.len() + 36);
        w.bytes(self.magic);
        w.u32(self.version);
        w.u64(key);
        w.u64(payload.len() as u64);
        w.bytes(payload);
        w.u64(fnv(payload));
        let bytes = w.finish();

        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{}-{key:016x}.{}.{nonce}.tmp",
            self.prefix,
            std::process::id()
        ));
        let write = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            fs::rename(&tmp, self.entry_path(key))
        })();
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        assert_eq!(fnv(b""), 0xcbf29ce484222325);
        assert_eq!(fnv(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn primitives_round_trip_bit_identically() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(65535);
        w.u32(123456);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(nan);
        w.f64(1.625e-13);
        w.str("driver/stage #3 — μm");
        w.f64s(&[-0.0, nan, 2.5]);
        w.u64s(&[1, 2, 3]);
        w.bytes(b"raw");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.u16(), Some(65535));
        assert_eq!(r.u32(), Some(123456));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Some(nan.to_bits()));
        assert_eq!(r.f64(), Some(1.625e-13));
        assert_eq!(r.str().as_deref(), Some("driver/stage #3 — μm"));
        let bits: Vec<u64> = r.f64s().unwrap().into_iter().map(f64::to_bits).collect();
        assert_eq!(bits, [(-0.0f64).to_bits(), nan.to_bits(), 2.5f64.to_bits()]);
        assert_eq!(r.u64s(), Some(vec![1, 2, 3]));
        assert_eq!(r.take(3), Some(&b"raw"[..]));
        assert!(r.done());
        // Short buffers: `None`, never a panic or an over-read.
        let mut r = ByteReader::new(&bytes[..3]);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.u16(), None);
        // A bool byte other than 0 or 1 is invalid.
        assert_eq!(ByteReader::new(&[2]).bool(), None);
    }

    #[test]
    fn lying_length_prefixes_read_as_none() {
        // One real byte after each prefix; a prefix of `remaining + 1` items
        // (or `u64::MAX`) must fail on the check, before any allocation.
        for (prefix, width) in [(u64::MAX, 1), (2, 1), (u64::MAX, 8), (1, 8)] {
            let mut w = ByteWriter::new();
            w.u64(prefix);
            w.u8(0);
            let bytes = w.finish();
            if width == 1 {
                assert_eq!(ByteReader::new(&bytes).str(), None, "str {prefix}");
            } else {
                assert_eq!(ByteReader::new(&bytes).f64s(), None, "f64s {prefix}");
                assert_eq!(ByteReader::new(&bytes).u64s(), None, "u64s {prefix}");
            }
        }
        // A prefix whose byte count overflows `usize` is also caught.
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 4);
        assert_eq!(ByteReader::new(&w.finish()).f64s(), None);
        // An exact fit still reads.
        let mut w = ByteWriter::new();
        w.u64(1);
        w.u8(b'x');
        assert_eq!(ByteReader::new(&w.finish()).str().as_deref(), Some("x"));
    }

    fn tmp_store(name: &str) -> ContentStore {
        let dir = std::env::temp_dir().join(format!("rlc-codec-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ContentStore::open(dir, "entry", b"RLCTEST\0", 3).unwrap()
    }

    #[test]
    fn store_round_trips_and_any_damage_is_a_miss() {
        let store = tmp_store("damage");
        assert_eq!(store.load(42), None);
        store.store(42, b"payload").unwrap();
        assert_eq!(store.load(42).as_deref(), Some(&b"payload"[..]));
        let path = store.entry_path(42);
        assert!(path.ends_with("entry-000000000000002a.bin"));
        let good = fs::read(&path).unwrap();
        assert_eq!(good.len(), 36 + 7);

        let damaged = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            fs::write(&path, &bytes).unwrap();
            store.load(42)
        };
        for cut in [0, 5, 8, 20, 28, good.len() - 1] {
            assert_eq!(damaged(&|b| b.truncate(cut)), None, "cut at {cut}");
        }
        assert_eq!(damaged(&|b| b[0] ^= 1), None, "magic");
        assert_eq!(damaged(&|b| b[8] ^= 1), None, "version");
        assert_eq!(damaged(&|b| b[12] ^= 1), None, "echoed key");
        assert_eq!(damaged(&|b| b[20] ^= 1), None, "length");
        assert_eq!(damaged(&|b| b[28] ^= 1), None, "payload");
        assert_eq!(damaged(&|b| b.push(0)), None, "trailing byte");
        // Another store's format version (or magic) never reads.
        let other = ContentStore::open(store.dir(), "entry", b"RLCTEST\0", 4).unwrap();
        fs::write(&path, &good).unwrap();
        assert_eq!(other.load(42), None);
        // Overwriting heals, and leaves no temporary file behind.
        fs::write(&path, b"junk").unwrap();
        store.store(42, b"payload").unwrap();
        assert_eq!(store.load(42).as_deref(), Some(&b"payload"[..]));
        let leftovers = fs::read_dir(store.dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(leftovers, 0);
        let _ = fs::remove_dir_all(store.dir());
    }
}
