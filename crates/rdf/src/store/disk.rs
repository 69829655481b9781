//! Paged run files, the buffer manager, dictionary segments and the
//! versioned manifest — the on-disk half of the durable storage tier.
//!
//! A persisted graph is a directory:
//!
//! ```text
//! MANIFEST                    versioned commit point (atomic rename)
//! run-e000001-spo-0.rpg       one paged file per immutable sorted run,
//! run-e000001-pos-0.rpg       per permutation, epoch-stamped
//! run-e000001-osp-0.rpg
//! dict-e000001-0.seg          append-only dictionary segments
//! ```
//!
//! Run files are never modified after their manifest commits; a
//! checkpoint writes a **new epoch** of files and then commits a new
//! `MANIFEST` via write-temp-then-atomic-rename, so a crash at any point
//! leaves either the old manifest with its intact old files or the new
//! manifest with its intact new files. Dictionary segments are the
//! exception that proves the rule: they are immutable *and shared* —
//! a checkpoint reuses the previous epoch's segments and appends one new
//! segment covering the terms interned since, because dictionary ids are
//! dense and append-only.
//!
//! The [`BufferPool`] is a classic pin/unpin frame cache with
//! second-chance (clock) eviction over the page files, counting hits,
//! misses and physical reads for [`StorageStats`](super::StorageStats).

use super::page::{
    self, crc32, crc32_parts, get_str, get_term, get_varint, put_str, put_term, put_varint,
    KEYS_PER_PAGE, PAGE_SIZE,
};
use crate::error::RdfError;
use crate::term::Term;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Name of the manifest file inside a persisted graph directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

const MANIFEST_MAGIC: [u8; 4] = *b"RMF1";
/// The manifest format [`Manifest::load`] reads and a persist writes.
pub(crate) const MANIFEST_VERSION: u32 = 2;
const SEG_MAGIC: [u8; 4] = *b"RDS1";

/// A handle to a file registered with a [`BufferPool`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FileId(u32);

/// A pinned frame inside a [`BufferPool`]. The frame stays resident
/// until [`BufferPool::unpin`] releases it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameId(usize);

/// Hit/miss/read counters of a [`BufferPool`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolCounters {
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Pins that had to read the page from disk.
    pub misses: u64,
    /// Physical page reads (equals `misses`; kept separate so future
    /// prefetching can diverge).
    pub pages_read: u64,
}

struct Frame {
    file: u32,
    page_no: u32,
    pins: u32,
    referenced: bool,
    n_keys: usize,
    data: Vec<u8>,
}

struct PoolFile {
    file: File,
    pages: u32,
    name: String,
}

/// A bounded page cache over registered files: [`BufferPool::pin`]
/// returns a resident, checksum-verified frame and holds it until
/// [`BufferPool::unpin`]; at capacity, an unpinned frame is evicted by
/// the clock (second-chance) policy.
pub struct BufferPool {
    frames: Vec<Frame>,
    map: HashMap<(u32, u32), usize>,
    files: Vec<PoolFile>,
    hand: usize,
    counters: PoolCounters,
}

impl BufferPool {
    /// A pool bounded to `capacity` frames (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            frames: Vec::with_capacity(capacity.clamp(1, 4096)),
            map: HashMap::new(),
            files: Vec::new(),
            hand: 0,
            counters: PoolCounters::default(),
        }
    }

    /// Registers a page file for reading. The file length must be a
    /// whole number of pages.
    pub fn open_file(&mut self, path: &Path) -> Result<FileId, RdfError> {
        let name = path.display().to_string();
        let file =
            File::open(path).map_err(|e| RdfError::io(format!("open page file {name}"), &e))?;
        let len = file
            .metadata()
            .map_err(|e| RdfError::io(format!("stat page file {name}"), &e))?
            .len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(RdfError::corrupt(
                &name,
                format!("file length {len} is not a whole number of pages"),
            ));
        }
        let id = FileId(self.files.len() as u32);
        self.files.push(PoolFile {
            file,
            pages: (len / PAGE_SIZE as u64) as u32,
            name,
        });
        Ok(id)
    }

    /// Pages of a registered file.
    pub fn file_pages(&self, file: FileId) -> u32 {
        self.files[file.0 as usize].pages
    }

    /// Pins a page into a frame, reading and checksum-verifying it on a
    /// miss. The frame is not evictable until the matching
    /// [`BufferPool::unpin`].
    pub fn pin(&mut self, file: FileId, page_no: u32) -> Result<FrameId, RdfError> {
        if let Some(&idx) = self.map.get(&(file.0, page_no)) {
            self.counters.hits += 1;
            let frame = &mut self.frames[idx];
            frame.pins += 1;
            frame.referenced = true;
            return Ok(FrameId(idx));
        }
        self.counters.misses += 1;
        let idx = self.victim_frame()?;
        let pf = &mut self.files[file.0 as usize];
        if page_no >= pf.pages {
            return Err(RdfError::corrupt(
                &pf.name,
                format!("page {page_no} beyond file end ({} pages)", pf.pages),
            ));
        }
        let mut data = std::mem::take(&mut self.frames[idx].data);
        data.resize(PAGE_SIZE, 0);
        pf.file
            .seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))
            .and_then(|_| pf.file.read_exact(&mut data))
            .map_err(|e| RdfError::io(format!("read page {page_no} of {}", pf.name), &e))?;
        self.counters.pages_read += 1;
        let n_keys = page::verify_page(page_no, &data)
            .map_err(|detail| RdfError::corrupt(&pf.name, detail))?;
        let frame = &mut self.frames[idx];
        frame.file = file.0;
        frame.page_no = page_no;
        frame.pins = 1;
        frame.referenced = true;
        frame.n_keys = n_keys;
        frame.data = data;
        self.map.insert((file.0, page_no), idx);
        Ok(FrameId(idx))
    }

    /// Releases a pin taken by [`BufferPool::pin`].
    pub fn unpin(&mut self, frame: FrameId) {
        let f = &mut self.frames[frame.0];
        debug_assert!(f.pins > 0, "unpin without a pin");
        f.pins = f.pins.saturating_sub(1);
    }

    /// Number of keys in a pinned frame's page.
    pub fn frame_keys(&self, frame: FrameId) -> usize {
        self.frames[frame.0].n_keys
    }

    /// The `i`-th key of a pinned frame's page.
    pub fn frame_key(&self, frame: FrameId, i: usize) -> [u32; 3] {
        page::page_key(&self.frames[frame.0].data, i)
    }

    /// Current hit/miss/read counters.
    pub fn counters(&self) -> PoolCounters {
        self.counters
    }

    /// Finds a frame to (re)use: grows up to capacity, then runs the
    /// clock hand over unpinned frames, skipping each referenced frame
    /// once (second chance).
    fn victim_frame(&mut self) -> Result<usize, RdfError> {
        if self.frames.len() < self.frames.capacity() {
            self.frames.push(Frame {
                file: u32::MAX,
                page_no: u32::MAX,
                pins: 0,
                referenced: false,
                n_keys: 0,
                data: Vec::new(),
            });
            return Ok(self.frames.len() - 1);
        }
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = self.hand;
            self.hand = (self.hand + 1) % n;
            let frame = &mut self.frames[idx];
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            self.map.remove(&(frame.file, frame.page_no));
            return Ok(idx);
        }
        Err(RdfError::Io {
            context: "allocate buffer-pool frame".into(),
            kind: std::io::ErrorKind::Other,
            message: "every frame is pinned; grow the pool or unpin".into(),
        })
    }
}

/// A sorted run resident in a paged file, scanned through a
/// [`BufferPool`].
pub struct PagedRun {
    file: FileId,
    keys: u64,
    name: String,
}

impl PagedRun {
    /// Opens a run file and validates its page count against the key
    /// count the manifest promised.
    pub fn open(pool: &mut BufferPool, path: &Path, keys: u64) -> Result<Self, RdfError> {
        let file = pool.open_file(path)?;
        let expect_pages = keys.div_ceil(KEYS_PER_PAGE as u64);
        if u64::from(pool.file_pages(file)) != expect_pages {
            return Err(RdfError::corrupt(
                path.display().to_string(),
                format!(
                    "manifest promises {keys} keys ({expect_pages} pages), file has {} pages",
                    pool.file_pages(file)
                ),
            ));
        }
        Ok(PagedRun {
            file,
            keys,
            name: path.display().to_string(),
        })
    }

    /// Keys in the run.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Reads the whole run into memory, verifying every page.
    pub fn read_all(&self, pool: &mut BufferPool) -> Result<Vec<[u32; 3]>, RdfError> {
        let mut out = Vec::with_capacity(self.keys as usize);
        self.for_each_in_range(pool, [u32::MIN; 3], [u32::MAX; 3], &mut |k| out.push(k))?;
        if out.len() as u64 != self.keys {
            return Err(RdfError::corrupt(
                &self.name,
                format!(
                    "pages hold {} keys, manifest promises {}",
                    out.len(),
                    self.keys
                ),
            ));
        }
        Ok(out)
    }

    /// Streams the keys in `lo..=hi` (inclusive) in key order through
    /// `f`, pinning one page at a time. Pages wholly before the range
    /// are skipped after an O(1) look at their last key; the scan stops
    /// at the first page beyond it.
    pub fn for_each_in_range(
        &self,
        pool: &mut BufferPool,
        lo: [u32; 3],
        hi: [u32; 3],
        f: &mut dyn FnMut([u32; 3]),
    ) -> Result<(), RdfError> {
        let pages = pool.file_pages(self.file);
        for page_no in 0..pages {
            let frame = pool.pin(self.file, page_no)?;
            let n = pool.frame_keys(frame);
            if n == 0 {
                pool.unpin(frame);
                continue;
            }
            if pool.frame_key(frame, n - 1) < lo {
                pool.unpin(frame);
                continue;
            }
            if pool.frame_key(frame, 0) > hi {
                pool.unpin(frame);
                break;
            }
            for i in 0..n {
                let k = pool.frame_key(frame, i);
                if k < lo {
                    continue;
                }
                if k > hi {
                    break;
                }
                f(k);
            }
            pool.unpin(frame);
        }
        Ok(())
    }
}

/// Writes a sorted run as checksummed pages, fsyncing the file. Returns
/// the number of pages written.
pub(crate) fn write_run_file(path: &Path, keys: &[[u32; 3]]) -> Result<u64, RdfError> {
    let ctx = || format!("write run file {}", path.display());
    let mut file = File::create(path).map_err(|e| RdfError::io(ctx(), &e))?;
    let mut pages = 0u64;
    for (page_no, chunk) in keys.chunks(KEYS_PER_PAGE).enumerate() {
        let buf = page::encode_page(page_no as u32, chunk);
        file.write_all(&buf).map_err(|e| RdfError::io(ctx(), &e))?;
        pages += 1;
    }
    file.sync_all().map_err(|e| RdfError::io(ctx(), &e))?;
    Ok(pages)
}

/// Manifest entry for one immutable run file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunMeta {
    /// File name within the graph directory.
    pub name: String,
    /// Keys stored in the run.
    pub keys: u64,
}

/// Manifest entry for one dictionary segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DictSegmentMeta {
    /// File name within the graph directory.
    pub name: String,
    /// The id of the first term in the segment (segments are contiguous
    /// in id order).
    pub first_id: u32,
    /// Terms stored in the segment.
    pub terms: u32,
    /// CRC-32 of the whole segment file (matches its trailing checksum).
    pub crc: u32,
}

/// The versioned per-graph manifest: which run files and dictionary
/// segments constitute the current epoch. Committed atomically
/// by the crate-internal `Manifest::commit`; the rename of `MANIFEST.tmp` over
/// [`MANIFEST_NAME`] is the durability commit point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// Format version (currently 2; a version-1 manifest, which names a
    /// write-ahead log, is refused as corrupt).
    pub version: u32,
    /// Checkpoint epoch, incremented by every persist.
    pub epoch: u64,
    /// Live triples at persist time.
    pub triples: u64,
    /// Dictionary segments in id order.
    pub dict_segments: Vec<DictSegmentMeta>,
    /// Run lists for the SPO, POS and OSP permutations (in that order),
    /// each oldest-first.
    pub runs: [Vec<RunMeta>; 3],
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        put_varint(&mut out, self.epoch);
        put_varint(&mut out, self.triples);
        put_varint(&mut out, self.dict_segments.len() as u64);
        for seg in &self.dict_segments {
            put_str(&mut out, &seg.name);
            put_varint(&mut out, u64::from(seg.first_id));
            put_varint(&mut out, u64::from(seg.terms));
            out.extend_from_slice(&seg.crc.to_le_bytes());
        }
        for runs in &self.runs {
            put_varint(&mut out, runs.len() as u64);
            for run in runs {
                put_str(&mut out, &run.name);
                put_varint(&mut out, run.keys);
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Result<Manifest, String> {
        if buf.len() < 12 {
            return Err("manifest too short".into());
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if stored != crc32(body) {
            return Err("manifest checksum mismatch".into());
        }
        if body[..4] != MANIFEST_MAGIC {
            return Err("bad manifest magic".into());
        }
        let version = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let mut pos = 8;
        let epoch = get_varint(body, &mut pos)?;
        let triples = get_varint(body, &mut pos)?;
        let n_segs = get_varint(body, &mut pos)? as usize;
        let mut dict_segments = Vec::with_capacity(n_segs.min(1024));
        for _ in 0..n_segs {
            let name = get_str(body, &mut pos)?;
            let first_id = get_varint(body, &mut pos)? as u32;
            let terms = get_varint(body, &mut pos)? as u32;
            let crc_at = pos;
            let crc_bytes = body
                .get(crc_at..crc_at + 4)
                .ok_or("truncated segment entry")?;
            pos += 4;
            dict_segments.push(DictSegmentMeta {
                name,
                first_id,
                terms,
                crc: u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")),
            });
        }
        let mut runs: [Vec<RunMeta>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for perm in &mut runs {
            let n = get_varint(body, &mut pos)? as usize;
            for _ in 0..n {
                let name = get_str(body, &mut pos)?;
                let keys = get_varint(body, &mut pos)?;
                perm.push(RunMeta { name, keys });
            }
        }
        if pos != body.len() {
            return Err(format!("manifest has {} trailing bytes", body.len() - pos));
        }
        Ok(Manifest {
            version,
            epoch,
            triples,
            dict_segments,
            runs,
        })
    }

    /// Loads and verifies the manifest of a persisted graph directory.
    /// A missing manifest is an [`RdfError::Io`] with
    /// [`std::io::ErrorKind::NotFound`]; anything unverifiable is
    /// [`RdfError::Corrupt`].
    pub fn load(dir: &Path) -> Result<Manifest, RdfError> {
        let path = dir.join(MANIFEST_NAME);
        let mut buf = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| RdfError::io(format!("open manifest {}", path.display()), &e))?;
        Manifest::decode(&buf)
            .map_err(|detail| RdfError::corrupt(path.display().to_string(), detail))
    }

    /// Commits this manifest atomically: writes `MANIFEST.tmp`, fsyncs
    /// it, renames it over [`MANIFEST_NAME`] and fsyncs the directory.
    pub(crate) fn commit(&self, dir: &Path) -> Result<(), RdfError> {
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let dst = dir.join(MANIFEST_NAME);
        let ctx = || format!("commit manifest in {}", dir.display());
        let mut file = File::create(&tmp).map_err(|e| RdfError::io(ctx(), &e))?;
        file.write_all(&self.encode())
            .and_then(|()| file.sync_all())
            .map_err(|e| RdfError::io(ctx(), &e))?;
        drop(file);
        fs::rename(&tmp, &dst).map_err(|e| RdfError::io(ctx(), &e))?;
        // Make the rename itself durable (best-effort on platforms where
        // directories cannot be fsynced).
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Serialises a dictionary segment (`first_id` onwards, in id order) and
/// returns the file's trailing CRC for the manifest entry.
///
/// Layout: magic `RDS1`, `first_id` u32 LE, term count u32 LE, the
/// tagged term records, and a trailing CRC-32 over everything before it.
pub(crate) fn write_dict_segment(
    path: &Path,
    first_id: u32,
    terms: &[Term],
) -> Result<u32, RdfError> {
    let ctx = || format!("write dictionary segment {}", path.display());
    let mut out = Vec::new();
    out.extend_from_slice(&SEG_MAGIC);
    out.extend_from_slice(&first_id.to_le_bytes());
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for t in terms {
        put_term(&mut out, t);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    let mut file = File::create(path).map_err(|e| RdfError::io(ctx(), &e))?;
    file.write_all(&out)
        .and_then(|()| file.sync_all())
        .map_err(|e| RdfError::io(ctx(), &e))?;
    Ok(crc)
}

/// Reads and verifies a dictionary segment against its manifest entry,
/// returning its terms in id order.
pub(crate) fn read_dict_segment(
    path: &Path,
    meta: &DictSegmentMeta,
) -> Result<Vec<Term>, RdfError> {
    let name = path.display().to_string();
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                RdfError::corrupt(&name, "dictionary segment named by the manifest is missing")
            } else {
                RdfError::io(format!("read dictionary segment {name}"), &e)
            }
        })?;
    if buf.len() < 16 {
        return Err(RdfError::corrupt(&name, "segment too short"));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if stored != crc32(body) || stored != meta.crc {
        return Err(RdfError::corrupt(&name, "segment checksum mismatch"));
    }
    if body[..4] != SEG_MAGIC {
        return Err(RdfError::corrupt(&name, "bad segment magic"));
    }
    let first_id = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let count = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    if first_id != meta.first_id || count != meta.terms {
        return Err(RdfError::corrupt(
            &name,
            format!(
                "segment header ({first_id}, {count} terms) disagrees with manifest \
                 ({}, {} terms)",
                meta.first_id, meta.terms
            ),
        ));
    }
    let mut pos = 12;
    let mut terms = Vec::with_capacity(count as usize);
    for _ in 0..count {
        terms.push(get_term(body, &mut pos).map_err(|d| RdfError::corrupt(&name, d))?);
    }
    if pos != body.len() {
        return Err(RdfError::corrupt(&name, "segment has trailing bytes"));
    }
    Ok(terms)
}

/// Computes the CRC a segment file would have — used when validating
/// reusable segments during persist.
pub(crate) fn _segment_crc_of(parts: &[&[u8]]) -> u32 {
    crc32_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rps-disk-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_file_roundtrip_multiple_pages() {
        let dir = tmp("run-roundtrip");
        let keys: Vec<[u32; 3]> = (0..(KEYS_PER_PAGE as u32 * 2 + 57))
            .map(|i| [i, i % 7, i % 13])
            .collect();
        let path = dir.join("run.rpg");
        let pages = write_run_file(&path, &keys).unwrap();
        assert_eq!(pages, 3);
        let mut pool = BufferPool::new(2);
        let run = PagedRun::open(&mut pool, &path, keys.len() as u64).unwrap();
        assert_eq!(run.read_all(&mut pool).unwrap(), keys);
        // Range scan picks exactly the middle slice.
        let lo = [400, 0, 0];
        let hi = [500, u32::MAX, u32::MAX];
        let mut got = Vec::new();
        run.for_each_in_range(&mut pool, lo, hi, &mut |k| got.push(k))
            .unwrap();
        let expect: Vec<[u32; 3]> = keys
            .iter()
            .copied()
            .filter(|k| *k >= lo && *k <= hi)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pool_evicts_with_clock_and_counts() {
        let dir = tmp("pool-clock");
        let keys: Vec<[u32; 3]> = (0..(KEYS_PER_PAGE as u32 * 4)).map(|i| [i, 0, 0]).collect();
        let path = dir.join("run.rpg");
        write_run_file(&path, &keys).unwrap();
        let mut pool = BufferPool::new(2);
        let file = pool.open_file(&path).unwrap();
        // Touch all four pages twice through a two-frame pool.
        for _ in 0..2 {
            for p in 0..4 {
                let f = pool.pin(file, p).unwrap();
                assert_eq!(pool.frame_keys(f), KEYS_PER_PAGE);
                pool.unpin(f);
            }
        }
        let c = pool.counters();
        assert_eq!(c.hits + c.misses, 8);
        assert!(c.misses >= 4, "cold reads at least once per page: {c:?}");
        assert_eq!(c.pages_read, c.misses);

        // Re-pinning the resident page is a hit.
        let f = pool.pin(file, 3).unwrap();
        let c2 = pool.counters();
        assert_eq!(c2.hits, c.hits + 1);
        pool.unpin(f);
    }

    #[test]
    fn pool_refuses_when_everything_is_pinned() {
        let dir = tmp("pool-pinned");
        let keys: Vec<[u32; 3]> = (0..(KEYS_PER_PAGE as u32 * 3)).map(|i| [i, 0, 0]).collect();
        let path = dir.join("run.rpg");
        write_run_file(&path, &keys).unwrap();
        let mut pool = BufferPool::new(2);
        let file = pool.open_file(&path).unwrap();
        let _a = pool.pin(file, 0).unwrap();
        let _b = pool.pin(file, 1).unwrap();
        assert!(matches!(pool.pin(file, 2), Err(RdfError::Io { .. })));
    }

    #[test]
    fn torn_run_page_is_typed_corruption() -> Result<(), RdfError> {
        let dir = tmp("torn-page");
        let keys: Vec<[u32; 3]> = (0..(KEYS_PER_PAGE as u32 + 5)).map(|i| [i, 1, 2]).collect();
        let path = dir.join("run.rpg");
        write_run_file(&path, &keys)?;
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the second page's payload (not its zero
        // padding, which the checksum deliberately excludes).
        let at = PAGE_SIZE + 20;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let mut pool = BufferPool::new(4);
        let run = PagedRun::open(&mut pool, &path, keys.len() as u64)?;
        assert!(matches!(
            run.read_all(&mut pool),
            Err(RdfError::Corrupt { .. })
        ));

        // Pages that verify but hold keys the store cannot serve are
        // corruption of the checkpoint: two SPO runs sharing a key, and
        // a POS run naming a triple SPO lacks. A well-formed set of the
        // same keys opens.
        let (a, b, c, x) = ([0, 1, 2], [0, 1, 3], [2, 1, 3], [3, 1, 2]);
        let permute: [fn([u32; 3]) -> [u32; 3]; 3] =
            [|k| k, |[s, p, o]| [p, o, s], |[s, p, o]| [o, s, p]];
        // Each permutation's runs, as the triples they hold.
        let checkpoints = [
            (
                "stored more than once",
                [
                    vec![vec![a, b], vec![b, c]],
                    vec![vec![a, b], vec![b, c]],
                    vec![vec![a, b], vec![b, c]],
                ],
            ),
            (
                "names a triple absent from SPO",
                [vec![vec![a, b]], vec![vec![a, x]], vec![vec![a, b]]],
            ),
            (
                "",
                [
                    vec![vec![a, b], vec![c]],
                    vec![vec![a, b, c]],
                    vec![vec![c], vec![a, b]],
                ],
            ),
        ];
        for (i, (refusal, perms)) in checkpoints.into_iter().enumerate() {
            let dir = tmp(&format!("hostile-keys-{i}"));
            let terms: Vec<Term> = (0..4).map(|t| Term::iri(format!("http://e/{t}"))).collect();
            let segment = "dict-e000001-0.seg";
            let crc = write_dict_segment(&dir.join(segment), 0, &terms)?;
            let triples = perms[0].iter().map(Vec::len).sum::<usize>() as u64;
            let mut metas: [Vec<RunMeta>; 3] = Default::default();
            for (p, (runs, metas)) in perms.into_iter().zip(&mut metas).enumerate() {
                for (at, run) in runs.into_iter().enumerate() {
                    let mut keys: Vec<[u32; 3]> = run.into_iter().map(permute[p]).collect();
                    keys.sort_unstable();
                    let name = format!("run-e000001-{}-{at}.rpg", ["spo", "pos", "osp"][p]);
                    write_run_file(&dir.join(&name), &keys)?;
                    metas.push(RunMeta {
                        name,
                        keys: keys.len() as u64,
                    });
                }
            }
            let manifest = Manifest {
                version: MANIFEST_VERSION,
                epoch: 1,
                triples,
                dict_segments: vec![DictSegmentMeta {
                    name: segment.into(),
                    first_id: 0,
                    terms: terms.len() as u32,
                    crc,
                }],
                runs: metas,
            };
            manifest.commit(&dir)?;
            match crate::Graph::open(&dir) {
                Err(RdfError::Corrupt { detail, .. }) if !refusal.is_empty() => {
                    assert!(detail.contains(refusal), "{refusal}: {detail}")
                }
                Ok(graph) if refusal.is_empty() => assert_eq!(graph.len(), 3),
                other => panic!("{refusal:?}: opened as {other:?}"),
            }
        }
        Ok(())
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = tmp("manifest");
        let m = Manifest {
            version: MANIFEST_VERSION,
            epoch: 7,
            triples: 12345,
            dict_segments: vec![DictSegmentMeta {
                name: "dict-e000001-0.seg".into(),
                first_id: 0,
                terms: 42,
                crc: 0xDEAD_BEEF,
            }],
            runs: [
                vec![RunMeta {
                    name: "run-e000007-spo-0.rpg".into(),
                    keys: 1000,
                }],
                vec![RunMeta {
                    name: "run-e000007-pos-0.rpg".into(),
                    keys: 1000,
                }],
                vec![RunMeta {
                    name: "run-e000007-osp-0.rpg".into(),
                    keys: 1000,
                }],
            ],
        };
        m.commit(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        assert!(!dir.join("MANIFEST.tmp").exists(), "tmp renamed away");

        // Missing manifest: NotFound I/O error (the caller decides what
        // that means); truncated manifest: typed corruption.
        let empty = tmp("manifest-missing");
        assert!(matches!(
            Manifest::load(&empty),
            Err(RdfError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            })
        ));
        let bytes = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        fs::write(dir.join(MANIFEST_NAME), &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(RdfError::Corrupt { .. })
        ));

        // A well-formed version-1 image (sealed byte, no segments, no
        // runs, a WAL name) is a format this reader refuses.
        let mut v1 = MANIFEST_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        put_varint(&mut v1, 1);
        v1.push(1);
        for n in [0, 0, 0, 0, 0] {
            put_varint(&mut v1, n);
        }
        put_str(&mut v1, "wal-e000001.log");
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());
        fs::write(dir.join(MANIFEST_NAME), &v1).unwrap();
        match Manifest::load(&dir) {
            Err(RdfError::Corrupt { detail, .. }) => {
                assert!(detail.contains("version 1"), "{detail}")
            }
            other => panic!("a version-1 manifest yielded {other:?}"),
        }
    }

    #[test]
    fn dict_segment_roundtrip_and_validation() {
        let dir = tmp("segment");
        let terms = vec![
            Term::iri("http://e/a"),
            Term::blank("b1"),
            Term::literal("lit"),
        ];
        let path = dir.join("dict-e000001-0.seg");
        let crc = write_dict_segment(&path, 0, &terms).unwrap();
        let meta = DictSegmentMeta {
            name: "dict-e000001-0.seg".into(),
            first_id: 0,
            terms: 3,
            crc,
        };
        assert_eq!(read_dict_segment(&path, &meta).unwrap(), terms);

        // A wrong manifest CRC or tampered payload is corruption.
        let wrong = DictSegmentMeta {
            crc: crc ^ 1,
            ..meta.clone()
        };
        assert!(matches!(
            read_dict_segment(&path, &wrong),
            Err(RdfError::Corrupt { .. })
        ));
        let mut bytes = fs::read(&path).unwrap();
        bytes[13] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_dict_segment(&path, &meta),
            Err(RdfError::Corrupt { .. })
        ));
    }
}
