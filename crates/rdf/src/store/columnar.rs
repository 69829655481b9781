//! Delta-varint columnar encoding of sealed sorted runs.
//!
//! A sealed run is a strictly-sorted `Vec<[u32; 3]>`. Sorted triple keys
//! are extremely compressible: consecutive keys usually share their
//! first (and often second) component, and the remaining deltas are
//! small. [`ColumnarRun`] stores a run as one contiguous byte stream of
//! per-key codes plus a **sync table** — every [`SYNC_INTERVAL`] keys,
//! the absolute key and the byte offset of the following codes — so a
//! range scan *seeks* (binary search over the sync table) and then
//! *sequentially decodes* at most one block to reach its lower bound.
//!
//! Per key, relative to its predecessor `(pa, pb, pc)`:
//!
//! * `Δa = a - pa` as a varint; if `Δa ≠ 0` the lower columns reset and
//!   `b`, `c` follow absolutely;
//! * else `Δb = b - pb` as a varint; if `Δb ≠ 0`, `c` follows
//!   absolutely;
//! * else `Δc = c - pc` (strictly positive — runs are strictly sorted).
//!
//! The common "same subject, same predicate, next object" key costs one
//! or two bytes instead of twelve. The sync table costs 16 bytes per
//! [`SYNC_INTERVAL`] keys (0.25 bytes/key at 64).
//!
//! Whether a run is stored compressed is decided at seal time by
//! [`SealConfig`](crate::store::SealConfig); scans are
//! representation-agnostic — a [`ColCursor`] is just one more merge
//! source, yielding exactly the keys a plain slice would.

use super::gallop_point;

/// Keys per sync block. A seek decodes at most `SYNC_INTERVAL - 1` keys
/// past the block start; the table overhead is `16 / SYNC_INTERVAL`
/// bytes per key.
pub(crate) const SYNC_INTERVAL: usize = 64;

/// A sorted key run in delta-varint columnar form. Immutable once
/// encoded; shared by `Arc` exactly like plain runs.
#[derive(Clone, Debug)]
pub(crate) struct ColumnarRun {
    /// Concatenated per-key codes (nothing for sync keys — those live
    /// absolutely in `syncs`).
    data: Vec<u8>,
    /// `(byte offset of the block's codes, absolute key)` for key index
    /// `block * SYNC_INTERVAL`.
    syncs: Vec<(u32, [u32; 3])>,
    /// Number of keys.
    len: usize,
}

fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let byte = data[*pos];
        *pos += 1;
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// [`read_varint`] unrolled over a 4-byte window — the sequential-scan
/// hot path ([`ColScan`] block fills). One bounds check covers the
/// whole window; codes within 4 bytes (every delta under 2^28) decode
/// without the shift loop. Falls back to the loop near the end of the
/// stream and for 5-byte codes.
#[inline]
fn read_varint_fast(data: &[u8], pos: &mut usize) -> u32 {
    if let Some(w) = data.get(*pos..*pos + 4) {
        let b0 = w[0] as u32;
        if b0 & 0x80 == 0 {
            *pos += 1;
            return b0;
        }
        let b1 = w[1] as u32;
        if b1 & 0x80 == 0 {
            *pos += 2;
            return (b0 & 0x7f) | (b1 << 7);
        }
        let b2 = w[2] as u32;
        if b2 & 0x80 == 0 {
            *pos += 3;
            return (b0 & 0x7f) | ((b1 & 0x7f) << 7) | (b2 << 14);
        }
        let b3 = w[3] as u32;
        if b3 & 0x80 == 0 {
            *pos += 4;
            return (b0 & 0x7f) | ((b1 & 0x7f) << 7) | ((b2 & 0x7f) << 14) | (b3 << 21);
        }
    }
    read_varint(data, pos)
}

impl ColumnarRun {
    /// Encodes a strictly-sorted key run. Panics (debug) on unsorted
    /// input — sealing only ever hands it sorted, deduplicated keys.
    pub(crate) fn encode(keys: &[[u32; 3]]) -> ColumnarRun {
        let mut data = Vec::with_capacity(keys.len() * 3);
        let mut syncs = Vec::with_capacity(keys.len().div_ceil(SYNC_INTERVAL));
        let mut prev = [0u32; 3];
        for (i, &key) in keys.iter().enumerate() {
            debug_assert!(
                i == 0 || prev < key,
                "columnar input must be strictly sorted"
            );
            if i % SYNC_INTERVAL == 0 {
                syncs.push((data.len() as u32, key));
            } else {
                let da = key[0] - prev[0];
                push_varint(&mut data, da);
                if da != 0 {
                    push_varint(&mut data, key[1]);
                    push_varint(&mut data, key[2]);
                } else {
                    let db = key[1] - prev[1];
                    push_varint(&mut data, db);
                    if db != 0 {
                        push_varint(&mut data, key[2]);
                    } else {
                        push_varint(&mut data, key[2] - prev[2]);
                    }
                }
            }
            prev = key;
        }
        data.shrink_to_fit();
        ColumnarRun {
            data,
            syncs,
            len: keys.len(),
        }
    }

    /// Number of keys in the run.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The smallest key (runs are never empty when compressed).
    pub(crate) fn min_key(&self) -> [u32; 3] {
        self.syncs[0].1
    }

    /// The largest key: decode the final sync block's tail.
    pub(crate) fn max_key(&self) -> [u32; 3] {
        let block = (self.len - 1) / SYNC_INTERVAL;
        let (offset, mut key) = self.syncs[block];
        let mut pos = offset as usize;
        for _ in block * SYNC_INTERVAL + 1..self.len {
            key = decode_after(&self.data, &mut pos, key);
        }
        key
    }

    /// Resident bytes of the encoded form (codes + sync table).
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.data.len() + self.syncs.len() * std::mem::size_of::<(u32, [u32; 3])>()
    }

    /// Bytes the same keys occupy as a plain `[u32; 3]` run.
    pub(crate) fn raw_bytes(&self) -> usize {
        self.len * 12
    }

    /// Decodes the whole run back to a plain key vector (snapshotting,
    /// compaction folds).
    pub(crate) fn decode_all(&self) -> Vec<[u32; 3]> {
        let mut out = Vec::with_capacity(self.len);
        let mut cursor = self.cursor_from(0);
        while let Some(key) = cursor.peek() {
            out.push(key);
            cursor.advance_in(self);
        }
        out
    }

    /// A cursor positioned at the first key `>= lo`. Production scans
    /// go through the block-buffered [`ColScan`]; this simple cursor
    /// seek remains as the test oracle for the sync-table logic.
    #[cfg(test)]
    pub(crate) fn seek(&self, lo: [u32; 3]) -> ColCursor {
        // First block whose sync key is >= lo; the answer is in that
        // block or the one before it.
        let block = self.syncs.partition_point(|&(_, k)| k < lo);
        let mut cursor = self.cursor_from(block.saturating_sub(1));
        while let Some(key) = cursor.peek() {
            if key >= lo {
                break;
            }
            cursor.advance_in(self);
        }
        cursor
    }

    fn cursor_from(&self, block: usize) -> ColCursor {
        if block >= self.syncs.len() {
            return ColCursor {
                idx: self.len,
                pos: self.data.len(),
                cur: None,
            };
        }
        let (offset, key) = self.syncs[block];
        ColCursor {
            idx: block * SYNC_INTERVAL,
            pos: offset as usize,
            cur: Some(key),
        }
    }
}

/// Decodes the code at `pos` against the previous key.
fn decode_after(data: &[u8], pos: &mut usize, prev: [u32; 3]) -> [u32; 3] {
    let da = read_varint(data, pos);
    if da != 0 {
        let b = read_varint(data, pos);
        let c = read_varint(data, pos);
        [prev[0] + da, b, c]
    } else {
        let db = read_varint(data, pos);
        if db != 0 {
            let c = read_varint(data, pos);
            [prev[0], prev[1] + db, c]
        } else {
            [prev[0], prev[1], prev[2] + read_varint(data, pos)]
        }
    }
}

/// A decode position inside a [`ColumnarRun`]: the current key plus the
/// byte offset of the next code. Borrows nothing — the scan layer pairs
/// it with its run (see `ScanSource` in the store), keeping the merge
/// sources `Copy`-cheap.
#[derive(Clone, Debug)]
pub(crate) struct ColCursor {
    /// Key index of `cur`.
    idx: usize,
    /// Byte offset of the *next* key's code.
    pos: usize,
    /// The decoded current key; `None` when exhausted.
    cur: Option<[u32; 3]>,
}

impl ColCursor {
    /// The current key, if any.
    pub(crate) fn peek(&self) -> Option<[u32; 3]> {
        self.cur
    }

    /// Steps to the next key. `run_data` must be the owning run's code
    /// stream (`ColumnarRun::data` — passed by the scan layer).
    pub(crate) fn advance_in(&mut self, run: &ColumnarRun) {
        self.advance(&run.data);
        if self.idx.is_multiple_of(SYNC_INTERVAL) && self.idx < run.len {
            // Entering a new block: resynchronise from the table (the
            // sync key is stored absolutely, not in the stream).
            let block = self.idx / SYNC_INTERVAL;
            let (offset, key) = run.syncs[block];
            self.pos = offset as usize;
            self.cur = Some(key);
        }
    }

    fn advance(&mut self, data: &[u8]) {
        let Some(prev) = self.cur else {
            return;
        };
        self.idx += 1;
        if self.idx.is_multiple_of(SYNC_INTERVAL) || self.pos >= data.len() {
            // Block boundary (resynchronised by `advance_in`) or end of
            // stream; either way there is no code to decode here.
            self.cur = None;
            return;
        }
        self.cur = Some(decode_after(data, &mut self.pos, prev));
    }
}

/// A bounded scan over a [`ColumnarRun`], the shape the store's merge
/// layer holds (the run is borrowed from the store; the `Arc` stays in
/// the index). Decodes one whole sync block at a time into an inline
/// buffer, so the per-key merge path pays an array read instead of a
/// varint decode with block-boundary branches.
#[derive(Clone, Debug)]
pub(crate) struct ColScan<'g> {
    run: &'g ColumnarRun,
    /// The scan's (inclusive) upper bound; block fills truncate against
    /// it, so the per-key peek needs no bound comparison.
    hi: [u32; 3],
    /// The next sync block to decode into `buf`.
    next_block: usize,
    /// Decoded keys of the current block, truncated to `<= hi`.
    buf: [[u32; 3]; SYNC_INTERVAL],
    buf_len: usize,
    buf_pos: usize,
}

impl<'g> ColScan<'g> {
    /// A scan over `run ∩ [lo, hi]`; `None` if the intersection is
    /// empty.
    pub(crate) fn over(run: &'g ColumnarRun, lo: [u32; 3], hi: [u32; 3]) -> Option<ColScan<'g>> {
        if run.len() == 0 || run.min_key() > hi || run.max_key() < lo {
            return None;
        }
        // First block whose sync key is >= lo; the first key >= lo is
        // in that block or the one before it.
        let block = run
            .syncs
            .partition_point(|&(_, k)| k < lo)
            .saturating_sub(1);
        let mut scan = ColScan {
            run,
            hi,
            next_block: block,
            buf: [[0; 3]; SYNC_INTERVAL],
            buf_len: 0,
            buf_pos: 0,
        };
        scan.fill_next_block();
        loop {
            while scan.buf_pos < scan.buf_len && scan.buf[scan.buf_pos] < lo {
                scan.buf_pos += 1;
            }
            if scan.buf_pos < scan.buf_len {
                break;
            }
            if scan.next_block >= run.syncs.len() {
                return None;
            }
            scan.fill_next_block();
        }
        Some(scan)
    }

    /// The current key, if any. The bound is enforced at block-fill
    /// time (the buffer is truncated to `<= self.hi`); the parameter is
    /// the merge layer's uniform calling shape and must equal the `hi`
    /// the scan was built with.
    #[inline]
    pub(crate) fn peek_bounded(&self, hi: [u32; 3]) -> Option<[u32; 3]> {
        debug_assert_eq!(hi, self.hi);
        (self.buf_pos < self.buf_len).then(|| self.buf[self.buf_pos])
    }

    /// Steps past the current key, refilling the buffer from the next
    /// sync block when the current one is drained.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.buf_pos += 1;
        if self.buf_pos >= self.buf_len {
            self.fill_next_block();
        }
    }

    /// Moves the scan forward to its first key `>= lo`; a `lo` at or
    /// below the current key leaves it where it is. Within the decoded
    /// block it steps; past it, it gallops over the sync table and
    /// decodes only the block that holds the answer.
    pub(crate) fn seek(&mut self, lo: [u32; 3]) {
        let buffered = &self.buf[self.buf_pos..self.buf_len];
        if buffered.last().is_some_and(|last| *last >= lo) {
            self.buf_pos += buffered.partition_point(|k| *k < lo);
            return;
        }
        // The last block from `next_block` on whose sync key is ≤ lo
        // holds the answer, or ends just before the block that does.
        let later = self.run.syncs.get(self.next_block..).unwrap_or_default();
        self.next_block += gallop_point(later, |&(_, k)| k <= lo).saturating_sub(1);
        self.fill_next_block();
        self.buf_pos = self.buf[..self.buf_len].partition_point(|k| *k < lo);
        if self.buf_pos == self.buf_len {
            self.fill_next_block();
        }
    }

    /// Decodes sync block `next_block` into `buf` in one tight pass
    /// (the sync key is absolute; the rest chain off it). Leaves an
    /// empty buffer when the run is exhausted.
    fn fill_next_block(&mut self) {
        self.buf_pos = 0;
        if self.next_block >= self.run.syncs.len() {
            self.buf_len = 0;
            return;
        }
        let (offset, first) = self.run.syncs[self.next_block];
        let count = (self.run.len - self.next_block * SYNC_INTERVAL).min(SYNC_INTERVAL);
        let data = &self.run.data;
        let mut pos = offset as usize;
        let mut key = first;
        self.buf[0] = key;
        for slot in &mut self.buf[1..count] {
            // Inlined `decode_after` on the unrolled varint reader.
            let da = read_varint_fast(data, &mut pos);
            key = if da != 0 {
                let b = read_varint_fast(data, &mut pos);
                let c = read_varint_fast(data, &mut pos);
                [key[0] + da, b, c]
            } else {
                let db = read_varint_fast(data, &mut pos);
                if db != 0 {
                    let c = read_varint_fast(data, &mut pos);
                    [key[0], key[1] + db, c]
                } else {
                    [key[0], key[1], key[2] + read_varint_fast(data, &mut pos)]
                }
            };
            *slot = key;
        }
        // Truncate against the scan bound once per block; keys are
        // globally sorted, so the first block that overruns `hi` is
        // also the last block the scan will ever need.
        if key > self.hi {
            self.buf_len = self.buf[..count].partition_point(|k| *k <= self.hi);
            self.next_block = self.run.syncs.len();
        } else {
            self.buf_len = count;
            self.next_block += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<[u32; 3]> {
        // Clustered like a real SPO run: few subjects, few predicates,
        // dense objects, plus some far jumps.
        let mut out: Vec<[u32; 3]> = (0..n)
            .map(|i| [i / 50, (i / 10) % 5, i * 7 % 1000])
            .chain((0..n / 10).map(|i| [1_000_000 + i * 1_001, i % 3, i]))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn round_trip_is_exact() {
        for n in [0usize, 1, 2, 63, 64, 65, 200, 1000] {
            let ks = keys(n as u32);
            let run = ColumnarRun::encode(&ks);
            assert_eq!(run.len(), ks.len());
            assert_eq!(run.decode_all(), ks, "n={n}");
            if !ks.is_empty() {
                assert_eq!(run.min_key(), ks[0]);
                assert_eq!(run.max_key(), *ks.last().unwrap());
            }
        }
    }

    #[test]
    fn seek_lands_on_first_key_at_or_after_lo() {
        let ks = keys(700);
        let run = ColumnarRun::encode(&ks);
        for probe in 0..ks.len() {
            let lo = ks[probe];
            assert_eq!(run.seek(lo).peek(), Some(lo));
            // A key just below also seeks to it (no exact-match bias).
            if lo[2] > 0 {
                let lo_minus = [lo[0], lo[1], lo[2] - 1];
                if probe == 0 || ks[probe - 1] < lo_minus {
                    assert_eq!(run.seek(lo_minus).peek(), Some(lo), "probe {probe}");
                }
            }
        }
        // Beyond the maximum: exhausted cursor.
        assert_eq!(run.seek([u32::MAX; 3]).peek(), None);
    }

    #[test]
    fn bounded_scans_match_plain_slices() {
        let ks = keys(500);
        let arc = ColumnarRun::encode(&ks);
        for (lo, hi) in [
            ([0u32; 3], [u32::MAX; 3]),
            (ks[3], ks[ks.len() - 4]),
            (ks[100], ks[100]), // single-key range
            ([2, 0, 0], [2, u32::MAX, u32::MAX]),
            ([9_999_999, 0, 0], [u32::MAX; 3]), // empty
        ] {
            let expected: Vec<[u32; 3]> = ks
                .iter()
                .copied()
                .filter(|k| *k >= lo && *k <= hi)
                .collect();
            let mut got = Vec::new();
            if let Some(mut scan) = ColScan::over(&arc, lo, hi) {
                while let Some(k) = scan.peek_bounded(hi) {
                    got.push(k);
                    scan.advance();
                }
            }
            assert_eq!(got, expected, "range {lo:?}..={hi:?}");
        }
    }

    /// A scan moved forward by `seek` over ascending probes — keys of
    /// the run, keys between them, repeats, a jump past several blocks
    /// and past the end — lands where a search of the plain keys does.
    #[test]
    fn forward_seeks_match_plain_slices() {
        let ks = keys(900);
        let run = ColumnarRun::encode(&ks);
        let mut probes: Vec<[u32; 3]> = ks.iter().step_by(7).copied().collect();
        probes.extend(ks.iter().step_by(11).map(|k| [k[0], k[1], k[2] + 1]));
        probes.extend([ks[0], ks[500], [2_000_000, 0, 0], [u32::MAX; 3]]);
        probes.sort_unstable();
        for stride in [1, 3, 40] {
            let Some(mut scan) = ColScan::over(&run, [0; 3], [u32::MAX; 3]) else {
                panic!("a scan over every key of a non-empty run");
            };
            for &lo in probes.iter().step_by(stride) {
                scan.seek(lo);
                let want = ks.get(ks.partition_point(|k| *k < lo)).copied();
                assert_eq!(
                    scan.peek_bounded([u32::MAX; 3]),
                    want,
                    "stride {stride}, {lo:?}"
                );
            }
        }
    }

    #[test]
    fn clustered_keys_compress_well() {
        let ks = keys(5000);
        let run = ColumnarRun::encode(&ks);
        let ratio = run.encoded_bytes() as f64 / run.raw_bytes() as f64;
        assert!(
            ratio <= 0.7,
            "expected ≤0.7× resident bytes, got {ratio:.2} \
             ({} encoded / {} raw)",
            run.encoded_bytes(),
            run.raw_bytes()
        );
    }
}
