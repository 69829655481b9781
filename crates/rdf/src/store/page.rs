//! Fixed-size checksummed pages and the low-level byte codecs of the
//! durable storage tier.
//!
//! Every immutable sorted run is serialised as a sequence of
//! [`PAGE_SIZE`]-byte pages. A page is self-verifying:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "RPG1" (little-endian u32 0x3147_5052)
//! 4       4     page number within the file (u32 LE)
//! 8       4     number of keys in the payload (u32 LE, ≤ KEYS_PER_PAGE)
//! 12      4     CRC-32 (IEEE) over header bytes 0..12 and the payload
//! 16      12·n  payload: n keys, each three u32 LE words
//! ```
//!
//! Including the page number in the checksummed header catches
//! misdirected reads and page swaps, not just bit rot. The CRC is the
//! ubiquitous IEEE-802.3 polynomial, table-driven and hand-rolled (no
//! external crates are available offline).
//!
//! The module also hosts the crate-internal varint and term codecs
//! shared by the dictionary segments and the manifest
//! ([`crate::store::disk`]), so every durable byte format draws from
//! one set of primitives.

use crate::term::{Iri, Literal, LiteralAnnotation, Term};

/// Size of one durable page, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of header before a page's key payload.
pub const PAGE_HEADER: usize = 16;

/// Bytes per serialised key (three `u32` words).
pub(crate) const KEY_BYTES: usize = 12;

/// Keys stored per page (340 with the default page size).
pub const KEYS_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER) / KEY_BYTES;

/// Magic word of a run page ("RPG1" as a little-endian u32).
pub(crate) const PAGE_MAGIC: u32 = 0x3147_5052;

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE 802.3) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32 state update, for checksums over disjoint parts.
pub(crate) fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 over a sequence of slices, as if they were concatenated.
pub(crate) fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for p in parts {
        c = crc32_update(c, p);
    }
    c ^ 0xFFFF_FFFF
}

/// Serialises up to [`KEYS_PER_PAGE`] keys into one page buffer.
///
/// # Panics
/// Panics if `keys` exceeds the page capacity (callers chunk first).
pub fn encode_page(page_no: u32, keys: &[[u32; 3]]) -> Vec<u8> {
    assert!(keys.len() <= KEYS_PER_PAGE, "page overflow");
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&page_no.to_le_bytes());
    buf[8..12].copy_from_slice(&(keys.len() as u32).to_le_bytes());
    let mut at = PAGE_HEADER;
    for k in keys {
        for w in k {
            buf[at..at + 4].copy_from_slice(&w.to_le_bytes());
            at += 4;
        }
    }
    let crc = crc32_parts(&[&buf[0..12], &buf[PAGE_HEADER..at]]);
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Validates a page read back from disk against `expected_page_no`,
/// returning the number of keys it holds. The error string names what
/// failed to verify; callers wrap it into
/// [`RdfError::Corrupt`](crate::error::RdfError::Corrupt) together with
/// the file's path.
pub fn verify_page(expected_page_no: u32, buf: &[u8]) -> Result<usize, String> {
    if buf.len() != PAGE_SIZE {
        return Err(format!("short page: {} bytes", buf.len()));
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != PAGE_MAGIC {
        return Err(format!("bad page magic {:#010x}", word(0)));
    }
    if word(4) != expected_page_no {
        return Err(format!(
            "page number mismatch: header says {}, expected {expected_page_no}",
            word(4)
        ));
    }
    let n = word(8) as usize;
    if n > KEYS_PER_PAGE {
        return Err(format!("key count {n} exceeds page capacity"));
    }
    let stored = word(12);
    let computed = crc32_parts(&[&buf[0..12], &buf[PAGE_HEADER..PAGE_HEADER + n * KEY_BYTES]]);
    if stored != computed {
        return Err(format!(
            "checksum mismatch on page {expected_page_no}: stored {stored:#010x}, computed {computed:#010x}"
        ));
    }
    Ok(n)
}

/// The `i`-th key of a verified page buffer.
pub fn page_key(buf: &[u8], i: usize) -> [u32; 3] {
    let at = PAGE_HEADER + i * KEY_BYTES;
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    [word(at), word(at + 4), word(at + 8)]
}

// ---------------------------------------------------------------------
// Varint and term codecs (shared by the dictionary segment and manifest
// formats).
// ---------------------------------------------------------------------

/// Appends an LEB128-encoded unsigned integer.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128-encoded unsigned integer at `*pos`, advancing it.
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let &byte = buf.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint overflow".into());
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string at `*pos`, advancing it.
pub(crate) fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, String> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or("string length overflow")?;
    let bytes = buf.get(*pos..end).ok_or("truncated string")?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".into())
}

const TERM_IRI: u8 = 0;
const TERM_BLANK: u8 = 1;
const TERM_LIT_PLAIN: u8 = 2;
const TERM_LIT_LANG: u8 = 3;
const TERM_LIT_TYPED: u8 = 4;

/// Appends a tagged term record.
pub(crate) fn put_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(TERM_IRI);
            put_str(out, iri.as_str());
        }
        Term::Blank(b) => {
            out.push(TERM_BLANK);
            put_str(out, b.label());
        }
        Term::Literal(l) => match l.annotation() {
            LiteralAnnotation::Plain => {
                out.push(TERM_LIT_PLAIN);
                put_str(out, l.lexical());
            }
            LiteralAnnotation::Lang(tag) => {
                out.push(TERM_LIT_LANG);
                put_str(out, l.lexical());
                put_str(out, tag);
            }
            LiteralAnnotation::Typed(dt) => {
                out.push(TERM_LIT_TYPED);
                put_str(out, l.lexical());
                put_str(out, dt.as_str());
            }
        },
    }
}

/// Reads a tagged term record at `*pos`, advancing it.
pub(crate) fn get_term(buf: &[u8], pos: &mut usize) -> Result<Term, String> {
    let &tag = buf.get(*pos).ok_or("truncated term tag")?;
    *pos += 1;
    match tag {
        TERM_IRI => Ok(Term::iri(get_str(buf, pos)?)),
        TERM_BLANK => Ok(Term::blank(get_str(buf, pos)?)),
        TERM_LIT_PLAIN => Ok(Term::Literal(Literal::plain(get_str(buf, pos)?))),
        TERM_LIT_LANG => {
            let lex = get_str(buf, pos)?;
            let lang = get_str(buf, pos)?;
            Ok(Term::Literal(Literal::lang(lex, lang)))
        }
        TERM_LIT_TYPED => {
            let lex = get_str(buf, pos)?;
            let dt = get_str(buf, pos)?;
            Ok(Term::Literal(Literal::typed(lex, Iri::new(dt))))
        }
        other => Err(format!("unknown term tag {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32_parts(&[b"1234", b"56789"]),
            crc32(b"123456789"),
            "incremental equals one-shot"
        );
    }

    #[test]
    fn page_roundtrip_full_and_partial() {
        for n in [0usize, 1, 7, KEYS_PER_PAGE] {
            let keys: Vec<[u32; 3]> = (0..n as u32).map(|i| [i, i * 2, u32::MAX - i]).collect();
            let buf = encode_page(3, &keys);
            assert_eq!(buf.len(), PAGE_SIZE);
            assert_eq!(verify_page(3, &buf).unwrap(), n);
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(page_key(&buf, i), *k);
            }
        }
    }

    #[test]
    fn page_verification_catches_damage() {
        let keys: Vec<[u32; 3]> = (0..10).map(|i| [i, i, i]).collect();
        let good = encode_page(0, &keys);

        let mut flipped = good.clone();
        flipped[PAGE_HEADER + 5] ^= 0x40;
        assert!(verify_page(0, &flipped).unwrap_err().contains("checksum"));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(verify_page(0, &bad_magic).unwrap_err().contains("magic"));

        // A page read at the wrong offset fails on the page number.
        assert!(verify_page(1, &good).unwrap_err().contains("mismatch"));
        // Short reads fail outright.
        assert!(verify_page(0, &good[..100]).unwrap_err().contains("short"));
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        assert!(get_varint(&buf, &mut pos).is_err(), "exhausted");
    }

    #[test]
    fn term_codec_roundtrip() {
        let terms = [
            Term::iri("http://example.org/a"),
            Term::blank("chase42"),
            Term::literal("plain"),
            Term::Literal(Literal::lang("film", "en")),
            Term::Literal(Literal::typed(
                "39",
                Iri::new("http://www.w3.org/2001/XMLSchema#int"),
            )),
        ];
        let mut buf = Vec::new();
        for t in &terms {
            put_term(&mut buf, t);
        }
        let mut pos = 0;
        for t in &terms {
            assert_eq!(&get_term(&buf, &mut pos).unwrap(), t);
        }
        assert_eq!(pos, buf.len());
    }
}
