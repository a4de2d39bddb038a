//! Durable checkpoint wire format: a zero-dependency, versioned,
//! length-prefixed, CRC32-checksummed binary container plus the
//! little-endian primitive encoder/decoder the snapshot types use.
//!
//! The container layout (all integers little-endian) is:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "SOCSIMCK"
//!      8     4  format version (u32)
//!     12     8  payload length in bytes (u64)
//!     20     4  CRC32 (IEEE) of the payload
//!     24     N  payload
//! ```
//!
//! [`seal`] builds a container; [`open`] verifies magic, version, length
//! and checksum before handing the payload back — a truncated file fails
//! the length check, a bit flip anywhere in the payload fails the CRC, a
//! bit flip in the header fails magic/version/length. Every check is a
//! typed [`WireError`], never a panic, so a resuming run can skip corrupt
//! checkpoints and fall back to an older one.

use std::fmt;

/// The 8-byte magic prefix of every checkpoint container.
pub const MAGIC: [u8; 8] = *b"SOCSIMCK";

/// Size of the container header ([`MAGIC`] + version + length + CRC).
pub const HEADER_LEN: usize = 24;

/// A malformed or corrupt wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    /// Build an error with a human-readable cause.
    pub fn new(msg: impl Into<String>) -> WireError {
        WireError(msg.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    // Tableless bit-at-a-time implementation: checkpoint payloads are
    // megabytes at most and written once per cadence, so simplicity and
    // zero static storage beat a lookup table here.
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Wrap `payload` in a checksummed container of format `version`.
pub fn seal(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verify a container and return its payload slice.
///
/// # Errors
///
/// [`WireError`] when the container is shorter than its header, carries
/// the wrong magic or version, its payload is truncated (or trailed by
/// junk), or the CRC32 does not match.
pub fn open(data: &[u8], expect_version: u32) -> Result<&[u8], WireError> {
    if data.len() < HEADER_LEN {
        return Err(WireError::new(format!(
            "container truncated: {} bytes, header needs {HEADER_LEN}",
            data.len()
        )));
    }
    if data[..8] != MAGIC {
        return Err(WireError::new("bad magic: not a checkpoint container"));
    }
    let version = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
    if version != expect_version {
        return Err(WireError::new(format!(
            "format version {version}, expected {expect_version}"
        )));
    }
    let len = u64::from_le_bytes([
        data[12], data[13], data[14], data[15], data[16], data[17], data[18], data[19],
    ]) as usize;
    let crc = u32::from_le_bytes([data[20], data[21], data[22], data[23]]);
    let payload = &data[HEADER_LEN..];
    if payload.len() != len {
        return Err(WireError::new(format!(
            "payload truncated: {} bytes on disk, header claims {len}",
            payload.len()
        )));
    }
    let actual = crc32(payload);
    if actual != crc {
        return Err(WireError::new(format!(
            "checksum mismatch: computed {actual:#010x}, header claims {crc:#010x}"
        )));
    }
    Ok(payload)
}

/// Little-endian primitive encoder. Append-only; the matching [`Dec`]
/// reads fields back in the same order.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append an `f64` by bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed `&str` (UTF-8 bytes).
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &w in v {
            self.u64(w);
        }
    }

    /// Append a length-prefixed `usize` slice (as `u64`s).
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &w in v {
            self.usize(w);
        }
    }

    /// Append a length-prefixed boolean slice.
    pub fn bools(&mut self, v: &[bool]) {
        self.usize(v.len());
        for &b in v {
            self.bool(b);
        }
    }
}

/// Little-endian primitive decoder over a byte slice; every read is
/// bounds-checked and returns a typed [`WireError`] on underrun.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed (a successful full parse).
    pub fn finished(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "underrun: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// Read a `usize` (bounded by the remaining buffer to keep corrupt
    /// length prefixes from causing huge allocations).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::new(format!("length {v} exceeds usize")))
    }

    /// Read a length prefix that counts items of at least `item_bytes`
    /// bytes each, rejecting prefixes larger than the remaining buffer.
    fn len_prefix(&mut self, item_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n.saturating_mul(item_bytes.max(1)) > self.remaining() {
            return Err(WireError::new(format!(
                "length prefix {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a boolean (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::new(format!("bad boolean byte {v:#04x}"))),
        }
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len_prefix(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("invalid UTF-8 string"))
    }

    /// Read a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// Read a length-prefixed boolean vector.
    pub fn bools(&mut self) -> Result<Vec<bool>, WireError> {
        let n = self.len_prefix(1)?;
        (0..n).map(|_| self.bool()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(0xAB);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.bool(true);
        e.f64(core::f64::consts::PI);
        e.bytes(b"hello");
        e.str("wörld");
        e.u64s(&[1, 2, 3]);
        e.usizes(&[7, 8]);
        e.bools(&[true, false, true]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert!(d.bool().unwrap());
        assert_eq!(d.f64().unwrap(), core::f64::consts::PI);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.str().unwrap(), "wörld");
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.usizes().unwrap(), vec![7, 8]);
        assert_eq!(d.bools().unwrap(), vec![true, false, true]);
        assert!(d.finished());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn container_round_trips() {
        let payload = b"checkpoint payload".to_vec();
        let sealed = seal(3, &payload);
        assert_eq!(open(&sealed, 3).unwrap(), &payload[..]);
    }

    #[test]
    fn container_rejects_corruption() {
        let sealed = seal(1, b"some payload bytes");
        // Truncation (both header-level and payload-level).
        assert!(open(&sealed[..10], 1).is_err());
        assert!(open(&sealed[..sealed.len() - 1], 1).is_err());
        // A bit flip in the payload fails the CRC.
        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let err = open(&flipped, 1).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Wrong magic and wrong version are distinct failures.
        let mut bad_magic = sealed.clone();
        bad_magic[0] ^= 0xFF;
        assert!(open(&bad_magic, 1)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        assert!(open(&sealed, 2)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn decoder_rejects_oversized_length_prefixes() {
        let mut e = Enc::new();
        e.usize(usize::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.u64s().is_err(), "huge length prefix must not allocate");
    }
}
