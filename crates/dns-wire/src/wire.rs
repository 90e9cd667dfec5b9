//! Low-level big-endian cursor types used by the parser and builder.
//!
//! `Reader` is a bounds-checked view over an immutable byte slice; `Writer`
//! appends to a growable buffer. Neither panics on out-of-range access:
//! every read returns a [`ParseError`] on failure.

use crate::error::ParseError;
use core::fmt;

/// Bounds-checked big-endian reader over a byte slice.
///
/// The reader keeps the *whole* message visible (needed to chase name
/// compression pointers, which are absolute offsets) alongside a cursor.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current cursor position (absolute byte offset into the message).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute offset. Offsets past the end are
    /// rejected so later reads fail with a precise error.
    pub fn seek(&mut self, pos: usize) -> Result<(), ParseError> {
        if pos > self.buf.len() {
            return Err(ParseError::UnexpectedEnd { offset: pos });
        }
        self.pos = pos;
        Ok(())
    }

    /// Number of bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whole underlying message, independent of cursor position.
    pub fn message(&self) -> &'a [u8] {
        self.buf
    }

    /// Reads one octet.
    pub fn read_u8(&mut self) -> Result<u8, ParseError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(ParseError::UnexpectedEnd { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian u16.
    pub fn read_u16(&mut self) -> Result<u16, ParseError> {
        let bytes = self.read_bytes(2)?;
        Ok(u16::from_be_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a big-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, ParseError> {
        let bytes = self.read_bytes(4)?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads exactly `n` bytes, advancing the cursor.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(ParseError::UnexpectedEnd { offset: self.pos })?;
        if end > self.buf.len() {
            return Err(ParseError::UnexpectedEnd { offset: self.pos });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
}

/// Append-only big-endian writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(512) }
    }

    /// Creates a writer that reuses `buf`'s allocation, clearing its
    /// contents first. Pairing this with [`Writer::into_bytes`] lets a hot
    /// encode loop recycle one buffer instead of allocating per message.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one octet.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrites a previously written big-endian u16 at `offset`.
    ///
    /// Used to back-patch RDLENGTH and section counts. The caller guarantees
    /// `offset + 2 <= len()`; violating that is a programming error in this
    /// crate, so it is checked with a debug assertion rather than a result.
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        debug_assert!(offset + 2 <= self.buf.len());
        if offset + 2 <= self.buf.len() {
            self.buf[offset..offset + 2].copy_from_slice(&v.to_be_bytes());
        }
    }

    /// Overwrites a previously written octet at `offset` (same contract as
    /// [`Writer::patch_u16`]).
    pub fn patch_u8(&mut self, offset: usize, v: u8) {
        debug_assert!(offset < self.buf.len());
        if let Some(b) = self.buf.get_mut(offset) {
            *b = v;
        }
    }

    /// Drops everything written after the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Formatted text is appended as raw bytes, so a TXT string can be
/// written straight into a message without an intermediate `String`.
impl fmt::Write for Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_scalars_in_order() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_u8().unwrap(), 0x01);
        assert_eq!(r.read_u16().unwrap(), 0x0203);
        assert_eq!(r.read_u32().unwrap(), 0x0405_0607);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_overrun() {
        let data = [0x01];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.read_u8(), Err(ParseError::UnexpectedEnd { offset: 1 }));
        assert_eq!(r.read_u16(), Err(ParseError::UnexpectedEnd { offset: 1 }));
    }

    #[test]
    fn reader_seek_and_message_access() {
        let data = [9, 8, 7, 6];
        let mut r = Reader::new(&data);
        r.seek(2).unwrap();
        assert_eq!(r.read_u8().unwrap(), 7);
        assert!(r.seek(5).is_err());
        assert_eq!(r.message(), &data);
    }

    #[test]
    fn writer_roundtrips_with_reader() {
        let mut w = Writer::new();
        w.write_u8(0xAB);
        w.write_u16(0xCDEF);
        w.write_u32(0x1234_5678);
        w.write_bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0xCDEF);
        assert_eq!(r.read_u32().unwrap(), 0x1234_5678);
        assert_eq!(r.read_bytes(3).unwrap(), b"xyz");
    }

    #[test]
    fn writer_patches_u16() {
        let mut w = Writer::new();
        w.write_u16(0);
        w.write_u8(0xFF);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.as_slice(), &[0xBE, 0xEF, 0xFF]);
    }
}
