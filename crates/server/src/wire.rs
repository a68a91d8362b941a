//! Parameter encoding shared by every service.
//!
//! A deliberately tiny, schema-free codec: big-endian integers,
//! length-prefixed byte strings, and 16-byte capabilities. Malformed
//! input decodes to `None` — servers answer
//! [`Status::BadRequest`](crate::proto::Status::BadRequest) rather than
//! panicking on attacker-supplied bytes.

use amoeba_cap::Capability;
use amoeba_net::BufPool;
use bytes::{Bytes, BytesMut};
use std::borrow::BorrowMut;

/// Builds a parameter blob — in a buffer of its own, or
/// ([`Writer::over`]) straight into a frame under construction.
///
/// A writer that owns its buffer draws it from the calling thread's
/// buffer cache, and the dispatch layers release finished blobs back
/// into it once they have been copied into a frame, so a steady-state
/// caller or handler builds its blobs without touching the allocator.
///
/// # Example
/// ```
/// use amoeba_server::wire::{Reader, Writer};
/// let blob = Writer::new().u32(7).str("name").finish();
/// let mut r = Reader::new(&blob);
/// assert_eq!(r.u32(), Some(7));
/// assert_eq!(r.str().as_deref(), Some("name"));
/// assert!(r.is_empty());
/// ```
#[derive(Debug)]
pub struct Writer<B = BytesMut> {
    buf: B,
}

/// A [`Writer`] appending to a borrowed frame buffer: what the in-place
/// call paths hand their `params` closure.
pub type FrameWriter<'a> = Writer<&'a mut BytesMut>;

impl Default for Writer {
    fn default() -> Writer {
        Writer::new()
    }
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::with_capacity(0)
    }

    /// An empty writer with room for a blob of `len` bytes — for
    /// payload-sized blobs, so the buffer is picked to fit instead of
    /// grown.
    pub fn with_capacity(len: usize) -> Writer {
        Writer {
            buf: BufPool::take_local(len),
        }
    }

    /// Finishes and returns the blob.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

impl<'a> FrameWriter<'a> {
    /// A writer that appends to `buf`, after whatever it holds already.
    pub fn over(buf: &'a mut BytesMut) -> FrameWriter<'a> {
        Writer { buf }
    }
}

impl<B: BorrowMut<BytesMut>> Writer<B> {
    /// Appends bytes as they are (no length prefix).
    pub fn raw(mut self, data: &[u8]) -> Self {
        self.buf.borrow_mut().extend_from_slice(data);
        self
    }

    /// Appends a `u32`.
    pub fn u32(self, v: u32) -> Self {
        self.raw(&v.to_be_bytes())
    }

    /// Appends a `u64`.
    pub fn u64(self, v: u64) -> Self {
        self.raw(&v.to_be_bytes())
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(self, data: &[u8]) -> Self {
        self.u32(data.len() as u32).raw(data)
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// Appends a 16-byte capability.
    pub fn cap(self, cap: &Capability) -> Self {
        self.raw(&cap.encode())
    }
}

/// Reads a parameter blob written by [`Writer`].
///
/// Every accessor returns `None` on truncated or malformed input.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data }
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.data.split_first_chunk::<4>()?;
        self.data = rest;
        Some(u32::from_be_bytes(*head))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.data.split_first_chunk::<8>()?;
        self.data = rest;
        Some(u64::from_be_bytes(*head))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        if self.data.len() < len {
            return None;
        }
        let (head, rest) = self.data.split_at(len);
        self.data = rest;
        Some(head)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string as a borrow of the input —
    /// the server hot paths (lookup, resolve) validate and compare
    /// names without copying them to the heap; callers that must keep
    /// the name (enter, rename) own it explicitly at the insert site.
    pub fn str_ref(&mut self) -> Option<&'a str> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).ok()
    }

    /// Reads a 16-byte capability.
    pub fn cap(&mut self) -> Option<Capability> {
        let (head, rest) = self.data.split_first_chunk::<16>()?;
        self.data = rest;
        Capability::decode(head)
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The unread remainder.
    pub fn remainder(&self) -> &'a [u8] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::{ObjectNum, Rights};
    use amoeba_net::Port;

    fn cap() -> Capability {
        Capability::new(
            Port::new(77).unwrap(),
            ObjectNum::new(3).unwrap(),
            Rights::ALL,
            0xBEEF,
        )
    }

    #[test]
    fn full_roundtrip() {
        let blob = Writer::new()
            .u32(1)
            .u64(2)
            .bytes(b"abc")
            .str("défg")
            .cap(&cap())
            .finish();
        let mut r = Reader::new(&blob);
        assert_eq!(r.u32(), Some(1));
        assert_eq!(r.u64(), Some(2));
        assert_eq!(r.bytes(), Some(&b"abc"[..]));
        assert_eq!(r.str().as_deref(), Some("défg"));
        assert_eq!(r.cap(), Some(cap()));
        assert!(r.is_empty());
    }

    #[test]
    fn a_writer_over_a_frame_appends_the_same_bytes() {
        let blob = Writer::new().u32(1).bytes(b"abc").cap(&cap()).finish();
        let mut frame = BytesMut::new();
        frame.extend_from_slice(b"hdr");
        Writer::over(&mut frame).u32(1).bytes(b"abc").cap(&cap());
        assert_eq!(&frame[..3], b"hdr");
        assert_eq!(&frame[3..], &blob[..]);
    }

    #[test]
    fn truncated_input_returns_none() {
        let blob = Writer::new().u64(7).finish();
        let mut r = Reader::new(&blob[..5]);
        assert_eq!(r.u64(), None);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let blob = Writer::new().u32(u32::MAX).finish(); // length prefix, no body
        let mut r = Reader::new(&blob);
        assert_eq!(r.bytes(), None);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let blob = Writer::new().bytes(&[0xFF, 0xFE]).finish();
        let mut r = Reader::new(&blob);
        assert_eq!(r.str(), None);
    }

    #[test]
    fn empty_bytes_ok() {
        let blob = Writer::new().bytes(b"").finish();
        let mut r = Reader::new(&blob);
        assert_eq!(r.bytes(), Some(&b""[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn remainder_exposes_tail() {
        let blob = Writer::new().u32(9).finish();
        let mut r = Reader::new(&blob);
        r.u32();
        assert!(r.remainder().is_empty());
    }
}
