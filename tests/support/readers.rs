//! Adversarial [`Read`] adapters for the asset loader's I/O half.
//! [`ShortReader`] delivers the stream in tiny chunks (every `read` call
//! returns at most `chunk` bytes, a legal but adversarial [`Read`]), and
//! [`FailingReader`] injects an [`std::io::Error`] after a byte budget,
//! which must surface as `AssetError::Io`, never a panic.
//!
//! Included by `tests/asset_faults.rs`.

use std::io::{self, Read};

/// A [`Read`] adapter that returns at most `chunk` bytes per call —
/// legal short reads that a correct loader must absorb.
#[derive(Debug)]
pub struct ShortReader<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> ShortReader<R> {
    /// Wraps `inner`, limiting every read to `chunk` bytes (min 1).
    pub fn new(inner: R, chunk: usize) -> Self {
        Self {
            inner,
            chunk: chunk.max(1),
        }
    }
}

impl<R: Read> Read for ShortReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.chunk.min(buf.len());
        self.inner.read(&mut buf[..n])
    }
}

/// A [`Read`] adapter that yields `budget` bytes and then fails every
/// subsequent read with an injected I/O error.
#[derive(Debug)]
pub struct FailingReader<R> {
    inner: R,
    budget: usize,
    delivered: usize,
}

impl<R: Read> FailingReader<R> {
    /// Wraps `inner`, failing after `budget` bytes have been delivered.
    pub fn new(inner: R, budget: usize) -> Self {
        Self {
            inner,
            budget,
            delivered: 0,
        }
    }
}

impl<R: Read> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.delivered >= self.budget {
            return Err(io::Error::other(format!(
                "injected I/O fault after {} bytes",
                self.delivered
            )));
        }
        let n = (self.budget - self.delivered).min(buf.len());
        let got = self.inner.read(&mut buf[..n])?;
        self.delivered += got;
        Ok(got)
    }
}
