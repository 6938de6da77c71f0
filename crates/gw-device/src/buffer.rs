//! Device-memory buffers.
//!
//! A [`DeviceBuffer`] stands in for a `cl_mem` object. On a unified-memory
//! device the buffer *is* host memory and Glasswing disables the Stage and
//! Retrieve pipeline stages; on a discrete device the engine must copy
//! explicitly, and those copies are what the pipeline overlaps with kernel
//! execution and disk I/O.

/// A block of device-resident memory.
///
/// The bytes always live in host RAM (kernels execute on host threads), but
/// the buffer is accounted against the owning device's modeled capacity and
/// participates in modeled PCIe transfer timing.
#[derive(Debug, Default)]
pub struct DeviceBuffer {
    data: Vec<u8>,
    /// Logical length of valid data (≤ capacity).
    len: usize,
}

impl DeviceBuffer {
    /// Create a buffer with `capacity` bytes of device memory.
    pub fn with_capacity(capacity: usize) -> Self {
        DeviceBuffer {
            data: vec![0u8; capacity],
            len: 0,
        }
    }

    /// Total allocated capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Length of valid data currently in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no valid data.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark `len` bytes as valid (e.g. after a kernel filled the buffer).
    ///
    /// # Panics
    /// Panics if `len > capacity`.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= self.data.len(), "set_len beyond capacity");
        self.len = len;
    }

    /// The valid prefix of the buffer.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data[..self.len]
    }

    /// Reset the valid length to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Copy `src` into the buffer and set the valid length.
    ///
    /// # Panics
    /// Panics if `src.len() > capacity`.
    pub fn fill_from(&mut self, src: &[u8]) {
        assert!(src.len() <= self.data.len(), "fill_from beyond capacity");
        self.data[..src.len()].copy_from_slice(src);
        self.len = src.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_read_back() {
        let mut b = DeviceBuffer::with_capacity(8);
        assert!(b.is_empty());
        b.fill_from(&[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.bytes(), &[1, 2, 3]);
        assert_eq!(b.capacity(), 8);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "fill_from beyond capacity")]
    fn overfill_panics() {
        let mut b = DeviceBuffer::with_capacity(2);
        b.fill_from(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "set_len beyond capacity")]
    fn set_len_beyond_capacity_panics() {
        let mut b = DeviceBuffer::with_capacity(2);
        b.set_len(3);
    }
}
