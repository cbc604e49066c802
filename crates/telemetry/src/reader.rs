//! Strict little-endian byte reader shared by the binary dump parsers
//! (`FLT1` flight dumps, `TSL2` timelines). Every read is bounds-checked
//! and returns `Err` on truncation; nothing here panics or allocates on
//! the strength of an untrusted length.

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) off: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, off: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated dump at offset {}", self.off))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A u32 item count. Every item of both formats encodes to at least
    /// one byte, so a count above the bytes left is corrupt — rejecting
    /// it here is what makes `Vec::with_capacity(count)` safe.
    pub(crate) fn count(&mut self) -> Result<usize, String> {
        let at = self.off;
        let n = self.u32()? as usize;
        let left = self.bytes.len() - self.off;
        if n > left {
            return Err(format!(
                "count {n} at offset {at} exceeds the {left} bytes left"
            ));
        }
        Ok(n)
    }

    /// LEB128 unsigned varint (the `TSL2` value encoding).
    pub(crate) fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(format!("varint overflow at offset {}", self.off));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_is_capped_by_the_bytes_left() {
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Reader::new(&bytes).count(), Ok(3));
        bytes.pop();
        assert!(Reader::new(&bytes).count().is_err());
        assert!(Reader::new(&u32::MAX.to_le_bytes()).count().is_err());
        assert!(Reader::new(&[0, 0]).count().is_err(), "truncated count");
    }
}
