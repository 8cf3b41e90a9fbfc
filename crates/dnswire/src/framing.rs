//! Two-byte length framing for DNS over stream transports
//! (RFC 1035 §4.2.2), used by Do53/TCP and DoT.
//!
//! [`FrameDecoder`] is an incremental decoder in the style of a tokio codec:
//! feed arbitrary byte chunks, pull out complete messages. The simulated TCP
//! streams deliver data in whatever chunks the transport produced, so the
//! decoder must handle split length prefixes and coalesced messages.

use crate::error::WireError;

/// Prefix `msg` with its big-endian 16-bit length.
pub fn frame_message(msg: &[u8]) -> Result<Vec<u8>, WireError> {
    if msg.len() > u16::MAX as usize {
        return Err(WireError::MessageTooLong(msg.len()));
    }
    let mut out = Vec::with_capacity(2 + msg.len());
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
    Ok(out)
}

/// One-shot read of a single framed message from the front of `buf`.
///
/// Returns the message bytes and the total bytes consumed, or `None` if the
/// buffer does not yet hold a complete frame.
pub fn read_framed(buf: &[u8]) -> Option<(&[u8], usize)> {
    if buf.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    let end = 2 + len;
    if buf.len() < end {
        return None;
    }
    Some((&buf[2..end], end))
}

/// Incremental decoder for a stream of framed DNS messages.
#[derive(Debug, Default, Clone)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pop the next complete message, if the buffer holds one.
    ///
    /// When the buffer holds exactly that one frame, the common case of a
    /// request/response stream, the buffer itself is handed over with
    /// its length prefix stripped: nothing is copied, and the decoder
    /// keeps no capacity between messages.
    pub fn next_message(&mut self) -> Option<Vec<u8>> {
        let (msg, consumed) = read_framed(&self.buf)?;
        if consumed == self.buf.len() {
            self.buf.drain(..2);
            return Some(std::mem::take(&mut self.buf));
        }
        let msg = msg.to_vec();
        self.buf.drain(..consumed);
        Some(msg)
    }

    /// Drain every complete message currently buffered.
    pub fn drain_messages(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(m) = self.next_message() {
            out.push(m);
        }
        out
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn pending_len(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_read_round_trip() {
        let framed = frame_message(b"hello").unwrap();
        assert_eq!(framed[..2], [0, 5]);
        let (msg, used) = read_framed(&framed).unwrap();
        assert_eq!(msg, b"hello");
        assert_eq!(used, 7);
    }

    #[test]
    fn empty_message_frames() {
        let framed = frame_message(b"").unwrap();
        let (msg, used) = read_framed(&framed).unwrap();
        assert!(msg.is_empty());
        assert_eq!(used, 2);
    }

    #[test]
    fn oversize_message_rejected() {
        let big = vec![0u8; 70_000];
        assert!(matches!(
            frame_message(&big),
            Err(WireError::MessageTooLong(70_000))
        ));
    }

    #[test]
    fn incremental_decode_across_chunk_boundaries() {
        let framed = frame_message(b"split me please").unwrap();
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time; only the final byte completes the frame.
        for (i, b) in framed.iter().enumerate() {
            dec.push(&[*b]);
            let got = dec.next_message();
            if i + 1 < framed.len() {
                assert!(got.is_none(), "complete at byte {i}?");
            } else {
                assert_eq!(got.unwrap(), b"split me please");
            }
        }
        assert_eq!(dec.pending_len(), 0);
    }

    #[test]
    fn coalesced_messages_split_apart() {
        let mut stream = frame_message(b"first").unwrap();
        stream.extend(frame_message(b"second").unwrap());
        stream.extend(frame_message(b"third").unwrap());
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let msgs = dec.drain_messages();
        assert_eq!(
            msgs,
            vec![b"first".to_vec(), b"second".to_vec(), b"third".to_vec()]
        );
    }

    #[test]
    fn partial_length_prefix_waits() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0]);
        assert!(dec.next_message().is_none());
        dec.push(&[3, b'a', b'b']);
        assert!(dec.next_message().is_none());
        dec.push(b"c");
        assert_eq!(dec.next_message().unwrap(), b"abc");
    }
}
