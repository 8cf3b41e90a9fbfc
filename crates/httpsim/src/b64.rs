//! base64url without padding (RFC 4648 §5), as required by RFC 8484 for
//! the `dns` query parameter of DoH GET requests.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encode bytes as unpadded base64url.
pub fn base64url_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            out.push(ALPHABET[(triple >> 6) as usize & 0x3f] as char);
        }
        if chunk.len() > 2 {
            out.push(ALPHABET[triple as usize & 0x3f] as char);
        }
    }
    out
}

fn decode_char(c: u8) -> Option<u32> {
    match c {
        b'A'..=b'Z' => Some((c - b'A') as u32),
        b'a'..=b'z' => Some((c - b'a' + 26) as u32),
        b'0'..=b'9' => Some((c - b'0' + 52) as u32),
        b'-' => Some(62),
        b'_' => Some(63),
        _ => None,
    }
}

/// Decode unpadded base64url; `None` on any invalid character or length,
/// or when the last character sets bits no output byte uses. So the
/// decoding is canonical: `base64url_decode(s) == Some(b)` implies
/// `base64url_encode(&b) == s`.
pub fn base64url_decode(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    if bytes.len() % 4 == 1 {
        return None; // impossible length
    }
    let mut out = Vec::with_capacity(bytes.len() * 3 / 4);
    for chunk in bytes.chunks(4) {
        let mut acc: u32 = 0;
        for (i, &c) in chunk.iter().enumerate() {
            acc |= decode_char(c)? << (18 - 6 * i);
        }
        // A chunk of n characters carries n - 1 bytes in the top
        // 8(n - 1) of its 24 bits; the bits below them must be zero.
        if acc & (0xff_ffff >> (8 * (chunk.len() - 1))) != 0 {
            return None;
        }
        out.push((acc >> 16) as u8);
        if chunk.len() > 2 {
            out.push((acc >> 8) as u8);
        }
        if chunk.len() > 3 {
            out.push(acc as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 4648 test vectors, translated to the url-safe alphabet.
        assert_eq!(base64url_encode(b""), "");
        assert_eq!(base64url_encode(b"f"), "Zg");
        assert_eq!(base64url_encode(b"fo"), "Zm8");
        assert_eq!(base64url_encode(b"foo"), "Zm9v");
        assert_eq!(base64url_encode(b"foob"), "Zm9vYg");
        assert_eq!(base64url_encode(b"fooba"), "Zm9vYmE");
        assert_eq!(base64url_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn url_safe_alphabet_used() {
        // 0xfb 0xff encodes to characters that would be +/ in plain base64.
        let enc = base64url_encode(&[0xfb, 0xff, 0xbf]);
        assert!(enc.contains('-') || enc.contains('_'));
        assert!(!enc.contains('+') && !enc.contains('/'));
        assert_eq!(base64url_decode(&enc).unwrap(), vec![0xfb, 0xff, 0xbf]);
    }

    #[test]
    fn round_trip_all_lengths() {
        let data: Vec<u8> = (0u8..=255).collect();
        for len in 0..data.len() {
            let enc = base64url_encode(&data[..len]);
            assert!(!enc.contains('='), "no padding allowed");
            assert_eq!(base64url_decode(&enc).unwrap(), &data[..len], "len {len}");
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(base64url_decode("Zg=").is_none(), "padding rejected");
        assert!(base64url_decode("a").is_none(), "length 1 mod 4");
        assert!(base64url_decode("ab c").is_none(), "space rejected");
        assert!(base64url_decode("ab+c").is_none(), "plus rejected");
    }

    #[test]
    fn unused_bits_must_be_zero() {
        assert_eq!(base64url_decode("Zg"), Some(b"f".to_vec()));
        assert_eq!(base64url_decode("Zh"), None, "4 unused bits set");
        assert_eq!(base64url_decode("Zm8"), Some(b"fo".to_vec()));
        assert_eq!(base64url_decode("Zm9"), None, "2 unused bits set");
        assert_eq!(
            base64url_decode("Zm9vZ_"),
            None,
            "last chunk of a longer input"
        );
        assert_eq!(
            base64url_decode("Zm9v"),
            Some(b"foo".to_vec()),
            "no unused bits"
        );
    }
}
