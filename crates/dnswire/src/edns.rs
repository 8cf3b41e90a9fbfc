//! EDNS(0) (RFC 6891) and the padding option (RFC 7830).
//!
//! The OPT pseudo-record overloads the class field with the advertised UDP
//! payload size and the TTL field with extended RCODE/version/flags. DoT and
//! DoH clients attach a padding option so that encrypted query sizes leak
//! less information (§2.2 of the paper).

use crate::error::WireError;
use crate::name::Name;
use crate::rr::{RData, RecordClass, RecordType, ResourceRecord};

/// EDNS option code for padding (RFC 7830).
pub const OPTION_PADDING: u16 = 12;

/// A single EDNS option TLV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdnsOption {
    /// Option code.
    pub code: u16,
    /// Option payload.
    pub data: Vec<u8>,
}

impl EdnsOption {
    /// A padding option of `len` zero bytes.
    pub fn padding(len: usize) -> Self {
        EdnsOption {
            code: OPTION_PADDING,
            data: vec![0u8; len],
        }
    }
}

/// A decoded OPT pseudo-record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptRecord {
    /// Requestor's maximum UDP payload size.
    pub udp_payload: u16,
    /// Extended RCODE high bits (we keep them raw).
    pub ext_rcode: u8,
    /// EDNS version, 0 in practice.
    pub version: u8,
    /// The `DO` bit (DNSSEC OK).
    pub dnssec_ok: bool,
    /// Options carried in RDATA.
    pub options: Vec<EdnsOption>,
}

impl Default for OptRecord {
    fn default() -> Self {
        OptRecord {
            udp_payload: crate::DEFAULT_EDNS_PAYLOAD,
            ext_rcode: 0,
            version: 0,
            dnssec_ok: false,
            options: Vec::new(),
        }
    }
}

impl OptRecord {
    /// Total padding bytes carried, if a padding option is present.
    pub fn padding_len(&self) -> Option<usize> {
        self.options
            .iter()
            .find(|o| o.code == OPTION_PADDING)
            .map(|o| o.data.len())
    }

    /// Render as a [`ResourceRecord`] ready for the additional section.
    pub fn to_record(&self) -> ResourceRecord {
        let mut rdata = Vec::new();
        for opt in &self.options {
            rdata.extend_from_slice(&opt.code.to_be_bytes());
            rdata.extend_from_slice(&(opt.data.len() as u16).to_be_bytes());
            rdata.extend_from_slice(&opt.data);
        }
        let mut ttl = 0u32;
        ttl |= (self.ext_rcode as u32) << 24;
        ttl |= (self.version as u32) << 16;
        if self.dnssec_ok {
            ttl |= 0x8000;
        }
        ResourceRecord {
            name: Name::root(),
            rtype: RecordType::Opt,
            class: RecordClass::Other(self.udp_payload),
            ttl,
            rdata: RData::Opaque(rdata),
        }
    }

    /// Parse from a [`ResourceRecord`] previously identified as OPT.
    pub fn from_record(rr: &ResourceRecord) -> Result<Self, WireError> {
        let udp_payload = rr.class.to_u16();
        let ext_rcode = (rr.ttl >> 24) as u8;
        let version = ((rr.ttl >> 16) & 0xff) as u8;
        let dnssec_ok = rr.ttl & 0x8000 != 0;
        let bytes = match &rr.rdata {
            RData::Opaque(b) => b.as_slice(),
            _ => &[],
        };
        let mut options = Vec::new();
        let mut i = 0usize;
        while i < bytes.len() {
            let header = bytes.get(i..i + 4).ok_or(WireError::Truncated {
                expecting: "edns option header",
            })?;
            let code = u16::from_be_bytes([header[0], header[1]]);
            let len = u16::from_be_bytes([header[2], header[3]]) as usize;
            let data = bytes.get(i + 4..i + 4 + len).ok_or(WireError::Truncated {
                expecting: "edns option data",
            })?;
            options.push(EdnsOption {
                code,
                data: data.to_vec(),
            });
            i += 4 + len;
        }
        Ok(OptRecord {
            udp_payload,
            ext_rcode,
            version,
            dnssec_ok,
            options,
        })
    }

    /// Compute the RFC 8467-recommended padding to round a query up to a
    /// multiple of `block` bytes, given the unpadded message length.
    ///
    /// Returns `Some(n)` where `n` is the number of padding *data* bytes
    /// such that `unpadded + 4 + n` is the next multiple of `block` (the 4
    /// covers the option TLV header), or `None` when the message is already
    /// an exact block multiple and adding even an empty padding option would
    /// overshoot by a whole block.
    pub fn padding_for(unpadded_len: usize, block: usize) -> Option<usize> {
        let target = pad_to_block(unpadded_len, block);
        if target == unpadded_len {
            None
        } else {
            Some(target - unpadded_len - 4)
        }
    }
}

/// The padded on-wire length of a `len`-byte DNS message under RFC 8467
/// `block`-octet padding: `len` itself when it already sits on a block
/// boundary (a padding option would overshoot by a full block), otherwise
/// the smallest multiple of `block` with room for the message plus the
/// 4-byte option TLV header.
///
/// This is the one shared size rule: [`OptRecord::padding_for`],
/// [`Message::pad_to_block`](crate::Message::pad_to_block) and the DoT/DoH
/// session layers all derive from it.
pub fn pad_to_block(len: usize, block: usize) -> usize {
    assert!(block > 0, "padding block must be positive");
    if len.is_multiple_of(block) {
        return len;
    }
    (len + 4).div_ceil(block) * block
}

/// SplitMix64: the deterministic keyed draw behind
/// [`PaddingPolicy::RandomBlock`]. Pure function of the key — no ambient
/// entropy, so padded sizes replay identically for any shard layout.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// How an encrypted-DNS endpoint sizes (and, for the shaping variants,
/// times) its messages on the wire — the countermeasure axis of the
/// `padding-leakage` experiment.
///
/// The first three variants are per-message padding rules applied inside
/// the session layers; the shaping variants additionally drive a
/// `netsim::sched` event machine (`doe-privacy`) that inserts dummy
/// messages and rate clocks, while each *real* message is still padded to
/// the cell size here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaddingPolicy {
    /// No padding option at all — the unprotected baseline.
    None,
    /// RFC 8467 recommended block padding: queries to `query_block`
    /// (128 octets), responses to `response_block` (468 octets).
    Block {
        /// Query-side block size.
        query_block: usize,
        /// Response-side block size.
        response_block: usize,
    },
    /// Block padding with a deterministic keyed draw of 0..=`max_extra`
    /// additional whole blocks per message — random padding as studied
    /// (and broken) by the FOCI '20 sequence classifier.
    RandomBlock {
        /// Query-side base block size.
        query_block: usize,
        /// Response-side base block size.
        response_block: usize,
        /// Upper bound on extra whole blocks added per message.
        max_extra: u8,
    },
    /// Constant-rate shaping: fixed `cell`-sized messages on a fixed
    /// `interval_us` clock in both directions, dummies filling idle ticks.
    ConstantRate {
        /// Microseconds between cells.
        interval_us: u32,
        /// On-wire cell size; real messages are padded to multiples of it.
        cell: usize,
    },
    /// Adaptive padding (WTF-PAD style): real messages pass at their
    /// original times; dummy cells fill suspicious inter-message gaps.
    AdaptivePadding {
        /// Dummy-insertion gap scale in microseconds.
        burst_gap_us: u32,
        /// On-wire size of real (padded) and dummy messages.
        cell: usize,
    },
}

impl PaddingPolicy {
    /// The RFC 8467 recommendation: 128-octet query blocks, 468-octet
    /// response blocks.
    pub fn rfc8467() -> Self {
        PaddingPolicy::Block {
            query_block: 128,
            response_block: 468,
        }
    }

    /// Stable label for reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            PaddingPolicy::None => "none",
            PaddingPolicy::Block { .. } => "block",
            PaddingPolicy::RandomBlock { .. } => "random-block",
            PaddingPolicy::ConstantRate { .. } => "constant-rate",
            PaddingPolicy::AdaptivePadding { .. } => "adaptive-padding",
        }
    }

    /// The block a *query* should be padded to under this policy, or
    /// `None` for no padding option. `key` feeds the deterministic
    /// random-block draw (callers pass the message id / flow nonce).
    pub fn query_block(&self, key: u64) -> Option<usize> {
        match *self {
            PaddingPolicy::None => None,
            PaddingPolicy::Block { query_block, .. } => Some(query_block),
            PaddingPolicy::RandomBlock {
                query_block,
                max_extra,
                ..
            } => Some(query_block * (1 + (splitmix64(key) % (u64::from(max_extra) + 1)) as usize)),
            PaddingPolicy::ConstantRate { cell, .. } => Some(cell),
            PaddingPolicy::AdaptivePadding { cell, .. } => Some(cell),
        }
    }

    /// The block a *response* should be padded to under this policy, or
    /// `None` for no padding option. Same keyed-draw contract as
    /// [`Self::query_block`].
    pub fn response_block(&self, key: u64) -> Option<usize> {
        match *self {
            PaddingPolicy::None => None,
            PaddingPolicy::Block { response_block, .. } => Some(response_block),
            PaddingPolicy::RandomBlock {
                response_block,
                max_extra,
                ..
            } => Some(
                response_block
                    * (1 + (splitmix64(key ^ 0x5265_7370) % (u64::from(max_extra) + 1)) as usize),
            ),
            PaddingPolicy::ConstantRate { cell, .. } => Some(cell),
            PaddingPolicy::AdaptivePadding { cell, .. } => Some(cell),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_record_round_trip() {
        let opt = OptRecord {
            udp_payload: 4096,
            ext_rcode: 0,
            version: 0,
            dnssec_ok: true,
            options: vec![
                EdnsOption::padding(31),
                EdnsOption {
                    code: 10,
                    data: vec![9; 8],
                },
            ],
        };
        let rr = opt.to_record();
        let back = OptRecord::from_record(&rr).unwrap();
        assert_eq!(back, opt);
        assert_eq!(back.padding_len(), Some(31));
    }

    #[test]
    fn default_opt_has_no_padding() {
        assert_eq!(OptRecord::default().padding_len(), None);
    }

    #[test]
    fn padding_rounds_to_block() {
        // 60-byte query, block 128: 60+4+pad ≡ 0 (mod 128) → pad = 64.
        assert_eq!(OptRecord::padding_for(60, 128), Some(64));
        // Exactly at boundary needs an empty padding option (0 data bytes).
        assert_eq!(OptRecord::padding_for(124, 128), Some(0));
        assert_eq!((124 + 4) % 128, 0);
        // Already a block multiple: no option at all, not a whole extra
        // block (the bug this helper fixed).
        assert_eq!(OptRecord::padding_for(128, 128), None);
        assert_eq!(OptRecord::padding_for(256, 128), None);
        // No room for the 4-byte TLV header in the current block: spill
        // into the next one.
        assert_eq!(OptRecord::padding_for(126, 128), Some(126));
    }

    #[test]
    fn pad_to_block_sizes() {
        assert_eq!(pad_to_block(60, 128), 128);
        assert_eq!(pad_to_block(124, 128), 128);
        assert_eq!(pad_to_block(128, 128), 128, "exact multiple stays put");
        assert_eq!(pad_to_block(129, 128), 256);
        assert_eq!(pad_to_block(126, 128), 256, "no room for TLV header");
        assert_eq!(pad_to_block(0, 128), 0);
    }

    #[test]
    fn policy_blocks() {
        let p = PaddingPolicy::rfc8467();
        assert_eq!(p.query_block(7), Some(128));
        assert_eq!(p.response_block(7), Some(468));
        assert_eq!(PaddingPolicy::None.query_block(7), None);
        assert_eq!(PaddingPolicy::None.response_block(7), None);
        let cr = PaddingPolicy::ConstantRate {
            interval_us: 5_000,
            cell: 468,
        };
        assert_eq!(cr.query_block(7), Some(468));

        // Random-block draws are keyed, bounded and deterministic.
        let r = PaddingPolicy::RandomBlock {
            query_block: 128,
            response_block: 468,
            max_extra: 3,
        };
        let mut seen = std::collections::BTreeSet::new();
        for key in 0..64u64 {
            let b = r.query_block(key).unwrap();
            assert_eq!(b % 128, 0);
            assert!((128..=4 * 128).contains(&b));
            assert_eq!(r.query_block(key).unwrap(), b, "keyed draw replays");
            seen.insert(b);
        }
        assert!(seen.len() > 1, "draw actually varies across keys");
    }

    #[test]
    fn truncated_option_rejected() {
        let rr = ResourceRecord {
            name: Name::root(),
            rtype: RecordType::Opt,
            class: RecordClass::Other(512),
            ttl: 0,
            rdata: RData::Opaque(vec![0, 12, 0, 10, 1]), // promises 10 bytes, has 1
        };
        assert!(OptRecord::from_record(&rr).is_err());
    }
}
