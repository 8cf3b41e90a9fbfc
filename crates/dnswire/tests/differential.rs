//! Differential tests against the code the flat [`Name`] replaced. A name
//! used to be a `Vec<Vec<u8>>` (one heap block per label plus one), and a
//! zone kept its records in a map keyed by `Name` that every wildcard probe
//! built a key for with `parent()` and `prepend("*")`. Verbatim copies of
//! both are kept here as references: on random presentation strings the new
//! `Name` must parse, print, measure, compare, derive and encode exactly as
//! the old one did, and on random zones `Zone::lookup` must return exactly
//! what the old algorithm returned.

use dnswire::name::CompressionTable;
use dnswire::zone::{Zone, ZoneLookup};
use dnswire::{Header, Message, Name, RData, RecordType, ResourceRecord};
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The label-vector name, verbatim apart from its serde derives.
mod reference {
    use dnswire::{WireError, MAX_LABEL_LEN, MAX_NAME_LEN};
    use std::fmt;

    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct Name {
        labels: Vec<Vec<u8>>,
    }

    impl Name {
        pub fn root() -> Self {
            Name { labels: Vec::new() }
        }

        /// What the old decoder built from a validated message's labels.
        pub fn from_wire_labels<'l>(labels: impl Iterator<Item = &'l [u8]>) -> Self {
            Name {
                labels: labels.map(<[u8]>::to_ascii_lowercase).collect(),
            }
        }

        pub fn parse(s: &str) -> Result<Self, WireError> {
            let trimmed = s.strip_suffix('.').unwrap_or(s);
            if trimmed.is_empty() {
                return Ok(Name::root());
            }
            let mut labels = Vec::new();
            let mut total = 1usize; // terminating root byte
            for raw in trimmed.split('.') {
                if raw.is_empty() {
                    return Err(WireError::BadPresentation(s.to_string()));
                }
                let bytes = raw.as_bytes();
                if bytes.len() > MAX_LABEL_LEN {
                    return Err(WireError::LabelTooLong(bytes.len()));
                }
                if !bytes
                    .iter()
                    .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*')
                {
                    return Err(WireError::BadPresentation(s.to_string()));
                }
                total += 1 + bytes.len();
                labels.push(bytes.to_ascii_lowercase());
            }
            if total > MAX_NAME_LEN {
                return Err(WireError::NameTooLong(total));
            }
            Ok(Name { labels })
        }

        pub fn label_count(&self) -> usize {
            self.labels.len()
        }

        pub fn labels(&self) -> &[Vec<u8>] {
            &self.labels
        }

        pub fn wire_len(&self) -> usize {
            1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
        }

        pub fn is_within(&self, other: &Name) -> bool {
            if other.labels.len() > self.labels.len() {
                return false;
            }
            let skip = self.labels.len() - other.labels.len();
            self.labels[skip..] == other.labels[..]
        }

        pub fn parent(&self) -> Option<Name> {
            if self.labels.is_empty() {
                None
            } else {
                Some(Name {
                    labels: self.labels[1..].to_vec(),
                })
            }
        }

        pub fn prepend(&self, label: &str) -> Result<Name, WireError> {
            let mut labels = Vec::with_capacity(self.labels.len() + 1);
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            labels.push(label.as_bytes().to_ascii_lowercase());
            labels.extend(self.labels.iter().cloned());
            let name = Name { labels };
            if name.wire_len() > MAX_NAME_LEN {
                return Err(WireError::NameTooLong(name.wire_len()));
            }
            Ok(name)
        }

        pub fn second_level_domain(&self) -> Option<Name> {
            if self.labels.len() < 2 {
                return None;
            }
            Some(Name {
                labels: self.labels[self.labels.len() - 2..].to_vec(),
            })
        }

        pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
            for label in &self.labels {
                buf.push(label.len() as u8);
                buf.extend_from_slice(label);
            }
            buf.push(0);
        }

        pub fn encode_compressed<'a>(
            &'a self,
            buf: &mut Vec<u8>,
            table: &mut CompressionTable<'a>,
        ) {
            let mut suffix: &'a [Vec<u8>] = &self.labels;
            while let [label, rest @ ..] = suffix {
                if let Some(off) = table.offset_of(suffix) {
                    buf.push(0b1100_0000 | ((off >> 8) as u8));
                    buf.push((off & 0xff) as u8);
                    return;
                }
                let here = buf.len();
                if here <= 0x3fff {
                    table.suffixes.push((suffix, here as u16));
                }
                buf.push(label.len() as u8);
                buf.extend_from_slice(label);
                suffix = rest;
            }
            buf.push(0);
        }
    }

    #[derive(Debug, Default)]
    pub struct CompressionTable<'a> {
        suffixes: Vec<(&'a [Vec<u8>], u16)>,
    }

    impl<'a> CompressionTable<'a> {
        pub fn new() -> Self {
            Self::default()
        }

        fn offset_of(&self, suffix: &[Vec<u8>]) -> Option<u16> {
            self.suffixes
                .iter()
                .find(|(seen, _)| *seen == suffix)
                .map(|&(_, off)| off)
        }
    }

    impl fmt::Display for Name {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.labels.is_empty() {
                return write!(f, ".");
            }
            for label in &self.labels {
                for &b in label {
                    if b.is_ascii_graphic() {
                        write!(f, "{}", b as char)?;
                    } else {
                        write!(f, "\\{:03}", b)?;
                    }
                }
                write!(f, ".")?;
            }
            Ok(())
        }
    }
}

/// The old zone algorithm, verbatim, over a map keyed by [`Name`]: a
/// `HashMap` now that names have no order, which changes nothing since the
/// only walk over the keys is an `any`.
struct ReferenceZone {
    apex: Name,
    records: HashMap<Name, Vec<ResourceRecord>>,
}

impl ReferenceZone {
    fn new(apex: Name) -> Self {
        ReferenceZone {
            apex,
            records: HashMap::new(),
        }
    }

    fn add(&mut self, rr: ResourceRecord) -> bool {
        if !rr.name.is_within(&self.apex) {
            return false;
        }
        self.records.entry(rr.name.clone()).or_default().push(rr);
        true
    }

    fn name_exists(&self, name: &Name) -> bool {
        self.records.contains_key(name)
            || self
                .records
                .keys()
                .any(|owner| owner.is_within(name) && owner != name)
    }

    fn lookup(&self, qname: &Name, qtype: RecordType) -> ZoneLookup {
        if !qname.is_within(&self.apex) {
            return ZoneLookup::OutOfZone;
        }
        let mut chain: Vec<ResourceRecord> = Vec::new();
        let mut current = qname.clone();
        for _hop in 0..8 {
            if let Some(records) = self.records.get(&current) {
                let matches: Vec<_> = records
                    .iter()
                    .filter(|rr| rr.rtype == qtype)
                    .cloned()
                    .collect();
                if !matches.is_empty() {
                    chain.extend(matches);
                    return ZoneLookup::Found(chain);
                }
                if qtype != RecordType::Cname {
                    if let Some(cname) = records.iter().find(|rr| rr.rtype == RecordType::Cname) {
                        chain.push(cname.clone());
                        if let RData::Cname(target) = &cname.rdata {
                            if target.is_within(&self.apex) {
                                current = target.clone();
                                continue;
                            }
                        }
                        return ZoneLookup::Found(chain);
                    }
                }
                return ZoneLookup::NoData;
            }
            if let Some(parent) = current.parent() {
                if let Ok(wild) = parent.prepend("*") {
                    if let Some(records) = self.records.get(&wild) {
                        let synthesised: Vec<_> = records
                            .iter()
                            .filter(|rr| rr.rtype == qtype)
                            .map(|rr| {
                                let mut s = rr.clone();
                                s.name = current.clone();
                                s
                            })
                            .collect();
                        if !synthesised.is_empty() {
                            chain.extend(synthesised);
                            return ZoneLookup::Found(chain);
                        }
                        return ZoneLookup::NoData;
                    }
                }
            }
            return if self.name_exists(&current) {
                ZoneLookup::NoData
            } else {
                ZoneLookup::NxDomain
            };
        }
        ZoneLookup::Found(chain)
    }
}

/// One presentation label: shared short labels (so names share suffixes
/// and repeat), mixed case, the longest legal label and one past it, long
/// labels that put names near 255 octets, an empty label and a bad
/// character.
fn arb_label_text() -> impl Strategy<Value = String> {
    let regex = |re: &str| proptest::string::string_regex(re).expect("regex");
    prop_oneof![
        Just("com".to_string()),
        Just("Example".to_string()),
        Just("a".to_string()),
        regex("[a-zA-Z0-9_*-]{1,8}"),
        regex("[a-zA-Z0-9]{63}"),
        regex("[a-z]{50,62}"),
        regex("[a-z]{64}"),
        Just(String::new()),
        regex("[a-z]{0,3}[ !@é/][a-z]{0,3}"),
    ]
}

/// A presentation string: zero to five labels (zero gives `""` or `"."`),
/// with or without a trailing dot.
fn arb_presentation() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(arb_label_text(), 0..6),
        any::<bool>(),
    )
        .prop_map(|(labels, dot)| {
            let mut s = labels.join(".");
            if dot {
                s.push('.');
            }
            s
        })
}

/// The same name in both representations, or a difference.
fn check_same(new: &Name, old: &reference::Name) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.to_string(), old.to_string());
    prop_assert_eq!(new.label_count(), old.label_count());
    prop_assert_eq!(new.wire_len(), old.wire_len());
    let new_labels: Vec<&[u8]> = new.labels().collect();
    let old_labels: Vec<&[u8]> = old.labels().iter().map(Vec::as_slice).collect();
    prop_assert_eq!(new_labels, old_labels);
    let (mut new_wire, mut old_wire) = (Vec::new(), Vec::new());
    new.encode_uncompressed(&mut new_wire);
    old.encode_uncompressed(&mut old_wire);
    prop_assert_eq!(new_wire, old_wire);
    Ok(())
}

fn check_same_option(new: Option<Name>, old: Option<reference::Name>) -> Result<(), TestCaseError> {
    match (new, old) {
        (Some(new), Some(old)) => check_same(&new, &old),
        (None, None) => Ok(()),
        (new, old) => Err(TestCaseError(format!("{new:?} vs {old:?}"))),
    }
}

proptest! {
    #[test]
    fn name_matches_the_label_vector_reference(
        texts in proptest::collection::vec(arb_presentation(), 12..13),
        prepends in proptest::collection::vec(arb_label_text(), 4..5),
        prefix in prop_oneof![0usize..24, 0x3fe0usize..0x4000],
    ) {
        let mut names = Vec::new();
        for text in &texts {
            let (new, old) = (Name::parse(text), reference::Name::parse(text));
            match (new, old) {
                (Ok(new), Ok(old)) => {
                    check_same(&new, &old)?;
                    prop_assert_eq!(text.parse::<Name>(), Ok(new.clone()));
                    names.push((new, old));
                }
                (new, old) => prop_assert_eq!(new.err(), old.err(), "{:?}", text),
            }
        }
        // Derived names, including `prepend` past 63 and 255 octets.
        for (new, old) in &names {
            check_same_option(new.parent(), old.parent())?;
            check_same_option(new.second_level_domain(), old.second_level_domain())?;
            for label in &prepends {
                match (new.prepend(label), old.prepend(label)) {
                    (Ok(new), Ok(old)) => check_same(&new, &old)?,
                    (new, old) => prop_assert_eq!(new.err(), old.err(), "{:?}", label),
                }
            }
        }
        // Every ordered pair, and each name against its own ancestors.
        for (a_new, a_old) in &names {
            for (b_new, b_old) in &names {
                prop_assert_eq!(a_new == b_new, a_old == b_old);
                prop_assert_eq!(a_new.is_within(b_new), a_old.is_within(b_old));
            }
            let (mut new_up, mut old_up) = (a_new.parent(), a_old.parent());
            while let (Some(new), Some(old)) = (new_up, old_up) {
                prop_assert!(a_new.is_within(&new) && a_old.is_within(&old));
                prop_assert_eq!(new.is_within(a_new), old.is_within(a_old));
                (new_up, old_up) = (new.parent(), old.parent());
            }
        }
        // The whole sequence, compressed into one buffer after `prefix`
        // octets (0x3fe0 and up put suffixes around the pointer limit).
        let (mut new_buf, mut old_buf) = (vec![0u8; prefix], vec![0u8; prefix]);
        let (mut new_table, mut old_table) = (CompressionTable::new(), reference::CompressionTable::new());
        for (new, old) in &names {
            new.encode_compressed(&mut new_buf, &mut new_table);
            old.encode_compressed(&mut old_buf, &mut old_table);
        }
        prop_assert_eq!(new_buf, old_buf);
    }
}

/// Raw wire labels: short ones over an alphabet of length-octet values
/// and letters in both cases, so one name's bytes often end with another
/// name's bytes away from a label boundary, plus the longest label.
fn arb_wire_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let short = || {
        let alphabet = [0x01u8, 0x02, b'a', b'A', b'-'];
        proptest::collection::vec(0..alphabet.len(), 1..4)
            .prop_map(move |picks| picks.into_iter().map(|i| alphabet[i]).collect::<Vec<u8>>())
    };
    let label = prop_oneof![
        short(),
        short(),
        proptest::collection::vec(any::<u8>(), 63..64),
    ];
    proptest::collection::vec(label, 0..4)
}

/// A one-question query carrying `labels` as its name, as a peer sends it.
fn question_with(labels: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    Header {
        qdcount: 1,
        ..Header::new_query(1)
    }
    .encode(&mut wire);
    for label in labels {
        wire.push(label.len() as u8);
        wire.extend_from_slice(label);
    }
    wire.extend_from_slice(&[0, 0, 1, 0, 1]);
    wire
}

proptest! {
    #[test]
    fn decoded_names_match_the_label_vector_reference(
        names in proptest::collection::vec(arb_wire_labels(), 6..7),
    ) {
        let mut pairs = Vec::new();
        for labels in &names {
            let wire = question_with(labels);
            let Ok(msg) = Message::decode(&wire) else {
                // Only a name past 255 octets fails to decode.
                prop_assert!(labels.iter().map(|l| 1 + l.len()).sum::<usize>() >= 255);
                continue;
            };
            let new = msg.questions[0].qname.clone();
            let old = reference::Name::from_wire_labels(labels.iter().map(Vec::as_slice));
            check_same(&new, &old)?;
            pairs.push((new, old));
        }
        for (a_new, a_old) in &pairs {
            check_same_option(a_new.parent(), a_old.parent())?;
            check_same_option(a_new.second_level_domain(), a_old.second_level_domain())?;
            for (b_new, b_old) in &pairs {
                prop_assert_eq!(a_new == b_new, a_old == b_old);
                prop_assert_eq!(a_new.is_within(b_new), a_old.is_within(b_old));
            }
        }
    }
}

/// A name below `apex`: zero to three labels from a small pool, so owners
/// and queries collide, nest (empty non-terminals) and hit wildcards.
fn arb_zone_name(apex: &'static str) -> impl Strategy<Value = Name> {
    let pool = ["a", "b", "*", "www", "Deep"];
    proptest::collection::vec(0..pool.len(), 0..4).prop_map(move |picks| {
        let mut name = Name::parse(apex).expect("apex");
        for i in picks {
            name = name.prepend(pool[i]).expect("short names");
        }
        name
    })
}

const APEX: &str = "z.example";

/// A CNAME target: in the zone (chains and loops) or outside it.
fn arb_target() -> impl Strategy<Value = Name> {
    prop_oneof![
        arb_zone_name(APEX),
        arb_zone_name(APEX),
        arb_zone_name("elsewhere.example"),
    ]
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|b| RData::A(Ipv4Addr::from(b))),
        any::<[u8; 16]>().prop_map(|b| RData::Aaaa(b.into())),
        arb_target().prop_map(RData::Cname),
        arb_target().prop_map(RData::Cname),
        any::<u8>().prop_map(|b| RData::Txt(vec![vec![b]])),
        arb_target().prop_map(|exchange| RData::Mx {
            preference: 10,
            exchange
        }),
    ]
}

/// A record owner: mostly in the zone, sometimes outside it (`add`
/// refuses those).
fn arb_owner() -> impl Strategy<Value = Name> {
    prop_oneof![
        arb_zone_name(APEX),
        arb_zone_name(APEX),
        arb_zone_name(APEX),
        arb_zone_name("elsewhere.example"),
    ]
}

fn arb_qtype() -> impl Strategy<Value = RecordType> {
    prop_oneof![
        Just(RecordType::A),
        Just(RecordType::Aaaa),
        Just(RecordType::Cname),
        Just(RecordType::Txt),
        Just(RecordType::Mx),
        Just(RecordType::Ns),
    ]
}

/// A query name at the edge of the wildcard rule: an empty first label
/// on a 254-octet name in the zone, whose wildcard owner would need 256.
fn overlong_wildcard_query() -> Name {
    let long = [
        "d".repeat(63),
        "c".repeat(63),
        "b".repeat(63),
        "a".repeat(50),
    ];
    let name = Name::parse(&format!("{}.{APEX}", long.join("."))).expect("254 octets");
    assert_eq!(name.wire_len(), 254);
    name.prepend("").expect("255 octets")
}

proptest! {
    #[test]
    fn zone_lookup_matches_the_reference_algorithm(
        records in proptest::collection::vec((arb_owner(), arb_rdata()), 0..12),
        queries in proptest::collection::vec(
            (prop_oneof![arb_zone_name(APEX), arb_zone_name(APEX), arb_zone_name("other.example")], arb_qtype()),
            8..9,
        ),
    ) {
        let apex = Name::parse(APEX).expect("apex");
        let (mut zone, mut reference) = (Zone::new(apex.clone()), ReferenceZone::new(apex));
        for (owner, rdata) in records {
            let rr = ResourceRecord::new(owner, 60, rdata);
            prop_assert_eq!(zone.add(rr.clone()), reference.add(rr));
        }
        let edge = overlong_wildcard_query();
        for (qname, qtype) in queries.iter().chain([(edge, RecordType::A)].iter()) {
            prop_assert_eq!(
                zone.lookup(qname, *qtype),
                reference.lookup(qname, *qtype),
                "{} {}",
                qname,
                qtype
            );
        }
    }
}
