//! Parity between the locator's wire-form decisions and the owned-message
//! rules they replaced.
//!
//! Verdicts read each reply in place, through a `MessageView` over the
//! received bytes. The rules they used to apply to a fully parsed `Message`
//! survive here only, as the oracle: on generated replies — multi-string
//! and non-UTF-8 TXT, error rcodes, A/AAAA answers, empty answer sections,
//! extra additional records, mixed-case names — both must agree on the
//! response summary, every resolver's location-response check, the
//! `version.bind` text and the transparency A/AAAA check.

use dns_wire::{Message, Name, Question, RClass, RData, RType, Rcode, Record, WireMessage};
use locator::{
    default_resolvers, describe_response, BogonOutcome, HijackLocator, LocationTestResult,
    LocatorConfig, PublicResolver, QueryOptions, QueryOutcome, QueryTransport, ResolverKey,
    Transparency, VersionBindAnswer,
};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

// --- The owned-message rules, kept as the oracle -------------------------

fn oracle_describe(msg: &Message) -> String {
    if msg.header.rcode != Rcode::NoError {
        return msg.header.rcode.to_string();
    }
    for r in &msg.answers {
        if let Some(t) = r.rdata.txt_string() {
            return t;
        }
        if let RData::A(ip) = r.rdata {
            return ip.to_string();
        }
        if let RData::Aaaa(ip) = r.rdata {
            return ip.to_string();
        }
    }
    "NOERROR(empty)".into()
}

fn oracle_is_standard(resolver: &PublicResolver, msg: &Message) -> bool {
    if msg.header.rcode != Rcode::NoError {
        return false;
    }
    let Some(text) = msg.answers.iter().find_map(|r| r.rdata.txt_string()) else {
        return false;
    };
    match resolver.key {
        ResolverKey::Cloudflare => text.len() == 3 && text.bytes().all(|b| b.is_ascii_uppercase()),
        ResolverKey::Google => {
            text.parse::<IpAddr>().map(|ip| resolver.egress_contains(ip)).unwrap_or(false)
        }
        ResolverKey::Quad9 => text.ends_with(".pch.net") && text.starts_with("res"),
        ResolverKey::OpenDns => text.starts_with("server m"),
    }
}

fn oracle_version_bind(msg: &Message) -> VersionBindAnswer {
    if msg.header.rcode != Rcode::NoError {
        VersionBindAnswer::Error(msg.header.rcode.to_string())
    } else {
        match msg.answers.iter().find_map(|r| r.rdata.txt_string()) {
            Some(text) => VersionBindAnswer::Text(text),
            None => VersionBindAnswer::Error("EMPTY".into()),
        }
    }
}

fn oracle_transparent(msg: &Message) -> bool {
    !msg.header.rcode.is_error()
        && msg.answers.iter().any(|r| matches!(r.rdata, RData::A(_) | RData::Aaaa(_)))
}

// --- Generated replies ----------------------------------------------------

/// Flips the case of each ASCII letter of `text` by the matching bit of
/// `mask`.
fn mixed_case(text: &str, mask: u64) -> String {
    text.chars()
        .enumerate()
        .map(|(i, c)| if mask >> (i % 64) & 1 == 1 { c.to_ascii_uppercase() } else { c })
        .collect()
}

const QNAMES: [&str; 5] = [
    "id.server",
    "o-o.myaddr.l.google.com",
    "debug.opendns.com",
    "version.bind",
    "whoami.akamai.com",
];

fn arb_name() -> impl Strategy<Value = Name> {
    (0usize..QNAMES.len(), any::<u64>())
        .prop_map(|(i, mask)| mixed_case(QNAMES[i], mask).parse().expect("static name"))
}

/// Texts near each resolver's standard shape, and some far from all.
const TEXTS: [&str; 14] = [
    "IAD",
    "iad",
    "IADX",
    "SF",
    "res100.iad.rrdns.pch.net",
    "res.pch.net",
    "resolver.pch.org",
    "server m84.iad",
    "server x1",
    "172.253.226.35",
    "62.183.62.69",
    "2404:6800::1",
    "dnsmasq-2.85",
    "",
];

/// TXT character-strings: a known text or random bytes, optionally with a
/// non-UTF-8 byte spliced in, cut into one to four strings.
fn arb_txt() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (
        0usize..TEXTS.len() + 2,
        proptest::collection::vec(any::<u8>(), 0..24),
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..4),
    )
        .prop_map(|(pick, random, corrupt, cuts)| {
            let mut text = match TEXTS.get(pick) {
                Some(t) => t.as_bytes().to_vec(),
                None => random,
            };
            // A lone continuation or 0xFF byte is never valid UTF-8.
            if corrupt % 4 == 0 {
                let at = corrupt as usize % (text.len() + 1);
                text.insert(at, if corrupt % 8 == 0 { 0xFF } else { 0x80 });
            }
            let mut cuts: Vec<usize> =
                cuts.iter().map(|c| *c as usize % (text.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts {
                parts.push(text[from..cut].to_vec());
                from = cut;
            }
            parts.push(text[from..].to_vec());
            parts
        })
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        arb_txt().prop_map(RData::Txt),
        arb_txt().prop_map(RData::Txt),
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<u16>().prop_map(|x| RData::Aaaa(Ipv6Addr::new(0x2404, 0x6800, 0, 0, 0, 0, 0, x))),
        arb_name().prop_map(RData::Cname),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<bool>(), any::<u32>(), arb_rdata()).prop_map(|(name, chaos, ttl, rdata)| {
        let mut record = Record::new(name, ttl, rdata);
        if chaos {
            record.class = RClass::Chaos;
        }
        record
    })
}

fn arb_rcode() -> impl Strategy<Value = Rcode> {
    prop_oneof![
        Just(Rcode::NoError),
        Just(Rcode::NoError),
        Just(Rcode::NoError),
        Just(Rcode::NxDomain),
        Just(Rcode::ServFail),
        Just(Rcode::NotImp),
        Just(Rcode::Refused),
        (6u8..16).prop_map(Rcode::Unknown),
    ]
}

/// A reply: question, rcode, zero to four answers and zero to two extra
/// additional records.
fn arb_reply() -> impl Strategy<Value = Message> {
    (
        arb_name(),
        any::<bool>(),
        arb_rcode(),
        proptest::collection::vec(arb_record(), 0..5),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(|(qname, chaos, rcode, answers, additional)| {
            let question =
                if chaos { Question::chaos_txt(qname) } else { Question::new(qname, RType::Txt) };
            let mut reply = Message::response_to(&Message::query(0x5150, question), rcode);
            reply.answers = answers;
            reply.additional = additional;
            reply
        })
}

/// Answers every query with the same scripted reply, stamped with the
/// query's transaction ID.
struct SameReply(Message);

impl QueryTransport for SameReply {
    fn query(&mut self, _: IpAddr, _: &Question, txid: u16, _: QueryOptions) -> QueryOutcome {
        let mut reply = self.0.clone();
        reply.header.id = txid;
        QueryOutcome::Response(WireMessage::from_message(&reply).expect("encodable reply"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wire_decisions_match_the_owned_rules(reply in arb_reply()) {
        let Ok(bytes) = reply.encode() else { return Ok(()) };
        // The oracle reads what the owned parser makes of the same bytes.
        let owned = Message::parse(&bytes).expect("encoded reply parses");
        let wire = WireMessage::from_message(&reply).expect("encoded reply parses");
        prop_assert_eq!(wire.as_bytes(), &bytes[..]);

        prop_assert_eq!(describe_response(&wire), oracle_describe(&owned));
        for resolver in default_resolvers() {
            let got = resolver.is_standard_location_response(&wire);
            let want = oracle_is_standard(&resolver, &owned);
            prop_assert!(got == want, "{:?} disagrees on {:?}", resolver.key, owned);
        }
    }

    #[test]
    fn locator_verdicts_match_the_owned_rules(reply in arb_reply()) {
        prop_assume!(reply.encode().is_ok());
        let owned = Message::parse(&reply.encode().unwrap()).expect("encoded reply parses");
        let cpe: IpAddr = "73.22.1.5".parse().unwrap();
        let config = LocatorConfig { cpe_public_v4: Some(cpe), ..LocatorConfig::default() };
        let report = HijackLocator::new(config).run(&mut SameReply(reply));

        // Step 1: every cell is decided by the one reply.
        let resolvers = default_resolvers();
        for resolver in &resolvers {
            let want = if oracle_is_standard(resolver, &owned) {
                LocationTestResult::Standard
            } else {
                LocationTestResult::NonStandard { observed: oracle_describe(&owned) }
            };
            prop_assert_eq!(report.matrix.v4.get(resolver.key), &want);
            prop_assert_eq!(report.matrix.v6.get(resolver.key), &want);
        }
        let intercepted = resolvers.iter().any(|r| !oracle_is_standard(r, &owned));
        prop_assert_eq!(report.intercepted, intercepted);
        if !intercepted {
            return Ok(());
        }

        // Step 2: the CPE and every resolver answer version.bind alike.
        let want = oracle_version_bind(&owned);
        let evidence = report.cpe.as_ref().expect("v4 interception runs step 2");
        prop_assert_eq!(&evidence.cpe_response, &want);
        for resolver in &resolvers {
            prop_assert_eq!(evidence.resolver_responses.get(resolver.key).as_ref(), Some(&want));
        }

        // Step 3 runs unless the CPE was blamed; the bogon reply is the
        // same reply, summarized.
        if !evidence.cpe_is_interceptor {
            let bogon = report.bogon.as_ref().expect("step 3 ran");
            let want = BogonOutcome::Answered { observed: oracle_describe(&owned) };
            prop_assert_eq!(&bogon.v4, &want);
        }

        // Transparency: every intercepted resolver sees the same reply.
        let want = if oracle_transparent(&owned) {
            Transparency::Transparent
        } else {
            Transparency::StatusModified
        };
        prop_assert_eq!(report.transparency, Some(want));
    }
}
