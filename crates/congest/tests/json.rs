//! Property tests of the JSON reader, which also reads files users hand
//! over (traces): it never panics, and it reads back exactly what the
//! string writer wrote.

use bc_congest::json;
use bc_congest::{Postmortem, Telemetry};
use proptest::prelude::*;

/// Strings mixing the classes the escaper must handle: printable ASCII,
/// every control character, quotes, backslashes and multi-byte UTF-8.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..4, any::<u32>()), 0..48).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(class, bits)| match class {
                0 => char::from(0x20 + (bits % 0x5f) as u8),
                1 => char::from((bits % 0x20) as u8),
                2 => ['"', '\\', '\t', '\r', '\n', '/'][bits as usize % 6],
                _ => char::from_u32(0x80 + bits % 0x10_ff80).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

/// JSON's own tokens in arbitrary order, so that most inputs get deep
/// into the parser before they fail.
fn arb_soup() -> impl Strategy<Value = String> {
    const TOKENS: [&str; 24] = [
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\ud83d", "0", "7", "-", ".", "e", "+",
        "true", "fals", "null", " ", "\"k\"", "\n", "é", "\u{1}",
    ];
    prop::collection::vec(0..TOKENS.len(), 0..64)
        .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics(text in ".{0,64}", soup in arb_soup()) {
        let _ = json::parse(&text);
        let _ = json::parse(&soup);
    }

    #[test]
    fn write_str_round_trips_through_parse(s in arb_text()) {
        let mut doc = String::from("{");
        json::write_str(&mut doc, &s);
        doc.push(':');
        json::write_str(&mut doc, &s);
        doc.push('}');
        let value = json::parse(&doc);
        let obj = value.as_ref().ok().and_then(|v| v.as_object().ok());
        prop_assert_eq!(obj.and_then(|o| o.str(&s).ok()), Some(s.as_str()), "{}", doc);
    }

    #[test]
    fn postmortem_reason_round_trips(reason in arb_text()) {
        let t = Telemetry::new(1, 2);
        t.finish_round(0);
        let pm = Postmortem::parse(&t.postmortem_json(&reason));
        prop_assert_eq!(pm.map(|pm| pm.reason), Ok(reason));
    }
}

#[test]
fn postmortem_reason_with_tab_cr_and_non_ascii_round_trips() {
    let reason = "shard 1\tfailed\r\nat «round 7»: naïve 💥";
    let t = Telemetry::new(1, 2);
    t.finish_round(0);
    let text = t.postmortem_json(reason);
    assert!(text.contains("\\t") && text.contains("\\r\\n"), "{text}");
    assert_eq!(
        Postmortem::parse(&text).map(|pm| pm.reason),
        Ok(reason.to_string())
    );
}
