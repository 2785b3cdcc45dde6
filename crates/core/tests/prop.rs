//! Property-based tests for the ACACIA application layer.

use acacia::msg::{AppMsg, FrameMeta};
use acacia::search::{candidates, SearchContext, SearchStrategy};
use acacia_geo::floor::FloorPlan;
use acacia_geo::point::Point;
use acacia_simnet::time::Instant;
use acacia_vision::compress::Codec;
use acacia_vision::db::ObjectDb;
use acacia_vision::image::{ImageSpec, Resolution};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

// Integers biased toward JSON digit-count boundaries.
fn edgy_u64() -> BoxedStrategy<u64> {
    prop_oneof![
        prop::sample::select(vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX]),
        any::<u64>(),
    ]
    .boxed()
}

fn edgy_u32() -> BoxedStrategy<u32> {
    prop_oneof![
        prop::sample::select(vec![0, 9, 10, 99, 100, u32::MAX]),
        any::<u32>(),
    ]
    .boxed()
}

/// Finite floats of both signs: exact decimals, subnormals, the extremes
/// and the `{:?}` switch to exponent notation, plus wide random ranges.
fn edgy_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        prop::sample::select(vec![
            0.0,
            -0.0,
            0.1,
            -71.5,
            1e-5,
            1e15,
            1e16,
            -1e16,
            5e-324,
            -2.2e-310,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ]),
        any::<f64>(),
        any::<f64>().prop_map(|f| -f),
        (any::<f64>(), -1074i32..1024, any::<bool>()).prop_map(|(m, e, neg)| {
            let f = m * 2f64.powi(e);
            if neg {
                -f
            } else {
                f
            }
        }),
    ]
    .boxed()
}

/// Strings mixing plain text with every character JSON escapes.
fn edgy_string() -> BoxedStrategy<String> {
    let chars = vec![
        'a', 'Z', '7', '#', '-', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}',
        '\u{1f}', '\u{7f}', 'é', '☃', '😀',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
        .boxed()
}

fn arb_ip() -> BoxedStrategy<Ipv4Addr> {
    prop_oneof![
        prop::sample::select(vec![Ipv4Addr::UNSPECIFIED, Ipv4Addr::BROADCAST]),
        any::<u32>().prop_map(Ipv4Addr::from),
    ]
    .boxed()
}

fn arb_msg() -> impl Strategy<Value = AppMsg> {
    let codec = prop_oneof![
        any::<u8>().prop_map(Codec::Jpeg),
        prop::sample::select(vec![
            Codec::Png,
            Codec::RawGray,
            Codec::Jpeg(9),
            Codec::Jpeg(10)
        ]),
    ];
    let meta = (
        edgy_u64(),
        edgy_u32(),
        edgy_u32(),
        codec,
        edgy_u64(),
        edgy_u64(),
    )
        .prop_map(|(scene, w, h, codec, seed, t)| FrameMeta {
            spec: ImageSpec::new(scene, Resolution::new(w, h)),
            codec,
            view_seed: seed,
            captured_at_nanos: t,
        });
    prop_oneof![
        (edgy_u64(), edgy_u32(), edgy_u32(), prop::option::of(meta)).prop_map(
            |(seq, chunk, total, meta)| AppMsg::FrameChunk {
                seq,
                chunk,
                total_chunks: total,
                meta,
            }
        ),
        (edgy_u64(), edgy_u32()).prop_map(|(seq, chunk)| AppMsg::ChunkAck { seq, chunk }),
        (
            edgy_u64(),
            prop::option::of(edgy_string()),
            edgy_f64(),
            edgy_f64(),
            edgy_u64().prop_map(|n| n as usize)
        )
            .prop_map(|(seq, matched, c, m, n)| AppMsg::FrameResult {
                seq,
                matched,
                compute_s: c,
                match_s: m,
                candidates: n,
            }),
        (edgy_string(), edgy_f64()).prop_map(|(landmark, rx)| AppMsg::RxReport {
            landmark,
            rx_power_dbm: rx,
        }),
        (edgy_string(), arb_ip(), any::<bool>()).prop_map(|(service, ue_addr, create)| {
            AppMsg::MrsRequest {
                service,
                ue_addr,
                create,
            }
        }),
        (edgy_string(), arb_ip())
            .prop_map(|(service, server)| AppMsg::Heartbeat { service, server }),
        (edgy_string(), any::<bool>(), prop::option::of(arb_ip())).prop_map(
            |(service, ok, server)| AppMsg::MrsAck {
                service,
                ok,
                server
            }
        ),
    ]
}

fn app_packet(msg: &AppMsg, extra: u32) -> acacia_simnet::packet::Packet {
    msg.into_packet(
        (Ipv4Addr::new(10, 10, 0, 1), 9000),
        (Ipv4Addr::new(10, 4, 0, 1), 9000),
        extra,
        Instant::from_millis(5),
    )
}

/// Shared fixtures (DB generation is expensive; build once).
fn fixtures() -> &'static (FloorPlan, ObjectDb) {
    static FIX: OnceLock<(FloorPlan, ObjectDb)> = OnceLock::new();
    FIX.get_or_init(|| {
        let floor = FloorPlan::retail_store();
        let db = ObjectDb::generate_retail(&floor, 2, 77);
        (floor, db)
    })
}

proptest! {
    /// App messages survive the packet round-trip.
    #[test]
    fn app_msg_roundtrip(msg in arb_msg(), extra in 0u32..5_000) {
        let pkt = app_packet(&msg, extra);
        prop_assert_eq!(AppMsg::from_packet(&pkt), Some(msg));
    }

    /// `json_len` is the length of the message's JSON encoding, and the
    /// packet is as large as that JSON body plus the modelled extra
    /// bytes — the wire size every AR message had when it travelled as
    /// JSON.
    #[test]
    fn app_msg_wire_size_is_json_plus_extra(msg in arb_msg(), extra in 0u32..5_000) {
        let json = serde_json::to_vec(&msg).unwrap();
        prop_assert_eq!(msg.json_len(), json.len(), "{}", String::from_utf8_lossy(&json));
        let pkt = app_packet(&msg, extra);
        prop_assert!(pkt.payload.len() <= json.len());
        prop_assert_eq!(pkt.wire_size(), 28 + json.len() as u32 + extra);
    }

    /// Malformed app payloads are rejected: every strict prefix, any
    /// trailing byte, a tag past the last variant, and a string count
    /// claiming more bytes than remain.
    #[test]
    fn malformed_app_msg_rejected(msg in arb_msg(), junk in any::<u8>(), tag in 7u8..=255, extra in 1u32..=u32::MAX) {
        let mut pkt = app_packet(&msg, 0);
        let bytes = pkt.payload.to_vec();
        for cut in 0..bytes.len() {
            pkt.payload = bytes::Bytes::copy_from_slice(&bytes[..cut]);
            prop_assert!(AppMsg::from_packet(&pkt).is_none(), "prefix {} of {:?}", cut, msg);
        }
        let mut extended = bytes.clone();
        extended.push(junk);
        pkt.payload = extended.into();
        prop_assert!(AppMsg::from_packet(&pkt).is_none());
        let mut unknown = bytes;
        unknown[0] = tag;
        pkt.payload = unknown.into();
        prop_assert!(AppMsg::from_packet(&pkt).is_none());
        // tag, then the service string's count (4).
        let hb = AppMsg::Heartbeat { service: String::new(), server: Ipv4Addr::UNSPECIFIED };
        let mut long = app_packet(&hb, 0).payload.to_vec();
        let claim = 4 + extra.min(u32::MAX - 4);
        long[1..5].copy_from_slice(&claim.to_le_bytes());
        pkt.payload = long.into();
        prop_assert!(AppMsg::from_packet(&pkt).is_none());
    }

    /// Bool and codec bytes outside their domain are rejected.
    #[test]
    fn malformed_app_fields_rejected(bad in 2u8..=255, codec in 3u8..=255) {
        // tag, empty service (count 4), ok
        let ack = AppMsg::MrsAck { service: String::new(), ok: true, server: None };
        let mut b = app_packet(&ack, 0);
        let mut bytes = b.payload.to_vec();
        bytes[5] = bad;
        b.payload = bytes.into();
        prop_assert!(AppMsg::from_packet(&b).is_none());
        // tag, seq (8), chunk (4), total (4), presence, scene (8), w, h (4 each), codec
        let head = AppMsg::FrameChunk {
            seq: 1,
            chunk: 0,
            total_chunks: 2,
            meta: Some(FrameMeta {
                spec: ImageSpec::new(3, Resolution::E2E),
                codec: Codec::Png,
                view_seed: 4,
                captured_at_nanos: 5,
            }),
        };
        let mut p = app_packet(&head, 0);
        let mut bytes = p.payload.to_vec();
        bytes[34] = codec;
        p.payload = bytes.into();
        prop_assert!(AppMsg::from_packet(&p).is_none());
    }

    /// Search strategies: ACACIA candidates are always a subset of the DB
    /// grouped by the subsections near the location, and never empty when
    /// a location is known.
    #[test]
    fn acacia_candidates_subset(x in 0.2f64..27.8, y in 0.2f64..14.8, radius_x10 in 5u32..80) {
        let (floor, db) = fixtures();
        let strategy = SearchStrategy::Acacia { radius_m_x10: radius_x10 };
        let ctx = SearchContext {
            rx_readings: vec![],
            location: Some(Point::new(x, y)),
        };
        let picked = candidates(strategy, db, floor, &ctx);
        prop_assert!(!picked.is_empty());
        prop_assert!(picked.len() <= db.len());
        let allowed = floor.subsections_near(Point::new(x, y), strategy.radius_m());
        for o in &picked {
            prop_assert!(allowed.contains(&o.subsection));
        }
        // Monotone in the radius.
        let bigger = candidates(
            SearchStrategy::Acacia { radius_m_x10: radius_x10 + 20 },
            db, floor, &ctx,
        );
        prop_assert!(bigger.len() >= picked.len());
    }

    /// rxPower strategy picks only objects from the strongest landmarks'
    /// sections, regardless of reading order.
    #[test]
    fn rxpower_candidates_order_independent(perm in prop::sample::subsequence(vec![0usize,1,2,3,4,5,6], 2..=7)) {
        let (floor, db) = fixtures();
        let readings: Vec<(String, f64)> = perm
            .iter()
            .map(|&i| (format!("L{}", i + 1), -60.0 - i as f64 * 5.0))
            .collect();
        let mut reversed = readings.clone();
        reversed.reverse();
        let a = candidates(SearchStrategy::RxPower, db, floor, &SearchContext {
            rx_readings: readings,
            location: None,
        });
        let b = candidates(SearchStrategy::RxPower, db, floor, &SearchContext {
            rx_readings: reversed,
            location: None,
        });
        let ids =
            |v: &Vec<&acacia_vision::db::DbObject>| v.iter().map(|o| o.id).collect::<Vec<_>>();
        prop_assert_eq!(ids(&a), ids(&b));
    }
}
