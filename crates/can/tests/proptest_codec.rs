//! Property-based tests of the CAN bit codec: the encode/decode identity
//! and the stuffing round-trip must hold for *every* representable frame,
//! and the allocation-free `frame_bit_count` must equal the length of the
//! encoded sequence.

use canids_can::bits::{decode_frame, destuff, encode_frame, stuff};
use canids_can::crc::crc15;
use canids_can::frame::{CanFrame, CanId, Dlc};
use canids_can::timing::{frame_bit_count, worst_case_stuff_bits};
use proptest::prelude::*;

fn arb_standard_frame() -> impl Strategy<Value = CanFrame> {
    (0u16..=0x7FF, proptest::collection::vec(any::<u8>(), 0..=8)).prop_map(|(id, payload)| {
        CanFrame::new(CanId::standard(id).expect("masked"), &payload).expect("len <= 8")
    })
}

fn arb_extended_frame() -> impl Strategy<Value = CanFrame> {
    (
        0u32..=0x1FFF_FFFF,
        proptest::collection::vec(any::<u8>(), 0..=8),
    )
        .prop_map(|(id, payload)| {
            CanFrame::new(CanId::extended(id).expect("masked"), &payload).expect("len <= 8")
        })
}

fn arb_remote_frame() -> impl Strategy<Value = CanFrame> {
    (0u16..=0x7FF, 0u8..=8).prop_map(|(id, dlc)| {
        CanFrame::remote(
            CanId::standard(id).expect("masked"),
            Dlc::new(dlc).expect("<= 8"),
        )
    })
}

fn arb_extended_remote_frame() -> impl Strategy<Value = CanFrame> {
    (0u32..=0x1FFF_FFFF, 0u8..=8).prop_map(|(id, dlc)| {
        CanFrame::remote(
            CanId::extended(id).expect("masked"),
            Dlc::new(dlc).expect("<= 8"),
        )
    })
}

/// A standard or extended identifier, uniform over each range.
fn arb_id() -> impl Strategy<Value = CanId> {
    prop_oneof![
        (0u16..=0x7FF).prop_map(|id| CanId::standard(id).expect("masked")),
        (0u32..=0x1FFF_FFFF).prop_map(|id| CanId::extended(id).expect("masked")),
    ]
}

/// Payload bytes that make the longest equal-bit runs: all dominant, all
/// recessive, and runs of exactly five across byte boundaries.
const STUFF_HEAVY_BYTES: [u8; 6] = [0x00, 0xFF, 0x1F, 0xF8, 0x07, 0xE0];

/// Data and remote frames with the all-dominant and all-recessive IDs
/// and payloads drawn from [`STUFF_HEAVY_BYTES`].
fn arb_stuff_heavy_frame() -> impl Strategy<Value = CanFrame> {
    let id = prop_oneof![
        Just(CanId::Standard(0x000)),
        Just(CanId::Standard(0x7FF)),
        Just(CanId::Extended(0x1FFF_FFFF)),
    ];
    let payload = proptest::collection::vec(0usize..STUFF_HEAVY_BYTES.len(), 0..=8);
    (id, payload, any::<bool>()).prop_map(|(id, picks, remote)| {
        let payload: Vec<u8> = picks.iter().map(|&i| STUFF_HEAVY_BYTES[i]).collect();
        if remote {
            CanFrame::remote(id, Dlc::from_len(payload.len()).expect("len <= 8"))
        } else {
            CanFrame::new(id, &payload).expect("len <= 8")
        }
    })
}

fn assert_bit_count_matches_encoding(frame: &CanFrame) {
    assert_eq!(
        frame_bit_count(frame),
        encode_frame(frame).len(),
        "wire length of {frame}"
    );
}

#[test]
fn bit_count_matches_encoding_for_every_standard_id_and_one_bit_extended_id() {
    let payloads: [&[u8]; 4] = [&[], &[0x00; 8], &[0xFF; 8], &[0x1F; 8]];
    let standard = (0u16..=0x7FF).map(|id| CanId::standard(id).expect("11 bits"));
    let one_bit_extended = (0..29).map(|bit| CanId::extended(1 << bit).expect("29 bits"));
    for id in standard.chain(one_bit_extended) {
        for payload in payloads {
            assert_bit_count_matches_encoding(&CanFrame::new(id, payload).expect("len <= 8"));
        }
    }
}

proptest! {
    #[test]
    fn encode_decode_identity_standard(frame in arb_standard_frame()) {
        let enc = encode_frame(&frame);
        prop_assert_eq!(decode_frame(enc.bits()).unwrap(), frame);
    }

    #[test]
    fn encode_decode_identity_extended(frame in arb_extended_frame()) {
        let enc = encode_frame(&frame);
        prop_assert_eq!(decode_frame(enc.bits()).unwrap(), frame);
    }

    #[test]
    fn encode_decode_identity_remote(frame in arb_remote_frame()) {
        let enc = encode_frame(&frame);
        prop_assert_eq!(decode_frame(enc.bits()).unwrap(), frame);
    }

    #[test]
    fn stuffing_round_trips(raw in proptest::collection::vec(any::<bool>(), 0..256)) {
        let wire = stuff(&raw);
        prop_assert_eq!(destuff(&wire).unwrap(), raw);
    }

    #[test]
    fn stuffed_stream_never_has_six_equal_bits(
        raw in proptest::collection::vec(any::<bool>(), 0..256)
    ) {
        let wire = stuff(&raw);
        for w in wire.windows(6) {
            prop_assert!(!w.iter().all(|&b| b) && !w.iter().all(|&b| !b),
                "six equal bits survived stuffing");
        }
    }

    #[test]
    fn frame_length_within_worst_case(frame in arb_standard_frame()) {
        let enc = encode_frame(&frame);
        let stuffable = 1 + 11 + 1 + 1 + 1 + 4 + 8 * frame.dlc().byte_len() + 15;
        let max = stuffable + worst_case_stuff_bits(stuffable) + 10;
        prop_assert!(enc.len() >= stuffable + 10);
        prop_assert!(enc.len() <= max, "{} > {max}", enc.len());
        prop_assert_eq!(frame_bit_count(&frame), enc.len());
    }

    #[test]
    fn bit_count_matches_encoding_extended(frame in arb_extended_frame()) {
        assert_bit_count_matches_encoding(&frame);
    }

    #[test]
    fn bit_count_matches_encoding_remote(
        frame in prop_oneof![arb_remote_frame(), arb_extended_remote_frame()]
    ) {
        assert_bit_count_matches_encoding(&frame);
    }

    #[test]
    fn bit_count_matches_encoding_at_every_dlc(
        id in arb_id(),
        payload in proptest::collection::vec(any::<u8>(), 8),
    ) {
        for len in 0..=8 {
            let dlc = Dlc::from_len(len).expect("len <= 8");
            let data = CanFrame::new(id, &payload[..len]).expect("len <= 8");
            assert_bit_count_matches_encoding(&data);
            assert_bit_count_matches_encoding(&CanFrame::remote(id, dlc));
        }
    }

    #[test]
    fn bit_count_matches_encoding_stuff_heavy(frame in arb_stuff_heavy_frame()) {
        assert_bit_count_matches_encoding(&frame);
    }

    #[test]
    fn crc_is_linear_over_xor(
        a in proptest::collection::vec(any::<bool>(), 64),
        b in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let x: Vec<bool> = a.iter().zip(&b).map(|(&p, &q)| p ^ q).collect();
        prop_assert_eq!(crc15(&x), crc15(&a) ^ crc15(&b));
    }

    #[test]
    fn single_bit_corruption_never_decodes_to_the_same_frame(
        frame in arb_standard_frame(),
        flip in 0usize..98,
    ) {
        let enc = encode_frame(&frame);
        // Flip inside the stuffed region only (delimiters would be form
        // errors by construction).
        let pos = flip % enc.stuffed_region_len();
        let mut bits = enc.bits().to_vec();
        bits[pos] = !bits[pos];
        match decode_frame(&bits) {
            // Either detected (stuff/CRC/form) ...
            Err(_) => {}
            // ... or decoded to a *different* frame only if CRC collided —
            // which cannot happen for single-bit errors (Hamming distance
            // of CRC-15 is >= 2 over these lengths).
            Ok(decoded) => prop_assert_eq!(decoded, frame,
                "single-bit flip silently changed the frame"),
        }
    }
}
