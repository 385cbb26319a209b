//! Property-based tests of capture generation, splitting and the CSV
//! codec, including the CSV parsers' refusal to panic on malformed
//! input.

use canids_can::frame::{CanFrame, CanId};
use canids_can::time::SimTime;
use canids_dataset::csv::{from_csv, from_hcrl_csv, to_csv, CsvError};
use canids_dataset::prelude::*;
use proptest::prelude::*;

fn arb_attack() -> impl Strategy<Value = Option<AttackProfile>> {
    prop_oneof![
        Just(None),
        Just(Some(
            AttackProfile::dos().with_schedule(BurstSchedule::Continuous)
        )),
        Just(Some(
            AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)
        )),
        Just(Some(
            AttackProfile::gear_spoof().with_schedule(BurstSchedule::Continuous)
        )),
        Just(Some(
            AttackProfile::replay_after(canids_can::time::SimTime::from_millis(10))
                .with_schedule(BurstSchedule::Continuous)
        )),
    ]
}

fn arb_can_id() -> impl Strategy<Value = CanId> {
    prop_oneof![
        (0u32..=0x7FF).prop_map(|id| CanId::standard_from_raw(id).unwrap()),
        (0u32..=0x1FFF_FFFF).prop_map(|id| CanId::extended(id).unwrap()),
    ]
}

/// A fully random record: microsecond-grained timestamp (the CSV format
/// carries 6 fractional digits), any standard or extended identifier,
/// any DLC 0..=8 and payload.
fn arb_record() -> impl Strategy<Value = (u64, CanId, Vec<u8>, bool)> {
    (
        0u64..10_000_000, // whole microseconds, < 10 s
        arb_can_id(),
        proptest::collection::vec(0u8..=255, 0..=8),
        prop_oneof![Just(false), Just(true)],
    )
}

fn arb_attack_label() -> impl Strategy<Value = Label> {
    prop_oneof![
        Just(Label::Dos),
        Just(Label::Fuzzy),
        Just(Label::GearSpoof),
        Just(Label::RpmSpoof),
        Just(Label::Replay),
    ]
}

/// One input byte: uniform over all 256 values half the time, otherwise
/// drawn from the CSV alphabet (separators, digits, hex, flags, signs),
/// so random input also reaches the parsers' deeper fields.
fn arb_csv_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        Just(b','),
        Just(b','),
        Just(b'\n'),
        b'0'..=b'9',
        b'A'..=b'F',
        prop_oneof![Just(b'R'), Just(b'T'), Just(b'.'), Just(b'-')],
        prop_oneof![Just(b'x'), Just(b' '), Just(b'\r'), Just(b'8')],
    ]
}

/// Builds a capture from [`arb_record`] draws.
fn capture_of(raw_records: &[(u64, CanId, Vec<u8>, bool)], attack_label: Label) -> Dataset {
    Dataset::from_records(
        raw_records
            .iter()
            .map(|(us, id, payload, is_attack)| {
                LabeledFrame::new(
                    SimTime::from_micros(*us),
                    CanFrame::new(*id, payload).unwrap(),
                    if *is_attack {
                        attack_label
                    } else {
                        Label::Normal
                    },
                )
            })
            .collect(),
    )
}

/// A capture in the HCRL release layout: a header row, `0x`-prefixed
/// identifiers and a fixed eight DATA columns, empty past the DLC.
fn to_hcrl_text(ds: &Dataset) -> String {
    let mut out =
        String::from("Timestamp,ID,DLC,DATA0,DATA1,DATA2,DATA3,DATA4,DATA5,DATA6,DATA7,Flag\n");
    for r in ds.iter() {
        let id = r.frame.id();
        let id = if id.is_extended() {
            format!("0x{:08X}", id.raw())
        } else {
            format!("0x{:04X}", id.raw())
        };
        let mut cells: Vec<String> = r.frame.data().iter().map(|b| format!("{b:02X}")).collect();
        cells.resize(8, String::new());
        let flag = if r.label.is_attack() { "T" } else { "R" };
        out.push_str(&format!(
            "{:.6},{id},{},{},{flag}\n",
            r.timestamp.as_secs_f64(),
            r.frame.dlc().value(),
            cells.join(",")
        ));
    }
    out
}

/// The 1-based line a parse error names.
fn error_line(e: &CsvError) -> usize {
    match *e {
        CsvError::MissingField { line }
        | CsvError::BadNumber { line, .. }
        | CsvError::IdRange { line, .. }
        | CsvError::DlcRange { line, .. }
        | CsvError::BadFlag { line } => line,
    }
}

/// Non-saturating profiles safe to overlay without starving each other.
fn arb_overlay_pair() -> impl Strategy<Value = (AttackProfile, AttackProfile)> {
    let light = || {
        prop_oneof![
            Just(AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)),
            Just(AttackProfile::gear_spoof().with_schedule(BurstSchedule::Continuous)),
            Just(AttackProfile::rpm_spoof().with_schedule(BurstSchedule::Continuous)),
            Just(
                AttackProfile::replay_after(canids_can::time::SimTime::from_millis(10))
                    .with_schedule(BurstSchedule::Continuous)
            ),
        ]
    };
    (light(), light())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn captures_are_deterministic_and_ordered(
        seed in 0u64..1_000,
        attack in arb_attack(),
    ) {
        let mk = || DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(150),
            attack,
            seed,
            ..TrafficConfig::default()
        }).build();
        let a = mk();
        let b = mk();
        prop_assert_eq!(&a, &b, "same seed, same capture");
        for w in a.records().windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    #[test]
    fn split_partitions_and_preserves_balance(
        seed in 0u64..1_000,
        frac in 0.1f64..0.5,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(200),
            attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            seed,
            ..TrafficConfig::default()
        }).build();
        let (train, test) = train_test_split(&ds, SplitConfig {
            test_fraction: frac,
            seed,
            stratified: true,
        });
        prop_assert_eq!(train.len() + test.len(), ds.len());
        let d = (train.attack_fraction() - ds.attack_fraction()).abs();
        prop_assert!(d < 0.05, "balance drift {d}");
    }

    #[test]
    fn csv_round_trip_any_capture(seed in 0u64..1_000, attack in arb_attack()) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(120),
            attack,
            seed,
            ..TrafficConfig::default()
        }).build();
        let label = attack.map(|a| a.kind.label()).unwrap_or(Label::Dos);
        let back = from_csv(&to_csv(&ds), label).unwrap();
        prop_assert_eq!(back.len(), ds.len());
        for (a, b) in ds.iter().zip(back.iter()) {
            prop_assert_eq!(a.frame, b.frame);
            prop_assert_eq!(a.label.is_attack(), b.label.is_attack());
        }
    }

    #[test]
    fn csv_round_trip_random_records_exactly(
        raw_records in proptest::collection::vec(arb_record(), 0..=80),
        attack_label in arb_attack_label(),
    ) {
        // Arbitrary captures — extended identifiers included — must
        // round-trip to *equal records*: timestamp, frame (IDE flag and
        // all ID bits, DLC, payload) and label.
        let records: Vec<LabeledFrame> = raw_records
            .iter()
            .map(|(us, id, payload, is_attack)| {
                LabeledFrame::new(
                    SimTime::from_micros(*us),
                    CanFrame::new(*id, payload).unwrap(),
                    if *is_attack { attack_label } else { Label::Normal },
                )
            })
            .collect();
        let ds = Dataset::from_records(records);
        let back = from_csv(&to_csv(&ds), attack_label).unwrap();
        prop_assert_eq!(back.len(), ds.len());
        for (a, b) in ds.iter().zip(back.iter()) {
            prop_assert_eq!(a, b, "records must round-trip exactly");
        }
    }

    #[test]
    fn paced_stream_preserves_records_at_any_bitrate(
        seed in 0u64..1_000,
        bitrate_kbps in 125u32..=5_000,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(100),
            seed,
            ..TrafficConfig::default()
        }).build();
        let bitrate = canids_can::timing::Bitrate::new(bitrate_kbps * 1_000);
        let paced: Vec<LabeledFrame> = paced_records(&ds, bitrate).collect();
        prop_assert_eq!(paced.len(), ds.len());
        let mut last = SimTime::ZERO;
        for (orig, p) in ds.iter().zip(&paced) {
            prop_assert_eq!(orig.frame, p.frame);
            prop_assert_eq!(orig.label, p.label);
            prop_assert!(p.timestamp > last, "pacing strictly advances");
            last = p.timestamp;
        }
    }

    #[test]
    fn multi_attacker_captures_are_deterministic_and_fully_labelled(
        seed in 0u64..1_000,
        pair in arb_overlay_pair(),
    ) {
        use canids_dataset::generator::multi_attacker;
        let (a, b) = pair;
        let duration = SimTime::from_millis(250);
        let ds = multi_attacker(duration, &[a, b], seed);
        let again = multi_attacker(duration, &[a, b], seed);
        prop_assert_eq!(&ds, &again, "same seed, same overlay capture");
        // Every record carries a label from the mounted set (or Normal),
        // and time order holds across the overlaid attackers.
        let allowed = [Label::Normal, a.kind.label(), b.kind.label()];
        for r in ds.iter() {
            prop_assert!(allowed.contains(&r.label), "unexpected label {}", r.label);
        }
        for w in ds.records().windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
        // Both attackers surface: distinct light profiles cannot starve
        // each other (same-kind pairs just merge their label counts).
        prop_assert!(ds.class_count(a.kind.label()) > 0, "first attacker absent");
        prop_assert!(ds.class_count(b.kind.label()) > 0, "second attacker absent");
    }

    #[test]
    fn replay_frames_were_previously_observed(
        seed in 0u64..1_000,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(250),
            attack: Some(
                AttackProfile::replay_after(SimTime::from_millis(15))
                    .with_schedule(BurstSchedule::Continuous),
            ),
            seed,
            ..TrafficConfig::default()
        })
        .build();
        let mut seen = std::collections::BTreeSet::new();
        let mut replayed = 0usize;
        for r in ds.iter() {
            match r.label {
                Label::Normal => {
                    seen.insert((r.frame.id().raw(), r.frame.data().to_vec()));
                }
                Label::Replay => {
                    replayed += 1;
                    prop_assert!(
                        seen.contains(&(r.frame.id().raw(), r.frame.data().to_vec())),
                        "replayed frame not previously observed: {}",
                        r.frame
                    );
                }
                other => prop_assert!(false, "unexpected label {other}"),
            }
        }
        prop_assert!(replayed > 0, "replay attacker injected nothing");
    }

    #[test]
    fn feature_encoding_is_injective_on_distinct_frames(
        seed in 0u64..1_000,
    ) {
        let ds = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(100),
            seed,
            ..TrafficConfig::default()
        }).build();
        let enc = IdBitsPayloadBits;
        for w in ds.records().windows(2) {
            if w[0].frame != w[1].frame {
                // Distinct (id, payload) implies distinct bit features
                // unless only the DLC differs with zero padding — the
                // encoding is padded, so check id/payload content.
                if w[0].frame.id() != w[1].frame.id()
                    || w[0].frame.data_padded() != w[1].frame.data_padded()
                {
                    prop_assert_ne!(enc.encode(&w[0].frame), enc.encode(&w[1].frame));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn csv_parsers_return_a_typed_error_on_arbitrary_bytes(
        bytes in proptest::collection::vec(arb_csv_byte(), 0..400),
        raw_records in proptest::collection::vec(arb_record(), 1..=6),
        edits in proptest::collection::vec((0usize..1_000, arb_csv_byte()), 1..=4),
        attack_label in arb_attack_label(),
    ) {
        // Random bytes, and valid rows with a few bytes overwritten, each
        // decoded lossily as a file reader would: both parsers return
        // records or an error naming a line of the input, never panic.
        let mut edited = to_csv(&capture_of(&raw_records, attack_label)).into_bytes();
        for (at, byte) in edits {
            let len = edited.len();
            edited[at % len] = byte;
        }
        for input in [bytes, edited] {
            let text = String::from_utf8_lossy(&input);
            let lines = text.lines().count();
            for parsed in [from_csv(&text, attack_label), from_hcrl_csv(&text, attack_label)] {
                match parsed {
                    Ok(ds) => prop_assert!(ds.len() <= lines),
                    Err(e) => prop_assert!((1..=lines).contains(&error_line(&e)), "{e} of {lines} lines"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csv_rows_cut_at_every_byte_parse_or_name_the_cut_line(
        raw_records in proptest::collection::vec(arb_record(), 1..=10),
        attack_label in arb_attack_label(),
    ) {
        let ds = capture_of(&raw_records, attack_label);
        let strict = to_csv(&ds);
        let hcrl = to_hcrl_text(&ds);
        prop_assert_eq!(from_hcrl_csv(&hcrl, attack_label).unwrap(), ds.clone());
        for (text, header) in [(&strict, 0), (&hcrl, 1)] {
            for cut in 0..=text.len() {
                let prefix = &text[..cut];
                // Newline-terminated lines before the cut, and the line
                // it ends in: whole when the cut fell on its newline,
                // else split.
                let whole = prefix.matches('\n').count();
                let tail = !prefix.rsplit('\n').next().unwrap_or("").is_empty();
                let tail_whole = tail && text.as_bytes().get(cut) == Some(&b'\n');
                let split = tail && !tail_whole;
                let rows = (whole + usize::from(tail_whole)).saturating_sub(header);
                match from_hcrl_csv(prefix, attack_label) {
                    // A cut row may still read as a flagless one.
                    Ok(back) => {
                        prop_assert!(back.len() == rows || (split && back.len() == rows + 1));
                        prop_assert_eq!(&back.records()[..rows], &ds.records()[..rows]);
                    }
                    Err(e) => {
                        prop_assert!(split, "cut {cut}: whole rows failed: {e}");
                        prop_assert_eq!(error_line(&e), whole + 1);
                    }
                }
                if header == 0 {
                    // The strict layout ends every row in its flag, so
                    // only a cut at a line end parses.
                    match from_csv(prefix, attack_label) {
                        Ok(back) => {
                            prop_assert!(!split, "cut {cut}: a split row parsed");
                            prop_assert_eq!(back.records(), &ds.records()[..rows]);
                        }
                        Err(e) => {
                            prop_assert!(split, "cut {cut}: whole rows failed: {e}");
                            prop_assert_eq!(error_line(&e), whole + 1);
                        }
                    }
                } else {
                    // A header row is not strict CSV: only check the
                    // error names a line of the prefix.
                    if let Err(e) = from_csv(prefix, attack_label) {
                        prop_assert!((1..=whole + 1).contains(&error_line(&e)));
                    }
                }
            }
        }
    }
}
