//! Golden-value and model tests pinning the fault-schedule generators bit
//! for bit.
//!
//! Every chaos experiment and the contended soak replay a [`FaultTrace`]
//! built by these generators, so a change to the order of the per-slot
//! draws, to the tie order of the merged schedule or to the kinds emitted
//! would silently move every downstream result. The digests fold
//! `f64::to_bits` of each event's time, its slot, a kind code and the
//! straggler factor's bits over the whole trace; the count and the first and
//! last events are pinned as literals so a diverging schedule names where it
//! diverged. Every pin holds three ways: drained through a
//! [`FaultTrace::cursor`] before anything materializes the trace (a
//! generated trace then streams), through [`FaultTrace::events`], and
//! through a cursor after; a cursor cloned mid-trace continues bit for bit.
//!
//! The model checks compare the generators against the straightforward
//! builder kept below as the reference: generate every slot's alternating
//! run in slot order, then stably sort all events by `(time, slot)` through
//! [`FaultTrace::new`]. [`FaultTrace::merge`] is checked against the same
//! stable sort of `self`'s events followed by `other`'s, on explicit traces
//! that include `(time, slot)` ties and `±0.0` timestamps.
//!
//! To re-capture after an *intentional* semantic change, run
//! `DIAS_GOLDEN_PRINT=1 cargo test -p dias-engine --test golden_fault_traces -- --nocapture`
//! and replace the literals with the printed ones.

use proptest::prelude::*;

use dias_des::SeedSequence;
use dias_engine::{FaultCursor, FaultEvent, FaultKind, FaultTrace};
use dias_linalg::Matrix;
use dias_stochastic::Ph;
use dias_workloads::{autoscaling_trace, slot_failure_trace, straggler_trace};

/// FNV-1a over 64-bit words: order-sensitive and dependency-free.
fn fold(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An event as four words: time bits, slot, kind code, factor bits.
fn words(ev: &FaultEvent) -> [u64; 4] {
    let (code, factor) = match ev.kind {
        FaultKind::Fail => (0, 0),
        FaultKind::Repair => (1, 0),
        FaultKind::Drain => (2, 0),
        FaultKind::Slow { factor } => (3, factor.to_bits()),
    };
    [ev.at_secs.to_bits(), ev.slot as u64, code, factor]
}

/// A trace's pin: event count, digest, first and last event words.
type Pin = (usize, u64, [u64; 4], [u64; 4]);

fn pin(events: &[[u64; 4]]) -> Pin {
    let hash = events
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &w| fold(h, w));
    (events.len(), hash, events[0], events[events.len() - 1])
}

/// Drains `cursor`, cloning it after `split` events and checking that the
/// clone yields the same rest bit for bit; returns every event's words.
fn drain_split(mut cursor: FaultCursor, split: usize) -> Vec<[u64; 4]> {
    let mut got: Vec<[u64; 4]> = cursor.by_ref().take(split).map(|e| words(&e)).collect();
    let clone = cursor.clone();
    let rest: Vec<[u64; 4]> = cursor.map(|e| words(&e)).collect();
    let cloned: Vec<[u64; 4]> = clone.map(|e| words(&e)).collect();
    assert_eq!(
        cloned, rest,
        "a cursor cloned after {split} events diverged"
    );
    got.extend(rest);
    got
}

/// Checks `trace` against its pin, read three ways: drained through a
/// cursor before `events()` materializes the shared trace (a generated
/// trace streams), through `events()`, and through a cursor after. The
/// cursors are cloned at the end of the first streamed chunk.
fn check(name: &str, trace: &FaultTrace, want: Pin) {
    let streamed = drain_split(trace.cursor(), 512);
    let stored: Vec<[u64; 4]> = trace.events().iter().map(words).collect();
    let reread = drain_split(trace.cursor(), 512);
    for (how, events) in [
        ("a streamed cursor", streamed),
        ("events()", stored),
        ("a cursor after events()", reread),
    ] {
        let got = pin(&events);
        if std::env::var_os("DIAS_GOLDEN_PRINT").is_some() {
            println!("{name} via {how}: {got:#x?}");
        }
        assert_eq!(got.0, want.0, "{name} via {how}: event count diverged");
        assert_eq!(got.2, want.2, "{name} via {how}: first event diverged");
        assert_eq!(got.3, want.3, "{name} via {how}: last event diverged");
        assert_eq!(
            got.1, want.1,
            "{name} via {how}: digest diverged: {:#018x}",
            got.1
        );
    }
}

/// A PH that returns exactly 0.0 with probability `atom` and is otherwise
/// exponential with mean `mean`: it produces same-time events within a slot
/// and `(time, slot)` ties across traces.
fn atom_ph(atom: f64, mean: f64) -> Ph {
    Ph::new(vec![1.0 - atom], Matrix::from_rows(&[vec![-1.0 / mean]])).unwrap()
}

/// The renewal trace with `(time, slot)` ties merged with a straggler trace
/// over the same slots and seeds.
fn tied_merge() -> FaultTrace {
    let seeds = SeedSequence::new(5);
    let renewal = FaultTrace::renewal(
        12,
        20_000.0,
        &atom_ph(0.5, 500.0),
        &atom_ph(0.5, 50.0),
        seeds,
    );
    let stragglers = FaultTrace::stragglers(
        12,
        20_000.0,
        &atom_ph(0.5, 400.0),
        &atom_ph(0.5, 40.0),
        3.0,
        seeds,
    );
    renewal.merge(&stragglers)
}

#[test]
fn slot_failure_trace_is_pinned() {
    check(
        "slot_failure_trace(20, 1e6, 2400, 150, 42)",
        &slot_failure_trace(20, 1.0e6, 2_400.0, 150.0, 42),
        (
            15_565,
            0x1cb6_ccf3_8380_c9c6,
            [0x4049_f78f_ad4b_42eb, 17, 0, 0],
            [0x412e_8472_d7d6_b211, 16, 1, 0],
        ),
    );
}

#[test]
fn wide_renewal_is_pinned() {
    let up = Ph::hyperexponential(&[0.3, 0.7], &[1.0 / 2_000.0, 1.0 / 500.0]).unwrap();
    let down = Ph::erlang(3, 3.0 / 60.0).unwrap();
    check(
        "renewal(640 slots, 20000 s)",
        &FaultTrace::renewal(640, 20_000.0, &up, &down, SeedSequence::new(1009)),
        (
            26_271,
            0xed8e_46e1_4885_4d23,
            [0x3fff_f19c_afc5_7947, 181, 0, 0],
            [0x40d3_87bb_3e43_4d23, 468, 1, 0],
        ),
    );
}

#[test]
fn straggler_trace_is_pinned() {
    check(
        "straggler_trace(8, 2e5, 100, 30, 2.5, 3)",
        &straggler_trace(8, 2.0e5, 100.0, 30.0, 2.5, 3),
        (
            24_359,
            0x4ea6_53f6_1279_3847,
            [0x4031_5454_756d_9573, 0, 3, 0x4004_0000_0000_0000],
            [0x4108_69f9_96e9_c40a, 3, 3, 0x4004_0000_0000_0000],
        ),
    );
}

#[test]
fn autoscaling_trace_is_pinned() {
    check(
        "autoscaling_trace(20, 4, 300, 100, 1e6)",
        &autoscaling_trace(20, 4, 300.0, 100.0, 1.0e6),
        (
            26_660,
            0xf3a2_2f96_ed5a_b585,
            [0x4072_c000_0000_0000, 16, 2, 0],
            [0x412e_83b8_0000_0000, 19, 2, 0],
        ),
    );
}

#[test]
fn tied_merge_is_pinned() {
    let merged = tied_merge();
    let ties = merged
        .events()
        .windows(2)
        .filter(|w| w[0].at_secs == w[1].at_secs && w[0].slot == w[1].slot)
        .count();
    assert!(ties > 100, "the scenario must exercise (time, slot) ties");
    check(
        "renewal.merge(stragglers) with atoms",
        &merged,
        (
            3_827,
            0x7e53_086c_c30a_93b8,
            [0, 0, 0, 0],
            [0x40d3_863f_732f_90b7, 0, 3, 0x3ff0_0000_0000_0000],
        ),
    );
}

/// The reference builder: each slot's alternating run generated in slot
/// order, then one stable `(time, slot)` sort of all events.
fn reference_alternating(
    slots: usize,
    horizon_secs: f64,
    dists: [&Ph; 2],
    labels: [&str; 2],
    kinds: [FaultKind; 2],
    seeds: SeedSequence,
) -> FaultTrace {
    let mut events = Vec::new();
    for slot in 0..slots {
        let child = seeds.child(slot as u64);
        let mut rngs = [child.stream(labels[0]), child.stream(labels[1])];
        let mut t = dists[0].sample(&mut rngs[0]);
        while t < horizon_secs {
            events.push(FaultEvent {
                at_secs: t,
                slot,
                kind: kinds[0],
            });
            t += dists[1].sample(&mut rngs[1]);
            if t >= horizon_secs {
                break;
            }
            events.push(FaultEvent {
                at_secs: t,
                slot,
                kind: kinds[1],
            });
            t += dists[0].sample(&mut rngs[0]);
        }
    }
    FaultTrace::new(events).unwrap()
}

/// The reference merge: `self`'s events then `other`'s, stably sorted.
fn reference_merge(a: &FaultTrace, b: &FaultTrace) -> FaultTrace {
    FaultTrace::new([a.events(), b.events()].concat()).unwrap()
}

/// Event-by-event bitwise equality (`==` on `f64` would equate `±0.0`) of
/// `got` with `want`'s events. `got` is read through a cursor first (cloned
/// halfway, so a generated trace's clone is checked mid-stream), then
/// through `events()`.
fn assert_same_bits(got: &FaultTrace, want: &FaultTrace) {
    let want: Vec<[u64; 4]> = want.events().iter().map(words).collect();
    assert_eq!(drain_split(got.cursor(), want.len() / 2), want);
    let stored: Vec<[u64; 4]> = got.events().iter().map(words).collect();
    assert_eq!(stored, want);
}

/// The PH shapes the model check draws from: exponential, Erlang,
/// hyperexponential and an atom at zero.
fn ph_shape(shape: u8, mean: f64) -> Ph {
    match shape % 4 {
        0 => Ph::exponential(1.0 / mean).unwrap(),
        1 => Ph::erlang(3, 3.0 / mean).unwrap(),
        2 => Ph::hyperexponential(&[0.2, 0.8], &[0.4 / mean, 1.6 / mean]).unwrap(),
        _ => atom_ph(0.4, mean),
    }
}

fn arb_event() -> impl Strategy<Value = FaultEvent> {
    // Few distinct times and slots, so ties are the common case; the time
    // set includes both zeros.
    (0usize..6, 0usize..4, 0u8..4).prop_map(|(t, slot, kind)| FaultEvent {
        at_secs: [0.0, -0.0, 1.5, 1.5, 2.0, 7.25][t],
        slot,
        kind: match kind {
            0 => FaultKind::Fail,
            1 => FaultKind::Repair,
            2 => FaultKind::Drain,
            _ => FaultKind::Slow { factor: 2.0 },
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn renewal_matches_the_sorted_reference(
        slots in 1usize..40,
        horizon in 1.0f64..5_000.0,
        up_shape in 0u8..4,
        down_shape in 0u8..4,
        seed in 0u64..1_000,
    ) {
        let up = ph_shape(up_shape, 300.0);
        let down = ph_shape(down_shape, 40.0);
        let seeds = SeedSequence::new(seed);
        let got = FaultTrace::renewal(slots, horizon, &up, &down, seeds);
        let want = reference_alternating(
            slots,
            horizon,
            [&up, &down],
            ["faults/up", "faults/down"],
            [FaultKind::Fail, FaultKind::Repair],
            seeds,
        );
        assert_same_bits(&got, &want);
    }

    #[test]
    fn stragglers_match_the_sorted_reference(
        slots in 1usize..40,
        horizon in 1.0f64..5_000.0,
        gap_shape in 0u8..4,
        dur_shape in 0u8..4,
        seed in 0u64..1_000,
    ) {
        let gap = ph_shape(gap_shape, 200.0);
        let dur = ph_shape(dur_shape, 30.0);
        let seeds = SeedSequence::new(seed);
        let got = FaultTrace::stragglers(slots, horizon, &gap, &dur, 1.5, seeds);
        let want = reference_alternating(
            slots,
            horizon,
            [&gap, &dur],
            ["faults/gap", "faults/duration"],
            [FaultKind::Slow { factor: 1.5 }, FaultKind::Slow { factor: 1.0 }],
            seeds,
        );
        assert_same_bits(&got, &want);
    }

    #[test]
    fn merge_matches_the_stable_sort(
        a in prop::collection::vec(arb_event(), 0..40),
        b in prop::collection::vec(arb_event(), 0..40),
    ) {
        let a = FaultTrace::new(a).unwrap();
        let b = FaultTrace::new(b).unwrap();
        assert_same_bits(&a.merge(&b), &reference_merge(&a, &b));
        assert_same_bits(&b.merge(&a), &reference_merge(&b, &a));
    }
}

#[test]
fn wide_and_tied_traces_match_the_reference() {
    let up = Ph::hyperexponential(&[0.3, 0.7], &[1.0 / 2_000.0, 1.0 / 500.0]).unwrap();
    let down = Ph::erlang(3, 3.0 / 60.0).unwrap();
    let seeds = SeedSequence::new(1009);
    assert_same_bits(
        &FaultTrace::renewal(640, 20_000.0, &up, &down, seeds),
        &reference_alternating(
            640,
            20_000.0,
            [&up, &down],
            ["faults/up", "faults/down"],
            [FaultKind::Fail, FaultKind::Repair],
            seeds,
        ),
    );
    let seeds = SeedSequence::new(5);
    let renewal = reference_alternating(
        12,
        20_000.0,
        [&atom_ph(0.5, 500.0), &atom_ph(0.5, 50.0)],
        ["faults/up", "faults/down"],
        [FaultKind::Fail, FaultKind::Repair],
        seeds,
    );
    let stragglers = reference_alternating(
        12,
        20_000.0,
        [&atom_ph(0.5, 400.0), &atom_ph(0.5, 40.0)],
        ["faults/gap", "faults/duration"],
        [
            FaultKind::Slow { factor: 3.0 },
            FaultKind::Slow { factor: 1.0 },
        ],
        seeds,
    );
    assert_same_bits(&tied_merge(), &reference_merge(&renewal, &stragglers));
}
