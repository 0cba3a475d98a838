//! Chaos: a mixed healthy/hostile fleet through the service.
//!
//! Three layers, matching the service's degradation mechanisms:
//!
//! 1. **Deterministic core chaos** — a [`ShardCore`] fed ≥20% faulty
//!    streams (stalls under and over the deadline, a mid-run
//!    disconnect, a corrupt frame, a duplicated tick). Every stream's
//!    merged verdicts must be *bit-identical* to a dedicated scalar
//!    [`MonitorSuite`] replay of the frames the stream actually
//!    delivered, and every faulty stream must be evicted/closed with
//!    the right provenance.
//! 2. **Supervisor chaos** — a live [`MonitorService`] takes an
//!    injected in-wave panic: the shard reports the crash, evicts the
//!    lost streams with [`EvictReason::ShardRestart`], restarts, and
//!    keeps accepting (and correctly monitoring) new connections.
//! 3. **Wire chaos** — a producer whose table mistypes a signal the
//!    suite reads is quarantined at decode time, before its value can
//!    fail a wave for the whole shard.

use esafe_logic::{parse, Frame, SignalKind, SignalTable, Value};
use esafe_monitor::{Location, MonitorSuite, SuiteTemplate, ViolationInterval};
use esafe_serve::tcp::{decode_payload, write_frame};
use esafe_serve::{
    DecodeError, EvictReason, FaultPlan, FaultySource, MonitorService, Poll, ReplaySource,
    ReportEvent, ServiceConfig, ShardConfig, ShardCore, ShardId, StreamId, StreamSource,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

struct Sigs {
    table: Arc<SignalTable>,
    x: esafe_logic::SignalId,
    template: Arc<SuiteTemplate>,
}

fn sigs() -> Sigs {
    let mut b = SignalTable::builder();
    let x = b.real("x");
    let table = b.finish();
    let mut suite = MonitorSuite::new(table.clone());
    suite
        .add_goal("G", Location::new("Chaos"), parse("x < 40.0").unwrap())
        .unwrap();
    suite
        .add_goal(
            "H",
            Location::new("Chaos"),
            parse("held_for(x < 35.0, 2ticks)").unwrap(),
        )
        .unwrap();
    let template = Arc::new(suite.template());
    Sigs { table, x, template }
}

/// Stream `i`'s recorded trace: a deterministic ramp crossing both
/// goal thresholds at stream-specific phases.
fn trace(sigs: &Sigs, stream: usize, ticks: usize) -> Vec<Frame> {
    (0..ticks)
        .map(|t| {
            let mut f = sigs.table.frame();
            f.set(sigs.x, 30.0 + ((stream * 7 + t * 3) % 17) as f64);
            f
        })
        .collect()
}

/// The reference: a dedicated scalar suite over exactly the frames the
/// stream delivered.
fn scalar_violations(
    template: &SuiteTemplate,
    delivered: &[Frame],
) -> BTreeMap<String, Vec<ViolationInterval>> {
    let mut suite = template.instantiate();
    for frame in delivered {
        suite.observe(frame).unwrap();
    }
    suite.finish();
    suite
        .take_violations()
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .collect()
}

/// How each chaos stream must leave the shard.
#[derive(Debug, PartialEq)]
enum Expected {
    Closed,
    EvictedStalled,
    EvictedCorrupt(&'static str),
}

#[test]
fn hostile_fleet_degrades_per_stream_and_healthy_verdicts_are_bit_identical() {
    const STALL_LIMIT: u64 = 4;
    let sigs = sigs();
    let mut core = ShardCore::new(
        ShardId(0),
        &sigs.template,
        ShardConfig {
            width: 8, // 10 streams over 8 lanes: chaos + lane churn
            report_every: 3,
            stall_limit: Some(STALL_LIMIT),
        },
    );

    // The fleet: streams 0-4 healthy, streams 5-9 hostile (50% — well
    // over the ≥20% the robustness bar asks for).
    let ticks = |i: usize| 12 + i; // 12..21 ticks each
    let full = |i: usize| trace(&sigs, i, ticks(i));
    let source = |i: usize, plan: FaultPlan| {
        let t = full(i);
        let n = t.len() as u64;
        Box::new(FaultySource::new(
            ReplaySource::new(Arc::new(t), 0, n),
            plan,
        ))
    };

    let mut plans: Vec<(FaultPlan, Vec<Frame>, Expected)> = Vec::new();
    // 0-4: healthy — full trace, clean close.
    for i in 0..5 {
        plans.push((FaultPlan::new(), full(i), Expected::Closed));
    }
    // 5: duplicated tick — monitored exactly as delivered.
    let mut dup = full(5);
    dup.insert(3, dup[2].clone());
    plans.push((FaultPlan::new().duplicate_frame(2), dup, Expected::Closed));
    // 6: stalls *under* the deadline (3 < 4 consecutive) — must close
    // with verdicts identical to the uninterrupted replay.
    plans.push((
        FaultPlan::new().stall(2, 2).stall(7, 3),
        full(6),
        Expected::Closed,
    ));
    // 7: stalls *past* the deadline after 5 delivered frames.
    plans.push((
        FaultPlan::new().stall(5, 1_000),
        full(7)[..5].to_vec(),
        Expected::EvictedStalled,
    ));
    // 8: corrupt transport after 3 frames — quarantined.
    plans.push((
        FaultPlan::new().corrupt_after(3, "injected bit flip"),
        full(8)[..3].to_vec(),
        Expected::EvictedCorrupt("injected bit flip"),
    ));
    // 9: mid-run disconnect after 4 frames — a clean (early) close.
    plans.push((
        FaultPlan::new().disconnect_after(4),
        full(9)[..4].to_vec(),
        Expected::Closed,
    ));

    for (i, (plan, _, _)) in plans.iter().enumerate() {
        core.connect(StreamId(i as u64), source(i, plan.clone()));
    }

    // Drive waves to quiescence, merging periodic drains with terminal
    // records exactly as an operator would.
    let mut merged: BTreeMap<u64, BTreeMap<String, Vec<ViolationInterval>>> = BTreeMap::new();
    let mut terminal: BTreeMap<u64, (Expected, u64)> = BTreeMap::new();
    let mut waves = 0u64;
    while !core.is_idle() {
        core.wave().unwrap();
        for event in core.take_events() {
            match event {
                ReportEvent::Violations(report) => {
                    let per = merged.entry(report.stream.0).or_default();
                    for (monitor, intervals) in report.violations {
                        per.entry(monitor).or_default().extend(intervals);
                    }
                }
                ReportEvent::StreamClosed(summary) => {
                    let per = merged.entry(summary.stream.0).or_default();
                    for (monitor, intervals) in summary.violations {
                        per.entry(monitor).or_default().extend(intervals);
                    }
                    let seen = terminal.insert(summary.stream.0, (Expected::Closed, summary.ticks));
                    assert!(seen.is_none(), "one terminal event per stream");
                }
                ReportEvent::StreamEvicted(eviction) => {
                    let per = merged.entry(eviction.stream.0).or_default();
                    for (monitor, intervals) in eviction.violations {
                        per.entry(monitor).or_default().extend(intervals);
                    }
                    let expected = match eviction.reason {
                        EvictReason::Stalled { waves } => {
                            assert_eq!(waves, STALL_LIMIT, "evicted exactly at the deadline");
                            Expected::EvictedStalled
                        }
                        EvictReason::Corrupt { detail } => {
                            assert_eq!(detail, "injected bit flip");
                            Expected::EvictedCorrupt("injected bit flip")
                        }
                        EvictReason::ShardRestart => panic!("no restart in the core test"),
                    };
                    let seen = terminal.insert(eviction.stream.0, (expected, eviction.ticks));
                    assert!(seen.is_none(), "one terminal event per stream");
                }
                other => panic!("unexpected event: {other:?}"),
            }
        }
        waves += 1;
        assert!(waves < 10_000, "the chaos fleet must quiesce");
    }

    for (i, (_, delivered, expected)) in plans.iter().enumerate() {
        let id = i as u64;
        let (got_kind, got_ticks) = terminal
            .remove(&id)
            .unwrap_or_else(|| panic!("stream {id} never reached a terminal event"));
        assert_eq!(&got_kind, expected, "stream {id} terminal kind");
        assert_eq!(
            got_ticks,
            delivered.len() as u64,
            "stream {id} observed-frame count"
        );
        // The heart of the robustness bar: whatever the rest of the
        // fleet did, this stream's verdicts are bit-identical to its
        // scalar twin over the frames it actually delivered.
        let got = merged.remove(&id).unwrap_or_default();
        let got: BTreeMap<_, _> = got.into_iter().filter(|(_, v)| !v.is_empty()).collect();
        assert_eq!(
            got,
            scalar_violations(&sigs.template, delivered),
            "stream {id} diverged from its scalar twin"
        );
    }
}

#[test]
fn injected_panic_restarts_the_shard_and_service_keeps_accepting() {
    let sigs = sigs();
    let mut service = MonitorService::new(ServiceConfig {
        lanes_per_shard: 4,
        stall_limit: Some(64),
        pending_park: Duration::from_micros(100),
        ..ServiceConfig::default()
    });
    service.load_suite(&sigs.template);

    // A healthy long-lived stream that will be lost to the restart: its
    // producer keeps the channel open the whole time.
    let (sender, healthy_id) = service.connect_channel(&sigs.table, 64).unwrap();
    for frame in trace(&sigs, 0, 4) {
        sender.send(frame).unwrap();
    }

    // The saboteur: panics inside its second wave.
    let bomb = trace(&sigs, 1, 8);
    let bomb_n = bomb.len() as u64;
    let bomb_id = service
        .connect(
            &sigs.table,
            Box::new(FaultySource::new(
                ReplaySource::new(Arc::new(bomb), 0, bomb_n),
                FaultPlan::new().panic_at_poll(1),
            )),
        )
        .unwrap();

    // The supervisor's crash protocol, in order: an erroring stop, one
    // ShardRestart eviction per lost stream, then the restart marker.
    let deadline = Duration::from_secs(30);
    let mut crash_error = None;
    let mut evicted = Vec::new();
    let restarted = loop {
        match service
            .recv_report_timeout(deadline)
            .expect("the crash protocol must be reported")
        {
            ReportEvent::ShardStopped { error: Some(e), .. } => crash_error = Some(e),
            ReportEvent::StreamEvicted(ev) => {
                assert_eq!(ev.reason, EvictReason::ShardRestart);
                assert_eq!(ev.ticks, 0, "restart losses are reported as zero ticks");
                evicted.push(ev.stream);
            }
            ReportEvent::ShardRestarted { streams_lost, .. } => break streams_lost,
            _ => continue,
        }
    };
    let crash_error = crash_error.expect("the erroring stop precedes the restart");
    assert!(
        crash_error.contains("injected fault: panic at poll 1"),
        "the crash report names the panic: {crash_error}"
    );
    assert_eq!(restarted, 2, "both live streams went down with the core");
    evicted.sort();
    let mut expected = vec![healthy_id, bomb_id];
    expected.sort();
    assert_eq!(evicted, expected, "every lost stream is accounted for");

    // The healthy producer observes the eviction as a closed transport:
    // its sends start failing instead of blocking forever.
    let mut producer_saw_closure = false;
    for frame in trace(&sigs, 0, 128) {
        if sender.send(frame).is_err() {
            producer_saw_closure = true;
            break;
        }
    }
    assert!(
        producer_saw_closure,
        "the evicted stream's producer must see the transport close"
    );

    // Degraded, never dead: the restarted shard accepts new streams and
    // monitors them correctly — and the new generation numbering is
    // fresh (never reused across the restart).
    let (sender2, new_id) = service.connect_channel(&sigs.table, 64).unwrap();
    let replay = trace(&sigs, 2, 10);
    let expected_verdicts = scalar_violations(&sigs.template, &replay);
    assert_eq!(sender2.replay(&replay), 10);
    drop(sender2);
    let summary = loop {
        match service
            .recv_report_timeout(deadline)
            .expect("the restarted shard must keep reporting")
        {
            ReportEvent::StreamClosed(summary) if summary.stream == new_id => break summary,
            _ => continue,
        }
    };
    assert_eq!(summary.ticks, 10);
    let got: BTreeMap<_, _> = summary
        .violations
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(m, v)| (m.clone(), v.clone()))
        .collect();
    assert_eq!(got, expected_verdicts, "post-restart verdicts are correct");

    let remaining = service.shutdown();
    assert!(
        remaining
            .iter()
            .any(|e| matches!(e, ReportEvent::ShardStopped { error: None, .. })),
        "shutdown after a restart still stops cleanly"
    );
}

/// A socket-free wire transport: replays encoded messages, decoding one
/// per poll with `decode_payload` and turning a decode error into
/// `Corrupt`, as `TcpSource` does.
struct WireReplay(std::vec::IntoIter<Vec<u8>>);

impl StreamSource for WireReplay {
    fn poll_frame(&mut self, frame: &mut Frame) -> Poll {
        match self.0.next() {
            None => Poll::End,
            Some(payload) => match decode_payload(&payload, frame) {
                Ok(()) => Poll::Frame,
                Err(err) => Poll::Corrupt(err.to_string()),
            },
        }
    }
}

#[test]
fn mistyped_wire_value_quarantines_only_its_stream() {
    // The shard's table declares `p` boolean; the faulty producer's
    // declares it real.
    let namespace = |p_kind| {
        let mut b = SignalTable::builder();
        b.signal("p", p_kind);
        b.real("x");
        b.finish()
    };
    let table = namespace(SignalKind::Bool);
    let foreign = namespace(SignalKind::Real);
    let mut suite = MonitorSuite::new(table.clone());
    suite
        .add_goal("G", Location::new("Wire"), parse("x < 40.0").unwrap())
        .unwrap();
    suite
        .add_goal("H", Location::new("Wire"), parse("p || x < 35.0").unwrap())
        .unwrap();
    let template = Arc::new(suite.template());
    let sample = |table: &Arc<SignalTable>, p: Value, stream: usize, t: usize| {
        let mut f = table.frame();
        f.set_named("p", p);
        f.set_named("x", 30.0 + ((stream * 7 + t * 3) % 17) as f64);
        f
    };
    let trace = |stream: usize| -> Vec<Frame> {
        (0..20)
            .map(|t| sample(&table, Value::Bool(t % 5 == 0), stream, t))
            .collect()
    };
    let encode = |frames: &[Frame]| -> WireReplay {
        let payloads: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| {
                let mut wire = Vec::new();
                write_frame(&mut wire, f).unwrap();
                wire.split_off(4)
            })
            .collect();
        WireReplay(payloads.into_iter())
    };

    let mut core = ShardCore::new(
        ShardId(0),
        &template,
        ShardConfig {
            width: 4,
            report_every: 3,
            stall_limit: None,
        },
    );
    // Streams 0 and 2 are healthy; stream 1, on lane #1, sends `p` as a
    // real from its fourth frame on.
    let mut faulty = trace(1)[..3].to_vec();
    faulty.push(sample(&foreign, Value::Real(0.5), 1, 3));
    faulty.extend(trace(1)[4..].iter().cloned());
    core.connect(StreamId(0), Box::new(encode(&trace(0))));
    core.connect(StreamId(1), Box::new(encode(&faulty)));
    core.connect(StreamId(2), Box::new(encode(&trace(2))));

    let mut merged: BTreeMap<u64, BTreeMap<String, Vec<ViolationInterval>>> = BTreeMap::new();
    let mut closed = BTreeMap::new();
    let mut evicted = Vec::new();
    while !core.is_idle() {
        core.wave()
            .expect("a mistyped stream must not fail the wave");
        for event in core.take_events() {
            let (stream, violations) = match event {
                ReportEvent::Violations(report) => (report.stream, report.violations),
                ReportEvent::StreamClosed(summary) => {
                    closed.insert(summary.stream.0, summary.ticks);
                    (summary.stream, summary.violations)
                }
                ReportEvent::StreamEvicted(eviction) => {
                    evicted.push((eviction.stream, eviction.ticks, eviction.reason));
                    (eviction.stream, eviction.violations)
                }
                other => panic!("unexpected event: {other:?}"),
            };
            let per = merged.entry(stream.0).or_default();
            for (monitor, intervals) in violations {
                per.entry(monitor).or_default().extend(intervals);
            }
        }
    }

    let detail = DecodeError::KindMismatch {
        name: "p".to_owned(),
        declared: SignalKind::Bool,
        found: SignalKind::Real,
    }
    .to_string();
    assert_eq!(
        evicted,
        vec![(StreamId(1), 3, EvictReason::Corrupt { detail })],
        "only the mistyped stream is quarantined, after its three good frames"
    );
    assert_eq!(closed, BTreeMap::from([(0, 20), (2, 20)]));
    for (stream, delivered) in [(0, trace(0)), (1, faulty[..3].to_vec()), (2, trace(2))] {
        let got: BTreeMap<_, _> = merged
            .remove(&stream)
            .unwrap_or_default()
            .into_iter()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        assert_eq!(
            got,
            scalar_violations(&template, &delivered),
            "stream {stream} diverged from its scalar twin"
        );
    }
}
