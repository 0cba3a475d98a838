//! Property tests pinning a wide batch to one-lane simulators: random
//! subsystem chains under random lane-retirement schedules must produce
//! **bit-identical** per-lane frame sequences and tick counts whether a
//! run steps alone (a one-lane [`Simulator`]) or as one lane of a
//! [`SimulatorBatch`] — the sim-side twin of the logic crate's
//! `batched_fused_matches_scalar_fused` properties.

use esafe_logic::{SignalId, SignalTable};
use esafe_sim::{
    LaneSubsystem, LaneVec, SignalRead, SignalWrite, SimTime, Simulator, SimulatorBatch,
};
use proptest::prelude::*;
use std::sync::Arc;

/// An `f64` strategy over `[lo, hi)` in steps of 1/1024 (the vendored
/// proptest shim only samples integer ranges). Coarse steps are fine —
/// bit-identity must hold for *every* float, not just round ones.
fn real(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (0u64..4096).prop_map(move |x| lo + (hi - lo) * x as f64 / 4096.0)
}

/// An `Option<u64>` retirement-tick strategy: half the lanes never
/// retire, the rest retire at a random tick.
fn retirement() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        Just(None),
        (1u64..25).prop_map(Some),
        (1u64..25).prop_map(Some),
    ]
}

/// The signal namespace every random chain runs over: four reals, a
/// latched flag, and a stateful tick counter.
struct Signals {
    table: Arc<SignalTable>,
    reals: [SignalId; 4],
    flag: SignalId,
    count: SignalId,
}

fn signals() -> Signals {
    let mut b = SignalTable::builder();
    let reals = [b.real("r0"), b.real("r1"), b.real("r2"), b.real("r3")];
    let flag = b.bool("flag");
    let count = b.int("count");
    Signals {
        table: b.finish(),
        reals,
        flag,
        count,
    }
}

/// One random stage of a subsystem chain. Parameters are per-lane
/// (the stage parameters plus a lane-dependent delta), so lanes diverge
/// the way distinct sweep cells do.
#[derive(Debug, Clone, Copy)]
enum StageKind {
    /// `dst = gain * src + bias` — pure affine dataflow.
    Gain { gain: f64, bias: f64 },
    /// First-order lag of `dst` toward `src` — state carried through
    /// the double buffer.
    Lag { alpha: f64 },
    /// Latches `flag` once `src` exceeds a threshold — boolean state.
    Latch { threshold: f64 },
    /// Counts flag ticks into `count` via **internal** subsystem state,
    /// which must freeze at retirement exactly like a simulator
    /// that stops being stepped.
    Counter,
}

/// A [`StageKind`] bound to concrete signals and one lane's parameter
/// delta. The single `step_lane` body serves the one-lane simulators and
/// the wide batch — so any divergence the test finds is in the lane
/// bookkeeping, not the arithmetic.
struct Stage {
    kind: StageKind,
    src: SignalId,
    dst: SignalId,
    flag: SignalId,
    count: SignalId,
    delta: f64,
    ticks_flagged: u64,
}

impl LaneSubsystem for Stage {
    fn name(&self) -> &str {
        "stage"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, t: &SimTime, prev: &R, next: &mut W) {
        match self.kind {
            StageKind::Gain { gain, bias } => {
                let x = prev.real_or(self.src, 0.0);
                next.set(self.dst, (gain + self.delta) * x + bias);
            }
            StageKind::Lag { alpha } => {
                let x = prev.real_or(self.src, 0.0);
                let y = prev.real_or(self.dst, 0.0);
                let a = (alpha + self.delta).clamp(0.0, 1.0);
                next.set(self.dst, y + a * (x - y) * t.dt_seconds());
            }
            StageKind::Latch { threshold } => {
                let latched = prev.bool_or(self.flag, false)
                    || prev.real_or(self.src, 0.0) > threshold + self.delta;
                next.set(self.flag, latched);
            }
            StageKind::Counter => {
                self.ticks_flagged += u64::from(prev.bool_or(self.flag, false));
                next.set(self.count, self.ticks_flagged as i64);
            }
        }
    }
}

fn stage_kind() -> impl Strategy<Value = StageKind> {
    prop_oneof![
        (real(-2.0, 2.0), real(-1.0, 1.0)).prop_map(|(gain, bias)| StageKind::Gain { gain, bias }),
        real(0.1, 5.0).prop_map(|alpha| StageKind::Lag { alpha }),
        real(-1.0, 3.0).prop_map(|threshold| StageKind::Latch { threshold }),
        Just(StageKind::Counter),
    ]
}

/// A chain blueprint: stage kinds plus src/dst wiring indices into the
/// four-real pool, instantiable any number of times (alone per lane,
/// batched per lane) with identical arithmetic.
#[derive(Debug, Clone)]
struct Blueprint {
    stages: Vec<(StageKind, usize, usize)>,
}

fn blueprint() -> impl Strategy<Value = Blueprint> {
    proptest::collection::vec((stage_kind(), 0usize..4, 0usize..4), 1..6)
        .prop_map(|stages| Blueprint { stages })
}

impl Blueprint {
    /// Builds lane `l`'s instance of stage `i`.
    fn stage(&self, i: usize, lane: usize, sig: &Signals) -> Stage {
        let (kind, src, dst) = self.stages[i];
        Stage {
            kind,
            src: sig.reals[src],
            dst: sig.reals[dst],
            flag: sig.flag,
            count: sig.count,
            // A deterministic per-lane parameter spread, like distinct
            // sweep cells sharing one subsystem structure.
            delta: lane as f64 * 0.125,
            ticks_flagged: 0,
        }
    }

    fn solo_simulator(&self, lane: usize, sig: &Signals, seeds: &[f64]) -> Simulator {
        let mut sim = Simulator::new(10, &sig.table);
        for i in 0..self.stages.len() {
            sim.add(self.stage(i, lane, sig));
        }
        sim.init_with(|f| {
            for (&id, &x) in sig.reals.iter().zip(seeds) {
                f.set(id, x);
            }
            f.set(sig.flag, false);
            f.set(sig.count, 0i64);
        });
        sim
    }
}

/// Steps one-lane simulators and a wide batch through the same
/// retirement schedule, asserting every lane's every-tick frame and
/// final tick count match bit for bit.
fn check_equivalence(
    bp: &Blueprint,
    lanes: usize,
    seeds: &[f64],
    retire: &[Option<u64>],
    ticks: u64,
) {
    let sig = signals();

    let mut solo: Vec<Simulator> = (0..lanes)
        .map(|l| bp.solo_simulator(l, &sig, seeds))
        .collect();

    let mut native = SimulatorBatch::new(10, &sig.table, lanes);
    for i in 0..bp.stages.len() {
        native.add(LaneVec::from_fn(lanes, |l| bp.stage(i, l, &sig)));
    }
    for l in 0..lanes {
        native.init_lane_with(l, |lane| {
            for (&id, &x) in sig.reals.iter().zip(seeds) {
                lane.set(id, x);
            }
            lane.set(sig.flag, false);
            lane.set(sig.count, 0i64);
        });
    }

    for tick in 1..=ticks {
        for (l, sim) in solo.iter_mut().enumerate() {
            if retire[l].is_none_or(|r| tick <= r) {
                sim.step();
            }
        }
        native.step();
        for (l, r) in retire.iter().enumerate().take(lanes) {
            if *r == Some(tick) {
                native.retire_lane(l);
            }
        }

        for (l, alone) in solo.iter().enumerate() {
            for id in sig.table.ids() {
                let want = alone.state().get(id);
                prop_assert_eq!(
                    native.state().get(id, l),
                    want,
                    "native lane {} tick {} signal {}",
                    l,
                    tick,
                    sig.table.name(id)
                );
            }
        }
    }

    for l in 0..lanes {
        prop_assert_eq!(native.lane_tick(l), solo[l].tick(), "native lane {}", l);
        let frozen = retire[l].is_some_and(|r| r <= ticks);
        prop_assert_eq!(native.is_active(l), !frozen);
    }
}

proptest! {
    /// A lane of a batch ≡ the same run stepped alone, bit for bit —
    /// under random chains, lane counts, seeds, and retirement ticks.
    #[test]
    fn batched_sim_matches_scalar_sim_per_lane(
        bp in blueprint(),
        lanes in 2usize..7,
        seeds in proptest::collection::vec(real(-2.0, 2.0), 4),
        retire in proptest::collection::vec(retirement(), 7),
        ticks in 8u64..30,
    ) {
        check_equivalence(&bp, lanes, &seeds, &retire[..lanes], ticks);
    }

    /// The all-lanes-survive case at a wider stripe (no retirement
    /// masking, width past the mixed test's maximum).
    #[test]
    fn batched_sim_matches_scalar_sim_wide(
        bp in blueprint(),
        seeds in proptest::collection::vec(real(-2.0, 2.0), 4),
        ticks in 8u64..20,
    ) {
        check_equivalence(&bp, 16, &seeds, &vec![None; 16], ticks);
    }
}
