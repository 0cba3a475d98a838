//! Deterministic randomized passenger traffic (the `Passenger`
//! environmental agent of Fig. 4.5).

use crate::model::{ElevatorParams, ElevatorSigs};
use esafe_logic::{SignalRead, SignalWrite};
use esafe_sim::{LaneSubsystem, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scripted-random passengers: they press hall and car buttons, step in
/// and out at landings (changing the car weight), and occasionally block
/// the closing doors.
#[derive(Debug)]
pub struct PassengerTraffic {
    params: ElevatorParams,
    sigs: ElevatorSigs,
    rng: StdRng,
    onboard_kg: f64,
    block_ticks_left: u64,
}

impl PassengerTraffic {
    /// Creates a traffic source with a deterministic seed.
    pub fn new(params: ElevatorParams, seed: u64, sigs: ElevatorSigs) -> Self {
        PassengerTraffic {
            params,
            sigs,
            rng: StdRng::seed_from_u64(seed),
            onboard_kg: 0.0,
            block_ticks_left: 0,
        }
    }
}

impl LaneSubsystem for PassengerTraffic {
    fn name(&self) -> &str {
        "PassengerTraffic"
    }

    fn step_lane<R: SignalRead, W: SignalWrite>(&mut self, _t: &SimTime, prev: &R, next: &mut W) {
        let p = self.params;
        let m = &self.sigs;
        // Clear the previous tick's momentary button presses.
        for f in 0..p.floors as usize {
            next.set(m.car_buttons[f], false);
            next.set(m.hall_buttons[f], false);
        }

        // ~1 press per 2 simulated seconds across the building.
        let press_prob = p.dt_millis as f64 / 2000.0;
        if self.rng.gen_bool(press_prob) {
            let f = self.rng.gen_range(0..p.floors) as usize;
            if self.rng.gen_bool(0.5) {
                next.set(m.hall_buttons[f], true);
            } else {
                next.set(m.car_buttons[f], true);
            }
        }

        // Boarding and alighting while the door is open at a landing.
        let door_open = prev.real_or(m.door_position, 0.0) > 0.9;
        if door_open {
            let exchange_prob = p.dt_millis as f64 / 1500.0;
            if self.rng.gen_bool(exchange_prob) {
                // Boarding outweighs alighting so load accumulates over a
                // run (rush-hour style traffic).
                if self.rng.gen_bool(0.35) && self.onboard_kg > 0.0 {
                    self.onboard_kg = (self.onboard_kg - 75.0).max(0.0);
                } else {
                    self.onboard_kg += 75.0;
                }
            }
            // Occasionally a passenger lingers in the doorway.
            if self.block_ticks_left == 0 && self.rng.gen_bool(p.dt_millis as f64 / 5000.0) {
                self.block_ticks_left = 1000 / p.dt_millis; // ~1 s
            }
        }
        if self.block_ticks_left > 0 {
            self.block_ticks_left -= 1;
        }

        next.set(m.door_blocked, self.block_ticks_left > 0);
        next.set(m.elevator_weight, self.onboard_kg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{elevator_table, initial_frame};
    use esafe_logic::Value;
    use esafe_sim::LaneSubsystem;

    #[test]
    fn traffic_eventually_presses_buttons() {
        let p = ElevatorParams::default();
        let (table, m) = elevator_table(&p);
        let mut traffic = PassengerTraffic::new(p, 3, m.clone());
        let mut s = initial_frame(&table, &m);
        let mut presses = 0;
        for tick in 0..2000u64 {
            let mut next = s.clone();
            traffic.step_lane(
                &SimTime {
                    tick,
                    dt_millis: p.dt_millis,
                },
                &s,
                &mut next,
            );
            for f in 0..p.floors as usize {
                if next.bool_or(m.hall_buttons[f], false) || next.bool_or(m.car_buttons[f], false) {
                    presses += 1;
                }
            }
            s = next;
        }
        assert!(presses > 0, "20 s of traffic must include presses");
    }

    #[test]
    fn weight_changes_only_with_open_door() {
        let p = ElevatorParams::default();
        let (table, m) = elevator_table(&p);
        let mut traffic = PassengerTraffic::new(p, 3, m.clone());
        let mut s = initial_frame(&table, &m);
        // Door closed: weight must stay zero.
        for tick in 0..2000u64 {
            let mut next = s.clone();
            traffic.step_lane(
                &SimTime {
                    tick,
                    dt_millis: p.dt_millis,
                },
                &s,
                &mut next,
            );
            assert_eq!(next.get(m.elevator_weight), Some(Value::Real(0.0)));
            s = next;
        }
    }
}
