//! Elevator-trace golden: the frames the fleet workload replays.
//!
//! `FleetWorkload::elevator` records one healthy elevator run once and
//! fans it out as every replayed fleet stream, so its frames are the
//! serve path's whole input. This pins that recording byte for byte:
//! `build_elevator` over the default family, no faults, seed 7, stepped
//! 2 048 ticks, with the frame count and a CRC-32 over every frame's
//! length-prefixed wire encoding (`tcp::write_frame`). Nothing else pins
//! the elevator simulator's frames: the report golden pins verdicts, and
//! a serve check derives its expected verdicts from this same trace.
//! `golden/elevator_fleet_trace_seed7.json` was written before
//! `build_elevator` became a one-lane batched simulator.

use emergent_safety::elevator::faults::ElevatorFaults;
use emergent_safety::elevator::{build_elevator, ElevatorFamily};
use emergent_safety::harness::crc::crc32;
use emergent_safety::scenarios::FleetWorkload;
use emergent_safety::serve::tcp::write_frame;

const TICKS: u64 = 2048;

fn digest() -> String {
    let family = ElevatorFamily::default();
    let mut sim = build_elevator(
        *family.params(),
        ElevatorFaults::none(),
        7,
        family.table(),
        family.sigs(),
    );
    let mut bytes = Vec::new();
    for _ in 0..TICKS {
        sim.step();
        write_frame(&mut bytes, sim.state()).expect("frames fit the wire budget");
    }
    format!(
        "{{\"builder\": \"build_elevator\", \"family\": \"default\", \"faults\": \"none\", \
         \"seed\": 7, \"frames\": {TICKS}, \"end_time_s\": {:?}, \"wire_bytes\": {}, \
         \"crc32\": \"{:08x}\"}}\n",
        sim.seconds(),
        bytes.len(),
        crc32(&bytes),
    )
}

#[test]
fn elevator_fleet_trace_matches_the_golden() {
    assert_eq!(
        digest(),
        include_str!("golden/elevator_fleet_trace_seed7.json"),
        "the elevator trace the fleet replays changed"
    );
    assert_eq!(FleetWorkload::elevator(TICKS).trace_ticks(), TICKS as usize);
}
