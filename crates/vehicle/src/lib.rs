//! The semi-autonomous automotive substrate of the thesis's Chapter 5
//! evaluation: a deterministic 1 kHz vehicle simulation with five
//! driver-assistance features (CA, RCA, ACC, LCA, PA), a two-stage
//! arbiter, a scripted driver/HMI, and a point-mass plant — plus the nine
//! vehicle-level safety goals (Tables 5.1–5.2), the Table 5.3 monitoring
//! hierarchy, and a [`config::DefectSet`] that re-injects every defect the
//! thesis's monitors uncovered in the research lab's partial
//! implementation.
//!
//! # Example — catching the rogue-PA defect through the harness
//!
//! ```
//! use esafe_harness::Experiment;
//! use esafe_vehicle::config::DefectSet;
//! use esafe_vehicle::driver::DriverAction;
//! use esafe_vehicle::dynamics::{Scene, SceneObject};
//! use esafe_vehicle::substrate::VehicleSubstrate;
//!
//! let substrate = VehicleSubstrate::new(
//!     DefectSet::thesis(),
//!     Scene { lead: Some(SceneObject::constant(20.0, 0.0)),
//!             rear: None },
//!     vec![(0.5, DriverAction::Enable("CA".into(), true)),
//!          (1.0, DriverAction::Throttle(0.10))],
//! )
//! .with_duration_s(0.5);
//! let report = Experiment::new(&substrate).run().unwrap();
//! // The rogue PA requests violate subgoal 4B at PA within the first
//! // half-second (the thesis's scenario-1 false positive).
//! assert!(!report.violations_for("4B:PA").is_empty());
//! ```

pub mod arbiter;
pub mod builder;
pub mod config;
pub mod driver;
pub mod dynamics;
pub mod features;
pub mod goals;
pub mod icpa_model;
pub mod probe;
pub mod signals;
pub mod substrate;

pub use config::{DefectSet, VehicleParams};
pub use substrate::{VehicleFamily, VehicleSubstrate};
