//! A journal header names the sweep's cell count, and that count is
//! hostile input: a 48-byte file with a valid CRC can claim any number
//! of cells. Opening such a journal must cost memory in proportion to
//! the records it holds, not to the count its header claims, and a
//! checkpointed sweep must refuse it as a journal for a different
//! sweep.
//!
//! A separate test binary: sizing by the header's count aborts the
//! whole process (allocation failure), not just one test.

use esafe_harness::crc::crc32;
use esafe_harness::journal::{encode_record, HEADER_BYTES, JOURNAL_MAGIC, JOURNAL_VERSION};
use esafe_harness::{CellDelta, ExperimentConfig, JournalRecord, Substrate, Sweep, SweepJournal};
use esafe_logic::{EvalError, SignalTable};
use esafe_monitor::MonitorSuite;
use esafe_sim::Simulator;
use std::path::PathBuf;
use std::sync::Arc;

/// A header for a sweep of `cells` cells under seed 0 and the default
/// timing policy, with a valid CRC.
fn header(cells: u64) -> Vec<u8> {
    let config = ExperimentConfig::default();
    let mut out = Vec::with_capacity(HEADER_BYTES);
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&cells.to_le_bytes());
    out.extend_from_slice(&config.post_terminal_ms.to_le_bytes());
    out.extend_from_slice(&config.correlation_window_ms.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(out.len(), HEADER_BYTES);
    out
}

fn record(cell: usize) -> Vec<u8> {
    encode_record(&JournalRecord::Completed(CellDelta {
        cell,
        retries: 0,
        terminated_early: false,
        terminal_event: false,
        hits: 1,
        false_negatives: 0,
        false_positives: 0,
        violations: vec![("G".to_owned(), 1)],
    }))
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "esafe-journal-budget-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A substrate the checkpointed sweep never gets to build: it refuses
/// the journal first.
struct Idle(Arc<SignalTable>);

impl Substrate for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn label(&self) -> String {
        "idle".to_owned()
    }
    fn duration_ms(&self) -> u64 {
        1
    }
    fn signal_table(&self) -> &Arc<SignalTable> {
        &self.0
    }
    fn build_simulator(&self) -> Simulator {
        Simulator::new(1, &self.0)
    }
    fn build_monitors(&self) -> Result<MonitorSuite, EvalError> {
        Ok(MonitorSuite::new(self.0.clone()))
    }
}

#[test]
fn a_header_naming_huge_cell_counts_opens_in_bounded_memory() {
    let table = SignalTable::builder().finish();
    for (name, cells) in [("max", u64::MAX), ("tera", 1u64 << 44)] {
        let half = usize::try_from(cells / 2).expect("64-bit target");
        let path = temp_path(name);
        let mut bytes = header(cells);
        bytes.extend_from_slice(&record(half));
        std::fs::write(&path, &bytes).unwrap();

        let mut journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.completed_cells(), 1, "{name}");
        assert!(journal.is_completed(half), "{name}");
        assert!(!journal.is_completed(0), "{name}");

        let sweep = Sweep::new(vec![0u8, 1]);
        let err = sweep
            .run_aggregate_checkpointed(|_cell, _seed| Idle(table.clone()), 4, &mut journal)
            .unwrap_err();
        assert!(
            format!("{err}").contains("different sweep"),
            "{name}: unexpected error: {err}"
        );
        drop(journal);
        std::fs::remove_file(&path).unwrap();
    }
}
