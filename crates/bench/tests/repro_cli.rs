//! `repro` refuses a scenario number outside the thesis's ten, a table
//! or figure id it does not know, and the stripe-width option it no
//! longer has, as usage errors (exit 2) — before any sweep starts and
//! without a panic.

use std::process::Command;

/// Runs `repro` with `args`; returns its exit code and standard error.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn scenario_numbers_outside_one_to_ten_are_usage_errors() {
    for args in [
        &["--ablation", "foo"][..],
        &["--ablation", "99"],
        &["--ablation", "0"],
        &["--ablation", "-1"],
        &["--json", "99"],
        &["--json", "0"],
        &["--table", "d11"],
        &["--table", "d0"],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("scenario number 1–10"),
            "{args:?} names the valid range: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_table_and_figure_ids_are_usage_errors() {
    for (args, message) in [
        (&["--table", "zz"][..], "unknown table id `zz`"),
        (&["--table", "b14"], "no appendix table `b14`"),
        (&["--figure", "5.16"], "unknown figure id `5.16`"),
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn the_stripe_width_is_not_an_option() {
    for args in [
        &["--mega-grid", "--subset", "1", "--width", "16"][..],
        &["--replay-corpus", "no-such-corpus", "--width", "4"],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown argument `--width`"),
            "{args:?}: {stderr}"
        );
    }
}
