//! `mems check` refuses the analysis cards `mems run` cannot finish —
//! malformed ranges and outputs past the point limit — with a caret
//! at the card, before anything is simulated or allocated; both
//! commands refuse a resistance whose conductance overflows, with a
//! caret at the value; `mems plot --probe` reaches every unknown, not
//! only the printed ones; and a reader that closes stdout early ends
//! a command quietly.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn check_refuses_bad_analysis_cards_fast() {
    let dir = std::env::temp_dir().join(format!("mems-check-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, card) in [
        ".tran 1e-18 1",
        ".ac dec 1e12 1 1e9",
        ".dc V1 0 1 1e-15",
        ".tran 1n 1e-300",
        ".ac lin 2 0 0",
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("card{i}.cir"));
        std::fs::write(
            &path,
            format!("tr\nV1 1 0 PULSE(0 1 0 1n 1n 1n 2n)\nR1 1 2 1k\nC1 2 0 1p\n{card}\n.print tran v(2)\n.end\n"),
        )
        .unwrap();
        let t0 = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_mems"))
            .arg("check")
            .arg(&path)
            .output()
            .unwrap();
        let took = t0.elapsed();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{card}: {stderr}");
        assert!(
            stderr.contains(&format!("{card}\n^")) && stderr.contains("(line 5, col 1)"),
            "{card}: no caret at the card in\n{stderr}"
        );
        assert!(took < Duration::from_millis(100), "{card}: took {took:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `R1 1 0 1e-320` has a positive, finite value whose conductance
/// 1/R is infinite: elaboration refuses it at the value, so `mems
/// check` and `mems run` both exit 1 before anything is assembled.
#[test]
fn overflowing_conductance_is_refused_at_the_value() {
    let dir = std::env::temp_dir().join(format!("mems-check-cli-r-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny_r.cir");
    std::fs::write(
        &path,
        "tiny r\nV1 2 0 PULSE(0 1 0 1m 1m 1m 4m)\nR9 2 1 1k\nR1 1 0 1e-320\n.tran 0.1m 2m\n.end\n",
    )
    .unwrap();
    for command in ["check", "run"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mems"))
            .arg(command)
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("resistance is too small: 1/R overflows, got 9.99")
                && stderr.contains("R1 1 0 1e-320\n       ^")
                && stderr.contains("(line 4, col 8)"),
            "{command}: no caret at the value in\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `mems plot` of the shipped bridge deck with one `--probe`.
fn plot_bridge(probe: &str) -> std::process::Output {
    let deck = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/decks/bridge_cells.cir"
    );
    Command::new(env!("CARGO_BIN_EXE_mems"))
        .args(["plot", deck, "--probe", probe])
        .output()
        .unwrap()
}

/// A run records only the printed traces, but a probe may name any
/// unknown: `x2.mid` is not on the deck's `.PRINT` card.
#[test]
fn plot_probe_reaches_an_unprinted_unknown() {
    let out = plot_bridge("x2.mid");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("[* v(x2.mid)]"), "{stdout}");
}

/// The unknown-probe error lists every unknown, printed or not.
#[test]
fn plot_probe_error_lists_unprinted_unknowns() {
    let out = plot_bridge("nosuch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("probe `v(nosuch)` does not name a trace") && stderr.contains("v(x2.mid)"),
        "{stderr}"
    );
}

/// `mems run … --json - | head -c 10`: the Listing-1 transient's
/// report outgrows a pipe buffer, so the reader closes the pipe while
/// the command still writes. That ends the command with exit 0 and no
/// panic message.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    let deck = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/decks/eletran_transient.cir"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_mems"))
        .args(["run", deck, "--json", "-"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut head = [0u8; 10];
    // The pipe's read end drops, and closes, at the end of this statement.
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(head.starts_with(b"{\"deck\":"), "{head:?}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
