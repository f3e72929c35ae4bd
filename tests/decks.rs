//! Integration tests for the shipped example decks
//! (`examples/decks/*.cir`): every deck must parse, elaborate, and
//! run — and the Listing-1 eletran deck must reproduce the hand-built
//! `mems_spice` API run exactly.

use mems::netlist::{
    batch_points, run_batch, run_deck, run_deck_with, AnalysisOutcome, BatchOptions, BatchResult,
    Deck, Elaborator, FsResolver,
};
use mems::numerics::rootfind::brent;
use mems::numerics::stats::settled_value;
use mems::spice::analysis::transient::{run as run_tran, TranOptions};
use mems::spice::circuit::Circuit;
use mems::spice::devices::{Damper, HdlDevice, Mass, Spring, VoltageSource};
use mems::spice::solver::SimOptions;
use mems::spice::wave::Waveform;

fn deck_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/decks")
        .join(name)
}

fn load(name: &str) -> Deck {
    let path = deck_path(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut resolver = FsResolver {
        base: deck_path(""),
    };
    Deck::parse_with_includes(&src, &mut resolver)
        .unwrap_or_else(|e| panic!("{name}: {}", e.render(&src)))
}

#[test]
fn every_shipped_deck_parses_and_elaborates() {
    let dir = deck_path("");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/decks exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "cir") {
            continue;
        }
        seen += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let mut resolver = FsResolver {
            base: deck_path(""),
        };
        let deck = Deck::parse_with_includes(&src, &mut resolver)
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
        let elab = Elaborator::new(&deck)
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
        let (mut ckt, _) = elab
            .build(&Default::default(), None)
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
        assert!(ckt.layout().n_unknowns > 0, "{}", path.display());
        assert!(
            !deck.analyses.is_empty(),
            "{} declares no analyses",
            path.display()
        );
    }
    assert!(seen >= 5, "expected at least 5 shipped decks, found {seen}");
}

// Constants of the Listing-1 / Fig. 3 system (paper Table 4).
const E0: f64 = 8.8542e-12;
const AREA: f64 = 1.0e-4;
const GAP: f64 = 0.15e-3;
const MASS: f64 = 1.0e-4;
const K: f64 = 200.0;
const ALPHA: f64 = 40e-3;

const LISTING1: &str = r#"
ENTITY eletran IS
 GENERIC (A, d, er : analog);
 PIN (a, b : electrical; c, d : mechanical1);
END ENTITY eletran;
ARCHITECTURE a OF eletran IS
VARIABLE e0, x : analog;
STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, d].tv;
      x := integ(S);
      [a, b].i %= e0*er*A/(d + x)*ddt(V);
      [c, d].f %= -e0*er*A*V*V/(2.0*(d+x)*(d+x));
  END RELATION;
END ARCHITECTURE a;
"#;

/// Hand-built equivalent of `eletran_transient.cir`: same names, same
/// device order (hence the same unknown layout), same waveform, same
/// integration options.
fn build_eletran_api_circuit() -> Circuit {
    let model = mems::hdl::HdlModel::compile(LISTING1, "eletran", None).unwrap();
    let mut ckt = Circuit::new();
    let drive = ckt.enode("drive").unwrap();
    let vel = ckt.mnode("vel").unwrap();
    let gnd = ckt.ground();
    ckt.add(VoltageSource::new(
        "vsrc",
        drive,
        gnd,
        Waveform::Pulse {
            v1: 0.0,
            v2: 10.0,
            delay: 2e-3,
            rise: 5e-3,
            fall: 5e-3,
            width: 120e-3,
            period: 0.0,
        },
    ))
    .unwrap();
    ckt.add(
        HdlDevice::new(
            "xducer",
            &model,
            &[("a", AREA), ("d", GAP), ("er", 1.0)],
            &[drive, gnd, vel, gnd],
        )
        .unwrap(),
    )
    .unwrap();
    ckt.add(Mass::new("mm1", vel, gnd, MASS)).unwrap();
    ckt.add(Spring::new("kk1", vel, gnd, K)).unwrap();
    ckt.add(Damper::new("dd1", vel, gnd, ALPHA)).unwrap();
    ckt
}

/// Acceptance: the deck run and the equivalent hand-built API run
/// agree within 1e-9 relative error.
#[test]
fn eletran_deck_matches_api_run_to_1e9() {
    // Without its `.PRINT`, the deck's transient records every unknown,
    // as the API run does.
    let mut deck = load("eletran_transient.cir");
    deck.prints.clear();
    let run = run_deck(&deck).unwrap();
    let deck_tran = match &run.outcomes[0].1 {
        AnalysisOutcome::Tran(tr) => tr,
        other => panic!("expected .TRAN outcome, got {other:?}"),
    };

    let mut ckt = build_eletran_api_circuit();
    // Mirror the deck's `.TRAN 0.2m 90m`: tstep is both h_init and h_max.
    let mut opts = TranOptions::new(90e-3);
    opts.h_init = Some(0.2e-3);
    opts.h_max = Some(0.2e-3);
    let api_tran = run_tran(&mut ckt, &opts, &SimOptions::default()).unwrap();

    assert_eq!(deck_tran.time.len(), api_tran.time.len());
    assert_eq!(deck_tran.labels, api_tran.labels);
    for label in ["v(drive)", "v(vel)", "i(kk1,0)"] {
        let a = deck_tran.trace(label).unwrap();
        let b = api_tran.trace(label).unwrap();
        let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * scale,
                "{label}[{i}]: deck {x:e} vs api {y:e} (scale {scale:e})"
            );
        }
    }

    // And both reproduce the paper's Table 4 static deflection.
    let x_spring: Vec<f64> = deck_tran
        .trace("i(kk1,0)")
        .unwrap()
        .iter()
        .map(|f| f / K)
        .collect();
    let settled = settled_value(&x_spring, 0.05);
    assert!(
        (settled - 1.0e-8).abs() < 3e-10,
        "settled x = {settled:e}, Table 4 says 1.0e-8"
    );
}

#[test]
fn relay_deck_dc_sweep_tracks_static_equilibrium() {
    let deck = load("relay_pull_in.cir");
    let run = run_deck(&deck).unwrap();
    let (var, result) = match &run.outcomes[0].1 {
        AnalysisOutcome::Dc { var, result } => (var, result),
        other => panic!("expected .DC outcome, got {other:?}"),
    };
    assert_eq!(var, "v(vbias)");
    let x = result.trace("i(xrelay,0)").unwrap();

    // Monotone gap closing, zero at zero bias.
    assert_eq!(x[0], 0.0);
    for w in x.windows(2) {
        assert!(w[1] > w[0] - 1e-15, "displacement must rise: {w:?}");
    }

    // Each point solves k·x = ε0·A·v²/(2(d−x)²) — compare to Brent.
    let (area, gap, k) = (4e-8, 2e-6, 5.0);
    for (v, xi) in result.values.iter().zip(&x) {
        if *v == 0.0 {
            continue;
        }
        let expect = brent(
            |x| k * x - E0 * area * v * v / (2.0 * (gap - x) * (gap - x)),
            0.0,
            gap / 3.0,
            1e-20,
        )
        .unwrap();
        assert!(
            (xi - expect).abs() < expect.abs() * 1e-6 + 1e-15,
            "v = {v}: deck {xi:e} vs brent {expect:e}"
        );
    }

    // The sweep's final point approaches (but stays below) the
    // pull-in travel d/3.
    let last = *x.last().unwrap();
    assert!(last > 0.3e-6 && last < gap / 3.0, "x(5.5 V) = {last:e}");
}

#[test]
fn speaker_deck_ac_peaks_near_damped_resonance() {
    let deck = load("speaker_ac.cir");
    let run = run_deck(&deck).unwrap();
    let ac = match &run.outcomes[0].1 {
        AnalysisOutcome::Ac(ac) => ac,
        other => panic!("expected .AC outcome, got {other:?}"),
    };
    let mag = ac.magnitude("v(cone)").unwrap();
    let (peak_idx, peak) = mag
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
        .unwrap();
    let f_peak = ac.freqs[peak_idx];
    // Mechanical f0 ≈ 195 Hz; the voice-coil coupling shifts and damps
    // the velocity resonance but keeps it in the same octave.
    assert!(
        (140.0..=280.0).contains(&f_peak),
        "velocity peak at {f_peak} Hz"
    );
    // Response rolls off on both sides of the peak.
    assert!(*peak > 2.0 * mag[0], "peak {peak} vs LF {}", mag[0]);
    assert!(
        *peak > 2.0 * mag.last().unwrap(),
        "peak {peak} vs HF {}",
        mag.last().unwrap()
    );
}

/// Acceptance: a ≥32-point deck batch runs in parallel with
/// identical results for any thread count.
#[test]
fn deck_batch_is_deterministic_across_thread_counts() {
    let src = "\
relay spring-spread monte carlo
.param area=4e-8 gap=2e-6 k=5
.HDL
ENTITY relaydc IS
  GENERIC (area, d, k : analog; er : analog := 1.0);
  PIN (a, b : electrical);
END ENTITY relaydc;
ARCHITECTURE a OF relaydc IS
CONSTANT e0 : analog := 8.8542e-12;
VARIABLE v : analog;
UNKNOWN x : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      v := [a, b].v;
      [a, b].i %= e0*er*area/(d - x)*ddt(v);
    EQUATION FOR dc, ac, transient =>
      k*x == e0*er*area*v*v/(2.0*(d - x)*(d - x));
  END RELATION;
END ARCHITECTURE a;
.ENDHDL
Vbias drive 0 DC 5
Xrelay drive 0 relaydc area={area} d={gap} k={k}
.OP
.PRINT op i(xrelay,0)
.MC 36 SEED=2026 k TOL=0.1
.END
";
    let deck = Deck::parse(src).unwrap();
    assert_eq!(batch_points(&deck).unwrap().len(), 36);

    let serial = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
    let parallel = run_batch(&deck, &BatchOptions::with_threads(6)).unwrap();
    assert_eq!(serial.threads_used, 1);
    assert_eq!(parallel.threads_used, 6);
    assert_eq!(serial.ok_count(), 36);
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.point, b.point);
        let (ma, mb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(ma.len(), mb.len());
        for (x, y) in ma.iter().zip(mb) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "{}", x.name);
        }
    }
    // The spread actually moves the displacement (the batch is not
    // degenerate): softer springs deflect further.
    let agg = serial.aggregate();
    let (_, stats) = agg
        .iter()
        .find(|(name, _)| name == "op:i(xrelay,0)")
        .expect("displacement metric aggregated");
    assert_eq!(stats.n, 36);
    assert!(stats.max > stats.min * 1.05, "{stats:?}");
}

// ---------------------------------------------------------------
// Warm-context and thread-count invariance
// ---------------------------------------------------------------

/// Asserts two deck runs are bit-identical outcome by outcome.
fn assert_runs_bit_identical(a: &mems::netlist::DeckRun, b: &mems::netlist::DeckRun, what: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{what}: outcome count");
    let bits_eq = |x: &[f64], y: &[f64], ctx: &str| {
        assert_eq!(x.len(), y.len(), "{what}/{ctx}: length");
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}/{ctx}[{i}]: {p:e} vs {q:e}"
            );
        }
    };
    for (i, ((_, oa), (_, ob))) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        match (oa, ob) {
            (AnalysisOutcome::Op(x), AnalysisOutcome::Op(y)) => {
                assert_eq!(x.layout.labels, y.layout.labels);
                bits_eq(&x.x, &y.x, &format!("op{i}"));
            }
            (AnalysisOutcome::Dc { result: x, .. }, AnalysisOutcome::Dc { result: y, .. }) => {
                bits_eq(&x.values, &y.values, &format!("dc{i}.values"));
                assert_eq!(x.labels, y.labels);
                assert_eq!(x.samples.len(), y.samples.len());
                for (k, (p, q)) in x.samples.iter().zip(&y.samples).enumerate() {
                    bits_eq(p, q, &format!("dc{i}.row{k}"));
                }
            }
            (AnalysisOutcome::Ac(x), AnalysisOutcome::Ac(y)) => {
                bits_eq(&x.freqs, &y.freqs, &format!("ac{i}.freqs"));
                assert_eq!(x.labels, y.labels);
                assert_eq!(x.data.len(), y.data.len());
                for (k, (p, q)) in x.data.iter().zip(&y.data).enumerate() {
                    for (j, (z, w)) in p.iter().zip(q).enumerate() {
                        assert_eq!(
                            (z.re.to_bits(), z.im.to_bits()),
                            (w.re.to_bits(), w.im.to_bits()),
                            "{what}/ac{i}.row{k}[{j}]"
                        );
                    }
                }
            }
            (AnalysisOutcome::Tran(x), AnalysisOutcome::Tran(y)) => {
                bits_eq(&x.time, &y.time, &format!("tran{i}.time"));
                assert_eq!(x.labels, y.labels);
                assert_eq!(x.samples.len(), y.samples.len());
                for (k, (p, q)) in x.samples.iter().zip(&y.samples).enumerate() {
                    bits_eq(p, q, &format!("tran{i}.row{k}"));
                }
            }
            (a, b) => panic!("{what}: outcome {i} kind mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// Acceptance: on every shipped deck a reused [`RunCtx`] — its
/// workspace, sparse pattern and AC system warm from an earlier run —
/// answers bit-identically to a fresh context, both on a repeated run
/// and under a perturbed parameter.
///
/// [`RunCtx`]: mems::netlist::RunCtx
#[test]
fn reused_runctx_matches_fresh_context_on_every_deck() {
    use mems::netlist::{run_elaborated_ctx, RunCtx};
    let dir = deck_path("");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/decks exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "cir") {
            continue;
        }
        seen += 1;
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&path).unwrap();
        let mut resolver = FsResolver {
            base: deck_path(""),
        };
        let mut deck = Deck::parse_with_includes(&src, &mut resolver).unwrap();
        // Without `.PRINT`, `.TRAN` and `.AC` record every unknown.
        deck.prints.clear();
        let elab = Elaborator::new(&deck).unwrap();
        let nominal = Default::default();

        // One context, run twice: the second run starts warm.
        let mut ctx = RunCtx::default();
        let first = run_elaborated_ctx(&elab, &nominal, &mut ctx).unwrap();
        let second = run_elaborated_ctx(&elab, &nominal, &mut ctx).unwrap();
        assert_runs_bit_identical(&first, &second, &format!("{name}: second run"));

        // Perturb the deck's first parameter: the warm context must
        // match a fresh one under the same override.
        let param = deck.params.first().expect("shipped decks declare params");
        let mut over = mems::netlist::elab::ParamEnv::new();
        over.insert(
            param.name.clone(),
            param.value.eval(&Default::default()).unwrap() * 1.05,
        );
        let fresh = run_elaborated_ctx(&elab, &over, &mut RunCtx::default()).unwrap();
        let warm = run_elaborated_ctx(&elab, &over, &mut ctx).unwrap();
        assert_runs_bit_identical(&fresh, &warm, &format!("{name}: perturbed"));
    }
    assert!(seen >= 5, "expected all 5 shipped decks, found {seen}");
}

/// Asserts two batches are bit-identical point by point.
fn assert_batches_bit_identical(a: &BatchResult, b: &BatchResult) {
    assert_eq!(a.points.len(), b.points.len());
    for (a, b) in a.points.iter().zip(&b.points) {
        assert_eq!(a.point, b.point);
        let (ma, mb) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(ma.len(), mb.len());
        for (x, y) in ma.iter().zip(mb) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "{}", x.name);
        }
    }
}

/// Acceptance: the `.STEP` batch of `resonator_step.cir` is
/// bit-identical on 1 and 4 worker threads.
#[test]
fn resonator_step_batch_is_thread_invariant() {
    let deck = load("resonator_step.cir");
    let serial = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
    let parallel = run_batch(&deck, &BatchOptions::with_threads(4)).unwrap();
    assert!(serial.ok_count() >= 5, "all points solve");
    assert_batches_bit_identical(&serial, &parallel);
}

/// A swept value that zeroes a resistance fails only that point, with
/// the same spanned diagnostic a single run under that value reports.
#[test]
fn swept_zero_resistance_fails_only_that_point() {
    let src = "f\n.param rbot=1k\nVs in 0 1\nR1 in out 1k\nR2 out 0 {rbot}\n.op\n.step param rbot LIST 1k 0 2k\n";
    let deck = Deck::parse(src).unwrap();
    let batch = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
    assert_eq!(batch.ok_count(), 2);
    assert!(batch.points[0].outcome.is_ok() && batch.points[2].outcome.is_ok());
    let failed = batch.points[1].outcome.as_ref().unwrap_err();
    assert!(failed.contains("resistance must be nonzero"), "{failed}");

    let zero = [("rbot".to_string(), 0.0)].into_iter().collect();
    let err = run_deck_with(&deck, &zero).unwrap_err();
    assert_eq!(&err.to_string(), failed);
    let rendered = err.render(src);
    assert!(rendered.contains("(line 5, col"), "{rendered}");
}

// ---------------------------------------------------------------
// Hierarchical (.SUBCKT) decks
// ---------------------------------------------------------------

/// Acceptance: a two-level nested deck flattens **bit-identically**
/// to its hand-flattened equivalent across `.OP`, `.AC`, and `.TRAN`.
/// Only instance/node *names* differ between the two decks (the
/// hierarchy prefixes); device order, node creation order, and every
/// value are the same, so the solver trajectories must agree to the
/// last bit. Compared positionally (labels intentionally differ).
#[test]
fn nested_subckt_deck_flattens_bit_identically_to_hand_flat() {
    let nested = Deck::parse(
        "nested rc chain\n\
         .param rtop=1k\n\
         .subckt stage in out PARAMS: r=1k c=100n\n\
         Rt in out {r}\n\
         Cb out 0 {c}\n\
         .ends stage\n\
         Vs in 0 SIN(0 1 1k) AC 1 0\n\
         X1 in a stage r={rtop}\n\
         X2 a b stage c=50n\n\
         Rl b 0 1meg\n\
         .op\n\
         .ac dec 5 10 100k\n\
         .tran 10u 2m\n",
    )
    .unwrap();
    let flat = Deck::parse(
        "hand-flattened rc chain\n\
         .param rtop=1k\n\
         Vs in 0 SIN(0 1 1k) AC 1 0\n\
         Rt1 in a {rtop}\n\
         Cb1 a 0 100n\n\
         Rt2 a b 1k\n\
         Cb2 b 0 50n\n\
         Rl b 0 1meg\n\
         .op\n\
         .ac dec 5 10 100k\n\
         .tran 10u 2m\n",
    )
    .unwrap();
    let rn = run_deck(&nested).unwrap();
    let rf = run_deck(&flat).unwrap();
    assert_eq!(rn.outcomes.len(), rf.outcomes.len());
    // Neither deck prints, so `.AC` and `.TRAN` record every unknown.
    let n = match &rn.outcomes[0].1 {
        AnalysisOutcome::Op(op) => op.layout.n_unknowns,
        other => panic!("expected .OP first, got {other:?}"),
    };
    let bits_eq = |x: &[f64], y: &[f64], ctx: &str| {
        assert_eq!(x.len(), y.len(), "{ctx}: length");
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{ctx}[{i}]: {p:e} vs {q:e}");
        }
    };
    for (i, ((_, on), (_, of))) in rn.outcomes.iter().zip(&rf.outcomes).enumerate() {
        match (on, of) {
            (AnalysisOutcome::Op(a), AnalysisOutcome::Op(b)) => {
                // Ports map straight onto the caller's nodes, so this
                // deck (no private nodes) even shares its node labels
                // with the hand-flat one.
                assert_eq!(a.layout.labels[1], "v(a)");
                assert_eq!(b.layout.labels[1], "v(a)");
                bits_eq(&a.x, &b.x, &format!("op{i}"));
            }
            (AnalysisOutcome::Ac(a), AnalysisOutcome::Ac(b)) => {
                bits_eq(&a.freqs, &b.freqs, "ac.freqs");
                assert_eq!((a.labels.len(), b.labels.len()), (n, n));
                assert_eq!(a.data.len(), b.data.len());
                for (k, (p, q)) in a.data.iter().zip(&b.data).enumerate() {
                    for (j, (z, w)) in p.iter().zip(q).enumerate() {
                        assert_eq!(
                            (z.re.to_bits(), z.im.to_bits()),
                            (w.re.to_bits(), w.im.to_bits()),
                            "ac row {k} col {j}"
                        );
                    }
                }
            }
            (AnalysisOutcome::Tran(a), AnalysisOutcome::Tran(b)) => {
                bits_eq(&a.time, &b.time, "tran.time");
                assert_eq!((a.labels.len(), b.labels.len()), (n, n));
                assert_eq!(a.samples.len(), b.samples.len());
                for (k, (p, q)) in a.samples.iter().zip(&b.samples).enumerate() {
                    bits_eq(p, q, &format!("tran row {k}"));
                }
            }
            (a, b) => panic!("outcome {i} kind mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// Acceptance: the shipped two-level bridge deck's hierarchical
/// `.STEP` (over `x1.k`) is bit-identical on 1 and 4 worker threads.
#[test]
fn bridge_deck_hierarchical_step_is_thread_invariant() {
    let deck = load("bridge_cells.cir");
    let points = batch_points(&deck).unwrap();
    assert_eq!(points.len(), 3);
    assert_eq!(points[0].overrides, vec![("x1.k".to_string(), 150.0)]);

    let serial = run_batch(&deck, &BatchOptions::with_threads(1)).unwrap();
    let parallel = run_batch(&deck, &BatchOptions::with_threads(4)).unwrap();
    assert_eq!(serial.ok_count(), 3, "all hierarchical points solve");
    assert_batches_bit_identical(&serial, &parallel);
    // The sweep only moves instance X1: its settled spring force
    // stays the electrostatic drive force (the suspension always
    // balances it), while X2's metrics are untouched across points.
    let m = |p: usize, name: &str| {
        serial.points[p].outcome.as_ref().unwrap()[..]
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name}"))
            .value
    };
    let f_expected = E0 * AREA * 100.0 / (2.0 * GAP * GAP);
    for p in 0..3 {
        let f = m(p, "tran:i(x1.kk,0):settled");
        assert!((f - f_expected).abs() < 0.02 * f_expected, "{f:e}");
    }
    // X2 is only perturbed through the (weak) electrical coupling of
    // the shared drive node — its peak velocity barely moves while
    // X1's softens visibly.
    let v2_spread = (m(0, "tran:v(v2):peak") - m(2, "tran:v(v2):peak")).abs();
    assert!(
        v2_spread < 1e-4 * m(0, "tran:v(v2):peak").abs(),
        "{v2_spread:e}"
    );
    assert!(
        m(0, "tran:v(v1):peak") > 1.2 * m(2, "tran:v(v1):peak"),
        "softer x1 spring must ring further"
    );
}
