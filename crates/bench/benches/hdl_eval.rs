//! The behavioral hot path: HDL evaluation and batch elaboration.
//!
//! Group 1 times one Newton-iteration evaluation pass of the paper's
//! Listing-1 transducer (plus a beefier nonlinear variant) through
//! the reference tree-walking interpreter and through the bytecode VM
//! with its reusable register banks — the per-iteration cost every
//! DC/transient solve pays per behavioral device.
//!
//! Group 2 times a 40-point `.STEP` batch of an HDL deck with
//! per-point re-elaboration (parse tree → circuit per point, the
//! PR 2 behavior) against the elaborate-once `set_param` path (one
//! circuit per worker, parameters re-bound in place).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mems_hdl::eval::{DualReal, EvalEnv};
use mems_hdl::model::{EvalMode, HdlModel, Instance};
use mems_netlist::{run_batch, BatchOptions, Deck};
use mems_numerics::ode::IntegrationMethod;

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

/// A denser model: branch logic, selection builtins, a table lookup,
/// and transcendentals on top of the Listing-1 structure.
const GNARLY: &str = r#"
ENTITY gnarly IS
 GENERIC (A, d, er : analog; vsat : analog := 12.0);
 PIN (a, b : electrical; c, dd : mechanical1);
END ENTITY gnarly;
ARCHITECTURE a OF gnarly IS
VARIABLE e0, x, v, cap, fmag : analog;
STATE S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      v := limit([a, b].v, -vsat, vsat);
      S := [c, dd].tv;
      x := integ(S);
      cap := e0*er*A/(d + x) * (1.0 + 0.02*tanh(v/vsat));
      IF v < 0.0 THEN
        fmag := -cap*v*v/(2.0*(d+x)) * table1d(v, -12.0, 0.8, 0.0, 1.0, 12.0, 1.2);
      ELSE
        fmag := -cap*v*v/(2.0*(d+x)) * (1.0 + 0.1*sin(v));
      END IF;
      [a, b].i %= cap*ddt(v) + 1.0e-12*tanh(v)*sqrt(1.0 + abs(v));
      [c, dd].f %= min(fmag, 0.0);
  END RELATION;
END ARCHITECTURE a;
"#;

/// Minimal simulator stand-in: two across quantities, contributions
/// summed into a sink so nothing is optimized away.
struct SinkEnv {
    v_elec: f64,
    v_mech: f64,
    sink: f64,
}

impl EvalEnv<DualReal> for SinkEnv {
    fn n_grad(&self) -> usize {
        2
    }
    fn across(&self, branch: usize) -> DualReal {
        let v = if branch == 0 {
            self.v_elec
        } else {
            self.v_mech
        };
        DualReal::variable(v, 2, branch)
    }
    fn unknown(&self, _index: usize) -> DualReal {
        unreachable!("bench models declare no unknowns")
    }
    fn contribute(&mut self, _branch: usize, value: DualReal) {
        self.sink += value.v + value.g[0] + value.g[1];
    }
    fn residual(&mut self, _index: usize, _value: DualReal) {}
    fn report(&mut self, _message: &str) {}
}

fn primed_instance(src: &str, entity: &str, mode: EvalMode) -> Instance {
    let model = HdlModel::compile(src, entity, None).expect("bench model compiles");
    let mut inst = model
        .instantiate("i1", &[("a", 1.0e-4), ("d", 0.15e-3), ("er", 1.0)])
        .expect("bench model instantiates");
    inst.set_eval_mode(mode);
    let mut env = SinkEnv {
        v_elec: 0.0,
        v_mech: 0.0,
        sink: 0.0,
    };
    inst.eval_dc(&mut env).expect("dc pass");
    inst.commit_dc();
    inst
}

fn bench_eval(c: &mut Criterion) {
    mems_bench::print_banner(
        "HDL evaluation",
        "per-Newton-iteration pass: tree-walk interpreter vs bytecode VM",
    );
    for (entity, src) in [("eletran", LISTING1), ("gnarly", GNARLY)] {
        let group_name = format!("hdl_eval_{entity}_transient_pass");
        let mut group = c.benchmark_group(&group_name);
        for (id, mode) in [
            ("tree_walk", EvalMode::TreeWalk),
            ("bytecode", EvalMode::Bytecode),
        ] {
            let mut inst = primed_instance(src, entity, mode);
            let mut env = SinkEnv {
                v_elec: 0.0,
                v_mech: 1e-6,
                sink: 0.0,
            };
            let h = 1e-6;
            let mut k = 0u64;
            group.bench_function(id, |b| {
                b.iter(|| {
                    k += 1;
                    env.v_elec = 5.0 + (k % 7) as f64;
                    inst.eval_transient(h, h, IntegrationMethod::Trapezoidal, &mut env)
                        .expect("transient pass");
                    black_box(env.sink)
                })
            });
        }
        group.finish();
    }
}

/// A `.STEP` batch over an HDL deck: 40 operating points of the
/// Listing-1 transducer loaded by the Fig. 3 resonator.
fn hdl_step_deck() -> String {
    format!(
        "eletran bias .step\n.param vbias=10 area=1e-4 gap=0.15e-3 mass=1e-4 k=200 alpha=40e-3\n\
         .HDL{LISTING1}.ENDHDL\n\
         Vs drive 0 {{vbias}}\n\
         Xducer drive 0 vel 0 eletran a={{area}} d={{gap}} er=1\n\
         Mm vel 0 {{mass}}\nKk vel 0 {{k}}\nDd vel 0 {{alpha}}\n\
         .op\n.print op v(vel) i(kk,0)\n\
         .step param vbias 1 40 1\n"
    )
}

fn bench_batch(c: &mut Criterion) {
    mems_bench::print_banner(
        "HDL batch elaboration",
        "40-point .STEP: per-point re-elaboration vs elaborate-once set_param",
    );
    let src = hdl_step_deck();
    let deck = Deck::parse(&src).expect("bench deck parses");
    for (id, reelaborate) in [("reelaborate_per_point", true), ("elaborate_once", false)] {
        let opts = BatchOptions {
            threads: 1,
            reelaborate,
            cancel: None,
        };
        // Sanity outside the timed region.
        let check = run_batch(&deck, &opts).expect("batch runs");
        assert_eq!(check.ok_count(), 40, "{id}: points failed");
        let mut group = c.benchmark_group("hdl_step_40pt");
        group.sample_size(10);
        group.bench_function(id, |b| {
            b.iter(|| run_batch(&deck, &opts).expect("batch runs"))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_eval, bench_batch);
criterion_main!(benches);
