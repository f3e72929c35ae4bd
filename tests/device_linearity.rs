//! Linearity is tested, not trusted.
//!
//! A device that reports [`Device::is_linear`] lets Newton accept its
//! circuit's first undamped update, which is exact only when `F` is
//! affine in the unknowns. For every linear device type, with random
//! parameters, this file assembles the device alone at two random
//! iterates, under `LoadKind::Dc` (random `gmin` and `source_scale`)
//! and under `LoadKind::Transient` with each integration method after
//! committed histories, and checks that
//!
//! - every Jacobian entry is bit-for-bit the same at both iterates;
//! - `F(x2) − F(x1) = J·(x2 − x1)` to 1e-12 of the row scale.
//!
//! The product source (`B` card) and the Listing-1 behavioral model
//! report `false`, and the same check fails on them.

use mems::hdl::HdlModel;
use mems::numerics::ode::IntegrationMethod;
use mems::spice::circuit::{Circuit, NodeId, UnknownLayout};
use mems::spice::device::{CommitKind, Device, LoadKind};
use mems::spice::devices::{
    Capacitor, Cccs, Ccvs, CurrentSource, Damper, Gyrator, HdlDevice, IdealTransformer, Inductor,
    Mass, ProductVccs, Resistor, Spring, Vccs, Vcvs, VoltageSource,
};
use mems::spice::solver::{assemble, newton_in, SimOptions, Workspace};
use mems::spice::wave::Waveform;
use mems::spice::{FillOrdering, MatrixBackend};
use proptest::prelude::*;

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

/// Draws successive values in `[0, 1)` from a proptest-generated pool.
struct Draw<'a> {
    pool: &'a [f64],
    next: usize,
}

impl Draw<'_> {
    fn unit(&mut self) -> f64 {
        let v = self.pool[self.next % self.pool.len()];
        self.next += 1;
        v
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform in `[lo, hi)`, for positive element values.
    fn log(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    /// A signed gain in `±[0.1, 10)`.
    fn gain(&mut self) -> f64 {
        let g = self.log(0.1, 10.0);
        if self.unit() < 0.5 {
            -g
        } else {
            g
        }
    }

    /// One of the four nodes or ground.
    fn pin(&mut self, nodes: &[NodeId; 5]) -> NodeId {
        nodes[((self.unit() * 5.0) as usize).min(4)]
    }

    /// A waveform of each kind in turn, with random values.
    fn wave(&mut self, kind: usize) -> Waveform {
        match kind % 4 {
            0 => Waveform::Dc(self.uniform(-5.0, 5.0)),
            1 => Waveform::Sin {
                offset: self.uniform(-1.0, 1.0),
                ampl: self.uniform(0.1, 2.0),
                freq: self.log(10.0, 1e4),
                delay: self.uniform(0.0, 1e-3),
                theta: self.uniform(0.0, 10.0),
            },
            2 => Waveform::Pulse {
                v1: self.uniform(-1.0, 1.0),
                v2: self.uniform(-1.0, 1.0),
                delay: self.uniform(0.0, 1e-3),
                rise: self.log(1e-5, 1e-3),
                fall: self.log(1e-5, 1e-3),
                width: self.log(1e-5, 1e-3),
                period: 5e-3,
            },
            _ => Waveform::Pwl(vec![
                (0.0, self.uniform(-1.0, 1.0)),
                (self.uniform(1e-4, 2e-3), self.uniform(-1.0, 1.0)),
                (3e-3, self.uniform(-1.0, 1.0)),
            ]),
        }
    }
}

/// Every device type under test, built with random parameters on
/// random pins.
fn devices(d: &mut Draw<'_>, nodes: &[NodeId; 5], model: &HdlModel) -> Vec<Box<dyn Device>> {
    let mut out: Vec<Box<dyn Device>> = Vec::new();
    let [p, q, r, s] = [d.pin(nodes), d.pin(nodes), d.pin(nodes), d.pin(nodes)];
    out.push(Box::new(Resistor::new("r", p, q, d.log(1.0, 1e4))));
    out.push(Box::new(Capacitor::new("c", p, q, d.log(1e-9, 1e-3))));
    out.push(Box::new(Inductor::new("l", p, q, d.log(1e-6, 1.0))));
    out.push(Box::new(Mass::new("m", p, q, d.log(1e-6, 1e-2))));
    out.push(Box::new(Spring::new("k", p, q, d.log(1.0, 1e3))));
    out.push(Box::new(Damper::new("d", p, q, d.log(1e-3, 1.0))));
    for kind in 0..4 {
        out.push(Box::new(VoltageSource::new("v", p, q, d.wave(kind))));
        out.push(Box::new(CurrentSource::new("i", p, q, d.wave(kind))));
    }
    out.push(Box::new(Vccs::new("g", p, q, r, s, d.gain())));
    out.push(Box::new(Vcvs::new("e", p, q, r, s, d.gain())));
    out.push(Box::new(Cccs::new("f", p, q, r, s, d.gain())));
    out.push(Box::new(Ccvs::new("h", p, q, r, s, d.gain())));
    out.push(Box::new(IdealTransformer::new("t", p, q, r, s, d.gain())));
    out.push(Box::new(Gyrator::new("y", p, q, r, s, d.gain())));
    // The nonlinear ones, on pins that make them bite.
    let [a, b, c] = [nodes[1], nodes[2], nodes[3]];
    out.push(Box::new(ProductVccs::new(
        "bq",
        a,
        nodes[0],
        b,
        nodes[0],
        c,
        nodes[0],
        d.gain(),
    )));
    let generics = [("a", 1e-4), ("d", 0.15e-3), ("er", 1.0)];
    out.push(Box::new(
        HdlDevice::new("x", model, &generics, &[a, nodes[0], b, nodes[0]]).unwrap(),
    ));
    out
}

/// A random iterate: node voltages in ±5 V (±1e-4 at `n2`, the
/// Listing-1 model's velocity pin, so its gap stays open) and internal
/// unknowns in ±1e-2.
fn iterate(d: &mut Draw<'_>, layout: &UnknownLayout) -> Vec<f64> {
    (0..layout.n_unknowns)
        .map(|k| {
            if k + 1 < layout.n_nodes {
                d.uniform(-5.0, 5.0) * if k == 1 { 2e-5 } else { 1.0 }
            } else {
                d.uniform(-1e-2, 1e-2)
            }
        })
        .collect()
}

/// The assembled Jacobian (dense copy), residual and row scales.
fn assembled(
    c: &mut Circuit,
    layout: &UnknownLayout,
    kind: LoadKind,
    gmin: f64,
    x: &[f64],
    ws: &mut Workspace,
) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    assemble(c, layout, kind, gmin, x, ws).unwrap();
    let n = layout.n_unknowns;
    let jac = (0..n)
        .map(|r| (0..n).map(|col| ws.sys.get(r, col)).collect())
        .collect();
    (jac, ws.resid.clone(), ws.row_scale.clone())
}

/// Checks that `F` is affine between `x1` and `x2` under `kind`. A
/// row's scale is the larger of its two assembled row scales plus its
/// Jacobian terms' size `Σ|J|·(|x1| + |x2|)`, which covers the `gmin`
/// leak that `assemble` adds outside the row scale.
fn affine_between(
    c: &mut Circuit,
    layout: &UnknownLayout,
    kind: LoadKind,
    gmin: f64,
    x1: &[f64],
    x2: &[f64],
) -> Result<(), String> {
    let mut ws = Workspace::new(0);
    ws.ensure(
        layout.n_unknowns,
        MatrixBackend::Dense,
        FillOrdering::default(),
    );
    let (j1, f1, s1) = assembled(c, layout, kind, gmin, x1, &mut ws);
    let (j2, f2, s2) = assembled(c, layout, kind, gmin, x2, &mut ws);
    for (r, (row1, row2)) in j1.iter().zip(&j2).enumerate() {
        for (col, (a, b)) in row1.iter().zip(row2).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!("{kind:?}: J[{r}][{col}] moved {a:e} -> {b:e}"));
            }
        }
        let jdx: f64 = row1
            .iter()
            .zip(x1.iter().zip(x2))
            .map(|(j, (a, b))| j * (b - a))
            .sum();
        let terms: f64 = row1
            .iter()
            .zip(x1.iter().zip(x2))
            .map(|(j, (a, b))| j.abs() * (a.abs() + b.abs()))
            .sum();
        let scale = s1[r].max(s2[r]) + terms;
        let err = (f2[r] - f1[r] - jdx).abs();
        if err > 1e-12 * scale {
            return Err(format!(
                "{kind:?}: row {r}: F moved {:e}, J·dx {jdx:e} (row scale {scale:e})",
                f2[r] - f1[r]
            ));
        }
    }
    Ok(())
}

/// Runs the affinity check on one device alone: under `Dc`, then
/// under `Transient` with each method after two committed steps.
fn check_device(dev: Box<dyn Device>, d: &mut Draw<'_>) -> Result<(), String> {
    let mut c = Circuit::new();
    for name in ["n1", "n2", "n3", "n4"] {
        c.enode(name).unwrap();
    }
    c.add_boxed(dev).unwrap();
    let layout = c.layout();
    let (x1, x2) = (iterate(d, &layout), iterate(d, &layout));
    let gmin = d.log(1e-12, 1e-3);
    let dc = LoadKind::Dc {
        gmin,
        source_scale: d.unit(),
    };
    affine_between(&mut c, &layout, dc, gmin, &x1, &x2)?;

    // Commit an operating point and two transient steps, so every
    // method sees a full history.
    let mut ws = Workspace::new(layout.n_unknowns);
    let commit = |c: &mut Circuit, x: &[f64], kind: CommitKind| {
        for dev in c.devices_mut() {
            dev.commit(x, &layout, kind);
        }
    };
    commit(
        &mut c,
        &iterate(d, &layout),
        CommitKind {
            is_dc: true,
            h: 0.0,
        },
    );
    let mut t = 0.0;
    for method in [
        IntegrationMethod::BackwardEuler,
        IntegrationMethod::Trapezoidal,
    ] {
        let h = d.log(1e-6, 1e-4);
        t += h;
        let x = iterate(d, &layout);
        assemble(
            &mut c,
            &layout,
            LoadKind::Transient { t, h, method },
            gmin,
            &x,
            &mut ws,
        )
        .unwrap();
        commit(&mut c, &x, CommitKind { is_dc: false, h });
    }
    for method in [
        IntegrationMethod::BackwardEuler,
        IntegrationMethod::Trapezoidal,
        IntegrationMethod::Gear2,
    ] {
        let h = d.log(1e-6, 1e-4);
        let kind = LoadKind::Transient {
            t: t + h,
            h,
            method,
        };
        affine_between(&mut c, &layout, kind, gmin, &x1, &x2)?;
    }
    Ok(())
}

proptest! {
    /// Every device that reports itself linear is affine in the
    /// unknowns; the two nonlinear ones report so and are not.
    #[test]
    fn linear_devices_are_affine(pool in proptest::collection::vec(0.0f64..1.0, 97)) {
        let model = HdlModel::compile(LISTING1, "eletran", None).unwrap();
        let mut d = Draw { pool: &pool, next: 0 };
        let mut nodes = Circuit::new();
        let names = ["n1", "n2", "n3", "n4"];
        let ids: Vec<NodeId> = names.iter().map(|n| nodes.enode(n).unwrap()).collect();
        let pins = [nodes.ground(), ids[0], ids[1], ids[2], ids[3]];
        let mut linear = 0;
        for dev in devices(&mut d, &pins, &model) {
            let name = dev.name().to_string();
            let is_linear = dev.is_linear();
            linear += usize::from(is_linear);
            match (is_linear, check_device(dev, &mut d)) {
                (true, Err(e)) => prop_assert!(false, "{}: {}", name, e),
                (false, Ok(())) => prop_assert!(false, "{} is affine but reports nonlinear", name),
                _ => {}
            }
        }
        // 14 linear types, the sources with four waveforms each.
        prop_assert_eq!(linear, 20);
    }
}

/// A circuit of linear devices.
fn linear_divider() -> (Circuit, UnknownLayout) {
    let mut c = Circuit::new();
    let a = c.enode("a").unwrap();
    let b = c.enode("b").unwrap();
    let g = c.ground();
    c.add(VoltageSource::new("v1", a, g, Waveform::Dc(10.0)))
        .unwrap();
    c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
    c.add(Resistor::new("r2", b, g, 3e3)).unwrap();
    c.add(Vccs::new("g1", b, g, a, g, 1e-4)).unwrap();
    let layout = c.layout();
    (c, layout)
}

#[test]
fn a_linear_circuit_converges_in_one_iteration() {
    let (mut c, layout) = linear_divider();
    assert!(c.is_linear());
    let opts = SimOptions::default();
    let dc = LoadKind::Dc {
        gmin: opts.gmin,
        source_scale: 1.0,
    };
    let mut ws = Workspace::new(layout.n_unknowns);
    let mut x = vec![0.0; layout.n_unknowns];
    let iterations = newton_in(&mut c, &layout, dc, opts.gmin, &opts, &mut x, &mut ws).unwrap();
    assert_eq!(iterations, 1);
    // The accepted update leaves a residual inside the tolerance a
    // second iteration would have checked.
    assemble(&mut c, &layout, dc, opts.gmin, &x, &mut ws).unwrap();
    for k in 0..layout.n_unknowns {
        let tol = opts.reltol * ws.row_scale[k] + opts.abstol(layout.kinds[k]);
        assert!(
            ws.resid[k].abs() <= tol,
            "row {k}: {:e} > {tol:e}",
            ws.resid[k]
        );
    }

    // With `maxstep` damping the first update is cut, so Newton
    // iterates as it does on a nonlinear circuit.
    let damped = SimOptions {
        max_step: 1.0,
        ..SimOptions::default()
    };
    let mut y = vec![0.0; layout.n_unknowns];
    let iterations = newton_in(&mut c, &layout, dc, damped.gmin, &damped, &mut y, &mut ws).unwrap();
    assert!(iterations > 2, "{iterations}");
    for (a, b) in x.iter().zip(&y) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1e-3), "{a} vs {b}");
    }

    // One nonlinear device puts the whole circuit on the full path.
    let g = c.ground();
    let b = c.find_node("b").unwrap();
    c.add(ProductVccs::new("bq", b, g, b, g, b, g, 1e-9))
        .unwrap();
    assert!(!c.is_linear());
    let layout = c.layout();
    let mut z = vec![0.0; layout.n_unknowns];
    let iterations = newton_in(&mut c, &layout, dc, opts.gmin, &opts, &mut z, &mut ws).unwrap();
    assert!(iterations >= 2, "{iterations}");
}
