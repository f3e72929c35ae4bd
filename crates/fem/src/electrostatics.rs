//! 2-D electrostatic finite-element problem: `∇·(ε∇φ) = 0` with
//! electrode (Dirichlet) boundary conditions.
//!
//! This replaces the paper's ANSYS field solves (Fig. 6): PXT drives
//! it with varying boundary conditions and extracts charges,
//! capacitances and forces.

use crate::element;
use crate::mesh::{NodeIdx, StructuredQuadMesh};
use mems_numerics::cg::{solve_cg, CgOptions};
use mems_numerics::sparse::TripletMatrix;
use mems_numerics::{NumericsError, Result};

/// Vacuum permittivity [F/m], as the paper writes it in Listing 1.
pub const EPS0: f64 = 8.8542e-12;

/// An electrode: a named node set held at a potential.
#[derive(Debug, Clone)]
pub struct Electrode {
    /// Name (diagnostics).
    pub name: String,
    /// Member nodes.
    pub nodes: Vec<NodeIdx>,
    /// Prescribed potential \[V\].
    pub potential: f64,
}

/// The assembled electrostatic problem.
#[derive(Debug, Clone)]
pub struct ElectrostaticProblem {
    mesh: StructuredQuadMesh,
    /// Relative permittivity per element.
    eps_r: Vec<f64>,
    electrodes: Vec<Electrode>,
}

/// A solved potential field.
#[derive(Debug, Clone)]
pub struct PotentialField {
    /// The mesh the field lives on.
    pub mesh: StructuredQuadMesh,
    /// Relative permittivity per element.
    pub eps_r: Vec<f64>,
    /// Nodal potentials \[V\].
    pub phi: Vec<f64>,
    /// CG iterations used.
    pub iterations: usize,
}

impl ElectrostaticProblem {
    /// Creates a problem with uniform relative permittivity.
    pub fn new(mesh: StructuredQuadMesh, eps_r: f64) -> Self {
        let n = mesh.n_elems();
        ElectrostaticProblem {
            mesh,
            eps_r: vec![eps_r; n],
            electrodes: Vec::new(),
        }
    }

    /// Sets per-element relative permittivity (dielectric regions).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] for a wrong-length
    /// vector.
    pub fn with_permittivity_map(mut self, eps_r: Vec<f64>) -> Result<Self> {
        if eps_r.len() != self.mesh.n_elems() {
            return Err(NumericsError::DimensionMismatch {
                expected: self.mesh.n_elems(),
                found: eps_r.len(),
            });
        }
        self.eps_r = eps_r;
        Ok(self)
    }

    /// Adds an electrode.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] for empty node sets or
    /// out-of-range nodes.
    pub fn add_electrode(&mut self, name: &str, nodes: Vec<NodeIdx>, potential: f64) -> Result<()> {
        if nodes.is_empty() {
            return Err(NumericsError::InvalidInput(format!(
                "electrode `{name}` has no nodes"
            )));
        }
        if nodes.iter().any(|&n| n >= self.mesh.n_nodes()) {
            return Err(NumericsError::InvalidInput(format!(
                "electrode `{name}` references nodes outside the mesh"
            )));
        }
        self.electrodes.push(Electrode {
            name: name.to_string(),
            nodes,
            potential,
        });
        Ok(())
    }

    /// Updates an electrode's potential by name.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] for unknown electrodes.
    pub fn set_potential(&mut self, name: &str, potential: f64) -> Result<()> {
        for e in &mut self.electrodes {
            if e.name == name {
                e.potential = potential;
                return Ok(());
            }
        }
        Err(NumericsError::InvalidInput(format!(
            "no electrode named `{name}`"
        )))
    }

    /// The mesh.
    pub fn mesh(&self) -> &StructuredQuadMesh {
        &self.mesh
    }

    /// The electrodes.
    pub fn electrodes(&self) -> &[Electrode] {
        &self.electrodes
    }

    /// Solves for the potential field.
    ///
    /// Dirichlet conditions are applied by elimination: constrained
    /// nodes are removed from the unknown set and their contributions
    /// moved to the right-hand side, keeping the reduced system SPD
    /// for conjugate gradients.
    ///
    /// # Errors
    ///
    /// Propagates CG failures and reports missing electrodes.
    pub fn solve(&self) -> Result<PotentialField> {
        if self.electrodes.is_empty() {
            return Err(NumericsError::InvalidInput(
                "electrostatic problem needs at least one electrode".into(),
            ));
        }
        let n = self.mesh.n_nodes();
        // Dirichlet map.
        let mut fixed: Vec<Option<f64>> = vec![None; n];
        for e in &self.electrodes {
            for &node in &e.nodes {
                fixed[node] = Some(e.potential);
            }
        }
        // Unknown numbering for free nodes.
        let mut free_index: Vec<Option<usize>> = vec![None; n];
        let mut n_free = 0;
        for (i, f) in fixed.iter().enumerate() {
            if f.is_none() {
                free_index[i] = Some(n_free);
                n_free += 1;
            }
        }

        let mut phi: Vec<f64> = fixed.iter().map(|f| f.unwrap_or(0.0)).collect();
        if n_free == 0 {
            return Ok(PotentialField {
                mesh: self.mesh.clone(),
                eps_r: self.eps_r.clone(),
                phi,
                iterations: 0,
            });
        }

        let mut k = TripletMatrix::new(n_free, n_free);
        let mut rhs = vec![0.0; n_free];
        for (e, conn) in self.mesh.elems().iter().enumerate() {
            let xy = [
                self.mesh.coord(conn[0]),
                self.mesh.coord(conn[1]),
                self.mesh.coord(conn[2]),
                self.mesh.coord(conn[3]),
            ];
            let ke = element::stiffness(&xy, EPS0 * self.eps_r[e]);
            for (a, &na) in conn.iter().enumerate() {
                let Some(ra) = free_index[na] else { continue };
                for (b, &nb) in conn.iter().enumerate() {
                    match free_index[nb] {
                        Some(cb) => k.add(ra, cb, ke[a][b]),
                        None => {
                            rhs[ra] -= ke[a][b] * fixed[nb].expect("fixed node has value");
                        }
                    }
                }
            }
        }
        let csr = k.to_csr();
        let sol = solve_cg(
            &csr,
            &rhs,
            &CgOptions {
                rtol: 1e-12,
                max_iter: 20 * n_free.max(100),
                ..CgOptions::default()
            },
        )?;
        for (i, idx) in free_index.iter().enumerate() {
            if let Some(r) = idx {
                phi[i] = sol.x[*r];
            }
        }
        Ok(PotentialField {
            mesh: self.mesh.clone(),
            eps_r: self.eps_r.clone(),
            phi,
            iterations: sol.iterations,
        })
    }
}

impl PotentialField {
    /// Electric field `E = −∇φ` at an element's center.
    pub fn field_at_elem(&self, e: usize) -> (f64, f64) {
        let conn = self.mesh.elem(e);
        let xy = [
            self.mesh.coord(conn[0]),
            self.mesh.coord(conn[1]),
            self.mesh.coord(conn[2]),
            self.mesh.coord(conn[3]),
        ];
        let vals = [
            self.phi[conn[0]],
            self.phi[conn[1]],
            self.phi[conn[2]],
            self.phi[conn[3]],
        ];
        let (gx, gy) = element::center_gradient(&xy, &vals);
        (-gx, -gy)
    }

    /// Field energy `½∫ε|E|²dΩ` per unit depth [J/m].
    pub fn energy(&self) -> f64 {
        let mut w = 0.0;
        for (e, conn) in self.mesh.elems().iter().enumerate() {
            let xy = [
                self.mesh.coord(conn[0]),
                self.mesh.coord(conn[1]),
                self.mesh.coord(conn[2]),
                self.mesh.coord(conn[3]),
            ];
            let ke = element::stiffness(&xy, EPS0 * self.eps_r[e]);
            let vals = [
                self.phi[conn[0]],
                self.phi[conn[1]],
                self.phi[conn[2]],
                self.phi[conn[3]],
            ];
            for a in 0..4 {
                for b in 0..4 {
                    w += 0.5 * vals[a] * ke[a][b] * vals[b];
                }
            }
        }
        w
    }

    /// Capacitance per unit depth between a two-electrode system
    /// biased at `v`: `C' = 2W/V²` [F/m].
    pub fn capacitance_per_depth(&self, v: f64) -> f64 {
        2.0 * self.energy() / (v * v)
    }

    /// Charge on an electrode per unit depth [C/m], computed as the
    /// sum of residuals `(K·φ)ᵢ` over the electrode's nodes — the
    /// discrete equivalent of the flux integral `∮ ε E·n dS` (exactly
    /// consistent with the FE solution).
    pub fn electrode_charge_per_depth(&self, nodes: &[NodeIdx]) -> f64 {
        let member: std::collections::HashSet<NodeIdx> = nodes.iter().copied().collect();
        let mut q = 0.0;
        for (e, conn) in self.mesh.elems().iter().enumerate() {
            let xy = [
                self.mesh.coord(conn[0]),
                self.mesh.coord(conn[1]),
                self.mesh.coord(conn[2]),
                self.mesh.coord(conn[3]),
            ];
            let ke = element::stiffness(&xy, EPS0 * self.eps_r[e]);
            let vals = [
                self.phi[conn[0]],
                self.phi[conn[1]],
                self.phi[conn[2]],
                self.phi[conn[3]],
            ];
            for (a, &na) in conn.iter().enumerate() {
                if member.contains(&na) {
                    for b in 0..4 {
                        q += ke[a][b] * vals[b];
                    }
                }
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parallel-plate gap from Table 4: A = 1 cm², d = 0.15 mm.
    /// Modeled per unit depth with plate width `w`; the paper's area
    /// is recovered as `A = w·depth`.
    fn plate_problem(v: f64, nx: usize, ny: usize) -> ElectrostaticProblem {
        let w = 0.01; // 1 cm plate width
        let gap = 0.15e-3;
        let mesh = StructuredQuadMesh::rectangle(0.0, 0.0, w, gap, nx, ny);
        let bottom = mesh.bottom_nodes();
        let top = mesh.top_nodes();
        let mut p = ElectrostaticProblem::new(mesh, 1.0);
        p.add_electrode("fixed", bottom, 0.0).unwrap();
        p.add_electrode("free", top, v).unwrap();
        p
    }

    #[test]
    fn uniform_field_between_plates() {
        let p = plate_problem(10.0, 8, 6);
        let f = p.solve().unwrap();
        // φ varies linearly across the gap → E = V/d everywhere.
        let e_expect = 10.0 / 0.15e-3;
        for e in 0..f.mesh.n_elems() {
            let (ex, ey) = f.field_at_elem(e);
            assert!(ex.abs() < e_expect * 1e-9, "tangential field {ex}");
            assert!(
                (ey.abs() - e_expect).abs() < e_expect * 1e-9,
                "normal field {ey} vs {e_expect}"
            );
        }
    }

    #[test]
    fn capacitance_matches_parallel_plate_formula() {
        let p = plate_problem(10.0, 10, 8);
        let f = p.solve().unwrap();
        // C' = ε0·w/d per depth; with w = 1 cm, d = 0.15 mm.
        let expect = EPS0 * 0.01 / 0.15e-3;
        let got = f.capacitance_per_depth(10.0);
        assert!(
            (got - expect).abs() < expect * 1e-6,
            "{got:e} vs {expect:e}"
        );
        // Scaled to the paper's area (×depth 1 cm): C₀ ≈ 5.9 pF.
        let c0 = got * 0.01;
        assert!((c0 - 5.9028e-12).abs() < 1e-15, "C0 = {c0:e}");
    }

    #[test]
    fn charge_balances_and_matches_cv() {
        let p = plate_problem(5.0, 8, 8);
        let f = p.solve().unwrap();
        let q_top = f.electrode_charge_per_depth(&p.mesh().top_nodes());
        let q_bottom = f.electrode_charge_per_depth(&p.mesh().bottom_nodes());
        assert!(
            (q_top + q_bottom).abs() < q_top.abs() * 1e-9,
            "charge not balanced: {q_top} vs {q_bottom}"
        );
        let c = f.capacitance_per_depth(5.0);
        assert!((q_top.abs() - c * 5.0).abs() < q_top.abs() * 1e-9);
    }

    #[test]
    fn energy_quadratic_in_voltage() {
        let w5 = plate_problem(5.0, 6, 6).solve().unwrap().energy();
        let w10 = plate_problem(10.0, 6, 6).solve().unwrap().energy();
        assert!((w10 / w5 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dielectric_region_increases_capacitance() {
        let wpl = 0.01;
        let gap = 0.15e-3;
        let mesh = StructuredQuadMesh::rectangle(0.0, 0.0, wpl, gap, 6, 8);
        let bottom = mesh.bottom_nodes();
        let top = mesh.top_nodes();
        let n_elems = mesh.n_elems();
        // Lower half filled with εr = 4 → series combination.
        let mut eps = vec![1.0; n_elems];
        for (e, v) in eps.iter_mut().enumerate() {
            let (_, cy) = mesh.elem_center(e);
            if cy < gap / 2.0 {
                *v = 4.0;
            }
        }
        let mut p = ElectrostaticProblem::new(mesh, 1.0)
            .with_permittivity_map(eps)
            .unwrap();
        p.add_electrode("b", bottom, 0.0).unwrap();
        p.add_electrode("t", top, 1.0).unwrap();
        let f = p.solve().unwrap();
        // Series: C = ε0·w / (d1/εr1 + d2/εr2) = ε0·w/(d/2·(1/4+1)).
        let expect = EPS0 * wpl / (gap / 2.0 * (0.25 + 1.0));
        let got = f.capacitance_per_depth(1.0);
        assert!(
            (got - expect).abs() < expect * 1e-6,
            "{got:e} vs {expect:e}"
        );
    }

    #[test]
    fn errors_are_reported() {
        let mesh = StructuredQuadMesh::rectangle(0.0, 0.0, 1.0, 1.0, 2, 2);
        let mut p = ElectrostaticProblem::new(mesh, 1.0);
        assert!(p.add_electrode("empty", vec![], 0.0).is_err());
        assert!(p.add_electrode("oob", vec![999], 0.0).is_err());
        assert!(p.solve().is_err()); // no electrodes
        p.add_electrode("ok", vec![0], 1.0).unwrap();
        assert!(p.set_potential("nope", 2.0).is_err());
        assert!(p.set_potential("ok", 2.0).is_ok());
    }
}
