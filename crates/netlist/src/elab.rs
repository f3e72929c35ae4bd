//! Elaboration: deck AST → [`mems_spice::Circuit`], plus analysis
//! dispatch for the deck's analysis cards.
//!
//! Names are resolved once per deck. [`Elaborator::new`] flattens the
//! deck's `.SUBCKT` instances **once** into a list of flattened cards,
//! each carrying its hierarchical instance path (`x1.r1`), the index
//! of its parameter scope, and the ids of its nodes. Each body's node
//! references are resolved to slots once per definition: ports map to
//! the caller's ids, ground is shared, and an instance's private nodes
//! get fresh ids and one name each (`x1.mid`). The ids are then
//! numbered the way a circuit creates nodes — declarations first,
//! then each card's nodes at first use — their natures fixed, and the
//! deck checks that need no parameter values made: nature conflicts,
//! pin counts and duplicate instance paths. [`Elaborator::build`] —
//! the one way a circuit is made — then only re-evaluates the scope
//! environments and constructs the devices per `.STEP`/`.MC`/`.DC`
//! point, over the shared node table and instance paths, so
//! hierarchical decks batch exactly like flat ones.
//!
//! Node natures flow from three sources: explicit `.NODE`
//! declarations (top-level or inside subcircuit bodies), mechanical
//! sugar (mass/spring/damper nodes default to `mechanical1`), and HDL
//! entity pin declarations.

use crate::ast::*;
use crate::error::{NetlistError, Result};
use crate::expr::{eval_scopes, join_into, NumExpr, ScopeBinding, ScopeInfo, ScopeParam};
use mems_hdl::model::HdlModel;
use mems_hdl::span::Span;
use mems_hdl::Nature;
use mems_numerics::cache::Fingerprint;
use mems_numerics::Complex64;
use mems_spice::analysis::ac::{run_recorded_in as run_ac_recorded_in, FreqSweep};
use mems_spice::analysis::dcop;
use mems_spice::analysis::sweep::{dc_sweep_in, SweepResult};
use mems_spice::analysis::transient::{run_in as run_tran_in, TranOptions};
use mems_spice::circuit::{Circuit, NodeId, NodeTable};
use mems_spice::devices::{
    AcSpec, Capacitor, Cccs, Ccvs, CurrentSource, Damper, Gyrator, HdlDevice, IdealTransformer,
    Inductor, Mass, ProductVccs, Resistor, Spring, Vccs, Vcvs, VoltageSource,
};
use mems_spice::output::{AcResult, OpSolution, Record, TranResult};
use mems_spice::solver::SimOptions;
use mems_spice::solver::Workspace;
use mems_spice::system::{new_system, reusable, FillOrdering, SolverStats, SystemMatrix};
use mems_spice::wave::Waveform;
use mems_spice::MatrixBackend;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Parameter environment: lower-cased name → value.
pub type ParamEnv = HashMap<String, f64>;

pub use mems_spice::analysis::MAX_POINTS;

/// Evaluates the deck's `.PARAM` chain under `overrides` (override
/// wins over the defining expression; later definitions may reference
/// earlier ones).
///
/// # Errors
///
/// Propagates expression-evaluation failures with their spans.
pub fn param_env(deck: &Deck, overrides: &ParamEnv) -> Result<ParamEnv> {
    let mut env = ParamEnv::new();
    for p in &deck.params {
        let v = match overrides.get(&p.name) {
            Some(o) => *o,
            None => p.value.eval(&env)?,
        };
        env.insert(p.name.clone(), v);
    }
    Ok(env)
}

/// One flattened device: the source card, the scope its expressions
/// evaluate in, and its hierarchical instance path, shared with every
/// device built from it. Its node ids follow the previous cards' in
/// [`Elaborator::nodes`], one per entry of [`card_nodes`].
struct FlatCard<'d> {
    card: &'d DeviceCard,
    scope: usize,
    path: Arc<str>,
}

/// Where a node reference inside a body points: ground, the body's
/// `i`-th port, or its `i`-th private node.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Ground,
    Port(usize),
    Private(usize),
}

/// One body (the top level or a `.SUBCKT`) with its node references
/// resolved to slots once per definition. Instances then map slots to
/// ids: ports to the caller's ids, private nodes to fresh ones.
struct Body<'d> {
    node_decls: &'d [NodeDecl],
    devices: &'d [DeviceCard],
    /// Private node names, in first-use order.
    private: Vec<&'d str>,
    /// Slots of every `.NODE` declaration's nodes, in body order.
    decl_slots: Vec<Slot>,
    /// Slots of every card's [`card_nodes`], in body order.
    card_slots: Vec<Slot>,
}

impl<'d> Body<'d> {
    fn new(ports: &[String], node_decls: &'d [NodeDecl], devices: &'d [DeviceCard]) -> Self {
        let mut private_index: HashMap<&'d str, usize> = HashMap::new();
        let mut private = Vec::new();
        let mut slot = |name: &'d str| {
            if name == "0" || name == "gnd" {
                return Slot::Ground;
            }
            // A repeated port name binds its last position.
            if let Some(i) = ports.iter().rposition(|p| p == name) {
                return Slot::Port(i);
            }
            Slot::Private(*private_index.entry(name).or_insert_with(|| {
                private.push(name);
                private.len() - 1
            }))
        };
        let decl_slots = node_decls
            .iter()
            .flat_map(|d| d.nodes.iter().map(String::as_str))
            .map(&mut slot)
            .collect();
        let card_slots = devices.iter().flat_map(card_nodes).map(&mut slot).collect();
        Body {
            node_decls,
            devices,
            private,
            decl_slots,
            card_slots,
        }
    }
}

/// A `.NODE` declaration with flattened node ids (a range of
/// [`Flattener::decl_nodes`]).
struct FlatNodeDecl {
    nature: Nature,
    nodes: Range<usize>,
    span: Span,
}

/// The state of [`Elaborator::new`]'s walk over the hierarchy. Nodes
/// get provisional ids here, in the order the walk first meets them
/// (0 is ground); [`Flattener::number`] renumbers them the way a
/// circuit creates them.
struct Flattener<'d> {
    deck: &'d Deck,
    models: HashMap<String, HdlModel>,
    scopes: Vec<ScopeInfo<'d>>,
    flat: Vec<FlatCard<'d>>,
    /// Provisional ids of every flat card's nodes, concatenated.
    card_nodes: Vec<usize>,
    decls: Vec<FlatNodeDecl>,
    /// Provisional ids of every declaration's nodes, concatenated.
    decl_nodes: Vec<usize>,
    /// Flattened node names by provisional id, and their index.
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, usize>,
    /// Resolved bodies, by `.SUBCKT` position in the deck.
    bodies: Vec<Option<Rc<Body<'d>>>>,
    /// Scratch buffer for joined paths.
    buf: String,
}

impl<'d> Flattener<'d> {
    /// The provisional id of the flattened node `prefix.name`; a new
    /// name is stored once.
    fn intern(&mut self, prefix: &str, name: &str) -> usize {
        join_into(&mut self.buf, prefix, name);
        if let Some(&id) = self.index.get(self.buf.as_str()) {
            return id;
        }
        let name: Arc<str> = Arc::from(self.buf.as_str());
        let id = self.names.len();
        self.index.insert(Arc::clone(&name), id);
        self.names.push(name);
        id
    }

    /// The resolved body of the deck's `index`-th `.SUBCKT`.
    fn body(&mut self, index: usize) -> Rc<Body<'d>> {
        let def = &self.deck.subckts[index];
        let body = self.bodies[index]
            .get_or_insert_with(|| Rc::new(Body::new(&def.ports, &def.node_decls, &def.devices)));
        Rc::clone(body)
    }

    /// Flattens one body under the given scope and instance-path
    /// prefix; `ports` holds the caller's ids for the body's ports.
    fn flatten_body(
        &mut self,
        body: &Body<'d>,
        scope: usize,
        prefix: &str,
        ports: &[usize],
        stack: &mut Vec<&'d str>,
    ) -> Result<()> {
        let private: Vec<usize> = body
            .private
            .iter()
            .map(|name| self.intern(prefix, name))
            .collect();
        let id = |slot: Slot| match slot {
            Slot::Ground => 0,
            Slot::Port(i) => ports[i],
            Slot::Private(i) => private[i],
        };
        let mut slots = body.decl_slots.iter();
        for decl in body.node_decls {
            let start = self.decl_nodes.len();
            self.decl_nodes
                .extend(slots.by_ref().take(decl.nodes.len()).map(|&s| id(s)));
            self.decls.push(FlatNodeDecl {
                nature: decl.nature,
                nodes: start..self.decl_nodes.len(),
                span: decl.span,
            });
        }
        let deck = self.deck;
        let mut slots = body.card_slots.iter();
        for card in body.devices {
            let card_slots = slots.by_ref().take(card_nodes(card).count());
            join_into(&mut self.buf, prefix, card.name());
            let path: Arc<str> = Arc::from(self.buf.as_str());
            if let DeviceCard::Call {
                nodes,
                callee,
                callee_span,
                args,
                span,
                ..
            } = card
            {
                if let Some(index) = deck.subckts.iter().position(|s| &s.name == callee) {
                    let def = &deck.subckts[index];
                    if stack.iter().any(|s| s == callee) {
                        return Err(NetlistError::elab_at(
                            format!(
                                "recursive subcircuit instantiation: {} → {callee}",
                                stack.join(" → ")
                            ),
                            *callee_span,
                        ));
                    }
                    if nodes.len() != def.ports.len() {
                        return Err(NetlistError::elab_at(
                            format!(
                                "subcircuit `{callee}` has {} ports but {} nodes are connected",
                                def.ports.len(),
                                nodes.len()
                            ),
                            *span,
                        ));
                    }
                    for (aname, aexpr) in args {
                        if !def.formals.iter().any(|f| &f.name == aname) {
                            return Err(NetlistError::elab_at(
                                format!("subcircuit `{callee}` has no parameter `{aname}`"),
                                aexpr.span,
                            ));
                        }
                    }
                    let mut params: Vec<ScopeParam<'d>> = def
                        .formals
                        .iter()
                        .map(|f| ScopeParam {
                            name: &f.name,
                            binding: ScopeBinding::Formal {
                                arg: args.iter().find(|(n, _)| n == &f.name).map(|(_, e)| e),
                                default: f.default.as_ref(),
                            },
                            span: f.span,
                        })
                        .collect();
                    params.extend(def.params.iter().map(|p| ScopeParam {
                        name: &p.name,
                        binding: ScopeBinding::Local(&p.value),
                        span: p.span,
                    }));
                    let inner_scope = self.scopes.len();
                    self.scopes.push(ScopeInfo {
                        parent: scope,
                        path: Arc::clone(&path),
                        params,
                    });
                    let inner_ports: Vec<usize> = card_slots.map(|&s| id(s)).collect();
                    let inner = self.body(index);
                    stack.push(callee);
                    self.flatten_body(&inner, inner_scope, &path, &inner_ports, stack)?;
                    stack.pop();
                    continue;
                }
                self.ensure_model(callee, *callee_span)?;
            }
            self.card_nodes.extend(card_slots.map(|&s| id(s)));
            self.flat.push(FlatCard { card, scope, path });
        }
        Ok(())
    }

    /// Compiles `entity` from the deck's HDL blocks, caching it.
    fn ensure_model(&mut self, entity: &str, span: Span) -> Result<()> {
        if self.models.contains_key(entity) {
            return Ok(());
        }
        let block = self
            .deck
            .hdl_blocks
            .iter()
            .find(|b| declares_entity(&b.text, entity))
            .ok_or_else(|| {
                NetlistError::elab_at(
                    format!(
                        "no `.SUBCKT` definition and no `.HDL` block or `.INCLUDE` \
                         declares entity `{entity}`"
                    ),
                    span,
                )
            })?;
        let model = HdlModel::compile(&block.text, entity, None)
            .map_err(|e| NetlistError::Hdl(e.render(&block.text)))?;
        self.models.insert(entity.to_string(), model);
        Ok(())
    }

    /// Numbers the flattened nodes the way a circuit creates them —
    /// first every `.NODE` declaration's nodes, in flattening order,
    /// then each card's nodes at first use, in card order — and fixes
    /// their natures: a declared node keeps its declared nature, a
    /// node a card creates gets that card's default nature (mechanical
    /// for M/K/D, electrical otherwise), and HDL pins demand their
    /// entity's nature. Returns the node table and every card's node
    /// ids.
    ///
    /// # Errors
    ///
    /// A nature conflict, at the declaration or HDL card that meets
    /// it; a pin-count mismatch and a duplicate instance path, at the
    /// card.
    fn number(&self) -> Result<(NodeTable, Vec<NodeId>)> {
        let mut table = NodeTable::new();
        let mut ids: Vec<Option<NodeId>> = vec![None; self.names.len()];
        for decl in &self.decls {
            for &p in &self.decl_nodes[decl.nodes.clone()] {
                let id = table
                    .node(Arc::clone(&self.names[p]), decl.nature)
                    .map_err(|e| NetlistError::elab_at(e.to_string(), decl.span))?;
                ids[p] = Some(id);
            }
        }
        let mut out = Vec::with_capacity(self.card_nodes.len());
        let mut paths =
            paths_may_collide(self.deck).then(|| HashSet::with_capacity(self.flat.len()));
        let mut refs = self.card_nodes.iter();
        for fc in &self.flat {
            let span = fc.card.span();
            let at = |e: mems_spice::SpiceError| NetlistError::elab_at(e.to_string(), span);
            let n = card_nodes(fc.card).count();
            let pins = match fc.card {
                DeviceCard::Call { callee, .. } => {
                    let pins = &self.models[callee.as_str()].compiled().pins;
                    if pins.len() != n {
                        return Err(NetlistError::elab_at(
                            format!(
                                "entity `{callee}` has {} pins but {n} nodes are connected",
                                pins.len(),
                            ),
                            span,
                        ));
                    }
                    pins.as_slice()
                }
                _ => &[],
            };
            let default = match fc.card {
                DeviceCard::Passive {
                    kind: PassiveKind::Mass | PassiveKind::Spring | PassiveKind::Damper,
                    ..
                } => Nature::MechanicalTranslation,
                _ => Nature::Electrical,
            };
            for (k, &p) in refs.by_ref().take(n).enumerate() {
                let name = || Arc::clone(&self.names[p]);
                // HDL pins are strict; other cards take a node as it
                // is (sources and couplers are nature-agnostic: a `V`
                // card on a mechanical node is a velocity source) and
                // only give a new one their default nature.
                let id = match (pins.get(k), ids[p]) {
                    (Some(pin), _) => table.node(name(), pin.nature).map_err(at)?,
                    (None, Some(id)) => id,
                    (None, None) => table.node(name(), default).map_err(at)?,
                };
                ids[p] = Some(id);
                out.push(id);
            }
            if paths.as_mut().is_some_and(|p| !p.insert(&*fc.path)) {
                return Err(at(mems_spice::SpiceError::Build(format!(
                    "duplicate device name `{}`",
                    fc.path
                ))));
            }
        }
        Ok((table, out))
    }
}

/// Whether two flattened instance paths could be equal. A path joins
/// the names of the instances above a device and the device's own
/// name with `.`; when no name holds a `.` and no body repeats a card
/// name, distinct devices have distinct paths, so only other decks
/// pay for comparing every path.
fn paths_may_collide(deck: &Deck) -> bool {
    let bodies = std::iter::once(&deck.devices).chain(deck.subckts.iter().map(|s| &s.devices));
    let mut seen = HashSet::new();
    for body in bodies {
        seen.clear();
        for card in body {
            if card.name().contains('.') || !seen.insert(card.name()) {
                return true;
            }
        }
    }
    false
}

/// A deck with its hierarchy flattened, its nodes numbered and its HDL
/// entities compiled, ready to build circuits.
pub struct Elaborator<'d> {
    deck: &'d Deck,
    models: HashMap<String, HdlModel>,
    scopes: Vec<ScopeInfo<'d>>,
    flat: Vec<FlatCard<'d>>,
    /// Node ids of every flat card's nodes, concatenated in card order.
    nodes: Vec<NodeId>,
    /// Names, natures and index of every node; each built circuit
    /// shares it.
    table: Arc<NodeTable>,
}

impl<'d> Elaborator<'d> {
    /// Flattens the deck's `.SUBCKT` hierarchy, compiles every HDL
    /// entity any (possibly nested) `X` card references, searching the
    /// inline `.HDL` blocks and `.INCLUDE`d sources in order, and
    /// resolves every node name once: the nodes are numbered and their
    /// natures fixed here, for every circuit [`Elaborator::build`]
    /// makes.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Elab`] pointing at the `X` card for unknown
    /// callees, port- and pin-arity mismatches, unknown parameter
    /// overrides, and recursive subcircuit instantiation; at the card
    /// for a duplicate instance path; at the `.NODE` or HDL card for a
    /// node-nature conflict; at the analysis card for a malformed or
    /// oversized analysis. [`NetlistError::Hdl`] (with the HDL
    /// compiler's own rendered excerpt) for models that fail to
    /// compile.
    pub fn new(deck: &'d Deck) -> Result<Self> {
        let root = ScopeInfo {
            parent: 0,
            path: Arc::from(""),
            params: deck
                .params
                .iter()
                .map(|p| ScopeParam {
                    name: &p.name,
                    binding: ScopeBinding::Local(&p.value),
                    span: p.span,
                })
                .collect(),
        };
        let ground: Arc<str> = Arc::from("0");
        let mut flat = Flattener {
            deck,
            models: HashMap::new(),
            scopes: vec![root],
            flat: Vec::new(),
            card_nodes: Vec::new(),
            decls: Vec::new(),
            decl_nodes: Vec::new(),
            index: HashMap::from([(Arc::clone(&ground), 0)]),
            names: vec![ground],
            bodies: vec![None; deck.subckts.len()],
            buf: String::new(),
        };
        let top = Body::new(&[], &deck.node_decls, &deck.devices);
        flat.flatten_body(&top, 0, "", &[], &mut Vec::new())?;
        let (table, nodes) = flat.number()?;
        let elab = Elaborator {
            deck,
            models: flat.models,
            scopes: flat.scopes,
            flat: flat.flat,
            nodes,
            table: Arc::new(table),
        };
        // Analysis cards are checked at nominal parameters here, so
        // `mems check` and a served submit refuse what `mems run`
        // would; each run checks them again at its own point.
        let nominal = param_env(deck, &ParamEnv::new())?;
        for card in &deck.analyses {
            elab.plan(card, &nominal)?;
        }
        Ok(elab)
    }

    /// Evaluates `card` under `env` and checks it before anything
    /// runs: a well-formed range, a `.DC` target the deck declares,
    /// and an output point count — ⌈tstop/tstep⌉ + 1 for `.TRAN`, the
    /// frequency count for `.AC`, the value count for `.DC` — of at
    /// most [`MAX_POINTS`], counted before anything is allocated.
    fn plan<'c>(&self, card: &'c AnalysisCard, env: &ParamEnv) -> Result<Plan<'c>> {
        match card {
            AnalysisCard::Op { .. } => Ok(Plan::Op),
            AnalysisCard::Dc {
                sweep,
                start,
                stop,
                step,
                span,
            } => {
                match sweep {
                    DcSweepVar::Source(src) if !self.has_source(src) => {
                        return Err(NetlistError::elab_at(
                            format!("`.DC` sweeps unknown source `{src}`"),
                            *span,
                        ));
                    }
                    DcSweepVar::Param(p) if !self.declares_param(p) => {
                        return Err(NetlistError::elab_at(
                            format!("`.DC PARAM` sweeps undeclared parameter `{p}`"),
                            *span,
                        ));
                    }
                    _ => {}
                }
                let (v0, v1, dv) = (start.eval(env)?, stop.eval(env)?, step.eval(env)?);
                let (count, values) = linear_range(v0, v1, dv)
                    .ok_or_else(|| NetlistError::elab_at("bad `.DC` range", *span))?;
                within_point_limit(".DC", count, *span)?;
                Ok(Plan::Dc {
                    sweep,
                    values: values.collect(),
                })
            }
            AnalysisCard::Ac { sweep, span } => {
                let fs = match sweep {
                    AcSweepSpec::Decade { n, fstart, fstop } => FreqSweep::Decade {
                        start: fstart.eval(env)?,
                        stop: fstop.eval(env)?,
                        points_per_decade: n.eval(env)?.round().max(1.0) as usize,
                    },
                    AcSweepSpec::Linear { n, fstart, fstop } => FreqSweep::Linear {
                        start: fstart.eval(env)?,
                        stop: fstop.eval(env)?,
                        points: n.eval(env)?.round().max(2.0) as usize,
                    },
                    AcSweepSpec::List(fs) => {
                        let mut out = Vec::with_capacity(fs.len());
                        for f in fs {
                            out.push(f.eval(env)?);
                        }
                        FreqSweep::List(out)
                    }
                };
                let count = fs
                    .point_count()
                    .map_err(|e| NetlistError::elab_at(e.to_string(), *span))?;
                within_point_limit(".AC", count as f64, *span)?;
                Ok(Plan::Ac(fs))
            }
            AnalysisCard::Tran {
                tstep,
                tstop,
                fixed,
                span,
            } => {
                let (h, t1) = (tstep.eval(env)?, tstop.eval(env)?);
                if !(h > 0.0 && t1 > 0.0 && h < t1) {
                    return Err(NetlistError::elab_at(
                        format!("bad `.TRAN` times (tstep {h:.3e}, tstop {t1:.3e})"),
                        *span,
                    ));
                }
                within_point_limit(".TRAN", (t1 / h).ceil() + 1.0, *span)?;
                Ok(Plan::Tran(if *fixed {
                    TranOptions::fixed_step(t1, h)
                } else {
                    // `tstep` is both the initial and the maximum step
                    // (SPICE's `tmax` defaulting), so deck authors
                    // control output resolution directly.
                    let mut o = TranOptions::new(t1);
                    o.h_init = Some(h);
                    o.h_max = Some(h);
                    o
                }))
            }
        }
    }

    /// The deck being elaborated.
    pub fn deck(&self) -> &Deck {
        self.deck
    }

    /// Evaluates every parameter scope of the flattened hierarchy
    /// under `overrides` (see [`eval_scopes`]).
    fn scope_envs(&self, overrides: &ParamEnv) -> Result<Vec<ParamEnv>> {
        eval_scopes(&self.scopes, overrides)
    }

    /// Every parameter the hierarchy declares under `overrides`,
    /// keyed by its override name: bare names for deck `.PARAM`s,
    /// `path.name` for instance-scope formals and locals — the
    /// universe `.STEP`/`.MC`/`.DC PARAM` cards may address.
    ///
    /// # Errors
    ///
    /// As [`Elaborator::build`]'s parameter evaluation.
    pub fn qualified_param_env(&self, overrides: &ParamEnv) -> Result<ParamEnv> {
        let envs = self.scope_envs(overrides)?;
        let mut out = ParamEnv::new();
        for (scope, env) in self.scopes.iter().zip(&envs) {
            for p in &scope.params {
                if let Some(v) = env.get(p.name) {
                    out.insert(scope.qualified(p.name), *v);
                }
            }
        }
        Ok(out)
    }

    /// Whether `key` names a declared parameter: a deck `.PARAM` or a
    /// qualified `path.name` of some instance scope.
    pub fn declares_param(&self, key: &str) -> bool {
        self.scopes
            .iter()
            .any(|s| s.params.iter().any(|p| s.qualified(p.name) == key))
    }

    /// Whether `name` is the (hierarchical) path of an independent
    /// source in the flattened circuit — the names `.DC` may sweep.
    pub fn has_source(&self, name: &str) -> bool {
        self.flat
            .iter()
            .any(|fc| matches!(fc.card, DeviceCard::Source { .. }) && *fc.path == *name)
    }

    /// Builds the circuit under `overrides`, optionally forcing one
    /// independent source (by hierarchical path) to a DC level (the
    /// `.DC` source sweep). Returns the circuit and the root (deck
    /// scope) parameter environment. The circuit shares the
    /// elaborator's node table and its devices share the instance
    /// paths: no name is made or looked up here.
    ///
    /// # Errors
    ///
    /// Expression and device-construction failures, attributed to
    /// their cards.
    pub fn build(
        &self,
        overrides: &ParamEnv,
        source_dc: Option<(&str, f64)>,
    ) -> Result<(Circuit, ParamEnv)> {
        let mut envs = self.scope_envs(overrides)?;
        let mut ckt = Circuit::with_nodes(Arc::clone(&self.table), self.flat.len());
        let mut nodes = self.nodes.as_slice();
        for fc in &self.flat {
            let (ids, rest) = nodes.split_at(card_nodes(fc.card).count());
            nodes = rest;
            self.build_device(&mut ckt, fc, ids, &envs[fc.scope], source_dc)?;
        }
        Ok((ckt, envs.swap_remove(0)))
    }

    fn build_device(
        &self,
        ckt: &mut Circuit,
        fc: &FlatCard<'_>,
        ids: &[NodeId],
        env: &ParamEnv,
        source_dc: Option<(&str, f64)>,
    ) -> Result<()> {
        let card = fc.card;
        let name = Arc::clone(&fc.path);
        let span = card.span();
        let ev = |e: &NumExpr| e.eval(env);
        let add = |ckt: &mut Circuit, dev: Box<dyn mems_spice::device::Device>| {
            ckt.add_boxed(dev)
                .map_err(|e| NetlistError::elab_at(e.to_string(), span))
        };
        match card {
            DeviceCard::Passive { kind, value, .. } => {
                let v = ev(value)?;
                let (na, nb) = (ids[0], ids[1]);
                check_positive(*kind, v, value)?;
                let dev: Box<dyn mems_spice::device::Device> = match kind {
                    PassiveKind::Resistor => Box::new(Resistor::new(name, na, nb, v)),
                    PassiveKind::Capacitor => Box::new(Capacitor::new(name, na, nb, v)),
                    PassiveKind::Inductor => Box::new(Inductor::new(name, na, nb, v)),
                    PassiveKind::Mass => Box::new(Mass::new(name, na, nb, v)),
                    PassiveKind::Spring => Box::new(Spring::new(name, na, nb, v)),
                    PassiveKind::Damper => Box::new(Damper::new(name, na, nb, v)),
                };
                add(ckt, dev)
            }
            DeviceCard::Source { kind, wave, ac, .. } => {
                let (na, nb) = (ids[0], ids[1]);
                let waveform = match source_dc {
                    Some((target, level)) if target == &*name => Waveform::Dc(level),
                    _ => self.build_wave(wave, env, span)?,
                };
                let ac_spec = match ac {
                    Some((mag, phase)) => Some(AcSpec {
                        mag: ev(mag)?,
                        phase_deg: phase.as_ref().map_or(Ok(0.0), &ev)?,
                    }),
                    None => None,
                };
                let dev: Box<dyn mems_spice::device::Device> = match kind {
                    SourceKind::Voltage => {
                        let mut s = VoltageSource::new(name, na, nb, waveform);
                        if let Some(spec) = ac_spec {
                            s = s.with_ac(spec);
                        }
                        Box::new(s)
                    }
                    SourceKind::Current => {
                        let mut s = CurrentSource::new(name, na, nb, waveform);
                        if let Some(spec) = ac_spec {
                            s = s.with_ac(spec);
                        }
                        Box::new(s)
                    }
                };
                add(ckt, dev)
            }
            DeviceCard::Controlled { kind, value, .. } => {
                let v = ev(value)?;
                let (op, on, cp, cn) = (ids[0], ids[1], ids[2], ids[3]);
                let dev: Box<dyn mems_spice::device::Device> = match kind {
                    ControlledKind::Vcvs => Box::new(Vcvs::new(name, op, on, cp, cn, v)),
                    ControlledKind::Vccs => Box::new(Vccs::new(name, op, on, cp, cn, v)),
                    ControlledKind::Cccs => Box::new(Cccs::new(name, op, on, cp, cn, v)),
                    ControlledKind::Ccvs => Box::new(Ccvs::new(name, op, on, cp, cn, v)),
                };
                add(ckt, dev)
            }
            DeviceCard::Product { value, .. } => {
                let v = ev(value)?;
                add(
                    ckt,
                    Box::new(ProductVccs::new(
                        name, ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], v,
                    )),
                )
            }
            DeviceCard::TwoPort { kind, value, .. } => {
                let v = ev(value)?;
                let (p1, n1, p2, n2) = (ids[0], ids[1], ids[2], ids[3]);
                let dev: Box<dyn mems_spice::device::Device> = match kind {
                    TwoPortKind::Transformer => {
                        Box::new(IdealTransformer::new(name, p1, n1, p2, n2, v))
                    }
                    TwoPortKind::Gyrator => Box::new(Gyrator::new(name, p1, n1, p2, n2, v)),
                };
                add(ckt, dev)
            }
            DeviceCard::Call { callee, args, .. } => {
                // `new` compiled every entity a flat card calls.
                let model = &self.models[callee.as_str()];
                let mut generics: Vec<(&str, f64)> = Vec::with_capacity(args.len());
                for (gname, gexpr) in args {
                    generics.push((gname, gexpr.eval(env)?));
                }
                let dev = HdlDevice::new(name, model, &generics, ids)
                    .map_err(|e| NetlistError::elab_at(e.to_string(), span))?;
                add(ckt, Box::new(dev))
            }
        }
    }

    /// Returns `Ok(false)` and leaves `ckt` untouched; kept only
    /// because the `perfbench` benchmark calls it.
    pub fn patch(
        &self,
        _ckt: &mut Circuit,
        _overrides: &ParamEnv,
        _source_dc: Option<(&str, f64)>,
    ) -> Result<bool> {
        Ok(false)
    }

    fn build_wave(
        &self,
        wave: &WaveSpec,
        env: &ParamEnv,
        span: mems_hdl::span::Span,
    ) -> Result<Waveform> {
        let evs =
            |args: &[NumExpr]| -> Result<Vec<f64>> { args.iter().map(|a| a.eval(env)).collect() };
        let need = |args: &[NumExpr], min: usize, max: usize, what: &str| -> Result<()> {
            if args.len() < min || args.len() > max {
                return Err(NetlistError::elab_at(
                    format!("`{what}` takes {min}..={max} arguments, got {}", args.len()),
                    span,
                ));
            }
            Ok(())
        };
        Ok(match wave {
            WaveSpec::Dc(v) => Waveform::Dc(v.eval(env)?),
            WaveSpec::Pulse(args) => {
                need(args, 6, 7, "PULSE")?;
                let v = evs(args)?;
                Waveform::Pulse {
                    v1: v[0],
                    v2: v[1],
                    delay: v[2],
                    rise: v[3],
                    fall: v[4],
                    width: v[5],
                    period: v.get(6).copied().unwrap_or(0.0),
                }
            }
            WaveSpec::Sin(args) => {
                need(args, 3, 5, "SIN")?;
                let v = evs(args)?;
                Waveform::Sin {
                    offset: v[0],
                    ampl: v[1],
                    freq: v[2],
                    delay: v.get(3).copied().unwrap_or(0.0),
                    theta: v.get(4).copied().unwrap_or(0.0),
                }
            }
            WaveSpec::Pwl(args) => {
                if args.len() < 2 || args.len() % 2 != 0 {
                    return Err(NetlistError::elab_at(
                        format!(
                            "`PWL` needs an even number of (time, value) arguments, got {}",
                            args.len()
                        ),
                        span,
                    ));
                }
                let v = evs(args)?;
                let points: Vec<(f64, f64)> = v.chunks(2).map(|p| (p[0], p[1])).collect();
                for w in points.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err(NetlistError::elab_at(
                            format!(
                                "`PWL` times must strictly increase ({} then {})",
                                w[0].0, w[1].0
                            ),
                            span,
                        ));
                    }
                }
                Waveform::Pwl(points)
            }
            WaveSpec::Exp(args) => {
                need(args, 6, 6, "EXP")?;
                let v = evs(args)?;
                Waveform::Exp {
                    v1: v[0],
                    v2: v[1],
                    td1: v[2],
                    tau1: v[3],
                    td2: v[4],
                    tau2: v[5],
                }
            }
        })
    }
}

/// The node names a card references, in positional order.
fn card_nodes(card: &DeviceCard) -> impl Iterator<Item = &str> {
    let (pair, list): (Option<[&String; 2]>, &[String]) = match card {
        DeviceCard::Passive { a, b, .. } | DeviceCard::Source { a, b, .. } => (Some([a, b]), &[]),
        DeviceCard::Controlled { nodes, .. } | DeviceCard::TwoPort { nodes, .. } => (None, nodes),
        DeviceCard::Product { nodes, .. } => (None, nodes),
        DeviceCard::Call { nodes, .. } => (None, nodes),
    };
    pair.into_iter().flatten().chain(list).map(String::as_str)
}

/// Rejects non-physical element values with a spanned diagnostic
/// (instead of the device constructors' panics).
fn check_positive(kind: PassiveKind, v: f64, value: &NumExpr) -> Result<()> {
    let bad = match kind {
        PassiveKind::Resistor => v == 0.0 || !v.is_finite(),
        _ => v <= 0.0 || !v.is_finite(),
    };
    let what = if bad {
        match kind {
            PassiveKind::Resistor => "resistance must be nonzero and finite",
            PassiveKind::Capacitor => "capacitance must be positive",
            PassiveKind::Inductor => "inductance must be positive",
            PassiveKind::Mass => "mass must be positive",
            PassiveKind::Spring => "stiffness must be positive",
            PassiveKind::Damper => "damping must be positive",
        }
    } else if v.recip().is_finite() {
        return Ok(());
    } else {
        // A spring is built as the inductor 1/k and a damper as the
        // resistor 1/α: a positive value such as 1e-320 can still
        // have a reciprocal that overflows.
        match kind {
            PassiveKind::Spring => "stiffness is too small: 1/k overflows",
            PassiveKind::Damper => "damping is too small: 1/α overflows",
            _ => return Ok(()),
        }
    };
    Err(NetlistError::elab_at(
        format!("{what}, got {v:.6e}"),
        value.span,
    ))
}

/// Case-insensitively checks whether HDL source text declares
/// `ENTITY <name>` as a whole word.
fn declares_entity(src: &str, name: &str) -> bool {
    let hay = src.to_ascii_lowercase();
    let needle = format!("entity {name}");
    let mut from = 0;
    while let Some(pos) = hay[from..].find(&needle) {
        let end = from + pos + needle.len();
        let boundary = hay[end..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

/// Result of one analysis card.
#[derive(Debug, Clone)]
pub enum AnalysisOutcome {
    /// `.OP` operating point.
    Op(OpSolution),
    /// `.DC` sweep: swept variable name and the sweep, holding the
    /// columns the deck prints for it (see [`run_elaborated_ctx`]).
    Dc {
        /// `v(source)` or `param(name)` — for table headers.
        var: String,
        /// Swept values and one recorded row per value.
        result: SweepResult,
    },
    /// `.AC` sweep, holding the columns the deck prints for it (see
    /// [`run_elaborated_ctx`]).
    Ac(AcResult),
    /// `.TRAN` waveforms, holding the columns the deck prints for it
    /// (see [`run_elaborated_ctx`]).
    Tran(TranResult),
}

/// Results of every analysis card of a deck, in deck order.
#[derive(Debug)]
pub struct DeckRun {
    /// Deck title.
    pub title: String,
    /// `(card, outcome)` pairs.
    pub outcomes: Vec<(AnalysisCard, AnalysisOutcome)>,
    /// Linear-solver statistics per system the run factored, labeled
    /// `"real"` (the shared Newton/transient workspace) and `"ac"`
    /// (the shared complex system). Counters accumulate over the
    /// [`RunCtx`]'s lifetime, so batch points report running totals.
    pub solver: Vec<(String, SolverStats)>,
}

/// Builds [`SimOptions`] from the deck's `.OPTIONS` cards.
///
/// # Errors
///
/// Unknown option names are spanned parse-stage errors.
pub fn sim_options(deck: &Deck, env: &ParamEnv) -> Result<SimOptions> {
    let mut sim = SimOptions::default();
    for (name, value) in &deck.options {
        // `order=nd|amd|natural|auto` is a keyword option: the value
        // is a bare word, not a numeric expression.
        if name == "order" {
            sim.ordering = fill_ordering(value)?;
            continue;
        }
        // The name is matched before the value is evaluated, so an
        // unknown option is reported as such, whatever its value.
        let v = || value.eval(env);
        match name.as_str() {
            "reltol" => sim.reltol = v()?,
            "abstol" | "vntol" => sim.abstol_voltage = v()?,
            "abstol_across" => sim.abstol_across = v()?,
            "abstol_internal" => sim.abstol_internal = v()?,
            "maxiter" | "itl1" => sim.max_iter = v()? as usize,
            "gmin" => sim.gmin = v()?,
            "maxstep" => sim.max_step = v()?,
            // `sparse=1` forces the sparse LU backend, `sparse=0` the
            // dense one; without the option the backend is picked by
            // unknown count.
            "sparse" => {
                sim.matrix = if v()? != 0.0 {
                    MatrixBackend::Sparse
                } else {
                    MatrixBackend::Dense
                }
            }
            _ => {
                return Err(NetlistError::elab_at(
                    format!("unknown option `{name}`"),
                    value.span,
                ))
            }
        }
    }
    Ok(sim)
}

/// Parses the `order=` option value (`nd`, `amd`, `natural`, or
/// `auto` — the default, which picks ND above
/// [`mems_numerics::ordering::ND_AUTO_THRESHOLD`] unknowns and AMD
/// below).
fn fill_ordering(value: &NumExpr) -> Result<FillOrdering> {
    match &value.node {
        crate::expr::ExprNode::Ident(w) if w == "amd" => Ok(FillOrdering::Amd),
        crate::expr::ExprNode::Ident(w) if w == "nd" => Ok(FillOrdering::Nd),
        crate::expr::ExprNode::Ident(w) if w == "natural" => Ok(FillOrdering::Natural),
        crate::expr::ExprNode::Ident(w) if w == "auto" => Ok(FillOrdering::Auto),
        _ => Err(NetlistError::elab_at(
            "option `order` takes `nd`, `amd`, `natural`, or `auto`",
            value.span,
        )),
    }
}

/// Fingerprint of a deck's *definitions*: its full (include-spliced)
/// source text plus every HDL block. Two decks with equal
/// fingerprints elaborate to identical topologies, so a warm
/// [`RunCtx`] (workspace, sparse pattern, ordering) from one is valid
/// for the other — this is the key of `mems serve`'s artifact cache.
pub fn deck_fingerprint(deck: &Deck) -> Fingerprint {
    deck.hdl_blocks.iter().fold(
        Fingerprint::new().bytes(deck.source.as_bytes()),
        |f, block| f.bytes(block.text.as_bytes()),
    )
}

/// Has no effect; kept only because the `perfbench` benchmark names it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Circuits built (counted by `perfbench` only).
    pub circuits_built: u64,
    /// Always 0 (counted by `perfbench` only).
    pub circuits_patched: u64,
}

/// Reusable per-runner state threaded through repeated
/// [`run_elaborated_ctx`] calls — the structure-reuse hook for the
/// `.STEP`/`.MC` batch engine. Every point builds its circuits fresh
/// through [`Elaborator::build`], but every point of a batch
/// elaborates the same topology, so the assembly workspace (and the
/// sparse backend's pattern, ordering and replayed pivots living
/// inside it) and the AC system are shared across points, and a
/// deterministic operating-point guess can warm-start each point's
/// Newton solves.
#[derive(Default)]
pub struct RunCtx {
    /// Shared assembly workspace (lazily sized to the circuit).
    pub ws: Option<Workspace>,
    /// Shared complex system for `.AC` analyses.
    ac_sys: Option<Box<dyn SystemMatrix<Complex64>>>,
    /// Newton guess for DC operating points (e.g. the previous batch
    /// point's solved operating point).
    pub op_guess: Option<Vec<f64>>,
}

impl RunCtx {
    fn workspace(&mut self) -> &mut Workspace {
        self.ws.get_or_insert_with(|| Workspace::new(0))
    }

    /// Whether the context carries reusable artifacts from earlier
    /// runs — an assembly workspace (and with it, on the sparse
    /// backend, the pattern and ordering) or an AC system. `mems
    /// serve` reports this per checkout as warm/cold cache evidence.
    pub fn is_warm(&self) -> bool {
        self.ws.is_some() || self.ac_sys.is_some()
    }

    /// Linear-solver statistics of the context's live systems (real
    /// workspace + AC system), labeled by domain. Cumulative over the
    /// context's lifetime — callers that want per-chunk attribution
    /// (e.g. `mems serve`'s `/v1/metrics`) snapshot before and after
    /// and diff. Exposed here because consumers of pooled contexts
    /// need the numbers without depending on the solver crate's
    /// `SystemMatrix` trait.
    pub fn solver_snapshot(&self) -> Vec<(&'static str, SolverStats)> {
        let mut out = Vec::new();
        if let Some(ws) = &self.ws {
            out.push(("real", ws.sys.solver_stats()));
        }
        if let Some(sys) = &self.ac_sys {
            out.push(("ac", sys.solver_stats()));
        }
        out
    }

    /// The shared complex (AC) system matrix, re-targeted to `n`
    /// unknowns under `sim`'s backend and ordering. Cached structure
    /// survives by the rule [`Workspace::ensure`] keeps, [`reusable`].
    fn ac_system(&mut self, n: usize, sim: &SimOptions) -> &mut dyn SystemMatrix<Complex64> {
        let sys = match self.ac_sys.take() {
            Some(sys) if reusable(sys.as_ref(), n, sim.matrix, sim.ordering) => sys,
            _ => new_system(n, sim.matrix, sim.ordering),
        };
        self.ac_sys.insert(sys).as_mut()
    }
}

/// Runs every analysis card of the deck (no batch) and collects the
/// outcomes.
///
/// # Errors
///
/// Propagates elaboration and simulation failures.
pub fn run_deck(deck: &Deck) -> Result<DeckRun> {
    run_deck_with(deck, &ParamEnv::new())
}

/// [`run_deck`] under parameter overrides (one batch point).
///
/// # Errors
///
/// As [`run_deck`].
pub fn run_deck_with(deck: &Deck, overrides: &ParamEnv) -> Result<DeckRun> {
    let elab = Elaborator::new(deck)?;
    run_elaborated(&elab, overrides)
}

/// Runs the deck's analyses from an existing [`Elaborator`] (the
/// batch engine reuses compiled HDL models across points).
///
/// # Errors
///
/// As [`run_deck`].
pub fn run_elaborated(elab: &Elaborator<'_>, overrides: &ParamEnv) -> Result<DeckRun> {
    run_elaborated_ctx(elab, overrides, &mut RunCtx::default())
}

/// [`run_elaborated`] with caller-owned reusable state (see
/// [`RunCtx`]).
///
/// A `.TRAN`, `.AC` or `.DC` outcome records only the unknowns the
/// deck prints for its card, [`Deck::print_labels`] (every unknown
/// when no `.PRINT` matches), so its memory is points × printed
/// columns. Every table, CSV, JSON and metric reads those labels, so
/// they read the same values as when the whole state was kept. To read
/// any unknown, run a copy of the deck with its `prints` cleared.
///
/// # Errors
///
/// As [`run_deck`].
pub fn run_elaborated_ctx(
    elab: &Elaborator<'_>,
    overrides: &ParamEnv,
    ctx: &mut RunCtx,
) -> Result<DeckRun> {
    let deck = elab.deck();
    let env = param_env(deck, overrides)?;
    let sim = sim_options(deck, &env)?;
    if deck.analyses.is_empty() {
        // No analysis card will ever build the circuit, but invalid
        // device cards must still surface (a zero-valued resistor in
        // a deck without `.OP` is a deck error, not a silent no-op).
        elab.build(overrides, None)?;
    }
    let mut outcomes = Vec::new();
    for card in &deck.analyses {
        let outcome = match elab.plan(card, &env)? {
            Plan::Op => {
                let (mut ckt, _) = elab.build(overrides, None)?;
                let guess = ctx.op_guess.clone();
                let ws = ctx.workspace();
                let op = dcop::solve_in(&mut ckt, &sim, guess.as_deref(), ws)?;
                AnalysisOutcome::Op(op)
            }
            Plan::Dc { sweep, values } => {
                let build = |v| {
                    let built = match sweep {
                        DcSweepVar::Source(src) => elab.build(overrides, Some((src.as_str(), v))),
                        DcSweepVar::Param(p) => {
                            let mut o = overrides.clone();
                            o.insert(p.clone(), v);
                            elab.build(&o, None)
                        }
                    };
                    // The sweep takes the simulator's error type.
                    let err = |e: NetlistError| mems_spice::SpiceError::Build(e.to_string());
                    built.map(|(ckt, _)| ckt).map_err(err)
                };
                // The first value's layout names the unknowns, so the
                // printed ones are picked without building a circuit.
                let record = |labels: &[String]| printed_unknowns(deck, card, labels);
                let result = dc_sweep_in(build, &values, record, &sim, ctx.workspace())?;
                let var = match sweep {
                    DcSweepVar::Source(src) => format!("v({src})"),
                    DcSweepVar::Param(p) => format!("param({p})"),
                };
                AnalysisOutcome::Dc { var, result }
            }
            Plan::Ac(fs) => {
                let (mut ckt, _) = elab.build(overrides, None)?;
                // Same reuse shape as the other analyses: operating
                // point through the shared real workspace (with the
                // warm-start guess), frequency sweep through the
                // shared complex system.
                let freqs = fs.frequencies().map_err(NetlistError::from)?;
                let guess = ctx.op_guess.clone();
                let op = dcop::solve_in(&mut ckt, &sim, guess.as_deref(), ctx.workspace())?;
                let record = printed_unknowns(deck, card, &op.layout.labels);
                let sys = ctx.ac_system(op.layout.n_unknowns, &sim);
                let ac = run_ac_recorded_in(&mut ckt, &freqs, &op, sys, &record)?;
                AnalysisOutcome::Ac(ac)
            }
            Plan::Tran(mut opts) => {
                let (mut ckt, _) = elab.build(overrides, None)?;
                opts.record = printed_unknowns(deck, card, &ckt.layout().labels);
                let guess = ctx.op_guess.clone();
                let ws = ctx.workspace();
                let tr = run_tran_in(&mut ckt, &opts, &sim, guess.as_deref(), ws)?;
                AnalysisOutcome::Tran(tr)
            }
        };
        outcomes.push((card.clone(), outcome));
    }
    let mut solver = Vec::new();
    if let Some(ws) = &ctx.ws {
        let st = ws.sys.solver_stats();
        if st.factors + st.refactors > 0 {
            solver.push(("real".to_string(), st));
        }
    }
    if let Some(sys) = &ctx.ac_sys {
        let st = sys.solver_stats();
        if st.factors + st.refactors > 0 {
            solver.push(("ac".to_string(), st));
        }
    }
    Ok(DeckRun {
        title: deck.title.clone(),
        outcomes,
        solver,
    })
}

/// The unknowns an analysis card records: those [`Deck::print_labels`]
/// selects for its kind out of `labels`, in that order, or
/// [`Record::All`] when that is every unknown in layout order.
fn printed_unknowns(deck: &Deck, card: &AnalysisCard, labels: &[String]) -> Record {
    let printed = deck.print_labels(card.kind_name(), labels);
    if printed == labels {
        return Record::All;
    }
    Record::Unknowns(
        printed
            .iter()
            .map(|p| {
                labels
                    .iter()
                    .position(|l| l == p)
                    .expect("print_labels selects from the labels it is given")
            })
            .collect(),
    )
}

/// An analysis card evaluated under one parameter environment and
/// checked (see [`Elaborator::plan`]).
enum Plan<'c> {
    Op,
    Dc {
        sweep: &'c DcSweepVar,
        values: Vec<f64>,
    },
    Ac(FreqSweep),
    Tran(TranOptions),
}

/// Refuses the card at `span` (`.TRAN`, `.STEP`, …) when it asks for
/// more than [`MAX_POINTS`] points; `count` is a float because a
/// hostile card can ask for more points than any integer type holds.
pub(crate) fn within_point_limit(card: &str, count: f64, span: Span) -> Result<()> {
    if count <= MAX_POINTS as f64 {
        return Ok(());
    }
    let count = if count < 1e15 {
        format!("{count:.0}")
    } else {
        format!("{count:.3e}")
    };
    Err(NetlistError::elab_at(
        format!("`{card}` would produce {count} points; the limit is {MAX_POINTS}"),
        span,
    ))
}

/// The inclusive linear range `start..=stop` with sign-checked step:
/// its point count and, lazily, its values; `None` when it is
/// malformed. Nothing is allocated, so a caller can bound the count
/// first.
pub(crate) fn linear_range(
    start: f64,
    stop: f64,
    step: f64,
) -> Option<(f64, impl Iterator<Item = f64>)> {
    if step == 0.0 || !step.is_finite() || !start.is_finite() || !stop.is_finite() {
        return None;
    }
    let step = if (stop - start).signum() == step.signum() || start == stop {
        step
    } else {
        -step
    };
    let count = ((stop - start) / step).round() + 1.0;
    Some((
        count,
        (0..count as usize).map(move |i| start + step * i as f64),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_artifacts_cross_threads() {
        // `mems serve` keeps owned decks and pooled warm `RunCtx`s
        // (workspaces + sparse patterns) behind a shared cache
        // and hands them to worker threads; this must stay Send.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Deck>();
        assert_sync::<Deck>();
        assert_send::<RunCtx>();
    }

    /// The RC deck of every bad-analysis test, with `card` on line 5.
    fn rc_deck(card: &str) -> String {
        format!("tr\nV1 1 0 PULSE(0 1 0 1n 1n 1n 2n)\nR1 1 2 1k\nC1 2 0 1p\n{card}\n.end\n")
    }

    #[test]
    fn analysis_cards_are_checked_at_elaboration() {
        // Each card used to elaborate and then fail, or exhaust
        // memory, only once it ran.
        for (card, expect) in [
            (".tran 1e-18 1", "`.TRAN` would produce 1.000e18 points"),
            (
                ".ac dec 1e12 1 1e9",
                "`.AC` would produce 9000000000001 points",
            ),
            (".dc V1 0 1 1e-15", "`.DC` would produce 1.000e15 points"),
            (".tran 1n 1e-300", "bad `.TRAN` times"),
            (".ac lin 2 0 0", "bad linear sweep"),
            (".dc V9 0 1 0.1", "`.DC` sweeps unknown source `v9`"),
        ] {
            let src = rc_deck(card);
            let deck = Deck::parse(&src).unwrap();
            let err = Elaborator::new(&deck).err().expect(card);
            let r = err.render(&src);
            assert!(r.contains(expect) && r.contains("(line 5, col 1)"), "{r}");
        }
        // The limit is inclusive: 10⁶ output points still elaborate.
        let deck = Deck::parse(&rc_deck(".dc V1 1 1000000 1")).unwrap();
        assert!(Elaborator::new(&deck).is_ok());
    }

    #[test]
    fn every_run_checks_its_own_point() {
        // Nominal `tstep` is fine; the point's override asks for 10⁷
        // output points and is refused before anything runs.
        let deck = Deck::parse("tr\n.param h=1m\nV1 1 0 1\nR1 1 0 1k\n.tran {h} 10m\n").unwrap();
        let elab = Elaborator::new(&deck).unwrap();
        let overrides: ParamEnv = [("h".to_string(), 1e-9)].into();
        let err = run_elaborated(&elab, &overrides).unwrap_err();
        assert!(err.to_string().contains("would produce"), "{err}");
    }

    fn divider_deck() -> Deck {
        Deck::parse(
            "divider\n\
             .param vin=6 rtop=1k\n\
             Vs in 0 {vin}\n\
             R1 in out {rtop}\n\
             R2 out 0 2k\n\
             .op\n",
        )
        .unwrap()
    }

    #[test]
    fn elaborates_and_runs_op() {
        let deck = divider_deck();
        let run = run_deck(&deck).unwrap();
        assert_eq!(run.outcomes.len(), 1);
        match &run.outcomes[0].1 {
            AnalysisOutcome::Op(op) => {
                let v = op.by_label("v(out)").unwrap();
                assert!((v - 4.0).abs() < 1e-6, "v(out) = {v}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn overrides_redefine_params() {
        let deck = divider_deck();
        let mut o = ParamEnv::new();
        o.insert("vin".into(), 12.0);
        let run = run_deck_with(&deck, &o).unwrap();
        match &run.outcomes[0].1 {
            AnalysisOutcome::Op(op) => {
                assert!((op.by_label("v(out)").unwrap() - 8.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dc_source_sweep_runs() {
        let deck =
            Deck::parse("sweep\nVs in 0 1\nR1 in out 1k\nR2 out 0 1k\n.dc vs 0 4 1\n").unwrap();
        let run = run_deck(&deck).unwrap();
        match &run.outcomes[0].1 {
            AnalysisOutcome::Dc { var, result } => {
                assert_eq!(var, "v(vs)");
                assert_eq!(result.values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
                let out = result.trace("v(out)").unwrap();
                assert!((out[4] - 2.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mechanical_sugar_defaults_natures() {
        let deck = Deck::parse(
            "resonator\n\
             Is 0 vel PWL(0 0 1m 1u)\n\
             .node mechanical1 vel\n\
             Mm vel 0 1e-4\n\
             Kk vel 0 200\n\
             Dd vel 0 40m\n\
             .tran 0.1m 50m\n",
        )
        .unwrap();
        let run = run_deck(&deck).unwrap();
        match &run.outcomes[0].1 {
            AnalysisOutcome::Tran(tr) => {
                let x = tr.integrated_trace("v(vel)", 0.0).unwrap();
                // 1 µN / (200 N/m) = 5 nm static deflection.
                let tail = x.last().copied().unwrap();
                assert!((tail - 5e-9).abs() < 0.1e-9, "x(end) = {tail:e}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hdl_pin_nature_conflicts_are_caught() {
        // `tip` is declared electrical, but the entity's c/dd pins
        // are mechanical1 — X pins enforce the entity's natures.
        let deck = Deck::parse(
            "t\n\
             .node electrical tip\n\
             .hdl\n\
             ENTITY et IS\n\
              GENERIC (g : analog := 1.0);\n\
              PIN (a, b : electrical; c, dd : mechanical1);\n\
             END ENTITY et;\n\
             ARCHITECTURE a OF et IS\n\
             BEGIN\n\
               RELATION\n\
                 PROCEDURAL FOR dc, ac, transient =>\n\
                   [a, b].i %= g * [a, b].v;\n\
               END RELATION;\n\
             END ARCHITECTURE a;\n\
             .endhdl\n\
             Vs in 0 1\n\
             X1 in 0 tip 0 et\n\
             .op\n",
        )
        .unwrap();
        // `Elaborator::new` refuses it, so `mems check` does too.
        let err = Elaborator::new(&deck).err().expect("nature conflict");
        let r = err.render(&deck.source);
        assert!(
            r.contains("circuit error: node `tip` already exists with nature electrical"),
            "{r}"
        );
        assert!(r.contains("(line 17, col 1)"), "{r}");
        assert_eq!(run_deck(&deck).unwrap_err().to_string(), err.to_string());
    }

    /// Two devices with one instance path are refused by
    /// `Elaborator::new`, at the second card.
    #[test]
    fn duplicate_instance_paths_are_caught() {
        for (src, message, at) in [
            (
                "t\nV1 1 0 1\nR1 1 0 1k\nR1 1 0 2k\n.op\n",
                "duplicate device name `r1`",
                "(line 4, col 1)",
            ),
            (
                "t\n.subckt cell a b\nR1 a b 1k\nR1 a 0 2k\n.ends\nV1 in 0 1\nX1 in 0 cell\n.op\n",
                "duplicate device name `x1.r1`",
                "(line 4, col 1)",
            ),
            // A dotted instance name meets a nested path.
            (
                "t\n.subckt leaf a\nR1 a 0 1k\n.ends\n.subckt mid a\nXb a leaf\n.ends\n\
                 V1 in 0 1\nXa in mid\nXa.xb in leaf\n.op\n",
                "duplicate device name `xa.xb.r1`",
                "(line 3, col 1)",
            ),
        ] {
            let deck = Deck::parse(src).unwrap();
            let err = Elaborator::new(&deck).err().expect(src);
            let r = err.render(src);
            assert!(r.contains(&format!("circuit error: {message}")), "{r}");
            assert!(r.contains(at), "{r}");
        }
        // One name on two instances whose devices differ is no clash.
        let deck = Deck::parse(
            "t\n.subckt pa a\nRa a 0 1k\n.ends\n.subckt pb a\nRb a 0 1k\n.ends\n\
             V1 in 0 1\nX1 in pa\nX1 in pb\n.op\n",
        )
        .unwrap();
        assert!(Elaborator::new(&deck).is_ok());
    }

    /// Declared nodes are numbered first, then each card's nodes at
    /// first use, whatever order the hierarchy is walked in.
    #[test]
    fn nodes_number_declarations_first() {
        let deck = Deck::parse(
            "t\nR1 a 0 1k\n.subckt s p\n.node mechanical1 m\nKk m 0 1\nR2 p q 1\nR3 q 0 1\n.ends\n\
             X1 a s\nR4 b 0 1k\n.op\n",
        )
        .unwrap();
        let elab = Elaborator::new(&deck).unwrap();
        let (mut ckt, _) = elab.build(&ParamEnv::new(), None).unwrap();
        let layout = ckt.layout();
        assert_eq!(
            layout.labels,
            ["v(x1.m)", "v(a)", "v(x1.q)", "v(b)", "i(x1.kk,0)"]
        );
        let m = ckt.find_node("x1.m").unwrap();
        assert_eq!(ckt.node_nature(m), Nature::MechanicalTranslation);
    }

    #[test]
    fn unknown_entity_is_spanned() {
        let deck = Deck::parse("t\nX1 a 0 b 0 ghost\n.op\n").unwrap();
        let err = run_deck(&deck).unwrap_err();
        let r = err.render(&deck.source);
        assert!(r.contains("no `.HDL` block"), "{r}");
        assert!(r.contains("ghost"), "{r}");
    }

    /// Solver options that do not exist (among them the removed
    /// `factor` and `factor_threads`) and bad `order=` keywords are
    /// spanned diagnostics, never silently ignored.
    #[test]
    fn bad_solver_options_are_spanned() {
        for (option, message) in [
            ("factor=super", "unknown option `factor`"),
            ("factor_threads=2", "unknown option `factor_threads`"),
            (
                "order=fastest",
                "option `order` takes `nd`, `amd`, `natural`, or `auto`",
            ),
        ] {
            let src = format!("t\n.options {option}\nR1 a 0 1k\n.op\n");
            let deck = Deck::parse(&src).unwrap();
            let err = sim_options(&deck, &ParamEnv::new()).unwrap_err();
            let r = err.render(&src);
            assert!(r.contains(message), "{r}");
            assert!(r.contains("line 2"), "{r}");
        }
    }

    #[test]
    fn entity_scan_respects_word_boundaries() {
        assert!(declares_entity("ENTITY relay IS", "relay"));
        assert!(!declares_entity("ENTITY relay2 IS", "relay"));
        assert!(declares_entity(
            "entity a is\nend;\nENTITY relay IS",
            "relay"
        ));
    }

    #[test]
    fn zero_valued_elements_are_rejected_with_span() {
        let src = "t\nC1 a 0 0\n.op\n";
        let deck = Deck::parse(src).unwrap();
        let err = run_deck(&deck).unwrap_err();
        let r = err.render(src);
        assert!(r.contains("capacitance must be positive"), "{r}");
        assert!(r.contains("line 2"), "{r}");
    }

    #[test]
    fn springs_and_dampers_with_overflowing_reciprocals_are_rejected() {
        // 1e-320 is subnormal: it reads back as 9.999889e-321.
        for (card, message) in [
            (
                "Kk1 vel 0 {k}",
                "stiffness is too small: 1/k overflows, got 9.99",
            ),
            (
                "Dd1 vel 0 1e-320",
                "damping is too small: 1/α overflows, got 9.99",
            ),
        ] {
            let src = format!("tiny\n.param k=1e-320\nIs 0 vel 1u\nMm1 vel 0 1e-4\n{card}\n.op\n");
            let deck = Deck::parse(&src).unwrap();
            let r = run_deck(&deck).unwrap_err().render(&src);
            assert!(r.contains(message), "{r}");
            assert!(r.contains("line 5"), "{r}");
        }
    }

    /// Every device card kind elaborates, and a parameter override
    /// lands in the built devices.
    #[test]
    fn every_card_kind_elaborates_under_overrides() {
        let deck = Deck::parse(
            "all kinds\n\
             .param g=2 r=1k\n\
             .hdl\n\
             ENTITY e1 IS\n\
              GENERIC (k : analog := 1.0);\n\
              PIN (a, b : electrical);\n\
             END ENTITY e1;\n\
             ARCHITECTURE a OF e1 IS\n\
             BEGIN\n\
               RELATION\n\
                 PROCEDURAL FOR dc, ac, transient =>\n\
                   [a, b].i %= k * [a, b].v;\n\
               END RELATION;\n\
             END ARCHITECTURE a;\n\
             .endhdl\n\
             Vs in 0 SIN(1 1 1k) AC 1 0\n\
             Is in 0 PULSE(0 1m 0 1u 1u 1m 2m)\n\
             R1 in out {r}\n\
             C1 out 0 1n\n\
             L1 out 0 1m\n\
             E1 e1o 0 in 0 {g}\n\
             G1 g1o 0 in 0 {g}\n\
             F1 f1o 0 in s1 {g}\n\
             H1 h1o 0 s1 s2 {g}\n\
             Rs s2 0 1k\n\
             B1 b1o 0 in 0 out 0 {g}\n\
             T1 e1o 0 t1o 0 2\n\
             Y1 g1o 0 y1o 0 0.5\n\
             Rl1 t1o 0 1k\n\
             Rl2 y1o 0 1k\n\
             Rl3 e1o 0 1k\n\
             Rl4 g1o 0 1k\n\
             Rl5 f1o 0 1k\n\
             Rl6 h1o 0 1k\n\
             Rl7 b1o 0 1k\n\
             Mm vel 0 1e-4\n\
             Kk vel 0 200\n\
             Dd vel 0 40m\n\
             X1 in 0 e1\n\
             .op\n",
        )
        .unwrap();
        let mut over = ParamEnv::new();
        over.insert("g".into(), 3.0);
        over.insert("r".into(), 2.0e3);
        let run = run_deck_with(&deck, &over).unwrap();
        match &run.outcomes[0].1 {
            // The VCVS output follows the overridden gain: 3 · 1 V.
            AnalysisOutcome::Op(op) => {
                let v = op.by_label("v(e1o)").unwrap();
                assert!((v - 3.0).abs() < 1e-9, "v(e1o) = {v}");
            }
            other => panic!("{other:?}"),
        }
    }

    /// A deck with no analysis cards still validates its devices
    /// (`run_elaborated_ctx` only builds circuits per analysis card,
    /// so the empty case needs an explicit validation build).
    #[test]
    fn deck_without_analyses_still_validates_devices() {
        let src = "t\nVs in 0 5\nR1 in out 0\n";
        let deck = Deck::parse(src).unwrap();
        let err = run_deck(&deck).unwrap_err();
        assert!(
            err.to_string().contains("resistance must be nonzero"),
            "{err}"
        );
        // A valid zero-analysis deck still runs (empty outcome list).
        let ok = Deck::parse("t\nVs in 0 5\nR1 in 0 1k\n").unwrap();
        assert!(run_deck(&ok).unwrap().outcomes.is_empty());
    }

    // -----------------------------------------------------------
    // Hierarchical (.SUBCKT) elaboration
    // -----------------------------------------------------------

    /// Two-level divider: `half` divides by two, `quarter` chains two
    /// `half`s through a private internal node.
    const QUARTER_DECK: &str = "\
quarter
.param vin=8
.subckt half in out PARAMS: r=1k
R1 in out {r}
R2 out 0 {r}
.ends half
.subckt quarter in out
Xa in mid half
Xb mid out half r=2k
.ends quarter
Vs in 0 {vin}
Xq in tap quarter
Rl tap 0 1e9
.op
";

    #[test]
    fn nested_subckts_flatten_with_hierarchical_names() {
        let deck = Deck::parse(QUARTER_DECK).unwrap();
        let elab = Elaborator::new(&deck).unwrap();
        let (ckt, _) = elab.build(&ParamEnv::new(), None).unwrap();
        // Flattened device paths.
        for dev in ["vs", "xq.xa.r1", "xq.xa.r2", "xq.xb.r1", "xq.xb.r2", "rl"] {
            assert!(ckt.device_index(dev).is_some(), "missing `{dev}`");
        }
        // The inner node of `quarter` is private and hierarchical;
        // ports map onto the caller's nodes.
        assert!(ckt.find_node("xq.mid").is_some());
        assert!(ckt.find_node("tap").is_some());
        assert!(ckt.find_node("xq.out").is_none(), "port must not leak");
        let run = run_deck(&deck).unwrap();
        match &run.outcomes[0].1 {
            AnalysisOutcome::Op(op) => {
                // Stage b (2k+2k) loads stage a's midpoint:
                // v(mid) = 8·(1k∥4k)/(1k + 1k∥4k) = 32/9,
                // v(tap) = v(mid)/2 = 16/9.
                let v = op.by_label("v(tap)").unwrap();
                assert!((v - 16.0 / 9.0).abs() < 1e-4, "v(tap) = {v}");
                let mid = op.by_label("v(xq.mid)").unwrap();
                assert!((mid - 32.0 / 9.0).abs() < 1e-4, "v(xq.mid) = {mid}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hierarchical_overrides_rebind_instance_params() {
        let deck = Deck::parse(QUARTER_DECK).unwrap();
        // Override the *inner* instance's formal through its path:
        // xq.xb gets r=6k top / 6k bottom — still a half divider, but
        // prove the override lands by instead overriding one leg of
        // xq.xa via its local scope? Formals are per instance: set
        // xq.xb.r and check nothing else moved.
        let mut over = ParamEnv::new();
        over.insert("xq.xb.r".into(), 6.0e3);
        let run = run_deck_with(&deck, &over).unwrap();
        match &run.outcomes[0].1 {
            AnalysisOutcome::Op(op) => {
                // Stage b now loads mid with 12k:
                // v(mid) = 8·(1k∥12k)/(1k + 1k∥12k) = 3.84,
                // v(tap) = v(mid)/2 = 1.92.
                assert!((op.by_label("v(xq.mid)").unwrap() - 3.84).abs() < 1e-4);
                assert!((op.by_label("v(tap)").unwrap() - 1.92).abs() < 1e-4);
            }
            other => panic!("{other:?}"),
        }
        // An override on a *different* instance path must not leak.
        let elab = Elaborator::new(&deck).unwrap();
        let q = elab.qualified_param_env(&over).unwrap();
        assert_eq!(q.get("xq.xb.r"), Some(&6.0e3));
        assert_eq!(q.get("xq.xa.r"), Some(&1.0e3));
        assert_eq!(q.get("vin"), Some(&8.0));
        assert!(elab.declares_param("xq.xa.r"));
        assert!(!elab.declares_param("xq.xc.r"));
    }

    #[test]
    fn inner_params_shadow_outer_and_defaults_see_outer() {
        let deck = Deck::parse(
            "shadow\n\
             .param r=1k scale=3\n\
             .subckt cell a b PARAMS: r={500*scale}\n\
             .param rr={r*2}\n\
             R1 a b {rr}\n\
             .ends\n\
             Vs in 0 1\n\
             X1 in 0 cell\n\
             X2 in 0 cell r=100\n\
             .op\n",
        )
        .unwrap();
        let elab = Elaborator::new(&deck).unwrap();
        let q = elab.qualified_param_env(&ParamEnv::new()).unwrap();
        // Default evaluated in the instance scope sees the outer
        // `scale`; the formal shadows the global `r` for the body.
        assert_eq!(q.get("x1.r"), Some(&1500.0));
        assert_eq!(q.get("x1.rr"), Some(&3000.0));
        // Call-site args win over defaults.
        assert_eq!(q.get("x2.r"), Some(&100.0));
        assert_eq!(q.get("x2.rr"), Some(&200.0));
        assert_eq!(q.get("r"), Some(&1000.0));
    }

    #[test]
    fn subckt_diagnostics_have_spans() {
        // Cycle.
        let src =
            "t\n.subckt a p q\nXi p q b\n.ends\n.subckt b p q\nXj p q a\n.ends\nX1 in 0 a\n.op\n";
        let deck = Deck::parse(src).unwrap();
        let err = Elaborator::new(&deck).err().expect("cycle detected");
        assert!(err.to_string().contains("recursive subcircuit"), "{err}");
        assert!(err.span().is_some());

        // Port arity.
        let src = "t\n.subckt a p q\nR1 p q 1k\n.ends\nX1 in mid out a\n.op\n";
        let deck = Deck::parse(src).unwrap();
        let err = Elaborator::new(&deck).err().expect("arity checked");
        assert!(
            err.to_string()
                .contains("has 2 ports but 3 nodes are connected"),
            "{err}"
        );

        // Unknown parameter override.
        let src = "t\n.subckt a p q PARAMS: r=1\nR1 p q {r}\n.ends\nX1 in 0 a bogus=2\n.op\n";
        let deck = Deck::parse(src).unwrap();
        let err = Elaborator::new(&deck).err().expect("unknown arg checked");
        assert!(err.to_string().contains("no parameter `bogus`"), "{err}");

        // Formal with neither value nor default.
        let src = "t\n.subckt a p q PARAMS: r\nR1 p q {r}\n.ends\nX1 in 0 a\n.op\n";
        let deck = Deck::parse(src).unwrap();
        let err = run_deck(&deck).unwrap_err();
        assert!(err.to_string().contains("no value and no default"), "{err}");

        // Unknown callee keeps the entity wording.
        let src = "t\nX1 a 0 ghost\n.op\n";
        let deck = Deck::parse(src).unwrap();
        let err = run_deck(&deck).unwrap_err();
        assert!(err.to_string().contains("no `.SUBCKT` definition"), "{err}");
    }

    #[test]
    fn hierarchical_dc_param_sweep_and_source_sweep() {
        let deck = Deck::parse(
            "hdc\n\
             .subckt div a b PARAMS: rbot=1k\n\
             Rt a b 1k\n\
             Rb b 0 {rbot}\n\
             .ends\n\
             Vs in 0 6\n\
             X1 in out div\n\
             .dc param x1.rbot 1k 3k 1k\n",
        )
        .unwrap();
        let run = run_deck(&deck).unwrap();
        match &run.outcomes[0].1 {
            AnalysisOutcome::Dc { var, result } => {
                assert_eq!(var, "param(x1.rbot)");
                let out = result.trace("v(out)").unwrap();
                let expect: Vec<f64> = [1.0e3, 2.0e3, 3.0e3]
                    .iter()
                    .map(|r| 6.0 * r / (1.0e3 + r))
                    .collect();
                for (a, b) in out.iter().zip(&expect) {
                    assert!((a - b).abs() < 1e-6, "{a} vs {b}");
                }
            }
            other => panic!("{other:?}"),
        }
        // A source inside a subcircuit is addressable by path.
        let deck = Deck::parse(
            "hsrc\n\
             .subckt src p\nVs p 0 1\n.ends\n\
             X1 in src\n\
             R1 in 0 1k\n\
             .dc x1.vs 0 2 1\n",
        )
        .unwrap();
        let run = run_deck(&deck).unwrap();
        match &run.outcomes[0].1 {
            AnalysisOutcome::Dc { var, result } => {
                assert_eq!(var, "v(x1.vs)");
                let out = result.trace("v(in)").unwrap();
                assert_eq!(out.len(), 3);
                assert!((out[2] - 2.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    /// A context reused across *different* decks answers each deck
    /// from its own wiring, even when device names/kinds coincide.
    #[test]
    fn runctx_reused_across_decks_answers_each_deck() {
        // Same device names and kinds, different wiring: deck A is a
        // divider (v(out) = vin/2), deck B ties R2 across the source
        // instead (v(out) = vin).
        let deck_a =
            Deck::parse("a\n.param vin=6\nVs in 0 {vin}\nR1 in out 1k\nR2 out 0 1k\n.op\n")
                .unwrap();
        let deck_b =
            Deck::parse("b\n.param vin=6\nVs in 0 {vin}\nR1 in out 1k\nR2 in out 1k\n.op\n")
                .unwrap();
        let mut ctx = RunCtx::default();
        let ea = Elaborator::new(&deck_a).unwrap();
        let eb = Elaborator::new(&deck_b).unwrap();
        let ra = run_elaborated_ctx(&ea, &ParamEnv::new(), &mut ctx).unwrap();
        let rb = run_elaborated_ctx(&eb, &ParamEnv::new(), &mut ctx).unwrap();
        let v = |run: &DeckRun| match &run.outcomes[0].1 {
            AnalysisOutcome::Op(op) => op.by_label("v(out)").unwrap(),
            other => panic!("{other:?}"),
        };
        assert!((v(&ra) - 3.0).abs() < 1e-6, "divider: {}", v(&ra));
        assert!((v(&rb) - 6.0).abs() < 1e-6, "direct tie: {}", v(&rb));
    }
}
