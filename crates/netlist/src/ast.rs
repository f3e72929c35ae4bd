//! Deck AST: spanned cards as parsed, before elaboration.

use crate::expr::NumExpr;
use crate::token::RawBlock;
use mems_hdl::span::Span;
use mems_hdl::Nature;

/// A parsed deck.
#[derive(Debug, Clone)]
pub struct Deck {
    /// Title (first line, verbatim).
    pub title: String,
    /// The full deck source (spans index into this).
    pub source: String,
    /// Device cards in deck order.
    pub devices: Vec<DeviceCard>,
    /// `.PARAM` definitions in deck order.
    pub params: Vec<ParamDef>,
    /// `.NODE` nature declarations.
    pub node_decls: Vec<NodeDecl>,
    /// `.SUBCKT` definitions (one global table — nested and
    /// `.INCLUDE`d definitions are hoisted here; names are unique).
    pub subckts: Vec<SubcktDef>,
    /// HDL-A source blocks (inline `.HDL` + `.INCLUDE`d files).
    pub hdl_blocks: Vec<RawBlock>,
    /// Analysis cards in deck order.
    pub analyses: Vec<AnalysisCard>,
    /// `.STEP` sweep, when present.
    pub step: Option<StepCard>,
    /// `.MC` Monte Carlo, when present.
    pub mc: Option<McCard>,
    /// `.PRINT` trace selections (shared by all analyses).
    pub prints: Vec<PrintCard>,
    /// `.OPTIONS` overrides applied to [`mems_spice::SimOptions`].
    pub options: Vec<(String, NumExpr)>,
}

impl Deck {
    /// Looks up a `.SUBCKT` definition by (lower-cased) name.
    pub fn subckt(&self, name: &str) -> Option<&SubcktDef> {
        self.subckts.iter().find(|s| s.name == name)
    }

    /// Labels the deck selects for one analysis kind: `.PRINT` cards
    /// filtered to the available label set, falling back to every
    /// available label when no `.PRINT` selection matches.
    pub fn print_labels(&self, kind: &str, all: &[String]) -> Vec<String> {
        let chosen: Vec<String> = self
            .prints
            .iter()
            .filter(|p| p.analysis.as_deref().is_none_or(|a| a == kind))
            .flat_map(|p| p.labels.iter().cloned())
            .filter(|l| all.contains(l))
            .collect();
        if chosen.is_empty() {
            all.to_vec()
        } else {
            chosen
        }
    }
}

/// `.PARAM name = expr`.
#[derive(Debug, Clone)]
pub struct ParamDef {
    /// Lower-cased parameter name.
    pub name: String,
    /// Defining expression (may reference earlier parameters).
    pub value: NumExpr,
    /// Span of the definition.
    pub span: Span,
}

/// A formal parameter of a `.SUBCKT` header (`PARAMS: name=default`).
#[derive(Debug, Clone)]
pub struct FormalParam {
    /// Lower-cased parameter name.
    pub name: String,
    /// Default value, evaluated in the instance scope (outer
    /// parameters and earlier formals visible). `None` means the
    /// caller must pass a value.
    pub default: Option<NumExpr>,
    /// Span of the formal's name in the header.
    pub span: Span,
}

/// A `.SUBCKT name ports… [PARAMS: k=v …]` … `.ENDS` definition.
///
/// The body is a scoped sub-deck: device cards, local `.PARAM`s, and
/// `.NODE` declarations. Body node names that are not ports (and not
/// ground) are private to each instance and surface flattened as
/// `<instance-path>.<name>`.
#[derive(Debug, Clone)]
pub struct SubcktDef {
    /// Lower-cased subcircuit name.
    pub name: String,
    /// Port node names in header order.
    pub ports: Vec<String>,
    /// Formal parameters (`PARAMS:` clause).
    pub formals: Vec<FormalParam>,
    /// Body device cards in definition order.
    pub devices: Vec<DeviceCard>,
    /// Body `.PARAM` definitions (evaluated in the instance scope,
    /// shadowing outer parameters).
    pub params: Vec<ParamDef>,
    /// Body `.NODE` declarations (names mapped per instance).
    pub node_decls: Vec<NodeDecl>,
    /// Span of the `.SUBCKT` header card.
    pub span: Span,
}

/// `.NODE <nature> n1 [n2 …]`.
#[derive(Debug, Clone)]
pub struct NodeDecl {
    /// Declared nature.
    pub nature: Nature,
    /// Lower-cased node names.
    pub nodes: Vec<String>,
    /// Span of the card.
    pub span: Span,
}

/// Passive two-terminal element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassiveKind {
    /// `R` — resistor \[Ω\].
    Resistor,
    /// `C` — capacitor \[F\].
    Capacitor,
    /// `L` — inductor \[H\].
    Inductor,
    /// `M` — mass \[kg\] (mechanical sugar, force–current analogy).
    Mass,
    /// `K` — spring stiffness [N/m] (mechanical sugar).
    Spring,
    /// `D` — damper [N·s/m] (mechanical sugar).
    Damper,
}

/// Independent source kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `V` — across source (voltage / velocity / …).
    Voltage,
    /// `I` — through source (current / force / …).
    Current,
}

/// Linear controlled-source kinds (the four SPICE letters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlledKind {
    /// `E` — VCVS.
    Vcvs,
    /// `G` — VCCS.
    Vccs,
    /// `F` — CCCS (senses its own zero-volt branch).
    Cccs,
    /// `H` — CCVS (senses its own zero-volt branch).
    Ccvs,
}

/// Ideal two-port coupler kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPortKind {
    /// `T` — ideal transformer (ratio `n = v1/v2`).
    Transformer,
    /// `Y` — gyrator (gyration conductance `g`).
    Gyrator,
}

/// Source waveform specification (arguments are expressions).
#[derive(Debug, Clone)]
pub enum WaveSpec {
    /// `DC v` (or a bare value).
    Dc(NumExpr),
    /// `PULSE(v1 v2 delay rise fall width [period])`.
    Pulse(Vec<NumExpr>),
    /// `SIN(offset ampl freq [delay [theta]])`.
    Sin(Vec<NumExpr>),
    /// `PWL(t1 v1 t2 v2 …)`.
    Pwl(Vec<NumExpr>),
    /// `EXP(v1 v2 td1 tau1 td2 tau2)`.
    Exp(Vec<NumExpr>),
}

/// One device card.
#[derive(Debug, Clone)]
pub enum DeviceCard {
    /// R / C / L / M / K / D.
    Passive {
        /// Element kind.
        kind: PassiveKind,
        /// Instance name (deck spelling, lower-cased).
        name: String,
        /// Positive node.
        a: String,
        /// Negative node.
        b: String,
        /// Element value.
        value: NumExpr,
        /// Card span.
        span: Span,
    },
    /// V / I with waveform and optional AC stimulus.
    Source {
        /// Source kind.
        kind: SourceKind,
        /// Instance name.
        name: String,
        /// Positive node.
        a: String,
        /// Negative node.
        b: String,
        /// Large-signal waveform.
        wave: WaveSpec,
        /// Small-signal `AC mag [phase]` stimulus.
        ac: Option<(NumExpr, Option<NumExpr>)>,
        /// Card span.
        span: Span,
    },
    /// E / G / F / H.
    Controlled {
        /// Controlled-source kind.
        kind: ControlledKind,
        /// Instance name.
        name: String,
        /// `[out_p, out_n, ctrl_p, ctrl_n]`.
        nodes: [String; 4],
        /// Gain / transconductance / transresistance.
        value: NumExpr,
        /// Card span.
        span: Span,
    },
    /// `B` — product source `i = k·v(c1)·v(c2)`.
    Product {
        /// Instance name.
        name: String,
        /// `[out_p, out_n, c1p, c1n, c2p, c2n]`.
        nodes: [String; 6],
        /// Product coefficient.
        value: NumExpr,
        /// Card span.
        span: Span,
    },
    /// T / Y.
    TwoPort {
        /// Coupler kind.
        kind: TwoPortKind,
        /// Instance name.
        name: String,
        /// `[p1, n1, p2, n2]`.
        nodes: [String; 4],
        /// Ratio / conductance.
        value: NumExpr,
        /// Card span.
        span: Span,
    },
    /// `X` — the unified call card: positional node connections plus
    /// named parameter overrides, resolving to either a `.SUBCKT`
    /// definition (flattened recursively) or an HDL-A entity.
    Call {
        /// Instance name.
        name: String,
        /// Positional node connections.
        nodes: Vec<String>,
        /// Callee name (lower-cased): a subcircuit or an entity.
        callee: String,
        /// Span of the callee-name token (for "unknown subcircuit or
        /// entity" diagnostics).
        callee_span: Span,
        /// `name=expr` parameter / generic overrides, evaluated in
        /// the caller's scope.
        args: Vec<(String, NumExpr)>,
        /// Card span.
        span: Span,
    },
}

impl DeviceCard {
    /// Instance name of the card.
    pub fn name(&self) -> &str {
        match self {
            DeviceCard::Passive { name, .. }
            | DeviceCard::Source { name, .. }
            | DeviceCard::Controlled { name, .. }
            | DeviceCard::Product { name, .. }
            | DeviceCard::TwoPort { name, .. }
            | DeviceCard::Call { name, .. } => name,
        }
    }

    /// Card span.
    pub fn span(&self) -> Span {
        match self {
            DeviceCard::Passive { span, .. }
            | DeviceCard::Source { span, .. }
            | DeviceCard::Controlled { span, .. }
            | DeviceCard::Product { span, .. }
            | DeviceCard::TwoPort { span, .. }
            | DeviceCard::Call { span, .. } => *span,
        }
    }
}

/// An analysis request.
#[derive(Debug, Clone)]
pub enum AnalysisCard {
    /// `.OP`.
    Op {
        /// Card span.
        span: Span,
    },
    /// `.DC <source>|PARAM <name> start stop step`.
    Dc {
        /// What is swept.
        sweep: DcSweepVar,
        /// Start value.
        start: NumExpr,
        /// Stop value (inclusive within step rounding).
        stop: NumExpr,
        /// Increment (sign-corrected at elaboration).
        step: NumExpr,
        /// Card span.
        span: Span,
    },
    /// `.AC DEC|LIN n fstart fstop` or `.AC LIST f1 f2 …`.
    Ac {
        /// Sweep shape.
        sweep: AcSweepSpec,
        /// Card span.
        span: Span,
    },
    /// `.TRAN tstep tstop`.
    Tran {
        /// Suggested (initial/maximum) step.
        tstep: NumExpr,
        /// Horizon.
        tstop: NumExpr,
        /// Use a fixed step instead of LTE-adaptive stepping.
        fixed: bool,
        /// Card span.
        span: Span,
    },
}

impl AnalysisCard {
    /// Short kind name (for tables and metric labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            AnalysisCard::Op { .. } => "op",
            AnalysisCard::Dc { .. } => "dc",
            AnalysisCard::Ac { .. } => "ac",
            AnalysisCard::Tran { .. } => "tran",
        }
    }

    /// Card span.
    pub fn span(&self) -> Span {
        match self {
            AnalysisCard::Op { span }
            | AnalysisCard::Dc { span, .. }
            | AnalysisCard::Ac { span, .. }
            | AnalysisCard::Tran { span, .. } => *span,
        }
    }
}

/// What a `.DC` card sweeps.
#[derive(Debug, Clone)]
pub enum DcSweepVar {
    /// An independent source's DC level, by instance name.
    Source(String),
    /// A `.PARAM` value, by name.
    Param(String),
}

/// `.AC` sweep shape.
#[derive(Debug, Clone)]
pub enum AcSweepSpec {
    /// Logarithmic, `n` points per decade.
    Decade {
        /// Points per decade.
        n: NumExpr,
        /// Start frequency \[Hz\].
        fstart: NumExpr,
        /// Stop frequency \[Hz\].
        fstop: NumExpr,
    },
    /// Linear with `n` total points.
    Linear {
        /// Total points.
        n: NumExpr,
        /// Start frequency \[Hz\].
        fstart: NumExpr,
        /// Stop frequency \[Hz\].
        fstop: NumExpr,
    },
    /// Explicit frequency list.
    List(Vec<NumExpr>),
}

/// `.STEP PARAM name start stop step` or `.STEP PARAM name LIST v…`.
#[derive(Debug, Clone)]
pub struct StepCard {
    /// Swept parameter (lower-cased).
    pub param: String,
    /// The values the parameter takes.
    pub values: StepValues,
    /// Card span.
    pub span: Span,
}

/// Value generator of a `.STEP` card.
#[derive(Debug, Clone)]
pub enum StepValues {
    /// `start stop step` linear range (inclusive).
    Range {
        /// First value.
        start: NumExpr,
        /// Last value.
        stop: NumExpr,
        /// Increment.
        step: NumExpr,
    },
    /// `LIST v1 v2 …`.
    List(Vec<NumExpr>),
}

/// `.MC n [SEED=s] name TOL=t [DIST=UNIFORM|GAUSS] …`.
#[derive(Debug, Clone)]
pub struct McCard {
    /// Number of Monte Carlo points.
    pub n: NumExpr,
    /// RNG seed (defaults to 1).
    pub seed: Option<NumExpr>,
    /// Perturbed parameters.
    pub vars: Vec<McVar>,
    /// Card span.
    pub span: Span,
}

/// One Monte Carlo–perturbed parameter.
#[derive(Debug, Clone)]
pub struct McVar {
    /// Parameter name (lower-cased).
    pub param: String,
    /// Relative tolerance (e.g. `0.05` = ±5 %).
    pub tol: NumExpr,
    /// Sampling distribution.
    pub dist: McDist,
}

/// Monte Carlo sampling distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McDist {
    /// Uniform on `nominal·(1 ± tol)`.
    Uniform,
    /// Gaussian with `σ = nominal·tol/3` (tol is the 3σ bound).
    Gauss,
}

/// `.PRINT [op|dc|ac|tran] label…` — which traces to report.
#[derive(Debug, Clone)]
pub struct PrintCard {
    /// Analysis kind filter (`None` = all analyses).
    pub analysis: Option<String>,
    /// Trace labels, e.g. `v(out)` or `i(k1,0)`.
    pub labels: Vec<String>,
    /// Card span.
    pub span: Span,
}
