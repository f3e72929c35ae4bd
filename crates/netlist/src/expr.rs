//! `.PARAM` expressions: a small arithmetic language over deck
//! parameters, evaluated at elaboration time so `.STEP`/`.MC` points
//! can override parameters and re-elaborate without re-parsing.
//!
//! Grammar (precedence climbing): `+ -` < `* /` < unary `-` < `**`
//! (right-associative), with parenthesized groups, function calls
//! (`sin`, `cos`, `tan`, `sqrt`, `exp`, `ln`, `log10`, `abs`, `min`,
//! `max`, `pow`, `floor`, `ceil`), and the constants `pi` and `eps0`.

use crate::error::{NetlistError, Result};
use crate::token::{parse_number, Token, TokenKind};
use mems_hdl::span::Span;
use std::collections::HashMap;
use std::sync::Arc;

/// Vacuum permittivity [F/m] — the paper's `e0`.
pub const EPS0: f64 = 8.8542e-12;

/// A parsed numeric expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct NumExpr {
    /// Expression tree.
    pub node: ExprNode,
    /// Covering span in the deck source.
    pub span: Span,
}

/// Expression tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprNode {
    /// Literal (SPICE suffixes already applied).
    Num(f64),
    /// Parameter reference (lower-cased).
    Ident(String),
    /// Negation.
    Neg(Box<NumExpr>),
    /// Binary operation.
    Bin(BinOp, Box<NumExpr>, Box<NumExpr>),
    /// Function call.
    Call(String, Vec<NumExpr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
}

impl NumExpr {
    /// A literal expression (used for programmatic deck construction).
    pub fn literal(v: f64, span: Span) -> Self {
        NumExpr {
            node: ExprNode::Num(v),
            span,
        }
    }

    /// Evaluates against a parameter environment.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Elab`] for unknown parameters or
    /// function arity mismatches, pointing at this expression's span.
    pub fn eval(&self, params: &HashMap<String, f64>) -> Result<f64> {
        match &self.node {
            ExprNode::Num(v) => Ok(*v),
            ExprNode::Ident(name) => match name.as_str() {
                "pi" => Ok(std::f64::consts::PI),
                "eps0" | "e0" => Ok(EPS0),
                _ => params.get(name).copied().ok_or_else(|| {
                    NetlistError::elab_at(format!("unknown parameter `{name}`"), self.span)
                }),
            },
            ExprNode::Neg(inner) => Ok(-inner.eval(params)?),
            ExprNode::Bin(op, a, b) => {
                let (x, y) = (a.eval(params)?, b.eval(params)?);
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Pow => x.powf(y),
                })
            }
            ExprNode::Call(name, args) => {
                let unary = |f: fn(f64) -> f64| -> Result<f64> {
                    if args.len() != 1 {
                        return Err(NetlistError::elab_at(
                            format!("`{name}` takes 1 argument, got {}", args.len()),
                            self.span,
                        ));
                    }
                    Ok(f(args[0].eval(params)?))
                };
                let binary = |f: fn(f64, f64) -> f64| -> Result<f64> {
                    if args.len() != 2 {
                        return Err(NetlistError::elab_at(
                            format!("`{name}` takes 2 arguments, got {}", args.len()),
                            self.span,
                        ));
                    }
                    Ok(f(args[0].eval(params)?, args[1].eval(params)?))
                };
                match name.as_str() {
                    "sin" => unary(f64::sin),
                    "cos" => unary(f64::cos),
                    "tan" => unary(f64::tan),
                    "sqrt" => unary(f64::sqrt),
                    "exp" => unary(f64::exp),
                    "ln" => unary(f64::ln),
                    "log10" => unary(f64::log10),
                    "abs" => unary(f64::abs),
                    "floor" => unary(f64::floor),
                    "ceil" => unary(f64::ceil),
                    "min" => binary(f64::min),
                    "max" => binary(f64::max),
                    "pow" => binary(f64::powf),
                    _ => Err(NetlistError::elab_at(
                        format!("unknown function `{name}`"),
                        self.span,
                    )),
                }
            }
        }
    }

    /// Parameter names this expression references (for dependency
    /// checks in `.PARAM` ordering).
    pub fn idents(&self, out: &mut Vec<String>) {
        match &self.node {
            ExprNode::Num(_) => {}
            ExprNode::Ident(n) => out.push(n.clone()),
            ExprNode::Neg(e) => e.idents(out),
            ExprNode::Bin(_, a, b) => {
                a.idents(out);
                b.idents(out);
            }
            ExprNode::Call(_, args) => {
                for a in args {
                    a.idents(out);
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Per-instance parameter scopes (hierarchical `.SUBCKT` elaboration)
// ---------------------------------------------------------------

/// How one name inside an instance scope gets its value.
#[derive(Debug, Clone)]
pub enum ScopeBinding<'d> {
    /// A `.SUBCKT` formal parameter: the optional call-site argument
    /// (evaluated in the **caller's** scope) and the optional declared
    /// default (evaluated in the instance scope, where outer
    /// parameters and earlier formals are visible).
    Formal {
        /// `name=expr` passed on the `X` card, if any.
        arg: Option<&'d NumExpr>,
        /// Default from the `PARAMS:` clause, if any.
        default: Option<&'d NumExpr>,
    },
    /// A body `.PARAM`, evaluated in the instance scope (shadows any
    /// outer parameter of the same name).
    Local(&'d NumExpr),
}

/// One named parameter of a scope, in evaluation order.
#[derive(Debug, Clone)]
pub struct ScopeParam<'d> {
    /// Lower-cased name (unqualified).
    pub name: &'d str,
    /// Value source.
    pub binding: ScopeBinding<'d>,
    /// Span to blame for evaluation failures.
    pub span: Span,
}

/// One parameter scope of the flattened hierarchy. Scope 0 is the
/// deck's global scope (`path` empty); every subcircuit instance adds
/// a scope whose `path` is its hierarchical instance name (`x1`,
/// `x1.xcell`, …) and whose lookups fall back outward through
/// `parent`.
#[derive(Debug, Clone)]
pub struct ScopeInfo<'d> {
    /// Index of the enclosing scope (0 for the root itself).
    pub parent: usize,
    /// Hierarchical instance path ("" for the root).
    pub path: Arc<str>,
    /// Parameters declared *in this scope*, in evaluation order
    /// (formals first, then body `.PARAM`s).
    pub params: Vec<ScopeParam<'d>>,
}

/// Joins a hierarchical prefix and a local name with `.` — the one
/// rule behind instance paths (`x1.r1`), private node names
/// (`x1.mid`), and parameter override keys (`x1.k`).
pub fn join_path(prefix: &str, name: &str) -> String {
    let mut path = String::with_capacity(prefix.len() + 1 + name.len());
    join_into(&mut path, prefix, name);
    path
}

/// [`join_path`] into a reused buffer, which it clears first.
pub fn join_into(buf: &mut String, prefix: &str, name: &str) {
    buf.clear();
    if !prefix.is_empty() {
        buf.push_str(prefix);
        buf.push('.');
    }
    buf.push_str(name);
}

impl ScopeInfo<'_> {
    /// The override key of a parameter declared in this scope:
    /// `name` at the root, `path.name` inside an instance.
    pub fn qualified(&self, name: &str) -> String {
        join_path(&self.path, name)
    }
}

/// Evaluates every scope of the flattened hierarchy under `overrides`
/// (parents before children — construction order guarantees
/// `parent < child`). An override keyed on the qualified name wins
/// over the scope's own expression — this is how `.STEP`/`.MC`/`.DC
/// PARAM` points re-bind hierarchical parameters like `x1.gap`.
///
/// Each returned environment is self-contained: a clone of the parent
/// environment with this scope's parameters shadowed in, so inner
/// definitions hide outer ones and untouched outer names remain
/// visible to body expressions.
///
/// # Errors
///
/// Spanned expression failures, plus a diagnostic for a formal with
/// neither a call-site value nor a default.
pub fn eval_scopes<'d>(
    scopes: &[ScopeInfo<'d>],
    overrides: &HashMap<String, f64>,
) -> Result<Vec<HashMap<String, f64>>> {
    let mut envs: Vec<HashMap<String, f64>> = Vec::with_capacity(scopes.len());
    for (i, scope) in scopes.iter().enumerate() {
        let parent = envs.get(scope.parent).filter(|_| i > 0);
        let mut env = HashMap::with_capacity(parent.map_or(0, HashMap::len) + scope.params.len());
        if let Some(parent) = parent {
            env.extend(parent.iter().map(|(k, v)| (k.clone(), *v)));
        }
        for p in &scope.params {
            // Most runs override nothing: skip the qualified key.
            let over = if overrides.is_empty() {
                None
            } else {
                overrides.get(&scope.qualified(p.name))
            };
            let v = match over {
                Some(o) => *o,
                None => match &p.binding {
                    ScopeBinding::Local(e) => e.eval(&env)?,
                    ScopeBinding::Formal { arg: Some(e), .. } => e.eval(&envs[scope.parent])?,
                    ScopeBinding::Formal {
                        arg: None,
                        default: Some(e),
                    } => e.eval(&env)?,
                    ScopeBinding::Formal {
                        arg: None,
                        default: None,
                    } => {
                        return Err(NetlistError::elab_at(
                            format!(
                                "parameter `{}` of subcircuit instance `{}` has no value and no default",
                                p.name, scope.path
                            ),
                            p.span,
                        ))
                    }
                },
            };
            env.insert(p.name.to_string(), v);
        }
        envs.push(env);
    }
    Ok(envs)
}

/// Token-stream cursor shared with the card parser.
pub struct Cursor<'t> {
    tokens: &'t [Token],
    pos: usize,
    /// Span to blame for "unexpected end of card" errors.
    pub line_span: Span,
}

impl<'t> Cursor<'t> {
    /// Creates a cursor over a card's tokens.
    pub fn new(tokens: &'t [Token], line_span: Span) -> Self {
        Cursor {
            tokens,
            pos: 0,
            line_span,
        }
    }

    /// The next unconsumed token.
    pub fn peek(&self) -> Option<&'t Token> {
        self.tokens.get(self.pos)
    }

    /// Token `k` ahead of the cursor.
    pub fn peek_at(&self, k: usize) -> Option<&'t Token> {
        self.tokens.get(self.pos + k)
    }

    /// Consumes and returns the next token.
    // Not an `Iterator`: callers interleave `next` with `peek`-based
    // lookahead, and the cursor is shared across parse functions.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&'t Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// True when all tokens are consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Span at the cursor (end of line when exhausted).
    pub fn here(&self) -> Span {
        self.peek()
            .map_or(Span::new(self.line_span.end, self.line_span.end), |t| {
                t.span
            })
    }

    /// Consumes a token that must satisfy `kind`.
    pub fn expect(&mut self, kind: TokenKind, what: &str) -> Result<&'t Token> {
        match self.next() {
            Some(t) if t.kind == kind => Ok(t),
            Some(t) => Err(NetlistError::parse(
                format!("expected {what}, found `{}`", t.text),
                t.span,
            )),
            None => Err(NetlistError::parse(
                format!("expected {what} before end of card"),
                Span::new(self.line_span.end, self.line_span.end),
            )),
        }
    }

    /// Consumes a bare word and returns it.
    pub fn expect_word(&mut self, what: &str) -> Result<&'t Token> {
        self.expect(TokenKind::Word, what)
    }
}

/// Parses a full infix expression (used after `=` and inside braces
/// and parentheses).
pub fn parse_expr(c: &mut Cursor<'_>) -> Result<NumExpr> {
    parse_additive(c)
}

/// Parses an *argument*: sign + atom only. Infix operators are not
/// consumed at this level, so whitespace-separated argument lists like
/// `PULSE(0 -5 1m)` keep their SPICE meaning; wrap arithmetic in
/// braces or parentheses to opt in: `PULSE(0 {v2*2} 1m)`.
pub fn parse_arg(c: &mut Cursor<'_>) -> Result<NumExpr> {
    if let Some(t) = c.peek() {
        if t.kind == TokenKind::Op && (t.text == "-" || t.text == "+") {
            let neg = t.text == "-";
            let start = t.span;
            c.next();
            let inner = parse_atom(c)?;
            let span = start.merge(inner.span);
            return Ok(if neg {
                NumExpr {
                    node: ExprNode::Neg(Box::new(inner)),
                    span,
                }
            } else {
                NumExpr {
                    node: inner.node,
                    span,
                }
            });
        }
    }
    parse_atom(c)
}

fn parse_additive(c: &mut Cursor<'_>) -> Result<NumExpr> {
    let mut lhs = parse_multiplicative(c)?;
    while let Some(t) = c.peek() {
        let op = match (t.kind, t.text.as_str()) {
            (TokenKind::Op, "+") => BinOp::Add,
            (TokenKind::Op, "-") => BinOp::Sub,
            _ => break,
        };
        c.next();
        let rhs = parse_multiplicative(c)?;
        let span = lhs.span.merge(rhs.span);
        lhs = NumExpr {
            node: ExprNode::Bin(op, Box::new(lhs), Box::new(rhs)),
            span,
        };
    }
    Ok(lhs)
}

fn parse_multiplicative(c: &mut Cursor<'_>) -> Result<NumExpr> {
    let mut lhs = parse_unary(c)?;
    while let Some(t) = c.peek() {
        let op = match (t.kind, t.text.as_str()) {
            (TokenKind::Op, "*") => BinOp::Mul,
            (TokenKind::Op, "/") => BinOp::Div,
            _ => break,
        };
        c.next();
        let rhs = parse_unary(c)?;
        let span = lhs.span.merge(rhs.span);
        lhs = NumExpr {
            node: ExprNode::Bin(op, Box::new(lhs), Box::new(rhs)),
            span,
        };
    }
    Ok(lhs)
}

fn parse_unary(c: &mut Cursor<'_>) -> Result<NumExpr> {
    if let Some(t) = c.peek() {
        if t.kind == TokenKind::Op && (t.text == "-" || t.text == "+") {
            let neg = t.text == "-";
            let start = t.span;
            c.next();
            let inner = parse_unary(c)?;
            let span = start.merge(inner.span);
            return Ok(if neg {
                NumExpr {
                    node: ExprNode::Neg(Box::new(inner)),
                    span,
                }
            } else {
                inner
            });
        }
    }
    parse_power(c)
}

fn parse_power(c: &mut Cursor<'_>) -> Result<NumExpr> {
    let base = parse_atom(c)?;
    if let Some(t) = c.peek() {
        if t.kind == TokenKind::Op && t.text == "**" {
            c.next();
            let exp = parse_unary(c)?; // right-associative
            let span = base.span.merge(exp.span);
            return Ok(NumExpr {
                node: ExprNode::Bin(BinOp::Pow, Box::new(base), Box::new(exp)),
                span,
            });
        }
    }
    Ok(base)
}

fn parse_atom(c: &mut Cursor<'_>) -> Result<NumExpr> {
    let t = match c.next() {
        Some(t) => t,
        None => {
            return Err(NetlistError::parse(
                "expected a value before end of card",
                Span::new(c.line_span.end, c.line_span.end),
            ))
        }
    };
    match t.kind {
        TokenKind::Word => {
            if let Some(v) = parse_number(&t.text) {
                return Ok(NumExpr::literal(v, t.span));
            }
            let name = t.lower();
            if !name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            {
                return Err(NetlistError::parse(
                    format!("`{}` is neither a number nor a parameter name", t.text),
                    t.span,
                ));
            }
            // Function call?
            if c.peek().is_some_and(|p| p.kind == TokenKind::LParen) {
                c.next(); // (
                let mut args = Vec::new();
                loop {
                    if c.peek().is_some_and(|p| p.kind == TokenKind::RParen) {
                        break;
                    }
                    args.push(parse_expr(c)?);
                    if c.peek().is_some_and(|p| p.kind == TokenKind::Comma) {
                        c.next();
                    }
                }
                let close = c.expect(TokenKind::RParen, "`)`")?;
                return Ok(NumExpr {
                    node: ExprNode::Call(name, args),
                    span: t.span.merge(close.span),
                });
            }
            Ok(NumExpr {
                node: ExprNode::Ident(name),
                span: t.span,
            })
        }
        TokenKind::LBrace => {
            let inner = parse_expr(c)?;
            let close = c.expect(TokenKind::RBrace, "`}`")?;
            Ok(NumExpr {
                node: inner.node,
                span: t.span.merge(close.span),
            })
        }
        TokenKind::LParen => {
            let inner = parse_expr(c)?;
            let close = c.expect(TokenKind::RParen, "`)`")?;
            Ok(NumExpr {
                node: inner.node,
                span: t.span.merge(close.span),
            })
        }
        _ => Err(NetlistError::parse(
            format!("expected a value, found `{}`", t.text),
            t.span,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::lex;

    fn eval_str(src: &str, params: &[(&str, f64)]) -> Result<f64> {
        let deck = format!("t\n.param x={src}\n");
        let lexed = lex(&deck).unwrap();
        let mut c = Cursor::new(&lexed.lines[0].tokens[3..], lexed.lines[0].span);
        let e = parse_expr(&mut c)?;
        assert!(c.at_end(), "leftover tokens");
        let env: HashMap<String, f64> = params.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        e.eval(&env)
    }

    #[test]
    fn precedence_and_suffixes() {
        assert_eq!(eval_str("1+2*3", &[]).unwrap(), 7.0);
        assert_eq!(eval_str("{(1+2)*3}", &[]).unwrap(), 9.0);
        assert_eq!(eval_str("2**3**2", &[]).unwrap(), 512.0); // right assoc
        assert_eq!(eval_str("1k+1", &[]).unwrap(), 1001.0);
        assert_eq!(eval_str("-2*3", &[]).unwrap(), -6.0);
    }

    #[test]
    fn params_and_functions() {
        assert_eq!(eval_str("a*b", &[("a", 3.0), ("b", 4.0)]).unwrap(), 12.0);
        assert!((eval_str("sqrt(2)", &[]).unwrap() - 2f64.sqrt()).abs() < 1e-15);
        assert!((eval_str("2*pi", &[]).unwrap() - std::f64::consts::TAU).abs() < 1e-15);
        assert_eq!(eval_str("max(2, 5)", &[]).unwrap(), 5.0);
        assert!((eval_str("eps0", &[]).unwrap() - 8.8542e-12).abs() < 1e-25);
    }

    #[test]
    fn unknown_parameter_reports_span() {
        let err = eval_str("2*mystery", &[]).unwrap_err();
        assert!(err.to_string().contains("unknown parameter `mystery`"));
        assert!(err.span().is_some());
    }

    #[test]
    fn bad_arity_is_reported() {
        let err = eval_str("sqrt(1, 2)", &[]).unwrap_err();
        assert!(err.to_string().contains("takes 1 argument"));
    }
}
