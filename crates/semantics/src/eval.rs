//! Big-step operational semantics with guidance traces and weights
//! (Fig. 8 / Fig. 11), plus the probability-free *reduction* relation
//! (Fig. 14) used to characterise possible traces.
//!
//! The judgment `V | (a : σ_a); (b : σ_b) ⊢ m ⇓_w v` is implemented by
//! consuming the two traces front-to-back with cursors while accumulating a
//! **log**-weight (log-densities are summed rather than densities
//! multiplied, for numerical robustness; the paper's `w` is `exp` of ours).

use crate::trace::{Message, Trace, TraceCursor};
use crate::value::{Bindings, Env, Value};
use ppl_dist::{Distribution, Sample};
use ppl_syntax::ast::{BinOp, Cmd, Dir, DistExpr, Expr, Ident, Proc, Program, UnOp};
use std::fmt;

/// An evaluation error.
///
/// `Stuck` corresponds to configurations for which no evaluation rule
/// applies (e.g. the trace supplies a message of the wrong kind, or a value
/// outside the distribution's support); the density function `P_m` maps
/// stuck configurations to weight `0`.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// No rule applies; the payload explains why.
    Stuck(String),
    /// A dynamic type error in the deterministic fragment (cannot happen for
    /// well-typed programs; kept for robustness of the interpreter API).
    Dynamic(String),
    /// Reference to an unknown procedure.
    UnknownProc(String),
    /// A distribution was constructed with invalid parameters at runtime.
    BadDistribution(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Stuck(m) => write!(f, "evaluation stuck: {m}"),
            EvalError::Dynamic(m) => write!(f, "dynamic type error: {m}"),
            EvalError::UnknownProc(m) => write!(f, "unknown procedure: {m}"),
            EvalError::BadDistribution(m) => write!(f, "invalid distribution: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The result of evaluating a command against guidance traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The resulting value.
    pub value: Value,
    /// The accumulated log-weight (`ln w`); `-inf` encodes weight zero.
    pub log_weight: f64,
}

/// Whether to run the weighted evaluation relation or the probability-free
/// reduction relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The evaluation relation `⇓_w` of Fig. 8/11.
    Evaluate,
    /// The reduction relation `⇓_red` of Fig. 14 (weights ignored; a branch
    /// selection in the trace that contradicts the predicate is *stuck*
    /// rather than weight-zero).
    Reduce,
}

/// Evaluates pure expressions (`V ⊢ e ⇓ v`) against a persistent [`Env`].
///
/// A convenience wrapper over [`eval_expr_in`]; the coroutine hot loop
/// calls [`eval_expr_in`] directly on its reusable
/// [`ValueStack`](crate::value::ValueStack).
///
/// # Errors
///
/// Returns [`EvalError::Dynamic`] on unbound variables or operator
/// application at the wrong runtime types, and
/// [`EvalError::BadDistribution`] when a distribution constructor receives
/// invalid parameters.
pub fn eval_expr(env: &Env, e: &Expr) -> Result<Value, EvalError> {
    eval_expr_in(&mut env.clone(), e)
}

/// Evaluates pure expressions against any [`Bindings`] context.
///
/// Expression-local scopes (`let`, closure application) are pushed onto the
/// context and restored before returning, so the context is left exactly as
/// it was found.
///
/// # Errors
///
/// Same contract as [`eval_expr`].
pub fn eval_expr_in<B: Bindings>(env: &mut B, e: &Expr) -> Result<Value, EvalError> {
    match e {
        Expr::Var(x) => env
            .lookup(x)
            .cloned()
            .ok_or_else(|| EvalError::Dynamic(format!("unbound variable '{x}'"))),
        Expr::Triv => Ok(Value::Unit),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Real(r) => Ok(Value::Real(*r)),
        Expr::Nat(n) => Ok(Value::Nat(*n)),
        Expr::If(c, a, b) => {
            let cond = eval_expr_in(env, c)?
                .as_bool()
                .ok_or_else(|| EvalError::Dynamic("conditional on a non-Boolean".into()))?;
            if cond {
                eval_expr_in(env, a)
            } else {
                eval_expr_in(env, b)
            }
        }
        Expr::BinOp(op, a, b) => {
            let va = eval_expr_in(env, a)?;
            let vb = eval_expr_in(env, b)?;
            eval_binop(*op, &va, &vb)
        }
        Expr::UnOp(op, a) => {
            let va = eval_expr_in(env, a)?;
            eval_unop(*op, &va)
        }
        Expr::Lam(x, _, body) => Ok(Value::Closure {
            env: env.capture(),
            param: *x,
            body: body.clone(),
        }),
        Expr::App(f, a) => {
            let vf = eval_expr_in(env, f)?;
            let va = eval_expr_in(env, a)?;
            match vf {
                Value::Closure { env, param, body } => {
                    let mut inner = env.extended(param, va);
                    eval_expr_in(&mut inner, &body)
                }
                other => Err(EvalError::Dynamic(format!(
                    "application of non-function value {other}"
                ))),
            }
        }
        Expr::Let(x, e1, e2) => {
            let v1 = eval_expr_in(env, e1)?;
            let mark = env.mark();
            env.push(*x, v1);
            let result = eval_expr_in(env, e2);
            env.restore(mark);
            result
        }
        Expr::Dist(d) => eval_dist_in(env, d).map(Value::Dist),
    }
}

fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        And | Or => {
            let (x, y) = match (a.as_bool(), b.as_bool()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(EvalError::Dynamic(format!(
                        "logical operator on {a} and {b}"
                    )))
                }
            };
            Ok(Value::Bool(if op == And { x && y } else { x || y }))
        }
        Eq => {
            let r = match (a, b) {
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Nat(x), Value::Nat(y)) => x == y,
                _ => match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => x == y,
                    _ => {
                        return Err(EvalError::Dynamic(format!(
                            "equality on incomparable values {a} and {b}"
                        )))
                    }
                },
            };
            Ok(Value::Bool(r))
        }
        Lt | Le | Gt | Ge => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(EvalError::Dynamic(format!(
                        "comparison on non-numeric values {a} and {b}"
                    )))
                }
            };
            let r = match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            };
            Ok(Value::Bool(r))
        }
        Add | Sub | Mul | Div => {
            if let (Value::Nat(x), Value::Nat(y)) = (a, b) {
                let r = match op {
                    Add => x.checked_add(*y),
                    Mul => x.checked_mul(*y),
                    _ => {
                        return Err(EvalError::Dynamic(
                            "subtraction/division on naturals".into(),
                        ))
                    }
                };
                return r.map(Value::Nat).ok_or_else(|| {
                    EvalError::Dynamic(format!(
                        "natural-number overflow in {x} {} {y}",
                        op.symbol()
                    ))
                });
            }
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(EvalError::Dynamic(format!(
                        "arithmetic on non-numeric values {a} and {b}"
                    )))
                }
            };
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                _ => unreachable!(),
            };
            Ok(Value::Real(r))
        }
    }
}

fn eval_unop(op: UnOp, a: &Value) -> Result<Value, EvalError> {
    match op {
        UnOp::Not => a
            .as_bool()
            .map(|b| Value::Bool(!b))
            .ok_or_else(|| EvalError::Dynamic(format!("'!' on {a}"))),
        UnOp::Neg => a
            .as_f64()
            .map(|x| Value::Real(-x))
            .ok_or_else(|| EvalError::Dynamic(format!("negation on {a}"))),
        UnOp::Exp => a
            .as_f64()
            .map(|x| Value::Real(x.exp()))
            .ok_or_else(|| EvalError::Dynamic(format!("exp on {a}"))),
        UnOp::Ln => a
            .as_f64()
            .map(|x| Value::Real(x.ln()))
            .ok_or_else(|| EvalError::Dynamic(format!("ln on {a}"))),
        UnOp::Sqrt => a
            .as_f64()
            .map(|x| Value::Real(x.sqrt()))
            .ok_or_else(|| EvalError::Dynamic(format!("sqrt on {a}"))),
        UnOp::ToReal => a
            .as_f64()
            .map(Value::Real)
            .ok_or_else(|| EvalError::Dynamic(format!("real(..) on {a}"))),
    }
}

/// Evaluates a distribution expression to a runtime [`Distribution`]
/// against a persistent [`Env`] (wrapper over [`eval_dist_in`]).
pub fn eval_dist(env: &Env, d: &DistExpr) -> Result<Distribution, EvalError> {
    eval_dist_in(&mut env.clone(), d)
}

/// Evaluates a distribution expression against any [`Bindings`] context.
///
/// Scalar constructors evaluate their parameters straight into locals —
/// no intermediate collection — so constructing a `Normal`/`Ber`/… at a
/// sample site allocates nothing; only a categorical with *variable*
/// weights pays one shared-buffer allocation (constant-weight sites are
/// folded away entirely by the program compiler).
pub fn eval_dist_in<B: Bindings>(env: &mut B, d: &DistExpr) -> Result<Distribution, EvalError> {
    fn f64_arg<B: Bindings>(env: &mut B, e: &Expr) -> Result<f64, EvalError> {
        eval_expr_in(env, e)?
            .as_f64()
            .ok_or_else(|| EvalError::Dynamic("distribution parameter is not numeric".into()))
    }
    let bad = |e: ppl_dist::DistError| EvalError::BadDistribution(e.to_string());
    match d {
        DistExpr::Bernoulli(p) => Distribution::bernoulli(f64_arg(env, p)?).map_err(bad),
        DistExpr::Uniform => Ok(Distribution::uniform()),
        DistExpr::Beta(a, b) => Distribution::beta(f64_arg(env, a)?, f64_arg(env, b)?).map_err(bad),
        DistExpr::Gamma(a, b) => {
            Distribution::gamma(f64_arg(env, a)?, f64_arg(env, b)?).map_err(bad)
        }
        DistExpr::Normal(a, b) => {
            Distribution::normal(f64_arg(env, a)?, f64_arg(env, b)?).map_err(bad)
        }
        DistExpr::Categorical(ws) => {
            let weights = ws
                .iter()
                .map(|e| f64_arg(env, e))
                .collect::<Result<Vec<_>, _>>()?;
            Distribution::categorical(weights).map_err(bad)
        }
        DistExpr::Geometric(p) => Distribution::geometric(f64_arg(env, p)?).map_err(bad),
        DistExpr::Poisson(l) => Distribution::poisson(f64_arg(env, l)?).map_err(bad),
    }
}

/// A trace-driven evaluator for commands of a program.
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    program: &'a Program,
    mode: Mode,
}

struct ChannelState<'c, 't> {
    name: Option<Ident>,
    cursor: &'c mut TraceCursor<'t>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for the weighted evaluation relation.
    pub fn new(program: &'a Program) -> Self {
        Evaluator {
            program,
            mode: Mode::Evaluate,
        }
    }

    /// Creates an evaluator for the probability-free reduction relation.
    pub fn reducer(program: &'a Program) -> Self {
        Evaluator {
            program,
            mode: Mode::Reduce,
        }
    }

    /// Runs procedure `proc_name` with the given argument values against a
    /// trace for its consumed channel and a trace for its provided channel.
    ///
    /// The traces are the *bodies* of the top-level judgment: unlike an
    /// inner `call`, the top-level run does not consume `fold` markers.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Stuck`] when the traces cannot drive the
    /// program to completion (wrong message kinds, leftover messages,
    /// values outside distribution supports), and other variants for
    /// dynamic errors.
    pub fn run_proc(
        &self,
        proc_name: &Ident,
        args: &[Value],
        consumed_trace: &Trace,
        provided_trace: &Trace,
    ) -> Result<Evaluation, EvalError> {
        let proc = self.lookup_proc(proc_name)?;
        if proc.params.len() != args.len() {
            return Err(EvalError::Dynamic(format!(
                "procedure '{proc_name}' expects {} argument(s), got {}",
                proc.params.len(),
                args.len()
            )));
        }
        let env = Env::from_bindings(
            proc.params
                .iter()
                .map(|(x, _)| *x)
                .zip(args.iter().cloned()),
        );
        let mut a_cursor = consumed_trace.cursor();
        let mut b_cursor = provided_trace.cursor();
        let result = self.eval_cmd(proc, &env, &proc.body, &mut a_cursor, &mut b_cursor)?;
        if !a_cursor.is_exhausted() || !b_cursor.is_exhausted() {
            return Err(EvalError::Stuck(format!(
                "trailing guidance messages: {} left on the consumed channel, {} on the provided channel",
                a_cursor.remaining(),
                b_cursor.remaining()
            )));
        }
        Ok(result)
    }

    /// The log-density `ln P_m(σ_a, σ_b)` of a pair of traces under the
    /// program's entry procedure: `-inf` if the configuration is stuck.
    ///
    /// # Errors
    ///
    /// Propagates non-stuck errors (dynamic type errors, unknown
    /// procedures), which indicate a malformed program rather than an
    /// impossible trace.
    pub fn log_density(
        &self,
        proc_name: &Ident,
        args: &[Value],
        consumed_trace: &Trace,
        provided_trace: &Trace,
    ) -> Result<f64, EvalError> {
        match self.run_proc(proc_name, args, consumed_trace, provided_trace) {
            Ok(eval) => Ok(eval.log_weight),
            Err(EvalError::Stuck(_)) => Ok(f64::NEG_INFINITY),
            Err(other) => Err(other),
        }
    }

    fn lookup_proc(&self, name: &Ident) -> Result<&'a Proc, EvalError> {
        self.program
            .proc(name)
            .ok_or_else(|| EvalError::UnknownProc(name.to_string()))
    }

    fn eval_cmd<'t>(
        &self,
        proc: &Proc,
        env: &Env,
        cmd: &Cmd,
        a_cursor: &mut TraceCursor<'t>,
        b_cursor: &mut TraceCursor<'t>,
    ) -> Result<Evaluation, EvalError> {
        match cmd {
            Cmd::Ret(e) => Ok(Evaluation {
                value: eval_expr(env, e)?,
                log_weight: 0.0,
            }),
            Cmd::Bind { var, first, rest } => {
                let first_eval = self.eval_cmd(proc, env, first, a_cursor, b_cursor)?;
                let inner = env.extended(*var, first_eval.value);
                let rest_eval = self.eval_cmd(proc, &inner, rest, a_cursor, b_cursor)?;
                Ok(Evaluation {
                    value: rest_eval.value,
                    log_weight: first_eval.log_weight + rest_eval.log_weight,
                })
            }
            Cmd::Call { proc: callee, args } => {
                let callee_proc = self.lookup_proc(callee)?;
                let arg_values = args
                    .iter()
                    .map(|a| eval_expr(env, a))
                    .collect::<Result<Vec<_>, _>>()?;
                if callee_proc.params.len() != arg_values.len() {
                    return Err(EvalError::Dynamic(format!(
                        "procedure '{callee}' expects {} argument(s), got {}",
                        callee_proc.params.len(),
                        arg_values.len()
                    )));
                }
                // (EM:Call): the callee's channels start with a fold marker.
                if callee_proc.consumes.is_some() {
                    self.expect_fold(a_cursor, "consumed")?;
                }
                if callee_proc.provides.is_some() {
                    self.expect_fold(b_cursor, "provided")?;
                }
                let callee_env =
                    Env::from_bindings(callee_proc.params.iter().map(|(x, _)| *x).zip(arg_values));
                self.eval_cmd(
                    callee_proc,
                    &callee_env,
                    &callee_proc.body,
                    a_cursor,
                    b_cursor,
                )
            }
            Cmd::Sample { dir, chan, dist } => {
                let d = match eval_expr(env, dist)? {
                    Value::Dist(d) => d,
                    other => {
                        return Err(EvalError::Dynamic(format!(
                            "sample requires a distribution, found {other}"
                        )))
                    }
                };
                let mut a_state = ChannelState {
                    name: proc.consumes,
                    cursor: a_cursor,
                };
                let mut b_state = ChannelState {
                    name: proc.provides,
                    cursor: b_cursor,
                };
                let (cursor, expected_provider) = if a_state.name.as_ref() == Some(chan) {
                    // Consumed channel: the provider is the other coroutine,
                    // so a receive reads `valP`, a send reads `valC`.
                    (&mut a_state, *dir == Dir::Recv)
                } else if b_state.name.as_ref() == Some(chan) {
                    // Provided channel: we are the provider, so a send reads
                    // `valP` and a receive reads `valC`.
                    (&mut b_state, *dir == Dir::Send)
                } else {
                    return Err(EvalError::Dynamic(format!(
                        "channel '{chan}' is not declared by procedure '{}'",
                        proc.name
                    )));
                };
                let msg = cursor.cursor.pop().ok_or_else(|| {
                    EvalError::Stuck(format!("trace exhausted at sample on channel '{chan}'"))
                })?;
                let sample = match (msg, expected_provider) {
                    (Message::ValP(v), true) | (Message::ValC(v), false) => v,
                    (other, _) => {
                        return Err(EvalError::Stuck(format!(
                            "expected a sample message on channel '{chan}', found {other}"
                        )))
                    }
                };
                if !d.supports(&sample) {
                    return Err(EvalError::Stuck(format!(
                        "value {sample} is outside the support of {d}"
                    )));
                }
                let log_weight = match self.mode {
                    Mode::Evaluate => d.log_density(&sample),
                    Mode::Reduce => 0.0,
                };
                Ok(Evaluation {
                    value: Value::from_sample(sample),
                    log_weight,
                })
            }
            Cmd::Branch {
                dir,
                chan,
                pred,
                then_cmd,
                else_cmd,
            } => {
                let pred_value = match pred {
                    Some(p) => Some(
                        eval_expr(env, p)?
                            .as_bool()
                            .ok_or_else(|| EvalError::Dynamic("non-Boolean predicate".into()))?,
                    ),
                    None => None,
                };
                let on_consumed = if proc.consumes.as_ref() == Some(chan) {
                    true
                } else if proc.provides.as_ref() == Some(chan) {
                    false
                } else {
                    return Err(EvalError::Dynamic(format!(
                        "channel '{chan}' is not declared by procedure '{}'",
                        proc.name
                    )));
                };
                let cursor: &mut TraceCursor<'_> = if on_consumed { a_cursor } else { b_cursor };
                let msg = cursor.pop().ok_or_else(|| {
                    EvalError::Stuck(format!("trace exhausted at branch on channel '{chan}'"))
                })?;
                // Which message kind carries the selection depends on who
                // sends it: the provider (`dirP`) or the consumer (`dirC`).
                let provider_sends =
                    (on_consumed && *dir == Dir::Recv) || (!on_consumed && *dir == Dir::Send);
                let selection = match (msg, provider_sends) {
                    (Message::DirP(v), true) | (Message::DirC(v), false) => v,
                    (other, _) => {
                        return Err(EvalError::Stuck(format!(
                            "expected a branch selection on channel '{chan}', found {other}"
                        )))
                    }
                };
                let mut log_weight = 0.0;
                if let Some(pv) = pred_value {
                    // We send the selection: the trace must agree with the
                    // predicate value.  Evaluation mode scores the Iverson
                    // bracket; reduction mode is stuck on disagreement.
                    if pv != selection {
                        match self.mode {
                            Mode::Evaluate => log_weight = f64::NEG_INFINITY,
                            Mode::Reduce => {
                                return Err(EvalError::Stuck(format!(
                                    "branch selection {selection} contradicts the predicate value {pv} on channel '{chan}'"
                                )))
                            }
                        }
                    }
                }
                let chosen = if selection { then_cmd } else { else_cmd };
                let inner = self.eval_cmd(proc, env, chosen, a_cursor, b_cursor)?;
                Ok(Evaluation {
                    value: inner.value,
                    log_weight: log_weight + inner.log_weight,
                })
            }
        }
    }

    fn expect_fold(&self, cursor: &mut TraceCursor<'_>, which: &str) -> Result<(), EvalError> {
        match cursor.pop() {
            Some(Message::Fold) => Ok(()),
            Some(other) => Err(EvalError::Stuck(format!(
                "expected fold on the {which} channel, found {other}"
            ))),
            None => Err(EvalError::Stuck(format!(
                "trace exhausted while expecting fold on the {which} channel"
            ))),
        }
    }
}

/// Convenience wrapper: builds the pair of traces for Example 3.1/3.2-style
/// single commands given provider samples only.
pub fn trace_of_provider_samples(samples: &[Sample]) -> Trace {
    samples.iter().map(|s| Message::ValP(*s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_program;

    fn fig5_program() -> Program {
        parse_program(
            r#"
            proc Model() : real consume latent provide obs {
              let v <- sample recv latent (Gamma(2.0, 1.0));
              if send latent (v < 2.0) {
                let _ <- sample send obs (Normal(-1.0, 1.0));
                return v
              } else {
                let m <- sample recv latent (Beta(3.0, 1.0));
                let _ <- sample send obs (Normal(m, 1.0));
                return v
              }
            }
            proc Guide1() provide latent {
              let v <- sample send latent (Gamma(1.0, 1.0));
              if recv latent {
                return ()
              } else {
                let _ <- sample send latent (Unif);
                return ()
              }
            }
        "#,
        )
        .unwrap()
    }

    fn model_traces(x: f64, y: Option<f64>, z: f64) -> (Trace, Trace) {
        let mut latent = Trace::new();
        latent.push(Message::ValP(Sample::Real(x)));
        latent.push(Message::DirC(x < 2.0));
        if let Some(y) = y {
            latent.push(Message::ValP(Sample::Real(y)));
        }
        let obs = Trace::from_messages(vec![Message::ValP(Sample::Real(z))]);
        (latent, obs)
    }

    #[test]
    fn evaluate_fig1_model_then_branch() {
        let prog = fig5_program();
        let ev = Evaluator::new(&prog);
        let (latent, obs) = model_traces(1.0, None, 0.8);
        let result = ev.run_proc(&"Model".into(), &[], &latent, &obs).unwrap();
        assert_eq!(result.value, Value::Real(1.0));
        // log w = log Gamma(2,1).pdf(1) + log Normal(-1,1).pdf(0.8)
        let expected = Distribution::gamma(2.0, 1.0).unwrap().log_density_f64(1.0)
            + Distribution::normal(-1.0, 1.0)
                .unwrap()
                .log_density_f64(0.8);
        assert!((result.log_weight - expected).abs() < 1e-12);
    }

    #[test]
    fn evaluate_fig1_model_else_branch() {
        let prog = fig5_program();
        let ev = Evaluator::new(&prog);
        let (latent, obs) = model_traces(3.0, Some(0.9), 0.7);
        let result = ev.run_proc(&"Model".into(), &[], &latent, &obs).unwrap();
        assert_eq!(result.value, Value::Real(3.0));
        let expected = Distribution::gamma(2.0, 1.0).unwrap().log_density_f64(3.0)
            + Distribution::beta(3.0, 1.0).unwrap().log_density_f64(0.9)
            + Distribution::normal(0.9, 1.0).unwrap().log_density_f64(0.7);
        assert!((result.log_weight - expected).abs() < 1e-12);
    }

    #[test]
    fn guide_scores_same_latent_trace() {
        let prog = fig5_program();
        let ev = Evaluator::new(&prog);
        // Guide provides latent; its consumed channel is absent.
        let latent = Trace::from_messages(vec![
            Message::ValP(Sample::Real(3.0)),
            Message::DirC(false),
            Message::ValP(Sample::Real(0.9)),
        ]);
        let result = ev
            .run_proc(&"Guide1".into(), &[], &Trace::new(), &latent)
            .unwrap();
        assert_eq!(result.value, Value::Unit);
        let expected = Distribution::gamma(1.0, 1.0).unwrap().log_density_f64(3.0)
            + Distribution::uniform().log_density_f64(0.9);
        assert!((result.log_weight - expected).abs() < 1e-12);
    }

    #[test]
    fn branch_mismatch_gives_zero_weight_in_eval_and_stuck_in_reduce() {
        let prog = fig5_program();
        // v = 1.0 (< 2) but the trace claims the else-branch was taken.
        let mut latent = Trace::new();
        latent.push(Message::ValP(Sample::Real(1.0)));
        latent.push(Message::DirC(false));
        latent.push(Message::ValP(Sample::Real(0.5)));
        let obs = Trace::from_messages(vec![Message::ValP(Sample::Real(0.8))]);
        let ev = Evaluator::new(&prog);
        let r = ev.run_proc(&"Model".into(), &[], &latent, &obs).unwrap();
        assert_eq!(r.log_weight, f64::NEG_INFINITY);
        let red = Evaluator::reducer(&prog);
        assert!(matches!(
            red.run_proc(&"Model".into(), &[], &latent, &obs),
            Err(EvalError::Stuck(_))
        ));
    }

    #[test]
    fn out_of_support_value_is_stuck_and_density_zero() {
        let prog = fig5_program();
        let ev = Evaluator::new(&prog);
        let (latent, obs) = model_traces(-1.0, None, 0.8); // Gamma sample must be positive
        assert!(matches!(
            ev.run_proc(&"Model".into(), &[], &latent, &obs),
            Err(EvalError::Stuck(_))
        ));
        assert_eq!(
            ev.log_density(&"Model".into(), &[], &latent, &obs).unwrap(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn leftover_messages_are_stuck() {
        let prog = fig5_program();
        let ev = Evaluator::new(&prog);
        let (mut latent, obs) = model_traces(1.0, None, 0.8);
        latent.push(Message::ValP(Sample::Real(0.5))); // extra message
        assert!(matches!(
            ev.run_proc(&"Model".into(), &[], &latent, &obs),
            Err(EvalError::Stuck(_))
        ));
    }

    #[test]
    fn wrong_message_kind_is_stuck() {
        let prog = fig5_program();
        let ev = Evaluator::new(&prog);
        let latent = Trace::from_messages(vec![Message::DirC(true)]);
        let obs = Trace::new();
        assert!(matches!(
            ev.run_proc(&"Model".into(), &[], &latent, &obs),
            Err(EvalError::Stuck(_))
        ));
    }

    #[test]
    fn recursive_call_consumes_fold_markers() {
        let prog = parse_program(
            r#"
            proc Count(p : ureal) : real consume latent {
              let u <- sample recv latent (Unif);
              if send latent (u < p) {
                return 0.0
              } else {
                let rest <- call Count(p);
                return rest + 1.0
              }
            }
        "#,
        )
        .unwrap();
        let ev = Evaluator::new(&prog);
        // Two failures then a success: u=0.9, u=0.8, u=0.1 with p=0.5.
        let mut latent = Trace::new();
        latent.push(Message::ValP(Sample::Real(0.9)));
        latent.push(Message::DirC(false));
        latent.push(Message::Fold);
        latent.push(Message::ValP(Sample::Real(0.8)));
        latent.push(Message::DirC(false));
        latent.push(Message::Fold);
        latent.push(Message::ValP(Sample::Real(0.1)));
        latent.push(Message::DirC(true));
        let result = ev
            .run_proc(&"Count".into(), &[Value::Real(0.5)], &latent, &Trace::new())
            .unwrap();
        assert_eq!(result.value, Value::Real(2.0));
        assert!((result.log_weight - 0.0).abs() < 1e-12); // all Unif densities are 1
    }

    #[test]
    fn example_3_1_weight() {
        // m1 = bnd(sample_rv{a}(Normal(0,1)); x. bnd(sample_sd{b}(Normal(x,1)); y. ret(x+y)))
        let prog = parse_program(
            r#"
            proc M1() : real consume a provide b {
              let x <- sample recv a (Normal(0.0, 1.0));
              let y <- sample send b (Normal(x, 1.0));
              return x + y
            }
        "#,
        )
        .unwrap();
        let ev = Evaluator::new(&prog);
        let a = trace_of_provider_samples(&[Sample::Real(1.0)]);
        let b = trace_of_provider_samples(&[Sample::Real(2.0)]);
        let r = ev.run_proc(&"M1".into(), &[], &a, &b).unwrap();
        assert_eq!(r.value, Value::Real(3.0));
        let phi = |x: f64| Distribution::normal(0.0, 1.0).unwrap().log_density_f64(x);
        // w = φ(1) · φ(1)  (the second sample scores Normal(1,1) at 2).
        assert!((r.log_weight - (phi(1.0) + phi(1.0))).abs() < 1e-12);
    }

    #[test]
    fn expression_evaluation_covers_operators() {
        let env = Env::from_bindings([("x".into(), Value::Real(2.0))]);
        let cases = [
            ("x + 1.0", Value::Real(3.0)),
            ("x * x - 1.0", Value::Real(3.0)),
            ("x / 4.0", Value::Real(0.5)),
            ("x < 3.0", Value::Bool(true)),
            ("x >= 3.0", Value::Bool(false)),
            ("x == 2.0", Value::Bool(true)),
            ("true && false", Value::Bool(false)),
            ("true || false", Value::Bool(true)),
            ("!true", Value::Bool(false)),
            ("-x", Value::Real(-2.0)),
            ("exp(0.0)", Value::Real(1.0)),
            ("ln(1.0)", Value::Real(0.0)),
            ("sqrt(4.0)", Value::Real(2.0)),
            ("real(3)", Value::Real(3.0)),
            ("1 + 2", Value::Nat(3)),
            ("2 * 3", Value::Nat(6)),
            ("if x < 3.0 then 1.0 else 0.0", Value::Real(1.0)),
            ("let y = x + 1.0 in y * 2.0", Value::Real(6.0)),
            ("()", Value::Unit),
        ];
        for (src, expected) in cases {
            let e = ppl_syntax::parse_expr(src).unwrap();
            assert_eq!(eval_expr(&env, &e).unwrap(), expected, "{src}");
        }
    }

    #[test]
    fn expression_evaluation_errors() {
        let env = Env::new();
        for src in ["y", "1.0 && true", "1 - 2", "Ber(2.0)"] {
            let e = ppl_syntax::parse_expr(src).unwrap();
            assert!(eval_expr(&env, &e).is_err(), "{src}");
        }
    }

    #[test]
    fn natural_overflow_is_a_dynamic_error_in_every_profile() {
        // Unchecked, the sum panicked in debug builds and wrapped to 0 in
        // release ones; the type checker accepts it (nat + nat : nat).
        let env = Env::new();
        for src in ["18446744073709551615 + 1", "4294967296 * 4294967296"] {
            let e = ppl_syntax::parse_expr(src).unwrap();
            assert!(
                matches!(eval_expr(&env, &e), Err(EvalError::Dynamic(_))),
                "{src}"
            );
        }
        let e = ppl_syntax::parse_expr("18446744073709551614 + 1").unwrap();
        assert_eq!(eval_expr(&env, &e).unwrap(), Value::Nat(u64::MAX));
    }

    #[test]
    fn closures_capture_their_environment() {
        let env = Env::from_bindings([("k".into(), Value::Real(10.0))]);
        let e = ppl_syntax::parse_expr("let f = fn (x : real) => x + k in f(5.0)").unwrap();
        assert_eq!(eval_expr(&env, &e).unwrap(), Value::Real(15.0));
    }

    #[test]
    fn unknown_procedure_and_arity_errors() {
        let prog = fig5_program();
        let ev = Evaluator::new(&prog);
        assert!(matches!(
            ev.run_proc(&"Nope".into(), &[], &Trace::new(), &Trace::new()),
            Err(EvalError::UnknownProc(_))
        ));
        assert!(matches!(
            ev.run_proc(
                &"Model".into(),
                &[Value::Real(1.0)],
                &Trace::new(),
                &Trace::new()
            ),
            Err(EvalError::Dynamic(_))
        ));
    }
}
