//! Shared, index-addressed compiled programs.
//!
//! The coroutine interpreter used to walk the parsed [`Program`] AST
//! directly, which forced every continuation frame to own a clone of the
//! `Cmd` subtree it would run next — a deep copy per `bind`, per branch arm,
//! and per procedure call, multiplied by thousands of joint executions per
//! inference run.  A [`CompiledProgram`] is the zero-copy replacement: each
//! procedure body is flattened once into a table of [`CmdNode`]s addressed
//! by [`CmdId`], procedure references are pre-resolved to [`ProcId`]s, and
//! the `fold`-marker channels of every call site are pre-computed from the
//! callee's header.  The whole structure is immutable and lives behind an
//! [`Arc`], so any number of coroutines — on any number of threads — execute
//! the same compiled program by index without copying a single AST node.
//!
//! Compilation is *infallible* by design: malformed references (an unknown
//! callee, a channel not declared by the enclosing procedure) are recorded
//! in the table and reported as runtime errors only if the offending node is
//! actually executed, exactly as the tree-walking interpreter behaved.

use ppl_dist::Distribution;
use ppl_semantics::eval::eval_dist;
use ppl_semantics::value::Env;
use ppl_syntax::ast::{BaseType, ChannelName, Cmd, Dir, DistExpr, Expr, Ident, Proc, Program};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a procedure in a [`CompiledProgram`].
pub type ProcId = usize;

/// Index of a command node in a [`CompiledProgram`]'s node table.
pub type CmdId = usize;

/// A procedure compiled to table form.
#[derive(Debug, Clone)]
pub struct CompiledProc {
    /// The procedure name (for error messages and reflection).
    pub name: Ident,
    /// Parameter names in declaration order.
    pub params: Vec<Ident>,
    /// The parameters' declared types, in the same order.
    pub param_types: Vec<BaseType>,
    /// The declared result type.
    pub ret_ty: BaseType,
    /// The channel the procedure consumes, if any.
    pub consumes: Option<ChannelName>,
    /// The channel the procedure provides, if any.
    pub provides: Option<ChannelName>,
    /// The entry node of the body.
    pub body: CmdId,
}

/// A pre-resolved (or knowingly unresolved) procedure reference.
#[derive(Debug, Clone)]
pub enum CalleeRef {
    /// The callee exists; calls jump straight to its table entry.
    Resolved(ProcId),
    /// No procedure of this name exists — executing the call reports
    /// `UnknownProc`, matching the tree-walking interpreter.
    Unknown(Ident),
}

/// A sample site's distribution expression, pre-compiled.
///
/// The tree-walking path re-evaluated the full distribution expression at
/// every execution of every sample site.  Compilation splits the cases
/// once, up front:
///
/// * **`Const`** — every parameter is a closed expression and construction
///   succeeds: the [`Distribution`] is built at compile time and handed out
///   per execution by an allocation-free clone (categorical weights are
///   shared behind an `Arc`).
/// * **`Ctor`** — a distribution constructor with variable parameters: the
///   parameters are evaluated straight into the constructor at runtime (no
///   intermediate environment or collection), preserving the evaluation
///   order — and therefore the error behaviour — of the original
///   expression.  Closed-but-invalid constructors (e.g. `Ber(2.0)`) also
///   stay in this form so their `BadDistribution` error still surfaces at
///   execution, exactly as before.
/// * **`Opaque`** — not a constructor application (a variable bound to a
///   distribution value, a conditional choosing between distributions, …):
///   evaluated as a general expression at runtime.
#[derive(Debug, Clone)]
pub enum DistNode {
    /// Constant parameters, folded at compile time.
    Const(Distribution),
    /// A constructor whose parameters are evaluated at runtime.
    Ctor(DistExpr),
    /// A general expression that must evaluate to a distribution value.
    Opaque(Expr),
}

impl DistNode {
    fn compile(e: &Expr) -> DistNode {
        let Expr::Dist(d) = e else {
            return DistNode::Opaque(e.clone());
        };
        if e.free_vars().is_empty() {
            if let Ok(dist) = eval_dist(&Env::new(), d) {
                return DistNode::Const(dist);
            }
        }
        DistNode::Ctor(d.clone())
    }
}

/// One flattened command node.
///
/// Control joins (`Bind`/`Branch`) hold [`CmdId`] indices instead of owned
/// subtrees, so continuation frames can reference "the rest of the program"
/// as a single integer.  Channel operations carry a pre-computed `declared`
/// flag — the compile-time answer to the interpreter's per-step
/// "is this channel declared by the current procedure?" check.
#[derive(Debug, Clone)]
pub enum CmdNode {
    /// `ret(e)`.
    Ret(Expr),
    /// `bnd(first; var. rest)`.
    Bind {
        /// The bound variable.
        var: Ident,
        /// The first command.
        first: CmdId,
        /// The continuation.
        rest: CmdId,
    },
    /// `call(f; ē)` with the fold-marker channels pre-computed from the
    /// callee's header (consumed channel first, then provided).
    Call {
        /// The callee.
        callee: CalleeRef,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Channels on which a `fold` marker must be exchanged before the
        /// callee body runs.
        marks: Vec<ChannelName>,
    },
    /// `sample_dir{chan}(e)`.
    Sample {
        /// Direction relative to this coroutine.
        dir: Dir,
        /// The channel.
        chan: ChannelName,
        /// The distribution expression, pre-compiled (constant parameters
        /// folded).
        dist: DistNode,
        /// Whether `chan` is declared by the enclosing procedure.
        declared: bool,
    },
    /// `cond_dir{chan}(e?; m₁; m₂)`.
    Branch {
        /// Direction relative to this coroutine.
        dir: Dir,
        /// The channel.
        chan: ChannelName,
        /// The predicate (send direction only).
        pred: Option<Expr>,
        /// The then-arm entry node.
        then_cmd: CmdId,
        /// The else-arm entry node.
        else_cmd: CmdId,
        /// Whether `chan` is declared by the enclosing procedure.
        declared: bool,
    },
}

/// An immutable, `Arc`-shareable compiled form of a [`Program`].
#[derive(Debug)]
pub struct CompiledProgram {
    procs: Vec<CompiledProc>,
    nodes: Vec<CmdNode>,
    by_name: HashMap<Ident, ProcId>,
}

impl CompiledProgram {
    /// Compiles a parsed program into shared table form.
    ///
    /// Compilation never fails; see the module docs for how malformed
    /// references are deferred to runtime.
    pub fn compile(program: &Program) -> CompiledProgram {
        let mut by_name: HashMap<Ident, ProcId> = HashMap::new();
        for (id, p) in program.procs.iter().enumerate() {
            // First declaration wins, matching `Program::proc` lookup order.
            by_name.entry(p.name).or_insert(id);
        }
        let mut compiled = CompiledProgram {
            procs: Vec::with_capacity(program.procs.len()),
            nodes: Vec::new(),
            by_name,
        };
        for p in &program.procs {
            let body = compiled.flatten(program, p, &p.body);
            compiled.procs.push(CompiledProc {
                name: p.name,
                params: p.params.iter().map(|(x, _)| *x).collect(),
                param_types: p.params.iter().map(|(_, t)| t.clone()).collect(),
                ret_ty: p.ret_ty.clone(),
                consumes: p.consumes,
                provides: p.provides,
                body,
            });
        }
        compiled
    }

    /// Convenience: compile straight into an [`Arc`].
    pub fn compile_shared(program: &Program) -> Arc<CompiledProgram> {
        Arc::new(CompiledProgram::compile(program))
    }

    fn flatten(&mut self, program: &Program, proc: &Proc, cmd: &Cmd) -> CmdId {
        let node = match cmd {
            Cmd::Ret(e) => CmdNode::Ret(e.clone()),
            Cmd::Bind { var, first, rest } => {
                let first = self.flatten(program, proc, first);
                let rest = self.flatten(program, proc, rest);
                CmdNode::Bind {
                    var: *var,
                    first,
                    rest,
                }
            }
            Cmd::Call { proc: callee, args } => match self.by_name.get(callee) {
                Some(&id) => {
                    let header = &program.procs[id];
                    let marks = header
                        .consumes
                        .iter()
                        .chain(header.provides.iter())
                        .cloned()
                        .collect();
                    CmdNode::Call {
                        callee: CalleeRef::Resolved(id),
                        args: args.clone(),
                        marks,
                    }
                }
                None => CmdNode::Call {
                    callee: CalleeRef::Unknown(*callee),
                    args: args.clone(),
                    marks: Vec::new(),
                },
            },
            Cmd::Sample { dir, chan, dist } => CmdNode::Sample {
                dir: *dir,
                chan: *chan,
                dist: DistNode::compile(dist),
                declared: declares(proc, chan),
            },
            Cmd::Branch {
                dir,
                chan,
                pred,
                then_cmd,
                else_cmd,
            } => {
                let then_cmd = self.flatten(program, proc, then_cmd);
                let else_cmd = self.flatten(program, proc, else_cmd);
                CmdNode::Branch {
                    dir: *dir,
                    chan: *chan,
                    pred: pred.clone(),
                    then_cmd,
                    else_cmd,
                    declared: declares(proc, chan),
                }
            }
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Looks up a procedure id by name.
    pub fn proc_id(&self, name: &Ident) -> Option<ProcId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a compiled procedure by name — the entry-point metadata
    /// (parameter arity, consumed and provided channel names) that a query
    /// layer needs to build a [`JointSpec`](crate::JointSpec) and validate
    /// a call *before* spawning any coroutine.
    pub fn proc_named(&self, name: &Ident) -> Option<&CompiledProc> {
        self.proc_id(name).map(|id| self.proc(id))
    }

    /// The compiled procedure at `id`.
    pub fn proc(&self, id: ProcId) -> &CompiledProc {
        &self.procs[id]
    }

    /// The command node at `id`.
    pub fn node(&self, id: CmdId) -> &CmdNode {
        &self.nodes[id]
    }

    /// Number of procedures.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Number of flattened command nodes (all procedures together).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

fn declares(proc: &Proc, chan: &ChannelName) -> bool {
    proc.consumes.as_ref() == Some(chan) || proc.provides.as_ref() == Some(chan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_program;

    #[test]
    fn flattening_resolves_calls_and_channel_roles() {
        let prog = parse_program(
            r#"
            proc Outer() consume latent provide obs {
              let _ <- call Inner();
              return ()
            }
            proc Inner() consume latent provide obs {
              let x <- sample recv latent (Unif);
              let _ <- sample send obs (Normal(x, 1.0));
              return ()
            }
        "#,
        )
        .unwrap();
        let compiled = CompiledProgram::compile(&prog);
        assert_eq!(compiled.num_procs(), 2);
        let outer = compiled.proc_id(&"Outer".into()).unwrap();
        let inner = compiled.proc_id(&"Inner".into()).unwrap();
        assert_eq!(compiled.proc(outer).name.as_str(), "Outer");
        // Walk Outer's body: a Bind whose first is the pre-resolved call.
        let body = compiled.node(compiled.proc(outer).body);
        let CmdNode::Bind { first, .. } = body else {
            panic!("expected bind, got {body:?}");
        };
        let CmdNode::Call { callee, marks, .. } = compiled.node(*first) else {
            panic!("expected call");
        };
        assert!(matches!(callee, CalleeRef::Resolved(id) if *id == inner));
        let mark_names: Vec<_> = marks.iter().map(|c| c.as_str()).collect();
        assert_eq!(mark_names, ["latent", "obs"]);
        // Inner's sample nodes carry pre-resolved declaredness.
        let inner_body = compiled.node(compiled.proc(inner).body);
        let CmdNode::Bind { first, .. } = inner_body else {
            panic!("expected bind");
        };
        assert!(matches!(
            compiled.node(*first),
            CmdNode::Sample { declared: true, .. }
        ));
    }

    #[test]
    fn proc_named_exposes_entry_point_metadata() {
        let prog = parse_program(
            r#"
            proc M(a : real, b : preal) consume lat provide data {
              let x <- sample recv lat (Normal(a, b));
              let _ <- sample send data (Normal(x, 1.0));
              return ()
            }
        "#,
        )
        .unwrap();
        let compiled = CompiledProgram::compile(&prog);
        let meta = compiled.proc_named(&"M".into()).expect("M exists");
        assert_eq!(meta.params.len(), 2);
        assert_eq!(meta.consumes.as_ref().map(|c| c.as_str()), Some("lat"));
        assert_eq!(meta.provides.as_ref().map(|c| c.as_str()), Some("data"));
        assert!(compiled.proc_named(&"Nope".into()).is_none());
    }

    #[test]
    fn unknown_callee_and_undeclared_channel_are_deferred() {
        let prog = parse_program(
            r#"
            proc P() consume latent {
              let _ <- sample recv other (Unif);
              let _ <- call Nope();
              return ()
            }
        "#,
        )
        .unwrap();
        let compiled = CompiledProgram::compile(&prog);
        let p = compiled.proc_id(&"P".into()).unwrap();
        let CmdNode::Bind { first, rest, .. } = compiled.node(compiled.proc(p).body) else {
            panic!("expected bind");
        };
        assert!(matches!(
            compiled.node(*first),
            CmdNode::Sample {
                declared: false,
                ..
            }
        ));
        let CmdNode::Bind { first, .. } = compiled.node(*rest) else {
            panic!("expected bind");
        };
        assert!(matches!(
            compiled.node(*first),
            CmdNode::Call {
                callee: CalleeRef::Unknown(_),
                ..
            }
        ));
        assert!(compiled.proc_id(&"Nope".into()).is_none());
    }

    #[test]
    fn compiled_program_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let prog = parse_program(
            r#"
            proc P() provide latent {
              let x <- sample send latent (Unif);
              return x
            }
        "#,
        )
        .unwrap();
        let compiled = CompiledProgram::compile_shared(&prog);
        assert_send_sync(&compiled);
        assert!(compiled.num_nodes() >= 3);
    }
}
