//! Vectorised block execution: many particles in lockstep over the shared
//! compiled programs.
//!
//! The scalar path ([`JointExecutor::run_with_scratch`]) interprets one
//! particle at a time: every particle re-walks the command graph, suspends
//! and resumes two coroutines at every channel operation, and pays the
//! interpreter dispatch cost per particle.  This module amortises that cost
//! over a whole *block* of particles:
//!
//! 1. **Lazy plan compilation.**  Blocks symbolically co-execute the model
//!    and guide through the exact arbitration logic of `drive_joint`, but
//!    over *symbolic* values (compile-time constants or lane *slots*), and
//!    emit straight-line [`Op`]s (draw, score, per-lane eval) that replay
//!    the joint execution without any coroutine machinery.  A branch whose
//!    predicate depends on lane values ends the arm in an [`Op::Fork`]
//!    whose two arms stay *pending* stubs, holding the symbolic joint
//!    state, until a block first routes lanes into them — the way a tracing
//!    JIT extends its traces.  A linearly recursive model (geometric,
//!    ptrace, marsaglia) so plans one arm pair per depth its lanes reach.
//! 2. **Structure-of-arrays lanes.**  Each sample site gets one slot — a
//!    `Vec<f64>` column holding that site's value for every lane.  Constant
//!    distributions draw and score the whole column through the batched
//!    kernels in `ppl_dist` ([`Distribution::sample_batch`],
//!    [`Distribution::log_density_batch`]), which are straight-line loops
//!    over `&[f64]` that LLVM autovectorises.
//! 3. **Divergence.**  At a fork the active lane set splits, each arm runs
//!    with its own sub-set (falling back to per-lane evaluation since the
//!    column is no longer dense), and execution re-converges after the fork.
//! 4. **Fallback.**  A [`BlockPlan`] holds at most [`ARM_BUDGET`] planned
//!    arms; tree recursion (ex-2, gp-dsl) exhausts it within a few blocks.
//!    That, or any other shape the planner cannot vectorise (closures
//!    crossing sites, opaque per-lane distributions, the fuel and slot
//!    guards), caches a scalar verdict ([`JointScratch::plan_verdict`]):
//!    this block and every later one run each lane through the scalar
//!    coroutine path with the *same* per-lane RNG substream — results are
//!    bit-identical either way, which the determinism goldens enforce.
//!
//! RNG discipline: lane `i` of a block starting at global stream `s`
//! consumes exactly `master.split(s + i)`, the same substream the scalar
//! engine hands particle `s + i`, so block size and thread count can never
//! change a result.

use crate::joint::{
    JointExecutor, JointResult, JointScratch, JointSpec, LatentSource, RuntimeError,
};
use crate::program::{CalleeRef, CmdId, CmdNode, CompiledProgram, DistNode, ProcId};
use ppl_dist::rng::Pcg32;
use ppl_dist::{DistKind, Distribution, Sample};
use ppl_semantics::eval::{eval_dist_in, eval_expr_in};
use ppl_semantics::trace::{Message, Trace};
use ppl_semantics::value::{Bindings, Value, ValueStack};
use ppl_syntax::ast::{ChannelName, Dir, DistExpr, Expr, Ident};
use std::sync::Arc;

/// Symbolic execution step budget per plan: bounds the total number of
/// command steps across every arm the plan ever compiles.
const FUEL: u32 = 50_000;
/// Maximum number of planned arms (the entry prefix included) per plan.
/// Also bounds the fork nesting, and so the runner's recursion depth.
const ARM_BUDGET: usize = 64;
/// Maximum number of lane slots (sample sites + per-lane evals) per plan.
const MAX_SLOTS: usize = 512;

/// The planner cannot vectorise this program shape; the block must take the
/// scalar path (cached — every subsequent block skips straight to scalar).
/// The reason is what [`JointScratch::plan_verdict`] reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bail(&'static str);

/// Why a vectorised block must rerun every lane through the scalar path.
#[derive(Debug, Clone, Copy)]
enum RunBail {
    /// This block hit something only the scalar interpreter can reproduce
    /// exactly (a per-lane eval error, an unencodable value, a failing
    /// path); the plan stays valid for later blocks.
    Block,
    /// Planning an arm the lanes reached failed: cache the scalar verdict.
    Plan(Bail),
}

/// Outcome of symbolic evaluation: either a scalar-path-only shape
/// ([`Bail`]) or a path that deterministically errors at runtime (`Fails`,
/// compiled to [`Op::Fail`] so the scalar rerun reports the exact error).
enum Halt {
    /// This execution path always errors; emit [`Op::Fail`].
    Fails,
    /// The whole plan is unvectorisable.
    Bail(Bail),
}

impl From<Bail> for Halt {
    fn from(b: Bail) -> Halt {
        Halt::Bail(b)
    }
}

/// Carrier class of a slot: how the `f64` column encodes values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carrier {
    /// `Sample::Real` stored directly.
    Real,
    /// `Sample::Bool` stored as `1.0` / `0.0`.
    Bool,
    /// `Sample::Nat` stored via `f64::from_bits`.
    Nat,
    /// Per-lane eval results: a side tag column selects the decoding.
    Dyn,
}

const TAG_UNIT: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_NAT: u8 = 3;

fn class_of_kind(kind: DistKind) -> Carrier {
    match kind {
        DistKind::Real | DistKind::PosReal | DistKind::UnitInterval => Carrier::Real,
        DistKind::Bool => Carrier::Bool,
        DistKind::Nat | DistKind::FinNat(_) => Carrier::Nat,
    }
}

fn class_of_ctor(ctor: &DistExpr) -> Carrier {
    match ctor {
        DistExpr::Bernoulli(_) => Carrier::Bool,
        DistExpr::Uniform | DistExpr::Beta(..) | DistExpr::Gamma(..) | DistExpr::Normal(..) => {
            Carrier::Real
        }
        DistExpr::Categorical(_) | DistExpr::Geometric(_) | DistExpr::Poisson(_) => Carrier::Nat,
    }
}

fn encode_sample(s: Sample) -> f64 {
    match s {
        Sample::Real(x) => x,
        Sample::Bool(b) => {
            if b {
                1.0
            } else {
                0.0
            }
        }
        Sample::Nat(n) => f64::from_bits(n),
    }
}

fn decode_sample(carrier: Carrier, x: f64) -> Option<Sample> {
    match carrier {
        Carrier::Real => Some(Sample::Real(x)),
        Carrier::Bool => Some(Sample::Bool(x == 1.0)),
        Carrier::Nat => Some(Sample::Nat(x.to_bits())),
        Carrier::Dyn => None,
    }
}

fn encode_value(v: &Value) -> Option<(u8, f64)> {
    match v {
        Value::Unit => Some((TAG_UNIT, 0.0)),
        Value::Bool(b) => Some((TAG_BOOL, if *b { 1.0 } else { 0.0 })),
        Value::Real(r) => Some((TAG_REAL, *r)),
        Value::Nat(n) => Some((TAG_NAT, f64::from_bits(*n))),
        Value::Dist(_) | Value::Closure { .. } => None,
    }
}

fn decode_slot(carrier: Carrier, x: f64, tag: u8) -> Result<Value, RunBail> {
    Ok(match carrier {
        Carrier::Real => Value::Real(x),
        Carrier::Bool => Value::Bool(x == 1.0),
        Carrier::Nat => Value::Nat(x.to_bits()),
        Carrier::Dyn => match tag {
            TAG_UNIT => Value::Unit,
            TAG_BOOL => Value::Bool(x == 1.0),
            TAG_REAL => Value::Real(x),
            TAG_NAT => Value::Nat(x.to_bits()),
            _ => return Err(RunBail::Block),
        },
    })
}

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

/// A plan-time value: the same for every lane, or a per-lane slot.
#[derive(Debug, Clone)]
enum SymValue {
    /// The same concrete value on every lane.
    Const(Value),
    /// Slot index into the structure-of-arrays columns.
    Slot(usize),
}

/// A plan-time distribution at a sample site.
#[derive(Debug, Clone)]
enum LaneDist {
    /// Parameters were constant: one shared distribution, eligible for the
    /// batched draw/score kernels.
    Const(Distribution),
    /// Parameters depend on lane values: re-evaluated per lane from the
    /// captured bindings.
    Ctor {
        expr: DistExpr,
        binds: Vec<(Ident, SymValue)>,
    },
}

fn class_of_dist(d: &LaneDist) -> Carrier {
    match d {
        LaneDist::Const(d) => class_of_kind(d.kind()),
        LaneDist::Ctor { expr, .. } => class_of_ctor(expr),
    }
}

/// The value being scored at a sample site.
#[derive(Debug, Clone)]
enum ScoreVal {
    /// A fixed observation, identical on every lane.
    Sample(Sample),
    /// A lane-varying drawn value.
    Slot(usize),
}

/// One straight-line instruction of a block plan, applied to the active
/// lane set.
#[derive(Debug, Clone)]
enum Op {
    /// Draw a value per lane into `slot` and record it in each lane's
    /// trace (`ValP` when the provider/guide drew it, `ValC` otherwise).
    Draw {
        dist: LaneDist,
        slot: usize,
        provider: bool,
    },
    /// Accumulate `log_density(value)` into the model or guide log-weight.
    Score {
        model: bool,
        dist: LaneDist,
        value: ScoreVal,
    },
    /// Accumulate a compile-time-known log-density term.
    ScoreConst { model: bool, w: f64 },
    /// Evaluate an expression per lane into a dynamic slot.
    Eval {
        expr: Expr,
        binds: Vec<(Ident, SymValue)>,
        slot: usize,
    },
    /// Record a `Fold` marker in each lane's trace.
    Fold,
    /// Record a constant branch direction in each lane's trace.
    DirConst { provider: bool, selection: bool },
    /// Evaluate `pred` per lane, record the direction message (when the
    /// branch is on the latent channel), and split the lane set between the
    /// two arms.  Always the last op of its arm.
    Fork {
        pred: Expr,
        binds: Vec<(Ident, SymValue)>,
        /// `Some(provider)` when a `DirP`/`DirC` message must be recorded.
        msg: Option<bool>,
        /// Indices of the two arms in [`BlockPlan::arms`].
        then_arm: usize,
        else_arm: usize,
    },
    /// This path deterministically errors; rerun the block through the
    /// scalar interpreter to reproduce the exact error.
    Fail,
    /// Terminal of a path: stage each lane's result.
    Finish {
        model_value: SymValue,
        guide_value: SymValue,
        obs_used: u32,
    },
}

/// One arm of a plan: the straight-line ops from a fork (or the spawn) to
/// the next fork, finish or fail.
#[derive(Debug)]
enum Arm {
    /// No lane has reached this arm yet.
    Pending(PendingArm),
    /// Its ops, shared with the runs in flight while the plan grows.
    Planned(Arc<[Op]>),
}

/// An arm no lane has reached yet: where its path starts.
#[derive(Debug)]
enum PendingArm {
    /// Arm 0: both coroutines at their spawn.
    Entry,
    /// One side of a fork: the symbolic joint state at the fork, and the
    /// selection to resume it with.
    Fork {
        st: Box<SymJoint>,
        sel: bool,
        kind: ForkKind,
    },
}

/// A block plan: an arena of arms plus the carrier class of each slot.
/// Arm 0 is the entry prefix; every [`Op::Fork`] names its arms by index,
/// so extending the plan is an index write.
#[derive(Debug)]
pub(crate) struct BlockPlan {
    arms: Vec<Arm>,
    carriers: Vec<Carrier>,
    /// Planned arms so far, at most [`ARM_BUDGET`].
    planned: usize,
    /// Symbolic execution steps left for every arm still to be planned.
    fuel: u32,
}

// ---------------------------------------------------------------------------
// Symbolic coroutine (plan compiler)
// ---------------------------------------------------------------------------

/// Plan-compilation context: the plan being extended (slot table, arm
/// arena, fuel) and a scratch stack for constant folding.
struct PlanCx<'e> {
    exec: &'e JointExecutor,
    spec: &'e JointSpec,
    plan: &'e mut BlockPlan,
    scratch: ValueStack,
}

impl PlanCx<'_> {
    fn new_slot(&mut self, carrier: Carrier) -> Result<usize, Bail> {
        let carriers = &mut self.plan.carriers;
        if carriers.len() >= MAX_SLOTS {
            return Err(Bail("slot budget exceeded"));
        }
        carriers.push(carrier);
        Ok(carriers.len() - 1)
    }

    fn burn_fuel(&mut self) -> Result<(), Bail> {
        match self.plan.fuel.checked_sub(1) {
            Some(f) => {
                self.plan.fuel = f;
                Ok(())
            }
            None => Err(Bail("symbolic execution fuel exhausted")),
        }
    }
}

/// A symbolic mirror of [`crate::coroutine::Coroutine`]: same frames, same
/// scope bases, same control states — but over [`SymValue`]s.
#[derive(Debug, Clone)]
struct SymCo {
    prog: Arc<CompiledProgram>,
    /// `(bind node, entry depth, saved base)` continuation frames.
    frames: Vec<(CmdId, usize, usize)>,
    entries: Vec<(Ident, SymValue)>,
    base: usize,
    pending_args: Vec<SymValue>,
    control: SymControl,
}

#[derive(Debug, Clone)]
enum SymControl {
    Run(CmdId),
    Return(SymValue),
    Await(SymPending),
    Finished,
}

#[derive(Debug, Clone)]
enum SymPending {
    Sample,
    BranchRecv {
        node: CmdId,
    },
    BranchSend {
        node: CmdId,
    },
    CallAck {
        node: CmdId,
        next_mark: usize,
        callee: ProcId,
    },
}

/// A plan-time branch selection: constant, or lane-dependent.
#[derive(Debug, Clone)]
enum SymBool {
    Const(bool),
    Lane {
        pred: Expr,
        binds: Vec<(Ident, SymValue)>,
    },
}

/// A symbolic suspension, mirroring [`crate::coroutine::Suspend`].
#[derive(Debug, Clone)]
enum SymSuspend {
    SampleSend {
        chan: ChannelName,
        dist: LaneDist,
    },
    SampleRecv {
        chan: ChannelName,
        dist: LaneDist,
    },
    BranchSend {
        chan: ChannelName,
        selection: SymBool,
    },
    BranchRecv {
        chan: ChannelName,
    },
    CallMarker {
        chan: ChannelName,
    },
}

impl SymSuspend {
    fn channel(&self) -> ChannelName {
        match self {
            SymSuspend::SampleSend { chan, .. }
            | SymSuspend::SampleRecv { chan, .. }
            | SymSuspend::BranchSend { chan, .. }
            | SymSuspend::BranchRecv { chan }
            | SymSuspend::CallMarker { chan } => *chan,
        }
    }
}

/// A symbolic step outcome, mirroring [`crate::coroutine::Step`] plus the
/// deterministic-error terminal.
#[derive(Debug, Clone)]
enum SymStep {
    Suspended(SymSuspend),
    Done(SymValue),
    /// This coroutine deterministically errors on this path.
    Fails,
}

#[derive(Clone)]
enum SymResume {
    Sample(SymValue),
    Branch(bool),
    AckBranch(bool),
    Ack,
}

/// Lazily evaluated expression: constant-folded, a direct slot alias, or a
/// per-lane computation with its captured bindings.
enum LazyVal {
    Const(Value),
    Slot(usize),
    Lane {
        expr: Expr,
        binds: Vec<(Ident, SymValue)>,
    },
}

impl SymCo {
    fn lookup(&self, x: Ident) -> Option<&SymValue> {
        self.entries[self.base..]
            .iter()
            .rev()
            .find(|(name, _)| *name == x)
            .map(|(_, v)| v)
    }
}

fn sym_spawn(prog: &Arc<CompiledProgram>, name: &Ident, args: &[Value]) -> Result<SymCo, Bail> {
    let id = prog.proc_id(name).ok_or(Bail("unknown procedure"))?;
    let proc = prog.proc(id);
    if proc.params.len() != args.len() {
        return Err(Bail("arity mismatch at spawn"));
    }
    let entries = proc
        .params
        .iter()
        .zip(args)
        .map(|(x, v)| (*x, SymValue::Const(v.clone())))
        .collect();
    Ok(SymCo {
        prog: Arc::clone(prog),
        frames: Vec::new(),
        entries,
        base: 0,
        pending_args: Vec::new(),
        control: SymControl::Run(proc.body),
    })
}

fn enter_callee(co: &mut SymCo, callee: ProcId) -> CmdId {
    let base = co.entries.len();
    let prog = Arc::clone(&co.prog);
    let params = &prog.proc(callee).params;
    for (i, v) in co.pending_args.drain(..).enumerate() {
        co.entries.push((params[i], v));
    }
    co.base = base;
    prog.proc(callee).body
}

fn branch_arm(prog: &CompiledProgram, node: CmdId, selection: bool) -> Result<CmdId, Bail> {
    match prog.node(node) {
        CmdNode::Branch {
            then_cmd, else_cmd, ..
        } => Ok(if selection { *then_cmd } else { *else_cmd }),
        _ => Err(Bail("branch node mismatch")),
    }
}

/// Captures the symbolic values of free variables `vars`, in order.
/// Returns them when some are per-lane; otherwise loads them into the
/// constant-folding stack and returns `None`.
fn capture(
    cx: &mut PlanCx<'_>,
    co: &SymCo,
    vars: impl IntoIterator<Item = Ident>,
) -> Result<Option<Vec<(Ident, SymValue)>>, Halt> {
    let mut binds: Vec<(Ident, SymValue)> = Vec::new();
    for x in vars {
        if binds.iter().any(|(name, _)| *name == x) {
            continue;
        }
        let sv = co.lookup(x).ok_or(Halt::Fails)?;
        if matches!(sv, SymValue::Const(Value::Closure { .. })) {
            return Err(Halt::Bail(Bail("closure crosses a site")));
        }
        binds.push((x, sv.clone()));
    }
    if binds.iter().any(|(_, sv)| matches!(sv, SymValue::Slot(_))) {
        return Ok(Some(binds));
    }
    cx.scratch.clear();
    for (x, sv) in binds {
        if let SymValue::Const(v) = sv {
            cx.scratch.push(x, v);
        }
    }
    Ok(None)
}

/// Lazy symbolic evaluation of a pure expression: constant-folds when every
/// free variable is constant, otherwise captures the lane bindings without
/// forcing a slot allocation (forks evaluate the predicate in place).
fn sym_eval_lazy(cx: &mut PlanCx<'_>, co: &SymCo, e: &Expr) -> Result<LazyVal, Halt> {
    match e {
        Expr::Triv => return Ok(LazyVal::Const(Value::Unit)),
        Expr::Bool(b) => return Ok(LazyVal::Const(Value::Bool(*b))),
        Expr::Real(r) => return Ok(LazyVal::Const(Value::Real(*r))),
        Expr::Nat(n) => return Ok(LazyVal::Const(Value::Nat(*n))),
        Expr::Var(x) => {
            return match co.lookup(*x).ok_or(Halt::Fails)? {
                SymValue::Const(Value::Closure { .. }) => {
                    Err(Halt::Bail(Bail("closure crosses a site")))
                }
                SymValue::Const(v) => Ok(LazyVal::Const(v.clone())),
                SymValue::Slot(s) => Ok(LazyVal::Slot(*s)),
            };
        }
        _ => {}
    }
    if let Some(binds) = capture(cx, co, e.free_vars())? {
        return Ok(LazyVal::Lane {
            expr: e.clone(),
            binds,
        });
    }
    match eval_expr_in(&mut cx.scratch, e) {
        Ok(Value::Closure { .. }) => Err(Halt::Bail(Bail("closure crosses a site"))),
        Ok(v) => Ok(LazyVal::Const(v)),
        // Deterministic eval error: identical on every lane.
        Err(_) => Err(Halt::Fails),
    }
}

/// Strict symbolic evaluation: per-lane computations get a dynamic slot and
/// an [`Op::Eval`].
fn sym_eval(
    cx: &mut PlanCx<'_>,
    co: &SymCo,
    e: &Expr,
    ops: &mut Vec<Op>,
) -> Result<SymValue, Halt> {
    match sym_eval_lazy(cx, co, e)? {
        LazyVal::Const(v) => Ok(SymValue::Const(v)),
        LazyVal::Slot(s) => Ok(SymValue::Slot(s)),
        LazyVal::Lane { expr, binds } => {
            let slot = cx.new_slot(Carrier::Dyn)?;
            ops.push(Op::Eval { expr, binds, slot });
            Ok(SymValue::Slot(slot))
        }
    }
}

/// Symbolic evaluation of a sample site's distribution node.
fn sym_eval_dist(cx: &mut PlanCx<'_>, co: &SymCo, node: &DistNode) -> Result<LaneDist, Halt> {
    match node {
        DistNode::Const(d) => Ok(LaneDist::Const(d.clone())),
        DistNode::Ctor(ctor) => {
            let vars = ctor.args().into_iter().flat_map(|arg| arg.free_vars());
            if let Some(binds) = capture(cx, co, vars)? {
                return Ok(LaneDist::Ctor {
                    expr: ctor.clone(),
                    binds,
                });
            }
            match eval_dist_in(&mut cx.scratch, ctor) {
                Ok(d) => Ok(LaneDist::Const(d)),
                Err(_) => Err(Halt::Fails),
            }
        }
        DistNode::Opaque(e) => match sym_eval_lazy(cx, co, e)? {
            LazyVal::Const(Value::Dist(d)) => Ok(LaneDist::Const(d)),
            LazyVal::Const(_) => Err(Halt::Fails),
            _ => Err(Halt::Bail(Bail("per-lane opaque distribution"))),
        },
    }
}

/// Symbolic mirror of [`crate::coroutine::Coroutine::drive`]: steps the
/// coroutine until it suspends, finishes, or is found to deterministically
/// error, emitting per-lane [`Op::Eval`]s along the way.
fn sym_drive(cx: &mut PlanCx<'_>, co: &mut SymCo, ops: &mut Vec<Op>) -> Result<SymStep, Bail> {
    loop {
        cx.burn_fuel()?;
        let control = std::mem::replace(&mut co.control, SymControl::Finished);
        match control {
            SymControl::Finished | SymControl::Await(_) => return Err(Bail("bad control state")),
            SymControl::Return(v) => match co.frames.pop() {
                None => return Ok(SymStep::Done(v)),
                Some((node, depth, base)) => {
                    let prog = Arc::clone(&co.prog);
                    let CmdNode::Bind { var, rest, .. } = prog.node(node) else {
                        return Err(Bail("bind frame mismatch"));
                    };
                    co.entries.truncate(depth);
                    co.base = base;
                    co.entries.push((*var, v));
                    co.control = SymControl::Run(*rest);
                }
            },
            SymControl::Run(cmd) => {
                let prog = Arc::clone(&co.prog);
                match prog.node(cmd) {
                    CmdNode::Ret(e) => match sym_eval(cx, co, e, ops) {
                        Ok(v) => co.control = SymControl::Return(v),
                        Err(Halt::Fails) => return Ok(SymStep::Fails),
                        Err(Halt::Bail(b)) => return Err(b),
                    },
                    CmdNode::Bind { first, .. } => {
                        co.frames.push((cmd, co.entries.len(), co.base));
                        co.control = SymControl::Run(*first);
                    }
                    CmdNode::Call {
                        callee,
                        args,
                        marks,
                    } => {
                        co.pending_args.clear();
                        for arg in args {
                            match sym_eval(cx, co, arg, ops) {
                                Ok(v) => co.pending_args.push(v),
                                Err(Halt::Fails) => return Ok(SymStep::Fails),
                                Err(Halt::Bail(b)) => return Err(b),
                            }
                        }
                        let callee = match callee {
                            CalleeRef::Resolved(id) => *id,
                            CalleeRef::Unknown(_) => return Ok(SymStep::Fails),
                        };
                        if prog.proc(callee).params.len() != co.pending_args.len() {
                            return Ok(SymStep::Fails);
                        }
                        if let Some(chan) = marks.first() {
                            co.control = SymControl::Await(SymPending::CallAck {
                                node: cmd,
                                next_mark: 1,
                                callee,
                            });
                            return Ok(SymStep::Suspended(SymSuspend::CallMarker { chan: *chan }));
                        }
                        let body = enter_callee(co, callee);
                        co.control = SymControl::Run(body);
                    }
                    CmdNode::Sample {
                        dir,
                        chan,
                        dist,
                        declared,
                    } => {
                        if !declared {
                            return Ok(SymStep::Fails);
                        }
                        let dist = match sym_eval_dist(cx, co, dist) {
                            Ok(d) => d,
                            Err(Halt::Fails) => return Ok(SymStep::Fails),
                            Err(Halt::Bail(b)) => return Err(b),
                        };
                        co.control = SymControl::Await(SymPending::Sample);
                        return Ok(SymStep::Suspended(match dir {
                            Dir::Send => SymSuspend::SampleSend { chan: *chan, dist },
                            Dir::Recv => SymSuspend::SampleRecv { chan: *chan, dist },
                        }));
                    }
                    CmdNode::Branch {
                        dir,
                        chan,
                        pred,
                        declared,
                        ..
                    } => {
                        if !declared {
                            return Ok(SymStep::Fails);
                        }
                        match dir {
                            Dir::Send => {
                                let Some(pred) = pred else {
                                    return Ok(SymStep::Fails);
                                };
                                let selection = match sym_eval_lazy(cx, co, pred) {
                                    Ok(LazyVal::Const(Value::Bool(b))) => SymBool::Const(b),
                                    Ok(LazyVal::Const(_)) => return Ok(SymStep::Fails),
                                    Ok(LazyVal::Slot(s)) => {
                                        let Expr::Var(x) = pred else {
                                            return Err(Bail("slot alias on non-variable"));
                                        };
                                        SymBool::Lane {
                                            pred: pred.clone(),
                                            binds: vec![(*x, SymValue::Slot(s))],
                                        }
                                    }
                                    Ok(LazyVal::Lane { expr, binds }) => {
                                        SymBool::Lane { pred: expr, binds }
                                    }
                                    Err(Halt::Fails) => return Ok(SymStep::Fails),
                                    Err(Halt::Bail(b)) => return Err(b),
                                };
                                co.control =
                                    SymControl::Await(SymPending::BranchSend { node: cmd });
                                return Ok(SymStep::Suspended(SymSuspend::BranchSend {
                                    chan: *chan,
                                    selection,
                                }));
                            }
                            Dir::Recv => {
                                co.control =
                                    SymControl::Await(SymPending::BranchRecv { node: cmd });
                                return Ok(SymStep::Suspended(SymSuspend::BranchRecv {
                                    chan: *chan,
                                }));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Symbolic mirror of [`crate::coroutine::Coroutine::resume`] followed by a
/// drive to the next suspension.
fn sym_resume(
    cx: &mut PlanCx<'_>,
    co: &mut SymCo,
    resume: SymResume,
    ops: &mut Vec<Op>,
) -> Result<SymStep, Bail> {
    let pending = match std::mem::replace(&mut co.control, SymControl::Finished) {
        SymControl::Await(p) => p,
        _ => return Err(Bail("resume without suspension")),
    };
    match (pending, resume) {
        (SymPending::Sample, SymResume::Sample(v)) => co.control = SymControl::Return(v),
        (SymPending::BranchRecv { node }, SymResume::Branch(sel)) => {
            co.control = SymControl::Run(branch_arm(&co.prog, node, sel)?);
        }
        (SymPending::BranchSend { node }, SymResume::AckBranch(sel)) => {
            co.control = SymControl::Run(branch_arm(&co.prog, node, sel)?);
        }
        (
            SymPending::CallAck {
                node,
                next_mark,
                callee,
            },
            SymResume::Ack,
        ) => {
            let prog = Arc::clone(&co.prog);
            let CmdNode::Call { marks, .. } = prog.node(node) else {
                return Err(Bail("call frame mismatch"));
            };
            if let Some(chan) = marks.get(next_mark) {
                co.control = SymControl::Await(SymPending::CallAck {
                    node,
                    next_mark: next_mark + 1,
                    callee,
                });
                return Ok(SymStep::Suspended(SymSuspend::CallMarker { chan: *chan }));
            }
            let body = enter_callee(co, callee);
            co.control = SymControl::Run(body);
        }
        _ => return Err(Bail("resume kind mismatch")),
    }
    sym_drive(cx, co, ops)
}

// ---------------------------------------------------------------------------
// Joint plan compilation (mirror of `drive_joint`)
// ---------------------------------------------------------------------------

/// The symbolic joint state: both coroutines plus their last steps.
#[derive(Debug, Clone)]
struct SymJoint {
    model: SymCo,
    guide: SymCo,
    mstep: SymStep,
    gstep: SymStep,
    obs_used: usize,
}

/// Emits score ops for one sample site, constant-folding where possible.
///
/// A carrier-class mismatch between a constant distribution and a drawn
/// slot means `supports()` rejects every lane identically, so the site
/// scores exactly `-inf` — emitted as a constant so the per-lane decode is
/// skipped.  The add is always emitted (never elided at `w == 0`) so the
/// floating-point accumulation order matches the scalar path bit-for-bit.
fn emit_score(cx: &PlanCx<'_>, ops: &mut Vec<Op>, model: bool, dist: LaneDist, value: ScoreVal) {
    match (&dist, &value) {
        (LaneDist::Const(d), ScoreVal::Sample(v)) => ops.push(Op::ScoreConst {
            model,
            w: d.log_density(v),
        }),
        (LaneDist::Const(d), ScoreVal::Slot(s)) => {
            if class_of_kind(d.kind()) == cx.plan.carriers[*s] {
                ops.push(Op::Score { model, dist, value });
            } else {
                ops.push(Op::ScoreConst {
                    model,
                    w: f64::NEG_INFINITY,
                });
            }
        }
        (LaneDist::Ctor { .. }, _) => ops.push(Op::Score { model, dist, value }),
    }
}

/// Which joint rendezvous is being forked on a lane-dependent branch
/// predicate (determines the resume order, which must match the scalar
/// arbitration exactly).
#[derive(Debug, Clone, Copy)]
enum ForkKind {
    /// Model branch on the observation channel: model acknowledged alone.
    ModelOnly,
    /// Model sends the latent direction: guide resumed first.
    ModelSends,
    /// Guide sends the latent direction: model resumed first.
    GuideSends,
}

/// Plans a pending arm: spawns both coroutines (the entry) or applies the
/// fork's resume(s) for the arm's selection, then compiles the path up to
/// its next fork, finish or fail.
fn plan_pending(cx: &mut PlanCx<'_>, pending: PendingArm) -> Result<Vec<Op>, Bail> {
    let mut ops = Vec::new();
    let st = match pending {
        PendingArm::Entry => {
            let (exec, spec) = (cx.exec, cx.spec);
            let mut args = spec.model_args.iter().chain(&spec.guide_args);
            if args.any(|arg| matches!(arg, Value::Closure { .. })) {
                return Err(Bail("closure argument"));
            }
            let mut model = sym_spawn(&exec.model_program, &spec.model_proc, &spec.model_args)?;
            let mut guide = sym_spawn(&exec.guide_program, &spec.guide_proc, &spec.guide_args)?;
            let mstep = sym_drive(cx, &mut model, &mut ops)?;
            let gstep = sym_drive(cx, &mut guide, &mut ops)?;
            SymJoint {
                model,
                guide,
                mstep,
                gstep,
                obs_used: 0,
            }
        }
        PendingArm::Fork { mut st, sel, kind } => {
            match kind {
                ForkKind::ModelOnly => {
                    st.mstep = sym_resume(cx, &mut st.model, SymResume::AckBranch(sel), &mut ops)?;
                }
                ForkKind::ModelSends => {
                    st.gstep = sym_resume(cx, &mut st.guide, SymResume::Branch(sel), &mut ops)?;
                    st.mstep = sym_resume(cx, &mut st.model, SymResume::AckBranch(sel), &mut ops)?;
                }
                ForkKind::GuideSends => {
                    st.mstep = sym_resume(cx, &mut st.model, SymResume::Branch(sel), &mut ops)?;
                    st.gstep = sym_resume(cx, &mut st.guide, SymResume::AckBranch(sel), &mut ops)?;
                }
            }
            *st
        }
    };
    drive_path(cx, st, ops)
}

/// Ends `ops` with a fork on a lane-dependent branch predicate; both arms
/// stay pending until lanes reach them.
fn fork(
    cx: &mut PlanCx<'_>,
    mut ops: Vec<Op>,
    st: SymJoint,
    pred: Expr,
    binds: Vec<(Ident, SymValue)>,
    msg: Option<bool>,
    kind: ForkKind,
) -> Vec<Op> {
    let then_arm = cx.plan.arms.len();
    for (st, sel) in [(Box::new(st.clone()), true), (Box::new(st), false)] {
        let arm = PendingArm::Fork { st, sel, kind };
        cx.plan.arms.push(Arm::Pending(arm));
    }
    ops.push(Op::Fork {
        pred,
        binds,
        msg,
        then_arm,
        else_arm: then_arm + 1,
    });
    ops
}

/// Compiles one path of the joint execution onto `ops` up to its first
/// lane-dependent fork, mirroring the arbitration loop of `drive_joint`
/// arm for arm (the step order and resume order determine both the RNG
/// consumption order and the floating-point accumulation order, so they
/// must match exactly).
fn drive_path(cx: &mut PlanCx<'_>, mut st: SymJoint, mut ops: Vec<Op>) -> Result<Vec<Op>, Bail> {
    loop {
        cx.burn_fuel()?;
        if matches!(st.mstep, SymStep::Fails) || matches!(st.gstep, SymStep::Fails) {
            ops.push(Op::Fail);
            return Ok(ops);
        }
        if let (SymStep::Done(mv), SymStep::Done(gv)) = (&st.mstep, &st.gstep) {
            if st.obs_used != cx.exec.observations.len() {
                ops.push(Op::Fail);
                return Ok(ops);
            }
            ops.push(Op::Finish {
                model_value: mv.clone(),
                guide_value: gv.clone(),
                obs_used: st.obs_used as u32,
            });
            return Ok(ops);
        }

        // The model acts alone on the observation channel.
        let obs_suspend = match &st.mstep {
            SymStep::Suspended(s) if s.channel() == cx.spec.obs_chan => Some(s.clone()),
            _ => None,
        };
        if let Some(suspend) = obs_suspend {
            match suspend {
                SymSuspend::SampleSend { dist, .. } => {
                    let Some(obs) = cx.exec.observations.get(st.obs_used).copied() else {
                        ops.push(Op::Fail);
                        return Ok(ops);
                    };
                    st.obs_used += 1;
                    emit_score(cx, &mut ops, true, dist, ScoreVal::Sample(obs));
                    st.mstep = sym_resume(
                        cx,
                        &mut st.model,
                        SymResume::Sample(SymValue::Const(Value::from_sample(obs))),
                        &mut ops,
                    )?;
                }
                SymSuspend::CallMarker { .. } => {
                    st.mstep = sym_resume(cx, &mut st.model, SymResume::Ack, &mut ops)?;
                }
                SymSuspend::BranchSend { selection, .. } => match selection {
                    SymBool::Const(sel) => {
                        st.mstep =
                            sym_resume(cx, &mut st.model, SymResume::AckBranch(sel), &mut ops)?;
                    }
                    SymBool::Lane { pred, binds } => {
                        return Ok(fork(cx, ops, st, pred, binds, None, ForkKind::ModelOnly));
                    }
                },
                _ => {
                    ops.push(Op::Fail);
                    return Ok(ops);
                }
            }
            continue;
        }

        // Both coroutines must now rendezvous on the latent channel.
        let (msus, gsus) = match (&st.mstep, &st.gstep) {
            (SymStep::Suspended(m), SymStep::Suspended(g)) => (m.clone(), g.clone()),
            _ => {
                ops.push(Op::Fail);
                return Ok(ops);
            }
        };
        let latent = cx.spec.latent_chan;
        match (msus, gsus) {
            // Guide provides a latent value the model consumes.
            (
                SymSuspend::SampleRecv { chan: mc, dist: md },
                SymSuspend::SampleSend { chan: gc, dist: gd },
            ) if mc == latent && gc == latent => {
                let slot = cx.new_slot(class_of_dist(&gd))?;
                ops.push(Op::Draw {
                    dist: gd.clone(),
                    slot,
                    provider: true,
                });
                emit_score(cx, &mut ops, false, gd, ScoreVal::Slot(slot));
                emit_score(cx, &mut ops, true, md, ScoreVal::Slot(slot));
                st.gstep = sym_resume(
                    cx,
                    &mut st.guide,
                    SymResume::Sample(SymValue::Slot(slot)),
                    &mut ops,
                )?;
                st.mstep = sym_resume(
                    cx,
                    &mut st.model,
                    SymResume::Sample(SymValue::Slot(slot)),
                    &mut ops,
                )?;
            }
            // Model provides a latent value the guide consumes.
            (
                SymSuspend::SampleSend { chan: mc, dist: md },
                SymSuspend::SampleRecv { chan: gc, dist: gd },
            ) if mc == latent && gc == latent => {
                let slot = cx.new_slot(class_of_dist(&md))?;
                ops.push(Op::Draw {
                    dist: md.clone(),
                    slot,
                    provider: false,
                });
                emit_score(cx, &mut ops, true, md, ScoreVal::Slot(slot));
                emit_score(cx, &mut ops, false, gd, ScoreVal::Slot(slot));
                st.mstep = sym_resume(
                    cx,
                    &mut st.model,
                    SymResume::Sample(SymValue::Slot(slot)),
                    &mut ops,
                )?;
                st.gstep = sym_resume(
                    cx,
                    &mut st.guide,
                    SymResume::Sample(SymValue::Slot(slot)),
                    &mut ops,
                )?;
            }
            // Model directs a latent branch.
            (
                SymSuspend::BranchSend {
                    chan: mc,
                    selection,
                },
                SymSuspend::BranchRecv { chan: gc },
            ) if mc == latent && gc == latent => match selection {
                SymBool::Const(sel) => {
                    ops.push(Op::DirConst {
                        provider: false,
                        selection: sel,
                    });
                    st.gstep = sym_resume(cx, &mut st.guide, SymResume::Branch(sel), &mut ops)?;
                    st.mstep = sym_resume(cx, &mut st.model, SymResume::AckBranch(sel), &mut ops)?;
                }
                SymBool::Lane { pred, binds } => {
                    return Ok(fork(
                        cx,
                        ops,
                        st,
                        pred,
                        binds,
                        Some(false),
                        ForkKind::ModelSends,
                    ));
                }
            },
            // Guide directs a latent branch.
            (
                SymSuspend::BranchRecv { chan: mc },
                SymSuspend::BranchSend {
                    chan: gc,
                    selection,
                },
            ) if mc == latent && gc == latent => match selection {
                SymBool::Const(sel) => {
                    ops.push(Op::DirConst {
                        provider: true,
                        selection: sel,
                    });
                    st.mstep = sym_resume(cx, &mut st.model, SymResume::Branch(sel), &mut ops)?;
                    st.gstep = sym_resume(cx, &mut st.guide, SymResume::AckBranch(sel), &mut ops)?;
                }
                SymBool::Lane { pred, binds } => {
                    return Ok(fork(
                        cx,
                        ops,
                        st,
                        pred,
                        binds,
                        Some(true),
                        ForkKind::GuideSends,
                    ));
                }
            },
            // Both coroutines fold on the latent channel together.
            (SymSuspend::CallMarker { chan: mc }, SymSuspend::CallMarker { chan: gc })
                if mc == latent && gc == latent =>
            {
                ops.push(Op::Fold);
                st.mstep = sym_resume(cx, &mut st.model, SymResume::Ack, &mut ops)?;
                st.gstep = sym_resume(cx, &mut st.guide, SymResume::Ack, &mut ops)?;
            }
            // One side folds a channel the other does not mark here.
            (_, SymSuspend::CallMarker { chan: gc }) if gc == latent => {
                st.gstep = sym_resume(cx, &mut st.guide, SymResume::Ack, &mut ops)?;
            }
            (SymSuspend::CallMarker { chan: mc }, _) if mc == latent => {
                st.mstep = sym_resume(cx, &mut st.model, SymResume::Ack, &mut ops)?;
            }
            _ => {
                ops.push(Op::Fail);
                return Ok(ops);
            }
        }
    }
}

impl BlockPlan {
    /// A plan whose every arm, the entry prefix included, is pending: the
    /// first block plans what its lanes reach.
    fn new() -> BlockPlan {
        BlockPlan {
            arms: vec![Arm::Pending(PendingArm::Entry)],
            carriers: Vec::new(),
            planned: 0,
            fuel: FUEL,
        }
    }

    /// Plans pending arm `arm` up to its next fork and keeps it, spending
    /// one unit of the arm budget, or reports why the program shape must
    /// stay on the scalar path.
    fn plan_arm(
        &mut self,
        exec: &JointExecutor,
        spec: &JointSpec,
        arm: usize,
    ) -> Result<Arc<[Op]>, Bail> {
        if self.planned >= ARM_BUDGET {
            return Err(Bail("fork arm budget exhausted"));
        }
        let placeholder = Arm::Planned(Vec::new().into());
        let Arm::Pending(pending) = std::mem::replace(&mut self.arms[arm], placeholder) else {
            unreachable!("only pending arms are planned");
        };
        self.planned += 1;
        let mut cx = PlanCx {
            exec,
            spec,
            plan: self,
            scratch: ValueStack::new(),
        };
        let ops: Arc<[Op]> = plan_pending(&mut cx, pending)?.into();
        self.arms[arm] = Arm::Planned(Arc::clone(&ops));
        Ok(ops)
    }
}

// ---------------------------------------------------------------------------
// Runtime: the structure-of-arrays runner
// ---------------------------------------------------------------------------

/// Cache key for the per-worker compiled plan.  Holding `Arc` clones keeps
/// the keyed allocations alive, so pointer equality cannot alias a new
/// program at a recycled address.
#[derive(Debug)]
struct PlanKey {
    model_prog: Arc<CompiledProgram>,
    guide_prog: Arc<CompiledProgram>,
    observations: Arc<[Sample]>,
    model_proc: Ident,
    guide_proc: Ident,
    latent_chan: ChannelName,
    obs_chan: ChannelName,
    model_args: Vec<Value>,
    guide_args: Vec<Value>,
}

impl PlanKey {
    fn new(exec: &JointExecutor, spec: &JointSpec) -> PlanKey {
        PlanKey {
            model_prog: Arc::clone(&exec.model_program),
            guide_prog: Arc::clone(&exec.guide_program),
            observations: Arc::clone(&exec.observations),
            model_proc: spec.model_proc,
            guide_proc: spec.guide_proc,
            latent_chan: spec.latent_chan,
            obs_chan: spec.obs_chan,
            model_args: spec.model_args.clone(),
            guide_args: spec.guide_args.clone(),
        }
    }

    fn matches(&self, exec: &JointExecutor, spec: &JointSpec) -> bool {
        Arc::ptr_eq(&self.model_prog, &exec.model_program)
            && Arc::ptr_eq(&self.guide_prog, &exec.guide_program)
            && Arc::ptr_eq(&self.observations, &exec.observations)
            && self.model_proc == spec.model_proc
            && self.guide_proc == spec.guide_proc
            && self.latent_chan == spec.latent_chan
            && self.obs_chan == spec.obs_chan
            && self.model_args == spec.model_args
            && self.guide_args == spec.guide_args
    }
}

/// Per-worker working memory of the block executor, owned by
/// [`JointScratch`].  Every buffer is retained across blocks, so the warmed
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    /// The most recent plan (or its cached scalar verdict) and its key.
    /// The plan grows as lanes reach new arms, so it is per worker.
    cache: Option<(PlanKey, Result<BlockPlan, Bail>)>,
    rngs: Vec<Pcg32>,
    /// One `f64` column per slot.
    slots: Vec<Vec<f64>>,
    /// Tag columns for dynamic slots.
    tags: Vec<Vec<u8>>,
    model_lw: Vec<f64>,
    guide_lw: Vec<f64>,
    traces: Vec<Trace>,
    /// The dense lane identity set `0..count`.
    lanes: Vec<u32>,
    /// Per-fork-depth partition buffers (then-lanes, else-lanes).
    fork_bufs: Vec<(Vec<u32>, Vec<u32>)>,
    score_buf: Vec<f64>,
    sample_buf: Vec<Sample>,
    eval_stack: ValueStack,
    finished: Vec<Option<(Value, Value, u32)>>,
}

/// The plan interpreter over the structure-of-arrays lane buffers; it
/// plans pending arms as lanes reach them.
struct Runner<'p, 's> {
    count: usize,
    exec: &'p JointExecutor,
    spec: &'p JointSpec,
    plan: &'s mut BlockPlan,
    rngs: &'s mut [Pcg32],
    slots: &'s mut Vec<Vec<f64>>,
    tags: &'s mut Vec<Vec<u8>>,
    model_lw: &'s mut [f64],
    guide_lw: &'s mut [f64],
    traces: &'s mut [Trace],
    fork_bufs: &'s mut Vec<(Vec<u32>, Vec<u32>)>,
    score_buf: &'s mut [f64],
    sample_buf: &'s mut [Sample],
    eval_stack: &'s mut ValueStack,
    finished: &'s mut [Option<(Value, Value, u32)>],
}

/// Grows `cols` to one column per slot, each at least `count` lanes long
/// (columns are retained across blocks and plans).
fn fit_columns<T: Clone + Default>(cols: &mut Vec<Vec<T>>, nslots: usize, count: usize) {
    if cols.len() < nslots {
        cols.resize_with(nslots, Vec::new);
    }
    for col in &mut cols[..nslots] {
        if col.len() < count {
            col.resize(count, T::default());
        }
    }
}

/// The model's or the guide's log-weight column.
fn weights<'a>(model: bool, model_lw: &'a mut [f64], guide_lw: &'a mut [f64]) -> &'a mut [f64] {
    if model {
        model_lw
    } else {
        guide_lw
    }
}

impl Runner<'_, '_> {
    /// Lane `lane`'s value of `sv`.
    fn decode(&self, sv: &SymValue, lane: usize) -> Result<Value, RunBail> {
        match sv {
            SymValue::Const(v) => Ok(v.clone()),
            SymValue::Slot(s) => decode_slot(
                self.plan.carriers[*s],
                self.slots[*s][lane],
                self.tags[*s][lane],
            ),
        }
    }

    /// Rebuilds the evaluation stack from lane `lane`'s values of an
    /// expression's free variables.
    fn bind(&mut self, binds: &[(Ident, SymValue)], lane: usize) -> Result<(), RunBail> {
        self.eval_stack.clear();
        for (x, sv) in binds {
            let v = self.decode(sv, lane)?;
            self.eval_stack.push(*x, v);
        }
        Ok(())
    }

    /// Records lane `l`'s drawn value in its trace and in `slot`.
    fn record_draw(&mut self, l: usize, slot: usize, provider: bool, s: Sample) {
        self.traces[l].push(if provider {
            Message::ValP(s)
        } else {
            Message::ValC(s)
        });
        self.slots[slot][l] = encode_sample(s);
    }

    /// Evaluates a fork predicate per lane, records the direction message
    /// (`Some(provider)`), and partitions `lanes` between the two arms.
    fn split(
        &mut self,
        lanes: &[u32],
        pred: &Expr,
        binds: &[(Ident, SymValue)],
        msg: Option<bool>,
        then_lanes: &mut Vec<u32>,
        else_lanes: &mut Vec<u32>,
    ) -> Result<(), RunBail> {
        then_lanes.clear();
        else_lanes.clear();
        for &l in lanes {
            let lu = l as usize;
            self.bind(binds, lu)?;
            let v = eval_expr_in(&mut *self.eval_stack, pred).map_err(|_| RunBail::Block)?;
            let sel = v.as_bool().ok_or(RunBail::Block)?;
            if let Some(provider) = msg {
                self.traces[lu].push(if provider {
                    Message::DirP(sel)
                } else {
                    Message::DirC(sel)
                });
            }
            if sel {
                then_lanes.push(l);
            } else {
                else_lanes.push(l);
            }
        }
        Ok(())
    }

    /// Runs arm `arm` on `lanes`, planning it first if no lane of this
    /// worker has reached it before (new slots grow the columns in place).
    fn run_arm(&mut self, arm: usize, lanes: &[u32], depth: usize) -> Result<(), RunBail> {
        if lanes.is_empty() {
            return Ok(());
        }
        let ops = match &self.plan.arms[arm] {
            Arm::Planned(ops) => Arc::clone(ops),
            Arm::Pending(_) => {
                let ops = (self.plan)
                    .plan_arm(self.exec, self.spec, arm)
                    .map_err(RunBail::Plan)?;
                let nslots = self.plan.carriers.len();
                fit_columns(self.slots, nslots, self.count);
                fit_columns(self.tags, nslots, self.count);
                ops
            }
        };
        // One flush per op-list per block (amortised over every lane), so
        // the per-op loop below stays atomic-free.
        crate::stats::record_cancel_checks(ops.len() as u64);
        // Batched kernels apply whenever the active set is the full dense
        // block (possible inside a fork arm when every lane agreed).
        let full = lanes.len() == self.count;
        for op in ops.iter() {
            #[cfg(feature = "faults")]
            crate::faults::maybe_stall_op();
            // A raised token bails the whole block to the scalar path,
            // where the per-lane entry check reports the real error for
            // lane 0 — without threading a second error type through the
            // op interpreter.  Costs two `Option` tests per op when no
            // token is armed.
            if self.exec.cancel.check().is_err() {
                return Err(RunBail::Block);
            }
            match op {
                Op::Draw {
                    dist,
                    slot,
                    provider,
                } => match dist {
                    LaneDist::Const(d) if full => {
                        d.sample_batch(&mut *self.rngs, &mut *self.sample_buf);
                        for &l in lanes {
                            let l = l as usize;
                            let s = self.sample_buf[l];
                            self.record_draw(l, *slot, *provider, s);
                        }
                    }
                    LaneDist::Const(d) => {
                        for &l in lanes {
                            let l = l as usize;
                            let s = d.draw(&mut self.rngs[l]);
                            self.record_draw(l, *slot, *provider, s);
                        }
                    }
                    LaneDist::Ctor { expr, binds } => {
                        for &l in lanes {
                            let l = l as usize;
                            self.bind(binds, l)?;
                            let d = eval_dist_in(&mut *self.eval_stack, expr)
                                .map_err(|_| RunBail::Block)?;
                            let s = d.draw(&mut self.rngs[l]);
                            self.record_draw(l, *slot, *provider, s);
                        }
                    }
                },
                Op::Score { model, dist, value } => match (dist, value) {
                    (LaneDist::Const(d), ScoreVal::Slot(s)) => {
                        let carrier = self.plan.carriers[*s];
                        let lw = weights(*model, self.model_lw, self.guide_lw);
                        if full && matches!(carrier, Carrier::Real | Carrier::Bool) {
                            d.log_density_batch(&self.slots[*s][..self.count], self.score_buf);
                            for &l in lanes.iter() {
                                let l = l as usize;
                                lw[l] += self.score_buf[l];
                            }
                        } else {
                            for &l in lanes.iter() {
                                let l = l as usize;
                                let sample = decode_sample(carrier, self.slots[*s][l])
                                    .ok_or(RunBail::Block)?;
                                lw[l] += d.log_density(&sample);
                            }
                        }
                    }
                    (LaneDist::Const(d), ScoreVal::Sample(v)) => {
                        let w = d.log_density(v);
                        let lw = weights(*model, self.model_lw, self.guide_lw);
                        for &l in lanes {
                            lw[l as usize] += w;
                        }
                    }
                    (LaneDist::Ctor { expr, binds }, value) => {
                        for &l in lanes {
                            let l = l as usize;
                            self.bind(binds, l)?;
                            let d = eval_dist_in(&mut *self.eval_stack, expr)
                                .map_err(|_| RunBail::Block)?;
                            let sample = match value {
                                ScoreVal::Sample(v) => *v,
                                ScoreVal::Slot(s) => {
                                    decode_sample(self.plan.carriers[*s], self.slots[*s][l])
                                        .ok_or(RunBail::Block)?
                                }
                            };
                            weights(*model, self.model_lw, self.guide_lw)[l] +=
                                d.log_density(&sample);
                        }
                    }
                },
                Op::ScoreConst { model, w } => {
                    let lw = weights(*model, self.model_lw, self.guide_lw);
                    for &l in lanes {
                        lw[l as usize] += *w;
                    }
                }
                Op::Eval { expr, binds, slot } => {
                    for &l in lanes {
                        let l = l as usize;
                        self.bind(binds, l)?;
                        let v = eval_expr_in(&mut *self.eval_stack, expr)
                            .map_err(|_| RunBail::Block)?;
                        let (tag, x) = encode_value(&v).ok_or(RunBail::Block)?;
                        self.slots[*slot][l] = x;
                        self.tags[*slot][l] = tag;
                    }
                }
                Op::Fold => {
                    for &l in lanes {
                        self.traces[l as usize].push(Message::Fold);
                    }
                }
                Op::DirConst {
                    provider,
                    selection,
                } => {
                    let m = if *provider {
                        Message::DirP(*selection)
                    } else {
                        Message::DirC(*selection)
                    };
                    for &l in lanes {
                        self.traces[l as usize].push(m);
                    }
                }
                Op::Fork {
                    pred,
                    binds,
                    msg,
                    then_arm,
                    else_arm,
                } => {
                    if self.fork_bufs.len() <= depth {
                        self.fork_bufs.push((Vec::new(), Vec::new()));
                    }
                    let (mut then_lanes, mut else_lanes) =
                        std::mem::take(&mut self.fork_bufs[depth]);
                    let result = self
                        .split(lanes, pred, binds, *msg, &mut then_lanes, &mut else_lanes)
                        .and_then(|()| {
                            let diverged = !then_lanes.is_empty() && !else_lanes.is_empty();
                            if diverged {
                                crate::stats::record_lane_split();
                            }
                            self.run_arm(*then_arm, &then_lanes, depth + 1)?;
                            self.run_arm(*else_arm, &else_lanes, depth + 1)?;
                            if diverged {
                                crate::stats::record_lane_reconverge();
                            }
                            Ok(())
                        });
                    // The partition buffers go back even when an arm bailed.
                    self.fork_bufs[depth] = (then_lanes, else_lanes);
                    result?;
                }
                Op::Fail => return Err(RunBail::Block),
                Op::Finish {
                    model_value,
                    guide_value,
                    obs_used,
                } => {
                    for &l in lanes {
                        let l = l as usize;
                        let mv = self.decode(model_value, l)?;
                        let gv = self.decode(guide_value, l)?;
                        self.finished[l] = Some((mv, gv, *obs_used));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

impl JointScratch {
    /// The block executor's verdict on the program this scratch last ran
    /// blocks of: `None` before any block ran, `Some(Ok(()))` while its
    /// cached plan vectorises, and `Some(Err(reason))` once the plan gave
    /// up (for example `"fork arm budget exhausted"` on tree recursion)
    /// and every block runs through the scalar path.  Results are
    /// bit-identical either way; the verdict only says which path ran.
    pub fn plan_verdict(&self) -> Option<Result<(), &'static str>> {
        let (_, plan) = self.block.cache.as_ref()?;
        Some(plan.as_ref().map(|_| ()).map_err(|bail| bail.0))
    }
}

impl JointExecutor {
    /// Runs a lockstep block of `count` joint executions, pushing one
    /// [`JointResult`] per lane (in lane order) onto `out`.
    ///
    /// Lane `i` consumes exactly the RNG substream
    /// `master.split(first_stream + i)`, the same stream the scalar engine
    /// hands particle number `first_stream + i` — so the results are
    /// **bit-identical** to `count` scalar [`JointExecutor::run`] calls at
    /// every block size and thread count.  Programs (or individual blocks)
    /// the vectoriser cannot handle transparently fall back to the scalar
    /// coroutine path per lane; an error is reported for the lowest failing
    /// lane, exactly as the scalar engine would.
    ///
    /// The first call per `(programs, observations, spec)` combination
    /// compiles a block plan into `scratch`; subsequent calls reuse it and
    /// extend it with the fork arms their lanes reach first, and once every
    /// reached arm is planned the loop performs no heap allocations.
    pub fn run_block_with_scratch(
        &self,
        spec: &JointSpec,
        master: &Pcg32,
        first_stream: u64,
        count: usize,
        scratch: &mut JointScratch,
        out: &mut Vec<JointResult>,
    ) -> Result<(), RuntimeError> {
        if count == 0 {
            return Ok(());
        }
        // One cancellation poll per particle block: the granularity the
        // serving layer's deadline guarantee ("within one block-step") is
        // stated in.  The vectorised op loop polls again per op, and the
        // scalar fallback per lane, so a mid-block expiry also surfaces.
        self.cancel.check()?;
        crate::stats::record_cancel_checks(1);
        // The plan leaves the scratch while it runs (it grows in place).
        let (key, mut plan) = match scratch.block.cache.take() {
            Some((key, plan)) if key.matches(self, spec) => (key, plan),
            _ => (PlanKey::new(self, spec), Ok(BlockPlan::new())),
        };
        let outcome = match &mut plan {
            Ok(p) => self.run_plan(spec, p, master, first_stream, count, scratch, out),
            Err(_) => Err(RunBail::Block),
        };
        if let Err(RunBail::Plan(bail)) = outcome {
            plan = Err(bail);
        }
        scratch.block.cache = Some((key, plan));
        if outcome.is_ok() {
            return Ok(());
        }
        self.scalar_block(spec, master, first_stream, count, scratch, out)
    }

    /// The per-lane scalar fallback: identical streams, identical results.
    fn scalar_block(
        &self,
        spec: &JointSpec,
        master: &Pcg32,
        first_stream: u64,
        count: usize,
        scratch: &mut JointScratch,
        out: &mut Vec<JointResult>,
    ) -> Result<(), RuntimeError> {
        // Each scalar run polls the token at entry; flush once per block.
        crate::stats::record_cancel_checks(count as u64);
        for i in 0..count {
            let mut rng = master.split(first_stream + i as u64);
            let result = self.run_with_scratch(spec, LatentSource::FromGuide, &mut rng, scratch)?;
            out.push(result);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)] // the block entry point's arguments plus its plan
    fn run_plan(
        &self,
        spec: &JointSpec,
        plan: &mut BlockPlan,
        master: &Pcg32,
        first_stream: u64,
        count: usize,
        scratch: &mut JointScratch,
        out: &mut Vec<JointResult>,
    ) -> Result<(), RunBail> {
        let bs = &mut scratch.block;
        // Per-lane trace buffers, refilled from the recycle pool.
        if bs.traces.len() < count {
            bs.traces.resize_with(count, Trace::new);
        }
        for t in &mut bs.traces[..count] {
            if t.capacity() == 0 {
                if let Some(pooled) = scratch.trace_pool.pop() {
                    *t = pooled;
                }
            }
            t.clear();
        }
        // Per-lane RNG substreams: the scalar discipline, exactly.
        bs.rngs.clear();
        for i in 0..count {
            bs.rngs.push(master.split(first_stream + i as u64));
        }
        // Structure-of-arrays columns.
        fit_columns(&mut bs.slots, plan.carriers.len(), count);
        fit_columns(&mut bs.tags, plan.carriers.len(), count);
        if bs.model_lw.len() < count {
            bs.model_lw.resize(count, 0.0);
            bs.guide_lw.resize(count, 0.0);
            bs.score_buf.resize(count, 0.0);
            bs.sample_buf.resize(count, Sample::Real(0.0));
            bs.finished.resize(count, None);
        }
        bs.model_lw[..count].fill(0.0);
        bs.guide_lw[..count].fill(0.0);
        bs.finished[..count].fill(None);
        bs.lanes.clear();
        bs.lanes.extend(0..count as u32);

        {
            let mut runner = Runner {
                count,
                exec: self,
                spec,
                plan,
                rngs: &mut bs.rngs[..count],
                slots: &mut bs.slots,
                tags: &mut bs.tags,
                model_lw: &mut bs.model_lw[..count],
                guide_lw: &mut bs.guide_lw[..count],
                traces: &mut bs.traces[..count],
                fork_bufs: &mut bs.fork_bufs,
                score_buf: &mut bs.score_buf[..count],
                sample_buf: &mut bs.sample_buf[..count],
                eval_stack: &mut bs.eval_stack,
                finished: &mut bs.finished[..count],
            };
            runner.run_arm(0, &bs.lanes, 0)?;
        }

        // Every lane must have reached a `Finish`; verify before touching
        // `out` so a fallback rerun cannot observe partial pushes.
        if bs.finished[..count].iter().any(Option::is_none) {
            return Err(RunBail::Block);
        }
        for l in 0..count {
            let (model_value, guide_value, obs_used) =
                bs.finished[l].take().expect("verified above");
            out.push(JointResult {
                latent: std::mem::take(&mut bs.traces[l]),
                log_guide: bs.guide_lw[l],
                log_model: bs.model_lw[l],
                model_value,
                guide_value,
                observations_used: obs_used as usize,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_program;

    const BLOCK_SIZES: [usize; 4] = [1, 7, 64, 256];

    fn executor(model: &str, guide: &str, obs: Vec<Sample>) -> JointExecutor {
        JointExecutor::new(
            &parse_program(model).expect("model parses"),
            &parse_program(guide).expect("guide parses"),
            obs,
        )
    }

    /// Runs `n` particles through the scalar path and through the block
    /// path at several block sizes, asserting bit-identical results
    /// (including traces and error equivalence).  Returns the plan verdict
    /// each block size ended with.
    fn assert_block_matches_scalar(
        exec: &JointExecutor,
        spec: &JointSpec,
        n: usize,
        seed: u64,
    ) -> Vec<Option<Result<(), &'static str>>> {
        let master = Pcg32::seed_from_u64(seed);
        let scalar: Vec<Result<JointResult, RuntimeError>> = (0..n)
            .map(|i| {
                let mut rng = master.split(i as u64);
                exec.run(spec, LatentSource::FromGuide, &mut rng)
            })
            .collect();
        let mut verdicts = Vec::new();
        for &block in &BLOCK_SIZES {
            let mut scratch = JointScratch::new();
            let mut out = Vec::new();
            let mut failed = None;
            let mut start = 0usize;
            while start < n {
                let len = block.min(n - start);
                match exec.run_block_with_scratch(
                    spec,
                    &master,
                    start as u64,
                    len,
                    &mut scratch,
                    &mut out,
                ) {
                    Ok(()) => {}
                    Err(e) => {
                        failed = Some((start, e));
                        break;
                    }
                }
                start += len;
            }
            match failed {
                None => {
                    assert_eq!(out.len(), n, "block size {block}");
                    for (i, (b, s)) in out.iter().zip(&scalar).enumerate() {
                        let s = s.as_ref().unwrap_or_else(|e| {
                            panic!("scalar particle {i} failed ({e}) but block {block} succeeded")
                        });
                        assert_eq!(
                            b.log_guide.to_bits(),
                            s.log_guide.to_bits(),
                            "log_guide lane {i} block {block}"
                        );
                        assert_eq!(
                            b.log_model.to_bits(),
                            s.log_model.to_bits(),
                            "log_model lane {i} block {block}"
                        );
                        assert_eq!(b.model_value, s.model_value, "model_value lane {i}");
                        assert_eq!(b.guide_value, s.guide_value, "guide_value lane {i}");
                        assert_eq!(
                            b.observations_used, s.observations_used,
                            "observations_used lane {i}"
                        );
                        assert_eq!(
                            b.latent.messages(),
                            s.latent.messages(),
                            "trace lane {i} block {block}"
                        );
                    }
                }
                Some((block_start, err)) => {
                    // The block driver reports the lowest failing lane of
                    // the failing block; the preceding lanes must match.
                    let first_err = scalar[block_start..]
                        .iter()
                        .find_map(|r| r.as_ref().err())
                        .expect("block failed but every scalar particle succeeded");
                    assert_eq!(&err, first_err, "error equivalence at block {block}");
                }
            }
            verdicts.push(scratch.plan_verdict());
            // Recycle the traces: the pool discipline must keep the next
            // batch identical.
            for r in out {
                scratch.recycle(r.latent);
            }
        }
        verdicts
    }

    const FIG5_MODEL: &str = r#"
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
    "#;
    const FIG5_GUIDE: &str = r#"
        proc Guide() provide latent {
          let v <- sample send latent (Gamma(1.0, 1.0));
          if recv latent {
            return ()
          } else {
            let m <- sample send latent (Unif);
            return ()
          }
        }
    "#;

    #[test]
    fn fig5_divergent_branch_is_bit_identical() {
        let exec = executor(FIG5_MODEL, FIG5_GUIDE, vec![Sample::Real(0.8)]);
        let spec = JointSpec::new("Model", "Guide");
        assert_block_matches_scalar(&exec, &spec, 300, 0xB10C);
    }

    #[test]
    fn straight_line_normal_model_is_bit_identical() {
        let model = r#"
            proc Model() : real consume latent provide obs {
              let x <- sample recv latent (Normal(0.0, 1.0));
              let _ <- sample send obs (Normal(x, 0.5));
              let _ <- sample send obs (Normal(x, 2.0));
              return x
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let x <- sample send latent (Normal(0.5, 1.5));
              return ()
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(1.0), Sample::Real(-0.5)]);
        let spec = JointSpec::new("Model", "Guide");
        assert_block_matches_scalar(&exec, &spec, 300, 0xFEED);
    }

    #[test]
    fn model_provided_latents_are_bit_identical() {
        // The model sends on the latent channel (ValC messages).
        let model = r#"
            proc Model() : real consume latent provide obs {
              let x <- sample send latent (Normal(0.0, 1.0));
              let _ <- sample send obs (Normal(x, 1.0));
              return x
            }
        "#;
        let guide = r#"
            proc Guide() consume latent {
              let x <- sample recv latent (Normal(0.0, 2.0));
              return ()
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(0.3)]);
        let spec = JointSpec::new("Model", "Guide");
        assert_block_matches_scalar(&exec, &spec, 200, 0xC0FFEE);
    }

    /// A geometric counter (linear recursion: one draw and one
    /// lane-dependent fork per level) stopping with probability `GEO_P`.
    const GEO_MODEL: &str = r#"
        proc GeoModel() : real consume latent provide obs {
          let n <- call GeoStep(GEO_P);
          let _ <- sample send obs (Normal(n, 1.0));
          return n
        }
        proc GeoStep(p : ureal) : real consume latent {
          let u <- sample recv latent (Unif);
          if send latent (u < p) {
            return 0.0
          } else {
            let rest <- call GeoStep(p);
            return rest + 1.0
          }
        }
    "#;
    const GEO_GUIDE: &str = r#"
        proc GeoGuide() provide latent {
          let _ <- call GeoStepGuide();
          return ()
        }
        proc GeoStepGuide() provide latent {
          let u <- sample send latent (Unif);
          if recv latent {
            return ()
          } else {
            let _ <- call GeoStepGuide();
            return ()
          }
        }
    "#;

    fn geometric(p: &str) -> (JointExecutor, JointSpec) {
        let model = GEO_MODEL.replace("GEO_P", p);
        let exec = executor(&model, GEO_GUIDE, vec![Sample::Real(0.0)]);
        (exec, JointSpec::new("GeoModel", "GeoGuide"))
    }

    /// The Fig. 6 PCFG (the registry's ex-2): tree recursion, so almost
    /// every lane takes a fork path of its own.
    fn pcfg() -> (JointExecutor, JointSpec) {
        let model = r#"
            proc Pcfg() : real consume latent {
              let k <- sample recv latent (Beta(3.0, 1.0));
              let t <- call PcfgGen(k);
              return t
            }
            proc PcfgGen(k : ureal) : real consume latent {
              let u <- sample recv latent (Unif);
              if send latent (u < 0.5 + 0.5 * k) {
                let v <- sample recv latent (Normal(0.0, 1.0));
                return v
              } else {
                let lhs <- call PcfgGen(k);
                let rhs <- call PcfgGen(k);
                return lhs + rhs
              }
            }
        "#;
        let guide = r#"
            proc PcfgGuide() provide latent {
              let k <- sample send latent (Beta(2.0, 2.0));
              let _ <- call PcfgGenGuide();
              return ()
            }
            proc PcfgGenGuide() provide latent {
              let u <- sample send latent (Unif);
              if recv latent {
                let v <- sample send latent (Normal(0.0, 2.0));
                return ()
              } else {
                let _ <- call PcfgGenGuide();
                let _ <- call PcfgGenGuide();
                return ()
              }
            }
        "#;
        (
            executor(model, guide, Vec::new()),
            JointSpec::new("Pcfg", "PcfgGuide"),
        )
    }

    const EXHAUSTED: Option<Result<(), &str>> = Some(Err("fork arm budget exhausted"));

    /// Runs `blocks` consecutive blocks of `lanes` through one scratch and
    /// returns the plan verdict after each.
    fn verdicts_per_block(
        exec: &JointExecutor,
        spec: &JointSpec,
        seed: u64,
        lanes: usize,
        blocks: usize,
    ) -> (Vec<Option<Result<(), &'static str>>>, JointScratch) {
        let master = Pcg32::seed_from_u64(seed);
        let mut scratch = JointScratch::new();
        let mut out = Vec::new();
        let verdicts = (0..blocks)
            .map(|b| {
                exec.run_block_with_scratch(
                    spec,
                    &master,
                    (b * lanes) as u64,
                    lanes,
                    &mut scratch,
                    &mut out,
                )
                .expect("runs");
                scratch.plan_verdict()
            })
            .collect();
        (verdicts, scratch)
    }

    #[test]
    fn linear_recursion_vectorises_and_matches() {
        // Data-dependent recursion depth: each level ends in a fork whose
        // arms are planned the first time lanes reach them, so the counter
        // vectorises end to end — still bit-identical.
        let (exec, spec) = geometric("0.5");
        let verdicts = assert_block_matches_scalar(&exec, &spec, 200, 0x5EED);
        assert_eq!(verdicts, [Some(Ok(())); BLOCK_SIZES.len()]);
        let (verdicts, scratch) = verdicts_per_block(&exec, &spec, 0x5EED, 64, 4);
        assert_eq!(verdicts, [Some(Ok(())); 4]);
        let Some((_, Ok(plan))) = &scratch.block.cache else {
            panic!("the plan must be cached");
        };
        assert!(
            plan.planned > 8,
            "lanes must reach several recursion levels, planned {}",
            plan.planned
        );
    }

    #[test]
    fn unbounded_recursion_bails_to_scalar_and_matches() {
        // Tree recursion: almost every lane takes a path of its own, the
        // arm budget runs out, the plan caches the scalar verdict, and
        // every later block takes the scalar path — still bit-identical.
        let (exec, spec) = pcfg();
        let verdicts = assert_block_matches_scalar(&exec, &spec, 400, 0x5EED);
        assert_eq!(verdicts, [EXHAUSTED; BLOCK_SIZES.len()]);
    }

    #[test]
    fn deep_linear_recursion_exhausts_the_budget_in_its_first_block() {
        // Expected depth 1,000: the lanes outrun the arm budget in the
        // first block.  Planning stops there, so neither the planner nor
        // the runner recurses deeper than the budget, and the scalar rerun
        // (whose frames live on the heap) matches.
        let (exec, spec) = geometric("0.001");
        let (verdicts, _) = verdicts_per_block(&exec, &spec, 0xDEE9, 64, 1);
        assert_eq!(verdicts, [EXHAUSTED]);
        let verdicts = assert_block_matches_scalar(&exec, &spec, 64, 0xDEE9);
        assert_eq!(verdicts, [EXHAUSTED; BLOCK_SIZES.len()]);
    }

    #[test]
    fn budget_running_out_mid_run_keeps_every_lane() {
        // At seeds 1 and 3 the PCFG runs out of arms in its fourth 64-lane
        // block: three blocks ran vectorised, the fourth reruns scalar, and
        // every lane of every block still matches scalar.
        let (exec, spec) = pcfg();
        for seed in [1, 3] {
            let (verdicts, _) = verdicts_per_block(&exec, &spec, seed, 64, 5);
            let ok = Some(Ok(()));
            assert_eq!(verdicts, [ok, ok, ok, EXHAUSTED, EXHAUSTED], "seed {seed}");
            assert_block_matches_scalar(&exec, &spec, 5 * 64, seed);
        }
    }

    #[test]
    fn observation_count_mismatch_matches_scalar_error() {
        // Model asks for two observations, only one is supplied: the plan
        // path ends in Op::Fail and the scalar rerun reports the exact
        // scalar error.
        let model = r#"
            proc Model() : real consume latent provide obs {
              let x <- sample recv latent (Normal(0.0, 1.0));
              let _ <- sample send obs (Normal(x, 1.0));
              let _ <- sample send obs (Normal(x, 1.0));
              return x
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let x <- sample send latent (Normal(0.0, 1.0));
              return ()
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("Model", "Guide");
        assert_block_matches_scalar(&exec, &spec, 64, 0xE5507);
    }

    #[test]
    fn carrier_mismatch_scores_neg_infinity_like_scalar() {
        // The guide proposes from a Poisson (Nat carrier) where the model
        // expects a Gamma (Real carrier): every particle gets -inf model
        // weight, identically on both paths.
        let model = r#"
            proc Model() : real consume latent provide obs {
              let x <- sample recv latent (Gamma(2.0, 1.0));
              let _ <- sample send obs (Normal(0.0, 1.0));
              return 0.0
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let x <- sample send latent (Pois(3.0));
              return ()
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(0.1)]);
        let spec = JointSpec::new("Model", "Guide");
        assert_block_matches_scalar(&exec, &spec, 100, 0xABCD);
        let master = Pcg32::seed_from_u64(0xABCD);
        let mut scratch = JointScratch::new();
        let mut out = Vec::new();
        exec.run_block_with_scratch(&spec, &master, 0, 8, &mut scratch, &mut out)
            .expect("runs");
        assert!(out
            .iter()
            .all(|r| r.log_model == f64::NEG_INFINITY && r.log_guide.is_finite()));
    }

    #[test]
    fn gmm_shaped_model_compiles_to_a_plan() {
        // If-expressions inside distribution parameters are per-lane
        // evaluations, not forks: the plan must compile.
        let model = r#"
            proc Model() : unit consume latent provide obs {
              let mu <- sample recv latent (Normal(0.0, 3.0));
              let z <- sample recv latent (Ber(0.5));
              let _ <- sample send obs (Normal(if z then mu else 0.0 - mu, 1.0));
              return ()
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let mu <- sample send latent (Normal(0.0, 2.0));
              let z <- sample send latent (Ber(0.5));
              return ()
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(1.4)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut plan = BlockPlan::new();
        let ops = plan
            .plan_arm(&exec, &spec, 0)
            .expect("gmm shape vectorises");
        assert_eq!(plan.arms.len(), 1, "gmm shape must plan to a single arm");
        assert!(
            !ops.iter()
                .any(|op| matches!(op, Op::Fork { .. } | Op::Fail)),
            "gmm shape must be straight-line"
        );
        assert_block_matches_scalar(&exec, &spec, 300, 0x96);
    }

    #[test]
    fn plan_cache_is_reused_and_invalidated() {
        let model = r#"
            proc Model() : real consume latent provide obs {
              let x <- sample recv latent (Normal(0.0; 1.0));
              let _ <- sample send obs (Normal(x; 1.0));
              return x
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let x <- sample send latent (Normal(0.0; 1.0));
              return ()
            }
        "#;
        let exec_a = executor(model, guide, vec![Sample::Real(1.0)]);
        let exec_b = executor(model, guide, vec![Sample::Real(2.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let master = Pcg32::seed_from_u64(7);
        let mut scratch = JointScratch::new();
        let mut out = Vec::new();
        exec_a
            .run_block_with_scratch(&spec, &master, 0, 4, &mut scratch, &mut out)
            .expect("runs");
        assert!(scratch
            .block
            .cache
            .as_ref()
            .unwrap()
            .0
            .matches(&exec_a, &spec));
        // A different executor (different observations) misses and recompiles.
        exec_b
            .run_block_with_scratch(&spec, &master, 0, 4, &mut scratch, &mut out)
            .expect("runs");
        assert!(scratch
            .block
            .cache
            .as_ref()
            .unwrap()
            .0
            .matches(&exec_b, &spec));
        assert!(!scratch
            .block
            .cache
            .as_ref()
            .unwrap()
            .0
            .matches(&exec_a, &spec));
    }
}
