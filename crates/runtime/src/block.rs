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
//!    JIT extends its traces.
//!
//!    Where model and guide fold into a procedure pair together, the arm
//!    ends in an [`Op::Call`] instead of inlining the callees: the pair's
//!    body is planned once, as arms ending in [`Op::Return`], shared by
//!    every call site and recursion level.  It is specialised on each
//!    argument's constant value (or a lane-varying mark), plus at most one
//!    widened specialisation per pair in which every argument varies by
//!    lane.  The caller's rest is a pending continuation arm.  The runner
//!    saves the caller's live slots on a stack, moves the arguments into
//!    the callee's parameter slots, runs the callee, restores the slots
//!    and runs the continuation, so lanes reconverge at every return and
//!    a recursive model (geometric, ptrace, marsaglia, the Fig. 6 PCFG,
//!    gp-dsl) plans a fixed handful of arms however deep or bushy its
//!    recursion.  Calls that fold on one side only, and calls whose model
//!    callee reaches the observation channel (whose position must stay a
//!    plan-time constant), are inlined.
//! 2. **Structure-of-arrays lanes.**  Each sample site gets one slot — a
//!    `Vec<f64>` column holding that site's value for every lane.  Constant
//!    distributions draw and score the whole column through the batched
//!    kernels in `ppl_dist` ([`Distribution::sample_batch`],
//!    [`Distribution::log_density_batch`]), which are straight-line loops
//!    over `&[f64]` that LLVM autovectorises.
//! 3. **Divergence.**  At a fork the active lane set splits and each arm
//!    runs with its own sub-set (falling back to per-lane evaluation since
//!    the column is no longer dense); the lanes re-converge at the
//!    enclosing call's return.  Per-lane expressions (fork predicates,
//!    bound values, distribution parameters) run as typed [`LaneProg`]s:
//!    the first-order base-typed fragment compiled to postfix, every
//!    operand's type fixed at plan time.
//! 4. **Fallback.**  A [`BlockPlan`] holds at most [`ARM_BUDGET`] planned
//!    arms; lane-dependent branches that never reach a call or return
//!    (arms do not reconverge after a fork) double the paths per branch
//!    and can exhaust it.  That, or any other shape the planner cannot
//!    vectorise (per-lane expressions outside the lane-program fragment,
//!    closures crossing sites or calls, opaque per-lane distributions,
//!    callees whose model and guide sides finish apart, the fuel and slot
//!    guards), caches a scalar verdict
//!    ([`JointScratch::plan_verdict`]): this block and every later one run
//!    each lane through the scalar coroutine path with the *same* per-lane
//!    RNG substream — results are bit-identical either way, which the
//!    determinism goldens enforce.  A block whose lanes nest deeper than
//!    [`MAX_NESTING`] (forks plus calls) reruns scalar alone and keeps the
//!    plan.
//!
//! RNG discipline: lane `i` of a block starting at global stream `s`
//! consumes exactly `master.split(s + i)`, the same substream the scalar
//! engine hands particle `s + i`, so block size and thread count can never
//! change a result.

use crate::joint::{
    JointExecutor, JointResult, JointScratch, JointSpec, LatentSource, RunCounts, RuntimeError,
};
use crate::program::{CalleeRef, CmdId, CmdNode, CompiledProgram, DistNode, ProcId};
use ppl_dist::rng::Pcg32;
use ppl_dist::{DistKind, Distribution, Sample};
use ppl_semantics::eval::{eval_dist_in, eval_expr_in};
use ppl_semantics::trace::{Message, Trace};
use ppl_semantics::value::{Bindings, Value, ValueStack};
use ppl_syntax::ast::{BaseType, BinOp, ChannelName, Dir, DistExpr, Expr, Ident, UnOp};
use std::sync::Arc;

/// Symbolic execution step budget per plan: bounds the total number of
/// command steps across every arm the plan ever compiles.
const FUEL: u32 = 50_000;
/// Maximum number of planned arms (the entry prefix included) per plan.
const ARM_BUDGET: usize = 64;
/// Maximum number of lane slots (sample sites + per-lane evals) per plan.
const MAX_SLOTS: usize = 512;
/// Maximum runner nesting: diverged forks plus calls in flight.  The runner
/// recurses once per level, so this bounds its stack use; sized for 2 MiB
/// worker stacks.  A block whose lanes nest deeper reruns scalar (whose
/// frames live on the heap) and keeps its plan.
const MAX_NESTING: usize = 192;

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

/// The type of a lane value, which is also the tag a dynamic slot records
/// per lane.  Slot columns encode every type in an `f64`: a real as
/// itself, a Boolean as `1.0` / `0.0`, a natural through `f64::from_bits`,
/// unit as `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Ty {
    #[default]
    Unit,
    Bool,
    Real,
    Nat,
}

impl Ty {
    /// The lane type of a declared base type (`None`: no slot holds it).
    fn of_base(t: &BaseType) -> Option<Ty> {
        match t {
            BaseType::Unit => Some(Ty::Unit),
            BaseType::Bool => Some(Ty::Bool),
            t if t.is_real_like() => Some(Ty::Real),
            t if t.is_nat_like() => Some(Ty::Nat),
            _ => None,
        }
    }
}

/// What a slot's column holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carrier {
    /// Every lane holds a value of this type.
    Typed(Ty),
    /// Lanes may hold different types; the slot's tag column records each
    /// lane's.  Slots a call fills carry the procedure's declared type,
    /// which lane programs expect there (`None`: a function or
    /// distribution type, which no lane program reads).
    Dyn(Option<Ty>),
}

fn class_of_kind(kind: DistKind) -> Carrier {
    Carrier::Typed(match kind {
        DistKind::Real | DistKind::PosReal | DistKind::UnitInterval => Ty::Real,
        DistKind::Bool => Ty::Bool,
        DistKind::Nat | DistKind::FinNat(_) => Ty::Nat,
    })
}

/// A distribution constructor, as a sample site names it.
#[derive(Debug, Clone, Copy)]
enum Ctor {
    Bernoulli,
    Uniform,
    Beta,
    Gamma,
    Normal,
    Categorical,
    Geometric,
    Poisson,
}

impl Ctor {
    fn of(d: &DistExpr) -> Ctor {
        match d {
            DistExpr::Bernoulli(_) => Ctor::Bernoulli,
            DistExpr::Uniform => Ctor::Uniform,
            DistExpr::Beta(..) => Ctor::Beta,
            DistExpr::Gamma(..) => Ctor::Gamma,
            DistExpr::Normal(..) => Ctor::Normal,
            DistExpr::Categorical(_) => Ctor::Categorical,
            DistExpr::Geometric(_) => Ctor::Geometric,
            DistExpr::Poisson(_) => Ctor::Poisson,
        }
    }

    /// The carrier of its draws.
    fn carrier(self) -> Carrier {
        Carrier::Typed(match self {
            Ctor::Bernoulli => Ty::Bool,
            Ctor::Uniform | Ctor::Beta | Ctor::Gamma | Ctor::Normal => Ty::Real,
            Ctor::Categorical | Ctor::Geometric | Ctor::Poisson => Ty::Nat,
        })
    }

    /// The distribution of evaluated parameters `a`, as `eval_dist_in`
    /// builds it.
    // Forced inline into the per-lane loops, like `dist_lane`.
    #[inline(always)]
    fn build(self, a: &[f64]) -> Result<Distribution, ppl_dist::DistError> {
        match self {
            Ctor::Bernoulli => Distribution::bernoulli(a[0]),
            Ctor::Uniform => Ok(Distribution::uniform()),
            Ctor::Beta => Distribution::beta(a[0], a[1]),
            Ctor::Gamma => Distribution::gamma(a[0], a[1]),
            Ctor::Normal => Distribution::normal(a[0], a[1]),
            Ctor::Categorical => Distribution::categorical(a.to_vec()),
            Ctor::Geometric => Distribution::geometric(a[0]),
            Ctor::Poisson => Distribution::poisson(a[0]),
        }
    }
}

fn encode_sample(s: Sample) -> f64 {
    match s {
        Sample::Real(x) => x,
        Sample::Bool(b) => f64::from(b),
        Sample::Nat(n) => f64::from_bits(n),
    }
}

fn decode_sample(carrier: Carrier, x: f64) -> Option<Sample> {
    match carrier {
        Carrier::Typed(Ty::Real) => Some(Sample::Real(x)),
        Carrier::Typed(Ty::Bool) => Some(Sample::Bool(x == 1.0)),
        Carrier::Typed(Ty::Nat) => Some(Sample::Nat(x.to_bits())),
        Carrier::Typed(Ty::Unit) | Carrier::Dyn(_) => None,
    }
}

fn encode_value(v: &Value) -> Option<(Ty, f64)> {
    match v {
        Value::Unit => Some((Ty::Unit, 0.0)),
        Value::Bool(b) => Some((Ty::Bool, f64::from(*b))),
        Value::Real(r) => Some((Ty::Real, *r)),
        Value::Nat(n) => Some((Ty::Nat, f64::from_bits(*n))),
        Value::Dist(_) | Value::Closure { .. } => None,
    }
}

fn decode_slot(carrier: Carrier, x: f64, tag: Ty) -> Value {
    let ty = match carrier {
        Carrier::Typed(ty) => ty,
        Carrier::Dyn(_) => tag,
    };
    match ty {
        Ty::Unit => Value::Unit,
        Ty::Bool => Value::Bool(x == 1.0),
        Ty::Real => Value::Real(x),
        Ty::Nat => Value::Nat(x.to_bits()),
    }
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
    /// A constructor whose parameters depend on lane values, each compiled
    /// to a real-valued lane program.
    Params { ctor: Ctor, args: Box<[LaneProg]> },
}

impl LaneDist {
    /// Compiles a constructor's parameters, read through `as_f64` as
    /// `eval_dist_in` reads them.
    fn compile(
        d: &DistExpr,
        binds: &[(Ident, SymValue)],
        carriers: &[Carrier],
    ) -> Result<LaneDist, Bail> {
        let args = (d.args().into_iter())
            .map(|a| {
                let mut c = LaneCompiler::new(binds, carriers);
                let ty = c.expr(a)?;
                c.real(ty, 0)?;
                c.finish(Ty::Real)
            })
            .collect::<Option<_>>()
            .ok_or(OUTSIDE_FRAGMENT)?;
        Ok(LaneDist::Params {
            ctor: Ctor::of(d),
            args,
        })
    }

    fn carrier(&self) -> Carrier {
        match self {
            LaneDist::Const(d) => class_of_kind(d.kind()),
            LaneDist::Params { ctor, .. } => ctor.carrier(),
        }
    }
}

/// Why a per-lane expression no [`LaneProg`] expresses (an
/// expression-level `let`, a lambda application, an operand stack deeper
/// than [`LANE_DEPTH`], operands of the wrong type) runs scalar.
const OUTSIDE_FRAGMENT: Bail = Bail("per-lane expression outside the lane-program fragment");

/// One instruction of a [`LaneProg`].  Operands sit on the stack encoded
/// as in the slot columns, and each instruction knows their types.
#[derive(Debug, Clone, Copy)]
enum LaneOp {
    /// Push an encoded constant.
    Const(f64),
    /// Push a slot whose carrier fixes its type.
    Slot(u32),
    /// Push a dynamic slot whose lane must hold this type; a lane holding
    /// another leaves the program.
    Dyn(u32, Ty),
    /// `as_f64` on the natural this many entries below the top.
    NatToReal(u8),
    /// `-`, `exp`, `ln`, `sqrt` on a real; `!` on a Boolean.
    Un(UnOp),
    /// Arithmetic and comparisons on reals, `==` on Booleans, `&&`, `||`.
    Bin(BinOp),
    /// `+` and `*` on naturals, checked (overflow leaves the program), and
    /// `==` on naturals, comparing the `u64`s.
    Nat(BinOp),
    /// Pop a Boolean and continue at this index when it is false.
    JumpUnless(u32),
    /// Continue at this index.
    Jump(u32),
}

/// Deepest operand stack a [`LaneProg`] may use.
const LANE_DEPTH: usize = 8;

/// A per-lane expression of the first-order base-typed fragment (Fig. 12)
/// over lane slots and constants of every carrier: `if`, `!`, `&&`, `||`,
/// comparisons, arithmetic on reals and naturals, `real(n)`, and the
/// parameters of distribution constructors.  It is compiled to postfix
/// with forward jumps, every operand's type fixed at plan time, so a lane
/// runs it without building an environment or boxing values.
///
/// It computes what `eval_expr_in` computes, bit for bit: the same `f64`
/// or `u64` operation on the same operands, both operands of `&&` and
/// `||`, and only the taken arm of an `if`.  `==` on two naturals compares
/// the `u64`s; comparisons and mixed operands go through `as_f64`.  Where
/// the evaluator would error on a lane (a natural overflows), or a
/// dynamic slot holds another type than its procedure declares,
/// [`LaneProg::eval`] returns `None` and the block reruns scalar, which
/// reports the exact error.  Shapes that always error (`-` on naturals,
/// operands of the wrong type) do not compile; like every other shape
/// outside the fragment, they make the plan give up.
#[derive(Debug, Clone)]
struct LaneProg {
    code: Box<[LaneOp]>,
    /// The type of every lane's result.
    ty: Ty,
}

impl LaneProg {
    /// Compiles `e` over the symbolic values `binds` of its free
    /// variables, or gives up on the plan.
    fn compile(
        e: &Expr,
        binds: &[(Ident, SymValue)],
        carriers: &[Carrier],
    ) -> Result<LaneProg, Bail> {
        let mut c = LaneCompiler::new(binds, carriers);
        (c.expr(e).and_then(|ty| c.finish(ty))).ok_or(OUTSIDE_FRAGMENT)
    }
}

/// Compiles one expression into a [`LaneProg`], tracking the stack depth.
struct LaneCompiler<'a> {
    binds: &'a [(Ident, SymValue)],
    carriers: &'a [Carrier],
    code: Vec<LaneOp>,
    depth: usize,
    max_depth: usize,
}

impl<'a> LaneCompiler<'a> {
    fn new(binds: &'a [(Ident, SymValue)], carriers: &'a [Carrier]) -> Self {
        LaneCompiler {
            binds,
            carriers,
            code: Vec::new(),
            depth: 0,
            max_depth: 0,
        }
    }

    fn finish(self, ty: Ty) -> Option<LaneProg> {
        (self.max_depth <= LANE_DEPTH).then(|| LaneProg {
            code: self.code.into(),
            ty,
        })
    }

    fn emit(&mut self, op: LaneOp) {
        match op {
            LaneOp::Const(_) | LaneOp::Slot(_) | LaneOp::Dyn(..) => self.depth += 1,
            LaneOp::Bin(_) | LaneOp::Nat(_) | LaneOp::JumpUnless(_) => self.depth -= 1,
            LaneOp::NatToReal(_) | LaneOp::Un(_) | LaneOp::Jump(_) => {}
        }
        self.max_depth = self.max_depth.max(self.depth);
        self.code.push(op);
    }

    /// Compiles `e` onto the code and returns its type, or `None` for a
    /// shape no lane program expresses.
    fn expr(&mut self, e: &Expr) -> Option<Ty> {
        let (op, ty) = match e {
            Expr::Triv => (LaneOp::Const(0.0), Ty::Unit),
            Expr::Bool(b) => (LaneOp::Const(f64::from(*b)), Ty::Bool),
            Expr::Real(r) => (LaneOp::Const(*r), Ty::Real),
            Expr::Nat(n) => (LaneOp::Const(f64::from_bits(*n)), Ty::Nat),
            Expr::Var(x) => match &self.binds.iter().find(|(name, _)| name == x)?.1 {
                SymValue::Const(v) => {
                    let (ty, c) = encode_value(v)?;
                    (LaneOp::Const(c), ty)
                }
                SymValue::Slot(s) => match self.carriers[*s] {
                    Carrier::Typed(ty) => (LaneOp::Slot(*s as u32), ty),
                    Carrier::Dyn(ty) => (LaneOp::Dyn(*s as u32, ty?), ty?),
                },
            },
            Expr::If(c, a, b) => return self.cond(c, a, b),
            Expr::UnOp(op, a) => return self.unop(*op, a),
            Expr::BinOp(op, a, b) => return self.binop(*op, a, b),
            Expr::Lam(..) | Expr::App(..) | Expr::Let(..) | Expr::Dist(_) => return None,
        };
        self.emit(op);
        Some(ty)
    }

    /// `as_f64` on the operand `depth` entries below the top, of type `ty`
    /// (`None`: the evaluator rejects it).
    fn real(&mut self, ty: Ty, depth: u8) -> Option<()> {
        match ty {
            Ty::Real => Some(()),
            Ty::Nat => {
                self.emit(LaneOp::NatToReal(depth));
                Some(())
            }
            Ty::Bool | Ty::Unit => None,
        }
    }

    fn cond(&mut self, c: &Expr, a: &Expr, b: &Expr) -> Option<Ty> {
        if self.expr(c)? != Ty::Bool {
            return None;
        }
        let jump_unless = self.code.len();
        self.emit(LaneOp::JumpUnless(0));
        let depth = self.depth;
        let ty = self.expr(a)?;
        let jump = self.code.len();
        self.emit(LaneOp::Jump(0));
        self.code[jump_unless] = LaneOp::JumpUnless(self.code.len() as u32);
        self.depth = depth;
        if self.expr(b)? != ty {
            return None;
        }
        self.code[jump] = LaneOp::Jump(self.code.len() as u32);
        Some(ty)
    }

    fn unop(&mut self, op: UnOp, a: &Expr) -> Option<Ty> {
        let ty = self.expr(a)?;
        match op {
            UnOp::Not if ty == Ty::Bool => self.emit(LaneOp::Un(op)),
            UnOp::Not => return None,
            // `real(x)` is `as_f64`.
            UnOp::ToReal => self.real(ty, 0)?,
            UnOp::Neg | UnOp::Exp | UnOp::Ln | UnOp::Sqrt => {
                self.real(ty, 0)?;
                self.emit(LaneOp::Un(op));
            }
        }
        Some(if op == UnOp::Not { Ty::Bool } else { Ty::Real })
    }

    fn binop(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Option<Ty> {
        let (ta, tb) = (self.expr(a)?, self.expr(b)?);
        match (op, ta, tb) {
            (BinOp::And | BinOp::Or | BinOp::Eq, Ty::Bool, Ty::Bool) => self.emit(LaneOp::Bin(op)),
            (BinOp::And | BinOp::Or, ..) => return None,
            (BinOp::Add | BinOp::Mul | BinOp::Eq, Ty::Nat, Ty::Nat) => {
                self.emit(LaneOp::Nat(op));
            }
            // `-` and `/` on two naturals always error.
            (BinOp::Sub | BinOp::Div, Ty::Nat, Ty::Nat) => return None,
            _ => {
                self.real(ta, 1)?;
                self.real(tb, 0)?;
                self.emit(LaneOp::Bin(op));
            }
        }
        Some(match op {
            BinOp::Add | BinOp::Mul if (ta, tb) == (Ty::Nat, Ty::Nat) => Ty::Nat,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Ty::Real,
            _ => Ty::Bool,
        })
    }
}

impl LaneProg {
    /// Lane `l`'s encoded result, or `None` where the evaluator would
    /// error or a dynamic slot holds another type than expected.
    // Forced inline into the few per-lane loops that run programs: most
    // programs are one or two ops, so the call would cost as much.
    #[inline(always)]
    fn eval(&self, slots: &[Vec<f64>], tags: &[Vec<Ty>], l: usize) -> Option<f64> {
        let mut stack = [0.0f64; LANE_DEPTH];
        let (mut sp, mut pc) = (0, 0);
        while let Some(&op) = self.code.get(pc) {
            pc += 1;
            let x = match op {
                LaneOp::Const(c) => c,
                LaneOp::Slot(s) => slots[s as usize][l],
                LaneOp::Dyn(s, ty) if tags[s as usize][l] == ty => slots[s as usize][l],
                LaneOp::Dyn(..) => return None,
                LaneOp::NatToReal(depth) => {
                    let n = &mut stack[sp - 1 - depth as usize];
                    *n = n.to_bits() as f64;
                    continue;
                }
                LaneOp::Un(op) => {
                    sp -= 1;
                    let a = stack[sp];
                    match op {
                        UnOp::Neg => -a,
                        UnOp::Exp => a.exp(),
                        UnOp::Ln => a.ln(),
                        UnOp::Sqrt => a.sqrt(),
                        UnOp::Not => f64::from(a != 1.0),
                        UnOp::ToReal => unreachable!("compiled to `NatToReal`"),
                    }
                }
                LaneOp::Bin(op) => {
                    sp -= 2;
                    let (a, b) = (stack[sp], stack[sp + 1]);
                    match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        BinOp::Lt => f64::from(a < b),
                        BinOp::Le => f64::from(a <= b),
                        BinOp::Gt => f64::from(a > b),
                        BinOp::Ge => f64::from(a >= b),
                        BinOp::Eq => f64::from(a == b),
                        BinOp::And => f64::from(a == 1.0 && b == 1.0),
                        BinOp::Or => f64::from(a == 1.0 || b == 1.0),
                    }
                }
                LaneOp::Nat(op) => {
                    sp -= 2;
                    let (a, b) = (stack[sp].to_bits(), stack[sp + 1].to_bits());
                    match op {
                        BinOp::Add => f64::from_bits(a.checked_add(b)?),
                        BinOp::Mul => f64::from_bits(a.checked_mul(b)?),
                        _ => f64::from(a == b),
                    }
                }
                LaneOp::JumpUnless(to) => {
                    sp -= 1;
                    if stack[sp] != 1.0 {
                        pc = to as usize;
                    }
                    continue;
                }
                LaneOp::Jump(to) => {
                    pc = to as usize;
                    continue;
                }
            };
            stack[sp] = x;
            sp += 1;
        }
        Some(stack[0])
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

/// A value crossing a call boundary (an argument or a return value), read
/// per lane as a dynamic slot's `(tag, bits)` pair.
#[derive(Debug, Clone, Copy)]
enum LaneVal {
    /// A constant, already encoded.
    Const(Ty, f64),
    /// A slot, with its carrier's fixed type (`None`: the tag column's).
    Slot(usize, Option<Ty>),
}

/// The dynamic slots a [`Op::Call`]'s callee returns its model and guide
/// values into.
#[derive(Debug, Clone, Copy)]
struct Ret {
    model: usize,
    guide: usize,
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
    /// Evaluate an expression per lane into `slot`, whose carrier is the
    /// program's type.
    Eval { prog: LaneProg, slot: usize },
    /// Record a `Fold` marker in each lane's trace.
    Fold,
    /// Record a constant branch direction in each lane's trace.
    DirConst { provider: bool, selection: bool },
    /// Evaluate the Boolean `pred` per lane, record the direction message
    /// (when the branch is on the latent channel), and split the lane set
    /// between the two arms.  Always the last op of its arm.
    Fork {
        pred: LaneProg,
        /// `Some(provider)` when a `DirP`/`DirC` message must be recorded.
        msg: Option<bool>,
        /// Indices of the two arms in [`BlockPlan::arms`].
        then_arm: usize,
        else_arm: usize,
    },
    /// Enter a procedure pair both coroutines folded into: save the
    /// caller's `live` slots, move the arguments into the callee's
    /// parameter slots (a parallel move), run the callee from arm `entry`
    /// until it returns into `ret`, restore the saved slots, and continue
    /// with arm `cont` on the same lanes.  Always the last op of its arm.
    Call {
        entry: usize,
        moves: Vec<(usize, LaneVal)>,
        live: Vec<usize>,
        cont: usize,
        ret: Ret,
    },
    /// This path deterministically errors; rerun the block through the
    /// scalar interpreter to reproduce the exact error.
    Fail,
    /// Terminal of a callee path: hand each lane's values to the caller.
    Return {
        model_value: LaneVal,
        guide_value: LaneVal,
    },
    /// Terminal of a path: stage each lane's result.
    Finish {
        model_value: SymValue,
        guide_value: SymValue,
        obs_used: u32,
    },
}

/// One arm of a plan: the straight-line ops from a fork, a call boundary
/// or the spawn to the next fork, call, return, finish or fail.
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
    /// Both coroutines ready to run: a callee pair at its entry, or a
    /// caller's continuation once its call has returned.
    Run(Box<SymStart>),
    /// One side of a fork: the symbolic joint state at the fork, and the
    /// selection to resume it with.
    Fork {
        st: Box<SymJoint>,
        sel: bool,
        kind: ForkKind,
    },
}

/// Per argument of a call (the model's, then the guide's): its encoded
/// constant, or `None` where it varies by lane and arrives in a parameter
/// slot.
type ArgKey = Vec<Option<(Ty, u64)>>;

/// A procedure pair planned as its own arms, specialised on its arguments.
#[derive(Debug)]
struct Callee {
    model: ProcId,
    guide: ProcId,
    key: ArgKey,
    /// The pair's entry arm.
    entry: usize,
    /// The parameter slot of each lane-varying argument.
    params: Vec<Option<usize>>,
}

/// A block plan: an arena of arms plus the carrier class of each slot.
/// Arm 0 is the entry prefix; every [`Op::Fork`] and [`Op::Call`] names its
/// arms by index, so extending the plan is an index write.
#[derive(Debug)]
pub(crate) struct BlockPlan {
    arms: Vec<Arm>,
    carriers: Vec<Carrier>,
    /// The procedure pairs planned so far, shared by every call site.
    callees: Vec<Callee>,
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
    Lane(LaneProg),
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
/// per-lane computation.
enum LazyVal {
    Const(Value),
    Slot(usize),
    Lane(LaneProg),
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
        let prog = LaneProg::compile(e, &binds, &cx.plan.carriers)?;
        return Ok(LazyVal::Lane(prog));
    }
    match eval_expr_in(&mut cx.scratch, e) {
        Ok(Value::Closure { .. }) => Err(Halt::Bail(Bail("closure crosses a site"))),
        Ok(v) => Ok(LazyVal::Const(v)),
        // Deterministic eval error: identical on every lane.
        Err(_) => Err(Halt::Fails),
    }
}

/// Strict symbolic evaluation: per-lane computations get a slot of their
/// program's type and an [`Op::Eval`].
fn sym_eval(
    cx: &mut PlanCx<'_>,
    co: &SymCo,
    e: &Expr,
    ops: &mut Vec<Op>,
) -> Result<SymValue, Halt> {
    match sym_eval_lazy(cx, co, e)? {
        LazyVal::Const(v) => Ok(SymValue::Const(v)),
        LazyVal::Slot(s) => Ok(SymValue::Slot(s)),
        LazyVal::Lane(prog) => {
            let slot = cx.new_slot(Carrier::Typed(prog.ty))?;
            ops.push(Op::Eval { prog, slot });
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
                return Ok(LaneDist::compile(ctor, &binds, &cx.plan.carriers)?);
            }
            match eval_dist_in(&mut cx.scratch, ctor) {
                Ok(d) => Ok(LaneDist::Const(d)),
                Err(_) => Err(Halt::Fails),
            }
        }
        // No lane program holds a distribution: a per-lane one is named
        // here, before `sym_eval_lazy` would give up on compiling it.
        DistNode::Opaque(e) if capture(cx, co, e.free_vars())?.is_some() => {
            Err(Halt::Bail(Bail("per-lane opaque distribution")))
        }
        DistNode::Opaque(e) => match sym_eval_lazy(cx, co, e)? {
            LazyVal::Const(Value::Dist(d)) => Ok(LaneDist::Const(d)),
            _ => Err(Halt::Fails),
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
                                        let binds = [(*x, SymValue::Slot(s))];
                                        let carriers = &cx.plan.carriers;
                                        SymBool::Lane(LaneProg::compile(pred, &binds, carriers)?)
                                    }
                                    Ok(LazyVal::Lane(pred)) => SymBool::Lane(pred),
                                    Err(Halt::Fails) => return Ok(SymStep::Fails),
                                    Err(Halt::Bail(b)) => return Err(b),
                                };
                                // A predicate compiled to another type than
                                // `bool` selects no branch: the path reruns
                                // scalar, which reports the error.
                                if let SymBool::Lane(p) = &selection {
                                    if p.ty != Ty::Bool {
                                        return Ok(SymStep::Fails);
                                    }
                                }
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
    /// Inside a callee pair's arms: a finished path returns to its caller.
    in_call: bool,
}

/// Both coroutines before their first drive (see [`PendingArm::Run`]).
#[derive(Debug)]
struct SymStart {
    model: SymCo,
    guide: SymCo,
    obs_used: usize,
    in_call: bool,
}

impl SymStart {
    /// Drives both coroutines to their first suspension, model first, as
    /// a spawn or a resume does.
    fn drive(mut self, cx: &mut PlanCx<'_>, ops: &mut Vec<Op>) -> Result<SymJoint, Bail> {
        let mstep = sym_drive(cx, &mut self.model, ops)?;
        let gstep = sym_drive(cx, &mut self.guide, ops)?;
        Ok(SymJoint {
            model: self.model,
            guide: self.guide,
            mstep,
            gstep,
            obs_used: self.obs_used,
            in_call: self.in_call,
        })
    }
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
        (LaneDist::Params { .. }, _) => {
            ops.push(Op::Score { model, dist, value });
        }
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
            let start = SymStart {
                model: sym_spawn(&exec.model_program, &spec.model_proc, &spec.model_args)?,
                guide: sym_spawn(&exec.guide_program, &spec.guide_proc, &spec.guide_args)?,
                obs_used: 0,
                in_call: false,
            };
            start.drive(cx, &mut ops)?
        }
        PendingArm::Run(start) => start.drive(cx, &mut ops)?,
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
    pred: LaneProg,
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
        msg,
        then_arm,
        else_arm: then_arm + 1,
    });
    ops
}

/// The procedure a coroutine suspended at a call's only fold marker is
/// about to enter.
fn pending_call(co: &SymCo) -> Option<ProcId> {
    let SymControl::Await(SymPending::CallAck {
        node,
        next_mark,
        callee,
    }) = &co.control
    else {
        return None;
    };
    let CmdNode::Call { marks, .. } = co.prog.node(*node) else {
        return None;
    };
    (*next_mark == marks.len()).then_some(*callee)
}

/// Whether procedure `proc`, or any procedure it calls, operates on `chan`.
fn reaches_chan(prog: &CompiledProgram, proc: ProcId, chan: ChannelName) -> bool {
    let mut seen = vec![false; prog.num_procs()];
    let (mut procs, mut nodes) = (vec![proc], Vec::new());
    while let Some(p) = procs.pop() {
        if std::mem::replace(&mut seen[p], true) {
            continue;
        }
        nodes.push(prog.proc(p).body);
        while let Some(node) = nodes.pop() {
            match prog.node(node) {
                CmdNode::Ret(_) => {}
                CmdNode::Bind { first, rest, .. } => nodes.extend([*first, *rest]),
                CmdNode::Sample { chan: c, .. } if *c == chan => return true,
                CmdNode::Sample { .. } => {}
                CmdNode::Branch { chan: c, .. } if *c == chan => return true,
                CmdNode::Branch {
                    then_cmd, else_cmd, ..
                } => nodes.extend([*then_cmd, *else_cmd]),
                CmdNode::Call { marks, .. } if marks.contains(&chan) => return true,
                CmdNode::Call { callee, .. } => {
                    if let CalleeRef::Resolved(id) = callee {
                        procs.push(*id);
                    }
                }
            }
        }
    }
    false
}

/// Pushes onto `out` every variable that command `node` or its
/// sub-commands mention (a superset of what they read).
fn mentioned_vars(prog: &CompiledProgram, node: CmdId, out: &mut Vec<Ident>) {
    let mut nodes = vec![node];
    while let Some(node) = nodes.pop() {
        match prog.node(node) {
            CmdNode::Ret(e) => out.extend(e.free_vars()),
            CmdNode::Bind { first, rest, .. } => nodes.extend([*first, *rest]),
            CmdNode::Call { args, .. } => out.extend(args.iter().flat_map(Expr::free_vars)),
            CmdNode::Sample { dist, .. } => match dist {
                DistNode::Const(_) => {}
                DistNode::Ctor(d) => out.extend(d.args().into_iter().flat_map(Expr::free_vars)),
                DistNode::Opaque(e) => out.extend(e.free_vars()),
            },
            CmdNode::Branch {
                pred,
                then_cmd,
                else_cmd,
                ..
            } => {
                out.extend(pred.iter().flat_map(Expr::free_vars));
                nodes.extend([*then_cmd, *else_cmd]);
            }
        }
    }
}

/// Pushes onto `live` the slots a coroutine suspended at a call may read
/// once the call returns: in each continuation frame's scope, the slots of
/// the variables its rest mentions.
fn live_slots(co: &SymCo, live: &mut Vec<usize>) {
    let mut vars = Vec::new();
    for &(node, depth, base) in &co.frames {
        let CmdNode::Bind { rest, .. } = co.prog.node(node) else {
            continue;
        };
        vars.clear();
        mentioned_vars(&co.prog, *rest, &mut vars);
        let scope = &co.entries[base..depth];
        for x in &vars {
            if let Some((_, SymValue::Slot(s))) = scope.iter().rev().find(|(name, _)| name == x) {
                live.push(*s);
            }
        }
    }
}

/// The argument key of the procedure pair both coroutines fold into, or
/// `None` when the call stays inlined: a side with a second fold marker,
/// a model callee that reaches the observation channel (whose position
/// must stay a plan-time constant), or an argument no slot can hold.
fn call_key(cx: &PlanCx<'_>, st: &SymJoint) -> Option<(ProcId, ProcId, ArgKey)> {
    let model = pending_call(&st.model)?;
    let guide = pending_call(&st.guide)?;
    if reaches_chan(&st.model.prog, model, cx.spec.obs_chan) {
        return None;
    }
    let args = st.model.pending_args.iter().chain(&st.guide.pending_args);
    let key = args
        .map(|arg| match arg {
            SymValue::Slot(_) => Some(None),
            SymValue::Const(v) => encode_value(v).map(|(tag, x)| Some((tag, x.to_bits()))),
        })
        .collect::<Option<_>>()?;
    Some((model, guide, key))
}

/// The type a slot's carrier fixes for every lane (`None`: dynamic).
fn carrier_tag(carrier: Carrier) -> Option<Ty> {
    match carrier {
        Carrier::Typed(ty) => Some(ty),
        Carrier::Dyn(_) => None,
    }
}

/// `v` as a value that can cross a call boundary (`None`: no slot can
/// hold it).
fn sym_lane_val(cx: &PlanCx<'_>, v: &SymValue) -> Option<LaneVal> {
    match v {
        SymValue::Const(v) => encode_value(v).map(|(tag, x)| LaneVal::Const(tag, x)),
        SymValue::Slot(s) => Some(LaneVal::Slot(*s, carrier_tag(cx.plan.carriers[*s]))),
    }
}

/// A fresh coroutine at the body of `proc`, its parameters bound.
fn sym_enter(co: &SymCo, proc: ProcId, binds: impl Iterator<Item = SymValue>) -> SymCo {
    let proc = co.prog.proc(proc);
    SymCo {
        prog: Arc::clone(&co.prog),
        frames: Vec::new(),
        entries: proc.params.iter().copied().zip(binds).collect(),
        base: 0,
        pending_args: Vec::new(),
        control: SymControl::Run(proc.body),
    }
}

impl PlanCx<'_> {
    /// The planned pair for a call keyed `key`: the exact specialisation,
    /// else — once the pair has one — its widened specialisation in which
    /// every argument varies by lane, planned at most once.
    fn callee(
        &mut self,
        st: &SymJoint,
        (model, guide, mut key): (ProcId, ProcId, ArgKey),
        args: &[SymValue],
    ) -> Result<usize, Bail> {
        let callees = &self.plan.callees;
        let pair = |c: &Callee| c.model == model && c.guide == guide;
        if let Some(i) = callees.iter().position(|c| pair(c) && c.key == key) {
            return Ok(i);
        }
        if callees.iter().any(pair) {
            key.fill(None);
            if let Some(i) = callees.iter().position(|c| pair(c) && c.key == key) {
                return Ok(i);
            }
        }
        // A lane-varying argument's slot expects its declared type.
        let declared = (st.model.prog.proc(model).param_types.iter())
            .chain(&st.guide.prog.proc(guide).param_types);
        let params = (key.iter().zip(declared))
            .map(|(k, t)| {
                let carrier = Carrier::Dyn(Ty::of_base(t));
                k.is_none().then(|| self.new_slot(carrier)).transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut binds = params.iter().zip(args).map(|(p, arg)| match p {
            Some(p) => SymValue::Slot(*p),
            None => arg.clone(),
        });
        let start = SymStart {
            model: sym_enter(&st.model, model, binds.by_ref()),
            guide: sym_enter(&st.guide, guide, binds),
            obs_used: 0,
            in_call: true,
        };
        let entry = self.plan.arms.len();
        self.plan
            .arms
            .push(Arm::Pending(PendingArm::Run(Box::new(start))));
        self.plan.callees.push(Callee {
            model,
            guide,
            key,
            entry,
            params,
        });
        Ok(self.plan.callees.len() - 1)
    }
}

/// Ends `ops` with a call into the procedure pair both coroutines fold
/// into: the pair's arms are shared by every call site, and the caller's
/// rest becomes a pending continuation that resumes with the returned
/// values.
fn call(
    cx: &mut PlanCx<'_>,
    mut ops: Vec<Op>,
    mut st: SymJoint,
    key: (ProcId, ProcId, ArgKey),
) -> Result<Vec<Op>, Bail> {
    let args: Vec<SymValue> = (st.model.pending_args.drain(..))
        .chain(st.guide.pending_args.drain(..))
        .collect();
    let callee = cx.callee(&st, key, &args)?;
    let callee = &cx.plan.callees[callee];
    let (entry, model, guide) = (callee.entry, callee.model, callee.guide);
    let mut moves = Vec::new();
    for (param, arg) in callee.params.iter().zip(&args) {
        match (param, arg) {
            (None, _) => {}
            // A parameter passed on unchanged (the recursion's own `k`).
            (Some(p), SymValue::Slot(s)) if p == s => {}
            (Some(p), arg) => {
                let src = sym_lane_val(cx, arg).expect("call keys hold encodable constants");
                moves.push((*p, src));
            }
        }
    }
    let mut live = Vec::new();
    live_slots(&st.model, &mut live);
    live_slots(&st.guide, &mut live);
    live.sort_unstable();
    live.dedup();
    // The returned values' slots expect the callees' declared types.
    let ret_carrier =
        |co: &SymCo, proc: ProcId| Carrier::Dyn(Ty::of_base(&co.prog.proc(proc).ret_ty));
    let ret = Ret {
        model: cx.new_slot(ret_carrier(&st.model, model))?,
        guide: cx.new_slot(ret_carrier(&st.guide, guide))?,
    };
    st.model.control = SymControl::Return(SymValue::Slot(ret.model));
    st.guide.control = SymControl::Return(SymValue::Slot(ret.guide));
    let cont = cx.plan.arms.len();
    let start = SymStart {
        model: st.model,
        guide: st.guide,
        obs_used: st.obs_used,
        in_call: st.in_call,
    };
    cx.plan
        .arms
        .push(Arm::Pending(PendingArm::Run(Box::new(start))));
    ops.push(Op::Call {
        entry,
        moves,
        live,
        cont,
        ret,
    });
    Ok(ops)
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
            if st.in_call {
                let unencodable = Bail("unencodable value crosses a call");
                ops.push(Op::Return {
                    model_value: sym_lane_val(cx, mv).ok_or(unencodable)?,
                    guide_value: sym_lane_val(cx, gv).ok_or(unencodable)?,
                });
                return Ok(ops);
            }
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
        // Inlined, the side that finished its callee first would run on
        // into its caller's rest while the other is still in its callee.
        let done = |step: &SymStep| matches!(step, SymStep::Done(_));
        if st.in_call && (done(&st.mstep) || done(&st.gstep)) {
            return Err(Bail("call boundary misaligned"));
        }

        // The model acts alone on the observation channel.
        let obs_suspend = match &st.mstep {
            SymStep::Suspended(s) if s.channel() == cx.spec.obs_chan => Some(s.clone()),
            _ => None,
        };
        if let Some(suspend) = obs_suspend {
            if st.in_call {
                return Err(Bail("callee reaches the observation channel"));
            }
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
                    SymBool::Lane(pred) => {
                        return Ok(fork(cx, ops, st, pred, None, ForkKind::ModelOnly));
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
                let slot = cx.new_slot(gd.carrier())?;
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
                let slot = cx.new_slot(md.carrier())?;
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
                SymBool::Lane(pred) => {
                    return Ok(fork(cx, ops, st, pred, Some(false), ForkKind::ModelSends));
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
                SymBool::Lane(pred) => {
                    return Ok(fork(cx, ops, st, pred, Some(true), ForkKind::GuideSends));
                }
            },
            // Both coroutines fold on the latent channel together: call
            // the procedure pair's shared arms, or inline the callees.
            (SymSuspend::CallMarker { chan: mc }, SymSuspend::CallMarker { chan: gc })
                if mc == latent && gc == latent =>
            {
                ops.push(Op::Fold);
                if let Some(key) = call_key(cx, &st) {
                    return call(cx, ops, st, key);
                }
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
            callees: Vec::new(),
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
    tags: Vec<Vec<Ty>>,
    model_lw: Vec<f64>,
    guide_lw: Vec<f64>,
    traces: Vec<Trace>,
    /// The dense lane identity set `0..count`.
    lanes: Vec<u32>,
    /// Per-nesting-depth partition buffers (then-lanes, else-lanes).
    fork_bufs: Vec<(Vec<u32>, Vec<u32>)>,
    /// The caller slots saved across the calls in flight, as
    /// `(value, tag)` per live slot per lane.
    saved: Vec<(f64, Ty)>,
    /// One lane's call arguments during a parallel move.
    arg_buf: Vec<(Ty, f64)>,
    /// One lane's distribution parameters.
    param_buf: Vec<f64>,
    score_buf: Vec<f64>,
    sample_buf: Vec<Sample>,
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
    tags: &'s mut Vec<Vec<Ty>>,
    model_lw: &'s mut [f64],
    guide_lw: &'s mut [f64],
    traces: &'s mut [Trace],
    fork_bufs: &'s mut Vec<(Vec<u32>, Vec<u32>)>,
    saved: &'s mut Vec<(f64, Ty)>,
    arg_buf: &'s mut Vec<(Ty, f64)>,
    param_buf: &'s mut Vec<f64>,
    score_buf: &'s mut [f64],
    sample_buf: &'s mut [Sample],
    finished: &'s mut [Option<(Value, Value, u32)>],
    /// The worker's counts, bumped once per arm or fork, never per lane.
    counts: &'s mut RunCounts,
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
    fn decode(&self, sv: &SymValue, lane: usize) -> Value {
        match sv {
            SymValue::Const(v) => v.clone(),
            SymValue::Slot(s) => decode_slot(
                self.plan.carriers[*s],
                self.slots[*s][lane],
                self.tags[*s][lane],
            ),
        }
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
        pred: &LaneProg,
        msg: Option<bool>,
        then_lanes: &mut Vec<u32>,
        else_lanes: &mut Vec<u32>,
    ) -> Result<(), RunBail> {
        then_lanes.clear();
        else_lanes.clear();
        for &l in lanes {
            let lu = l as usize;
            let sel = self.eval_lane(pred, lu)? == 1.0;
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

    /// Lane `l`'s encoded value of a per-lane expression.
    // Forced inline into the ops' per-lane loops.
    #[inline(always)]
    fn eval_lane(&self, prog: &LaneProg, l: usize) -> Result<f64, RunBail> {
        prog.eval(self.slots, self.tags, l).ok_or(RunBail::Block)
    }

    /// Lane `l`'s distribution at a per-lane constructor site.
    #[inline(always)]
    fn dist_lane(
        &mut self,
        ctor: Ctor,
        args: &[LaneProg],
        l: usize,
    ) -> Result<Distribution, RunBail> {
        // Scalar constructors take at most two parameters: keep them on
        // the stack.
        let built = if args.len() <= 2 {
            let mut xs = [0.0; 2];
            for (a, x) in args.iter().zip(&mut xs) {
                *x = self.eval_lane(a, l)?;
            }
            ctor.build(&xs[..args.len()])
        } else {
            self.param_buf.clear();
            for a in args {
                let x = self.eval_lane(a, l)?;
                self.param_buf.push(x);
            }
            ctor.build(self.param_buf)
        };
        built.map_err(|_| RunBail::Block)
    }

    /// Lane `l`'s `(type, bits)` of a value crossing a call boundary.
    fn lane_val(&self, v: LaneVal, l: usize) -> (Ty, f64) {
        match v {
            LaneVal::Const(tag, x) => (tag, x),
            LaneVal::Slot(s, tag) => (tag.unwrap_or(self.tags[s][l]), self.slots[s][l]),
        }
    }

    /// Arm `arm`'s ops, planning it first if no lane of this worker has
    /// reached it before (new slots grow the columns in place).
    fn arm_ops(&mut self, arm: usize) -> Result<Arc<[Op]>, RunBail> {
        if let Arm::Planned(ops) = &self.plan.arms[arm] {
            return Ok(Arc::clone(ops));
        }
        let ops = (self.plan)
            .plan_arm(self.exec, self.spec, arm)
            .map_err(RunBail::Plan)?;
        let nslots = self.plan.carriers.len();
        fit_columns(self.slots, nslots, self.count);
        fit_columns(self.tags, nslots, self.count);
        Ok(ops)
    }

    /// The per-op cancellation poll.  A raised token bails the whole block
    /// to the scalar path, where the per-lane entry check reports the real
    /// error for lane 0 — without threading a second error type through
    /// the op interpreter.  Costs two `Option` tests per op when no token
    /// is armed.
    fn poll(&self) -> Result<(), RunBail> {
        #[cfg(feature = "faults")]
        self.exec.cancel.stall_op();
        self.exec.cancel.check().map_err(|_| RunBail::Block)
    }

    /// Runs arm `arm` on `lanes`, then on the same lanes the arm each
    /// terminal op continues into: a call's continuation, or the one side
    /// of a fork every lane took.  A diverged fork's arms and a call's
    /// callee nest one level deeper, at most [`MAX_NESTING`] levels; a
    /// callee's paths return into `ret`.
    fn run_arm(
        &mut self,
        mut arm: usize,
        lanes: &[u32],
        depth: usize,
        ret: Option<Ret>,
    ) -> Result<(), RunBail> {
        if lanes.is_empty() {
            return Ok(());
        }
        if depth > MAX_NESTING {
            return Err(RunBail::Block);
        }
        loop {
            let ops = self.arm_ops(arm)?;
            // Counted once per arm, so the per-op loop only polls.
            self.counts.cancel_checks += ops.len() as u64;
            let (last, body) = ops.split_last().expect("every arm ends in a terminal op");
            for op in body {
                self.poll()?;
                self.step(op, lanes)?;
            }
            self.poll()?;
            match last {
                Op::Fork {
                    pred,
                    msg,
                    then_arm,
                    else_arm,
                } => {
                    let arms = (*then_arm, *else_arm);
                    match self.fork(lanes, pred, *msg, arms, depth, ret)? {
                        Some(next) => arm = next,
                        None => return Ok(()),
                    }
                }
                Op::Call {
                    entry,
                    moves,
                    live,
                    cont,
                    ret: into,
                } => {
                    self.call(*entry, moves, live, lanes, depth, *into)?;
                    arm = *cont;
                }
                Op::Return {
                    model_value,
                    guide_value,
                } => {
                    let ret = ret.expect("only callee arms return");
                    for &l in lanes {
                        let l = l as usize;
                        let (mtag, mx) = self.lane_val(*model_value, l);
                        let (gtag, gx) = self.lane_val(*guide_value, l);
                        (self.slots[ret.model][l], self.tags[ret.model][l]) = (mx, mtag);
                        (self.slots[ret.guide][l], self.tags[ret.guide][l]) = (gx, gtag);
                    }
                    return Ok(());
                }
                Op::Fail => return Err(RunBail::Block),
                Op::Finish {
                    model_value,
                    guide_value,
                    obs_used,
                } => {
                    for &l in lanes {
                        let l = l as usize;
                        let mv = self.decode(model_value, l);
                        let gv = self.decode(guide_value, l);
                        self.finished[l] = Some((mv, gv, *obs_used));
                    }
                    return Ok(());
                }
                _ => unreachable!("arms end in a terminal op"),
            }
        }
    }

    /// Splits `lanes` at a fork.  When every lane takes one side, returns
    /// that arm to continue with; otherwise runs both arms one level
    /// deeper and returns `None`.
    fn fork(
        &mut self,
        lanes: &[u32],
        pred: &LaneProg,
        msg: Option<bool>,
        (then_arm, else_arm): (usize, usize),
        depth: usize,
        ret: Option<Ret>,
    ) -> Result<Option<usize>, RunBail> {
        if self.fork_bufs.len() <= depth {
            self.fork_bufs.resize_with(depth + 1, Default::default);
        }
        let (mut then_lanes, mut else_lanes) = std::mem::take(&mut self.fork_bufs[depth]);
        let result = self
            .split(lanes, pred, msg, &mut then_lanes, &mut else_lanes)
            .and_then(|()| {
                if else_lanes.is_empty() {
                    return Ok(Some(then_arm));
                }
                if then_lanes.is_empty() {
                    return Ok(Some(else_arm));
                }
                self.counts.lane_splits += 1;
                self.run_arm(then_arm, &then_lanes, depth + 1, ret)?;
                self.run_arm(else_arm, &else_lanes, depth + 1, ret)?;
                self.counts.lane_reconverges += 1;
                Ok(None)
            });
        // The partition buffers go back even when an arm bailed.
        self.fork_bufs[depth] = (then_lanes, else_lanes);
        result
    }

    /// Runs a call on `lanes`: saves the caller's `live` slots, moves the
    /// arguments into the callee's parameter slots, runs the callee one
    /// level deeper until it returns into `ret`, and restores the saved
    /// slots, so the caller's continuation sees its own values again.
    fn call(
        &mut self,
        entry: usize,
        moves: &[(usize, LaneVal)],
        live: &[usize],
        lanes: &[u32],
        depth: usize,
        ret: Ret,
    ) -> Result<(), RunBail> {
        let base = self.saved.len();
        for &s in live {
            let (col, tags) = (&self.slots[s], &self.tags[s]);
            (self.saved).extend(lanes.iter().map(|&l| (col[l as usize], tags[l as usize])));
        }
        // A parallel move: every argument is read before any parameter is
        // written, since a parameter slot may also be another's source.
        if !moves.is_empty() {
            for &l in lanes {
                let l = l as usize;
                self.arg_buf.clear();
                for &(_, src) in moves {
                    let v = self.lane_val(src, l);
                    self.arg_buf.push(v);
                }
                for (&(param, _), &(tag, x)) in moves.iter().zip(self.arg_buf.iter()) {
                    (self.slots[param][l], self.tags[param][l]) = (x, tag);
                }
            }
        }
        let result = self.run_arm(entry, lanes, depth + 1, Some(ret));
        if result.is_ok() {
            let mut saved = self.saved[base..].iter();
            for &s in live {
                for (&l, &(x, tag)) in lanes.iter().zip(saved.by_ref()) {
                    (self.slots[s][l as usize], self.tags[s][l as usize]) = (x, tag);
                }
            }
        }
        self.saved.truncate(base);
        result
    }

    /// Applies one straight-line op to `lanes`.
    fn step(&mut self, op: &Op, lanes: &[u32]) -> Result<(), RunBail> {
        // Batched kernels apply whenever the active set is the full dense
        // block (possible inside a fork arm when every lane agreed).
        let full = lanes.len() == self.count;
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
                LaneDist::Params { ctor, args } => {
                    for &l in lanes {
                        let l = l as usize;
                        let d = self.dist_lane(*ctor, args, l)?;
                        let s = d.draw(&mut self.rngs[l]);
                        self.record_draw(l, *slot, *provider, s);
                    }
                }
            },
            Op::Score { model, dist, value } => match (dist, value) {
                (LaneDist::Const(d), ScoreVal::Slot(s)) => {
                    let carrier = self.plan.carriers[*s];
                    let lw = weights(*model, self.model_lw, self.guide_lw);
                    if full && matches!(carrier, Carrier::Typed(Ty::Real | Ty::Bool)) {
                        d.log_density_batch(&self.slots[*s][..self.count], self.score_buf);
                        for &l in lanes.iter() {
                            let l = l as usize;
                            lw[l] += self.score_buf[l];
                        }
                    } else {
                        for &l in lanes.iter() {
                            let l = l as usize;
                            let sample =
                                decode_sample(carrier, self.slots[*s][l]).ok_or(RunBail::Block)?;
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
                (LaneDist::Params { ctor, args }, value) => {
                    for &l in lanes {
                        let l = l as usize;
                        let d = self.dist_lane(*ctor, args, l)?;
                        let sample = match value {
                            ScoreVal::Sample(v) => *v,
                            ScoreVal::Slot(s) => {
                                decode_sample(self.plan.carriers[*s], self.slots[*s][l])
                                    .ok_or(RunBail::Block)?
                            }
                        };
                        weights(*model, self.model_lw, self.guide_lw)[l] += d.log_density(&sample);
                    }
                }
            },
            Op::ScoreConst { model, w } => {
                let lw = weights(*model, self.model_lw, self.guide_lw);
                for &l in lanes {
                    lw[l as usize] += *w;
                }
            }
            Op::Eval { prog, slot } => {
                for &l in lanes {
                    let l = l as usize;
                    let x = self.eval_lane(prog, l)?;
                    self.slots[*slot][l] = x;
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
            Op::Fork { .. }
            | Op::Call { .. }
            | Op::Fail
            | Op::Return { .. }
            | Op::Finish { .. } => unreachable!("terminal ops end their arm"),
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
    /// up (for example `"fork arm budget exhausted"` when lane-dependent
    /// branches fan out into more paths than the arm budget)
    /// and every block runs through the scalar path.  Results are
    /// bit-identical either way; the verdict only says which path ran.
    pub fn plan_verdict(&self) -> Option<Result<(), &'static str>> {
        let (_, plan) = self.block.cache.as_ref()?;
        Some(plan.as_ref().map(|_| ()).map_err(|bail| bail.0))
    }

    /// How many arms the cached plan has planned so far, while it
    /// vectorises (`None` otherwise): a plan grows with the program's
    /// paths, never with recursion depth.
    pub fn planned_arms(&self) -> Option<usize> {
        match &self.block.cache {
            Some((_, Ok(plan))) => Some(plan.planned),
            _ => None,
        }
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
    /// reached arm is planned the loop performs no heap allocations.  The
    /// block's work is added to the scratch's [`RunCounts`]
    /// ([`JointScratch::take_counts`]).
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
        scratch.counts.cancel_checks += 1;
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
        // Each scalar run polls the token at entry.
        scratch.counts.cancel_checks += count as u64;
        scratch.counts.scalar_lanes += count as u64;
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
                saved: &mut bs.saved,
                arg_buf: &mut bs.arg_buf,
                param_buf: &mut bs.param_buf,
                score_buf: &mut bs.score_buf[..count],
                sample_buf: &mut bs.sample_buf[..count],
                finished: &mut bs.finished[..count],
                counts: &mut scratch.counts,
            };
            runner.run_arm(0, &bs.lanes, 0, None)?;
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
    /// every lane takes a call path of its own.
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

    /// The cached plan of `scratch`.
    fn cached_plan(scratch: &JointScratch) -> &BlockPlan {
        match &scratch.block.cache {
            Some((_, Ok(plan))) => plan,
            other => panic!("no vectorised plan is cached: {other:?}"),
        }
    }

    const OK: Option<Result<(), &str>> = Some(Ok(()));

    #[test]
    fn linear_recursion_vectorises_and_matches() {
        // Data-dependent recursion depth: the step procedure pair is
        // planned once as a callee whose arms every level shares, so the
        // plan stays the same size however deep the lanes recurse.
        let (exec, spec) = geometric("0.5");
        let verdicts = assert_block_matches_scalar(&exec, &spec, 200, 0x5EED);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
        let (verdicts, mut scratch) = verdicts_per_block(&exec, &spec, 0x5EED, 64, 4);
        assert_eq!(verdicts, [OK; 4]);
        let counts = scratch.take_counts();
        assert_eq!(counts.scalar_lanes, 0);
        assert!(counts.lane_splits > 0);
        assert_eq!(counts.lane_splits, counts.lane_reconverges);
        assert_eq!(scratch.take_counts(), RunCounts::default(), "taking resets");
        let planned = cached_plan(&scratch).planned;
        assert!(planned <= 8, "planned {planned} arms");
        let (_, scratch) = verdicts_per_block(&exec, &spec, 0x5EED, 64, 32);
        assert_eq!(cached_plan(&scratch).planned, planned);
    }

    #[test]
    fn tree_recursion_vectorises_and_matches() {
        // Two calls per node: lanes at the same point of the procedure body
        // share its arms whatever tree they are in, and reconverge at every
        // return.
        let (exec, spec) = pcfg();
        let verdicts = assert_block_matches_scalar(&exec, &spec, 400, 0x5EED);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
        for seed in 1..=3 {
            let (verdicts, scratch) = verdicts_per_block(&exec, &spec, seed, 64, 32);
            assert_eq!(verdicts, [OK; 32], "seed {seed}");
            let plan = cached_plan(&scratch);
            assert!(plan.planned <= 8, "seed {seed}: planned {}", plan.planned);
            assert_eq!(plan.callees.len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn deep_recursion_past_the_nesting_guard_reruns_scalar() {
        // Expected depth 1,000: most blocks hold a lane deeper than the
        // nesting guard.  On a 2 MiB thread the runner must not overflow;
        // those blocks rerun scalar (whose frames live on the heap), match,
        // and keep the plan.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let (exec, spec) = geometric("0.001");
                let verdicts = assert_block_matches_scalar(&exec, &spec, 64, 0xDEE9);
                assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
                let master = Pcg32::seed_from_u64(0xDEE9);
                let (mut scratch, mut out) = (JointScratch::new(), Vec::new());
                exec.run_block_with_scratch(&spec, &master, 0, 64, &mut scratch, &mut out)
                    .expect("runs");
                assert_eq!(scratch.plan_verdict(), OK);
                assert_eq!(
                    scratch.take_counts().scalar_lanes,
                    64,
                    "the block reran scalar"
                );
                out.iter()
                    .map(|r| {
                        r.latent
                            .messages()
                            .iter()
                            .filter(|m| **m == Message::Fold)
                            .count()
                    })
                    .max()
                    .unwrap_or(0)
            })
            .expect("spawns");
        let deepest = deep.join().expect("no stack overflow");
        assert!(
            deepest > MAX_NESTING,
            "the guard must fire: depth {deepest}"
        );
    }

    /// Seven chained lane-dependent branches: arms never reconverge after a
    /// fork, so the paths double per branch (2^7) and outgrow the budget.
    fn chained_branches() -> (JointExecutor, JointSpec) {
        let (mut model, mut guide) = (String::new(), String::new());
        for i in 0..7 {
            model += &format!(
                "let u{i} <- sample recv latent (Unif);
                 let b{i} <- if send latent (u{i} < 0.5) {{ return 1.0 }} else {{ return 0.0 }};"
            );
            guide += &format!(
                "let u{i} <- sample send latent (Unif);
                 let _ <- if recv latent {{ return () }} else {{ return () }};"
            );
        }
        let model = format!(
            "proc Chain() : real consume latent provide obs {{ {model}
               let _ <- sample send obs (Normal(b0 + b3 + b6, 1.0)); return b0 + b1 }}"
        );
        let guide = format!("proc ChainGuide() provide latent {{ {guide} return () }}");
        let exec = executor(&model, &guide, vec![Sample::Real(1.5)]);
        (exec, JointSpec::new("Chain", "ChainGuide"))
    }

    #[test]
    fn budget_running_out_mid_run_keeps_every_lane() {
        // In 8-lane blocks at seeds 1 and 5 the chain runs out of arms in
        // its third block: two blocks ran vectorised, the third reruns
        // scalar, and every lane of every block still matches scalar.
        let (exec, spec) = chained_branches();
        for seed in [1, 5] {
            let (verdicts, mut scratch) = verdicts_per_block(&exec, &spec, seed, 8, 5);
            assert_eq!(
                verdicts,
                [OK, OK, EXHAUSTED, EXHAUSTED, EXHAUSTED],
                "seed {seed}"
            );
            // The fallback is visible: the last three blocks ran scalar.
            assert_eq!(scratch.take_counts().scalar_lanes, 3 * 8, "seed {seed}");
            assert_block_matches_scalar(&exec, &spec, 5 * 8, seed);
        }
        let verdicts = assert_block_matches_scalar(&exec, &spec, 300, 7);
        assert_eq!(verdicts[2..], [EXHAUSTED, EXHAUSTED]);
    }

    #[test]
    fn mutual_recursion_shares_two_callee_pairs() {
        // Even calls Odd calls Even: two procedure pairs, the first entered
        // with a constant argument, then widened once it recurses with a
        // lane value.
        let model = r#"
            proc Mutual() : real consume latent provide obs {
              let x <- call Even(0.0);
              let _ <- sample send obs (Normal(x, 1.0));
              return x
            }
            proc Even(acc : real) : real consume latent {
              let u <- sample recv latent (Unif);
              if send latent (u < 0.3) {
                return acc
              } else {
                let r <- call Odd(acc + u);
                return r
              }
            }
            proc Odd(acc : real) : real consume latent {
              let v <- sample recv latent (Normal(acc, 1.0));
              if send latent (v < 0.5) {
                return acc
              } else {
                let r <- call Even(acc - v);
                return r * 2.0
              }
            }
        "#;
        let guide = r#"
            proc MutualGuide() provide latent {
              let _ <- call EvenGuide();
              return ()
            }
            proc EvenGuide() provide latent {
              let u <- sample send latent (Unif);
              if recv latent {
                return ()
              } else {
                let _ <- call OddGuide();
                return ()
              }
            }
            proc OddGuide() provide latent {
              let v <- sample send latent (Normal(0.0, 2.0));
              if recv latent {
                return ()
              } else {
                let _ <- call EvenGuide();
                return ()
              }
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(0.7)]);
        let spec = JointSpec::new("Mutual", "MutualGuide");
        let verdicts = assert_block_matches_scalar(&exec, &spec, 500, 0x0DD);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
        let (_, scratch) = verdicts_per_block(&exec, &spec, 0x0DD, 64, 8);
        let keys: Vec<_> = cached_plan(&scratch)
            .callees
            .iter()
            .map(|c| c.key.iter().map(Option::is_some).collect::<Vec<_>>())
            .collect();
        assert_eq!(keys, [vec![true], vec![false], vec![false]]);
    }

    #[test]
    fn swapped_arguments_move_in_parallel() {
        // `call F(b, a, …)` writes each parameter slot from the other: a
        // sequential copy would read an already-overwritten source.
        let model = r#"
            proc Swap() : real consume latent provide obs {
              let x <- call F(1.0, 2.0, 0.0);
              let _ <- sample send obs (Normal(x, 5.0));
              return x
            }
            proc F(a : real, b : real, n : real) : real consume latent {
              let u <- sample recv latent (Normal(a - b, 1.0));
              if send latent (u < 0.0) {
                return a * 10.0 + b + n
              } else {
                let r <- call F(b, a, n + 1.0);
                return r
              }
            }
        "#;
        let guide = r#"
            proc SwapGuide() provide latent {
              let _ <- call FGuide();
              return ()
            }
            proc FGuide() provide latent {
              let u <- sample send latent (Normal(0.0, 2.0));
              if recv latent {
                return ()
              } else {
                let _ <- call FGuide();
                return ()
              }
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(14.0)]);
        let spec = JointSpec::new("Swap", "SwapGuide");
        let verdicts = assert_block_matches_scalar(&exec, &spec, 400, 0x5A9);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
        let (_, scratch) = verdicts_per_block(&exec, &spec, 0x5A9, 64, 4);
        let widened = &cached_plan(&scratch).callees[1];
        assert_eq!(widened.key, [None, None, None]);
    }

    #[test]
    fn callee_returns_constants_and_lane_values_of_any_carrier() {
        // The callee returns a constant on one arm and a lane value on the
        // others — a real slot or a natural-number slot — so the caller's
        // arithmetic meets both types in one dynamic slot.  `Pick`
        // declares `real`: its lane program takes the real lanes, and a
        // block with a lane holding a natural reruns scalar.
        let model = r#"
            proc Model() : real consume latent provide obs {
              let x <- call Pick();
              let y <- return x * 2.0;
              let _ <- sample send obs (Normal(y, 1.0));
              return y
            }
            proc Pick() : real consume latent {
              let u <- sample recv latent (Unif);
              if send latent (u < 0.5) {
                return 7.0
              } else {
                let k <- sample recv latent (Pois(3.0));
                if send latent (k < 2) {
                  return u
                } else {
                  return k
                }
              }
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let g <- call PickGuide();
              return g
            }
            proc PickGuide() provide latent {
              let u <- sample send latent (Unif);
              if recv latent {
                return ()
              } else {
                let k <- sample send latent (Pois(2.0));
                if recv latent {
                  return ()
                } else {
                  return k
                }
              }
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(6.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let verdicts = assert_block_matches_scalar(&exec, &spec, 300, 0xC0);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
    }

    /// The test slots: `u` real, `k` natural, `b` Boolean, `d` a value a
    /// call passes in, declared real, and `e` one declared a function or
    /// distribution type.
    fn lane_slots() -> ([Carrier; 5], Vec<(Ident, SymValue)>) {
        let carriers = [
            Carrier::Typed(Ty::Real),
            Carrier::Typed(Ty::Nat),
            Carrier::Typed(Ty::Bool),
            Carrier::Dyn(Some(Ty::Real)),
            Carrier::Dyn(None),
        ];
        let binds = ["u", "k", "b", "d", "e"]
            .iter()
            .enumerate()
            .map(|(i, x)| (Ident::new(x), SymValue::Slot(i)))
            .collect();
        (carriers, binds)
    }

    fn lane_prog(src: &str, carriers: &[Carrier], binds: &[(Ident, SymValue)]) -> Option<LaneProg> {
        let e = ppl_syntax::parse_expr(src).expect("parses");
        LaneProg::compile(&e, binds, carriers).ok()
    }

    #[test]
    fn real_expressions_compile_only_what_they_reproduce() {
        let (carriers, binds) = lane_slots();
        let ty = |src: &str| lane_prog(src, &carriers, &binds).map(|p| p.ty);
        // The first-order base-typed fragment compiles, with its type.
        assert_eq!(ty("u < 0.5 + 0.5 * d"), Some(Ty::Bool));
        assert_eq!(ty("sqrt(-2.0 * ln(u) / d)"), Some(Ty::Real));
        assert_eq!(ty("u < 1.0 && d < 1.0"), Some(Ty::Bool));
        assert_eq!(ty("if b then u else d"), Some(Ty::Real));
        assert_eq!(ty("if b then u else 0.5"), Some(Ty::Real));
        assert_eq!(ty("if b && !(k == 0) then k * k else k + 1"), Some(Ty::Nat));
        assert_eq!(ty("k < 4 || b == false"), Some(Ty::Bool));
        assert_eq!(ty("real(k) + u"), Some(Ty::Real));
        // Mixed operands go through `as_f64`, as in the evaluator.
        assert_eq!(ty("k + 1.0"), Some(Ty::Real));
        assert_eq!(ty("if b then () else ()"), Some(Ty::Unit));
        // Shapes outside the fragment, which give up on the plan: an
        // expression-level `let`, a value of unknown type, arms of two
        // types, operators that always error, and operand stacks past the
        // depth limit.
        assert_eq!(ty("let x = u in x * 2.0"), None);
        assert_eq!(ty("e + 1.0"), None);
        assert_eq!(ty("if b then u else k"), None);
        assert_eq!(ty("k - 1"), None);
        assert_eq!(ty("b && 1.0"), None);
        assert_eq!(
            ty("u + (u + (u + (u + (u + (u + (u + u))))))"),
            Some(Ty::Real)
        );
        assert_eq!(ty("u + (u + (u + (u + (u + (u + (u + (u + u)))))))"), None);
        // A value a call passed in must have its declared type: a lane
        // holding a natural leaves the program and its block reruns scalar.
        let p = lane_prog("d * 2.0", &carriers, &binds).expect("compiles");
        let slots = [0.25, 0.0, 1.0, f64::from_bits(3), 0.0].map(|x| vec![x]);
        let tags = [Ty::Real, Ty::Nat, Ty::Bool, Ty::Nat, Ty::Unit].map(|t| vec![t]);
        assert_eq!(p.eval(&slots, &tags, 0), None);
        let slots = [0.25, 0.0, 1.0, 1.5, 0.0].map(|x| vec![x]);
        let tags = [Ty::Real, Ty::Nat, Ty::Bool, Ty::Real, Ty::Unit].map(|t| vec![t]);
        assert_eq!(p.eval(&slots, &tags, 0), Some(3.0));
    }

    #[test]
    fn lane_programs_match_the_evaluator_bit_for_bit() {
        // Every operator of the fragment over every pair of carriers, on
        // random lanes drawn from boundary values: each compiled program
        // must give the evaluator's value bit for bit, or error wherever
        // it errors.
        let names = ["r0", "r1", "n0", "n1", "b0", "b1", "dr", "dn", "db"];
        let types = [
            Ty::Real,
            Ty::Real,
            Ty::Nat,
            Ty::Nat,
            Ty::Bool,
            Ty::Bool,
            Ty::Real,
            Ty::Nat,
            Ty::Bool,
        ];
        let carriers: Vec<Carrier> = (types.iter().enumerate())
            .map(|(i, &t)| {
                if i < 6 {
                    Carrier::Typed(t)
                } else {
                    Carrier::Dyn(Some(t))
                }
            })
            .collect();
        let binds: Vec<(Ident, SymValue)> = (names.iter().enumerate())
            .map(|(i, x)| (Ident::new(x), SymValue::Slot(i)))
            .collect();
        let two53 = 1u64 << 53;
        let reals = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            1.0,
            -1.0,
            0.5,
            two53 as f64,
            f64::MAX,
        ];
        let nats = [
            0,
            1,
            2,
            3,
            two53 - 1,
            two53,
            two53 + 1,
            1 << 32,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut exprs = Vec::new();
        for a in names {
            for op in ["-", "exp", "ln", "sqrt", "real", "!"] {
                exprs.push(format!("{op}({a})"));
            }
            for b in names {
                for op in ["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "&&", "||"] {
                    exprs.push(format!("{a} {op} {b}"));
                }
            }
        }
        // Only the taken arm may error; `&&` and `||` evaluate both sides.
        for c in ["b0", "db", "n0 < n1", "r0 == dr"] {
            let arms = [
                ("n0 + n1", "dn"),
                ("r0 / r1", "dr"),
                ("b1", "db || b0"),
                ("r0", "r1"),
                ("n1", "7"),
            ];
            for (a, b) in arms {
                exprs.push(format!("if {c} then {a} else {b}"));
                exprs.push(format!("if {c} then {b} else {a}"));
            }
            exprs.push(format!("{c} || n0 * n1 == dn"));
            exprs.push(format!("!({c}) && real(n0 + dn) < r1"));
        }
        let mut rng = Pcg32::seed_from_u64(0xD1FF);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        let (mut compiled, mut errors) = (0, 0);
        let mut stack = ValueStack::new();
        for src in &exprs {
            let e = ppl_syntax::parse_expr(src).expect("parses");
            let prog = lane_prog(src, &carriers, &binds);
            compiled += usize::from(prog.is_some());
            for _ in 0..64 {
                let mut slots = Vec::new();
                stack.clear();
                for (x, &ty) in names.iter().zip(&types) {
                    let v = match ty {
                        Ty::Real => Value::Real(reals[pick(reals.len())]),
                        Ty::Nat => Value::Nat(nats[pick(nats.len())]),
                        _ => Value::Bool(pick(2) == 1),
                    };
                    slots.push(vec![encode_value(&v).expect("scalar").1]);
                    stack.push(Ident::new(x), v);
                }
                let tags: Vec<Vec<Ty>> = types.iter().map(|&t| vec![t]).collect();
                let want = eval_expr_in(&mut stack, &e).ok();
                let want = want.map(|v| encode_value(&v).expect("scalar"));
                errors += usize::from(want.is_none());
                let bits = |r: Option<(Ty, f64)>| r.map(|(t, x)| (t, x.to_bits()));
                // A shape left uncompiled is one the evaluator rejects.
                let got = prog
                    .as_ref()
                    .and_then(|p| Some((p.ty, p.eval(&slots, &tags, 0)?)));
                assert_eq!(bits(got), bits(want), "{src} on {stack:?}");
            }
        }
        // The well-typed shapes, and the mixed-carrier arithmetic and
        // comparisons the evaluator also accepts, all compile.
        assert_eq!(compiled, 414, "of {}", exprs.len());
        assert!(errors > 0);
    }

    #[test]
    fn natural_overflow_on_one_lane_reports_the_scalar_error() {
        // The sum overflows on the lanes that draw k >= 6 (about one in
        // twelve): the block reruns scalar and reports the first such
        // lane's error, at every block size.
        let model = r#"
            proc Model() : real consume latent provide obs {
              let k <- sample recv latent (Pois(3.0));
              let n <- return 18446744073709551610 + k;
              let _ <- sample send obs (Normal(real(k), 1.0));
              return real(n)
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let k <- sample send latent (Pois(3.0));
              return ()
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(3.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let master = Pcg32::seed_from_u64(0x0F);
        let first_error = (0..64u64)
            .map(|i| exec.run(&spec, LatentSource::FromGuide, &mut master.split(i)))
            .position(|r| r.is_err())
            .expect("some lane overflows");
        assert!(first_error > 0, "lanes before it vectorise");
        let err = exec.run(
            &spec,
            LatentSource::FromGuide,
            &mut master.split(first_error as u64),
        );
        assert!(format!("{}", err.unwrap_err()).contains("overflow"));
        let verdicts = assert_block_matches_scalar(&exec, &spec, 64, 0x0F);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
    }

    #[test]
    fn shapes_outside_the_lane_fragment_take_the_scalar_verdict() {
        // Each shape no lane program expresses, at its own kind of
        // per-lane site: an expression-level `let` in a distribution
        // parameter, a lambda application in a bound value, an operand
        // stack deeper than `LANE_DEPTH` in a fork predicate, and a
        // distribution chosen per lane, which keeps its own reason.
        let model = |bound: &str, pred: &str, obs: &str| {
            format!(
                r#"
                proc Model() : real consume latent provide obs {{
                  let x <- sample recv latent (Normal(0.0, 1.0));
                  let y <- return ({bound});
                  if send latent ({pred}) {{
                    let _ <- sample send obs ({obs});
                    return y
                  }} else {{
                    let _ <- sample send obs (Normal(0.0, 1.0));
                    return y
                  }}
                }}
                "#
            )
        };
        let guide = r#"
            proc Guide() provide latent {
              let x <- sample send latent (Normal(0.5, 1.5));
              if recv latent {
                return ()
              } else {
                return ()
              }
            }
        "#;
        let (bound, pred, obs) = ("x * 2.0", "x < 0.5", "Normal(y, 1.0)");
        let deep = "x + (x + (x + (x + (x + (x + (x + (x + x))))))) < 4.0";
        let cases = [
            ("fragment", model(bound, pred, obs), OK),
            (
                "let",
                model(bound, pred, "Normal(let z = y * 2.0 in z + 1.0, 1.0)"),
                Some(Err(OUTSIDE_FRAGMENT.0)),
            ),
            (
                "lambda",
                model("let f = fn (v : real) => v * 2.0 in f(x)", pred, obs),
                Some(Err(OUTSIDE_FRAGMENT.0)),
            ),
            (
                "depth",
                model(bound, deep, obs),
                Some(Err(OUTSIDE_FRAGMENT.0)),
            ),
            (
                "opaque",
                model(
                    bound,
                    pred,
                    "if y < 0.0 then Normal(0.0, 1.0) else Normal(y, 1.0)",
                ),
                Some(Err("per-lane opaque distribution")),
            ),
        ];
        for (name, model, verdict) in cases {
            let exec = executor(&model, guide, vec![Sample::Real(1.0)]);
            let spec = JointSpec::new("Model", "Guide");
            let verdicts = assert_block_matches_scalar(&exec, &spec, 100, 0xE7A1);
            assert_eq!(verdicts, [verdict; BLOCK_SIZES.len()], "{name}");
            let (verdicts, mut scratch) = verdicts_per_block(&exec, &spec, 0xE7A1, 16, 4);
            assert_eq!(verdicts, [verdict; 4], "{name}");
            let scalar = if verdict == OK { 0 } else { 64 };
            assert_eq!(scratch.take_counts().scalar_lanes, scalar, "{name}");
        }
    }

    #[test]
    fn per_level_constant_argument_widens_once() {
        // ptrace passes `k + 1.0`, a new constant at every level: the pair
        // is planned exactly for its first call and once widened, so the
        // plan stays small.
        let model = r#"
            proc Ptrace() : real consume latent provide obs {
              let k <- call PtraceHelper(exp(-(4.0)), 0.0, 1.0);
              let _ <- sample send obs (Normal(k, 0.1));
              return k
            }
            proc PtraceHelper(l : preal, k : real, p : preal) : real consume latent {
              let u <- sample recv latent (Unif);
              if send latent (p * u <= l) {
                return k
              } else {
                let r <- call PtraceHelper(l, k + 1.0, p * u);
                return r
              }
            }
        "#;
        let guide = r#"
            proc PtraceGuide() provide latent {
              let _ <- call PtraceHelperGuide();
              return ()
            }
            proc PtraceHelperGuide() provide latent {
              let u <- sample send latent (Unif);
              if recv latent {
                return ()
              } else {
                let _ <- call PtraceHelperGuide();
                return ()
              }
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(4.0)]);
        let spec = JointSpec::new("Ptrace", "PtraceGuide");
        let verdicts = assert_block_matches_scalar(&exec, &spec, 300, 0x97);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
        let (verdicts, scratch) = verdicts_per_block(&exec, &spec, 0x97, 64, 2_000 / 64);
        assert!(verdicts.iter().all(|v| *v == OK));
        let plan = cached_plan(&scratch);
        assert_eq!(plan.callees.len(), 2);
        assert!(plan.planned <= 12, "planned {}", plan.planned);
    }

    #[test]
    fn callee_reaching_the_observation_channel_stays_inlined() {
        // `Inner` declares only the latent channel, but the helper it calls
        // sends on `obs`: the observation index must stay a plan-time
        // constant, so both calls are inlined as before.
        let model = r#"
            proc Model() : real consume latent provide obs {
              let x <- call Inner(0.5);
              let y <- call Inner(x);
              return x + y
            }
            proc Inner(m : real) : real consume latent {
              let u <- sample recv latent (Normal(m, 1.0));
              let _ <- call Emit(u);
              return u
            }
            proc Emit(u : real) : unit provide obs {
              let _ <- sample send obs (Normal(u, 1.0));
              return ()
            }
        "#;
        let guide = r#"
            proc Guide() provide latent {
              let _ <- call InnerGuide();
              let _ <- call InnerGuide();
              return ()
            }
            proc InnerGuide() provide latent {
              let u <- sample send latent (Normal(0.0, 2.0));
              return ()
            }
        "#;
        let exec = executor(model, guide, vec![Sample::Real(0.2), Sample::Real(-0.4)]);
        let spec = JointSpec::new("Model", "Guide");
        let verdicts = assert_block_matches_scalar(&exec, &spec, 300, 0x0B5);
        assert_eq!(verdicts, [OK; BLOCK_SIZES.len()]);
        let (_, scratch) = verdicts_per_block(&exec, &spec, 0x0B5, 64, 2);
        assert!(cached_plan(&scratch).callees.is_empty());
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
