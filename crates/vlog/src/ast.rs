//! Abstract syntax tree for the Verilog subset understood by SYNERGY.
//!
//! The subset covers the constructs exercised by the paper: module declarations with
//! input/output ports, wire/reg/integer declarations (including 1-D memories),
//! continuous assignments, `always`/`initial` blocks with edge-sensitive event
//! controls, blocking and non-blocking assignments, `if`/`case` statements,
//! `begin/end` and `fork/join` blocks, bounded `for`/`repeat` loops, module
//! instantiation, and the unsynthesizable system tasks (`$display`, `$fopen`,
//! `$fread`, `$feof`, `$finish`, `$save`, `$restart`, `$yield`, ...).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::Bits;

/// A parsed source file: an ordered list of module declarations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct SourceFile {
    /// Module declarations in source order.
    pub modules: Vec<Module>,
}

impl SourceFile {
    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// A Verilog module declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Port list in declaration order.
    pub ports: Vec<Port>,
    /// Body items in source order.
    pub items: Vec<Item>,
}

impl Module {
    /// Creates an empty module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ports: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Finds a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout` (accepted by the parser, treated as output by the tools)
    Inout,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDir::Input => write!(f, "input"),
            PortDir::Output => write!(f, "output"),
            PortDir::Inout => write!(f, "inout"),
        }
    }
}

/// A module port declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Port {
    /// Port direction.
    pub dir: PortDir,
    /// `true` if declared `reg` (only meaningful for outputs).
    pub is_reg: bool,
    /// Packed range, e.g. `[31:0]`; `None` means a single bit.
    pub range: Option<Range>,
    /// Port name.
    pub name: String,
}

/// A packed or memory range `[msb:lsb]` whose bounds are constant expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Range {
    /// Most-significant bound expression.
    pub msb: Expr,
    /// Least-significant bound expression.
    pub lsb: Expr,
}

/// Kinds of variable declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetKind {
    /// `wire` — value driven by continuous assignment or port connection.
    Wire,
    /// `reg` — value assigned in procedural blocks.
    Reg,
    /// `integer` — a 32-bit signed register.
    Integer,
}

impl fmt::Display for NetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetKind::Wire => write!(f, "wire"),
            NetKind::Reg => write!(f, "reg"),
            NetKind::Integer => write!(f, "integer"),
        }
    }
}

/// Attribute instance attached to a declaration, e.g. `(* non_volatile *)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Optional constant value (unused by the current passes).
    pub value: Option<String>,
}

/// A module body item.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Item {
    /// A net/reg/integer declaration (possibly several declarators share one keyword).
    Decl(Decl),
    /// A `parameter`/`localparam` declaration.
    Param(ParamDecl),
    /// A continuous assignment `assign lhs = rhs;`.
    ContinuousAssign(Assign),
    /// An `always @(...)` block.
    Always(AlwaysBlock),
    /// An `initial` block.
    Initial(Stmt),
    /// A module instantiation.
    Instance(Instance),
}

/// A single variable declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Decl {
    /// Attributes such as `(* non_volatile *)`.
    pub attributes: Vec<Attribute>,
    /// Declaration kind.
    pub kind: NetKind,
    /// Packed range; `None` for 1-bit (or 32-bit for `integer`).
    pub range: Option<Range>,
    /// Declared name.
    pub name: String,
    /// Memory (unpacked array) range, e.g. `mem [0:255]`.
    pub mem_range: Option<Range>,
    /// Optional initialiser (wire continuous value or reg initial value).
    pub init: Option<Expr>,
}

/// A `parameter` or `localparam` declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamDecl {
    /// `true` for `localparam`.
    pub local: bool,
    /// Parameter name.
    pub name: String,
    /// Constant value expression.
    pub value: Expr,
}

/// An assignment target and source.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Assign {
    /// Left-hand side.
    pub lhs: LValue,
    /// Right-hand side.
    pub rhs: Expr,
}

/// An `always` block with its sensitivity list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AlwaysBlock {
    /// Sensitivity events; an empty list means `always @*`.
    pub events: Vec<Event>,
    /// Body statement.
    pub body: Stmt,
}

/// One event in a sensitivity list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// Edge qualifier.
    pub edge: Edge,
    /// The watched expression (usually an identifier).
    pub expr: Expr,
}

/// Edge qualifiers for sensitivity-list events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Edge {
    /// `posedge x`
    Pos,
    /// `negedge x`
    Neg,
    /// level sensitivity (`x` or `@*`)
    Any,
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edge::Pos => write!(f, "posedge"),
            Edge::Neg => write!(f, "negedge"),
            Edge::Any => write!(f, "any"),
        }
    }
}

/// A module instantiation `Type name(.port(expr), ...);`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instance {
    /// Instantiated module type name.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// Port connections.
    pub connections: Vec<Connection>,
}

/// A single port connection in an instantiation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Connection {
    /// Port name for named connections; `None` for positional.
    pub port: Option<String>,
    /// Connected expression; `None` for an explicitly unconnected port `.p()`.
    pub expr: Option<Expr>,
}

/// Procedural statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stmt {
    /// `begin ... end`
    Block(Vec<Stmt>),
    /// `fork ... join`
    Fork(Vec<Stmt>),
    /// Blocking assignment `lhs = rhs;`
    Blocking(Assign),
    /// Non-blocking assignment `lhs <= rhs;`
    NonBlocking(Assign),
    /// `if (cond) then else other`
    If {
        /// Condition expression.
        cond: Expr,
        /// Taken branch.
        then: Box<Stmt>,
        /// Optional else branch.
        other: Option<Box<Stmt>>,
    },
    /// `case (expr) item: stmt ... default: stmt endcase`
    Case {
        /// Scrutinee expression.
        expr: Expr,
        /// Case arms.
        arms: Vec<CaseArm>,
        /// Default arm.
        default: Option<Box<Stmt>>,
    },
    /// `for (init; cond; step) body` with constant trip count.
    For {
        /// Initial blocking assignment.
        init: Box<Assign>,
        /// Loop condition.
        cond: Expr,
        /// Step blocking assignment.
        step: Box<Assign>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `repeat (count) body` with a constant count.
    Repeat {
        /// Constant repetition count.
        count: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// A system task invocation such as `$display(...)`.
    SystemTask(SystemTask),
    /// The empty statement `;`.
    Null,
}

impl Stmt {
    /// Returns `true` if the statement (recursively) contains any system task.
    pub fn contains_system_task(&self) -> bool {
        match self {
            Stmt::SystemTask(_) => true,
            Stmt::Block(stmts) | Stmt::Fork(stmts) => stmts.iter().any(Stmt::contains_system_task),
            Stmt::If { then, other, .. } => {
                then.contains_system_task()
                    || other.as_ref().is_some_and(|s| s.contains_system_task())
            }
            Stmt::Case { arms, default, .. } => {
                arms.iter().any(|a| a.body.contains_system_task())
                    || default.as_ref().is_some_and(|s| s.contains_system_task())
            }
            Stmt::For { body, .. } | Stmt::Repeat { body, .. } => body.contains_system_task(),
            _ => false,
        }
    }
}

/// One arm of a `case` statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CaseArm {
    /// Match labels (a comma-separated list in the source).
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
}

/// The unsynthesizable system tasks recognised by SYNERGY.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SystemTask {
    /// Which task.
    pub kind: TaskKind,
    /// Argument expressions.
    pub args: Vec<Expr>,
}

/// Identifies a system task or system function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// `$display(...)` — print with trailing newline.
    Display,
    /// `$write(...)` — print without newline.
    Write,
    /// `$finish(code)` — terminate the program.
    Finish,
    /// `$fopen("path")` — open a file, returns a descriptor.
    Fopen,
    /// `$fclose(fd)` — close a file.
    Fclose,
    /// `$fread(fd, reg)` — read a value from a file into a register.
    Fread,
    /// `$feof(fd)` — end-of-file predicate.
    Feof,
    /// `$save("tag")` — capture program state (SYNERGY extension as per §3.5).
    Save,
    /// `$restart("tag")` — restore program state (§3.5).
    Restart,
    /// `$yield` — application-directed quiescence point (§5.3).
    Yield,
    /// `$time` — current simulation time.
    Time,
    /// `$random` — pseudo-random 32-bit value.
    Random,
}

impl TaskKind {
    /// Parses a system task name (without the leading `$`).
    pub fn from_name(name: &str) -> Option<TaskKind> {
        Some(match name {
            "display" => TaskKind::Display,
            "write" => TaskKind::Write,
            "finish" => TaskKind::Finish,
            "fopen" => TaskKind::Fopen,
            "fclose" => TaskKind::Fclose,
            "fread" => TaskKind::Fread,
            "feof" => TaskKind::Feof,
            "save" => TaskKind::Save,
            "restart" => TaskKind::Restart,
            "yield" => TaskKind::Yield,
            "time" => TaskKind::Time,
            "random" => TaskKind::Random,
            _ => return None,
        })
    }

    /// `true` for tasks that may appear inside expressions (`$feof`, `$time`, ...).
    pub fn is_function(&self) -> bool {
        matches!(
            self,
            TaskKind::Feof | TaskKind::Time | TaskKind::Random | TaskKind::Fopen
        )
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskKind::Display => "$display",
            TaskKind::Write => "$write",
            TaskKind::Finish => "$finish",
            TaskKind::Fopen => "$fopen",
            TaskKind::Fclose => "$fclose",
            TaskKind::Fread => "$fread",
            TaskKind::Feof => "$feof",
            TaskKind::Save => "$save",
            TaskKind::Restart => "$restart",
            TaskKind::Yield => "$yield",
            TaskKind::Time => "$time",
            TaskKind::Random => "$random",
        };
        write!(f, "{}", s)
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LValue {
    /// A whole variable.
    Ident(String),
    /// A single-bit or memory-element select `x[i]`.
    Index(String, Expr),
    /// A constant part select `x[hi:lo]`.
    Slice(String, Expr, Expr),
    /// A concatenation of lvalues `{a, b}`.
    Concat(Vec<LValue>),
}

impl LValue {
    /// Names of all variables written by this lvalue.
    pub fn targets(&self) -> Vec<&str> {
        match self {
            LValue::Ident(n) | LValue::Index(n, _) | LValue::Slice(n, _, _) => vec![n],
            LValue::Concat(parts) => parts.iter().flat_map(|p| p.targets()).collect(),
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value with an explicit or inferred width.
    Literal(Bits),
    /// A string literal (only valid as a system-task argument).
    StringLit(String),
    /// A variable reference.
    Ident(String),
    /// Bit select or memory element select `x[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Constant part select `x[hi:lo]`.
    Slice(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Ternary conditional `c ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Concatenation `{a, b, c}`.
    Concat(Vec<Expr>),
    /// Replication `{n{expr}}`.
    Replicate(Box<Expr>, Box<Expr>),
    /// System function call, e.g. `$feof(fd)`.
    SystemCall(TaskKind, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for an unsized decimal literal.
    pub fn number(v: u64) -> Expr {
        Expr::Literal(Bits::from_u64(32, v))
    }

    /// Convenience constructor for a sized literal.
    pub fn sized(width: usize, v: u64) -> Expr {
        Expr::Literal(Bits::from_u64(width, v))
    }

    /// Convenience constructor for an identifier reference.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Collects the names of all identifiers referenced by this expression.
    pub fn idents(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_idents(&mut out);
        out
    }

    fn collect_idents<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Ident(n) => out.push(n),
            Expr::Index(a, b) => {
                a.collect_idents(out);
                b.collect_idents(out);
            }
            Expr::Slice(a, b, c) => {
                a.collect_idents(out);
                b.collect_idents(out);
                c.collect_idents(out);
            }
            Expr::Unary(_, a) => a.collect_idents(out),
            Expr::Binary(_, a, b) => {
                a.collect_idents(out);
                b.collect_idents(out);
            }
            Expr::Ternary(a, b, c) => {
                a.collect_idents(out);
                b.collect_idents(out);
                c.collect_idents(out);
            }
            Expr::Concat(parts) => parts.iter().for_each(|p| p.collect_idents(out)),
            Expr::Replicate(n, e) => {
                n.collect_idents(out);
                e.collect_idents(out);
            }
            Expr::SystemCall(_, args) => args.iter().for_each(|a| a.collect_idents(out)),
            Expr::Literal(_) | Expr::StringLit(_) => {}
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `~x`
    Not,
    /// `!x`
    LogicalNot,
    /// `-x`
    Neg,
    /// `+x`
    Plus,
    /// `&x`
    ReduceAnd,
    /// `|x`
    ReduceOr,
    /// `^x`
    ReduceXor,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `&&`
    LogicalAnd,
    /// `||`
    LogicalOr,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    AShr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl BinaryOp {
    /// `true` for operators whose result is always a single bit.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
                | BinaryOp::LogicalAnd
                | BinaryOp::LogicalOr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_kind_round_trip() {
        for name in [
            "display", "write", "finish", "fopen", "fclose", "fread", "feof", "save", "restart",
            "yield", "time", "random",
        ] {
            let k = TaskKind::from_name(name).unwrap();
            assert_eq!(format!("{}", k), format!("${}", name));
        }
        assert!(TaskKind::from_name("bogus").is_none());
    }

    #[test]
    fn expr_ident_collection() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::ident("a")),
            Box::new(Expr::Ternary(
                Box::new(Expr::ident("sel")),
                Box::new(Expr::ident("b")),
                Box::new(Expr::number(1)),
            )),
        );
        let ids = e.idents();
        assert_eq!(ids, vec!["a", "sel", "b"]);
    }

    #[test]
    fn lvalue_targets() {
        let lv = LValue::Concat(vec![
            LValue::Ident("a".into()),
            LValue::Index("b".into(), Expr::number(0)),
        ]);
        assert_eq!(lv.targets(), vec!["a", "b"]);
    }

    #[test]
    fn stmt_contains_system_task() {
        let s = Stmt::Block(vec![
            Stmt::Null,
            Stmt::If {
                cond: Expr::ident("c"),
                then: Box::new(Stmt::SystemTask(SystemTask {
                    kind: TaskKind::Display,
                    args: vec![],
                })),
                other: None,
            },
        ]);
        assert!(s.contains_system_task());
        assert!(!Stmt::Null.contains_system_task());
    }
}
