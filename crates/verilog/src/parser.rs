//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::lex;
use crate::token::{Keyword, Span, Token, TokenKind};

/// The deepest nesting the parser accepts, bounding two depths. Its own
/// recursion: parentheses, unary operators, ternaries, statements and
/// lvalue concatenations each go one level down. And the depth of the
/// tree it builds, which the walkers after it recurse on: every node
/// but a parenthesis adds a level, and every operator of a left-deep
/// chain (`a + b + …`, `a[i][j]…`) sinks the chain built so far one
/// level. A chain is cheap to parse, but the printer writes
/// `a + b + c` back as `(a + b) + c`, so a chain of `n` terms re-reads
/// as `n - 2` nested parentheses, and the flow re-parses its own output
/// to verify it. Deeper input fails with
/// [`ParseErrorKind::RecursionLimit`] instead of overflowing the stack.
///
/// Sized for an optimized build on a 2 MiB thread stack (the default
/// for spawned threads, and so for `par` workers): there the parser
/// itself, the deepest walker, reaches about 1,490 parenthesis levels,
/// and elaboration walks a chain's left spine without recursing. An
/// unoptimized build uses several times more stack per level.
pub const MAX_NESTING: usize = 1_024;

/// Binary operators with their precedence, loosest first; every level
/// is left-associative.
const BINARY_OPS: [(&str, BinaryOp, u8); 20] = [
    ("||", BinaryOp::LogicOr, 0),
    ("&&", BinaryOp::LogicAnd, 1),
    ("|", BinaryOp::Or, 2),
    ("^", BinaryOp::Xor, 3),
    ("~^", BinaryOp::Xnor, 3),
    ("^~", BinaryOp::Xnor, 3),
    ("&", BinaryOp::And, 4),
    ("==", BinaryOp::Eq, 5),
    ("!=", BinaryOp::Ne, 5),
    ("<=", BinaryOp::Le, 6),
    (">=", BinaryOp::Ge, 6),
    ("<", BinaryOp::Lt, 6),
    (">", BinaryOp::Gt, 6),
    ("<<", BinaryOp::Shl, 7),
    (">>", BinaryOp::Shr, 7),
    ("+", BinaryOp::Add, 8),
    ("-", BinaryOp::Sub, 8),
    ("*", BinaryOp::Mul, 9),
    ("/", BinaryOp::Div, 9),
    ("%", BinaryOp::Mod, 9),
];

/// Parses a full source file.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered; the parser does not
/// attempt recovery (the flow treats any malformed input as fatal, as the
/// original PyVerilog-based prototype did).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = alice_verilog::parse_source("module m(input wire a); endmodule")?;
/// assert_eq!(f.modules[0].ports.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_source(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        pending_nets: Vec::new(),
        depth: 0,
        level: 0,
        peak: 0,
    }
    .source_file()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Extra declarations from `wire a, b, c;` waiting to be emitted as items.
    pending_nets: Vec<NetDecl>,
    /// Recursion depth of the parser (see [`MAX_NESTING`]).
    depth: usize,
    /// Tree level of the node being parsed: `depth` without the
    /// parentheses, which add no node.
    level: usize,
    /// Deepest level reached by the innermost chain being parsed, as if
    /// its root sat at the level the chain started from.
    peak: usize,
}

impl Parser {
    fn too_deep<T>(&self) -> Result<T, ParseError> {
        Err(ParseError::new(
            ParseErrorKind::RecursionLimit,
            self.peek_span(),
        ))
    }

    /// Runs `f` for a node one level deeper, refusing to pass
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.level += 1;
        self.peak = self.peak.max(self.level);
        let r = self.recurse(f);
        self.level -= 1;
        r
    }

    /// Runs `f` one recursion level deeper, refusing to pass
    /// [`MAX_NESTING`].
    fn recurse<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return self.too_deep();
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Starts a left-deep chain at the current level, returning the
    /// enclosing chain's peak for [`Parser::end_chain`].
    fn start_chain(&mut self) -> usize {
        std::mem::replace(&mut self.peak, self.level)
    }

    /// A new node on top of the chain sinks everything below it one
    /// level, refusing to push its deepest node past [`MAX_NESTING`].
    fn sink(&mut self) -> Result<(), ParseError> {
        if self.peak >= MAX_NESTING {
            return self.too_deep();
        }
        self.peak += 1;
        Ok(())
    }

    fn end_chain(&mut self, outer_peak: usize) {
        self.peak = self.peak.max(outer_peak);
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, expected: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(
            ParseErrorKind::Unexpected {
                expected: expected.into(),
                found: self.peek().to_string(),
            },
            self.peek_span(),
        ))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("`{p}`"))
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), TokenKind::Kw(k) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("`{}`", kw.as_str()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        if let TokenKind::Ident(s) = self.peek() {
            let s = s.clone();
            self.bump();
            Ok(s)
        } else {
            self.err("identifier")
        }
    }

    fn source_file(mut self) -> Result<SourceFile, ParseError> {
        let mut modules = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            self.expect_kw(Keyword::Module)?;
            modules.push(self.module()?);
        }
        Ok(SourceFile { modules })
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.eat_kw(Keyword::Parameter);
                let pname = self.expect_ident()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                params.push(Parameter { name: pname, value });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let mut ports = Vec::new();
        if self.eat_punct("(") && !self.eat_punct(")") {
            loop {
                ports.push(self.ansi_port(ports.last())?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;
        let mut items = Vec::new();
        loop {
            if !self.pending_nets.is_empty() {
                items.push(Item::Net(self.pending_nets.remove(0)));
                continue;
            }
            if self.eat_kw(Keyword::Endmodule) {
                break;
            }
            if matches!(self.peek(), TokenKind::Eof) {
                return self.err("`endmodule`");
            }
            items.push(self.item()?);
        }
        Ok(Module {
            name,
            params,
            ports,
            items,
        })
    }

    /// One ANSI port. If direction keywords are omitted, it inherits the
    /// previous port's direction/type (`input [3:0] a, b`).
    fn ansi_port(&mut self, prev: Option<&Port>) -> Result<Port, ParseError> {
        let dir = if self.eat_kw(Keyword::Input) {
            Some(Direction::Input)
        } else if self.eat_kw(Keyword::Output) {
            Some(Direction::Output)
        } else if self.eat_kw(Keyword::Inout) {
            Some(Direction::Inout)
        } else {
            None
        };
        let mut is_reg = false;
        if self.eat_kw(Keyword::Wire) {
            is_reg = false;
        } else if self.eat_kw(Keyword::Reg) {
            is_reg = true;
        } else if dir.is_none() {
            // bare identifier: inherit everything from previous port
            let name = self.expect_ident()?;
            let prev = prev.ok_or_else(|| {
                ParseError::new(
                    ParseErrorKind::Unsupported(
                        "non-ANSI port list (declare directions in the header)".into(),
                    ),
                    self.peek_span(),
                )
            })?;
            return Ok(Port {
                dir: prev.dir,
                is_reg: prev.is_reg,
                name,
                range: prev.range.clone(),
            });
        }
        let dir = match (dir, prev) {
            (Some(d), _) => d,
            (None, Some(p)) => p.dir,
            (None, None) => {
                return self.err("port direction");
            }
        };
        let range = self.opt_range()?;
        let name = self.expect_ident()?;
        Ok(Port {
            dir,
            is_reg,
            name,
            range,
        })
    }

    fn opt_range(&mut self) -> Result<Option<Range>, ParseError> {
        if self.eat_punct("[") {
            let msb = self.expr()?;
            self.expect_punct(":")?;
            let lsb = self.expr()?;
            self.expect_punct("]")?;
            Ok(Some(Range { msb, lsb }))
        } else {
            Ok(None)
        }
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if !self.pending_nets.is_empty() {
            return Ok(Item::Net(self.pending_nets.remove(0)));
        }
        match self.peek().clone() {
            TokenKind::Kw(Keyword::Wire) | TokenKind::Kw(Keyword::Reg) => {
                let kind = if self.eat_kw(Keyword::Wire) {
                    NetKind::Wire
                } else {
                    self.expect_kw(Keyword::Reg)?;
                    NetKind::Reg
                };
                let range = self.opt_range()?;
                // Multiple comma-separated declarations become one item per
                // name; we fold the extras into a Block-like sequence by
                // returning the first and pushing the rest lazily.
                let mut decls = Vec::new();
                loop {
                    let name = self.expect_ident()?;
                    let init = if self.eat_punct("=") {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    decls.push(NetDecl {
                        kind,
                        name,
                        range: range.clone(),
                        init,
                    });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(";")?;
                let first = decls.remove(0);
                // Re-queue remaining declarations as synthetic tokens is
                // messy; instead we return a fused item when only one decl
                // and expand multi-decls into a MultiNet holder below.
                if decls.is_empty() {
                    Ok(Item::Net(first))
                } else {
                    // Represent as consecutive items via a small trick: we
                    // stash extras and the caller loop pulls them on the next
                    // `item()` call.
                    self.pending_nets = decls;
                    Ok(Item::Net(first))
                }
            }
            TokenKind::Kw(Keyword::Integer) => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect_punct(";")?;
                Ok(Item::Net(NetDecl {
                    kind: NetKind::Reg,
                    name,
                    range: Some(Range {
                        msb: Expr::num(31),
                        lsb: Expr::num(0),
                    }),
                    init: None,
                }))
            }
            TokenKind::Kw(Keyword::Parameter) => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                self.expect_punct(";")?;
                Ok(Item::Param(Parameter { name, value }))
            }
            TokenKind::Kw(Keyword::Localparam) => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                let value = self.expr()?;
                self.expect_punct(";")?;
                Ok(Item::Localparam(Parameter { name, value }))
            }
            TokenKind::Kw(Keyword::Assign) => {
                self.bump();
                let lhs = self.lvalue()?;
                self.expect_punct("=")?;
                let rhs = self.expr()?;
                self.expect_punct(";")?;
                Ok(Item::Assign(Assign { lhs, rhs }))
            }
            TokenKind::Kw(Keyword::Always) => {
                self.bump();
                Ok(Item::Always(self.always_block()?))
            }
            TokenKind::Ident(_) => self.instance(),
            _ => self.err("module item"),
        }
    }

    fn always_block(&mut self) -> Result<AlwaysBlock, ParseError> {
        self.expect_punct("@")?;
        self.expect_punct("(")?;
        let sensitivity = if self.eat_punct("*") {
            Sensitivity::Comb
        } else {
            let mut edges = Vec::new();
            loop {
                let kind = if self.eat_kw(Keyword::Posedge) {
                    EdgeKind::Pos
                } else if self.eat_kw(Keyword::Negedge) {
                    EdgeKind::Neg
                } else {
                    // Plain identifier list @(a or b) — treat as comb.
                    let _ = self.expect_ident()?;
                    while self.eat_kw(Keyword::Or) || self.eat_punct(",") {
                        let _ = self.expect_ident()?;
                    }
                    self.expect_punct(")")?;
                    let body = self.stmt()?;
                    return Ok(AlwaysBlock {
                        sensitivity: Sensitivity::Comb,
                        body,
                    });
                };
                let sig = self.expect_ident()?;
                edges.push((kind, sig));
                if !(self.eat_kw(Keyword::Or) || self.eat_punct(",")) {
                    break;
                }
            }
            Sensitivity::Edges(edges)
        };
        self.expect_punct(")")?;
        let body = self.stmt()?;
        Ok(AlwaysBlock { sensitivity, body })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw(Keyword::Begin) {
            // optional label
            if self.eat_punct(":") {
                let _ = self.expect_ident()?;
            }
            let mut stmts = Vec::new();
            while !self.eat_kw(Keyword::End) {
                if matches!(self.peek(), TokenKind::Eof) {
                    return self.err("`end`");
                }
                stmts.push(self.stmt()?);
            }
            return Ok(Stmt::Block(stmts));
        }
        if self.eat_kw(Keyword::If) {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_stmt = Box::new(self.stmt()?);
            let else_stmt = if self.eat_kw(Keyword::Else) {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            });
        }
        if self.eat_kw(Keyword::Case) || self.eat_kw(Keyword::Casez) {
            self.expect_punct("(")?;
            let expr = self.expr()?;
            self.expect_punct(")")?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.eat_kw(Keyword::Endcase) {
                if matches!(self.peek(), TokenKind::Eof) {
                    return self.err("`endcase`");
                }
                if self.eat_kw(Keyword::Default) {
                    self.eat_punct(":");
                    default = Some(Box::new(self.stmt()?));
                    continue;
                }
                let mut labels = vec![self.expr()?];
                while self.eat_punct(",") {
                    labels.push(self.expr()?);
                }
                self.expect_punct(":")?;
                let body = self.stmt()?;
                arms.push(CaseArm { labels, body });
            }
            return Ok(Stmt::Case {
                expr,
                arms,
                default,
            });
        }
        // assignment
        let lhs = self.lvalue()?;
        if self.eat_punct("<=") {
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::NonBlocking(lhs, rhs))
        } else if self.eat_punct("=") {
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            Ok(Stmt::Blocking(lhs, rhs))
        } else {
            self.err("`=` or `<=`")
        }
    }

    fn instance(&mut self) -> Result<Item, ParseError> {
        let module = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_punct(".")?;
                let pname = self.expect_ident()?;
                self.expect_punct("(")?;
                let v = self.expr()?;
                self.expect_punct(")")?;
                params.push((pname, v));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let conns = if matches!(self.peek(), TokenKind::Punct(".")) {
            let mut named = Vec::new();
            loop {
                self.expect_punct(".")?;
                let pname = self.expect_ident()?;
                self.expect_punct("(")?;
                let e = if matches!(self.peek(), TokenKind::Punct(")")) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(")")?;
                named.push((pname, e));
                if !self.eat_punct(",") {
                    break;
                }
            }
            PortConns::Named(named)
        } else if matches!(self.peek(), TokenKind::Punct(")")) {
            PortConns::Ordered(Vec::new())
        } else {
            let mut exprs = vec![self.expr()?];
            while self.eat_punct(",") {
                exprs.push(self.expr()?);
            }
            PortConns::Ordered(exprs)
        };
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        Ok(Item::Instance(Instance {
            module,
            name,
            params,
            conns,
        }))
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        if self.eat_punct("{") {
            let mut parts = vec![self.nested(Self::lvalue)?];
            while self.eat_punct(",") {
                parts.push(self.nested(Self::lvalue)?);
            }
            self.expect_punct("}")?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.expect_ident()?;
        if self.eat_punct("[") {
            let first = self.expr()?;
            if self.eat_punct(":") {
                let lsb = self.expr()?;
                self.expect_punct("]")?;
                Ok(LValue::Part(name, first, lsb))
            } else {
                self.expect_punct("]")?;
                Ok(LValue::Bit(name, first))
            }
        } else {
            Ok(LValue::Id(name))
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let cond = self.binary(0)?;
        let e = if self.eat_punct("?") {
            let a = self.expr()?;
            self.expect_punct(":")?;
            let b = self.expr()?;
            self.sink()?;
            Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b))
        } else {
            cond
        };
        self.end_chain(outer);
        Ok(e)
    }

    /// Precedence climbing over [`BINARY_OPS`]: parses a left-associative
    /// chain of operators binding at least as tightly as `min_prec`. One
    /// stack frame per precedence step instead of one function per
    /// level keeps each parenthesis level cheap on the stack.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut lhs = self.unary()?;
        loop {
            let next = BINARY_OPS.iter().find(|&&(p, _, prec)| {
                prec >= min_prec && matches!(self.peek(), TokenKind::Punct(q) if *q == p)
            });
            let Some(&(_, op, prec)) = next else {
                self.end_chain(outer);
                return Ok(lhs);
            };
            self.bump();
            let rhs = self.binary(prec + 1)?;
            self.sink()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let ops: &[(&str, UnaryOp)] = &[
            ("~&", UnaryOp::RedNand),
            ("~|", UnaryOp::RedNor),
            ("~^", UnaryOp::RedXnor),
            ("~", UnaryOp::Not),
            ("!", UnaryOp::LogicNot),
            ("-", UnaryOp::Neg),
            ("&", UnaryOp::RedAnd),
            ("|", UnaryOp::RedOr),
            ("^", UnaryOp::RedXor),
        ];
        for &(p, op) in ops {
            if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
                self.bump();
                let e = self.nested(Self::unary)?;
                return Ok(Expr::Unary(op, Box::new(e)));
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let outer = self.start_chain();
        let mut e = self.primary()?;
        while self.eat_punct("[") {
            let first = self.expr()?;
            if self.eat_punct(":") {
                let lsb = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::Part(Box::new(e), Box::new(first), Box::new(lsb));
            } else {
                self.expect_punct("]")?;
                e = Expr::Bit(Box::new(e), Box::new(first));
            }
            self.sink()?;
        }
        self.end_chain(outer);
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(Expr::Id(s))
            }
            TokenKind::Number { width, value } => {
                self.bump();
                Ok(Expr::Literal(Number { width, value }))
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.recurse(Self::ternary)?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Punct("{") => {
                self.bump();
                let first = self.expr()?;
                if self.eat_punct("{") {
                    // replication {N{expr, ...}}
                    let mut inner = vec![self.expr()?];
                    while self.eat_punct(",") {
                        inner.push(self.expr()?);
                    }
                    self.expect_punct("}")?;
                    self.expect_punct("}")?;
                    Ok(Expr::Repeat(Box::new(first), inner))
                } else {
                    let mut parts = vec![first];
                    while self.eat_punct(",") {
                        parts.push(self.expr()?);
                    }
                    self.expect_punct("}")?;
                    Ok(Expr::Concat(parts))
                }
            }
            _ => self.err("expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_module_with_params_and_instance() {
        let src = r#"
module child #(parameter W = 4) (input wire [W-1:0] a, output wire [W-1:0] y);
  assign y = ~a;
endmodule
module top(input wire [7:0] x, output wire [7:0] y);
  child #(.W(8)) c0 (.a(x), .y(y));
endmodule
"#;
        let f = parse_source(src).expect("parse");
        assert_eq!(f.modules.len(), 2);
        let top = f.module("top").expect("top exists");
        let inst = top.instances().next().expect("instance");
        assert_eq!(inst.module, "child");
        assert_eq!(inst.params.len(), 1);
    }

    #[test]
    fn parse_always_ff_with_reset() {
        let src = r#"
module d(input wire clk, input wire rst, input wire d, output reg q);
  always @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule
"#;
        let f = parse_source(src).expect("parse");
        let m = &f.modules[0];
        assert!(matches!(
            m.items[0],
            Item::Always(AlwaysBlock {
                sensitivity: Sensitivity::Edges(_),
                ..
            })
        ));
    }

    #[test]
    fn parse_case_statement() {
        let src = r#"
module c(input wire [1:0] s, output reg [3:0] y);
  always @(*) begin
    case (s)
      2'd0: y = 4'b0001;
      2'd1: y = 4'b0010;
      2'd2, 2'd3: y = 4'b0100;
      default: y = 4'b0000;
    endcase
  end
endmodule
"#;
        let f = parse_source(src).expect("parse");
        match &f.modules[0].items[0] {
            Item::Always(ab) => {
                let inner = match &ab.body {
                    Stmt::Block(stmts) => &stmts[0],
                    other => other,
                };
                match inner {
                    Stmt::Case { arms, default, .. } => {
                        assert_eq!(arms.len(), 3);
                        assert_eq!(arms[2].labels.len(), 2);
                        assert!(default.is_some());
                    }
                    other => panic!("expected case, got {other:?}"),
                }
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parse_concat_replication_partselect() {
        let src = r#"
module x(input wire [7:0] a, output wire [15:0] y);
  assign y = {2{a[7:4], a[3:0]}};
endmodule
"#;
        assert!(parse_source(src).is_ok());
    }

    #[test]
    fn parse_multi_net_declaration() {
        let src = "module m; wire [3:0] a, b, c; endmodule";
        let f = parse_source(src).expect("parse");
        let nets: Vec<_> = f.modules[0]
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Net(n) => Some(n.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nets, vec!["a", "b", "c"]);
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse_source("module m(input wire a) endmodule").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_source("modulo m; endmodule").is_err());
    }

    /// `assign y = (…(a)…);` with `parens` nested parentheses.
    fn nested_parens(parens: usize) -> String {
        format!(
            "module m(input wire a, output wire y); assign y = {}a{}; endmodule",
            "(".repeat(parens),
            ")".repeat(parens)
        )
    }

    /// `assign y = a + a + … + a;` with `ops` operators.
    fn chain(ops: usize) -> String {
        format!(
            "module m(input wire a, output wire y); assign y = {}; endmodule",
            vec!["a"; ops + 1].join(" + ")
        )
    }

    /// Runs `f` on a worker-sized stack: 2 MiB in an optimized build
    /// (see [`MAX_NESTING`]), 32 MiB in an unoptimized one, whose frames
    /// are several times larger.
    fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let mib = if cfg!(debug_assertions) { 32 } else { 2 };
        std::thread::Builder::new()
            .stack_size(mib << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("no stack overflow")
    }

    #[test]
    fn hostile_nesting_is_a_named_error() {
        on_worker_stack(hostile_nesting);
    }

    fn hostile_nesting() {
        let deep = 10_000;
        let sources = [
            nested_parens(deep),
            format!(
                "module m(input wire a, output wire y); assign y = {}a; endmodule",
                "~".repeat(deep)
            ),
            format!(
                "module m(input wire a, output reg y); always @(*) {}y = a;{} endmodule",
                "begin ".repeat(deep),
                " end".repeat(deep)
            ),
            format!(
                "module m(input wire a, output wire y); assign {}y{} = a; endmodule",
                "{".repeat(deep),
                "}".repeat(deep)
            ),
            chain(deep),
            format!(
                "module m(input wire [1:0] a, output wire y); assign y = a{}; endmodule",
                "[0]".repeat(deep)
            ),
        ];
        for src in &sources {
            let e = parse_source(src).expect_err("nesting beyond the limit");
            assert_eq!(e.kind, ParseErrorKind::RecursionLimit, "{e}");
            assert!(e.to_string().contains("nesting deeper than"), "{e}");
        }
    }

    #[test]
    fn nesting_limit_is_exact() {
        on_worker_stack(nesting_limit);
    }

    #[test]
    fn a_thousand_term_chain_survives_a_print_round_trip() {
        // The printer writes the chain back as nested parentheses, which
        // must re-read to the same tree.
        on_worker_stack(|| {
            let f = parse_source(&chain(999)).expect("a 1,000-term chain parses");
            let printed = crate::printer::print_source(&f);
            assert!(printed.contains(&"(".repeat(900)), "{printed}");
            assert_eq!(parse_source(&printed).expect("re-parses"), f);
        });
    }

    fn nesting_limit() {
        // The assign's expression is level 1; each parenthesis adds a
        // recursion level, each chained operator a tree level.
        for src in [nested_parens, chain] {
            assert!(parse_source(&src(MAX_NESTING - 1)).is_ok());
            assert_eq!(
                parse_source(&src(MAX_NESTING)).map_err(|e| e.kind),
                Err(ParseErrorKind::RecursionLimit)
            );
        }
        // A deep operand counts where the chain finally puts it: one
        // more operator sinks it past the limit.
        let deep = format!("{}a", "~".repeat(MAX_NESTING - 2));
        let with_tail = |tail: &str| {
            format!("module m(input wire a, output wire y); assign y = a + {deep}{tail}; endmodule")
        };
        assert!(parse_source(&with_tail("")).is_ok());
        assert_eq!(
            parse_source(&with_tail(" + a")).map_err(|e| e.kind),
            Err(ParseErrorKind::RecursionLimit)
        );
        // Sibling chains do not add up: each starts from its own level.
        let src = format!(
            "module m(input wire a, output wire y, output wire z); \
             assign y = {0}; assign z = {0}; endmodule",
            vec!["a"; MAX_NESTING].join(" ^ ")
        );
        assert!(parse_source(&src).is_ok());
    }

    #[test]
    fn precedence_of_ternary_and_or() {
        let src = "module m(input wire a, input wire b, input wire c, output wire y);\
                   assign y = a | b ? a & c : b ^ c; endmodule";
        let f = parse_source(src).expect("parse");
        match &f.modules[0].items[0] {
            Item::Assign(a) => assert!(matches!(a.rhs, Expr::Ternary(..))),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn ordered_port_connections() {
        let src = "module inv(input wire a, output wire y); assign y = ~a; endmodule\n\
                   module t(input wire x, output wire z); inv i0(x, z); endmodule";
        let f = parse_source(src).expect("parse");
        let inst = f.module("t").expect("t").instances().next().expect("i0");
        match &inst.conns {
            PortConns::Ordered(es) => assert_eq!(es.len(), 2),
            other => panic!("expected ordered, got {other:?}"),
        }
    }
}
