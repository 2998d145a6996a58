//! Recursive-descent parser for DML with R-like operator precedence.
//!
//! Precedence (loosest to tightest):
//! `|` < `&` < `!` < comparisons < `+ -` < `* /` < `%*% %% %/%` < `:`
//! < unary `-` < `^` < postfix (indexing, calls).

use super::ast::*;
use super::lexer::{tokenize, Token, TokenKind};
use sysds_common::{Result, ScalarValue, SysDsError};
use sysds_tensor::kernels::BinaryOp;

/// Parse a full DML program.
pub fn parse_program(src: &str) -> Result<Program> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut program = Program::default();
    while !p.at(&TokenKind::Eof) {
        p.skip_separators();
        if p.at(&TokenKind::Eof) {
            break;
        }
        if p.peek_function_def() {
            program.functions.push(p.function_def()?);
        } else {
            program.statements.push(p.statement()?);
        }
    }
    Ok(program)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn cur(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn at(&self, k: &TokenKind) -> bool {
        self.kind() == k
    }

    fn peek_kind(&self, ahead: usize) -> &TokenKind {
        let i = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> SysDsError {
        let t = self.cur();
        SysDsError::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, k: TokenKind) -> Result<Token> {
        if self.kind() == &k {
            Ok(self.bump())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                k.describe(),
                self.kind().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn skip_separators(&mut self) {
        while self.at(&TokenKind::Semicolon) {
            self.bump();
        }
    }

    /// Lookahead: `IDENT = function (`.
    fn peek_function_def(&self) -> bool {
        matches!(self.kind(), TokenKind::Ident(_))
            && self.peek_kind(1) == &TokenKind::Assign
            && self.peek_kind(2) == &TokenKind::Function
    }

    // ---- statements --------------------------------------------------

    fn statement(&mut self) -> Result<Stmt> {
        let stmt = match self.kind().clone() {
            TokenKind::If => self.if_stmt()?,
            TokenKind::For => self.for_stmt(false)?,
            TokenKind::Parfor => self.for_stmt(true)?,
            TokenKind::While => self.while_stmt()?,
            TokenKind::LBracket => self.multi_assign()?,
            TokenKind::Ident(name) => {
                match self.peek_kind(1) {
                    TokenKind::Assign => {
                        self.bump(); // ident
                        self.bump(); // =
                        let value = self.expr()?;
                        Stmt::Assign {
                            target: name,
                            value,
                        }
                    }
                    TokenKind::LBracket => {
                        // Could be `X[i,j] = e` (left indexing) or an
                        // expression statement starting with an index.
                        let save = self.pos;
                        self.bump(); // ident
                        self.bump(); // [
                        let (rows, cols) = self.index_pair()?;
                        self.expect(TokenKind::RBracket)?;
                        if self.at(&TokenKind::Assign) {
                            self.bump();
                            let value = self.expr()?;
                            Stmt::IndexAssign {
                                target: name,
                                rows,
                                cols,
                                value,
                            }
                        } else {
                            self.pos = save;
                            Stmt::ExprStmt(self.expr()?)
                        }
                    }
                    _ => Stmt::ExprStmt(self.expr()?),
                }
            }
            _ => Stmt::ExprStmt(self.expr()?),
        };
        self.skip_separators();
        Ok(stmt)
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        if self.at(&TokenKind::LBrace) {
            self.bump();
            let mut stmts = Vec::new();
            loop {
                self.skip_separators();
                if self.at(&TokenKind::RBrace) {
                    self.bump();
                    break;
                }
                if self.at(&TokenKind::Eof) {
                    return Err(self.err("unterminated block (missing '}')"));
                }
                stmts.push(self.statement()?);
            }
            Ok(stmts)
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        self.expect(TokenKind::If)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = self.block()?;
        let else_branch = if self.at(&TokenKind::Else) {
            self.bump();
            if self.at(&TokenKind::If) {
                vec![self.if_stmt()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn for_stmt(&mut self, parallel: bool) -> Result<Stmt> {
        if parallel {
            self.expect(TokenKind::Parfor)?;
        } else {
            self.expect(TokenKind::For)?;
        }
        self.expect(TokenKind::LParen)?;
        let var = self.expect_ident()?;
        self.expect(TokenKind::In)?;
        let range = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        let (from, to, step) = match range {
            Expr::Seq(a, b) => (*a, *b, None),
            Expr::Call { ref name, ref args } if name == "seq" && (2..=3).contains(&args.len()) => {
                let mut it = args.iter().map(|a| a.value.clone());
                let from = it.next().unwrap();
                let to = it.next().unwrap();
                (from, to, it.next())
            }
            _ => return Err(self.err("for/parfor range must be 'a:b' or seq(a, b[, step])")),
        };
        if parallel {
            if step.is_some() {
                return Err(self.err("parfor does not support a step expression"));
            }
            Ok(Stmt::Parfor {
                var,
                from,
                to,
                body,
            })
        } else {
            Ok(Stmt::For {
                var,
                from,
                to,
                step,
                body,
            })
        }
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        self.expect(TokenKind::While)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body })
    }

    fn multi_assign(&mut self) -> Result<Stmt> {
        self.expect(TokenKind::LBracket)?;
        let mut targets = vec![self.expect_ident()?];
        while self.at(&TokenKind::Comma) {
            self.bump();
            targets.push(self.expect_ident()?);
        }
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Assign)?;
        let value = self.expr()?;
        if !matches!(value, Expr::Call { .. }) {
            return Err(self.err("multi-assignment requires a function call on the right"));
        }
        Ok(Stmt::MultiAssign { targets, value })
    }

    // ---- function definitions ----------------------------------------

    fn function_def(&mut self) -> Result<FunctionDef> {
        let name = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        self.expect(TokenKind::Function)?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.at(&TokenKind::RParen) {
            let (ty, pname) = self.typed_name()?;
            let default = if self.at(&TokenKind::Assign) {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            params.push((pname, ty, default));
            if self.at(&TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        let mut outputs = Vec::new();
        if self.at(&TokenKind::Return) {
            self.bump();
            self.expect(TokenKind::LParen)?;
            while !self.at(&TokenKind::RParen) {
                let (_ty, oname) = self.typed_name()?;
                outputs.push(oname);
                if self.at(&TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let body = self.block()?;
        Ok(FunctionDef {
            name,
            params,
            outputs,
            body,
        })
    }

    /// Parse `[type] name`: `matrix[double] X`, `double reg`, or bare `X`.
    fn typed_name(&mut self) -> Result<(String, String)> {
        let first = self.expect_ident()?;
        // `matrix[double] X` / `frame[string] F`
        if self.at(&TokenKind::LBracket) {
            self.bump();
            let inner = self.expect_ident()?;
            self.expect(TokenKind::RBracket)?;
            let name = self.expect_ident()?;
            return Ok((format!("{first}[{inner}]"), name));
        }
        // `double reg`
        if let TokenKind::Ident(_) = self.kind() {
            let name = self.expect_ident()?;
            return Ok((first, name));
        }
        // untyped
        Ok(("auto".to_string(), first))
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::Or) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Cell(BinaryOp::Or), Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.at(&TokenKind::And) {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::Binary(BinOp::Cell(BinaryOp::And), Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.at(&TokenKind::Not) {
            self.bump();
            let inner = self.not_expr()?;
            Ok(Expr::Unary(UnOp::Not, Box::new(inner)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.kind() {
            TokenKind::Eq => BinOp::Cell(BinaryOp::Eq),
            TokenKind::Neq => BinOp::Cell(BinaryOp::Neq),
            TokenKind::Lt => BinOp::Cell(BinaryOp::Lt),
            TokenKind::Le => BinOp::Cell(BinaryOp::Le),
            TokenKind::Gt => BinOp::Cell(BinaryOp::Gt),
            TokenKind::Ge => BinOp::Cell(BinaryOp::Ge),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.kind() {
                TokenKind::Plus => BinOp::Cell(BinaryOp::Add),
                TokenKind::Minus => BinOp::Cell(BinaryOp::Sub),
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.special_expr()?;
        loop {
            let op = match self.kind() {
                TokenKind::Star => BinOp::Cell(BinaryOp::Mul),
                TokenKind::Slash => BinOp::Cell(BinaryOp::Div),
                _ => break,
            };
            self.bump();
            let rhs = self.special_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn special_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.range_expr()?;
        loop {
            let op = match self.kind() {
                TokenKind::MatMul => BinOp::MatMul,
                TokenKind::Mod => BinOp::Cell(BinaryOp::Mod),
                TokenKind::IntDiv => BinOp::Cell(BinaryOp::IntDiv),
                _ => break,
            };
            self.bump();
            let rhs = self.range_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn range_expr(&mut self) -> Result<Expr> {
        let lhs = self.unary_expr()?;
        if self.at(&TokenKind::Colon) {
            self.bump();
            let rhs = self.unary_expr()?;
            Ok(Expr::Seq(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.at(&TokenKind::Minus) {
            self.bump();
            let inner = self.unary_expr()?;
            // Fold negation of literals immediately.
            return Ok(match inner {
                Expr::Const(ScalarValue::F64(v)) => Expr::num(-v),
                Expr::Const(ScalarValue::I64(v)) => Expr::int(-v),
                other => Expr::Unary(UnOp::Neg, Box::new(other)),
            });
        }
        if self.at(&TokenKind::Plus) {
            self.bump();
            return self.unary_expr();
        }
        self.power_expr()
    }

    fn power_expr(&mut self) -> Result<Expr> {
        let base = self.postfix_expr()?;
        if self.at(&TokenKind::Caret) {
            self.bump();
            // right-associative; exponent may itself be unary (-1)
            let exp = self.unary_expr()?;
            Ok(Expr::Binary(
                BinOp::Cell(BinaryOp::Pow),
                Box::new(base),
                Box::new(exp),
            ))
        } else {
            Ok(base)
        }
    }

    /// Line of the most recently consumed token (for newline-sensitive
    /// postfix parsing, like R: `x * 0.1\n[B] = ...` must NOT parse the
    /// bracket as indexing into `0.1`).
    fn prev_line(&self) -> usize {
        self.tokens[self.pos.saturating_sub(1)].line
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            match self.kind() {
                TokenKind::LBracket if self.cur().line == self.prev_line() => {
                    self.bump();
                    let (rows, cols) = self.index_pair()?;
                    self.expect(TokenKind::RBracket)?;
                    e = Expr::Index {
                        target: Box::new(e),
                        rows,
                        cols,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// Parse `rows, cols` inside `[...]`, each possibly empty or a range.
    fn index_pair(&mut self) -> Result<(IndexExpr, IndexExpr)> {
        let rows = self.index_dim()?;
        let cols = if self.at(&TokenKind::Comma) {
            self.bump();
            self.index_dim()?
        } else {
            IndexExpr::All
        };
        Ok((rows, cols))
    }

    fn index_dim(&mut self) -> Result<IndexExpr> {
        if self.at(&TokenKind::Comma) || self.at(&TokenKind::RBracket) {
            return Ok(IndexExpr::All);
        }
        let e = self.expr()?;
        Ok(match e {
            Expr::Seq(a, b) => IndexExpr::Range(a, b),
            other => IndexExpr::Single(Box::new(other)),
        })
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.kind().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::int(v))
            }
            TokenKind::Number(v) => {
                self.bump();
                Ok(Expr::num(v))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Const(ScalarValue::Str(s)))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Const(ScalarValue::Bool(true)))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Const(ScalarValue::Bool(false)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) && self.cur().line == self.prev_line() {
                    self.bump();
                    let mut args = Vec::new();
                    while !self.at(&TokenKind::RParen) {
                        args.push(self.call_arg()?);
                        if self.at(&TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("unexpected {}", other.describe()))),
        }
    }

    fn call_arg(&mut self) -> Result<Arg> {
        // named argument: IDENT '=' expr (but not '==')
        if let TokenKind::Ident(name) = self.kind().clone() {
            if self.peek_kind(1) == &TokenKind::Assign {
                self.bump();
                self.bump();
                let value = self.expr()?;
                return Ok(Arg {
                    name: Some(name),
                    value,
                });
            }
        }
        Ok(Arg {
            name: None,
            value: self.expr()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(src: &str) -> Stmt {
        parse_program(src)
            .unwrap()
            .statements
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn simple_assignment() {
        let s = stmt("x = 1 + 2 * 3");
        let Stmt::Assign { target, value } = s else {
            panic!()
        };
        assert_eq!(target, "x");
        // precedence: 1 + (2*3)
        assert_eq!(
            value,
            Expr::Binary(
                BinOp::Cell(BinaryOp::Add),
                Box::new(Expr::int(1)),
                Box::new(Expr::Binary(
                    BinOp::Cell(BinaryOp::Mul),
                    Box::new(Expr::int(2)),
                    Box::new(Expr::int(3))
                ))
            )
        );
    }

    #[test]
    fn matmul_precedence_tighter_than_mul() {
        // a * B %*% C parses as a * (B %*% C)
        let Stmt::Assign { value, .. } = stmt("x = a * B %*% C") else {
            panic!()
        };
        let Expr::Binary(BinOp::Cell(BinaryOp::Mul), _, rhs) = value else {
            panic!("{value:?}")
        };
        assert!(matches!(*rhs, Expr::Binary(BinOp::MatMul, _, _)));
    }

    #[test]
    fn power_is_right_associative_and_tight() {
        let Stmt::Assign { value, .. } = stmt("x = -2 ^ 2") else {
            panic!()
        };
        // R semantics: -(2^2)
        assert!(matches!(value, Expr::Unary(UnOp::Neg, _)));
        let Stmt::Assign { value, .. } = stmt("x = 2 ^ 3 ^ 2") else {
            panic!()
        };
        let Expr::Binary(BinOp::Cell(BinaryOp::Pow), _, rhs) = value else {
            panic!()
        };
        assert!(matches!(
            *rhs,
            Expr::Binary(BinOp::Cell(BinaryOp::Pow), _, _)
        ));
    }

    #[test]
    fn indexing_forms() {
        let Stmt::Assign { value, .. } = stmt("y = X[1:5, 2]") else {
            panic!()
        };
        let Expr::Index { rows, cols, .. } = value else {
            panic!()
        };
        assert!(matches!(rows, IndexExpr::Range(_, _)));
        assert!(matches!(cols, IndexExpr::Single(_)));

        let Stmt::Assign { value, .. } = stmt("y = X[, k]") else {
            panic!()
        };
        let Expr::Index { rows, cols, .. } = value else {
            panic!()
        };
        assert!(matches!(rows, IndexExpr::All));
        assert!(matches!(cols, IndexExpr::Single(_)));

        let Stmt::Assign { value, .. } = stmt("y = X[i, ]") else {
            panic!()
        };
        let Expr::Index { rows, cols, .. } = value else {
            panic!()
        };
        assert!(matches!(rows, IndexExpr::Single(_)));
        assert!(matches!(cols, IndexExpr::All));
    }

    #[test]
    fn left_indexing_assignment() {
        let s = stmt("B[, i] = v");
        assert!(matches!(s, Stmt::IndexAssign { .. }));
    }

    #[test]
    fn multi_assignment() {
        let s = stmt("[B, S] = steplm(X=X, y=y)");
        let Stmt::MultiAssign { targets, value } = s else {
            panic!()
        };
        assert_eq!(targets, vec!["B".to_string(), "S".to_string()]);
        let Expr::Call { name, args } = value else {
            panic!()
        };
        assert_eq!(name, "steplm");
        assert_eq!(args[0].name.as_deref(), Some("X"));
        // multi-assign requires a call
        assert!(parse_program("[a, b] = 3").is_err());
    }

    #[test]
    fn if_else_chain() {
        let s = stmt("if (x > 1) { y = 1 } else if (x > 0) y = 2 else { y = 3 }");
        let Stmt::If { else_branch, .. } = s else {
            panic!()
        };
        assert_eq!(else_branch.len(), 1);
        assert!(matches!(else_branch[0], Stmt::If { .. }));
    }

    #[test]
    fn for_with_range_and_seq() {
        let s = stmt("for (i in 1:10) x = i");
        assert!(matches!(s, Stmt::For { step: None, .. }));
        let s = stmt("for (i in seq(1, 10, 2)) x = i");
        assert!(matches!(s, Stmt::For { step: Some(_), .. }));
        assert!(parse_program("for (i in X) x = i").is_err());
    }

    #[test]
    fn parfor_parses() {
        let s = stmt("parfor (i in 1:n) { B[, i] = f(i) }");
        let Stmt::Parfor { var, body, .. } = s else {
            panic!()
        };
        assert_eq!(var, "i");
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn while_loop() {
        let s = stmt("while (continue) { i = i + 1 }");
        assert!(matches!(s, Stmt::While { .. }));
    }

    #[test]
    fn function_definition_typed() {
        let p = parse_program(
            "m_lm = function(matrix[double] X, double reg = 0.001) return (matrix[double] B) { B = X }",
        )
        .unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "m_lm");
        assert_eq!(
            f.params[0],
            ("X".to_string(), "matrix[double]".to_string(), None)
        );
        assert_eq!(f.params[1].0, "reg");
        assert!(f.params[1].2.is_some());
        assert_eq!(f.outputs, vec!["B".to_string()]);
    }

    #[test]
    fn function_definition_untyped() {
        let p = parse_program("f = function(X, y) return (B) { B = X }").unwrap();
        let f = &p.functions[0];
        assert_eq!(f.params[0].0, "X");
        assert_eq!(f.params[0].1, "auto");
    }

    #[test]
    fn call_statement() {
        let s = stmt(r#"print("hello")"#);
        assert!(matches!(s, Stmt::ExprStmt(Expr::Call { .. })));
    }

    #[test]
    fn named_argument_not_confused_with_equality() {
        let Stmt::ExprStmt(Expr::Call { args, .. }) = stmt("f(a == b, c = 1)") else {
            panic!()
        };
        assert_eq!(args[0].name, None);
        assert_eq!(args[1].name.as_deref(), Some("c"));
    }

    #[test]
    fn comparison_and_logic_precedence() {
        // a > 1 & b < 2 parses as (a>1) & (b<2)
        let Stmt::Assign { value, .. } = stmt("x = a > 1 & b < 2") else {
            panic!()
        };
        let Expr::Binary(BinOp::Cell(BinaryOp::And), l, r) = value else {
            panic!()
        };
        assert!(matches!(*l, Expr::Binary(BinOp::Cell(BinaryOp::Gt), _, _)));
        assert!(matches!(*r, Expr::Binary(BinOp::Cell(BinaryOp::Lt), _, _)));
    }

    #[test]
    fn unary_not() {
        let Stmt::Assign { value, .. } = stmt("x = !fixed & y") else {
            panic!()
        };
        // ! binds looser than comparison but tighter than &? No: per our
        // grammar !fixed & y = (!fixed) & y since not_expr is above and.
        let Expr::Binary(BinOp::Cell(BinaryOp::And), l, _) = value else {
            panic!("{value:?}")
        };
        assert!(matches!(*l, Expr::Unary(UnOp::Not, _)));
    }

    #[test]
    fn range_in_expression() {
        let Stmt::Assign { value, .. } = stmt("x = 1:5") else {
            panic!()
        };
        assert!(matches!(value, Expr::Seq(_, _)));
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_program("x = (1 + ").unwrap_err();
        assert!(matches!(err, SysDsError::Parse { .. }));
        let err = parse_program("if x > 1 { }").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn arrow_assignment() {
        let s = stmt("x <- 3");
        assert!(matches!(s, Stmt::Assign { .. }));
    }

    #[test]
    fn newline_separates_postfix_from_next_statement() {
        // `x = a * 0.1` followed by `[B, c] = f(y)` on the next line must
        // not parse the bracket as indexing into `0.1` (R semantics).
        let p = parse_program("x = a * 0.1\n[B, c] = steplm(y)").unwrap();
        assert_eq!(p.statements.len(), 2);
        assert!(matches!(p.statements[1], Stmt::MultiAssign { .. }));
        // Same-line indexing still works.
        let p = parse_program("x = a[1, 2]").unwrap();
        let Stmt::Assign { value, .. } = &p.statements[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Index { .. }));
    }

    #[test]
    fn newline_separates_call_parens() {
        // `y = a` then `(1 + 2)` must not become a call `a(1 + 2)`.
        let p = parse_program("y = a\n(1 + 2)").unwrap();
        assert_eq!(p.statements.len(), 2);
        assert!(matches!(p.statements[0], Stmt::Assign { .. }));
    }

    #[test]
    fn semicolons_optional() {
        let p = parse_program("a = 1; b = 2\nc = 3;").unwrap();
        assert_eq!(p.statements.len(), 3);
    }
}
