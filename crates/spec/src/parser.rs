//! Parser for the textual form of semantic checks.
//!
//! The concrete syntax follows the paper's listings:
//!
//! ```text
//! let r1:VM, r2:NIC in
//! conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location
//! ```
//!
//! Resource types may be written either as short aliases (`VM`, `NIC`) or as
//! full provider names (`azurerm_linux_virtual_machine`).

use crate::ast::{Binding, Check, CmpOp, Expr, TypeSpec, Val};
use std::fmt;
use zodiac_kb::long_name;
use zodiac_model::{Symbol, Value};

/// A parse failure with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Sym(&'static str),
}

fn tokenize(src: &str) -> Result<Vec<Tok>, ParseError> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | ':' | '.' => {
                out.push(Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ':' => ":",
                    _ => ".",
                }));
                i += 1;
            }
            '-' if chars.get(i + 1) == Some(&'>') => {
                out.push(Tok::Sym("->"));
                i += 2;
            }
            '-' if chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) => {
                let start = i + 1;
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let n: i64 = text
                    .parse()
                    .map_err(|_| ParseError(format!("bad int {text}")))?;
                out.push(Tok::Int(-n));
            }
            '=' if chars.get(i + 1) == Some(&'>') => {
                out.push(Tok::Sym("=>"));
                i += 2;
            }
            '=' if chars.get(i + 1) == Some(&'=') => {
                out.push(Tok::Sym("=="));
                i += 2;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push(Tok::Sym("!="));
                i += 2;
            }
            '!' => {
                out.push(Tok::Sym("!"));
                i += 1;
            }
            '<' if chars.get(i + 1) == Some(&'=') => {
                out.push(Tok::Sym("<="));
                i += 2;
            }
            '>' if chars.get(i + 1) == Some(&'=') => {
                out.push(Tok::Sym(">="));
                i += 2;
            }
            '<' => {
                out.push(Tok::Sym("<"));
                i += 1;
            }
            '>' => {
                out.push(Tok::Sym(">"));
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let mut j = i + 1;
                let mut text = String::new();
                loop {
                    match chars.get(j) {
                        None => return Err(ParseError("unterminated string".into())),
                        Some(&ch) if ch == quote => break,
                        // Backslash escapes the next character (the printer
                        // emits `\'` and `\\`; any escaped char is accepted).
                        Some('\\') => match chars.get(j + 1) {
                            Some(&esc) => {
                                text.push(esc);
                                j += 2;
                            }
                            None => return Err(ParseError("unterminated string".into())),
                        },
                        Some(&ch) => {
                            text.push(ch);
                            j += 1;
                        }
                    }
                }
                out.push(Tok::Str(text));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let n: i64 = text
                    .parse()
                    .map_err(|_| ParseError(format!("bad int {text}")))?;
                out.push(Tok::Int(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            other => return Err(ParseError(format!("unexpected char {other:?}"))),
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(Tok::Sym(t)) if t == s => Ok(()),
            other => Err(ParseError(format!("expected '{s}', found {other:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(ParseError(format!("expected {what}, found {other:?}"))),
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `var(.seg)+` — returns (var, dotted rest).
    fn dotted(&mut self) -> Result<(String, String), ParseError> {
        let var = self.ident("variable")?;
        let mut segs: Vec<String> = Vec::new();
        while self.eat_sym(".") {
            match self.bump() {
                Some(Tok::Ident(s)) => segs.push(s),
                Some(Tok::Int(n)) => segs.push(n.to_string()),
                other => {
                    return Err(ParseError(format!(
                        "expected path segment, found {other:?}"
                    )))
                }
            }
        }
        if segs.is_empty() {
            return Err(ParseError(format!("expected attribute after {var}")));
        }
        Ok((var, segs.join(".")))
    }

    fn type_spec(&mut self) -> Result<TypeSpec, ParseError> {
        let neg = self.eat_sym("!");
        let t = self.ident("type name")?;
        let full = Symbol::intern(long_name(&t));
        Ok(if neg {
            TypeSpec::Not(full)
        } else {
            TypeSpec::Is(full)
        })
    }

    fn val(&mut self) -> Result<Val, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Int(n)) => {
                self.bump();
                Ok(Val::Lit(Value::Int(n)))
            }
            Some(Tok::Str(s)) => {
                self.bump();
                Ok(Val::Lit(Value::Str(s)))
            }
            Some(Tok::Ident(id)) => match id.as_str() {
                "null" => {
                    self.bump();
                    Ok(Val::Lit(Value::Null))
                }
                "true" | "false" => {
                    self.bump();
                    Ok(Val::Lit(Value::Bool(id == "true")))
                }
                "indegree" | "outdegree" => {
                    self.bump();
                    self.expect_sym("(")?;
                    let var = Symbol::intern(&self.ident("variable")?);
                    self.expect_sym(",")?;
                    let tau = self.type_spec()?;
                    self.expect_sym(")")?;
                    Ok(if id == "indegree" {
                        Val::InDegree { var, tau }
                    } else {
                        Val::OutDegree { var, tau }
                    })
                }
                "length" => {
                    self.bump();
                    self.expect_sym("(")?;
                    let inner = self.val()?;
                    self.expect_sym(")")?;
                    Ok(Val::Length(Box::new(inner)))
                }
                _ => {
                    let (var, attr) = self.dotted()?;
                    Ok(Val::Endpoint {
                        var: Symbol::intern(&var),
                        attr: Symbol::intern(&attr),
                    })
                }
            },
            other => Err(ParseError(format!("expected value, found {other:?}"))),
        }
    }

    fn conn_edge(&mut self) -> Result<Expr, ParseError> {
        let (src, in_endpoint) = self.dotted()?;
        self.expect_sym("->")?;
        let (dst, out_attr) = self.dotted()?;
        Ok(Expr::Conn {
            src: Symbol::intern(&src),
            in_endpoint: Symbol::intern(&in_endpoint),
            dst: Symbol::intern(&dst),
            out_attr: Symbol::intern(&out_attr),
        })
    }

    fn path_edge(&mut self) -> Result<Expr, ParseError> {
        let src = Symbol::intern(&self.ident("variable")?);
        self.expect_sym("->")?;
        let dst = Symbol::intern(&self.ident("variable")?);
        Ok(Expr::Path { src, dst })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let negated = self.eat_sym("!");
        match self.peek().cloned() {
            Some(Tok::Ident(id)) => match id.as_str() {
                "conn" if self.lookahead_call() => {
                    self.bump();
                    self.expect_sym("(")?;
                    let e = self.conn_edge()?;
                    self.expect_sym(")")?;
                    if negated {
                        return Err(ParseError("negated conn is not in the grammar".into()));
                    }
                    Ok(e)
                }
                "path" if self.lookahead_call() => {
                    self.bump();
                    self.expect_sym("(")?;
                    let e = self.path_edge()?;
                    self.expect_sym(")")?;
                    if negated {
                        return Err(ParseError("negated path is not in the grammar".into()));
                    }
                    Ok(e)
                }
                "coconn" if self.lookahead_call() => {
                    self.bump();
                    self.expect_sym("(")?;
                    let first = self.conn_edge()?;
                    self.expect_sym(",")?;
                    let second = self.conn_edge()?;
                    self.expect_sym(")")?;
                    Ok(Expr::CoConn {
                        first: Box::new(first),
                        second: Box::new(second),
                    })
                }
                "copath" if self.lookahead_call() => {
                    self.bump();
                    self.expect_sym("(")?;
                    let first = self.path_edge()?;
                    self.expect_sym(",")?;
                    let second = self.path_edge()?;
                    self.expect_sym(")")?;
                    Ok(Expr::CoPath {
                        first: Box::new(first),
                        second: Box::new(second),
                    })
                }
                "overlap" | "contain" if self.lookahead_call() => {
                    self.bump();
                    self.expect_sym("(")?;
                    let lhs = self.val()?;
                    self.expect_sym(",")?;
                    let rhs = self.val()?;
                    self.expect_sym(")")?;
                    Ok(Expr::Cmp {
                        op: if id == "overlap" {
                            CmpOp::Overlap
                        } else {
                            CmpOp::Contain
                        },
                        lhs,
                        rhs,
                        negated,
                    })
                }
                _ => self.cmp_expr(negated),
            },
            _ => self.cmp_expr(negated),
        }
    }

    fn lookahead_call(&self) -> bool {
        matches!(self.toks.get(self.pos + 1), Some(Tok::Sym("(")))
    }

    fn cmp_expr(&mut self, negated: bool) -> Result<Expr, ParseError> {
        let lhs = self.val()?;
        let op = match self.bump() {
            Some(Tok::Sym("==")) => CmpOp::Eq,
            Some(Tok::Sym("!=")) => CmpOp::Ne,
            Some(Tok::Sym("<=")) => CmpOp::Le,
            Some(Tok::Sym(">=")) => CmpOp::Ge,
            Some(Tok::Sym("<")) => CmpOp::Lt,
            Some(Tok::Sym(">")) => CmpOp::Gt,
            other => return Err(ParseError(format!("expected comparison, found {other:?}"))),
        };
        let rhs = self.val()?;
        Ok(Expr::Cmp {
            op,
            lhs,
            rhs,
            negated,
        })
    }
}

/// Parses a semantic check from its textual form.
pub fn parse_check(src: &str) -> Result<Check, ParseError> {
    let toks = tokenize(src)?;
    let mut p = P { toks, pos: 0 };
    match p.bump() {
        Some(Tok::Ident(kw)) if kw == "let" => {}
        other => return Err(ParseError(format!("expected 'let', found {other:?}"))),
    }
    let mut bindings = Vec::new();
    loop {
        let var = p.ident("variable")?;
        p.expect_sym(":")?;
        let t = p.ident("type")?;
        bindings.push(Binding {
            var: Symbol::intern(&var),
            rtype: Symbol::intern(long_name(&t)),
        });
        if !p.eat_sym(",") {
            break;
        }
        // Allow a trailing comma before `in`, as in the paper's listings.
        if matches!(p.peek(), Some(Tok::Ident(kw)) if kw == "in") {
            break;
        }
    }
    match p.bump() {
        Some(Tok::Ident(kw)) if kw == "in" => {}
        other => return Err(ParseError(format!("expected 'in', found {other:?}"))),
    }
    let cond = p.expr()?;
    p.expect_sym("=>")?;
    let stmt = p.expr()?;
    if p.peek().is_some() {
        return Err(ParseError(format!("trailing tokens: {:?}", p.peek())));
    }
    // All variables used must be bound.
    for var in cond.atoms().chain(stmt.atoms()).flat_map(used_vars) {
        if !bindings.iter().any(|b| b.var == var) {
            return Err(ParseError(format!("unbound variable: {var}")));
        }
    }
    Ok(Check {
        bindings,
        cond,
        stmt,
    })
}

/// The variables an atom reads, in printing order.
fn used_vars(atom: &Expr) -> Vec<Symbol> {
    match atom {
        Expr::Conn { src, dst, .. } | Expr::Path { src, dst } => vec![*src, *dst],
        _ => atom
            .operands()
            .filter_map(|v| match v {
                Val::Endpoint { var, .. }
                | Val::InDegree { var, .. }
                | Val::OutDegree { var, .. } => Some(*var),
                _ => None,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example_vm_nic_location() {
        let c = parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
        )
        .unwrap();
        assert_eq!(c.bindings[0].rtype, "azurerm_linux_virtual_machine");
        assert!(matches!(c.cond, Expr::Conn { .. }));
        assert!(matches!(
            c.stmt,
            Expr::Cmp {
                op: CmpOp::Eq,
                negated: false,
                ..
            }
        ));
    }

    #[test]
    fn fingerprint_is_stable_and_separates_distinct_checks() {
        let a = parse_check("let r:VM in r.priority == 'Spot' => r.evict_policy != null").unwrap();
        let b = parse_check("let r:VM in r.priority == 'Spot' => r.evict_policy == null").unwrap();
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Identity survives a print/parse round trip.
        let reparsed = parse_check(&a.canonical()).unwrap();
        assert_eq!(a.fingerprint(), reparsed.fingerprint());
    }

    #[test]
    fn parses_spot_vm_check() {
        let c = parse_check("let r:VM in r.priority == 'Spot' => r.evict_policy != null").unwrap();
        assert_eq!(c.bindings.len(), 1);
        assert!(matches!(
            &c.stmt,
            Expr::Cmp {
                op: CmpOp::Ne,
                rhs: Val::Lit(Value::Null),
                ..
            }
        ));
    }

    #[test]
    fn parses_degree_checks() {
        let c = parse_check("let r:VM in r.size == 'Standard_F2s_v2' => indegree(r, NIC) <= 2")
            .unwrap();
        assert!(matches!(
            &c.stmt,
            Expr::Cmp {
                op: CmpOp::Le,
                lhs: Val::InDegree { .. },
                ..
            }
        ));
        let c2 = parse_check(
            "let r1:GW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => outdegree(r2, !GW) == 0",
        )
        .unwrap();
        match &c2.stmt {
            Expr::Cmp {
                lhs: Val::OutDegree { tau, .. },
                ..
            } => assert!(tau.negated()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_overlap_negated() {
        let c = parse_check(
            "let r1:SUBNET, r2:SUBNET, r3:VPC in \
             coconn(r1.virtual_network_name -> r3.name, r2.virtual_network_name -> r3.name) \
             => !overlap(r1.address_prefixes, r2.address_prefixes)",
        )
        .unwrap();
        assert!(matches!(
            &c.stmt,
            Expr::Cmp {
                op: CmpOp::Overlap,
                negated: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_copath() {
        let c = parse_check("let r1:NIC, r2:NIC, r3:VPC in copath(r1 -> r3, r2 -> r3) => r1.location == r2.location").unwrap();
        assert!(matches!(c.cond, Expr::CoPath { .. }));
    }

    #[test]
    fn display_roundtrips() {
        for src in [
            "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
            "let r1:GW, r2:SUBNET in conn(r1.ip_configuration.subnet_id -> r2.id) => outdegree(r2, !GW) == 0",
            "let r1:SUBNET, r2:SUBNET, r3:VPC in coconn(r1.virtual_network_name -> r3.name, r2.virtual_network_name -> r3.name) => !overlap(r1.address_prefixes, r2.address_prefixes)",
            "let r:SA in r.account_tier == 'Premium' => r.account_replication_type != 'GZRS'",
        ] {
            let c = parse_check(src).unwrap();
            let rendered = c.to_string();
            let again = parse_check(&rendered).unwrap();
            assert_eq!(c, again, "roundtrip failed for: {src} -> {rendered}");
        }
    }

    #[test]
    fn rejects_unbound_variable() {
        let err = parse_check("let r:VM in r.priority == 'Spot' => q.x != null").unwrap_err();
        assert!(err.0.contains("unbound"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_check("not a check").is_err());
        assert!(parse_check("let r:VM in r.a == ").is_err());
        assert!(parse_check("let r:VM in r.a == 'x' => r.b == 'y' extra").is_err());
    }

    #[test]
    fn parses_full_type_names() {
        let c = parse_check(
            "let r:azurerm_storage_account in r.account_tier == 'Premium' => r.access_tier == 'Hot'",
        )
        .unwrap();
        assert_eq!(c.bindings[0].rtype, "azurerm_storage_account");
    }

    #[test]
    fn parses_length_and_bools() {
        let c =
            parse_check("let r:GW in r.active_active == true => length(r.ip_configuration) >= 2")
                .unwrap();
        assert!(matches!(
            &c.stmt,
            Expr::Cmp {
                lhs: Val::Length(_),
                op: CmpOp::Ge,
                ..
            }
        ));
    }
}
