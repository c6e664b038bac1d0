//! Wire codec for [`History`] and [`Verdict`]: a line-oriented text grammar for
//! histories (the request side) and a stable JSON rendering for verdicts (the
//! response side).
//!
//! The text grammar mirrors the `Schedule` `Display`/`parse` style in `rlt-mp`:
//! one operation per line, `#` comment lines and blank lines ignored, and parse
//! errors carrying the 1-based line number of the offending line. A formatted
//! history round-trips through [`parse_history`] bit-identically, which the
//! proptest pin in `tests/wire.rs` holds in place.
//!
//! Grammar, one operation per line:
//!
//! ```text
//! op<id> p<process> R<register> write <value> @ t<inv>..t<resp>
//! op<id> p<process> R<register> read  <value> @ t<inv>..
//! ```
//!
//! A trailing `t<resp>` is omitted for pending operations. Read values use `?`
//! for a pending/unobserved return ([`OpKind::Read`]`(None)`). Values use the
//! [`Value`] `Display` forms: `init`, `⊥` (accepted also as `bot`), `7`,
//! `[0,3]`, `(5#2)` — none contain whitespace, so the line tokenizes on spaces.
//!
//! [`parse_history`] pre-validates everything [`History::from_operations`]
//! asserts (duplicate ids, duplicate event times, response ≤ invocation), plus the
//! one time the checker cannot represent (`t18446744073709551615`), and
//! reports those as line-numbered [`WireError`]s instead of panicking, so a
//! service can feed untrusted request bodies straight into it.

use crate::checker::Verdict;
use crate::history::History;
use crate::ids::{OpId, ProcessId, RegisterId, Time};
use crate::op::{OpKind, Operation};
use crate::sequential::SeqHistory;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A line-numbered wire-format parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "history line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WireError {}

/// Formats one value in its wire form — the [`Value`] `Display` form.
fn format_value(v: &Value) -> String {
    v.to_string()
}

/// Parses one value token in its wire form.
fn parse_value(tok: &str) -> Result<Value, String> {
    match tok {
        "init" => return Ok(Value::Init),
        "⊥" | "bot" => return Ok(Value::Bot),
        _ => {}
    }
    if let Some(inner) = tok.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let (a, b) = inner
            .split_once(',')
            .ok_or_else(|| format!("bad pair value `{tok}`: expected `[a,b]`"))?;
        let a = a
            .parse()
            .map_err(|_| format!("bad pair component `{a}` in `{tok}`"))?;
        let b = b
            .parse()
            .map_err(|_| format!("bad pair component `{b}` in `{tok}`"))?;
        return Ok(Value::Pair(a, b));
    }
    if let Some(inner) = tok.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        let (val, tag) = inner
            .split_once('#')
            .ok_or_else(|| format!("bad tagged value `{tok}`: expected `(val#tag)`"))?;
        let val = val
            .parse()
            .map_err(|_| format!("bad tagged payload `{val}` in `{tok}`"))?;
        let tag = tag
            .parse()
            .map_err(|_| format!("bad tag `{tag}` in `{tok}`"))?;
        return Ok(Value::Tagged { val, tag });
    }
    tok.parse()
        .map(Value::Int)
        .map_err(|_| format!("bad value `{tok}`"))
}

/// Parses a prefixed id token like `op3` / `p0` / `R1` / `t9`.
fn parse_prefixed(tok: &str, prefix: &str, what: &str) -> Result<u64, String> {
    tok.strip_prefix(prefix)
        .and_then(|d| d.parse().ok())
        .ok_or_else(|| format!("bad {what} `{tok}`: expected `{prefix}<n>`"))
}

/// Parses an event-time token like `t9`. `t18446744073709551615` (`u64::MAX`) is
/// rejected: the checker completes pending operations one tick past the history's
/// last event, and the witness merge uses `u64::MAX` as its "never responds" mark.
fn parse_time(tok: &str, what: &str) -> Result<u64, String> {
    let t = parse_prefixed(tok, "t", what)?;
    if t == u64::MAX {
        return Err(format!(
            "{what} `{tok}` is out of range: the largest event time is `t{}`",
            u64::MAX - 1
        ));
    }
    Ok(t)
}

/// Formats a [`History`] in the wire text grammar, one operation per line.
///
/// The output parses back ([`parse_history`]) to an equal history.
#[must_use]
pub fn format_history(history: &History<Value>) -> String {
    let mut out = String::new();
    for op in history.operations() {
        let (verb, value) = match &op.kind {
            OpKind::Write(v) => ("write", format_value(v)),
            OpKind::Read(Some(v)) => ("read", format_value(v)),
            OpKind::Read(None) => ("read", "?".to_string()),
        };
        let resp = op
            .responded_at
            .map_or(String::new(), |t| format!("t{}", t.0));
        out.push_str(&format!(
            "op{} {} {} {verb} {value} @ t{}..{resp}\n",
            op.id.0, op.process, op.register, op.invoked_at.0
        ));
    }
    out
}

/// Parses the wire text grammar into a [`History`].
///
/// Blank lines and lines starting with `#` are ignored. Every constraint
/// [`History::from_operations`] would assert is checked here first and reported
/// as a line-numbered [`WireError`], so this never panics on malformed input.
pub fn parse_history(text: &str) -> Result<History<Value>, WireError> {
    let mut ops: Vec<Operation<Value>> = Vec::new();
    let mut ids: BTreeSet<u64> = BTreeSet::new();
    let mut times: BTreeSet<u64> = BTreeSet::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| WireError {
            line: idx + 1,
            message,
        };
        let toks: Vec<&str> = line.split_whitespace().collect();
        let [id, process, register, verb, value, at, span] = toks[..] else {
            return Err(err(format!(
                "expected `op<id> p<n> R<n> write|read <value> @ t<inv>..[t<resp>]`, got {} token(s)",
                toks.len()
            )));
        };
        let id = parse_prefixed(id, "op", "operation id").map_err(&err)?;
        let process = parse_prefixed(process, "p", "process id").map_err(&err)?;
        let register = parse_prefixed(register, "R", "register id").map_err(&err)?;
        if at != "@" {
            return Err(err(format!(
                "expected `@` before the time span, got `{at}`"
            )));
        }
        let (inv, resp) = span.split_once("..").ok_or_else(|| {
            err(format!(
                "bad time span `{span}`: expected `t<inv>..[t<resp>]`"
            ))
        })?;
        let inv = parse_time(inv, "invocation time").map_err(&err)?;
        let resp = if resp.is_empty() {
            None
        } else {
            Some(parse_time(resp, "response time").map_err(&err)?)
        };
        let kind = match verb {
            "write" => OpKind::Write(parse_value(value).map_err(&err)?),
            "read" if value == "?" => OpKind::Read(None),
            "read" => OpKind::Read(Some(parse_value(value).map_err(&err)?)),
            other => {
                return Err(err(format!(
                    "bad verb `{other}`: expected `write` or `read`"
                )))
            }
        };
        if !ids.insert(id) {
            return Err(err(format!("duplicate operation id `op{id}`")));
        }
        if !times.insert(inv) {
            return Err(err(format!("duplicate event time `t{inv}`")));
        }
        if let Some(r) = resp {
            if r <= inv {
                return Err(err(format!(
                    "response time `t{r}` does not follow invocation time `t{inv}`"
                )));
            }
            if !times.insert(r) {
                return Err(err(format!("duplicate event time `t{r}`")));
            }
        }
        ops.push(Operation {
            id: OpId(id),
            process: ProcessId(process as usize),
            register: RegisterId(register as usize),
            kind,
            invoked_at: Time(inv),
            responded_at: resp.map(Time),
        });
    }
    Ok(History::from_operations(ops))
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a witness linearization as a JSON array of operation objects, in
/// linearization order.
fn witness_to_json(witness: &SeqHistory<Value>) -> String {
    let mut out = String::from("[");
    for (i, op) in witness.operations().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (kind, value) = match &op.kind {
            OpKind::Write(v) => ("write", format_value(v)),
            OpKind::Read(Some(v)) => ("read", format_value(v)),
            OpKind::Read(None) => ("read", "?".to_string()),
        };
        out.push_str(&format!(
            "{{\"op\":{},\"process\":{},\"register\":{},\"kind\":\"{kind}\",\"value\":\"{}\"}}",
            op.id.0,
            op.process.0,
            op.register.0,
            json_escape(&value)
        ));
    }
    out.push(']');
    out
}

/// Renders a [`Verdict`] as stable JSON: decision, witness (or `null`), and the
/// full deterministic counter set.
///
/// The rendering is byte-stable — fixed key order, no whitespace — so two
/// verdicts are equal iff their JSON strings are equal. The server's
/// differential pin compares HTTP responses against direct [`Checker::check`]
/// calls by exactly this string equality.
///
/// [`Checker::check`]: crate::checker::Checker::check
#[must_use]
pub fn verdict_to_json(verdict: &Verdict<Value>) -> String {
    let decision = match verdict.outcome() {
        Ok(true) => "true",
        Ok(false) => "false",
        Err(_) => "null",
    };
    let witness = verdict
        .witness()
        .map_or_else(|| "null".to_string(), witness_to_json);
    let stats = verdict.stats();
    format!(
        "{{\"decision\":{decision},\"witness\":{witness},\"stats\":{{\
         \"states_explored\":{},\"states_memoized\":{},\"enumeration_nodes\":{},\
         \"memo_probes\":{},\"memo_hits\":{},\"memo_arena_high_water\":{}}}}}",
        stats.states_explored,
        stats.states_memoized,
        stats.enumeration_nodes,
        stats.memo.probes,
        stats.memo.hits,
        stats.memo.arena_high_water
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::history::HistoryBuilder;

    fn sample() -> History<Value> {
        let mut b = HistoryBuilder::new();
        let r0 = RegisterId(0);
        let r1 = RegisterId(1);
        let w = b.invoke_write(ProcessId(0), r0, Value::Int(1));
        let r = b.invoke_read(ProcessId(1), r0);
        b.respond_write(w);
        b.respond_read(r, Value::Int(1));
        let w2 = b.invoke_write(ProcessId(2), r1, Value::Pair(0, 3));
        b.respond_write(w2);
        let pending = b.invoke_read(ProcessId(0), r1);
        let _ = pending;
        b.build()
    }

    #[test]
    fn round_trips_sample() {
        let h = sample();
        let text = format_history(&h);
        let back = parse_history(&text).expect("round trip parses");
        assert_eq!(h.operations(), back.operations());
    }

    #[test]
    fn parses_all_value_forms() {
        let text = "op0 p0 R0 write init @ t1..t2\n\
                    op1 p0 R0 write ⊥ @ t3..t4\n\
                    op2 p0 R0 write bot @ t5..t6\n\
                    op3 p0 R0 write -7 @ t7..t8\n\
                    op4 p0 R0 write [1,-2] @ t9..t10\n\
                    op5 p0 R0 write (5#2) @ t11..t12\n\
                    op6 p0 R0 read ? @ t13..\n";
        let h = parse_history(text).expect("parses");
        let kinds: Vec<_> = h.operations().iter().map(|op| op.kind.clone()).collect();
        assert_eq!(kinds[0], OpKind::Write(Value::Init));
        assert_eq!(kinds[1], OpKind::Write(Value::Bot));
        assert_eq!(kinds[2], OpKind::Write(Value::Bot));
        assert_eq!(kinds[3], OpKind::Write(Value::Int(-7)));
        assert_eq!(kinds[4], OpKind::Write(Value::Pair(1, -2)));
        assert_eq!(kinds[5], OpKind::Write(Value::Tagged { val: 5, tag: 2 }));
        assert_eq!(kinds[6], OpKind::Read(None));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\n  op0 p0 R0 write 1 @ t1..t2  \n";
        let h = parse_history(text).expect("parses");
        assert_eq!(h.operations().len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("op0 p0 R0 write 1 @ t1..t2\nbogus line", 2, "token"),
            ("x0 p0 R0 write 1 @ t1..t2", 1, "operation id"),
            ("op0 q0 R0 write 1 @ t1..t2", 1, "process id"),
            ("op0 p0 S0 write 1 @ t1..t2", 1, "register id"),
            ("op0 p0 R0 poke 1 @ t1..t2", 1, "verb"),
            ("op0 p0 R0 write zap @ t1..t2", 1, "value"),
            ("op0 p0 R0 write 1 % t1..t2", 1, "`@`"),
            ("op0 p0 R0 write 1 @ t1", 1, "time span"),
            ("op0 p0 R0 write 1 @ t2..t1", 1, "does not follow"),
            (
                "op0 p0 R0 write 1 @ t18446744073709551615..",
                1,
                "out of range",
            ),
            (
                "op0 p0 R0 write 1 @ t1..t2\nop0 p0 R0 write 1 @ t3..t4",
                2,
                "duplicate operation id",
            ),
            (
                "op0 p0 R0 write 1 @ t1..t2\nop1 p0 R0 write 1 @ t1..t4",
                2,
                "duplicate event time",
            ),
        ];
        for (text, line, needle) in cases {
            let e = parse_history(text).expect_err(text);
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(needle), "{text} → {}", e.message);
            assert!(e.to_string().starts_with(&format!("history line {line}:")));
        }
    }

    #[test]
    fn reads_with_question_mark_only_for_read() {
        let e = parse_history("op0 p0 R0 write ? @ t1..t2").expect_err("write ? is bad");
        assert!(e.message.contains("bad value"));
    }

    #[test]
    fn verdict_json_shapes() {
        let h = sample();
        let checker = Checker::builder(Value::Init).witness(true).build();
        let v = checker.check(&h);
        let json = verdict_to_json(&v);
        assert!(json.starts_with("{\"decision\":true,\"witness\":["));
        assert!(json.contains("\"states_explored\":"));
        assert!(json.contains("\"memo_arena_high_water\":"));

        let plain = Checker::builder(Value::Init)
            .witness(false)
            .build()
            .check(&h);
        let json = verdict_to_json(&plain);
        assert!(json.starts_with("{\"decision\":true,\"witness\":null,"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
