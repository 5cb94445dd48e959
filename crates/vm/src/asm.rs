//! Textual assembler and disassembler for the miniature VM.
//!
//! The format is line-oriented:
//!
//! ```text
//! pool 2
//! method main args=1 locals=3 returns {
//!   iconst 0
//!   istore 1
//! loop:
//!   iload 1
//!   iload 0
//!   if_icmpge done
//!   aconst 0
//!   monitorenter
//!   iinc 2 1
//!   aconst 0
//!   monitorexit
//!   iinc 1 1
//!   goto loop
//! done:
//!   iload 2
//!   ireturn
//! }
//! ```
//!
//! `sync` and `returns` after the locals declaration set the method flags;
//! labels (`name:`) may be used as branch targets; `;` and `#` start
//! comments. [`disassemble`] produces text that [`assemble`] parses back
//! to an equal [`Program`] (a property test in the crate's test suite).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::bytecode::Op;
use crate::program::{Handler, Method, MethodFlags, Program};

/// An assembly syntax error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Parses assembly text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the first offending line.
///
/// # Example
///
/// ```
/// let src = "pool 0\nmethod f args=0 locals=0 returns {\n  iconst 7\n  ireturn\n}\n";
/// let program = thinlock_vm::asm::assemble(src)?;
/// assert_eq!(program.methods().len(), 1);
/// # Ok::<(), thinlock_vm::asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut program: Option<Program> = None;
    let mut current: Option<MethodBuilder> = None;

    for (i, raw) in source.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = line.strip_prefix("pool ") {
            if program.is_some() {
                return Err(err(line_no, "duplicate pool declaration"));
            }
            let n: u32 = rest
                .trim()
                .parse()
                .map_err(|_| err(line_no, "invalid pool size"))?;
            program = Some(Program::new(n));
            continue;
        }

        let program_ref = program
            .as_mut()
            .ok_or_else(|| err(line_no, "missing `pool N` header"))?;

        if let Some(rest) = line.strip_prefix("method ") {
            if current.is_some() {
                return Err(err(line_no, "nested method declaration"));
            }
            current = Some(MethodBuilder::parse_header(rest, line_no)?);
            continue;
        }

        if line == "}" {
            let builder = current
                .take()
                .ok_or_else(|| err(line_no, "`}` outside a method"))?;
            program_ref.add_method(builder.finish(line_no)?);
            continue;
        }

        let builder = current
            .as_mut()
            .ok_or_else(|| err(line_no, "instruction outside a method"))?;

        if let Some(rest) = line.strip_prefix(".catch ") {
            builder.push_catch(rest, line_no)?;
        } else if let Some(label) = line.strip_suffix(':') {
            builder.define_label(label.trim(), line_no)?;
        } else {
            builder.push_instruction(line, line_no)?;
        }
    }

    if current.is_some() {
        return Err(err(source.lines().count(), "unterminated method"));
    }
    program.ok_or_else(|| err(1, "empty source: missing `pool N` header"))
}

/// Renders a program as assembly text that [`assemble`] can parse back.
pub fn disassemble(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "pool {}", program.pool_size());
    for m in program.methods() {
        // Collect branch targets so they can be labelled.
        let mut targets: Vec<usize> = m
            .code()
            .iter()
            .filter_map(|op| op.branch_target())
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let label_of = |pc: usize| -> Option<String> {
            targets.binary_search(&pc).ok().map(|i| format!("L{i}"))
        };

        let mut header = format!(
            "method {} args={} locals={}",
            m.name(),
            m.arg_count(),
            m.max_locals()
        );
        if m.flags().synchronized {
            header.push_str(" sync");
        }
        if m.flags().returns_value {
            header.push_str(" returns");
        }
        let _ = writeln!(out, "{header} {{");
        for (pc, op) in m.code().iter().enumerate() {
            if let Some(label) = label_of(pc) {
                let _ = writeln!(out, "{label}:");
            }
            let text = match op.branch_target() {
                Some(t) => format!(
                    "{} {}",
                    op.mnemonic(),
                    label_of(t).expect("every target is labelled")
                ),
                None => op.to_string(),
            };
            let _ = writeln!(out, "  {text}");
        }
        for h in m.handlers() {
            let _ = writeln!(out, "  .catch {} {} {}", h.start, h.end, h.target);
        }
        let _ = writeln!(out, "}}");
    }
    out
}

#[derive(Debug)]
struct MethodBuilder {
    name: String,
    arg_count: u8,
    max_locals: u8,
    flags: MethodFlags,
    code: Vec<Op>,
    /// `(pc, label, line)` of each branch to a label, whose target is set
    /// when the method ends.
    branches: Vec<(usize, String, usize)>,
    labels: HashMap<String, usize>,
    catches: Vec<(String, String, String, usize)>,
}

impl MethodBuilder {
    fn parse_header(rest: &str, line: usize) -> Result<Self, AsmError> {
        let mut tokens = rest.split_whitespace().collect::<Vec<_>>();
        if tokens.last() != Some(&"{") {
            return Err(err(line, "method header must end with `{`"));
        }
        tokens.pop();
        let mut it = tokens.into_iter();
        let name = it
            .next()
            .ok_or_else(|| err(line, "missing method name"))?
            .to_string();
        let mut arg_count = None;
        let mut max_locals = None;
        let mut flags = MethodFlags::default();
        for tok in it {
            if let Some(v) = tok.strip_prefix("args=") {
                arg_count = Some(v.parse().map_err(|_| err(line, "invalid args="))?);
            } else if let Some(v) = tok.strip_prefix("locals=") {
                max_locals = Some(v.parse().map_err(|_| err(line, "invalid locals="))?);
            } else if tok == "sync" {
                flags.synchronized = true;
            } else if tok == "returns" {
                flags.returns_value = true;
            } else {
                return Err(err(line, format!("unknown method attribute `{tok}`")));
            }
        }
        Ok(MethodBuilder {
            name,
            arg_count: arg_count.ok_or_else(|| err(line, "missing args="))?,
            max_locals: max_locals.ok_or_else(|| err(line, "missing locals="))?,
            flags,
            code: Vec::new(),
            branches: Vec::new(),
            labels: HashMap::new(),
            catches: Vec::new(),
        })
    }

    fn push_catch(&mut self, rest: &str, line: usize) -> Result<(), AsmError> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(err(line, "`.catch` expects `start end target`"));
        }
        self.catches.push((
            parts[0].to_string(),
            parts[1].to_string(),
            parts[2].to_string(),
            line,
        ));
        Ok(())
    }

    fn define_label(&mut self, label: &str, line: usize) -> Result<(), AsmError> {
        if label.is_empty() {
            return Err(err(line, "empty label"));
        }
        if self
            .labels
            .insert(label.to_string(), self.code.len())
            .is_some()
        {
            return Err(err(line, format!("duplicate label `{label}`")));
        }
        Ok(())
    }

    fn push_instruction(&mut self, text: &str, line: usize) -> Result<(), AsmError> {
        let mut parts = text.split_whitespace();
        let mnemonic = parts.next().expect("non-empty line");
        let operands: Vec<&str> = parts.collect();
        let template = Op::from_mnemonic(mnemonic)
            .ok_or_else(|| err(line, format!("unknown mnemonic `{mnemonic}`")))?;
        let mut label = None;
        let values = operands
            .iter()
            .map(|&s| match s.parse() {
                Ok(v) => Ok(v),
                // A branch to a label gets its target when the method ends.
                Err(_) if template.branch_target().is_some() => {
                    label = Some(s.to_string());
                    Ok(0)
                }
                Err(_) => Err(err(line, format!("invalid operand `{s}`"))),
            })
            .collect::<Result<Vec<i64>, _>>()?;
        let op = template.with_operands(&values).map_err(|m| err(line, m))?;
        if let Some(label) = label {
            self.branches.push((self.code.len(), label, line));
        }
        self.code.push(op);
        Ok(())
    }

    fn finish(self, end_line: usize) -> Result<Method, AsmError> {
        let labels = self.labels;
        let label_pc = |label: &str, line: usize| -> Result<usize, AsmError> {
            labels
                .get(label)
                .copied()
                .ok_or_else(|| err(line, format!("undefined label `{label}`")))
        };
        let resolve = |target: &str, line: usize| -> Result<usize, AsmError> {
            target.parse().or_else(|_| label_pc(target, line))
        };
        let mut code = self.code;
        for (pc, label, line) in self.branches {
            let target = i64::try_from(label_pc(&label, line)?).expect("a pc fits in i64");
            code[pc] = code[pc]
                .with_operands(&[target])
                .map_err(|m| err(line, m))?;
        }
        if code.is_empty() {
            return Err(err(end_line, "empty method body"));
        }
        let mut method = Method::new(self.name, self.arg_count, self.max_locals, self.flags, code);
        for (start, end, target, line) in self.catches {
            method = method.with_handler(Handler {
                start: resolve(&start, line)?,
                end: resolve(&end, line)?,
                target: resolve(&target, line)?,
            });
        }
        method.validate().map_err(|m| err(end_line, m))?;
        Ok(method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = "\
pool 1
; count to n while locking pool[0] each round
method main args=1 locals=3 returns {
  iconst 0
  istore 1
loop:
  iload 1
  iload 0
  if_icmpge done
  aconst 0
  monitorenter
  iinc 2 1
  aconst 0
  monitorexit
  iinc 1 1
  goto loop
done:
  iload 2
  ireturn
}
";

    #[test]
    fn assembles_counter_program() {
        let p = assemble(COUNTER).unwrap();
        assert_eq!(p.pool_size(), 1);
        let m = p.method(0).unwrap();
        assert_eq!(m.name(), "main");
        assert!(m.flags().returns_value);
        assert!(!m.flags().synchronized);
        assert!(m.code().contains(&Op::MonitorEnter));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn numeric_branch_targets_work() {
        let src = "pool 0\nmethod f args=0 locals=0 {\n  goto 1\n  return\n}\n";
        let p = assemble(src).unwrap();
        assert_eq!(p.method(0).unwrap().code()[0], Op::Goto(1));
    }

    #[test]
    fn sync_flag_parses() {
        let src = "pool 0\nmethod m args=1 locals=1 sync {\n  return\n}\n";
        let p = assemble(src).unwrap();
        assert!(p.method(0).unwrap().flags().synchronized);
    }

    #[test]
    fn error_reporting_names_lines() {
        let cases = [
            ("method m args=0 locals=0 {\n return\n}\n", "pool"),
            ("pool 0\n frobnicate\n", "outside a method"),
            (
                "pool 0\nmethod m args=0 locals=0 {\n bogus_op\n}\n",
                "unknown mnemonic",
            ),
            (
                "pool 0\nmethod m args=0 locals=0 {\n goto nowhere\n}\n",
                "undefined label",
            ),
            (
                "pool 0\nmethod m args=0 locals=0 {\n iconst\n}\n",
                "expects 1",
            ),
            ("pool 0\nmethod m args=0 locals=0 {\n", "unterminated"),
            ("pool 0\nmethod m args=0 {\n return\n}\n", "missing locals="),
            ("pool x\n", "invalid pool size"),
        ];
        for (src, needle) in cases {
            let e = assemble(src).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "error {e} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn out_of_range_operands_are_rejected_on_their_line() {
        for (instruction, value) in [
            ("iload 300", "300"),
            ("aconst -1", "-1"),
            ("iconst 4294967297", "4294967297"),
            ("iinc 0 70000", "70000"),
        ] {
            let src =
                format!("pool 1\nmethod m args=0 locals=1 {{\n  {instruction}\n  return\n}}\n");
            let e = assemble(&src).unwrap_err();
            assert_eq!(e.line, 3, "{instruction}: {e}");
            let needle = format!("operand {value} out of range");
            assert!(e.message.contains(&needle), "{instruction}: {e}");
        }
    }

    #[test]
    fn duplicate_label_rejected() {
        let src = "pool 0\nmethod m args=0 locals=0 {\na:\na:\n return\n}\n";
        assert!(assemble(src).unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn round_trip_through_disassembler() {
        let p = assemble(COUNTER).unwrap();
        let text = disassemble(&p);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p, p2, "disassemble . assemble is identity:\n{text}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n; leading comment\npool 0\n# another\nmethod f args=0 locals=0 {\n\n  nop ; trailing\n  return\n}\n";
        let p = assemble(src).unwrap();
        assert_eq!(p.method(0).unwrap().code().len(), 2);
    }
}
