//! The instruction set of the miniature VM.
//!
//! A JVM-flavoured subset, enough to express every benchmark in the paper:
//! integer arithmetic and locals, conditional branches, object-pool loads
//! (standing in for resolved constant-pool references), field access,
//! method invocation, and — centrally — `monitorenter`/`monitorexit`.
//!
//! This module is the one statement of the instruction set's encoding:
//! [`INSTRUCTIONS`] pairs every mnemonic with its instruction, and
//! [`Op::operands`] / [`Op::with_operands`] read and write an
//! instruction's operands, checking each against its field's width (a
//! branch's one operand is its target). The assembler, the printers and
//! the branch-rewriting transforms all go through them, so a new
//! instruction is one enum variant, one table row and its operand
//! fields here.

use std::fmt;

/// One bytecode instruction.
///
/// Branch targets are absolute instruction indices within the method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Push the immediate integer.
    IConst(i32),
    /// Push the integer in local `slot`.
    ILoad(u8),
    /// Pop an integer into local `slot`.
    IStore(u8),
    /// Add `delta` to the integer in local `slot` (the JVM's `iinc`).
    IInc(u8, i16),
    /// Pop two integers, push their sum.
    IAdd,
    /// Pop two integers, push `first - second`.
    ISub,
    /// Pop two integers, push their product.
    IMul,
    /// Pop two integers, push `first % second` (truncated, like Java).
    IRem,
    /// Pop an integer, push its negation.
    INeg,
    /// Pop two integers, push their bitwise AND.
    IAnd,
    /// Pop two integers, push their bitwise OR.
    IOr,
    /// Pop two integers, push their bitwise XOR.
    IXor,
    /// Pop shift amount then value; push `value << (shift & 31)`.
    IShl,
    /// Pop shift amount then value; push `value >> (shift & 31)` (arithmetic).
    IShr,
    /// Push the object reference in local `slot`.
    ALoad(u8),
    /// Pop an object reference (or null) into local `slot`.
    AStore(u8),
    /// Push object-pool entry `index` (a resolved object constant).
    AConst(u32),
    /// Pop an integer `i`, push object-pool entry `i`.
    ALoadPool,
    /// Pop an object reference, push its integer field `index`.
    GetField(u16),
    /// Pop an integer then an object reference; store into field `index`.
    PutField(u16),
    /// Pop an integer index then an object reference; push the field at
    /// that dynamic index (the `iaload` of our field-array objects).
    GetFieldDyn,
    /// Pop an integer value, an integer index, then an object reference;
    /// store the value at that dynamic index (`iastore`).
    PutFieldDyn,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Unconditional jump.
    Goto(usize),
    /// Pop two integers; jump if `first < second`.
    IfICmpLt(usize),
    /// Pop two integers; jump if `first >= second`.
    IfICmpGe(usize),
    /// Pop two integers; jump if equal.
    IfICmpEq(usize),
    /// Pop an integer; jump if zero.
    IfEq(usize),
    /// Pop an object reference; acquire its monitor.
    MonitorEnter,
    /// Pop an object reference; release its monitor.
    MonitorExit,
    /// Pop an object reference; wait on its monitor (`Object.wait` with a
    /// short interpreter-chosen timeout, so a waiter with no notifier
    /// still makes progress). The monitor must be held.
    Wait,
    /// Pop an object reference; wake one waiter on its monitor
    /// (`Object.notify`). The monitor must be held.
    Notify,
    /// Call method `id`; pops the callee's arguments (receiver first in
    /// the argument list, deepest on the stack), pushes its return value
    /// if it has one.
    Invoke(u16),
    /// Pop an object reference and throw it as an exception, unwinding to
    /// the nearest enclosing handler (the JVM's `athrow`).
    Throw,
    /// Return with no value.
    Return,
    /// Pop an integer and return it.
    IReturn,
    /// Do nothing (padding / patched-out code).
    Nop,
}

/// Every instruction with its assembler mnemonic, operands zeroed, in
/// declaration order.
pub const INSTRUCTIONS: &[(&str, Op)] = &[
    ("iconst", Op::IConst(0)),
    ("iload", Op::ILoad(0)),
    ("istore", Op::IStore(0)),
    ("iinc", Op::IInc(0, 0)),
    ("iadd", Op::IAdd),
    ("isub", Op::ISub),
    ("imul", Op::IMul),
    ("irem", Op::IRem),
    ("ineg", Op::INeg),
    ("iand", Op::IAnd),
    ("ior", Op::IOr),
    ("ixor", Op::IXor),
    ("ishl", Op::IShl),
    ("ishr", Op::IShr),
    ("aload", Op::ALoad(0)),
    ("astore", Op::AStore(0)),
    ("aconst", Op::AConst(0)),
    ("aloadpool", Op::ALoadPool),
    ("getfield", Op::GetField(0)),
    ("putfield", Op::PutField(0)),
    ("getfielddyn", Op::GetFieldDyn),
    ("putfielddyn", Op::PutFieldDyn),
    ("dup", Op::Dup),
    ("pop", Op::Pop),
    ("goto", Op::Goto(0)),
    ("if_icmplt", Op::IfICmpLt(0)),
    ("if_icmpge", Op::IfICmpGe(0)),
    ("if_icmpeq", Op::IfICmpEq(0)),
    ("ifeq", Op::IfEq(0)),
    ("monitorenter", Op::MonitorEnter),
    ("monitorexit", Op::MonitorExit),
    ("wait", Op::Wait),
    ("notify", Op::Notify),
    ("invoke", Op::Invoke(0)),
    ("athrow", Op::Throw),
    ("return", Op::Return),
    ("ireturn", Op::IReturn),
    ("nop", Op::Nop),
];

impl Op {
    /// The instruction named by an assembler mnemonic, operands zeroed.
    pub fn from_mnemonic(mnemonic: &str) -> Option<Op> {
        INSTRUCTIONS
            .iter()
            .find(|(name, _)| *name == mnemonic)
            .map(|&(_, op)| op)
    }

    /// The assembler mnemonic of this instruction.
    pub fn mnemonic(self) -> &'static str {
        let variant = std::mem::discriminant(&self);
        INSTRUCTIONS
            .iter()
            .find(|(_, op)| std::mem::discriminant(op) == variant)
            .expect("every instruction has a row in INSTRUCTIONS")
            .0
    }

    /// The operands in assembly order, widened to `i64`; a branch's one
    /// operand is its target (one past `i64::MAX`, which no method can
    /// hold, reads as `i64::MAX`).
    pub fn operands(self) -> Vec<i64> {
        match self {
            Op::IConst(v) => vec![v.into()],
            Op::ILoad(s) | Op::IStore(s) | Op::ALoad(s) | Op::AStore(s) => vec![s.into()],
            Op::IInc(s, d) => vec![s.into(), d.into()],
            Op::AConst(i) => vec![i.into()],
            Op::GetField(i) | Op::PutField(i) | Op::Invoke(i) => vec![i.into()],
            Op::Goto(t) | Op::IfICmpLt(t) | Op::IfICmpGe(t) | Op::IfICmpEq(t) | Op::IfEq(t) => {
                vec![i64::try_from(t).unwrap_or(i64::MAX)]
            }
            _ => Vec::new(),
        }
    }

    /// This instruction with `values` as its operands, in assembly order
    /// (the write half of [`Op::operands`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the operand count is not the instruction's,
    /// or when a value does not fit its operand's width.
    pub fn with_operands(mut self, values: &[i64]) -> Result<Op, String> {
        fn set<T: TryFrom<i64>>(field: &mut T, value: i64) -> Result<(), i64> {
            *field = T::try_from(value).map_err(|_| value)?;
            Ok(())
        }
        let mnemonic = self.mnemonic();
        let arity = self.operands().len();
        if values.len() != arity {
            return Err(format!(
                "`{mnemonic}` expects {arity} operand(s), got {}",
                values.len()
            ));
        }
        match &mut self {
            Op::IConst(v) => set(v, values[0]),
            Op::ILoad(s) | Op::IStore(s) | Op::ALoad(s) | Op::AStore(s) => set(s, values[0]),
            Op::IInc(s, d) => set(s, values[0]).and_then(|()| set(d, values[1])),
            Op::AConst(i) => set(i, values[0]),
            Op::GetField(i) | Op::PutField(i) | Op::Invoke(i) => set(i, values[0]),
            Op::Goto(t) | Op::IfICmpLt(t) | Op::IfICmpGe(t) | Op::IfICmpEq(t) | Op::IfEq(t) => {
                set(t, values[0])
            }
            _ => Ok(()),
        }
        .map_err(|bad| format!("operand {bad} out of range for `{mnemonic}`"))?;
        Ok(self)
    }

    /// The branch target, for branch instructions.
    pub fn branch_target(self) -> Option<usize> {
        match self {
            Op::Goto(t) | Op::IfICmpLt(t) | Op::IfICmpGe(t) | Op::IfICmpEq(t) | Op::IfEq(t) => {
                Some(t)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())?;
        self.operands().iter().try_for_each(|v| write!(f, " {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_cover_display() {
        for &(name, template) in INSTRUCTIONS {
            assert_eq!(template.mnemonic(), name);
            assert_eq!(Op::from_mnemonic(name), Some(template));
            let values: Vec<i64> = (1..).take(template.operands().len()).collect();
            let op = template.with_operands(&values).unwrap();
            assert_eq!(op.operands(), values, "{name}");
            let shown: Vec<String> = values.iter().map(i64::to_string).collect();
            assert_eq!(
                op.to_string(),
                [vec![name.to_string()], shown].concat().join(" ")
            );
        }
        let mut names: Vec<&str> = INSTRUCTIONS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), INSTRUCTIONS.len(), "mnemonics are unique");
        assert_eq!(Op::from_mnemonic("bogus"), None);
    }

    #[test]
    fn operands_are_checked_against_their_widths() {
        assert_eq!(Op::IInc(0, 0).with_operands(&[3, -1]), Ok(Op::IInc(3, -1)));
        assert_eq!(Op::Goto(0).with_operands(&[4]), Ok(Op::Goto(4)));
        let min = i64::from(i32::MIN);
        assert_eq!(
            Op::IConst(0).with_operands(&[min]),
            Ok(Op::IConst(i32::MIN))
        );
        for (op, values) in [
            (Op::ILoad(0), &[256][..]),
            (Op::AConst(0), &[-1]),
            (Op::IConst(0), &[1 << 32]),
            (Op::IInc(0, 0), &[0, 1 << 15]),
            (Op::Goto(0), &[-1]),
        ] {
            let e = op.with_operands(values).unwrap_err();
            assert!(e.contains("out of range"), "{op}: {e}");
        }
        let e = Op::IAdd.with_operands(&[1]).unwrap_err();
        assert_eq!(e, "`iadd` expects 0 operand(s), got 1");
    }

    #[test]
    fn branch_classification() {
        let branches: Vec<&str> = INSTRUCTIONS
            .iter()
            .filter(|(_, op)| op.branch_target().is_some())
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(
            branches,
            ["goto", "if_icmplt", "if_icmpge", "if_icmpeq", "ifeq"]
        );
        assert_eq!(Op::IfICmpEq(5).branch_target(), Some(5));
        assert_eq!(
            Op::Goto(3).with_operands(&[7]).unwrap().branch_target(),
            Some(7)
        );
        assert_eq!(Op::MonitorEnter.branch_target(), None);
    }
}
