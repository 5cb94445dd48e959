//! Methods and programs: the static side of the miniature VM.

use crate::bytecode::Op;

/// One entry of a method's exception-handler table: when an exception is
/// thrown by an instruction with `start <= pc < end`, control transfers to
/// `target` with the operand stack cleared to just the exception object —
/// exactly the JVM's `Code` attribute exception table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handler {
    /// First protected instruction (inclusive).
    pub start: usize,
    /// End of the protected range (exclusive).
    pub end: usize,
    /// Handler entry point.
    pub target: usize,
}

/// Method attribute flags (a small model of the JVM's access flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct MethodFlags {
    /// The JVM's `ACC_SYNCHRONIZED`: the interpreter locks the receiver
    /// (first argument, which must be an object reference) around the
    /// method body, releasing it on any exit including errors.
    pub synchronized: bool,
    /// Method returns an `int` (pushes one value at the call site).
    pub returns_value: bool,
}

/// A single method: metadata plus straight-line bytecode.
///
/// # Example
///
/// ```
/// use thinlock_vm::{Method, MethodFlags, Op};
///
/// // int identity(int x) { return x; }
/// let m = Method::new(
///     "identity",
///     1,
///     1,
///     MethodFlags { synchronized: false, returns_value: true },
///     vec![Op::ILoad(0), Op::IReturn],
/// );
/// assert_eq!(m.name(), "identity");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Method {
    name: String,
    arg_count: u8,
    max_locals: u8,
    flags: MethodFlags,
    code: Vec<Op>,
    handlers: Vec<Handler>,
}

impl Method {
    /// Creates a method.
    ///
    /// # Panics
    ///
    /// Panics if `max_locals < arg_count` (arguments are stored in the
    /// first locals) or if the code is empty.
    pub fn new(
        name: impl Into<String>,
        arg_count: u8,
        max_locals: u8,
        flags: MethodFlags,
        code: Vec<Op>,
    ) -> Self {
        assert!(max_locals >= arg_count, "locals must hold the arguments");
        assert!(!code.is_empty(), "method body cannot be empty");
        Method {
            name: name.into(),
            arg_count,
            max_locals,
            flags,
            code,
            handlers: Vec::new(),
        }
    }

    /// Adds an exception-table entry (builder style).
    #[must_use]
    pub fn with_handler(mut self, handler: Handler) -> Self {
        self.handlers.push(handler);
        self
    }

    /// The exception-handler table, in search order (first match wins,
    /// like the JVM).
    pub fn handlers(&self) -> &[Handler] {
        &self.handlers
    }

    /// The first handler protecting `pc`, if any.
    pub fn handler_for(&self, pc: usize) -> Option<Handler> {
        self.handlers
            .iter()
            .copied()
            .find(|h| h.start <= pc && pc < h.end)
    }

    /// The method's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of arguments (stored in locals `0..arg_count`; a
    /// synchronized method's receiver is argument 0).
    pub fn arg_count(&self) -> u8 {
        self.arg_count
    }

    /// Number of local-variable slots.
    pub fn max_locals(&self) -> u8 {
        self.max_locals
    }

    /// The attribute flags.
    pub fn flags(&self) -> MethodFlags {
        self.flags
    }

    /// The bytecode.
    pub fn code(&self) -> &[Op] {
        &self.code
    }

    /// Validates internal consistency: branch targets in range, local
    /// slots within `max_locals`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed instruction.
    pub fn validate(&self) -> Result<(), String> {
        for (pc, op) in self.code.iter().enumerate() {
            if let Some(target) = op.branch_target() {
                if target >= self.code.len() {
                    return Err(format!(
                        "{}: pc {pc}: branch target {target} out of range",
                        self.name
                    ));
                }
            }
            let slot = match *op {
                Op::ILoad(s) | Op::IStore(s) | Op::IInc(s, _) | Op::ALoad(s) | Op::AStore(s) => {
                    Some(s)
                }
                _ => None,
            };
            if let Some(s) = slot {
                if s >= self.max_locals {
                    return Err(format!(
                        "{}: pc {pc}: local {s} exceeds max_locals {}",
                        self.name, self.max_locals
                    ));
                }
            }
        }
        for (i, h) in self.handlers.iter().enumerate() {
            if h.start >= h.end || h.end > self.code.len() {
                return Err(format!(
                    "{}: handler {i}: bad protected range {}..{}",
                    self.name, h.start, h.end
                ));
            }
            if h.target >= self.code.len() {
                return Err(format!(
                    "{}: handler {i}: target {} out of range",
                    self.name, h.target
                ));
            }
        }
        Ok(())
    }
}

/// A program: a table of methods addressed by index, plus the size of the
/// object constant pool it expects at run time.
///
/// The object pool models the JVM constant pool after resolution: `aconst
/// k` pushes the `k`-th pre-allocated object. The pool itself (actual
/// `ObjRef`s) is supplied to the interpreter, since objects belong to a
/// heap, not to static code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    methods: Vec<Method>,
    pool_size: u32,
}

impl Program {
    /// Creates an empty program expecting `pool_size` pooled objects.
    pub fn new(pool_size: u32) -> Self {
        Program {
            methods: Vec::new(),
            pool_size,
        }
    }

    /// Adds a method, returning its id for `invoke`.
    pub fn add_method(&mut self, method: Method) -> u16 {
        let id = u16::try_from(self.methods.len()).expect("too many methods");
        self.methods.push(method);
        id
    }

    /// Looks up a method by id.
    pub fn method(&self, id: u16) -> Option<&Method> {
        self.methods.get(usize::from(id))
    }

    /// Looks up a method by name.
    pub fn method_id(&self, name: &str) -> Option<u16> {
        self.methods
            .iter()
            .position(|m| m.name() == name)
            .map(|i| i as u16)
    }

    /// All methods in id order.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// Number of pooled objects the interpreter must provide.
    pub fn pool_size(&self) -> u32 {
        self.pool_size
    }

    /// Validates every method plus cross-method references.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for m in &self.methods {
            m.validate()?;
            for (pc, op) in m.code().iter().enumerate() {
                match *op {
                    Op::Invoke(id) if self.method(id).is_none() => {
                        return Err(format!("{}: pc {pc}: unknown method id {id}", m.name()));
                    }
                    Op::AConst(i) if i >= self.pool_size => {
                        return Err(format!(
                            "{}: pc {pc}: pool index {i} exceeds pool size {}",
                            m.name(),
                            self.pool_size
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_method() -> Method {
        Method::new(
            "f",
            0,
            1,
            MethodFlags {
                synchronized: false,
                returns_value: true,
            },
            vec![Op::IConst(1), Op::IReturn],
        )
    }

    #[test]
    fn add_and_lookup() {
        let mut p = Program::new(0);
        let id = p.add_method(simple_method());
        assert_eq!(p.method(id).unwrap().name(), "f");
        assert_eq!(p.method_id("f"), Some(id));
        assert_eq!(p.method_id("g"), None);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_branch() {
        let m = Method::new("bad", 0, 0, MethodFlags::default(), vec![Op::Goto(7)]);
        assert!(m.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validation_rejects_bad_local() {
        let m = Method::new(
            "bad",
            0,
            1,
            MethodFlags::default(),
            vec![Op::ILoad(3), Op::Return],
        );
        assert!(m.validate().unwrap_err().contains("max_locals"));
    }

    #[test]
    fn validation_rejects_unknown_invoke_and_pool() {
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "caller",
            0,
            0,
            MethodFlags::default(),
            vec![Op::Invoke(99), Op::Return],
        ));
        assert!(p.validate().unwrap_err().contains("unknown method"));

        let mut p2 = Program::new(1);
        p2.add_method(Method::new(
            "pooluser",
            0,
            0,
            MethodFlags::default(),
            vec![Op::AConst(5), Op::Return],
        ));
        assert!(p2.validate().unwrap_err().contains("pool index"));
    }

    #[test]
    #[should_panic(expected = "locals must hold the arguments")]
    fn method_locals_must_cover_args() {
        let _ = Method::new("m", 2, 1, MethodFlags::default(), vec![Op::Return]);
    }
}
