//! Aggregation of all `lockcheck` passes into one program report.

use std::fmt;

use thinlock_vm::program::Program;
use thinlock_vm::programs::ConcurrentProgram;

use crate::contention::{self, ContentionReport};
use crate::escape::{self, EscapeContext, EscapeReport};
use crate::guards::{self, EntryRole, GuardsReport};
use crate::lockorder::{self, LockOrderReport};
use crate::lockstack::{self, MethodLockFacts};
use crate::nestdepth::{self, NestDepthReport};

/// The combined result of running `lockcheck` over one program.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Verifier failures (types/stack), one message per method that
    /// failed; such methods have no lock-stack facts.
    pub verify_errors: Vec<String>,
    /// Per-method symbolic lock-stack facts and diagnostics, for every
    /// method the verifier's dataflow completes on.
    pub methods: Vec<MethodLockFacts>,
    /// The program-wide lock-order graph and any deadlock cycles.
    pub lock_order: LockOrderReport,
    /// Escape analysis and elidable sync operations.
    pub escape: EscapeReport,
    /// Nest-depth bounds and pre-inflation hints.
    pub nest: NestDepthReport,
    /// Guarded-by inference and lockset race candidates.
    pub guards: GuardsReport,
    /// Contention-shape classification and the derived startup plan.
    pub contention: ContentionReport,
}

impl AnalysisReport {
    /// Total instruction-precise lock-discipline diagnostics.
    pub fn diagnostic_count(&self) -> usize {
        self.methods.iter().map(|m| m.diagnostics.len()).sum()
    }

    /// True when no pass found anything suspicious (elision, hints, and
    /// guarded-by facts are findings, not problems).
    pub fn is_clean(&self) -> bool {
        self.verify_errors.is_empty()
            && self.diagnostic_count() == 0
            && self.lock_order.is_acyclic()
            && self.guards.is_race_free()
    }
}

/// Runs all passes over `program` under the given harness context, with
/// the guards pass grounded at the default entry role (`main`, or method
/// 0, run on `ctx.thread_count` threads).
pub fn analyze_program(program: &Program, ctx: &EscapeContext) -> AnalysisReport {
    analyze_program_with_roles(program, ctx, &guards::default_roles(program, ctx))
}

/// Runs all passes over a concurrent-library program under its own
/// harness contract: one escape context over all its threads, the
/// guards pass grounded at its [`entry_roles`](guards::entry_roles).
pub fn analyze_concurrent(entry: &ConcurrentProgram) -> AnalysisReport {
    analyze_program_with_roles(
        &entry.program,
        &EscapeContext::threads(entry.total_threads()),
        &guards::entry_roles(entry),
    )
}

/// Like [`analyze_program`], but grounds the guards pass at explicit
/// concurrent entry roles (one per worker kind, as the harness runs them).
///
/// Each method runs through the verifier's dataflow once: a type or
/// stack error becomes a verify error, and otherwise the lock-stack pass
/// reads the method's facts, lock-discipline findings included, off the
/// same fixpoint.
pub fn analyze_program_with_roles(
    program: &Program,
    ctx: &EscapeContext,
    roles: &[EntryRole],
) -> AnalysisReport {
    let mut verify_errors = Vec::new();
    let mut methods = Vec::new();
    for (id, method) in (0u16..).zip(program.methods()) {
        match lockstack::analyze_method(program, id, method) {
            Ok(facts) => methods.push(facts),
            Err(e) => verify_errors.push(e.to_string()),
        }
    }
    let lock_order = lockorder::build(&methods);
    let escape = escape::analyze(program, &methods, ctx);
    let nest = nestdepth::analyze(&methods);
    let guards = guards::analyze(&methods, roles, ctx);
    let contention = contention::analyze(program, &methods, roles, &escape, &nest);
    AnalysisReport {
        verify_errors,
        methods,
        lock_order,
        escape,
        nest,
        guards,
        contention,
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.verify_errors {
            writeln!(f, "  verify error: {e}")?;
        }
        for m in &self.methods {
            let sync = if m.synchronized { " synchronized" } else { "" };
            writeln!(
                f,
                "  method {}{} — {} monitor op(s), max nest {}",
                m.name,
                sync,
                m.monitor_ops.len(),
                m.max_lock_stack + usize::from(m.synchronized),
            )?;
            for d in &m.diagnostics {
                writeln!(f, "    DIAG {d}")?;
            }
        }
        if !self.lock_order.edges.is_empty() {
            writeln!(f, "  lock order:")?;
            for e in &self.lock_order.edges {
                writeln!(f, "    {e}")?;
            }
        }
        for cycle in &self.lock_order.cycles {
            let names: Vec<String> = cycle.iter().map(|i| format!("pool[{i}]")).collect();
            writeln!(f, "    DEADLOCK CYCLE: {}", names.join(" <-> "))?;
        }
        if self.lock_order.unresolved_edges > 0 {
            writeln!(
                f,
                "    ({} unresolved edge(s) excluded from cycle check)",
                self.lock_order.unresolved_edges
            )?;
        }
        writeln!(
            f,
            "  escape ({} thread(s)): {} elidable op(s), {} retained, {} method(s) desyncable",
            self.escape.context.thread_count,
            self.escape.elidable_ops.len(),
            self.escape.retained_ops,
            self.escape.desync_methods.len(),
        )?;
        for (i, b) in &self.nest.bounds {
            writeln!(f, "  nest depth pool[{i}]: {b}")?;
        }
        for i in &self.nest.hints {
            writeln!(
                f,
                "    PRE-INFLATE pool[{i}] (may exceed thin count capacity)"
            )?;
        }
        if !self.guards.facts.is_empty() || !self.guards.races.is_empty() {
            let roles: Vec<String> = self
                .guards
                .roles
                .iter()
                .map(|r| format!("{}x{}", r.name, r.threads))
                .collect();
            writeln!(f, "  guards (roles: {}):", roles.join(", "))?;
            for fact in &self.guards.facts {
                writeln!(f, "    @GuardedBy {fact}")?;
            }
            for race in &self.guards.races {
                writeln!(f, "    RACE {race}")?;
            }
        }
        if self.guards.unresolved_accesses > 0 {
            writeln!(
                f,
                "    ({} unresolved field access(es) excluded from lockset inference)",
                self.guards.unresolved_accesses
            )?;
        }
        for line in self.contention.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinlock_vm::programs::{self, MicroBench};

    #[test]
    fn clean_program_reports_clean() {
        let r = analyze_program(
            &MicroBench::MixedSync.program(),
            &EscapeContext::single_threaded(),
        );
        assert!(r.is_clean(), "{r}");
        assert!(!r.escape.elidable_ops.is_empty());
    }

    #[test]
    fn deadlock_pair_is_not_clean() {
        let r = analyze_program(&programs::deadlock_pair(), &EscapeContext::threads(2));
        assert!(!r.is_clean());
        assert_eq!(r.lock_order.cycles.len(), 1);
    }

    #[test]
    fn unbalanced_program_reports_diagnostics() {
        let r = analyze_program(
            &programs::unbalanced_exit(),
            &EscapeContext::single_threaded(),
        );
        assert!(r.diagnostic_count() > 0);
        assert!(r.verify_errors.is_empty(), "{:?}", r.verify_errors);
    }

    #[test]
    fn display_mentions_cycle_and_hints() {
        let d = analyze_program(&programs::deadlock_pair(), &EscapeContext::threads(2));
        assert!(d.to_string().contains("DEADLOCK CYCLE"));
        let n = analyze_program(&programs::deep_nest(), &EscapeContext::single_threaded());
        assert!(n.to_string().contains("PRE-INFLATE"), "{n}");
    }
}
