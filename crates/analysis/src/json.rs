//! Machine-readable export of an [`AnalysisReport`]: the full report
//! tree serialized through the dependency-free JSON writer from
//! `thinlock-obs`, so CI and downstream tooling can consume
//! `lockcheck --json` without scraping the text output.
//!
//! The schema mirrors the report structs one-to-one; symbolic values
//! ([`Sym`](crate::lockstack::Sym), [`FieldId`](crate::lockstack::FieldId),
//! [`Bound`](crate::nestdepth::Bound)) use their `Display` forms, which
//! are stable one-token strings.

use thinlock_obs::JsonWriter;

use crate::escape::SharedPool;
use crate::lockstack::MethodLockFacts;
use crate::AnalysisReport;

/// Version of the per-program JSON document produced by
/// [`write_report`], emitted as its `schema_version` field. Version 2
/// added that field, the `contention` section (per-site shapes plus the
/// derived `plan`) and per-method `cond_ops` (`wait`/`notify` sites).
pub const SCHEMA_VERSION: u64 = 2;

/// Serializes one named program's report as a JSON object into `w`.
/// The caller brackets it inside an array or named field.
pub fn write_report(w: &mut JsonWriter, name: &str, thread_count: u32, report: &AnalysisReport) {
    w.begin_object();
    w.field_u64("schema_version", SCHEMA_VERSION);
    w.field_str("program", name);
    w.field_u64("threads", u64::from(thread_count));
    w.field_bool("clean", report.is_clean());

    w.begin_named_array("verify_errors");
    for e in &report.verify_errors {
        w.elem_str(e);
    }
    w.end_array();

    w.begin_named_array("methods");
    for m in &report.methods {
        write_method(w, m);
    }
    w.end_array();

    w.begin_named_object("lock_order");
    w.begin_named_array("edges");
    for e in &report.lock_order.edges {
        w.begin_object();
        w.field_u64("from", u64::from(e.from));
        w.field_u64("to", u64::from(e.to));
        w.field_str("witness", &e.witness);
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("cycles");
    for cycle in &report.lock_order.cycles {
        w.begin_array();
        for &pool in cycle {
            w.elem_u64(u64::from(pool));
        }
        w.end_array();
    }
    w.end_array();
    w.field_u64(
        "unresolved_edges",
        report.lock_order.unresolved_edges as u64,
    );
    w.end_object();

    w.begin_named_object("escape");
    w.begin_named_object("context");
    w.field_u64(
        "thread_count",
        u64::from(report.escape.context.thread_count),
    );
    match &report.escape.context.shared {
        SharedPool::None => w.field_str("shared", "none"),
        SharedPool::All => w.field_str("shared", "all"),
        SharedPool::Some(set) => {
            w.begin_named_array("shared");
            for &pool in set {
                w.elem_u64(u64::from(pool));
            }
            w.end_array();
        }
    }
    w.end_object();
    w.begin_named_array("local_pool");
    for &pool in &report.escape.local_pool {
        w.elem_u64(u64::from(pool));
    }
    w.end_array();
    w.begin_named_array("escaping_pool");
    for &pool in &report.escape.escaping_pool {
        w.elem_u64(u64::from(pool));
    }
    w.end_array();
    w.begin_named_array("elidable_ops");
    for &(method, pc) in &report.escape.elidable_ops {
        w.begin_object();
        w.field_u64("method", u64::from(method));
        w.field_u64("pc", pc as u64);
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("desync_methods");
    for &m in &report.escape.desync_methods {
        w.elem_u64(u64::from(m));
    }
    w.end_array();
    w.field_u64("retained_ops", report.escape.retained_ops as u64);
    w.end_object();

    w.begin_named_object("nest");
    w.begin_named_array("bounds");
    for (&pool, bound) in &report.nest.bounds {
        w.begin_object();
        w.field_u64("pool", u64::from(pool));
        w.field_str("bound", &bound.to_string());
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("hints");
    for &pool in &report.nest.hints {
        w.elem_u64(u64::from(pool));
    }
    w.end_array();
    w.field_str("dynamic_depth", &report.nest.dynamic_depth.to_string());
    w.end_object();

    w.begin_named_object("guards");
    w.begin_named_array("roles");
    for role in &report.guards.roles {
        w.begin_object();
        w.field_str("name", &role.name);
        w.field_u64("method", u64::from(role.method));
        w.field_u64("threads", u64::from(role.threads));
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("facts");
    for fact in &report.guards.facts {
        w.begin_object();
        w.field_u64("pool", u64::from(fact.pool));
        w.field_u64("field", u64::from(fact.field));
        w.begin_named_array("locks");
        for &lock in &fact.locks {
            w.elem_u64(u64::from(lock));
        }
        w.end_array();
        w.field_u64("reads", fact.reads as u64);
        w.field_u64("writes", fact.writes as u64);
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("races");
    for race in &report.guards.races {
        w.begin_object();
        w.field_u64("pool", u64::from(race.pool));
        w.field_u64("field", u64::from(race.field));
        w.field_u64("threads", u64::from(race.threads));
        w.field_u64("reads", race.reads as u64);
        w.field_u64("writes", race.writes as u64);
        w.end_object();
    }
    w.end_array();
    w.field_u64(
        "unresolved_accesses",
        report.guards.unresolved_accesses as u64,
    );
    w.end_object();

    w.begin_named_object("contention");
    w.begin_named_array("sites");
    for site in &report.contention.sites {
        w.begin_object();
        w.field_u64("pool", u64::from(site.pool));
        w.field_str("shape", site.shape.as_str());
        w.field_u64("threads", u64::from(site.threads));
        w.field_u64("weight", site.weight);
        w.field_u64("waits", site.waits);
        w.field_u64("notifies", site.notifies);
        w.field_str("reason", &site.reason);
        w.end_object();
    }
    w.end_array();
    w.field_u64("unknown_weight", report.contention.unknown_weight);
    w.begin_named_array("plan");
    for site in &report.contention.sites {
        w.begin_object();
        w.field_u64("pool", u64::from(site.pool));
        w.field_bool("elide", site.elide);
        w.field_bool("pre_inflate", site.pre_inflate);
        w.field_bool("pin_fifo", site.pin_fifo);
        w.field_str("backend_hint", site.backend_hint.as_str());
        w.end_object();
    }
    w.end_array();
    w.end_object();

    w.end_object();
}

fn write_method(w: &mut JsonWriter, m: &MethodLockFacts) {
    w.begin_object();
    w.field_u64("method_id", u64::from(m.method_id));
    w.field_str("name", &m.name);
    w.field_bool("synchronized", m.synchronized);
    w.field_u64("max_lock_stack", m.max_lock_stack as u64);
    w.begin_named_array("diagnostics");
    for d in &m.diagnostics {
        w.begin_object();
        w.field_u64("pc", d.pc as u64);
        w.field_str("message", &d.message);
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("acquires");
    for a in &m.acquires {
        w.begin_object();
        w.field_u64("pc", a.pc as u64);
        w.field_str("sym", &a.sym.to_string());
        w.begin_named_array("held");
        for h in &a.held {
            w.elem_str(&h.to_string());
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("monitor_ops");
    for op in &m.monitor_ops {
        w.begin_object();
        w.field_u64("pc", op.pc as u64);
        w.field_bool("is_enter", op.is_enter);
        w.field_str("sym", &op.sym.to_string());
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("cond_ops");
    for c in &m.cond_ops {
        w.begin_object();
        w.field_u64("pc", c.pc as u64);
        w.field_bool("is_wait", c.is_wait);
        w.field_str("sym", &c.sym.to_string());
        w.begin_named_array("held");
        for h in &c.held {
            w.elem_str(&h.to_string());
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("invokes");
    for inv in &m.invokes {
        w.begin_object();
        w.field_u64("pc", inv.pc as u64);
        w.field_u64("callee", u64::from(inv.callee));
        w.begin_named_array("args");
        for a in &inv.args {
            w.elem_str(&a.to_string());
        }
        w.end_array();
        w.begin_named_array("held");
        for h in &inv.held {
            w.elem_str(&h.to_string());
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.begin_named_array("field_accesses");
    for fa in &m.field_accesses {
        w.begin_object();
        w.field_u64("pc", fa.pc as u64);
        w.field_str("obj", &fa.obj.to_string());
        w.field_str("field", &fa.field.to_string());
        w.field_bool("is_write", fa.is_write);
        w.begin_named_array("held");
        for h in &fa.held {
            w.elem_str(&h.to_string());
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_program;
    use crate::escape::EscapeContext;
    use thinlock_vm::programs::MicroBench;

    #[test]
    fn exported_report_parses_and_carries_the_tree() {
        let bench = MicroBench::NestedCallSync;
        let ctx = EscapeContext::threads(bench.thread_count());
        let report = analyze_program(&bench.program(), &ctx);
        let mut w = JsonWriter::new();
        write_report(&mut w, "sync-local", ctx.thread_count, &report);
        let json = w.finish();
        let value = thinlock_obs::parse(&json).expect("valid json");
        assert_eq!(
            value.get("program").and_then(|v| v.as_str()),
            Some("sync-local")
        );
        let methods = value
            .get("methods")
            .and_then(|v| v.as_array())
            .expect("methods array");
        assert_eq!(methods.len(), report.methods.len());
        for key in ["lock_order", "escape", "nest", "guards", "contention"] {
            assert!(value.get(key).is_some(), "missing section {key}");
        }
        assert_eq!(
            value.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
        let contention = value.get("contention").unwrap();
        let sites = contention
            .get("sites")
            .and_then(|v| v.as_array())
            .expect("sites array");
        assert_eq!(sites.len(), report.contention.sites.len());
        let plan = contention
            .get("plan")
            .and_then(|v| v.as_array())
            .expect("plan array");
        assert_eq!(plan.len(), sites.len());
        for entry in plan {
            assert!(entry.get("backend_hint").and_then(|v| v.as_str()).is_some());
        }
    }
}
