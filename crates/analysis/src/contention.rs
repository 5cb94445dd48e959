//! Static contention-shape inference (the `contention` pass).
//!
//! Classifies every allocation site (pool index) by its predicted
//! *contention shape* — the dynamic personality of its lock — by
//! combining three static ingredients:
//!
//! * **loop weight**: a per-pc abstract trip count from back-edges
//!   ([`LOOP_WEIGHT`] per nesting level, saturating at [`WEIGHT_CAP`]),
//!   so an acquisition inside a loop predicts many dynamic
//!   acquisitions;
//! * **interprocedural reach**: per-method summaries of acquisition,
//!   `wait`, and `notify` weights, propagated through `Invoke` with the
//!   same substitution fixpoint as the guards pass (callee weights
//!   multiply by the call site's loop weight);
//! * **thread roles**: the [`EntryRole`]s of the concurrent harness
//!   ground each summary — a site's predicted weight is its reachable
//!   weight times the role's thread count, and the number of *distinct
//!   acquiring roles' threads* decides whether contention is even
//!   possible.
//!
//! The shapes form a precedence lattice (first match wins):
//!
//! | shape | evidence | plan |
//! |---|---|---|
//! | [`Shape::ThreadLocal`] | escape pass proves the pool local | elide |
//! | [`Shape::WaitHeavy`] | reachable `wait`/`notify` | pre-inflate |
//! | [`Shape::HotMutex`] | ≥ 2 acquiring threads, looped weight | pin FIFO |
//! | [`Shape::Churn`] | only dynamic (`aloadpool`) lock identities | deflating backend |
//! | [`Shape::Uncontended`] | everything else | thin default |
//!
//! Each [`SiteShape`] carries the plan its shape implies: the `elide`,
//! `pre_inflate` and `pin_fifo` flags and a [`BackendHint`]. The plan is
//! advisory: a caller acts on a flag through the matching protocol hint
//! (`SyncProtocol::pre_inflate_hint`, `SyncProtocol::pin_fifo_hint`),
//! and `lockcheck --plan` checks the static plan against the dynamic
//! [`ContentionProfile`] per site; the agreement contract (divergence
//! allowed only toward the conservative side) is stated in DESIGN.md §18
//! and enforced by [`classify_agreement`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use thinlock_obs::{ContentionProfile, ObjectProfile};
use thinlock_runtime::heap::ObjRef;
use thinlock_vm::program::{Method, Program};

use crate::escape::EscapeReport;
use crate::guards::EntryRole;
use crate::lockstack::{MethodLockFacts, Sym};
use crate::nestdepth::NestDepthReport;

/// Abstract trip-count multiplier per loop-nesting level.
pub const LOOP_WEIGHT: u64 = 8;

/// Saturation bound for abstract weights. Keeps the interprocedural
/// fixpoint finite (recursion would otherwise grow weights without
/// bound) and makes "very hot" a terminal judgment.
pub const WEIGHT_CAP: u64 = 4096;

/// Dynamic contended-acquisition count below which a site counts as
/// *cold* for the agreement gate: a static protection (pin or
/// pre-inflation) on a cold site is a conservative divergence, not a
/// disagreement.
pub const AGREE_COLD: u64 = 8;

/// Dynamic contended-acquisition count above which a site counts as
/// *hot* for the agreement gate: the static plan must protect it. The
/// band between [`AGREE_COLD`] and [`AGREE_HOT`] is hysteresis — either
/// verdict agrees — so scheduler noise near a threshold cannot flip the
/// gate.
pub const AGREE_HOT: u64 = 64;

/// Predicted contention personality of one pool site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    /// Provably confined to one thread: synchronization is removable.
    ThreadLocal,
    /// Shared in principle but no evidence of heat: thin locking wins.
    Uncontended,
    /// Acquired by several threads inside loops: blocking acquisitions
    /// dominate, FIFO admission keeps the handoff fair.
    HotMutex,
    /// Reached by `wait`/`notify`: parking is part of the protocol, so
    /// the fat shape should be armed before the first waiter arrives.
    WaitHeavy,
    /// Lock identities resolved only dynamically (`aloadpool`) inside
    /// loops: many short-lived monitors, so a deflating backend bounds
    /// the monitor population.
    Churn,
}

impl Shape {
    /// Stable lowercase name used in JSON reports and ground-truth
    /// labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Shape::ThreadLocal => "thread-local",
            Shape::Uncontended => "uncontended",
            Shape::HotMutex => "hot-mutex",
            Shape::WaitHeavy => "wait-heavy",
            Shape::Churn => "churn",
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which lock representation a site's predicted contention shape favors.
///
/// Advisory: it names a protocol *capability*, not a concrete backend.
/// The mapping to backends goes through the capability probes on
/// `BackendChoice` (`fifo_admission`, `deflation_capable`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BackendHint {
    /// The featherweight default: a thin lock word is enough.
    #[default]
    Thin,
    /// Park-heavy: start fat so waiters never inflate mid-wait.
    Fat,
    /// Hot and multi-threaded: FIFO admission keeps handoff fair.
    Fifo,
    /// Many short-lived monitors: a deflating backend bounds the
    /// monitor population.
    Deflating,
}

impl BackendHint {
    /// Stable lowercase name used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendHint::Thin => "thin",
            BackendHint::Fat => "fat",
            BackendHint::Fifo => "fifo",
            BackendHint::Deflating => "deflating",
        }
    }
}

impl fmt::Display for BackendHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The contention verdict for one pool index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteShape {
    /// Pool index of the site.
    pub pool: u32,
    /// Predicted shape.
    pub shape: Shape,
    /// Total worker threads across roles that acquire this site.
    pub threads: u32,
    /// Grounded acquisition weight (loop-weighted, times threads,
    /// saturating).
    pub weight: u64,
    /// Grounded `wait` weight reaching this site.
    pub waits: u64,
    /// Grounded `notify` weight reaching this site.
    pub notifies: u64,
    /// One-line human-readable justification.
    pub reason: String,
    /// Monitor operations on this site are provably thread-local and
    /// may be removed (see `transform::elide_local_sync`).
    pub elide: bool,
    /// Switch to the expensive lock shape before the workload runs.
    pub pre_inflate: bool,
    /// Pin the object to FIFO admission for fair handoff.
    pub pin_fifo: bool,
    /// Preferred lock representation for this site.
    pub backend_hint: BackendHint,
}

/// Result of the contention pass over one program.
#[derive(Debug, Clone, Default)]
pub struct ContentionReport {
    /// Per-site verdicts, sorted by pool index, one per pool object.
    pub sites: Vec<SiteShape>,
    /// Acquisition weight on symbols that could not be grounded to a
    /// pool index (dynamic `aloadpool` identities, unresolved
    /// arguments) — the evidence behind [`Shape::Churn`], and a
    /// coverage caveat like `GuardsReport::unresolved_accesses`.
    pub unknown_weight: u64,
}

impl ContentionReport {
    /// The verdict for `pool`, if the program has such a site.
    pub fn site(&self, pool: u32) -> Option<&SiteShape> {
        self.sites.iter().find(|s| s.pool == pool)
    }
}

impl fmt::Display for ContentionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "contention: {} site(s), unknown-weight {}",
            self.sites.len(),
            self.unknown_weight
        )?;
        for s in &self.sites {
            let mut flags = Vec::new();
            if s.elide {
                flags.push("elide");
            }
            if s.pre_inflate {
                flags.push("pre-inflate");
            }
            if s.pin_fifo {
                flags.push("pin-fifo");
            }
            let flags = if flags.is_empty() {
                String::new()
            } else {
                format!(" -> {}", flags.join("+"))
            };
            writeln!(
                f,
                "  pool[{}]: {} ({}){} [hint {}]",
                s.pool, s.shape, s.reason, flags, s.backend_hint
            )?;
        }
        Ok(())
    }
}

/// Per-pc abstract trip count for one method: [`LOOP_WEIGHT`] per
/// enclosing back-edge (a branch whose target is at or before it),
/// saturating at [`WEIGHT_CAP`].
fn loop_weights(method: &Method) -> Vec<u64> {
    let code = method.code();
    let mut depth = vec![0u32; code.len()];
    for (pc, op) in code.iter().enumerate() {
        if let Some(target) = op.branch_target() {
            if target <= pc {
                for d in &mut depth[target..=pc] {
                    *d += 1;
                }
            }
        }
    }
    depth
        .into_iter()
        .map(|d| LOOP_WEIGHT.saturating_pow(d).min(WEIGHT_CAP))
        .collect()
}

/// Reachable lock activity in one method's namespace: per-symbol
/// weights for acquisitions, waits, and notifies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    acquires: BTreeMap<Sym, u64>,
    waits: BTreeMap<Sym, u64>,
    notifies: BTreeMap<Sym, u64>,
}

fn bump(map: &mut BTreeMap<Sym, u64>, sym: Sym, weight: u64) {
    let slot = map.entry(sym).or_insert(0);
    *slot = slot.saturating_add(weight).min(WEIGHT_CAP);
}

/// Folds a callee map into the caller's namespace: substitute each
/// symbol through the call-site arguments and multiply by the call
/// site's loop weight.
fn fold(dst: &mut BTreeMap<Sym, u64>, src: &BTreeMap<Sym, u64>, args: &[Sym], call_weight: u64) {
    for (&sym, &weight) in src {
        bump(
            dst,
            sym.substitute(args),
            weight.saturating_mul(call_weight).min(WEIGHT_CAP),
        );
    }
}

/// Computes, per method, the weighted lock activity reachable from it,
/// via the same monotone summary fixpoint as the guards pass. Weights
/// saturate at [`WEIGHT_CAP`], so recursion converges.
fn summarize(program: &Program, facts: &[MethodLockFacts]) -> BTreeMap<u16, Summary> {
    let weights: BTreeMap<u16, Vec<u64>> = facts
        .iter()
        .filter_map(|f| {
            let method = program.methods().get(usize::from(f.method_id))?;
            Some((f.method_id, loop_weights(method)))
        })
        .collect();
    let mut summaries: BTreeMap<u16, Summary> = facts
        .iter()
        .map(|f| (f.method_id, Summary::default()))
        .collect();
    loop {
        let mut changed = false;
        for f in facts {
            let at = |pc: usize| {
                weights
                    .get(&f.method_id)
                    .and_then(|w| w.get(pc))
                    .copied()
                    .unwrap_or(1)
                    .max(1)
            };
            let mut s = Summary::default();
            for a in &f.acquires {
                bump(&mut s.acquires, a.sym, at(a.pc));
            }
            for c in &f.cond_ops {
                let map = if c.is_wait {
                    &mut s.waits
                } else {
                    &mut s.notifies
                };
                bump(map, c.sym, at(c.pc));
            }
            for call in &f.invokes {
                let Some(callee) = summaries.get(&call.callee) else {
                    continue;
                };
                let callee = callee.clone();
                let cw = at(call.pc);
                fold(&mut s.acquires, &callee.acquires, &call.args, cw);
                fold(&mut s.waits, &callee.waits, &call.args, cw);
                fold(&mut s.notifies, &callee.notifies, &call.args, cw);
            }
            if s != summaries[&f.method_id] {
                summaries.insert(f.method_id, s);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

#[derive(Debug, Clone, Copy, Default)]
struct PoolStats {
    weight: u64,
    threads: u32,
    waits: u64,
    notifies: u64,
}

/// Runs the contention pass: grounds the per-role summaries at the
/// entry roles, classifies every pool site, and derives each site's
/// plan flags from its shape.
pub fn analyze(
    program: &Program,
    facts: &[MethodLockFacts],
    roles: &[EntryRole],
    escape: &EscapeReport,
    nest: &NestDepthReport,
) -> ContentionReport {
    let summaries = summarize(program, facts);
    let mut stats: BTreeMap<u32, PoolStats> = BTreeMap::new();
    let mut unknown_weight = 0u64;

    for role in roles {
        let Some(summary) = summaries.get(&role.method) else {
            continue;
        };
        let threads = u64::from(role.threads.max(1));
        for (&sym, &weight) in &summary.acquires {
            match sym {
                Sym::Pool(p) => {
                    let s = stats.entry(p).or_default();
                    s.weight = s.weight.saturating_add(weight.saturating_mul(threads));
                    s.threads += role.threads.max(1);
                }
                // Entry arguments are harness integers; anything still
                // symbolic at the root is a dynamic lock identity.
                Sym::Arg(_) | Sym::Unknown => {
                    unknown_weight = unknown_weight.saturating_add(weight.saturating_mul(threads));
                }
            }
        }
        for (map, pick) in [(&summary.waits, true), (&summary.notifies, false)] {
            for (&sym, &weight) in map {
                if let Sym::Pool(p) = sym {
                    let s = stats.entry(p).or_default();
                    let grounded = weight.saturating_mul(threads);
                    if pick {
                        s.waits = s.waits.saturating_add(grounded);
                    } else {
                        s.notifies = s.notifies.saturating_add(grounded);
                    }
                }
            }
        }
    }

    let hinted: BTreeSet<u32> = nest.hints.iter().copied().collect();
    let mut sites = Vec::new();
    for pool in 0..program.pool_size() {
        let s = stats.get(&pool).copied().unwrap_or_default();
        let locked_dynamically =
            s.weight == 0 && unknown_weight >= LOOP_WEIGHT && escape.context.pool_is_shared(pool);
        let (shape, reason) = if escape.local_pool.contains(&pool) {
            (
                Shape::ThreadLocal,
                "escape pass proves the site thread-local".to_string(),
            )
        } else if s.waits + s.notifies > 0 {
            (
                Shape::WaitHeavy,
                format!("wait weight {}, notify weight {}", s.waits, s.notifies),
            )
        } else if s.threads >= 2 && s.weight >= LOOP_WEIGHT {
            (
                Shape::HotMutex,
                format!("{} acquiring thread(s), weight {}", s.threads, s.weight),
            )
        } else if locked_dynamically {
            (
                Shape::Churn,
                format!("no grounded acquisition, shared, dynamic lock weight {unknown_weight}"),
            )
        } else if s.weight > 0 {
            (
                Shape::Uncontended,
                format!("{} acquiring thread(s), weight {}", s.threads, s.weight),
            )
        } else {
            (Shape::Uncontended, "no reachable acquisition".to_string())
        };

        let elide = shape == Shape::ThreadLocal;
        let pre_inflate = shape == Shape::WaitHeavy || (!elide && hinted.contains(&pool));
        let pin_fifo = shape == Shape::HotMutex;
        let backend_hint = match shape {
            Shape::WaitHeavy => BackendHint::Fat,
            Shape::HotMutex => BackendHint::Fifo,
            Shape::Churn => BackendHint::Deflating,
            // A nest-depth hint (predicted count overflow) wants the fat
            // shape even without contention.
            Shape::Uncontended if pre_inflate => BackendHint::Fat,
            Shape::ThreadLocal | Shape::Uncontended => BackendHint::Thin,
        };
        sites.push(SiteShape {
            pool,
            shape,
            threads: s.threads,
            weight: s.weight,
            waits: s.waits,
            notifies: s.notifies,
            reason,
            elide,
            pre_inflate,
            pin_fifo,
            backend_hint,
        });
    }

    ContentionReport {
        sites,
        unknown_weight,
    }
}

/// The contended acquisitions a dynamic profile attributes to one
/// object: thin acquisitions that spun plus fat acquisitions that
/// queued. The one formula behind both the dynamic pin set
/// ([`dynamic_pins`]) and the plan pass's per-site agreement check.
pub fn contended_acquisitions(object: &ObjectProfile) -> u64 {
    object.acquire_contended_thin + object.acquire_fat_contended
}

/// The objects a *dynamic* profile pins: those whose
/// [`contended_acquisitions`] reach `threshold`. Kept here, next to the
/// static planner, so `lockcheck --plan` derives the dynamic side of the
/// agreement check from the same code whose set the bench harness's
/// `fairness` section pins.
///
/// # Panics
///
/// If `threshold` is zero (it would pin every object ever touched).
pub fn dynamic_pins(profile: &ContentionProfile, threshold: u64) -> Vec<ObjRef> {
    assert!(threshold >= 1, "a zero threshold would pin every object");
    profile
        .objects
        .iter()
        .filter(|o| contended_acquisitions(o) >= threshold)
        .map(|o| o.obj)
        .collect()
}

/// One site's verdict from the static↔dynamic agreement gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// Static and dynamic tell the same story (including the hysteresis
    /// band between [`AGREE_COLD`] and [`AGREE_HOT`]).
    Agree,
    /// The static plan protects a site the dynamic run found cold —
    /// allowed, enumerated: static analysis over-approximates (and a
    /// serialized single-CPU schedule can hide real contention).
    Conservative,
    /// The dynamic run demanded protection the static plan lacks. This
    /// is the failure `--deny-disagreement` gates on.
    Disagree,
}

impl Agreement {
    /// Stable lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Agreement::Agree => "agree",
            Agreement::Conservative => "conservative",
            Agreement::Disagree => "disagree",
        }
    }
}

impl fmt::Display for Agreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Compares one site's static plan against its dynamic profile.
///
/// `contended` is the dynamic [`contended_acquisitions`] count, `waits` the
/// dynamic wait count. The static side *protects* a site when it pins
/// or pre-inflates it. The rules, from DESIGN.md §18:
///
/// * dynamic waiters require static pre-inflation;
/// * a dynamically hot site (`contended >= AGREE_HOT`) requires some
///   static protection;
/// * static protection on a dynamically cold site
///   (`contended <= AGREE_COLD`, no waits) is a conservative
///   divergence;
/// * everything else agrees.
pub fn classify_agreement(site: &SiteShape, contended: u64, waits: u64) -> Agreement {
    let protects = site.pin_fifo || site.pre_inflate;
    if waits > 0 && !site.pre_inflate {
        return Agreement::Disagree;
    }
    if contended >= AGREE_HOT && !protects {
        return Agreement::Disagree;
    }
    if protects && contended <= AGREE_COLD && waits == 0 {
        return Agreement::Conservative;
    }
    Agreement::Agree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape::{self, EscapeContext};
    use crate::guards::{default_roles, entry_roles};
    use crate::lockstack;
    use crate::nestdepth;
    use thinlock_vm::program::{Method, MethodFlags};
    use thinlock_vm::Op;

    fn run(program: &Program, ctx: &EscapeContext) -> ContentionReport {
        let facts = lockstack::analyze_program(program);
        let escape = escape::analyze(program, &facts, ctx);
        let nest = nestdepth::analyze(&facts);
        analyze(
            program,
            &facts,
            &default_roles(program, ctx),
            &escape,
            &nest,
        )
    }

    /// `main(iters)`: loop `iters` times around `body`.
    fn looped(pool: u32, body: Vec<Op>) -> Program {
        let mut code = vec![
            Op::IConst(0),
            Op::IStore(1),
            // loop head (pc 2)
            Op::ILoad(1),
            Op::ILoad(0),
            Op::IfICmpGe(usize::MAX), // patched below
        ];
        code.extend(body);
        code.extend([Op::IInc(1, 1), Op::Goto(2), Op::Return]);
        let exit = code.len() - 1;
        code[4] = Op::IfICmpGe(exit);
        let mut p = Program::new(pool);
        p.add_method(Method::new("main", 1, 2, MethodFlags::default(), code));
        p
    }

    #[test]
    fn loop_weights_multiply_per_nesting_level() {
        let m = Method::new(
            "m",
            0,
            1,
            MethodFlags::default(),
            vec![
                Op::IConst(0), // pc 0: depth 0
                Op::IConst(0), // pc 1: depth 1 (outer loop body)
                Op::IConst(0), // pc 2: depth 2 (inner loop body)
                Op::Goto(2),   // pc 3: inner back-edge
                Op::Goto(1),   // pc 4: outer back-edge
                Op::Return,
            ],
        );
        let w = loop_weights(&m);
        assert_eq!(w[0], 1);
        assert_eq!(w[1], LOOP_WEIGHT);
        assert_eq!(w[2], LOOP_WEIGHT * LOOP_WEIGHT);
        assert_eq!(w[5], 1);
    }

    #[test]
    fn looped_shared_lock_is_a_hot_mutex() {
        let p = looped(
            1,
            vec![
                Op::AConst(0),
                Op::MonitorEnter,
                Op::AConst(0),
                Op::MonitorExit,
            ],
        );
        let r = run(&p, &EscapeContext::threads(4));
        let site = r.site(0).expect("pool[0] classified");
        assert_eq!(site.shape, Shape::HotMutex, "{}", site.reason);
        assert_eq!(site.threads, 4);
        assert!(site.weight >= LOOP_WEIGHT * 4);
        assert!(site.pin_fifo && !site.elide && !site.pre_inflate);
        assert_eq!(site.backend_hint, BackendHint::Fifo);
    }

    #[test]
    fn single_thread_never_classifies_hot() {
        let p = looped(
            1,
            vec![
                Op::AConst(0),
                Op::MonitorEnter,
                Op::AConst(0),
                Op::MonitorExit,
            ],
        );
        // One thread: the lock is thread-local, so it is elidable, not
        // hot.
        let r = run(&p, &EscapeContext::single_threaded());
        let site = r.site(0).unwrap();
        assert_eq!(site.shape, Shape::ThreadLocal);
        assert!(site.elide);
        assert!(!site.pin_fifo);
    }

    #[test]
    fn straightline_shared_lock_stays_uncontended() {
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "main",
            1,
            1,
            MethodFlags::default(),
            vec![
                Op::AConst(0),
                Op::MonitorEnter,
                Op::AConst(0),
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        let r = run(&p, &EscapeContext::threads(4));
        let site = r.site(0).unwrap();
        assert_eq!(site.shape, Shape::Uncontended, "{}", site.reason);
        assert!(!site.pin_fifo && !site.pre_inflate && !site.elide);
    }

    #[test]
    fn wait_and_notify_make_a_site_wait_heavy() {
        let p = looped(
            1,
            vec![
                Op::AConst(0),
                Op::MonitorEnter,
                Op::AConst(0),
                Op::Wait,
                Op::AConst(0),
                Op::Notify,
                Op::AConst(0),
                Op::MonitorExit,
            ],
        );
        let r = run(&p, &EscapeContext::threads(3));
        let site = r.site(0).unwrap();
        assert_eq!(site.shape, Shape::WaitHeavy, "{}", site.reason);
        assert!(site.waits > 0 && site.notifies > 0);
        assert!(site.pre_inflate && !site.pin_fifo);
        assert_eq!(site.backend_hint, BackendHint::Fat);
    }

    #[test]
    fn dynamic_lock_identities_classify_as_churn() {
        // Lock pool[i % 3] each iteration: every acquisition is through
        // `aloadpool` with a loop-varying index, so no pool site gets
        // grounded weight but the program clearly locks in a loop.
        let mut p = Program::new(3);
        p.add_method(Method::new(
            "main",
            1,
            3,
            MethodFlags::default(),
            vec![
                Op::IConst(0),
                Op::IStore(1),
                Op::ILoad(1), // pc 2: loop head
                Op::ILoad(0),
                Op::IfICmpGe(16),
                Op::ILoad(1),
                Op::IConst(3),
                Op::IRem,
                Op::ALoadPool,
                Op::AStore(2),
                Op::ALoad(2),
                Op::MonitorEnter,
                Op::ALoad(2),
                Op::MonitorExit,
                Op::IInc(1, 1),
                Op::Goto(2),
                Op::Return,
            ],
        ));
        let r = run(&p, &EscapeContext::threads(2));
        assert!(r.unknown_weight >= LOOP_WEIGHT);
        for pool in 0..3 {
            let site = r.site(pool).unwrap();
            assert_eq!(site.shape, Shape::Churn, "pool[{pool}]: {}", site.reason);
            assert_eq!(site.backend_hint, BackendHint::Deflating);
        }
    }

    #[test]
    fn callee_weights_multiply_through_loops_and_substitute_args() {
        // main loops invoking bump(pool[0]); bump locks arg0 without a
        // loop of its own. The acquisition must ground to pool[0] with
        // looped weight.
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "main",
            1,
            2,
            MethodFlags::default(),
            vec![
                Op::IConst(0),
                Op::IStore(1),
                Op::ILoad(1), // pc 2: loop head
                Op::ILoad(0),
                Op::IfICmpGe(8),
                Op::AConst(0),
                Op::Invoke(1),
                Op::Goto(2),
                Op::Return,
            ],
        ));
        p.add_method(Method::new(
            "bump",
            1,
            1,
            MethodFlags::default(),
            vec![
                Op::ALoad(0),
                Op::MonitorEnter,
                Op::ALoad(0),
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        let r = run(&p, &EscapeContext::threads(2));
        let site = r.site(0).unwrap();
        assert_eq!(site.shape, Shape::HotMutex, "{}", site.reason);
        assert!(site.weight >= LOOP_WEIGHT * 2, "weight {}", site.weight);
        assert_eq!(r.unknown_weight, 0);
    }

    #[test]
    fn recursive_weights_saturate_and_converge() {
        // rec(obj): lock obj; rec(obj) — an unbounded static cycle. The
        // fixpoint must terminate with the weight capped, not hang.
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "main",
            1,
            1,
            MethodFlags::default(),
            vec![Op::AConst(0), Op::Invoke(1), Op::Return],
        ));
        p.add_method(Method::new(
            "rec",
            1,
            1,
            MethodFlags::default(),
            vec![
                Op::ALoad(0),
                Op::MonitorEnter,
                Op::ALoad(0),
                Op::Invoke(1),
                Op::ALoad(0),
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        let r = run(&p, &EscapeContext::threads(2));
        let site = r.site(0).unwrap();
        assert_eq!(site.weight, WEIGHT_CAP * 2, "saturated weight x threads");
        assert_eq!(site.shape, Shape::HotMutex);
    }

    #[test]
    fn library_ground_truth_shapes_are_reproduced() {
        // The concurrent library carries hand-labeled expected shapes
        // per pool site; the pass must reproduce every one of them.
        // This is the deterministic half of the `lockcheck --plan`
        // agreement gate.
        for entry in thinlock_vm::programs::concurrent_library() {
            let ctx = EscapeContext::threads(entry.total_threads());
            let facts = lockstack::analyze_program(&entry.program);
            let escape = escape::analyze(&entry.program, &facts, &ctx);
            let nest = nestdepth::analyze(&facts);
            let r = analyze(&entry.program, &facts, &entry_roles(&entry), &escape, &nest);
            for &(pool, expected) in &entry.expected_shapes {
                let site = r
                    .site(pool)
                    .unwrap_or_else(|| panic!("{}: pool[{pool}] has no site verdict", entry.name));
                assert_eq!(
                    site.shape.as_str(),
                    expected,
                    "{}: pool[{pool}] ({})",
                    entry.name,
                    site.reason
                );
            }
        }
    }

    #[test]
    fn agreement_rules_cover_the_lattice() {
        let site = |pin_fifo, pre_inflate| SiteShape {
            pool: 0,
            shape: Shape::Uncontended,
            threads: 0,
            weight: 0,
            waits: 0,
            notifies: 0,
            reason: String::new(),
            elide: false,
            pre_inflate,
            pin_fifo,
            backend_hint: BackendHint::Thin,
        };
        let protect = site(true, false);
        let inflate = site(false, true);
        let neutral = site(false, false);
        // Hot dynamic site without static protection: disagree.
        assert_eq!(
            classify_agreement(&neutral, AGREE_HOT, 0),
            Agreement::Disagree
        );
        // Dynamic waiters demand pre-inflation specifically.
        assert_eq!(classify_agreement(&protect, 0, 1), Agreement::Disagree);
        assert_eq!(classify_agreement(&inflate, 0, 1), Agreement::Agree);
        // Static protection on a cold site: conservative, enumerated.
        assert_eq!(
            classify_agreement(&protect, AGREE_COLD, 0),
            Agreement::Conservative
        );
        // The hysteresis band agrees either way.
        assert_eq!(
            classify_agreement(&protect, AGREE_COLD + 1, 0),
            Agreement::Agree
        );
        assert_eq!(
            classify_agreement(&neutral, AGREE_HOT - 1, 0),
            Agreement::Agree
        );
        // Cold and unprotected: agree.
        assert_eq!(classify_agreement(&neutral, 0, 0), Agreement::Agree);
    }

    #[test]
    fn backend_hint_names_are_stable() {
        for (h, s) in [
            (BackendHint::Thin, "thin"),
            (BackendHint::Fat, "fat"),
            (BackendHint::Fifo, "fifo"),
            (BackendHint::Deflating, "deflating"),
        ] {
            assert_eq!(h.as_str(), s);
            assert_eq!(h.to_string(), s);
        }
        assert_eq!(BackendHint::default(), BackendHint::Thin);
    }
}
