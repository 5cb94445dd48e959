//! churn-1t: monitor churn. One thread picks one of 65,536 objects from
//! its seeded stream and runs lock → `notify` → unlock: `notify` on a
//! thin-held word is the paper's own inflation trigger, with no timed
//! wait on a host timer. The round then runs private lock/unlock pairs on
//! the same object. The one-way backends keep every object fat, so their
//! pairs run on the fat path; cjm deflates at the unlock after `notify`
//! and pays one inflation and one deflation per round.

use std::time::Instant;

use thinlock_runtime::{ObjRef, SyncBackend, SyncProtocol, SyncResult, ThreadToken};

use crate::backends::Tally;
use crate::inputs::Rng;
use crate::run::{self, Bench, Set, Slices};
use crate::spans::{SpanRecorder, ThreadLog};

/// Objects per backend. The one-way backends hold a monitor for each,
/// which outgrows the per-core L2 (2 MiB on the reference host).
pub const OBJECTS: usize = 1 << 16;
/// Private lock/unlock pairs after the `notify`.
pub const PRIVATE_PAIRS: u64 = 16;
/// Acquisitions one round makes.
pub const ROUND_CALLS: u64 = 1 + PRIVATE_PAIRS;

/// Seeded stream of the objects the rounds pick.
const STREAM: u64 = 3;

/// One round on `obj`: lock, `notify`, unlock, then the private pairs.
pub fn round<P: SyncProtocol + ?Sized>(p: &P, obj: ObjRef, me: ThreadToken) -> SyncResult<()> {
    p.lock(obj, me)?;
    p.notify(obj, me)?;
    p.unlock(obj, me)?;
    for _ in 0..PRIVATE_PAIRS {
        p.lock(obj, me)?;
        p.unlock(obj, me)?;
    }
    Ok(())
}

/// Checks a round that returned `result`: it succeeded only if every call
/// did and `obj` has no owner afterwards. Counts its acquisitions.
pub fn check_round(
    backend: &dyn SyncBackend,
    obj: ObjRef,
    result: SyncResult<()>,
    tally: &mut Tally,
) {
    if result.is_ok() && backend.owner_of(obj).is_none() {
        tally.ok(ROUND_CALLS);
    } else {
        tally.fail(ROUND_CALLS);
    }
}

/// churn-1t with its seed.
pub(crate) struct Churn {
    /// Seed of the objects the rounds pick.
    pub seed: u64,
}

impl Bench for Churn {
    type Extra = ();
    const HEAP_OBJECTS: usize = OBJECTS;
    const FIELDS: usize = 0;

    fn extra(&self) {}

    /// Visits every object once, in order, so the one-way backends start
    /// the timed slices with every monitor inflated.
    fn warm_up(&self, set: &Set<()>, b: usize, _rep: usize, tally: &mut Tally) {
        let p = &*set.backends[b];
        for &obj in &set.objects[b] {
            check_round(p, obj, round(p, obj, set.token(b, 0)), tally);
        }
    }

    fn timed(
        &self,
        set: &Set<()>,
        recorders: &[SpanRecorder],
        slices: &mut Slices<'_>,
    ) -> Vec<ThreadLog> {
        let mut rngs = vec![Rng::new(self.seed, STREAM); slices.kinds()];
        slices.run(|kind, deadline, times, tally| {
            let b = kind % 4;
            let me = set.token(b, 0);
            let backend = &*set.backends[b];
            loop {
                let obj = set.objects[b][rngs[kind].below_pow2(OBJECTS)];
                let t0 = Instant::now();
                let result = if kind < 4 {
                    round(backend, obj, me)
                } else {
                    recorders[b].begin_request();
                    round(&recorders[b], obj, me)
                };
                let t1 = Instant::now();
                if kind >= 4 {
                    recorders[b].end_request(me, t0, t1);
                }
                times.record(run::ns(t1 - t0));
                check_round(backend, obj, result, tally);
                if t1 >= deadline {
                    break;
                }
            }
        });
        Vec::new()
    }
}
