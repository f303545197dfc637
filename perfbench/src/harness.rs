//! The timed phase shared by every workload: repeated passes over one
//! fixed input until the run's seconds are spent.
//!
//! Each pass does the same work on the same seeded input, so every
//! difference between passes is the host's, and on a shared VM it is
//! large: while the hypervisor steals the vCPU, wall-clock rates fall by
//! half or more, and while neighbours load the same core and caches, the
//! CPU itself runs up to 1.7 times slower, for minutes at a time. A pass
//! is therefore timed by this thread's CPU clock, which stops while the
//! thread is off the CPU. Consecutive passes are pooled into blocks of
//! at least [`BLOCK_CPU_S`] of CPU time, a fixed reference is timed right
//! after each block, and the block's rate is stated per reference
//! second, at one host speed. A run reports the median block rate. The
//! wall-clock rate is reported beside it. A traced run alternates
//! untraced and traced passes, which gives the tracing overhead from
//! passes measured side by side.

use crate::machine::{self, reference_seconds, Snapshot, Spent, OTHER_THREADS_TOLERANCE_S};
use crate::metrics::{median, quantile};
use crate::spans::{Name, Tracer};
use std::time::Instant;

/// Fewest passes of each kind a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// CPU seconds of passes pooled into one block: long enough that the
/// reference timed after it costs a few percent of the run.
pub const BLOCK_CPU_S: f64 = 0.5;

/// How far the traced layers' summed time may sit from the traced wall
/// time before a run reports its split as not explaining the run.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// The report line of the layer-coverage check. It is reported, not
/// failed: it judges the trace, not the program's outputs.
pub fn coverage_note(workload: &str, ratio: f64) -> String {
    let verdict = if (ratio - 1.0).abs() <= COVERAGE_TOLERANCE {
        "within"
    } else {
        "OUTSIDE"
    };
    format!(
        "{workload}: traced layers sum to {ratio:.4} of traced wall time, {verdict} {}%",
        COVERAGE_TOLERANCE * 100.0
    )
}

/// Consecutive passes of one kind, pooled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    /// Operations performed.
    pub ops: u64,
    /// Wall and CPU seconds the passes took.
    pub spent: Spent,
    /// CPU milliseconds of the reference timed right after the block.
    pub reference_ms: f64,
}

impl Block {
    /// Operations per reference second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / reference_seconds(self.spent.cpu_s, self.reference_ms).max(1e-12)
    }

    fn add(&mut self, ops: u64, spent: Spent) {
        self.ops += ops;
        self.spent.wall_s += spent.wall_s;
        self.spent.cpu_s += spent.cpu_s;
    }
}

/// What the timed phase measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every untraced block, in order.
    pub untraced: Vec<Block>,
    /// Every traced block, in order.
    pub traced: Vec<Block>,
    /// Untraced passes.
    pub untraced_passes: usize,
    /// Traced passes.
    pub traced_passes: usize,
    /// Operations over every pass.
    pub ops: u64,
    /// Operations over the traced passes.
    pub traced_ops: u64,
    /// Hypervisor steal over the phase, percent of host CPU time.
    pub steal_pct: f64,
    /// CPU time this thread got per wall second over the phase.
    pub cpu_per_wall: f64,
    /// Passes that began or ended with more than one thread alive.
    pub multi_threaded_passes: usize,
    /// CPU seconds the process's other threads used over the phase.
    pub other_threads_s: f64,
}

impl Measured {
    /// Untraced operations per reference second: the median block rate.
    pub fn ops_per_ref_s(&self) -> f64 {
        median(&rates(&self.untraced))
    }

    /// Passes of both kinds.
    pub fn passes(&self) -> usize {
        self.untraced_passes + self.traced_passes
    }

    /// The reference's median CPU milliseconds over the run.
    pub fn reference_ms(&self) -> f64 {
        let all: Vec<f64> = self
            .untraced
            .iter()
            .chain(&self.traced)
            .map(|b| b.reference_ms)
            .collect();
        median(&all)
    }

    /// One report line: the untraced block rates' spread, and the CPU
    /// and wall clocks' view of the same blocks.
    pub fn describe(&self) -> String {
        let blocks = rates(&self.untraced);
        let q = |p| quantile(&blocks, p);
        let per = |secs: fn(&Block) -> f64| {
            let r: Vec<f64> = self
                .untraced
                .iter()
                .map(|b| b.ops as f64 / secs(b).max(1e-12))
                .collect();
            median(&r)
        };
        format!(
            "block rates (1/ref s): {} blocks of {} untraced passes, min {:.5e}, p25 {:.5e}, \
             p50 {:.5e}, p75 {:.5e}, max {:.5e}; median block {:.5e} 1/CPU s, {:.5e} 1/wall s; \
             reference {:.3} ms; {:.3} CPU s per wall s; {} traced passes",
            blocks.len(),
            self.untraced_passes,
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0),
            per(|b| b.spent.cpu_s),
            per(|b| b.spent.wall_s),
            self.reference_ms(),
            self.cpu_per_wall,
            self.traced_passes
        )
    }

    /// How much slower traced passes ran than untraced ones, in percent,
    /// median block rate against median block rate.
    pub fn trace_overhead_pct(&self) -> f64 {
        let traced = median(&rates(&self.traced));
        if traced > 0.0 {
            (self.ops_per_ref_s() / traced - 1.0) * 100.0
        } else {
            0.0
        }
    }

    /// The phase's one-thread checks that failed, each described in one
    /// line; `passes` names what a pass is.
    pub fn thread_problems(&self, passes: &str) -> Vec<String> {
        let mut problems = Vec::new();
        if self.multi_threaded_passes > 0 {
            problems.push(format!(
                "{} timed {passes} saw a second thread",
                self.multi_threaded_passes
            ));
        }
        if self.other_threads_s > OTHER_THREADS_TOLERANCE_S {
            problems.push(format!(
                "other threads used {:.3} CPU s while {passes} were timed",
                self.other_threads_s
            ));
        }
        problems
    }
}

fn rates(blocks: &[Block]) -> Vec<f64> {
    blocks.iter().map(Block::rate).collect()
}

/// Runs `pass` until `seconds` of wall time have passed and each pass
/// kind has run at least `MIN_PASSES` times, timing each pass by the
/// wall and CPU clocks. Before each pass, `prepare` builds that pass's
/// fresh state outside the timed interval. `pass` gets the state,
/// and the tracer on traced passes, and returns the operations it
/// performed. With a tracer, passes alternate untraced, traced,
/// untraced, ...; each traced pass is also recorded as a [`Name::Pass`]
/// span.
pub fn measure<S>(
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    mut prepare: impl FnMut() -> S,
    mut pass: impl FnMut(S, Option<&mut Tracer>) -> u64,
) -> Measured {
    let mut m = Measured::default();
    // The block being filled, untraced then traced.
    let mut open = [Block::default(); 2];
    let before = Snapshot::take();
    let started = Instant::now();
    for i in 0.. {
        let traced = tracer.is_some() && i % 2 == 1;
        let state = prepare();
        if machine::thread_count() != 1 {
            m.multi_threaded_passes += 1;
        }
        let start = Snapshot::clocks();
        let ops = if traced {
            let t = tracer.as_deref_mut().expect("traced passes have a tracer");
            let span = t.begin(Name::Pass, 0);
            let ops = pass(state, Some(&mut *t));
            t.end(span);
            ops
        } else {
            pass(state, None)
        };
        let spent = start.spent_until(&Snapshot::clocks());
        if machine::thread_count() != 1 {
            m.multi_threaded_passes += 1;
        }
        m.ops += ops;
        if traced {
            m.traced_ops += ops;
            m.traced_passes += 1;
        } else {
            m.untraced_passes += 1;
        }
        let block = &mut open[usize::from(traced)];
        block.add(ops, spent);
        if block.spent.cpu_s >= BLOCK_CPU_S {
            block.reference_ms = machine::reference_ms();
            let done = std::mem::take(block);
            if traced {
                &mut m.traced
            } else {
                &mut m.untraced
            }
            .push(done);
        }
        let enough =
            m.untraced_passes >= MIN_PASSES && (tracer.is_none() || m.traced_passes >= MIN_PASSES);
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // A run too short to fill a block keeps its partial one.
    for (block, blocks) in open.iter_mut().zip([&mut m.untraced, &mut m.traced]) {
        if blocks.is_empty() && block.ops > 0 {
            block.reference_ms = machine::reference_ms();
            blocks.push(*block);
        }
    }
    let after = Snapshot::take();
    (m.steal_pct, m.cpu_per_wall) = machine::noise(&before, &after);
    m.other_threads_s = before.other_threads_s(&after);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_alternate_when_traced() {
        let mut tracer = Tracer::new();
        let mut kinds = Vec::new();
        let m = measure(
            0.0,
            Some(&mut tracer),
            || (),
            |(), t| {
                kinds.push(t.is_some());
                10
            },
        );
        assert_eq!(kinds, [false, true, false, true, false, true]);
        assert_eq!(m.ops, 60);
        assert_eq!(m.traced_ops, 30);
        assert_eq!(tracer.count(Name::Pass), 3);
        assert_eq!((m.untraced.len(), m.traced.len()), (1, 1));
        let untraced = measure(
            0.0,
            None,
            || (),
            |(), t| {
                assert!(t.is_none());
                1
            },
        );
        assert_eq!(untraced.untraced_passes, MIN_PASSES);
        assert_eq!(
            untraced.untraced.len(),
            1,
            "a short run keeps its partial block"
        );
        assert!(untraced.traced.is_empty());
    }

    #[test]
    fn a_block_rate_is_per_reference_second() {
        let block = Block {
            ops: 300,
            spent: Spent {
                wall_s: 2.0,
                cpu_s: 1.0,
            },
            reference_ms: machine::REFERENCE_NOMINAL_MS * 2.0,
        };
        assert!((block.rate() - 600.0).abs() < 1e-9);
    }
}
