//! Ledger-emitting experiment runs ([`ledger_runs`]) and their shared
//! helpers.
//!
//! The helpers here standardize the common simulation shape — run a
//! protocol over a pair of symmetric channels under a script, assert the
//! run completed, return the metrics.

use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::{Dir, DlAction};
use dl_sim::{link_system, Metrics, Runner, Script};
use ioa::Automaton;

pub mod ledger_runs;

/// Runs `protocol` over a symmetric pair of lossy FIFO channels under
/// `script`, asserting quiescence, and returns the metrics.
///
/// # Panics
///
/// Panics if the run fails to quiesce — a workload must not silently
/// measure a stuck system.
pub fn run_over_fifo<T, R>(tx: T, rx: R, mode: LossMode, script: &Script, seed: u64) -> Metrics
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let sys = link_system(
        tx,
        rx,
        LossyFifoChannel::new(Dir::TR, mode),
        LossyFifoChannel::new(Dir::RT, mode),
    );
    let mut runner = Runner::new(seed, usize::MAX / 2);
    let report = runner.run(&sys, script);
    assert!(report.quiescent, "bench run did not quiesce");
    report.metrics
}

/// [`run_over_fifo`] for the canonical deliver-n workload, additionally
/// asserting full delivery.
pub fn deliver_n_over_fifo<T, R>(tx: T, rx: R, mode: LossMode, n: u64, seed: u64) -> Metrics
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let metrics = run_over_fifo(tx, rx, mode, &Script::deliver_n(n), seed);
    assert_eq!(metrics.msgs_received, n, "bench run lost messages");
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_runs_and_asserts() {
        let p = dl_protocols::abp::protocol();
        let m = deliver_n_over_fifo(p.transmitter, p.receiver, LossMode::EveryNth(3), 5, 1);
        assert_eq!(m.msgs_received, 5);
        assert!(m.pkts_sent[0] >= 5);
    }
}
