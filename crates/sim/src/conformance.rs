//! What a monitored run is judged against: the switches of
//! [`crate::Runner::with_online_conformance`]'s streaming monitor.
//!
//! A finished run's behavior and schedule are judged in one batch by the
//! specification modules themselves (`DlModule::check`,
//! `PlModule::check`).

/// What to judge a run against.
#[derive(Debug, Clone, Copy)]
pub struct ConformancePolicy {
    /// Check the full `DL` spec (`false` = weak `WDL` only).
    pub full_dl: bool,
    /// Check the schedule against `PL-FIFO` per direction (`false` = the
    /// weaker `PL`, for reordering channels).
    pub fifo_channels: bool,
    /// Include physical-layer conclusions (PL3/PL4, PL5 under
    /// `fifo_channels`) in online monitoring. Set to `false` when the
    /// medium misbehaves by design — e.g. the duplication knob of
    /// `dl-channels`' `FaultyChannel` violates PL3 on purpose — so the
    /// online monitor aborts only on data-link violations of the protocol
    /// under test. `false` also makes the online monitor a
    /// [`TraceMonitor::data_link_only`] one, which skips packet actions
    /// (its physical-layer queries panic).
    ///
    /// [`TraceMonitor::data_link_only`]: dl_core::spec::monitor::TraceMonitor::data_link_only
    pub monitor_pl: bool,
}

impl Default for ConformancePolicy {
    fn default() -> Self {
        ConformancePolicy {
            full_dl: true,
            fifo_channels: true,
            monitor_pl: true,
        }
    }
}
