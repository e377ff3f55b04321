//! Building the composed data link implementation (paper Figure 3).

use ioa::composition::{Compose2, Pair};
use ioa::hiding::Hide;
use ioa::Automaton;

use dl_core::action::DlAction;

/// The hiding predicate of §5.2: `Φ` is the set of `send_pkt` and
/// `receive_pkt` actions.
fn is_packet_action(a: &DlAction) -> bool {
    a.is_packet_action()
}

/// The composed system type: `hide_Φ((Aᵗ × Aʳ) × (C^{t,r} × C^{r,t}))`.
pub type LinkSystem<T, R, C1, C2> =
    Hide<Compose2<Compose2<T, R>, Compose2<C1, C2>>, fn(&DlAction) -> bool>;

/// The composed system's state shape.
pub type LinkState<T, R, C1, C2> = Pair<
    Pair<<T as Automaton>::State, <R as Automaton>::State>,
    Pair<<C1 as Automaton>::State, <C2 as Automaton>::State>,
>;

/// Composes a transmitter, receiver, and two channels into the §5.2 system
/// `hide_Φ(D)` whose external actions are exactly the data-link-layer
/// actions.
///
/// The components must be strongly compatible, which holds by construction
/// for any automata following the canonical §5.1/§3 signatures (audited by
/// `dl_core::protocol::check_station_signature` and the composition's own
/// `check_compatible`).
pub fn link_system<T, R, C1, C2>(
    transmitter: T,
    receiver: R,
    channel_tr: C1,
    channel_rt: C2,
) -> LinkSystem<T, R, C1, C2>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
    C1: Automaton<Action = DlAction>,
    C2: Automaton<Action = DlAction>,
{
    Hide::new(
        Compose2::new(
            Compose2::new(transmitter, receiver),
            Compose2::new(channel_tr, channel_rt),
        ),
        is_packet_action,
    )
}

/// A state of a [`link_system`] from its four component states, in
/// [`link_system`]'s argument order: a session's start state when it is
/// not the composed [`Automaton::start_state`], such as a corrupted
/// configuration.
pub fn link_state<TS, RS, C1S, C2S>(
    transmitter: TS,
    receiver: RS,
    channel_tr: C1S,
    channel_rt: C2S,
) -> Pair<Pair<TS, RS>, Pair<C1S, C2S>> {
    Pair::new(
        Pair::new(transmitter, receiver),
        Pair::new(channel_tr, channel_rt),
    )
}

/// Convenience accessors into a [`LinkState`].
pub trait LinkStateExt<TS, RS, C1S, C2S> {
    /// The transmitter's component state.
    fn transmitter(&self) -> &TS;
    /// The receiver's component state.
    fn receiver(&self) -> &RS;
    /// The `t → r` channel's component state.
    fn channel_tr(&self) -> &C1S;
    /// The `r → t` channel's component state.
    fn channel_rt(&self) -> &C2S;
}

impl<TS, RS, C1S, C2S> LinkStateExt<TS, RS, C1S, C2S> for Pair<Pair<TS, RS>, Pair<C1S, C2S>> {
    fn transmitter(&self) -> &TS {
        &self.left.left
    }
    fn receiver(&self) -> &RS {
        &self.left.right
    }
    fn channel_tr(&self) -> &C1S {
        &self.right.left
    }
    fn channel_rt(&self) -> &C2S {
        &self.right.right
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_channels::simulated::LossyFifoChannel;
    use dl_core::action::{Dir, Msg, Station};
    use dl_core::protocol::action_sample;
    use dl_protocols::abp;
    use ioa::action::ActionClass;

    fn system() -> LinkSystem<
        dl_protocols::AbpTransmitter,
        dl_protocols::AbpReceiver,
        LossyFifoChannel,
        LossyFifoChannel,
    > {
        let p = abp::protocol();
        link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        )
    }

    #[test]
    fn components_are_strongly_compatible() {
        let sys = system();
        assert!(sys.inner().check_compatible(&action_sample()).is_ok());
    }

    #[test]
    fn external_signature_is_data_link_layer() {
        let sys = system();
        // Packet actions are hidden.
        for a in action_sample() {
            match a {
                DlAction::SendPkt(..) | DlAction::ReceivePkt(..) => {
                    assert_eq!(sys.classify(&a), Some(ActionClass::Internal), "{a}");
                }
                DlAction::SendMsg(_)
                | DlAction::Wake(_)
                | DlAction::Fail(_)
                | DlAction::Crash(_) => {
                    assert_eq!(sys.classify(&a), Some(ActionClass::Input), "{a}");
                }
                DlAction::ReceiveMsg(_) => {
                    assert_eq!(sys.classify(&a), Some(ActionClass::Output), "{a}");
                }
                DlAction::Internal(..) => {
                    assert_eq!(sys.classify(&a), Some(ActionClass::Internal), "{a}");
                }
            }
        }
    }

    #[test]
    fn state_accessors() {
        let sys = system();
        let s = sys.start_states().remove(0);
        assert!(!s.transmitter().active);
        assert!(!s.receiver().active);
        assert!(s.channel_tr().in_flight.is_empty());
        assert!(s.channel_rt().in_flight.is_empty());
    }

    #[test]
    fn crash_reaches_only_its_station() {
        let sys = system();
        let s0 = sys.start_states().remove(0);
        let s1 = sys.step_first(&s0, &DlAction::Wake(Dir::TR)).unwrap();
        assert!(s1.transmitter().active);
        let s2 = sys.step_first(&s1, &DlAction::SendMsg(Msg(1))).unwrap();
        assert_eq!(s2.transmitter().queue.len(), 1);
        let s3 = sys.step_first(&s2, &DlAction::Crash(Station::T)).unwrap();
        assert!(s3.transmitter().queue.is_empty());
        assert!(!s3.transmitter().active);
        // Receiver untouched by a transmitter crash.
        assert_eq!(s3.receiver(), s2.receiver());
    }

    #[test]
    fn task_partition_unions_components() {
        let sys = system();
        // ABP tx: 1, ABP rx: 2, channels: 1 + 1.
        assert_eq!(sys.task_count(), 5);
    }
}
