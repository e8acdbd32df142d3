//! The boundary's phase clock, and the only place `dista-jre` reads the
//! time. While its flight recorder is on, a VM samples the first and
//! then every [`SAMPLE_EVERY`]th crossing of each side. A sampled
//! crossing reads the clock once at its start and once at each phase
//! boundary, and records the laps as one
//! [`ObsEventKind::CrossingPhases`] event. Every other crossing pays one
//! branch to learn it is not sampled, and one per lap site.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use dista_obs::{CrossingSide, FlightRecorder, ObsEventKind, Transport};

/// One crossing in this many, per side and VM, is timed.
const SAMPLE_EVERY: u32 = 64;

/// Write-side phases, at their index in [`CrossingSide::phases`].
pub(crate) mod write {
    /// The run table, from the moment the crossing holds its buffers.
    pub(crate) const SHADOW: usize = 0;
    /// The Taint Map client's gids, and the definitions a v2 peer lacks.
    pub(crate) const REGISTER: usize = 1;
    /// The codec, and the control frames ahead of its output.
    pub(crate) const ENCODE: usize = 2;
    /// The native write.
    pub(crate) const SEND: usize = 3;
}

/// Read-side phases, at their index in [`CrossingSide::phases`].
pub(crate) mod read {
    /// Waiting and native reads, from the moment the crossing holds its
    /// buffers.
    pub(crate) const RECV: usize = 0;
    /// The codec, control frames included.
    pub(crate) const DECODE: usize = 1;
    /// The Taint Map client's taints for the decoded gids.
    pub(crate) const RESOLVE: usize = 2;
    /// The delivered shadow, assembled run by run.
    pub(crate) const SHADOW: usize = 3;
}

/// A VM's crossing counts, one per side. They are touched only while
/// the VM's flight recorder is on.
#[derive(Debug, Default)]
pub(crate) struct Sampler([AtomicU32; 2]);

impl Sampler {
    /// The stopwatch for a crossing of `side` that starts now: running
    /// if the crossing is sampled, idle otherwise.
    pub(crate) fn start(&self, flight: &FlightRecorder, side: CrossingSide) -> Stopwatch {
        if !flight.is_enabled() {
            return Stopwatch(None);
        }
        let seen = self.0[side as usize].fetch_add(1, Ordering::Relaxed);
        Stopwatch(seen.is_multiple_of(SAMPLE_EVERY).then(|| Running {
            side,
            at: Instant::now(),
            phases_ns: [0; 4],
        }))
    }
}

#[derive(Debug)]
struct Running {
    side: CrossingSide,
    /// The last clock read.
    at: Instant,
    phases_ns: [u64; 4],
}

/// One crossing's phase clock; idle when the crossing is not sampled.
/// The boundary keeps it in the crossing's reusable tables.
#[derive(Debug, Default)]
pub(crate) struct Stopwatch(Option<Running>);

impl Stopwatch {
    /// Charges the time since the last clock read to `phase`. A phase
    /// may be charged more than once; every interval is charged once.
    pub(crate) fn lap(&mut self, phase: usize) {
        if let Some(run) = &mut self.0 {
            let now = Instant::now();
            run.phases_ns[phase] += now.duration_since(run.at).as_nanos() as u64;
            run.at = now;
        }
    }

    /// Charges the rest of the crossing to `phase`, records it on
    /// `flight` and goes idle.
    pub(crate) fn finish(&mut self, phase: usize, flight: &FlightRecorder, transport: Transport) {
        self.lap(phase);
        if let Some(run) = self.0.take() {
            flight.record_with(|| ObsEventKind::CrossingPhases {
                transport,
                side: run.side,
                phases_ns: run.phases_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_obs::ObsClock;

    #[test]
    fn samples_the_first_and_every_64th_crossing_of_a_side() {
        let sampler = Sampler::default();
        let off = FlightRecorder::disabled();
        assert!((0..3).all(|_| sampler.start(&off, CrossingSide::Read).0.is_none()));
        assert_eq!(sampler.0[1].load(Ordering::Relaxed), 0, "off: no count");

        let on = FlightRecorder::new("n1", 16, ObsClock::new());
        let sampled: Vec<u32> = (0..=2 * SAMPLE_EVERY)
            .filter(|_| sampler.start(&on, CrossingSide::Read).0.is_some())
            .collect();
        assert_eq!(sampled, [0, SAMPLE_EVERY, 2 * SAMPLE_EVERY]);
        let counts = sampler.0.each_ref().map(|c| c.load(Ordering::Relaxed));
        assert_eq!(counts, [0, 2 * SAMPLE_EVERY + 1], "sides count apart");
    }

    #[test]
    fn a_finished_crossing_is_one_event_and_an_idle_one_none() {
        let flight = FlightRecorder::new("n1", 16, ObsClock::new());
        let mut idle = Stopwatch::default();
        idle.lap(write::SHADOW);
        idle.finish(write::SEND, &flight, Transport::Tcp);
        assert!(flight.events().is_empty());

        let mut clock = Sampler::default().start(&flight, CrossingSide::Write);
        clock.lap(write::SHADOW);
        clock.lap(write::SHADOW);
        clock.finish(write::SEND, &flight, Transport::Udp);
        clock.finish(write::SEND, &flight, Transport::Udp);
        let events = flight.events();
        assert_eq!(events.len(), 1, "finishing goes idle");
        assert!(matches!(
            events[0].kind,
            ObsEventKind::CrossingPhases {
                transport: Transport::Udp,
                side: CrossingSide::Write,
                phases_ns: [_, 0, 0, _],
            }
        ));
    }
}
