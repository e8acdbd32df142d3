//! The `LOG.info` sink (paper §V-B).
//!
//! SIM scenarios "set LOG.info method as sink points for all systems, and
//! check if any log statement prints a tainted variable." [`Logger`]
//! formats log lines like any logging facade, but when `LOG.info` is a
//! registered sink it first checks the taint of every argument and
//! records the observation in the VM's [`dista_taint::SinkRecorder`].
//!
//! A logger keeps only its last `LOG_LINES` formatted lines, in a ring
//! like the flight recorder's: a long-running node keeps recent history,
//! not every line it ever wrote. The sink report, not the text, is what
//! the evaluation reads.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use dista_taint::{Taint, Tainted, TaintedBytes};
use parking_lot::Mutex;

use crate::vm::Vm;

/// The descriptor class name used in source/sink spec files.
pub const LOGGER_CLASS: &str = "LOG";

/// How many formatted lines a logger keeps; older lines are dropped.
const LOG_LINES: usize = 256;

/// A per-VM logger whose `info` is instrumentable as a taint sink.
#[derive(Debug, Clone)]
pub struct Logger {
    vm: Vm,
    lines: Arc<Mutex<VecDeque<String>>>,
}

impl Logger {
    /// Creates a logger for `vm`.
    pub fn new(vm: &Vm) -> Self {
        Logger {
            vm: vm.clone(),
            lines: Arc::default(),
        }
    }

    /// Appends `[vm] INFO <args>` to the ring, reusing the dropped
    /// line's buffer once the ring is full.
    fn push_line(&self, args: fmt::Arguments<'_>) {
        let mut lines = self.lines.lock();
        let mut line = if lines.len() == LOG_LINES {
            lines.pop_front().unwrap_or_default()
        } else {
            String::new()
        };
        line.clear();
        // Writing into a `String` cannot fail.
        let _ = write!(line, "[{}] INFO {}", self.vm.name(), args);
        lines.push_back(line);
    }

    /// `LOG.info(msg)` with an explicit argument taint. Returns whether
    /// the sink flagged tainted data.
    pub fn info_taint(&self, message: &str, taint: Taint) -> bool {
        self.push_line(format_args!("{message}"));
        self.vm.sink_point(LOGGER_CLASS, "info", taint)
    }

    /// `LOG.info(msg, bytes)` — checks the bytes' taints. Their union is
    /// taken (and interned) only when `LOG.info` is a registered sink.
    pub fn info_payload(&self, message: &str, bytes: &TaintedBytes) -> bool {
        let taint = if self.vm.is_sink(LOGGER_CLASS, "info") {
            bytes.taint_union(self.vm.store())
        } else {
            Taint::EMPTY
        };
        self.info_taint(message, taint)
    }

    /// `LOG.info(msg, value)` — checks a tainted value.
    pub fn info_value<T: fmt::Display>(&self, message: &str, value: &Tainted<T>) -> bool {
        self.push_line(format_args!("{message} {}", value.value()));
        self.vm.sink_point(LOGGER_CLASS, "info", value.taint())
    }

    /// The last `LOG_LINES` formatted lines, oldest first (diagnostics).
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Mode;
    use dista_simnet::SimNet;
    use dista_taint::{MethodDesc, SourceSinkSpec, TagValue};

    fn vm_with_sink() -> Vm {
        let net = SimNet::new();
        let mut spec = SourceSinkSpec::new();
        spec.add_sink(MethodDesc::new(LOGGER_CLASS, "info"));
        Vm::builder("n1", &net)
            .mode(Mode::Phosphor)
            .spec(spec)
            .build()
            .unwrap()
    }

    #[test]
    fn tainted_argument_is_flagged_and_recorded() {
        let vm = vm_with_sink();
        let log = Logger::new(&vm);
        let t = vm.store().mint_source_taint(TagValue::str("zxid2"));
        assert!(log.info_taint("new epoch", t));
        let report = vm.sink_report();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].sink, "LOG.info");
        assert_eq!(report.events[0].tags, vec!["zxid2".to_string()]);
    }

    #[test]
    fn untainted_argument_is_not_flagged() {
        let vm = vm_with_sink();
        let log = Logger::new(&vm);
        assert!(!log.info_taint("boring", Taint::EMPTY));
        assert_eq!(vm.sink_report().tainted_count(), 0);
    }

    #[test]
    fn unregistered_sink_records_nothing() {
        let net = SimNet::new();
        let vm = Vm::builder("n", &net).mode(Mode::Phosphor).build().unwrap();
        let log = Logger::new(&vm);
        let t = vm.store().mint_source_taint(TagValue::str("x"));
        assert!(!log.info_taint("msg", t));
        assert!(vm.sink_report().events.is_empty());
    }

    #[test]
    fn value_logging_formats_and_checks() {
        let vm = vm_with_sink();
        let log = Logger::new(&vm);
        let t = vm.store().mint_source_taint(TagValue::str("epoch"));
        assert!(log.info_value("accepted epoch =", &Tainted::new(42, t)));
        assert!(log.lines()[0].contains("accepted epoch = 42"));
    }

    #[test]
    fn the_ring_keeps_the_last_lines() {
        let vm = vm_with_sink();
        let log = Logger::new(&vm);
        for i in 0..LOG_LINES + 3 {
            log.info_taint(&format!("line {i}"), Taint::EMPTY);
        }
        let lines = log.lines();
        assert_eq!(lines.len(), LOG_LINES);
        assert_eq!(lines[0], "[n1] INFO line 3");
        assert_eq!(
            lines[LOG_LINES - 1],
            format!("[n1] INFO line {}", LOG_LINES + 2)
        );
        assert_eq!(vm.sink_report().events.len(), LOG_LINES + 3);
    }

    #[test]
    fn payload_union_is_taken_only_at_a_registered_sink() {
        let vm = vm_with_sink();
        let route = vm.store().mint_source_taint(TagValue::str("route"));
        let bytes = TaintedBytes::uniform(b"rs1:16020".to_vec(), route);
        assert!(Logger::new(&vm).info_payload("located", &bytes));
        assert_eq!(vm.sink_report().events[0].tags, vec!["route".to_string()]);

        let net = SimNet::new();
        let plain = Vm::builder("n", &net).mode(Mode::Phosphor).build().unwrap();
        let run = |data: &[u8], tag: &str| {
            let taint = plain.store().mint_source_taint(TagValue::str(tag));
            TaintedBytes::uniform(data.to_vec(), taint)
        };
        let mut bytes = run(b"ab", "a");
        bytes.extend_tainted(&run(b"cd", "b"));
        let nodes = plain.store().tree().num_nodes();
        assert!(!Logger::new(&plain).info_payload("located", &bytes));
        assert_eq!(plain.store().tree().num_nodes(), nodes, "no union interned");
    }
}
