//! Exporters: JSONL event dump, Chrome-trace (`chrome://tracing` /
//! Perfetto) format, and a plain-text cluster report.
//!
//! JSON is emitted by hand: the event schema is flat enough that
//! escaping strings is the only subtlety.

use crate::event::{GidSpan, ObsEvent, ObsEventKind};
use crate::registry::MetricsDump;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

fn json_str_list(items: &[String]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", parts.join(","))
}

fn json_spans(spans: &[GidSpan]) -> String {
    let parts: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"gid\":{},\"start\":{},\"end\":{}}}",
                s.gid, s.start, s.end
            )
        })
        .collect();
    format!("[{}]", parts.join(","))
}

fn kind_fields(kind: &ObsEventKind) -> String {
    match kind {
        ObsEventKind::SourceMinted { taint, tag, span } => {
            format!(
                "\"taint\":{taint},\"tag\":{},\"span\":{span}",
                json_str(tag)
            )
        }
        ObsEventKind::TaintMapRegister { taint, gid, span } => {
            format!("\"taint\":{taint},\"gid\":{gid},\"span\":{span}")
        }
        ObsEventKind::TaintMapLookup { gid, taint, span } => {
            format!("\"gid\":{gid},\"taint\":{taint},\"span\":{span}")
        }
        ObsEventKind::TaintMapFailover { shard } => format!("\"shard\":{shard}"),
        ObsEventKind::BoundaryEncode {
            transport,
            from,
            to,
            data_bytes,
            wire_bytes,
            spans,
            span,
            parent,
        } => format!(
            "\"transport\":{},\"from\":{},\"to\":{},\"data_bytes\":{data_bytes},\
             \"wire_bytes\":{wire_bytes},\"spans\":{},\"span\":{span},\"parent\":{parent}",
            json_str(transport.as_str()),
            json_str(from),
            json_str(to),
            json_spans(spans)
        ),
        ObsEventKind::BoundaryDecode {
            transport,
            from,
            to,
            data_bytes,
            wire_bytes,
            spans,
            span,
        } => format!(
            "\"transport\":{},\"from\":{},\"to\":{},\"data_bytes\":{data_bytes},\
             \"wire_bytes\":{wire_bytes},\"spans\":{},\"span\":{span}",
            json_str(transport.as_str()),
            json_str(from),
            json_str(to),
            json_spans(spans)
        ),
        ObsEventKind::SinkHit { sink, tags, gids } => {
            let gids: Vec<String> = gids.iter().map(|g| g.to_string()).collect();
            format!(
                "\"sink\":{},\"tags\":{},\"gids\":[{}]",
                json_str(sink),
                json_str_list(tags),
                gids.join(",")
            )
        }
        ObsEventKind::DegradedLookup { gid, shard } => {
            format!("\"gid\":{gid},\"shard\":{shard}")
        }
        ObsEventKind::PendingResolved { gid, taint } => {
            format!("\"gid\":{gid},\"taint\":{taint}")
        }
        ObsEventKind::FaultInjected { fault } => format!("\"fault\":{}", json_str(fault)),
        ObsEventKind::ShardCrashed { shard } => format!("\"shard\":{shard}"),
        ObsEventKind::ShardRestarted { shard, replayed } => {
            format!("\"shard\":{shard},\"replayed\":{replayed}")
        }
        ObsEventKind::ShardSplit {
            class,
            target,
            lo_gid,
            epoch,
        } => format!("\"class\":{class},\"target\":{target},\"lo_gid\":{lo_gid},\"epoch\":{epoch}"),
        ObsEventKind::SplitHealed { class } => format!("\"class\":{class}"),
        ObsEventKind::WalCompacted { shard, records } => {
            format!("\"shard\":{shard},\"records\":{records}")
        }
        ObsEventKind::PipelineStage { stage, records } => {
            format!("\"stage\":{},\"records\":{records}", json_str(stage))
        }
        ObsEventKind::CrossingPhases {
            transport,
            side,
            phases_ns,
        } => {
            let phases: Vec<String> = side
                .phases()
                .iter()
                .zip(phases_ns)
                .map(|(name, ns)| format!("\"{name}\":{ns}"))
                .collect();
            format!(
                "\"transport\":{},\"side\":{},\"phases_ns\":{{{}}}",
                json_str(transport.as_str()),
                json_str(side.as_str()),
                phases.join(",")
            )
        }
    }
}

/// An event's payload for the text report: the kind's `Debug` form, or
/// for a crossing, whose phases `Debug` would leave unnamed, its JSON
/// fields.
fn text_kind(kind: &ObsEventKind) -> String {
    match kind {
        ObsEventKind::CrossingPhases { .. } => format!("{} {{{}}}", kind.name(), kind_fields(kind)),
        other => format!("{other:?}"),
    }
}

/// Renders events as JSON Lines, one event object per line, sorted by
/// sequence number.
pub fn to_jsonl(events: &[ObsEvent]) -> String {
    let mut events: Vec<&ObsEvent> = events.iter().collect();
    events.sort_by_key(|e| e.seq);
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{{\"seq\":{},\"node\":{},\"event\":{},{}}}\n",
            e.seq,
            json_str(&e.node),
            json_str(e.kind.name()),
            kind_fields(&e.kind)
        ));
    }
    out
}

/// Renders events in Chrome-trace ("Trace Event") JSON array format.
///
/// Load the output in `chrome://tracing` or <https://ui.perfetto.dev>:
/// each VM becomes a process row (`pid`), and every recorded event is
/// an instant event (`"ph":"i"`) at its logical-clock timestamp (the
/// shared cluster clock stands in for microseconds, preserving order).
pub fn to_chrome_trace(events: &[ObsEvent]) -> String {
    let mut events: Vec<&ObsEvent> = events.iter().collect();
    events.sort_by_key(|e| e.seq);
    // Stable pid per node, in first-seen order.
    let mut nodes: Vec<&str> = Vec::new();
    for e in &events {
        if !nodes.contains(&e.node.as_str()) {
            nodes.push(&e.node);
        }
    }
    let mut entries: Vec<String> = Vec::new();
    for (pid, node) in nodes.iter().enumerate() {
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_str(node)
        ));
    }
    for e in &events {
        let pid = nodes.iter().position(|n| *n == e.node).unwrap_or(0);
        entries.push(format!(
            "{{\"name\":{},\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":{pid},\"tid\":0,\
             \"args\":{{{}}}}}",
            json_str(e.kind.name()),
            e.seq,
            kind_fields(&e.kind)
        ));
    }
    format!("[{}]", entries.join(",\n"))
}

/// Renders a human-readable cluster report: the metrics dump followed by
/// a per-node event timeline.
pub fn to_text_report(dump: &MetricsDump, events: &[ObsEvent]) -> String {
    let mut out = String::from("== metrics ==\n");
    out.push_str(&dump.render_text());
    out.push_str("== events ==\n");
    let mut events: Vec<&ObsEvent> = events.iter().collect();
    events.sort_by_key(|e| e.seq);
    for e in events {
        out.push_str(&format!(
            "[{:>6}] {:<8} {}\n",
            e.seq,
            e.node,
            text_kind(&e.kind)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CrossingSide, Transport};
    use crate::registry::MetricsRegistry;

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent {
                seq: 1,
                node: "n2".into(),
                kind: ObsEventKind::TaintMapLookup {
                    gid: 42,
                    taint: 3,
                    span: 7,
                },
            },
            ObsEvent {
                seq: 0,
                node: "n1".into(),
                kind: ObsEventKind::BoundaryEncode {
                    transport: Transport::Tcp,
                    from: "10.0.0.1:9000".into(),
                    to: "10.0.0.2:9000".into(),
                    data_bytes: 4,
                    wire_bytes: 20,
                    spans: vec![GidSpan {
                        gid: 42,
                        start: 0,
                        end: 4,
                    }],
                    span: 7,
                    parent: 5,
                },
            },
            ObsEvent {
                seq: 2,
                node: "n2".into(),
                kind: ObsEventKind::CrossingPhases {
                    transport: Transport::Tcp,
                    side: CrossingSide::Read,
                    phases_ns: [40, 30, 20, 10],
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line_sorted() {
        let out = to_jsonl(&sample_events());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"event\":\"boundary_encode\""));
        assert!(lines[0].contains("\"spans\":[{\"gid\":42,\"start\":0,\"end\":4}]"));
        assert!(lines[0].contains("\"span\":7,\"parent\":5"));
        assert!(lines[1].contains("\"event\":\"taintmap_lookup\""));
        assert!(lines[1].contains("\"span\":7"));
        assert!(lines[2].ends_with(
            "\"event\":\"crossing_phases\",\"transport\":\"tcp\",\"side\":\"read\",\
             \"phases_ns\":{\"recv\":40,\"decode\":30,\"resolve\":20,\"shadow\":10}}"
        ));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_names_processes_and_orders_by_ts() {
        let out = to_chrome_trace(&sample_events());
        assert!(out.starts_with('[') && out.ends_with(']'));
        assert!(out.contains("\"process_name\""));
        assert!(out.contains("\"name\":\"n1\""));
        assert!(out.contains("\"name\":\"n2\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.find("\"ts\":0").unwrap() < out.find("\"ts\":1").unwrap());
    }

    #[test]
    fn text_report_has_both_sections() {
        let r = MetricsRegistry::new();
        r.counter("hits").inc();
        let out = to_text_report(&r.snapshot(), &sample_events());
        assert!(out.contains("== metrics =="));
        assert!(out.contains("hits 1"));
        assert!(out.contains("== events =="));
        assert!(out.contains("n1"));
        assert!(out.contains(
            "crossing_phases {\"transport\":\"tcp\",\"side\":\"read\",\
             \"phases_ns\":{\"recv\":40,\"decode\":30,\"resolve\":20,\"shadow\":10}}"
        ));
    }

    #[test]
    fn strings_are_escaped() {
        let events = vec![ObsEvent {
            seq: 0,
            node: "n\"1".into(),
            kind: ObsEventKind::SourceMinted {
                taint: 1,
                tag: "a\\b\nc".into(),
                span: 0,
            },
        }];
        let out = to_jsonl(&events);
        assert!(out.contains("n\\\"1"));
        assert!(out.contains("a\\\\b\\nc"));
    }
}
