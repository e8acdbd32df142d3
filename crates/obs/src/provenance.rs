//! Provenance ledger: reconstruct the cross-VM journey of a global
//! taint id from flight-recorder events alone.
//!
//! The algorithm works on the merged, clock-ordered event stream of
//! every VM in a cluster:
//!
//! 1. Find the [`TaintMapRegister`](crate::ObsEventKind::TaintMapRegister)
//!    that assigned the gid — that names the registering node and its
//!    local taint id.
//! 2. Walk backwards on that node for the
//!    [`SourceMinted`](crate::ObsEventKind::SourceMinted) of the same
//!    local taint — the minting hop.
//! 3. Every [`BoundaryEncode`](crate::ObsEventKind::BoundaryEncode)
//!    whose gid spans contain the gid opens a crossing. Under the v2
//!    wire protocol the encode minted a crossing span id that traveled
//!    to the peer in an annotation frame, so the crossing is closed
//!    **exactly** by the [`BoundaryDecode`](crate::ObsEventKind::BoundaryDecode)
//!    carrying the same span id. When no span is available (v1 peer,
//!    trace context off) the crossing falls back to the original
//!    inference: the first later decode on the same `(from, to)`
//!    address pair that also carries the gid.
//!    [`ProvenanceTrace::exact`] reports whether every crossing was
//!    span-paired; [`reconstruct_inferred`] forces the fallback for
//!    comparison.
//! 4. Each node's first [`TaintMapLookup`](crate::ObsEventKind::TaintMapLookup)
//!    of the gid becomes a resolution hop.
//! 5. Every [`SinkHit`](crate::ObsEventKind::SinkHit) listing the gid
//!    becomes a sink hop.
//!
//! Hops are emitted in clock order, so the rendered trace reads as the
//! paper's running example: *minted on n1 → registered as gid 42 →
//! crossed tcp n1→n2 bytes 17..21 → sunk at LOG.info on n3*.

use crate::event::{ObsEvent, ObsEventKind, Transport};

/// One step in a [`ProvenanceTrace`].
#[derive(Debug, Clone, PartialEq)]
pub enum Hop {
    /// A source point minted the taint.
    Minted {
        /// Minting VM.
        node: String,
        /// Source tag.
        tag: String,
        /// Local taint id on the minting VM.
        taint: u32,
        /// Clock sequence of the event.
        seq: u64,
    },
    /// The Taint Map assigned the global id.
    Registered {
        /// Registering VM.
        node: String,
        /// Local taint id that was serialized.
        taint: u32,
        /// Clock sequence of the event.
        seq: u64,
    },
    /// The taint crossed a socket boundary.
    Crossed {
        /// Transport used.
        transport: Transport,
        /// Sending VM.
        from_node: String,
        /// Receiving VM, if the matching decode was observed.
        to_node: Option<String>,
        /// Sender address `ip:port`.
        from: String,
        /// Receiver address `ip:port`.
        to: String,
        /// Tainted data byte range `start..end` in the payload.
        bytes: (usize, usize),
        /// Crossing span id the encode put on the wire (0 when none
        /// was sent — v1 wire or trace context off).
        span: u64,
        /// Clock sequence of the encode event.
        seq: u64,
    },
    /// A VM resolved the gid back to a local taint.
    Resolved {
        /// Resolving VM.
        node: String,
        /// Local taint id it interned to.
        taint: u32,
        /// Clock sequence of the event.
        seq: u64,
    },
    /// A VM could not reach the owning shard and attached a
    /// `PendingGid` sentinel instead of a real taint (degraded mode).
    Pending {
        /// VM that degraded the lookup.
        node: String,
        /// Index of the unreachable shard.
        shard: usize,
        /// Clock sequence of the event.
        seq: u64,
    },
    /// A sink observed the taint.
    Sunk {
        /// VM the sink fired on.
        node: String,
        /// Sink identifier, e.g. `LOG.info`.
        sink: String,
        /// Clock sequence of the event.
        seq: u64,
    },
}

impl Hop {
    /// The hop's cluster sequence number (total order across VMs).
    pub fn seq(&self) -> u64 {
        match self {
            Hop::Minted { seq, .. }
            | Hop::Registered { seq, .. }
            | Hop::Crossed { seq, .. }
            | Hop::Resolved { seq, .. }
            | Hop::Pending { seq, .. }
            | Hop::Sunk { seq, .. } => *seq,
        }
    }
}

impl std::fmt::Display for Hop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Hop::Minted { node, tag, .. } => write!(f, "minted on {node} (tag {tag})"),
            Hop::Registered { node, .. } => write!(f, "registered on {node}"),
            Hop::Crossed {
                transport,
                from_node,
                to_node,
                bytes,
                ..
            } => {
                let to = to_node.as_deref().unwrap_or("?");
                write!(
                    f,
                    "crossed {transport} {from_node}\u{2192}{to} bytes {}..{}",
                    bytes.0, bytes.1
                )
            }
            Hop::Resolved { node, .. } => write!(f, "resolved on {node}"),
            Hop::Pending { node, shard, .. } => {
                write!(f, "pending on {node} (shard {shard} unreachable)")
            }
            Hop::Sunk { node, sink, .. } => write!(f, "sunk at {sink} on {node}"),
        }
    }
}

/// The reconstructed journey of one global taint id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvenanceTrace {
    /// The gid that was traced.
    pub gid: u32,
    /// The hops, in cluster clock order.
    pub hops: Vec<Hop>,
    /// True when every boundary crossing was paired by a propagated
    /// span id (no gid-matching inference was needed). Vacuously true
    /// for traces with no crossings; always false for traces built by
    /// [`reconstruct_inferred`].
    pub exact: bool,
}

impl ProvenanceTrace {
    /// True when no event mentioned the gid.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Number of completed boundary crossings (encode matched to a
    /// decode).
    pub fn crossings(&self) -> usize {
        self.hops
            .iter()
            .filter(|h| {
                matches!(
                    h,
                    Hop::Crossed {
                        to_node: Some(_),
                        ..
                    }
                )
            })
            .count()
    }

    /// Distinct VM names the taint touched, in first-seen order.
    pub fn nodes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for hop in &self.hops {
            let names: Vec<&str> = match hop {
                Hop::Minted { node, .. }
                | Hop::Registered { node, .. }
                | Hop::Resolved { node, .. }
                | Hop::Pending { node, .. }
                | Hop::Sunk { node, .. } => vec![node.as_str()],
                Hop::Crossed {
                    from_node, to_node, ..
                } => {
                    let mut v = vec![from_node.as_str()];
                    if let Some(t) = to_node {
                        v.push(t.as_str());
                    }
                    v
                }
            };
            for n in names {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Number of degraded lookups (a `PendingGid` sentinel stood in for
    /// the real taint while the owning shard was unreachable).
    pub fn pending_hops(&self) -> usize {
        self.hops
            .iter()
            .filter(|h| matches!(h, Hop::Pending { .. }))
            .count()
    }

    /// True when every [`Hop::Pending`] is followed (in clock order) by
    /// a [`Hop::Resolved`] on the same node — the soundness condition
    /// for degraded mode: no delivered byte is left holding a sentinel
    /// after the partition healed.
    pub fn pending_all_resolved(&self) -> bool {
        self.hops.iter().all(|h| match h {
            Hop::Pending { node, seq, .. } => self.hops.iter().any(|later| {
                matches!(later, Hop::Resolved { node: rn, seq: rs, .. }
                    if rn == node && rs > seq)
            }),
            _ => true,
        })
    }

    /// The sinks that observed the taint, as `(node, sink)` pairs.
    pub fn sinks(&self) -> Vec<(&str, &str)> {
        self.hops
            .iter()
            .filter_map(|h| match h {
                Hop::Sunk { node, sink, .. } => Some((node.as_str(), sink.as_str())),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Display for ProvenanceTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gid {}: ", self.gid)?;
        if self.hops.is_empty() {
            return write!(f, "(no events)");
        }
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, " \u{2192} ")?;
            }
            write!(f, "{hop}")?;
        }
        Ok(())
    }
}

fn spans_contain(spans: &[crate::event::GidSpan], gid: u32) -> Option<(usize, usize)> {
    spans
        .iter()
        .find(|s| s.gid == gid)
        .map(|s| (s.start, s.end))
}

/// Reconstructs the journey of `gid` from the merged event stream of
/// every recorder in a cluster, pairing boundary crossings by their
/// wire-propagated span ids where available (exact) and falling back
/// to gid-matching inference elsewhere. `events` need not be
/// pre-sorted.
pub fn reconstruct(events: &[ObsEvent], gid: u32) -> ProvenanceTrace {
    reconstruct_impl(events, gid, true)
}

/// Like [`reconstruct`], but ignores propagated span ids and always
/// uses the gid-matching inference — the pre-trace-context behavior,
/// kept for v1 interop comparisons. The result's
/// [`exact`](ProvenanceTrace::exact) flag is always false.
pub fn reconstruct_inferred(events: &[ObsEvent], gid: u32) -> ProvenanceTrace {
    reconstruct_impl(events, gid, false)
}

fn reconstruct_impl(events: &[ObsEvent], gid: u32, use_spans: bool) -> ProvenanceTrace {
    let mut events: Vec<&ObsEvent> = events.iter().collect();
    events.sort_by_key(|e| e.seq);

    let mut hops: Vec<Hop> = Vec::new();

    // 1. Registration names the origin node + local taint.
    let registration = events.iter().find_map(|e| match &e.kind {
        ObsEventKind::TaintMapRegister { taint, gid: g, .. } if *g == gid => {
            Some((e.node.clone(), *taint, e.seq))
        }
        _ => None,
    });

    if let Some((ref reg_node, reg_taint, reg_seq)) = registration {
        // 2. The minting event precedes registration on the same node.
        let minted = events
            .iter()
            .rev()
            .filter(|e| e.seq < reg_seq && e.node == *reg_node)
            .find_map(|e| match &e.kind {
                ObsEventKind::SourceMinted { taint, tag, .. } if *taint == reg_taint => {
                    Some(Hop::Minted {
                        node: e.node.clone(),
                        tag: tag.clone(),
                        taint: *taint,
                        seq: e.seq,
                    })
                }
                _ => None,
            });
        if let Some(m) = minted {
            hops.push(m);
        }
        hops.push(Hop::Registered {
            node: reg_node.clone(),
            taint: reg_taint,
            seq: reg_seq,
        });
    }

    // 3. Boundary crossings: pair each gid-carrying encode with its
    //    decode — exactly, by the span id the annotation frame carried
    //    to the peer, or (when no span is available) by inference: the
    //    first later gid-carrying decode on the same address pair.
    let mut used_decodes: Vec<u64> = Vec::new();
    let mut all_span_paired = true;
    for e in &events {
        if let ObsEventKind::BoundaryEncode {
            transport,
            from,
            to,
            spans,
            span,
            ..
        } = &e.kind
        {
            let Some(bytes) = spans_contain(spans, gid) else {
                continue;
            };
            let span_matched = if use_spans && *span != 0 {
                events.iter().find(|d| {
                    d.seq > e.seq
                        && !used_decodes.contains(&d.seq)
                        && matches!(&d.kind,
                            ObsEventKind::BoundaryDecode { span: ds, spans: dss, .. }
                                if ds == span && spans_contain(dss, gid).is_some())
                })
            } else {
                None
            };
            let matched = match span_matched {
                Some(d) => Some(d),
                None => {
                    all_span_paired = false;
                    events.iter().find(|d| {
                        d.seq > e.seq
                            && !used_decodes.contains(&d.seq)
                            && matches!(&d.kind,
                                ObsEventKind::BoundaryDecode { from: df, to: dt, spans: ds, .. }
                                    if df == from && dt == to && spans_contain(ds, gid).is_some())
                    })
                }
            };
            let to_node = matched.map(|d| {
                used_decodes.push(d.seq);
                d.node.clone()
            });
            hops.push(Hop::Crossed {
                transport: *transport,
                from_node: e.node.clone(),
                to_node,
                from: from.clone(),
                to: to.clone(),
                bytes,
                span: *span,
                seq: e.seq,
            });
        }
    }

    // 4. First lookup per node is a resolution hop. Degraded lookups
    //    become pending hops; a later `PendingResolved` on the node
    //    closes them with a (reconciled) resolution hop.
    let mut resolved_nodes: Vec<String> = Vec::new();
    for e in &events {
        match &e.kind {
            ObsEventKind::TaintMapLookup { gid: g, taint, .. }
                if *g == gid && !resolved_nodes.contains(&e.node) =>
            {
                resolved_nodes.push(e.node.clone());
                hops.push(Hop::Resolved {
                    node: e.node.clone(),
                    taint: *taint,
                    seq: e.seq,
                });
            }
            ObsEventKind::DegradedLookup { gid: g, shard } if *g == gid => {
                hops.push(Hop::Pending {
                    node: e.node.clone(),
                    shard: *shard,
                    seq: e.seq,
                });
            }
            ObsEventKind::PendingResolved { gid: g, taint } if *g == gid => {
                resolved_nodes.push(e.node.clone());
                hops.push(Hop::Resolved {
                    node: e.node.clone(),
                    taint: *taint,
                    seq: e.seq,
                });
            }
            _ => {}
        }
    }

    // 5. Sink hits listing the gid.
    for e in &events {
        if let ObsEventKind::SinkHit { sink, gids, .. } = &e.kind {
            if gids.contains(&gid) {
                hops.push(Hop::Sunk {
                    node: e.node.clone(),
                    sink: sink.clone(),
                    seq: e.seq,
                });
            }
        }
    }

    hops.sort_by_key(|h| h.seq());
    ProvenanceTrace {
        gid,
        hops,
        exact: use_spans && all_span_paired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::GidSpan;

    fn ev(seq: u64, node: &str, kind: ObsEventKind) -> ObsEvent {
        ObsEvent {
            seq,
            node: node.to_string(),
            kind,
        }
    }

    fn span(gid: u32, start: usize, end: usize) -> GidSpan {
        GidSpan { gid, start, end }
    }

    /// The paper's running example: mint on n1, register gid 42, hop
    /// n1→n2 then n2→n3, sink at LOG.info on n3. When `v2` is true the
    /// crossings carry propagated trace spans (root 1, crossings 2 and
    /// 3); when false every span field is 0, as a v1 peer would record.
    fn example_events_wire(v2: bool) -> Vec<ObsEvent> {
        let s = |id: u64| if v2 { id } else { 0 };
        vec![
            ev(
                0,
                "n1",
                ObsEventKind::SourceMinted {
                    taint: 7,
                    tag: "zk.zxid".into(),
                    span: s(1),
                },
            ),
            ev(
                1,
                "n1",
                ObsEventKind::TaintMapRegister {
                    taint: 7,
                    gid: 42,
                    span: s(1),
                },
            ),
            ev(
                2,
                "n1",
                ObsEventKind::BoundaryEncode {
                    transport: Transport::Tcp,
                    from: "10.0.0.1:9000".into(),
                    to: "10.0.0.2:9000".into(),
                    data_bytes: 32,
                    wire_bytes: 160,
                    spans: vec![span(42, 17, 21)],
                    span: s(2),
                    parent: s(1),
                },
            ),
            ev(
                3,
                "n2",
                ObsEventKind::BoundaryDecode {
                    transport: Transport::Tcp,
                    from: "10.0.0.1:9000".into(),
                    to: "10.0.0.2:9000".into(),
                    data_bytes: 32,
                    wire_bytes: 160,
                    spans: vec![span(42, 17, 21)],
                    span: s(2),
                },
            ),
            ev(
                4,
                "n2",
                ObsEventKind::TaintMapLookup {
                    gid: 42,
                    taint: 3,
                    span: s(2),
                },
            ),
            ev(
                5,
                "n2",
                ObsEventKind::BoundaryEncode {
                    transport: Transport::Tcp,
                    from: "10.0.0.2:9001".into(),
                    to: "10.0.0.3:9000".into(),
                    data_bytes: 32,
                    wire_bytes: 160,
                    spans: vec![span(42, 17, 21)],
                    span: s(3),
                    parent: s(2),
                },
            ),
            ev(
                6,
                "n3",
                ObsEventKind::BoundaryDecode {
                    transport: Transport::Tcp,
                    from: "10.0.0.2:9001".into(),
                    to: "10.0.0.3:9000".into(),
                    data_bytes: 32,
                    wire_bytes: 160,
                    spans: vec![span(42, 17, 21)],
                    span: s(3),
                },
            ),
            ev(
                7,
                "n3",
                ObsEventKind::TaintMapLookup {
                    gid: 42,
                    taint: 5,
                    span: s(3),
                },
            ),
            ev(
                8,
                "n3",
                ObsEventKind::SinkHit {
                    sink: "LOG.info".into(),
                    tags: vec!["zk.zxid".into()],
                    gids: vec![42],
                },
            ),
        ]
    }

    fn example_events() -> Vec<ObsEvent> {
        example_events_wire(true)
    }

    #[test]
    fn reconstructs_two_hop_path() {
        let trace = reconstruct(&example_events(), 42);
        assert!(trace.exact, "v2 events span-pair every crossing");
        assert_eq!(trace.crossings(), 2);
        assert_eq!(trace.nodes(), vec!["n1", "n2", "n3"]);
        assert_eq!(trace.sinks(), vec![("n3", "LOG.info")]);
        assert!(matches!(trace.hops.first(), Some(Hop::Minted { node, .. }) if node == "n1"));
        assert!(matches!(trace.hops.last(), Some(Hop::Sunk { node, .. }) if node == "n3"));
        let rendered = trace.to_string();
        assert!(rendered.contains("minted on n1 (tag zk.zxid)"));
        assert!(rendered.contains("crossed tcp n1\u{2192}n2 bytes 17..21"));
        assert!(rendered.contains("crossed tcp n2\u{2192}n3 bytes 17..21"));
        assert!(rendered.contains("sunk at LOG.info on n3"));
    }

    #[test]
    fn unknown_gid_yields_empty_trace() {
        let trace = reconstruct(&example_events(), 999);
        assert!(trace.is_empty());
        assert_eq!(trace.to_string(), "gid 999: (no events)");
    }

    #[test]
    fn unmatched_encode_is_an_open_crossing() {
        let events = vec![
            ev(
                0,
                "n1",
                ObsEventKind::TaintMapRegister {
                    taint: 1,
                    gid: 9,
                    span: 0,
                },
            ),
            ev(
                1,
                "n1",
                ObsEventKind::BoundaryEncode {
                    transport: Transport::Udp,
                    from: "10.0.0.1:5000".into(),
                    to: "10.0.0.2:5000".into(),
                    data_bytes: 8,
                    wire_bytes: 40,
                    spans: vec![span(9, 0, 8)],
                    span: 0,
                    parent: 0,
                },
            ),
        ];
        let trace = reconstruct(&events, 9);
        assert_eq!(trace.crossings(), 0, "no decode means no completed hop");
        assert!(!trace.exact, "an unpaired crossing is not exact");
        assert!(trace
            .to_string()
            .contains("crossed udp n1\u{2192}? bytes 0..8"));
    }

    #[test]
    fn degraded_lookup_is_a_pending_hop_until_reconciled() {
        let mut events = vec![
            ev(
                0,
                "n1",
                ObsEventKind::TaintMapRegister {
                    taint: 7,
                    gid: 42,
                    span: 0,
                },
            ),
            ev(1, "n2", ObsEventKind::DegradedLookup { gid: 42, shard: 1 }),
        ];
        let open = reconstruct(&events, 42);
        assert_eq!(open.pending_hops(), 1);
        assert!(!open.pending_all_resolved());
        assert!(open
            .to_string()
            .contains("pending on n2 (shard 1 unreachable)"));

        events.push(ev(
            2,
            "n2",
            ObsEventKind::PendingResolved { gid: 42, taint: 9 },
        ));
        let closed = reconstruct(&events, 42);
        assert_eq!(closed.pending_hops(), 1);
        assert!(closed.pending_all_resolved());
        assert!(closed.to_string().contains("resolved on n2"));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut events = example_events();
        events.reverse();
        let trace = reconstruct(&events, 42);
        assert_eq!(trace.crossings(), 2);
    }

    #[test]
    fn other_gids_in_same_payload_are_ignored() {
        let mut events = example_events();
        if let ObsEventKind::BoundaryEncode { spans, .. } = &mut events[2].kind {
            spans.push(span(77, 0, 4));
        }
        let trace = reconstruct(&events, 42);
        assert_eq!(trace.crossings(), 2);
        let other = reconstruct(&events, 77);
        // gid 77 appears only in one encode: open crossing, no registration.
        assert_eq!(other.crossings(), 0);
        assert_eq!(other.hops.len(), 1);
    }

    #[test]
    fn v1_events_fall_back_to_inference_with_identical_hops() {
        let exact = reconstruct(&example_events_wire(true), 42);
        let v1 = reconstruct(&example_events_wire(false), 42);
        assert!(exact.exact);
        assert!(!v1.exact, "span-less events cannot be exact");
        assert_eq!(v1.crossings(), 2, "inference still closes both hops");
        assert_eq!(v1.nodes(), exact.nodes());
        assert_eq!(v1.to_string(), exact.to_string());
    }

    #[test]
    fn inferred_mode_ignores_spans_but_agrees_on_unambiguous_paths() {
        let events = example_events_wire(true);
        let exact = reconstruct(&events, 42);
        let inferred = reconstruct_inferred(&events, 42);
        assert!(exact.exact);
        assert!(!inferred.exact);
        assert_eq!(
            exact.hops, inferred.hops,
            "on an unambiguous path both pairings agree hop for hop"
        );
    }

    #[test]
    fn span_pairing_disambiguates_reordered_decodes() {
        // Two tainted payloads leave n1 for the same destination
        // address; their decode events land in the opposite order (the
        // receiver drained the second frame first). Address-pair
        // inference mis-pairs them; span pairing cannot.
        let mk_enc = |seq: u64, sp: u64| {
            ev(
                seq,
                "n1",
                ObsEventKind::BoundaryEncode {
                    transport: Transport::Tcp,
                    from: "10.0.0.1:9000".into(),
                    to: "10.0.0.2:9000".into(),
                    data_bytes: 8,
                    wire_bytes: 40,
                    spans: vec![span(42, 0, 4)],
                    span: sp,
                    parent: 0,
                },
            )
        };
        let mk_dec = |seq: u64, node: &str, sp: u64| {
            ev(
                seq,
                node,
                ObsEventKind::BoundaryDecode {
                    transport: Transport::Tcp,
                    from: "10.0.0.1:9000".into(),
                    to: "10.0.0.2:9000".into(),
                    data_bytes: 8,
                    wire_bytes: 40,
                    spans: vec![span(42, 0, 4)],
                    span: sp,
                },
            )
        };
        // Decode of span 11 (recorded by "late") comes after decode of
        // span 10 (recorded by "early"), but encode order is 10, 11.
        let events = vec![
            mk_enc(0, 10),
            mk_enc(1, 11),
            mk_dec(2, "late", 11),
            mk_dec(3, "early", 10),
        ];
        let exact = reconstruct(&events, 42);
        assert!(exact.exact);
        let to_nodes: Vec<Option<&str>> = exact
            .hops
            .iter()
            .filter_map(|h| match h {
                Hop::Crossed { to_node, .. } => Some(to_node.as_deref()),
                _ => None,
            })
            .collect();
        assert_eq!(to_nodes, vec![Some("early"), Some("late")]);

        let inferred = reconstruct_inferred(&events, 42);
        let inferred_to: Vec<Option<&str>> = inferred
            .hops
            .iter()
            .filter_map(|h| match h {
                Hop::Crossed { to_node, .. } => Some(to_node.as_deref()),
                _ => None,
            })
            .collect();
        assert_eq!(
            inferred_to,
            vec![Some("late"), Some("early")],
            "address-pair inference mis-pairs the reordered decodes"
        );
    }
}
