//! Structured flight-recorder events.
//!
//! Events are deliberately built from primitive types only (strings,
//! integers, byte ranges) so that `dista-obs` stays a leaf crate: every
//! layer of the stack — taint tree, JNI boundary, Taint Map client,
//! cluster — can record events without `dista-obs` depending on any of
//! them. Cross-VM ordering comes from a cluster-shared logical clock
//! ([`crate::ObsClock`]); each event carries the sequence number it drew.

/// Which transport a boundary crossing used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Stream socket (TCP).
    Tcp,
    /// Datagram socket (UDP).
    Udp,
}

impl Transport {
    /// Lower-case wire name, used by exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Udp => "udp",
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which half of a boundary crossing a
/// [`ObsEventKind::CrossingPhases`] event timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingSide {
    /// The sender's wrapper: shadow in, wire bytes out.
    Write,
    /// The receiver's wrapper: wire bytes in, shadow out.
    Read,
}

impl CrossingSide {
    /// Lower-case name, used by exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            CrossingSide::Write => "write",
            CrossingSide::Read => "read",
        }
    }

    /// This side's phase names, in the order
    /// [`ObsEventKind::CrossingPhases`] lists their durations.
    pub fn phases(self) -> [&'static str; 4] {
        match self {
            CrossingSide::Write => ["shadow", "register", "encode", "send"],
            CrossingSide::Read => ["recv", "decode", "resolve", "shadow"],
        }
    }
}

/// One Global-ID-bearing byte range inside an encoded wire payload.
///
/// `start..end` index into the *data* bytes of the payload (not the
/// expanded wire bytes), matching how the paper reports "bytes 17..21
/// of the message carried gid 42".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GidSpan {
    /// The global taint id carried by the range.
    pub gid: u32,
    /// First tainted data byte (inclusive).
    pub start: usize,
    /// One past the last tainted data byte.
    pub end: usize,
}

/// The payload of one recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEventKind {
    /// A source point minted a fresh local taint.
    SourceMinted {
        /// Local taint id on the minting VM.
        taint: u32,
        /// The source tag, e.g. `zk.zxid`.
        tag: String,
        /// Root trace span minted alongside the taint (0 when trace
        /// context is off).
        span: u64,
    },
    /// The Taint Map assigned `gid` to a serialized local taint.
    TaintMapRegister {
        /// Local taint id on the registering VM.
        taint: u32,
        /// The global id the service handed back.
        gid: u32,
        /// Root span of the minted taint, now bound to the gid (0 when
        /// trace context is off).
        span: u64,
    },
    /// A VM resolved `gid` back into a local taint.
    TaintMapLookup {
        /// The global id that was looked up.
        gid: u32,
        /// The local taint id it interned to on this VM.
        taint: u32,
        /// The crossing span that delivered the gid to this VM (0 when
        /// unknown — v1 peer or trace context off).
        span: u64,
    },
    /// The client redialed a Taint Map shard after a primary failure.
    TaintMapFailover {
        /// Index of the shard that failed over.
        shard: usize,
    },
    /// Outbound boundary: data bytes were expanded into wire records.
    BoundaryEncode {
        /// Transport the payload left on.
        transport: Transport,
        /// Sender address, `ip:port`.
        from: String,
        /// Receiver address, `ip:port`.
        to: String,
        /// Plain data byte count.
        data_bytes: usize,
        /// Expanded wire byte count.
        wire_bytes: usize,
        /// Tainted ranges of the data bytes.
        spans: Vec<GidSpan>,
        /// Crossing span id carried in the v2 annotation frame (0 when
        /// no annotation was sent — v1 wire or untainted payload).
        span: u64,
        /// Parent span — the span that delivered the tainted gids to
        /// this VM, or the root span minted at the source (0 = none).
        parent: u64,
    },
    /// Inbound boundary: wire records were collapsed back into data.
    BoundaryDecode {
        /// Transport the payload arrived on.
        transport: Transport,
        /// Sender address, `ip:port`.
        from: String,
        /// Receiver address, `ip:port`.
        to: String,
        /// Recovered data byte count.
        data_bytes: usize,
        /// Consumed wire byte count.
        wire_bytes: usize,
        /// Tainted ranges of the recovered data bytes.
        spans: Vec<GidSpan>,
        /// Crossing span id received in the v2 annotation frame (0 when
        /// the peer sent none — v1 wire or untainted payload). A
        /// nonzero value pairs this decode exactly with the encode that
        /// minted the same span.
        span: u64,
    },
    /// A sink point observed a tainted value.
    SinkHit {
        /// Sink identifier, e.g. `LOG.info`.
        sink: String,
        /// Source tags reaching the sink.
        tags: Vec<String>,
        /// Global ids known for the sunk taint (empty if never crossed
        /// a boundary).
        gids: Vec<u32>,
    },
    /// Boundary decode could not resolve `gid` (owning shard
    /// unreachable past the retry budget) and attached a `PendingGid`
    /// sentinel taint instead of dropping the taint.
    DegradedLookup {
        /// The unresolved global id.
        gid: u32,
        /// Index of the unreachable shard.
        shard: usize,
    },
    /// The reconciler resolved a pending sentinel after the partition
    /// healed: `gid` now maps to the correct local taint.
    PendingResolved {
        /// The global id that was pending.
        gid: u32,
        /// The correct local taint it resolved to.
        taint: u32,
    },
    /// A chaos-layer fault applied (partition, heal, reset, crash or
    /// restart trigger), described in the fault log's wording.
    FaultInjected {
        /// Human-readable description of the applied fault.
        fault: String,
    },
    /// A Taint Map shard primary was crashed ungracefully.
    ShardCrashed {
        /// Index of the crashed shard.
        shard: usize,
    },
    /// A crashed shard primary was restarted from its write-ahead
    /// snapshot.
    ShardRestarted {
        /// Index of the restarted shard.
        shard: usize,
        /// Registrations recovered by replaying the snapshot log.
        replayed: u64,
    },
    /// A live resharding cut over: residue class `class` gained a new
    /// tail server owning gids at and above `lo_gid`, and the class
    /// table advanced to `epoch` (stale clients are redirected to it).
    ShardSplit {
        /// Residue class whose tail range migrated.
        class: usize,
        /// Extended server index of the new range owner.
        target: usize,
        /// First gid of the migrated range.
        lo_gid: u32,
        /// The class table epoch after the cutover.
        epoch: u64,
    },
    /// An interrupted split was repaired: crashed sides restarted from
    /// their WALs and the copy re-armed on a fresh connection.
    SplitHealed {
        /// Residue class of the in-flight split.
        class: usize,
    },
    /// A shard's WAL was folded into a fresh snapshot and truncated,
    /// bounding its next restart's replay by live records.
    WalCompacted {
        /// Base or extended index of the compacted server.
        shard: usize,
        /// Records folded into the snapshot.
        records: u64,
    },
    /// A cross-system pipeline harness completed a named stage on this
    /// node (ingest → store → analyze, or tenant delivery). Stage
    /// events let a trace reader segment one provenance narrative by
    /// application boundary.
    PipelineStage {
        /// Stage label, e.g. `ingest`.
        stage: String,
        /// Records the stage handled.
        records: u64,
    },
    /// A sampled boundary crossing, timed phase by phase. Each VM
    /// samples the first and then every 64th crossing of each side.
    CrossingPhases {
        /// Transport the crossing used.
        transport: Transport,
        /// Which half of the crossing was timed.
        side: CrossingSide,
        /// Nanoseconds per phase, named by [`CrossingSide::phases`]:
        /// write `shadow, register, encode, send`; read `recv` (waiting
        /// and native reads included), `decode, resolve, shadow`. Each
        /// lies between two consecutive clock reads, so together they
        /// are the whole crossing.
        phases_ns: [u64; 4],
    },
}

impl ObsEventKind {
    /// Short kind name, used by exporters and the text report.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEventKind::SourceMinted { .. } => "source_minted",
            ObsEventKind::TaintMapRegister { .. } => "taintmap_register",
            ObsEventKind::TaintMapLookup { .. } => "taintmap_lookup",
            ObsEventKind::TaintMapFailover { .. } => "taintmap_failover",
            ObsEventKind::BoundaryEncode { .. } => "boundary_encode",
            ObsEventKind::BoundaryDecode { .. } => "boundary_decode",
            ObsEventKind::SinkHit { .. } => "sink_hit",
            ObsEventKind::DegradedLookup { .. } => "degraded_lookup",
            ObsEventKind::PendingResolved { .. } => "pending_resolved",
            ObsEventKind::FaultInjected { .. } => "fault_injected",
            ObsEventKind::ShardCrashed { .. } => "shard_crashed",
            ObsEventKind::ShardRestarted { .. } => "shard_restarted",
            ObsEventKind::ShardSplit { .. } => "shard_split",
            ObsEventKind::SplitHealed { .. } => "split_healed",
            ObsEventKind::WalCompacted { .. } => "wal_compacted",
            ObsEventKind::PipelineStage { .. } => "pipeline_stage",
            ObsEventKind::CrossingPhases { .. } => "crossing_phases",
        }
    }
}

/// One entry in a VM's flight-recorder ring.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Cluster-wide logical sequence number (shared clock).
    pub seq: u64,
    /// Name of the VM that recorded the event.
    pub node: String,
    /// The event payload.
    pub kind: ObsEventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        let k = ObsEventKind::SourceMinted {
            taint: 1,
            tag: "t".into(),
            span: 0,
        };
        assert_eq!(k.name(), "source_minted");
        assert_eq!(Transport::Tcp.to_string(), "tcp");
        let k = ObsEventKind::ShardSplit {
            class: 0,
            target: 2,
            lo_gid: 9,
            epoch: 1,
        };
        assert_eq!(k.name(), "shard_split");
        assert_eq!(
            ObsEventKind::SplitHealed { class: 0 }.name(),
            "split_healed"
        );
        let k = ObsEventKind::WalCompacted {
            shard: 1,
            records: 3,
        };
        assert_eq!(k.name(), "wal_compacted");
        let k = ObsEventKind::PipelineStage {
            stage: "ingest".into(),
            records: 4,
        };
        assert_eq!(k.name(), "pipeline_stage");
        let k = ObsEventKind::CrossingPhases {
            transport: Transport::Udp,
            side: CrossingSide::Read,
            phases_ns: [1, 2, 3, 4],
        };
        assert_eq!(k.name(), "crossing_phases");
        assert_eq!(CrossingSide::Write.as_str(), "write");
        assert_eq!(
            CrossingSide::Write.phases(),
            ["shadow", "register", "encode", "send"]
        );
        assert_eq!(
            CrossingSide::Read.phases(),
            ["recv", "decode", "resolve", "shadow"]
        );
    }
}
