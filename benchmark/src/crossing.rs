//! One wire crossing, driven in lockstep: the driver thread owns both
//! ends of its connection, writes on the sender VM and then reads on
//! the receiver VM, so no thread wake-up sits on the data path.
//!
//! A *whole* crossing goes through `SocketOutputStream::write` and
//! `SocketInputStream::read_exact`. A *decomposed* crossing (traced
//! window only, every second op) makes the boundary's public calls
//! itself, in the boundary's order, on a raw `TcpEndpoint` pair, with a
//! span around each — the steps of `encode_payload` and
//! `resolve_decoded` in `crates/jre/src/boundary.rs`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dista_jre::codec::v2::{parse_annotation, AnnotParse};
use dista_jre::{
    InputStream, JreError, OutputStream, RingRemainder, ServerSocket, Socket, SocketInputStream,
    SocketOutputStream, V1Codec, V2Codec, Vm, WireCodec, WireProtocol,
};
use dista_simnet::{NodeAddr, TcpEndpoint};
use dista_taint::{GlobalId, Payload, TagValue, Taint, TaintRuns, TaintedBytes};

use crate::gen::{Inputs, Rng};
use crate::spec::{Taints, POOL_SIZE};
use crate::trace::{SpanName, Spans};

/// Runs `$body` inside span `$name`. The body must not return early,
/// or the span would stay open.
macro_rules! span {
    ($tr:expr, $name:expr, $body:expr) => {{
        $tr.enter($name);
        let out = $body;
        $tr.exit();
        out
    }};
}
pub(crate) use span;

/// What one op reports to the window that ran it.
pub struct Outcome {
    /// Time inside the op's timed span.
    pub ns: u64,
    /// Whether the op completed and its outputs verified.
    pub ok: bool,
    /// Payload data bytes delivered.
    pub bytes: usize,
}

/// The global taints pool workloads draw from, minted on the sender VM
/// in an order that derives from the seed.
pub struct Pool {
    taints: Vec<Taint>,
    tags: Vec<String>,
}

impl Pool {
    /// Mints the pool for a workload that draws from it; the others get
    /// an empty one and leave the taint tree alone.
    pub fn mint(tx_vm: &Vm, taints: Taints, seed: u64) -> Pool {
        let size = match taints {
            Taints::Pool { .. } => POOL_SIZE,
            _ => 0,
        };
        let mut order: Vec<usize> = (0..size).collect();
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let tags: Vec<String> = order.iter().map(|k| format!("pool:{k}")).collect();
        let taints = tags
            .iter()
            .map(|tag| tx_vm.taint_source(TagValue::str(tag)))
            .collect();
        Pool { taints, tags }
    }
}

/// One planned run of an op's payload.
struct Run {
    len: usize,
    taint: Taint,
    /// Index into the pool's tags or this op's fresh tags; `None` for
    /// an untainted run.
    tag: Option<usize>,
}

/// The raw connection decomposed crossings use.
struct RawLink {
    tx: TcpEndpoint,
    rx: TcpEndpoint,
    rem: RingRemainder,
    codec: Box<dyn WireCodec>,
}

pub struct CrossingDriver {
    id: usize,
    tx_vm: Vm,
    rx_vm: Vm,
    out: SocketOutputStream,
    inp: SocketInputStream,
    sockets: [Socket; 2],
    raw: RawLink,
    payload_len: usize,
    taints: Taints,
    /// Whether the VMs' mode carries shadows (`Original` does not).
    tracked: bool,
    pool: Arc<Pool>,
    inputs: Inputs,
    next_op: u64,
    /// Self-test hook: expect a tag the sender never attached.
    expect_wrong_tag: bool,
    runs: Vec<Run>,
    fresh_tags: Vec<String>,
    /// Σ encoded length over decomposed crossings, and their count.
    pub wire_bytes: u64,
    pub decomposed_ops: u64,
}

/// Time to establish one data connection, for `simnet.connect_us`.
pub struct Connected {
    pub driver: CrossingDriver,
    pub connect_ns: u64,
}

#[allow(clippy::too_many_arguments)]
pub fn connect(
    id: usize,
    tx_vm: &Vm,
    rx_vm: &Vm,
    wire: WireProtocol,
    payload_len: usize,
    taints: Taints,
    pool: Arc<Pool>,
    seed: u64,
    expect_wrong_tag: bool,
) -> Result<Connected, JreError> {
    let port = 9000 + 2 * id as u16;
    let addr = NodeAddr::new(rx_vm.ip(), port);
    let server = ServerSocket::bind(rx_vm, addr)?;
    let client = Socket::connect(tx_vm, addr)?;
    let served = server.accept()?;
    server.close();

    let raw_addr = NodeAddr::new(rx_vm.ip(), port + 1);
    let listener = rx_vm.net().tcp_listen(raw_addr)?;
    let started = Instant::now();
    let tx = rx_vm.net().tcp_connect_from(tx_vm.ip(), raw_addr)?;
    let rx = listener.accept()?;
    let connect_ns = started.elapsed().as_nanos() as u64;
    rx_vm.net().tcp_unlisten(raw_addr);

    let width = tx_vm.gid_width();
    let codec: Box<dyn WireCodec> = match wire {
        WireProtocol::V1 => Box::new(V1Codec::new(width)),
        // Negotiate settles on v2 between two upgraded VMs.
        WireProtocol::V2 | WireProtocol::Negotiate => Box::new(V2Codec::new(width)),
    };
    Ok(Connected {
        driver: CrossingDriver {
            id,
            tx_vm: tx_vm.clone(),
            rx_vm: rx_vm.clone(),
            out: client.output_stream(),
            inp: served.input_stream(),
            sockets: [client, served],
            raw: RawLink {
                tx,
                rx,
                rem: RingRemainder::new(),
                codec,
            },
            payload_len,
            taints,
            tracked: tx_vm.mode().tracks_taints(),
            pool,
            inputs: Inputs::new(seed, id),
            next_op: 0,
            expect_wrong_tag,
            runs: Vec::new(),
            fresh_tags: Vec::new(),
            wire_bytes: 0,
            decomposed_ops: 0,
        },
        connect_ns,
    })
}

impl CrossingDriver {
    /// Sends every pool taint across once, so both VMs' Taint Map
    /// client caches hold the whole pool before anything is measured.
    pub fn register_pool(&mut self) -> Result<(), JreError> {
        if !self.tracked {
            return Ok(());
        }
        for &taint in &self.pool.taints {
            self.out
                .write(&Payload::Tainted(TaintedBytes::uniform(vec![0u8], taint)))?;
            self.inp.read_exact(1)?;
        }
        Ok(())
    }

    pub fn close(&self) {
        for socket in &self.sockets {
            socket.close();
        }
        self.raw.tx.close();
        self.raw.rx.close();
    }

    /// Lays out this op's runs from the seeded input stream (untimed).
    fn plan_runs(&mut self, op: u64) {
        self.runs.clear();
        match self.taints {
            Taints::Clean => self.runs.push(Run {
                len: self.payload_len,
                taint: Taint::EMPTY,
                tag: None,
            }),
            Taints::Pool { runs } => {
                let len = self.payload_len / runs;
                for _ in 0..runs {
                    let pick = self.inputs.pick(POOL_SIZE);
                    match self.runs.last_mut() {
                        // The shadow merges equal neighbours; so does
                        // the expectation.
                        Some(last) if last.tag == Some(pick) => last.len += len,
                        _ => self.runs.push(Run {
                            len,
                            taint: self.pool.taints[pick],
                            tag: Some(pick),
                        }),
                    }
                }
            }
            Taints::Fresh { per_op } => {
                self.fresh_tags.clear();
                for j in 0..per_op {
                    self.fresh_tags.push(format!("fresh:{}:{op}:{j}", self.id));
                    self.runs.push(Run {
                        len: self.payload_len / per_op,
                        taint: Taint::EMPTY, // minted inside the op
                        tag: Some(j),
                    });
                }
            }
        }
    }

    pub fn op<T: Spans>(&mut self, tr: &mut T) -> Outcome {
        let op = self.next_op;
        self.next_op += 1;
        let range = self.inputs.payload(self.payload_len);
        self.plan_runs(op);
        let decomposed = T::ON && self.tracked && op % 2 == 1;

        tr.begin_op(op);
        let started = Instant::now();
        let crossed = span!(tr, SpanName::Op, self.cross(range.clone(), decomposed, tr));
        let ns = started.elapsed().as_nanos() as u64;

        let ok = match crossed {
            Ok((got, union)) => self.verify(self.inputs.bytes(range), &got, union),
            Err(_) => false,
        };
        Outcome {
            ns,
            ok,
            bytes: self.payload_len,
        }
    }

    /// The timed span: source → shadow → boundary write → boundary read
    /// → sink.
    fn cross<T: Spans>(
        &mut self,
        range: std::ops::Range<usize>,
        decomposed: bool,
        tr: &mut T,
    ) -> Result<(Payload, Taint), JreError> {
        if self.tracked && matches!(self.taints, Taints::Fresh { .. }) {
            span!(tr, SpanName::Mint, {
                for (run, tag) in self.runs.iter_mut().zip(&self.fresh_tags) {
                    run.taint = self.tx_vm.taint_source(TagValue::str(tag));
                }
            });
        }
        let payload = span!(tr, SpanName::ShadowBuild, {
            let data = self.inputs.bytes(range);
            if self.tracked {
                let mut bytes = TaintedBytes::with_capacity(data.len());
                let mut at = 0;
                for run in &self.runs {
                    bytes.extend_uniform(&data[at..at + run.len], run.taint);
                    at += run.len;
                }
                Payload::Tainted(bytes)
            } else {
                Payload::Plain(data.to_vec())
            }
        });
        let got = if decomposed {
            span!(
                tr,
                SpanName::DecomposedWrite,
                self.write_decomposed(&payload, tr)
            )?;
            span!(tr, SpanName::DecomposedRead, self.read_decomposed(tr))?
        } else {
            span!(tr, SpanName::BoundaryWrite, self.out.write(&payload))?;
            span!(
                tr,
                SpanName::BoundaryRead,
                self.inp.read_exact(self.payload_len)
            )?
        };
        let union = span!(tr, SpanName::SinkUnion, got.taint_union(self.rx_vm.store()));
        Ok((got, union))
    }

    /// `BoundaryStream::write_payload` in `Mode::Dista`, step by step.
    fn write_decomposed<T: Spans>(
        &mut self,
        payload: &Payload,
        tr: &mut T,
    ) -> Result<(), JreError> {
        let client = self
            .tx_vm
            .taint_map()
            .ok_or(JreError::Protocol("DisTA boundary without taint map"))?;
        let Payload::Tainted(bytes) = payload else {
            return Err(JreError::Protocol("decomposed crossings carry shadows"));
        };
        let mut distinct: Vec<Taint> = Vec::new();
        let mut run_slots: Vec<(usize, usize)> = Vec::new();
        span!(tr, SpanName::ShadowTable, {
            let mut slot_of: HashMap<Taint, usize> = HashMap::new();
            for (run_len, taint) in bytes.shadow().iter_runs() {
                let slot = *slot_of.entry(taint).or_insert_with(|| {
                    distinct.push(taint);
                    distinct.len() - 1
                });
                run_slots.push((run_len, slot));
            }
        });
        let gids = span!(tr, SpanName::Register, client.global_ids_for(&distinct))?;
        let run_gids: Vec<(usize, GlobalId)> = run_slots
            .iter()
            .map(|&(run_len, slot)| (run_len, gids[slot]))
            .collect();
        let mut wire = self.tx_vm.wire_pool().checkout();
        span!(
            tr,
            SpanName::Encode,
            self.raw
                .codec
                .encode_into(bytes.data(), &run_gids, &mut wire)
        )?;
        self.wire_bytes += wire.len() as u64;
        self.decomposed_ops += 1;
        span!(tr, SpanName::SimnetWrite, self.raw.tx.write(&wire))?;
        Ok(())
    }

    /// `BoundaryStream::read_exact_payload` in `Mode::Dista`, step by
    /// step: decode what is buffered, else pull the wire-size
    /// equivalent of the caller's buffer and try again.
    fn read_decomposed<T: Spans>(&mut self, tr: &mut T) -> Result<Payload, JreError> {
        let client = self
            .rx_vm
            .taint_map()
            .ok_or(JreError::Protocol("DisTA boundary without taint map"))?;
        let want = self.payload_len;
        let mut acc = TaintedBytes::with_capacity(want);
        while acc.len() < want {
            let max_data = want - acc.len();
            let v2 = self.raw.codec.version() == dista_jre::WireVersion::V2;
            if v2 {
                while let AnnotParse::Complete { consumed, .. } =
                    parse_annotation(self.raw.rem.as_slice())?
                {
                    self.raw.rem.consume(consumed);
                }
            }
            let mut data = Vec::new();
            let mut runs: Vec<(GlobalId, usize)> = Vec::new();
            let consumed = span!(
                tr,
                SpanName::Decode,
                self.raw.codec.decode_available(
                    self.raw.rem.as_slice(),
                    max_data,
                    &mut data,
                    &mut runs
                )
            )?;
            if consumed == 0 {
                let mut chunk = self.rx_vm.wire_pool().checkout();
                let hint = self.raw.codec.recv_wire_len(max_data);
                chunk.resize(hint.saturating_sub(self.raw.rem.len()).max(1), 0);
                let n = span!(tr, SpanName::SimnetRead, self.raw.rx.read(&mut chunk))?;
                if n == 0 {
                    return Err(JreError::Eof);
                }
                self.raw.rem.extend(&chunk[..n]);
                continue;
            }
            let mut slot_of: HashMap<GlobalId, usize> = HashMap::new();
            let mut distinct: Vec<GlobalId> = Vec::new();
            for &(gid, _) in &runs {
                slot_of.entry(gid).or_insert_with(|| {
                    distinct.push(gid);
                    distinct.len() - 1
                });
            }
            let taints = span!(tr, SpanName::Lookup, client.taints_for(&distinct))?;
            let decoded = span!(tr, SpanName::ShadowResolve, {
                let mut shadow = TaintRuns::new();
                for (gid, run_len) in runs {
                    shadow.push_run(taints[slot_of[&gid]], run_len);
                }
                TaintedBytes::from_runs(data, shadow)
            });
            self.raw.rem.consume(consumed);
            acc.extend_tainted(&decoded);
        }
        Ok(Payload::Tainted(acc))
    }

    /// An op fails if bytes differ, if any run arrives with another tag
    /// set than it left with (missing = unsound, extra = imprecise,
    /// clean arriving tainted), or if the sink's union disagrees.
    fn verify(&self, sent: &[u8], got: &Payload, union: Taint) -> bool {
        if got.data() != sent {
            return false;
        }
        let Payload::Tainted(bytes) = got else {
            // `Mode::Original` carries no shadows to compare.
            return !self.tracked && union.is_empty();
        };
        let store = self.rx_vm.store();
        let tag_of = |run: &Run| -> Option<&str> {
            let tag = run.tag?;
            Some(match self.taints {
                Taints::Fresh { .. } => &self.fresh_tags[tag],
                _ => &self.pool.tags[tag],
            })
        };
        let mut want: Vec<&str> = Vec::with_capacity(self.runs.len());
        let mut arrived = bytes.shadow().iter_runs();
        for (i, run) in self.runs.iter().enumerate() {
            let mut expected = tag_of(run);
            if self.expect_wrong_tag && i == 0 {
                expected = Some("never-attached");
            }
            let Some((len, taint)) = arrived.next() else {
                return false;
            };
            let tags = store.tag_values(taint);
            let same = match expected {
                Some(tag) => tags.len() == 1 && tags[0] == tag,
                None => tags.is_empty(),
            };
            if len != run.len || !same {
                return false;
            }
            want.extend(expected);
        }
        if arrived.next().is_some() {
            return false;
        }
        let mut at_sink = store.tag_values(union);
        at_sink.sort_unstable();
        want.sort_unstable();
        want.dedup();
        at_sink == want
    }
}
