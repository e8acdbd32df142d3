//! `u32`-big-endian length-prefixed frames — the framing MapReduce RPC,
//! HBase pb-RPC, Netty's `LengthFieldBasedFrameDecoder` and
//! `ObjectOutputStream` all put around a message body. The prefix is
//! untainted scaffolding and sizes nothing on the reading side: the body
//! is received by chunk ([`crate::BoundaryStream::read_exact_payload`]).

use dista_taint::{ByteReader, Payload, TaintedBytes};

use crate::channel::SocketChannel;
use crate::error::JreError;
use crate::vm::Vm;

/// `body` behind its `u32` length as one payload — one boundary write,
/// so the frame is one wire unit. Tainted where the VM tracks taints,
/// plain bytes otherwise.
pub fn length_prefixed(vm: &Vm, body: &TaintedBytes) -> Payload {
    let len = (body.len() as u32).to_be_bytes();
    if vm.mode().tracks_taints() {
        let mut framed = TaintedBytes::with_capacity(4 + body.len());
        framed.extend_plain(&len);
        framed.extend_tainted(body);
        Payload::Tainted(framed)
    } else {
        let mut framed = Vec::with_capacity(4 + body.len());
        framed.extend_from_slice(&len);
        framed.extend_from_slice(body.data());
        Payload::Plain(framed)
    }
}

/// Reads one frame's body; `None` on clean EOF at a frame boundary.
///
/// # Errors
///
/// [`JreError::Eof`] if the stream ends mid-frame; transport, Taint Map
/// or wire-decode errors otherwise.
pub fn read_frame(channel: &SocketChannel) -> Result<Option<Payload>, JreError> {
    let first = channel.read_payload(1)?;
    if first.is_empty() {
        return Ok(None);
    }
    let mut header = first.into_plain();
    header.extend_from_slice(channel.read_exact_payload(3)?.data());
    let len = ByteReader::new(&header).u32()? as usize;
    Ok(Some(channel.read_exact_payload(len)?))
}
