//! Framed request/response protocol between VMs and the Taint Map.
//!
//! Frame layout (both directions): `op: u8`, `len: u32 BE`, `len` payload
//! bytes. A VM speaks two RPCs: `BIND` makes the gids it handed out
//! durable and leases the next block of them, `LOOKUP` carries Global
//! IDs and answers their serialized taints. Each carries *many* items,
//! so a whole queue or shadow buffer resolves in one round trip per
//! shard; a single item is a batch of one. Servers speak a third,
//! `REPLICATE`, to each other. Responses: `OK` carries the result
//! payload, `ERR` a one-byte reason, `MOVED` a class table.
//!
//! Payload layouts (all integers big-endian). A *record* is `u32 gid,
//! u32 len, packed[len]`, written and read by [`push_record`] and
//! [`read_record`]. `packed` is a serialized taint as
//! `dista_taint::serialize_taint` writes it: ≈ 25 B for one string tag.
//! A `LOOKUP` answer carries the same bytes. A server answers `ERR` to a
//! `BIND` frame with a record that is not a canonical packing, and binds
//! nothing of it.
//!
//! ```text
//! BIND       req:  u64 epoch, u32 want, u32 count, count × record
//!            resp: u32 n, n × u32 leased gid (n <= want),
//!                  then count × u8 status
//! LOOKUP     req:  u64 epoch, u32 count, count × u32 gid
//!            resp: u32 count, then count × (u8 status,
//!                  if status == 0: u32 len, packed[len])
//! REPLICATE  req:  WAL records to the end: (u8 1, record) binds,
//!                  (u8 5, u32 high-water) leases     resp: empty
//! MOVED      resp: u64 epoch, u32 nranges, nranges ×
//!                  (u32 lo_gid, u8 naddrs, naddrs × (4B ip, u16 port))
//! ```
//!
//! One frame carries many items, so a request amortizes the fixed RPC
//! cost (a round trip and a session wake-up) over all of them.
//!
//! **Resharding.** `epoch` is the sender's class-table epoch. A server
//! whose table is newer, that no longer owns a touched gid range, or
//! (for a lease) no longer allocates answers `MOVED` with its whole
//! [`ClassTable`]; the client merges it and re-routes. A split's new
//! server follows the old one as a standby does: forwarded commits and
//! catch-up batches reach it as `REPLICATE` frames.

use dista_simnet::{read_announced, read_full, NetError, NodeAddr, TcpEndpoint};
use dista_taint::{ByteReader, ReadError};

use crate::error::TaintMapError;
use crate::shard::{ClassTable, ShardRange};

pub(crate) const OP_REPLICATE: u8 = 4;
pub(crate) const OP_LOOKUP: u8 = 8;
pub(crate) const OP_BIND: u8 = 11;
pub(crate) const RESP_OK: u8 = 0x80;
pub(crate) const RESP_ERR: u8 = 0x81;
pub(crate) const RESP_MOVED: u8 = 0x82;

/// Per-item statuses. A `LOOKUP` item is `OK` or `UNKNOWN`. A `BIND`
/// item is `OK` (bound to these bytes, now or before), `TAKEN` (the gid
/// was bound to other bytes first) or `UNLEASED` (not a gid this shard
/// leased, so nothing was bound).
pub(crate) const STATUS_OK: u8 = 0;
pub(crate) const STATUS_UNKNOWN: u8 = 1;
pub(crate) const STATUS_TAKEN: u8 = 2;
pub(crate) const STATUS_UNLEASED: u8 = 3;

/// Gids one lease hands out at most: a client holds up to this many per
/// shard, and a server grants no more in one `BIND` reply.
pub(crate) const LEASE_IDS: u32 = 64;

/// Writes one frame.
pub(crate) fn write_frame(conn: &TcpEndpoint, op: u8, payload: &[u8]) -> Result<(), NetError> {
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(op);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    conn.write(&frame)
}

/// Reads one frame; returns `None` on clean EOF at a frame boundary.
pub(crate) fn read_frame(conn: &TcpEndpoint) -> Result<Option<(u8, Vec<u8>)>, TaintMapError> {
    read_frame_with(|buf| conn.read(buf))
}

/// Like [`read_frame`], but the *whole frame* is bounded by `deadline` —
/// the client's per-RPC deadline. The deadline is absolute: each
/// successive read is given only the remaining budget, so a slow-drip
/// peer (one byte per read, each gap under the full deadline) cannot
/// re-arm the timer indefinitely. On expiry the typed error carries the
/// originally requested deadline.
pub(crate) fn read_frame_deadline(
    conn: &TcpEndpoint,
    deadline: std::time::Duration,
) -> Result<Option<(u8, Vec<u8>)>, TaintMapError> {
    let expires = std::time::Instant::now() + deadline;
    read_frame_with(|buf| {
        let remaining = expires
            .checked_duration_since(std::time::Instant::now())
            .filter(|r| !r.is_zero())
            .ok_or(NetError::Timeout(deadline))?;
        // Normalize so callers see the deadline they asked for, not
        // whatever sliver of budget the final read was given.
        conn.read_deadline(buf, remaining).map_err(|e| match e {
            NetError::Timeout(_) => NetError::Timeout(deadline),
            e => e,
        })
    })
}

/// Frames the stream behind `read`: the first read asks for the whole
/// 5-byte header, so a frame costs two pipe reads (header, payload)
/// unless the transport fragments it. The payload is received with
/// [`read_announced`] — grown with the bytes that arrive rather than
/// capped, because a `REPLICATE` frame of the split copy is as large as
/// its caller made it.
fn read_frame_with(
    mut read: impl FnMut(&mut [u8]) -> Result<usize, NetError>,
) -> Result<Option<(u8, Vec<u8>)>, TaintMapError> {
    let mut header = [0u8; 5];
    let got = read(&mut header)?;
    if got == 0 {
        return Ok(None);
    }
    read_full(&mut read, &mut header[got..])?;
    let mut r = ByteReader::new(&header);
    let (op, len) = (r.u8()?, r.u32()? as usize);
    let mut payload = Vec::new();
    read_announced(&mut read, len, &mut payload)?;
    Ok(Some((op, payload)))
}

/// Reads a `NodeAddr` as the wire and the WAL carry it: 4 IP bytes and
/// a big-endian port.
pub(crate) fn addr(r: &mut ByteReader<'_>) -> Result<NodeAddr, ReadError> {
    Ok(NodeAddr::new(r.array()?, r.u16()?))
}

/// Appends one record — `gid` and the packed serialized taint bound to
/// it — as a `BIND` item and a data record of a log, a compaction
/// generation or a `REPLICATE` frame carry it.
pub(crate) fn push_record(out: &mut Vec<u8>, gid: u32, bytes: &[u8]) {
    out.extend_from_slice(&gid.to_be_bytes());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Reads one record [`push_record`] wrote.
pub(crate) fn read_record<'a>(r: &mut ByteReader<'a>) -> Result<(u32, &'a [u8]), ReadError> {
    let gid = r.u32()?;
    let len = r.u32()? as usize;
    Ok((gid, r.bytes(len)?))
}

/// Encodes a `BIND` request: the sender's class-table epoch, how many
/// gids it wants leased, then the `(gid, serialized taint)` pairs to
/// bind.
pub(crate) fn encode_bind(epoch: u64, want: u32, items: &[(u32, &[u8])]) -> Vec<u8> {
    let body: usize = items.iter().map(|(_, b)| 8 + b.len()).sum();
    let mut out = Vec::with_capacity(16 + body);
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&want.to_be_bytes());
    out.extend_from_slice(&(items.len() as u32).to_be_bytes());
    for &(gid, bytes) in items {
        push_record(&mut out, gid, bytes);
    }
    out
}

/// Encodes a `LOOKUP` request: the sender's class-table epoch, then the
/// Global IDs.
pub(crate) fn encode_lookup(epoch: u64, gids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 4 * gids.len());
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&(gids.len() as u32).to_be_bytes());
    for gid in gids {
        out.extend_from_slice(&gid.to_be_bytes());
    }
    out
}

/// Decodes a `BIND` response payload to the `expected` items it
/// answers: the gids it leased, and one status per item.
pub(crate) fn decode_bind_resp(
    payload: &[u8],
    expected: usize,
) -> Result<(Vec<u32>, Vec<u8>), TaintMapError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()? as usize;
    let mut gids = Vec::with_capacity(r.count(count, 4));
    for _ in 0..count {
        gids.push(r.u32()?);
    }
    let statuses = r.bytes(expected)?.to_vec();
    if !statuses
        .iter()
        .all(|s| [STATUS_OK, STATUS_TAKEN, STATUS_UNLEASED].contains(s))
    {
        return Err(TaintMapError::Protocol("bad bind status"));
    }
    if !r.at_end() {
        return Err(TaintMapError::Protocol("trailing bytes in response"));
    }
    Ok((gids, statuses))
}

/// Decodes a `LOOKUP` response payload; `None` marks an id the service
/// never assigned.
pub(crate) fn decode_lookup_resp(
    payload: &[u8],
    expected: usize,
) -> Result<Vec<Option<Vec<u8>>>, TaintMapError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()? as usize;
    if count != expected {
        return Err(TaintMapError::Protocol("lookup count mismatch"));
    }
    let mut items = Vec::with_capacity(r.count(count, 1));
    for _ in 0..count {
        match r.u8()? {
            STATUS_OK => {
                let len = r.u32()? as usize;
                items.push(Some(r.bytes(len)?.to_vec()));
            }
            STATUS_UNKNOWN => items.push(None),
            _ => return Err(TaintMapError::Protocol("bad lookup status")),
        }
    }
    if !r.at_end() {
        return Err(TaintMapError::Protocol("trailing bytes in response"));
    }
    Ok(items)
}

/// Encodes a [`ClassTable`] (the `MOVED` payload).
pub(crate) fn encode_class_table(table: &ClassTable) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + table.ranges.len() * 11);
    out.extend_from_slice(&table.epoch.to_be_bytes());
    out.extend_from_slice(&(table.ranges.len() as u32).to_be_bytes());
    for range in &table.ranges {
        out.extend_from_slice(&range.lo_gid.to_be_bytes());
        out.push(range.addrs.len() as u8);
        for addr in &range.addrs {
            out.extend_from_slice(&addr.ip());
            out.extend_from_slice(&addr.port().to_be_bytes());
        }
    }
    out
}

/// Decodes a [`ClassTable`] payload, validating shape and ordering.
pub(crate) fn decode_class_table(payload: &[u8]) -> Result<ClassTable, TaintMapError> {
    let mut r = ByteReader::new(payload);
    let epoch = r.u64()?;
    let nranges = r.u32()? as usize;
    if nranges == 0 {
        return Err(TaintMapError::Protocol("class table has no ranges"));
    }
    // A range is at least 11 bytes: lo_gid, address count, one address.
    let mut ranges = Vec::with_capacity(r.count(nranges, 11));
    let mut prev_lo = 0u32;
    for _ in 0..nranges {
        let lo_gid = r.u32()?;
        if lo_gid <= prev_lo && !ranges.is_empty() {
            return Err(TaintMapError::Protocol("class table ranges out of order"));
        }
        prev_lo = lo_gid;
        let naddrs = r.u8()? as usize;
        if naddrs == 0 {
            return Err(TaintMapError::Protocol("class table range has no address"));
        }
        let mut addrs = Vec::with_capacity(r.count(naddrs, 6));
        for _ in 0..naddrs {
            addrs.push(addr(&mut r)?);
        }
        ranges.push(ShardRange { lo_gid, addrs });
    }
    if !r.at_end() {
        return Err(TaintMapError::Protocol("trailing bytes in class table"));
    }
    Ok(ClassTable { epoch, ranges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_simnet::{NodeAddr, SimNet};

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        let net = SimNet::new();
        let addr = NodeAddr::new([1, 1, 1, 1], 9);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        (c, s)
    }

    #[test]
    fn slow_drip_sender_still_times_out() {
        // Regression: the frame deadline used to re-arm in full on every
        // read, so a peer dripping one byte per 15 ms could stall a
        // 60 ms-deadline reader forever. The deadline is now absolute
        // over the whole frame.
        let (c, s) = pair();
        let deadline = std::time::Duration::from_millis(60);
        let reader = std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let got = read_frame_deadline(&s, deadline);
            (got, started.elapsed())
        });
        // Announce a 64-byte frame, then drip it far too slowly: every
        // inter-byte gap is below the deadline, but the total is not.
        c.write(&[OP_BIND]).unwrap();
        c.write(&64u32.to_be_bytes()).unwrap();
        for b in 0..20u8 {
            std::thread::sleep(std::time::Duration::from_millis(15));
            if c.write(&[b]).is_err() {
                break;
            }
        }
        let (got, elapsed) = reader.join().unwrap();
        match got {
            Err(TaintMapError::Net(NetError::Timeout(t))) => assert_eq!(t, deadline),
            other => panic!("expected frame-deadline timeout, got {other:?}"),
        }
        assert!(
            elapsed < std::time::Duration::from_millis(1000),
            "reader must give up near the absolute deadline, took {elapsed:?}"
        );
    }

    #[test]
    fn frame_roundtrip() {
        let (c, s) = pair();
        write_frame(&c, OP_BIND, b"payload").unwrap();
        let (op, payload) = read_frame(&s).unwrap().unwrap();
        assert_eq!(op, OP_BIND);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn empty_payload_frame() {
        let (c, s) = pair();
        write_frame(&c, OP_REPLICATE, b"").unwrap();
        let (op, payload) = read_frame(&s).unwrap().unwrap();
        assert_eq!(op, OP_REPLICATE);
        assert!(payload.is_empty());
    }

    #[test]
    fn eof_at_boundary_is_none() {
        let (c, s) = pair();
        c.close();
        assert!(read_frame(&s).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_error() {
        let (c, s) = pair();
        // one byte of a 5-byte header, then close
        c.write(&[OP_LOOKUP]).unwrap();
        c.close();
        assert!(read_frame(&s).is_err());
    }

    #[test]
    fn whole_frame_costs_two_reads() {
        let (c, s) = pair();
        write_frame(&c, OP_LOOKUP, b"gid!").unwrap();
        let mut reads = 0;
        let frame = read_frame_with(|buf| {
            reads += 1;
            s.read(buf)
        });
        assert_eq!(frame.unwrap(), Some((OP_LOOKUP, b"gid!".to_vec())));
        assert_eq!(reads, 2, "one read for the header, one for the payload");
    }

    #[test]
    fn fragmented_header_is_completed() {
        let net = SimNet::new();
        net.set_faults(dista_simnet::FaultConfig {
            max_read_chunk: 2,
            ..Default::default()
        });
        let addr = NodeAddr::new([1, 1, 1, 1], 9);
        let l = net.tcp_listen(addr).unwrap();
        let c = net.tcp_connect(addr).unwrap();
        let s = l.accept().unwrap();
        write_frame(&c, OP_BIND, b"payload").unwrap();
        let deadline = std::time::Duration::from_secs(5);
        let frame = read_frame_deadline(&s, deadline).unwrap();
        assert_eq!(frame, Some((OP_BIND, b"payload".to_vec())));
    }

    #[test]
    fn bind_payload_roundtrip() {
        let items: [(u32, &[u8]); 3] = [(3, b"alpha"), (5, b""), (9, b"b")];
        let payload = encode_bind(7, 64, &items);
        let mut r = ByteReader::new(&payload);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 64);
        assert_eq!(r.u32().unwrap(), 3);
        for item in items {
            assert_eq!(read_record(&mut r).unwrap(), item);
        }
        assert!(r.at_end());
    }

    #[test]
    fn a_record_reads_back_and_a_short_one_is_an_error() {
        let mut out = Vec::new();
        push_record(&mut out, 5, b"taint-a");
        push_record(&mut out, 9, b"");
        let mut r = ByteReader::new(&out);
        assert_eq!(read_record(&mut r).unwrap(), (5, &b"taint-a"[..]));
        assert_eq!(read_record(&mut r).unwrap(), (9, &b""[..]));
        assert!(r.at_end());
        let mut short = ByteReader::new(&out[..out.len() - 9]);
        assert!(read_record(&mut short).is_err(), "a length past the end");
    }

    #[test]
    fn lookup_payload_roundtrip() {
        let payload = encode_lookup(u64::MAX - 1, &[7, 0, 42]);
        let mut r = ByteReader::new(&payload);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0);
        assert_eq!(r.u32().unwrap(), 42);
        assert!(r.at_end());
        assert!(r.u8().is_err(), "reads past the end are errors, not panics");
    }

    #[test]
    fn class_table_roundtrip_and_validation() {
        let table = ClassTable {
            epoch: 3,
            ranges: vec![
                ShardRange {
                    lo_gid: 2,
                    addrs: vec![NodeAddr::new([10, 0, 0, 9], 7779)],
                },
                ShardRange {
                    lo_gid: 4002,
                    addrs: vec![
                        NodeAddr::new([10, 0, 0, 9], 7787),
                        NodeAddr::new([10, 0, 0, 9], 7788),
                    ],
                },
            ],
        };
        let payload = encode_class_table(&table);
        assert_eq!(decode_class_table(&payload).unwrap(), table);
        // Empty table, unordered ranges and trailing bytes are rejected.
        assert!(decode_class_table(&[0u8; 12]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode_class_table(&trailing).is_err());
        let mut unordered = table.clone();
        unordered.ranges.swap(0, 1);
        assert!(decode_class_table(&encode_class_table(&unordered)).is_err());
    }

    #[test]
    fn class_table_announcing_more_ranges_than_bytes_is_a_protocol_error() {
        // One range of one address: 11 bytes after the 12-byte header.
        let table = ClassTable::initial(vec![NodeAddr::new([10, 0, 0, 9], 7779)], 0);
        let honest = encode_class_table(&table);
        assert_eq!(honest.len(), 12 + 11);
        assert_eq!(decode_class_table(&honest).unwrap(), table);
        // The same body under a count of 4.29 G must not size a buffer.
        let mut hostile = honest;
        hostile[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_class_table(&hostile),
            Err(TaintMapError::Protocol(_))
        ));
    }

    #[test]
    fn resp_decoders_reject_mismatch_and_truncation() {
        let two_leased = [
            &2u32.to_be_bytes()[..],
            &5u32.to_be_bytes()[..],
            &9u32.to_be_bytes()[..],
        ]
        .concat();
        let answered = [&two_leased[..], &[STATUS_OK, STATUS_UNLEASED]].concat();
        assert_eq!(
            decode_bind_resp(&answered, 2).unwrap(),
            (vec![5, 9], vec![STATUS_OK, STATUS_UNLEASED])
        );
        assert!(decode_bind_resp(&answered, 3).is_err(), "a status short");
        assert!(decode_bind_resp(&answered, 1).is_err(), "trailing byte");
        assert!(decode_bind_resp(&[&two_leased[..], &[STATUS_UNKNOWN]].concat(), 1).is_err());
        assert!(decode_bind_resp(&2u32.to_be_bytes(), 0).is_err());
        assert!(decode_bind_resp(&[0, 0], 0).is_err());
        // A count of 4.29 G over an empty body sizes nothing.
        assert!(decode_bind_resp(&u32::MAX.to_be_bytes(), 0).is_err());
        assert!(decode_lookup_resp(&1u32.to_be_bytes(), 1).is_err());
        let mut ok = 1u32.to_be_bytes().to_vec();
        ok.push(STATUS_UNKNOWN);
        assert_eq!(decode_lookup_resp(&ok, 1).unwrap(), vec![None]);
    }
}
