//! STOMP support (paper Table III: ActiveMQ speaks "HTTP/HTTPS,
//! WebSocket and STOMP" besides OpenWire).
//!
//! STOMP is a text protocol: `COMMAND\nheader:value\n…\n\n<body>\0`.
//! Frame commands and headers are protocol scaffolding (untainted); the
//! body's per-byte taints ride through the instrumented socket streams
//! like any other payload. The broker exposes a STOMP listener feeding
//! the same destinations as the OpenWire port, so STOMP producers and
//! OpenWire consumers interoperate.

use std::collections::HashMap;

use dista_jre::{InputStream, JreError, OutputStream, Socket, Vm};
use dista_simnet::NodeAddr;
use dista_taint::{Payload, TagValue, TaintedBytes};

use crate::PRODUCER_CLASS;

/// A parsed STOMP frame.
#[derive(Debug, Clone, PartialEq)]
pub struct StompFrame {
    /// `CONNECT`, `SEND`, `SUBSCRIBE`, `MESSAGE`, …
    pub command: String,
    /// Header map.
    pub headers: HashMap<String, String>,
    /// Body with per-byte taints.
    pub body: TaintedBytes,
}

impl StompFrame {
    /// A frame with no body.
    pub fn new(command: impl Into<String>) -> Self {
        StompFrame {
            command: command.into(),
            headers: HashMap::new(),
            body: TaintedBytes::new(),
        }
    }

    /// Adds a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.insert(name.into(), value.into());
        self
    }

    /// Sets the body.
    pub fn body(mut self, body: TaintedBytes) -> Self {
        self.body = body;
        self
    }

    /// Serializes the frame (headers include `content-length` so bodies
    /// may contain NULs).
    pub fn encode(&self, vm: &Vm) -> Payload {
        let mut head = format!("{}\n", self.command);
        let mut headers: Vec<_> = self.headers.iter().collect();
        headers.sort();
        for (name, value) in headers {
            head.push_str(&format!("{name}:{value}\n"));
        }
        head.push_str(&format!("content-length:{}\n\n", self.body.len()));
        if vm.mode().tracks_taints() {
            let mut out = TaintedBytes::with_capacity(head.len() + self.body.len() + 1);
            out.extend_plain(head.as_bytes());
            out.extend_tainted(&self.body);
            out.extend_plain(&[0]);
            Payload::Tainted(out)
        } else {
            let mut out = Vec::with_capacity(head.len() + self.body.len() + 1);
            out.extend_from_slice(head.as_bytes());
            out.extend_from_slice(self.body.data());
            out.push(0);
            Payload::Plain(out)
        }
    }
}

/// Reads one frame off a stream; `None` on clean EOF.
///
/// # Errors
///
/// [`JreError::Protocol`] on malformed frames; transport errors.
pub fn read_frame(input: &impl InputStream) -> Result<Option<StompFrame>, JreError> {
    // Command + headers, line by line until the blank separator.
    let mut head = Payload::default();
    loop {
        let byte = input.read(1)?;
        if byte.is_empty() {
            return if head.is_empty() {
                Ok(None)
            } else {
                Err(JreError::Eof)
            };
        }
        head.append(byte);
        if head.data().ends_with(b"\n\n") {
            break;
        }
        if head.len() > 64 * 1024 {
            return Err(JreError::Protocol("stomp head too long"));
        }
    }
    let text = std::str::from_utf8(head.data())
        .map_err(|_| JreError::Protocol("stomp head is not utf-8"))?;
    let mut lines = text.lines();
    let command = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or(JreError::Protocol("missing stomp command"))?
        .to_string();
    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(JreError::Protocol("malformed stomp header"))?;
        headers.insert(name.to_string(), value.to_string());
    }
    // A `u32`, like `jre/http.rs::body_len`; it sizes nothing.
    let length = headers
        .get("content-length")
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or(JreError::Protocol("missing or oversized content-length"))?;
    let body = input.read_exact(length as usize)?.into_tainted();
    let terminator = input.read_exact(1)?;
    if terminator.data() != [0] {
        return Err(JreError::Protocol("missing stomp NUL terminator"));
    }
    Ok(Some(StompFrame {
        command,
        headers,
        body,
    }))
}

/// Writes one frame.
///
/// # Errors
///
/// Transport or Taint Map errors.
pub fn write_frame(out: &impl OutputStream, vm: &Vm, frame: &StompFrame) -> Result<(), JreError> {
    out.write(&frame.encode(vm))
}

/// A STOMP client session against the broker's STOMP port.
#[derive(Debug)]
pub struct StompClient {
    vm: Vm,
    socket: Socket,
}

impl StompClient {
    /// Connects and performs the `CONNECT`/`CONNECTED` handshake.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn connect(vm: &Vm, broker_stomp: NodeAddr) -> Result<Self, JreError> {
        let socket = Socket::connect(vm, broker_stomp)?;
        write_frame(
            &socket.output_stream(),
            vm,
            &StompFrame::new("CONNECT").header("accept-version", "1.2"),
        )?;
        let reply = read_frame(&socket.input_stream())?.ok_or(JreError::Eof)?;
        if reply.command != "CONNECTED" {
            return Err(JreError::Protocol("stomp handshake rejected"));
        }
        Ok(StompClient {
            vm: vm.clone(),
            socket,
        })
    }

    /// `SEND`s a text message to a destination — the SDT source point
    /// fires here like on the OpenWire producer.
    ///
    /// # Errors
    ///
    /// Transport or Taint Map errors.
    pub fn send(&self, destination: &str, text: &str) -> Result<(), JreError> {
        let taint = self.vm.source_point(
            PRODUCER_CLASS,
            "createTextMessage",
            TagValue::str(format!("stomp:{destination}")),
        );
        let body = TaintedBytes::uniform(text.as_bytes().to_vec(), taint);
        write_frame(
            &self.socket.output_stream(),
            &self.vm,
            &StompFrame::new("SEND")
                .header("destination", destination)
                .body(body),
        )
    }

    /// `SUBSCRIBE`s to a destination.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn subscribe(&self, destination: &str) -> Result<(), JreError> {
        write_frame(
            &self.socket.output_stream(),
            &self.vm,
            &StompFrame::new("SUBSCRIBE")
                .header("destination", destination)
                .header("id", "0"),
        )
    }

    /// Blocks for the next `MESSAGE` frame.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors; [`JreError::Eof`] on disconnect.
    pub fn receive(&self) -> Result<StompFrame, JreError> {
        let frame = read_frame(&self.socket.input_stream())?.ok_or(JreError::Eof)?;
        if frame.command != "MESSAGE" {
            return Err(JreError::Protocol("expected a MESSAGE frame"));
        }
        Ok(frame)
    }

    /// Closes the session.
    pub fn close(&self) {
        self.socket.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_core::{Cluster, Mode};
    use dista_jre::PipedStream;
    use dista_taint::{MethodDesc, SourceSinkSpec};

    #[test]
    fn frame_roundtrip_preserves_body_taints() {
        let cluster = Cluster::builder(Mode::Phosphor)
            .nodes("s", 1)
            .build()
            .unwrap();
        let vm = cluster.vm(0);
        let t = vm
            .store()
            .mint_source_taint(dista_taint::TagValue::str("st"));
        let frame = StompFrame::new("SEND")
            .header("destination", "/queue/a")
            .body(TaintedBytes::uniform(b"body with \x00 nul", t));
        let pipe = PipedStream::new(vm);
        write_frame(&pipe, vm, &frame).unwrap();
        let back = read_frame(&pipe).unwrap().unwrap();
        assert_eq!(back.command, "SEND");
        assert_eq!(
            back.headers.get("destination").map(String::as_str),
            Some("/queue/a")
        );
        assert_eq!(back.body.data(), frame.body.data());
        assert_eq!(
            vm.store().tag_values(back.body.taint_union(vm.store())),
            vec!["st"]
        );
        cluster.shutdown();
    }

    #[test]
    fn eof_and_malformed_frames() {
        let cluster = Cluster::builder(Mode::Phosphor)
            .nodes("s", 1)
            .build()
            .unwrap();
        let vm = cluster.vm(0);
        let pipe = PipedStream::new(vm);
        pipe.close();
        assert!(read_frame(&pipe).unwrap().is_none());

        let pipe = PipedStream::new(vm);
        use dista_jre::OutputStream as _;
        pipe.write(&Payload::Plain(b"SEND\nnocolonheader\n\n".to_vec()))
            .unwrap();
        assert!(read_frame(&pipe).is_err());

        // A content-length no `u32` holds is refused as it is parsed; it
        // used to reach the body read as `usize::MAX`.
        let pipe = PipedStream::new(vm);
        let head = format!("SEND\ncontent-length:{}\n\n", usize::MAX);
        pipe.write(&Payload::Plain(head.into_bytes())).unwrap();
        assert!(matches!(read_frame(&pipe), Err(JreError::Protocol(_))));
        cluster.shutdown();
    }

    #[test]
    fn stomp_producer_to_openwire_consumer_carries_taint() {
        // Cross-protocol interop on the same broker destinations.
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new(PRODUCER_CLASS, "createTextMessage"))
            .add_sink(MethodDesc::new(crate::CONSUMER_CLASS, "receive"));
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("amq", 3)
            .spec(spec)
            .build()
            .unwrap();
        let broker =
            crate::Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
        let stomp_port = broker
            .start_stomp_listener(NodeAddr::new([10, 0, 0, 1], 61613))
            .unwrap();
        let consumer =
            crate::Consumer::subscribe(cluster.vm(2), broker.addr(), "/queue/events").unwrap();
        let producer = StompClient::connect(cluster.vm(1), stomp_port).unwrap();
        producer.send("/queue/events", "stomp says hi").unwrap();
        let message = consumer.receive().unwrap();
        assert_eq!(message.body.data(), b"stomp says hi");
        let tags = cluster
            .vm(2)
            .store()
            .tag_values(message.taint(cluster.vm(2)));
        assert_eq!(tags, vec!["stomp:/queue/events".to_string()]);
        producer.close();
        consumer.close();
        broker.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn stomp_subscriber_receives_messages() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("amq", 3)
            .build()
            .unwrap();
        let broker =
            crate::Broker::start(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 61616)).unwrap();
        let stomp_port = broker
            .start_stomp_listener(NodeAddr::new([10, 0, 0, 1], 61613))
            .unwrap();
        let subscriber = StompClient::connect(cluster.vm(2), stomp_port).unwrap();
        subscriber.subscribe("/queue/q").unwrap();
        let producer = crate::Producer::connect(cluster.vm(1), broker.addr()).unwrap();
        producer
            .send(
                "/queue/q",
                TaintedBytes::from_plain(b"openwire to stomp".to_vec()),
            )
            .unwrap();
        let frame = subscriber.receive().unwrap();
        assert_eq!(frame.body.data(), b"openwire to stomp");
        assert_eq!(
            frame.headers.get("destination").map(String::as_str),
            Some("/queue/q")
        );
        subscriber.close();
        producer.close();
        broker.shutdown();
        cluster.shutdown();
    }
}
