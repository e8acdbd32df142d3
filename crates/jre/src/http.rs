//! A minimal HTTP/1.1 client and server over the instrumented socket
//! streams (the "JRE HTTP" micro-benchmark case and the transport behind
//! the Netty HTTP codec).
//!
//! Headers and the request/status lines are protocol scaffolding and stay
//! untainted; the *body* is a [`Payload`] whose byte taints flow through
//! the boundary like any other stream data.

use std::collections::HashMap;

use dista_simnet::NodeAddr;
use dista_taint::Payload;

use crate::error::JreError;
use crate::socket::{ServerSocket, Socket};
use crate::stream::{InputStream, OutputStream};
use crate::vm::Vm;

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Request path, e.g. `/index.html`.
    pub path: String,
    /// Header map (lower-cased names).
    pub headers: HashMap<String, String>,
    /// The (possibly tainted) body.
    pub body: Payload,
}

impl HttpRequest {
    /// A GET request.
    pub fn get(path: impl Into<String>) -> Self {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            headers: HashMap::new(),
            body: Payload::default(),
        }
    }

    /// A POST request with a body.
    pub fn post(path: impl Into<String>, body: Payload) -> Self {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            headers: HashMap::new(),
            body,
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Header map (lower-cased names).
    pub headers: HashMap<String, String>,
    /// The (possibly tainted) body.
    pub body: Payload,
}

impl HttpResponse {
    /// A `200 OK` response with a body.
    pub fn ok(body: Payload) -> Self {
        HttpResponse {
            status: 200,
            headers: HashMap::new(),
            body,
        }
    }

    /// A `404 Not Found` response.
    pub fn not_found() -> Self {
        HttpResponse {
            status: 404,
            headers: HashMap::new(),
            body: Payload::Plain(b"not found".to_vec()),
        }
    }
}

fn write_head(out: &impl OutputStream, head: String) -> Result<(), JreError> {
    out.write(&Payload::Plain(head.into_bytes()))
}

fn read_line(input: &impl InputStream) -> Result<String, JreError> {
    let mut line = Vec::new();
    loop {
        let chunk = input.read_exact(1)?;
        let b = chunk.data()[0];
        if b == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line).map_err(|_| JreError::Protocol("non-utf8 header"));
        }
        line.push(b);
        if line.len() > 16 * 1024 {
            return Err(JreError::Protocol("header line too long"));
        }
    }
}

fn read_headers(input: &impl InputStream) -> Result<HashMap<String, String>, JreError> {
    let mut headers = HashMap::new();
    loop {
        let line = read_line(input)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(JreError::Protocol("malformed header"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

/// The announced body length: a `u32`, like every other length the
/// workspace's protocols carry. The body is received by chunk.
fn body_len(headers: &HashMap<String, String>) -> Result<usize, JreError> {
    match headers.get("content-length") {
        Some(v) => v
            .parse::<u32>()
            .map(|len| len as usize)
            .map_err(|_| JreError::Protocol("bad content-length")),
        None => Ok(0),
    }
}

/// Sends a request on an open socket and reads the response.
fn exchange(socket: &Socket, request: &HttpRequest) -> Result<HttpResponse, JreError> {
    let out = socket.output_stream();
    let head = format!(
        "{} {} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        request.method,
        request.path,
        request.body.len()
    );
    write_head(&out, head)?;
    if !request.body.is_empty() {
        out.write(&request.body)?;
    }

    let input = socket.input_stream();
    let status_line = read_line(&input)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(JreError::Protocol("malformed status line"))?;
    let headers = read_headers(&input)?;
    let len = body_len(&headers)?;
    let body = if len > 0 {
        input.read_exact(len)?
    } else {
        Payload::default()
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// A blocking HTTP client.
#[derive(Debug, Clone)]
pub struct HttpClient {
    vm: Vm,
}

impl HttpClient {
    /// Creates a client for `vm`.
    pub fn new(vm: &Vm) -> Self {
        HttpClient { vm: vm.clone() }
    }

    /// Performs one request over a fresh connection.
    ///
    /// # Errors
    ///
    /// Transport, Taint Map or protocol errors.
    pub fn request(&self, addr: NodeAddr, request: &HttpRequest) -> Result<HttpResponse, JreError> {
        let socket = Socket::connect(&self.vm, addr)?;
        let response = exchange(&socket, request);
        socket.close();
        response
    }

    /// Convenience GET.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::request`].
    pub fn get(&self, addr: NodeAddr, path: &str) -> Result<HttpResponse, JreError> {
        self.request(addr, &HttpRequest::get(path))
    }

    /// Convenience POST.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::request`].
    pub fn post(
        &self,
        addr: NodeAddr,
        path: &str,
        body: Payload,
    ) -> Result<HttpResponse, JreError> {
        self.request(addr, &HttpRequest::post(path, body))
    }
}

/// A blocking HTTP server. Each accepted connection serves one request
/// (`Connection: close` semantics — all the workloads need).
#[derive(Debug)]
pub struct HttpServer {
    server: ServerSocket,
}

impl HttpServer {
    /// Binds at `addr`.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn bind(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        Ok(HttpServer {
            server: ServerSocket::bind(vm, addr)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// Accepts one connection, parses the request, runs the handler and
    /// writes its response.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn serve_once(
        &self,
        handler: impl FnOnce(HttpRequest) -> HttpResponse,
    ) -> Result<(), JreError> {
        let socket = self.server.accept()?;
        let input = socket.input_stream();
        let request_line = read_line(&input)?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or(JreError::Protocol("empty request line"))?
            .to_string();
        let path = parts
            .next()
            .ok_or(JreError::Protocol("missing path"))?
            .to_string();
        let headers = read_headers(&input)?;
        let len = body_len(&headers)?;
        let body = if len > 0 {
            input.read_exact(len)?
        } else {
            Payload::default()
        };
        let response = handler(HttpRequest {
            method,
            path,
            headers,
            body,
        });
        let out = socket.output_stream();
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\n\r\n",
            response.status,
            if response.status == 200 { "OK" } else { "ERR" },
            response.body.len()
        );
        write_head(&out, head)?;
        if !response.body.is_empty() {
            out.write(&response.body)?;
        }
        socket.close();
        Ok(())
    }

    /// Stops listening.
    pub fn close(&self) {
        self.server.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Mode;
    use dista_simnet::SimNet;
    use dista_taint::{TagValue, TaintedBytes};
    use dista_taintmap::TaintMapEndpoint;

    fn cluster() -> (TaintMapEndpoint, Vm, Vm) {
        let net = SimNet::new();
        let tm = TaintMapEndpoint::builder().connect(&net).unwrap();
        let mk = |name: &str, ip: [u8; 4]| {
            Vm::builder(name, &net)
                .mode(Mode::Dista)
                .ip(ip)
                .taint_map(tm.topology())
                .build()
                .unwrap()
        };
        let client = mk("c", [10, 0, 0, 1]);
        let server = mk("s", [10, 0, 0, 2]);
        (tm, client, server)
    }

    #[test]
    fn get_tainted_page() {
        let (tm, client_vm, server_vm) = cluster();
        let server = HttpServer::bind(&server_vm, NodeAddr::new([10, 0, 0, 2], 8080)).unwrap();
        let t = server_vm.store().mint_source_taint(TagValue::str("page"));
        let page = Payload::Tainted(TaintedBytes::uniform(
            b"<html><body>secret dashboard</body></html>",
            t,
        ));
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            server.serve_once(move |req| {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/index.html");
                HttpResponse::ok(page)
            })
        });
        let response = HttpClient::new(&client_vm)
            .get(addr, "/index.html")
            .unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body.data().starts_with(b"<html>"));
        assert_eq!(
            client_vm
                .store()
                .tag_values(response.body.taint_union(client_vm.store())),
            vec!["page".to_string()]
        );
        tm.shutdown();
    }

    #[test]
    fn post_tainted_body_reaches_server() {
        let (tm, client_vm, server_vm) = cluster();
        let server = HttpServer::bind(&server_vm, NodeAddr::new([10, 0, 0, 2], 8081)).unwrap();
        let addr = server.local_addr();
        let check_vm = server_vm.clone();
        let handle = std::thread::spawn(move || {
            server.serve_once(move |req| {
                let taint = req.body.taint_union(check_vm.store());
                assert_eq!(check_vm.store().tag_values(taint), vec!["form"]);
                HttpResponse::ok(Payload::Plain(b"ack".to_vec()))
            })
        });
        let t = client_vm.store().mint_source_taint(TagValue::str("form"));
        let response = HttpClient::new(&client_vm)
            .post(
                addr,
                "/submit",
                Payload::Tainted(TaintedBytes::uniform(b"password=hunter2", t)),
            )
            .unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body.data(), b"ack");
        tm.shutdown();
    }

    #[test]
    fn content_length_past_u32_is_a_protocol_error() {
        let headers = |v: String| HashMap::from([("content-length".to_string(), v)]);
        assert_eq!(
            body_len(&headers(u32::MAX.to_string())),
            Ok(u32::MAX as usize)
        );
        assert!(matches!(
            body_len(&headers(usize::MAX.to_string())),
            Err(JreError::Protocol(_))
        ));
        assert_eq!(body_len(&HashMap::new()), Ok(0));
    }

    #[test]
    fn not_found_response() {
        let (tm, client_vm, server_vm) = cluster();
        let server = HttpServer::bind(&server_vm, NodeAddr::new([10, 0, 0, 2], 8082)).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.serve_once(|_| HttpResponse::not_found()));
        let response = HttpClient::new(&client_vm).get(addr, "/missing").unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(response.status, 404);
        tm.shutdown();
    }
}
