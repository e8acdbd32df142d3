//! `HttpServerCodec` / `HttpClientCodec` — HTTP messages over Netty
//! frames (the "Netty HTTP 3rd-party HTTP" micro-benchmark case).
//!
//! Requests and responses are encoded into a frame body: a plain-text
//! head (method/status + headers, untainted scaffolding) followed by the
//! body payload with its taints intact.

use std::collections::HashMap;

use dista_jre::{HttpRequest, HttpResponse, JreError};
use dista_taint::{ByteReader, Payload, TaintedBytes};

fn encode_head(head: String, body: &Payload) -> Payload {
    let head_bytes = head.into_bytes();
    let mut out = TaintedBytes::with_capacity(4 + head_bytes.len() + body.len());
    out.extend_plain(&(head_bytes.len() as u32).to_be_bytes());
    out.extend_plain(&head_bytes);
    match body {
        Payload::Plain(d) => out.extend_plain(d),
        Payload::Tainted(t) => out.extend_tainted(t),
    }
    Payload::Tainted(out)
}

/// Splits a frame body into its `u32`-length-prefixed head and the
/// payload behind it.
fn split_head(frame: &Payload) -> Result<(String, Payload), JreError> {
    let mut r = ByteReader::new(frame.data());
    let head_len = r.u32()? as usize;
    let head = std::str::from_utf8(r.bytes(head_len)?)
        .map_err(|_| JreError::Protocol("http head is not utf-8"))?;
    Ok((head.to_string(), frame.slice(r.pos(), frame.len())))
}

fn parse_headers(lines: &mut std::str::Lines<'_>) -> HashMap<String, String> {
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    headers
}

/// Encodes a request into a Netty frame body.
pub fn encode_http_request(request: &HttpRequest) -> Payload {
    let mut head = format!("{} {} HTTP/1.1\n", request.method, request.path);
    for (k, v) in &request.headers {
        head.push_str(&format!("{k}: {v}\n"));
    }
    encode_head(head, &request.body)
}

/// Decodes a request from a Netty frame body.
///
/// # Errors
///
/// [`JreError::Protocol`] on malformed frames.
pub fn decode_http_request(frame: &Payload) -> Result<HttpRequest, JreError> {
    let (head, body) = split_head(frame)?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(JreError::Protocol("empty http head"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(JreError::Protocol("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(JreError::Protocol("missing path"))?
        .to_string();
    Ok(HttpRequest {
        method,
        path,
        headers: parse_headers(&mut lines),
        body,
    })
}

/// Encodes a response into a Netty frame body.
pub fn encode_http_response(response: &HttpResponse) -> Payload {
    let mut head = format!("HTTP/1.1 {}\n", response.status);
    for (k, v) in &response.headers {
        head.push_str(&format!("{k}: {v}\n"));
    }
    encode_head(head, &response.body)
}

/// Decodes a response from a Netty frame body.
///
/// # Errors
///
/// [`JreError::Protocol`] on malformed frames.
pub fn decode_http_response(frame: &Payload) -> Result<HttpResponse, JreError> {
    let (head, body) = split_head(frame)?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or(JreError::Protocol("empty http head"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(JreError::Protocol("malformed status"))?;
    Ok(HttpResponse {
        status,
        headers: parse_headers(&mut lines),
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_jre::{Mode, Vm};
    use dista_simnet::SimNet;
    use dista_taint::TagValue;

    fn vm() -> Vm {
        Vm::builder("t", &SimNet::new())
            .mode(Mode::Phosphor)
            .build()
            .unwrap()
    }

    #[test]
    fn request_roundtrip_keeps_body_taint() {
        let vm = vm();
        let t = vm.store().mint_source_taint(TagValue::str("form"));
        let mut req = HttpRequest::post(
            "/submit",
            Payload::Tainted(TaintedBytes::uniform(b"secret", t)),
        );
        req.headers.insert("host".into(), "example".into());
        let frame = encode_http_request(&req);
        let decoded = decode_http_request(&frame).unwrap();
        assert_eq!(decoded.method, "POST");
        assert_eq!(decoded.path, "/submit");
        assert_eq!(
            decoded.headers.get("host").map(String::as_str),
            Some("example")
        );
        assert_eq!(decoded.body.data(), b"secret");
        assert_eq!(
            vm.store().tag_values(decoded.body.taint_union(vm.store())),
            vec!["form"]
        );
    }

    #[test]
    fn response_roundtrip() {
        let vm = vm();
        let t = vm.store().mint_source_taint(TagValue::str("page"));
        let resp = HttpResponse::ok(Payload::Tainted(TaintedBytes::uniform(b"<html>", t)));
        let frame = encode_http_response(&resp);
        let decoded = decode_http_response(&frame).unwrap();
        assert_eq!(decoded.status, 200);
        assert_eq!(decoded.body.data(), b"<html>");
        assert_eq!(
            vm.store().tag_values(decoded.body.taint_union(vm.store())),
            vec!["page"]
        );
    }

    #[test]
    fn malformed_frames_error() {
        assert!(decode_http_request(&Payload::Plain(vec![0, 0])).is_err());
        assert!(decode_http_response(&Payload::Plain(vec![0, 0, 0, 99, b'x'])).is_err());
    }
}
