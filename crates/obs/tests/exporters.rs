//! Exporter contract tests: the JSONL and Chrome-trace outputs must
//! (1) be real JSON — every line / the whole array parses with a
//! strict parser — and (2) keep their field names and key order pinned
//! by golden files, because downstream tooling (Perfetto, jq one-liners
//! in ops runbooks) greps those names verbatim.
//!
//! Regenerate the goldens after an *intentional* schema change with:
//! `UPDATE_GOLDEN=1 cargo test -p dista-obs --test exporters`.

use dista_obs::{
    to_chrome_trace, to_jsonl, CrossingSide, GidSpan, ObsEvent, ObsEventKind, Transport,
};

// ---------------------------------------------------------------------------
// A strict minimal JSON parser — the vendored serde has no serde_json,
// and the whole point is to check the hand-rolled emitter against an
// independent reader. Objects keep key order so tests can pin it.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    fn as_num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected '{}' at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).ok_or("bad codepoint")?);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                ctrl if ctrl < 0x20 => return Err("raw control byte in string".into()),
                _ => {
                    // Re-attach multi-byte UTF-8 sequences whole.
                    let char_start = self.pos - 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[char_start..self.pos])
                            .map_err(|_| "invalid utf-8")?,
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got '{}'", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', got '{}'", other as char)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fixture: one event of every kind, across two nodes, with seq numbers
// deliberately out of order so the exporters' sort is exercised.
// ---------------------------------------------------------------------------

fn fixture_events() -> Vec<ObsEvent> {
    let e = |seq: u64, node: &str, kind: ObsEventKind| ObsEvent {
        seq,
        node: node.into(),
        kind,
    };
    vec![
        e(
            3,
            "beta",
            ObsEventKind::TaintMapLookup {
                gid: 42,
                taint: 9,
                span: 7,
            },
        ),
        e(
            0,
            "alpha",
            ObsEventKind::SourceMinted {
                taint: 1,
                tag: "zk.zxid".into(),
                span: 5,
            },
        ),
        e(
            1,
            "alpha",
            ObsEventKind::TaintMapRegister {
                taint: 1,
                gid: 42,
                span: 5,
            },
        ),
        e(
            2,
            "alpha",
            ObsEventKind::BoundaryEncode {
                transport: Transport::Tcp,
                from: "10.0.0.1:9000".into(),
                to: "10.0.0.2:9000".into(),
                data_bytes: 8,
                wire_bytes: 28,
                spans: vec![GidSpan {
                    gid: 42,
                    start: 0,
                    end: 8,
                }],
                span: 7,
                parent: 5,
            },
        ),
        e(
            4,
            "beta",
            ObsEventKind::BoundaryDecode {
                transport: Transport::Udp,
                from: "10.0.0.1:9000".into(),
                to: "10.0.0.2:9000".into(),
                data_bytes: 8,
                wire_bytes: 28,
                spans: vec![GidSpan {
                    gid: 42,
                    start: 0,
                    end: 8,
                }],
                span: 7,
            },
        ),
        e(
            5,
            "beta",
            ObsEventKind::SinkHit {
                sink: "LOG.info".into(),
                tags: vec!["zk.zxid".into(), "user \"quoted\"".into()],
                gids: vec![42, 7],
            },
        ),
        e(6, "beta", ObsEventKind::TaintMapFailover { shard: 2 }),
        e(
            7,
            "beta",
            ObsEventKind::DegradedLookup { gid: 42, shard: 2 },
        ),
        e(
            8,
            "beta",
            ObsEventKind::PendingResolved { gid: 42, taint: 9 },
        ),
        e(
            9,
            "alpha",
            ObsEventKind::FaultInjected {
                fault: "partition alpha | beta\nhealed".into(),
            },
        ),
        e(10, "alpha", ObsEventKind::ShardCrashed { shard: 0 }),
        e(
            11,
            "alpha",
            ObsEventKind::ShardRestarted {
                shard: 0,
                replayed: 17,
            },
        ),
        e(
            12,
            "alpha",
            ObsEventKind::ShardSplit {
                class: 0,
                target: 2,
                lo_gid: 9,
                epoch: 1,
            },
        ),
        e(13, "alpha", ObsEventKind::SplitHealed { class: 0 }),
        e(
            14,
            "alpha",
            ObsEventKind::WalCompacted {
                shard: 2,
                records: 17,
            },
        ),
        e(
            15,
            "alpha",
            ObsEventKind::CrossingPhases {
                transport: Transport::Tcp,
                side: CrossingSide::Write,
                phases_ns: [120, 3_400, 560, 7_800],
            },
        ),
    ]
}

/// Per-kind payload field names, in emission order — the schema
/// contract downstream tools rely on.
fn expected_fields(event: &str) -> &'static [&'static str] {
    match event {
        "source_minted" => &["taint", "tag", "span"],
        "taintmap_register" => &["taint", "gid", "span"],
        "taintmap_lookup" => &["gid", "taint", "span"],
        "taintmap_failover" => &["shard"],
        "boundary_encode" => &[
            "transport",
            "from",
            "to",
            "data_bytes",
            "wire_bytes",
            "spans",
            "span",
            "parent",
        ],
        "boundary_decode" => &[
            "transport",
            "from",
            "to",
            "data_bytes",
            "wire_bytes",
            "spans",
            "span",
        ],
        "sink_hit" => &["sink", "tags", "gids"],
        "degraded_lookup" => &["gid", "shard"],
        "pending_resolved" => &["gid", "taint"],
        "fault_injected" => &["fault"],
        "shard_crashed" => &["shard"],
        "shard_restarted" => &["shard", "replayed"],
        "shard_split" => &["class", "target", "lo_gid", "epoch"],
        "split_healed" => &["class"],
        "wal_compacted" => &["shard", "records"],
        "crossing_phases" => &["transport", "side", "phases_ns"],
        other => panic!("unknown event kind {other}"),
    }
}

fn check_golden(name: &str, rendered: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    assert_eq!(
        rendered, golden,
        "exporter output drifted from tests/golden/{name}; if the schema \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

#[test]
fn jsonl_round_trips_and_pins_field_names() {
    let out = to_jsonl(&fixture_events());
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 16, "one line per event");

    let mut seen_kinds = Vec::new();
    let mut prev_seq = -1.0f64;
    for line in &lines {
        let obj = Parser::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e}"));
        let event = obj.get("event").expect("event key").as_str().to_string();

        // Envelope first, then the kind payload, in pinned order.
        let mut expected = vec!["seq", "node", "event"];
        expected.extend_from_slice(expected_fields(&event));
        assert_eq!(obj.keys(), expected, "key order for {event}");

        let seq = obj.get("seq").unwrap().as_num();
        assert!(seq > prev_seq, "lines sorted by seq");
        prev_seq = seq;
        seen_kinds.push(event);
    }
    // Every kind appears exactly once in the fixture.
    let mut sorted = seen_kinds.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 16, "fixture covers all event kinds");
}

#[test]
fn jsonl_field_values_survive_the_round_trip() {
    let out = to_jsonl(&fixture_events());
    let encode = out.lines().find(|l| l.contains("boundary_encode")).unwrap();
    let obj = Parser::parse(encode).unwrap();
    assert_eq!(obj.get("node").unwrap().as_str(), "alpha");
    assert_eq!(obj.get("transport").unwrap().as_str(), "tcp");
    assert_eq!(obj.get("wire_bytes").unwrap().as_num(), 28.0);
    assert_eq!(obj.get("parent").unwrap().as_num(), 5.0);
    let spans = obj.get("spans").unwrap().as_arr();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].keys(), vec!["gid", "start", "end"]);
    assert_eq!(spans[0].get("gid").unwrap().as_num(), 42.0);

    // Escaped strings decode back to the original text.
    let sink = out.lines().find(|l| l.contains("sink_hit")).unwrap();
    let obj = Parser::parse(sink).unwrap();
    let tags: Vec<&str> = obj
        .get("tags")
        .unwrap()
        .as_arr()
        .iter()
        .map(|t| t.as_str())
        .collect();
    assert_eq!(tags, vec!["zk.zxid", "user \"quoted\""]);

    let fault = out.lines().find(|l| l.contains("fault_injected")).unwrap();
    let obj = Parser::parse(fault).unwrap();
    assert_eq!(
        obj.get("fault").unwrap().as_str(),
        "partition alpha | beta\nhealed"
    );

    // A crossing's phases are named, in the side's documented order.
    let crossing = out.lines().find(|l| l.contains("crossing_phases")).unwrap();
    let obj = Parser::parse(crossing).unwrap();
    assert_eq!(obj.get("side").unwrap().as_str(), "write");
    let phases = obj.get("phases_ns").unwrap();
    assert_eq!(phases.keys(), CrossingSide::Write.phases());
    assert_eq!(phases.get("register").unwrap().as_num(), 3_400.0);
}

#[test]
fn jsonl_matches_golden() {
    check_golden(
        "events.jsonl",
        &to_jsonl(&fixture_events()),
        include_str!("golden/events.jsonl"),
    );
}

// ---------------------------------------------------------------------------
// Chrome trace
// ---------------------------------------------------------------------------

#[test]
fn chrome_trace_round_trips_and_pins_structure() {
    let out = to_chrome_trace(&fixture_events());
    let root = Parser::parse(&out).expect("chrome trace parses as one JSON array");
    let entries = root.as_arr();

    // Two process_name metadata rows (one per node, first-seen order:
    // the lowest-seq event is on alpha), then one instant per event.
    assert_eq!(entries.len(), 2 + 16);
    for meta in &entries[..2] {
        assert_eq!(meta.get("name").unwrap().as_str(), "process_name");
        assert_eq!(meta.get("ph").unwrap().as_str(), "M");
        assert_eq!(meta.keys(), vec!["name", "ph", "pid", "tid", "args"]);
        assert_eq!(meta.get("args").unwrap().keys(), vec!["name"]);
    }
    assert_eq!(
        entries[0]
            .get("args")
            .unwrap()
            .get("name")
            .unwrap()
            .as_str(),
        "alpha"
    );
    assert_eq!(
        entries[1]
            .get("args")
            .unwrap()
            .get("name")
            .unwrap()
            .as_str(),
        "beta"
    );

    let mut prev_ts = -1.0f64;
    for inst in &entries[2..] {
        assert_eq!(
            inst.keys(),
            vec!["name", "ph", "s", "ts", "pid", "tid", "args"],
            "instant-event envelope"
        );
        assert_eq!(inst.get("ph").unwrap().as_str(), "i");
        assert_eq!(inst.get("s").unwrap().as_str(), "p");
        let ts = inst.get("ts").unwrap().as_num();
        assert!(ts > prev_ts, "instants sorted by ts");
        prev_ts = ts;
        let event = inst.get("name").unwrap().as_str().to_string();
        assert_eq!(
            inst.get("args").unwrap().keys(),
            expected_fields(&event),
            "args field names for {event}"
        );
        let pid = inst.get("pid").unwrap().as_num();
        assert!(pid == 0.0 || pid == 1.0, "pid maps to a declared process");
    }
}

#[test]
fn chrome_trace_matches_golden() {
    check_golden(
        "chrome_trace.json",
        &to_chrome_trace(&fixture_events()),
        include_str!("golden/chrome_trace.json"),
    );
}
