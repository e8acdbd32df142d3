//! The ResourceManager: accepts applications, schedules tasks onto
//! registered NodeManagers, aggregates results, serves reports.
//!
//! Two job types: the Pi estimator (map-only) and WordCount (map +
//! NM↔NM shuffle + reduce).

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

use dista_jre::{JreError, Logger, ObjValue, Vm};
use dista_simnet::NodeAddr;
use dista_taint::{Taint, TaintedBytes};
use parking_lot::Mutex;

use crate::pi::{reduce, MapResult};
use crate::rpc::{RpcClient, RpcServer};
use crate::wordcount::{decode_cells, encode_cells, WordCount};

#[derive(Debug, Clone)]
struct AppState {
    app_id: i64,
    /// The application id's taint as received from the client — it must
    /// ride through the whole pipeline and back into the report.
    id_taint: Taint,
    finished: bool,
    /// Pi job accumulator.
    pi_results: Vec<MapResult>,
    /// WordCount result (top cells).
    word_counts: Vec<WordCount>,
}

struct NodeManagerLink {
    client: RpcClient,
    addr: NodeAddr,
}

struct RmInner {
    vm: Vm,
    log: Logger,
    node_managers: Mutex<Vec<Arc<NodeManagerLink>>>,
    apps: Mutex<HashMap<i64, AppState>>,
}

/// A running ResourceManager.
pub struct ResourceManager {
    inner: Arc<RmInner>,
    server: RpcServer,
}

impl std::fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceManager")
            .field("vm", &self.inner.vm.name())
            .finish()
    }
}

impl ResourceManager {
    /// Starts the RM's RPC service at `addr` on `vm`.
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        let inner = Arc::new(RmInner {
            vm: vm.clone(),
            log: Logger::new(vm),
            node_managers: Mutex::new(Vec::new()),
            apps: Mutex::new(HashMap::new()),
        });
        let handler_inner = inner.clone();
        let server = RpcServer::start(vm, addr, move |request| handle(&handler_inner, request))?;
        Ok(ResourceManager { inner, server })
    }

    /// The RM's RPC address.
    pub fn addr(&self) -> NodeAddr {
        self.server.addr()
    }

    /// Wires up a NodeManager the RM can schedule onto. (Registration
    /// over RPC — `RegisterNode` — carries the SIM taint; this call adds
    /// the RM-side scheduling connection.)
    pub(crate) fn attach_nm(&self, client: RpcClient, addr: NodeAddr) {
        self.inner
            .node_managers
            .lock()
            .push(Arc::new(NodeManagerLink { client, addr }));
    }

    /// Stops the RPC service.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn int_field(obj: &ObjValue, name: &str) -> Option<(i64, Taint)> {
    match obj.field(name) {
        Some(ObjValue::Int(v, t)) => Some((*v, *t)),
        _ => None,
    }
}

fn handle(rm: &Arc<RmInner>, request: ObjValue) -> ObjValue {
    match request.class_name() {
        Some("RegisterNode") => {
            // SIM flow: the host string carries the NM's config-file
            // taint; LOG.info is the registered sink.
            if let Some(ObjValue::Str(host, taint)) = request.field("host") {
                rm.log
                    .info_taint(&format!("registered node manager {host}"), *taint);
            }
            ObjValue::Record("RegisterAck".into(), vec![])
        }
        Some("SubmitApplication") => {
            let Some((app_id, id_taint)) = int_field(&request, "appId") else {
                return error_response("missing appId");
            };
            let job_type = request
                .field("jobType")
                .and_then(ObjValue::as_str)
                .unwrap_or("pi")
                .to_string();
            rm.apps.lock().insert(
                app_id,
                AppState {
                    app_id,
                    id_taint,
                    finished: false,
                    pi_results: Vec::new(),
                    word_counts: Vec::new(),
                },
            );
            // Schedule asynchronously, like Yarn: the submit RPC returns
            // immediately and the client polls for the report.
            let rm = rm.clone();
            match job_type.as_str() {
                "wordcount" => {
                    let input = match request.field("input") {
                        Some(ObjValue::Bytes(b)) => b.clone(),
                        _ => TaintedBytes::new(),
                    };
                    let maps = int_field(&request, "maps").map_or(1, |(v, _)| v).max(1) as u64;
                    let reducers =
                        int_field(&request, "reducers").map_or(1, |(v, _)| v).max(1) as u64;
                    std::thread::spawn(move || {
                        schedule_wordcount(&rm, app_id, id_taint, input, maps, reducers)
                    });
                }
                _ => {
                    let maps = int_field(&request, "maps").map_or(1, |(v, _)| v).max(1) as u64;
                    let samples = int_field(&request, "samples")
                        .map_or(1000, |(v, _)| v)
                        .max(1) as u64;
                    std::thread::spawn(move || schedule_pi(&rm, app_id, id_taint, maps, samples));
                }
            }
            ObjValue::Record("SubmitAck".into(), vec![])
        }
        Some("GetApplicationReport") => {
            let Some((app_id, _)) = int_field(&request, "appId") else {
                return error_response("missing appId");
            };
            let apps = rm.apps.lock();
            let Some(app) = apps.get(&app_id) else {
                return error_response("unknown application");
            };
            let state = if app.finished { "FINISHED" } else { "RUNNING" };
            let pi = if app.finished {
                reduce(&app.pi_results)
            } else {
                0.0
            };
            ObjValue::Record(
                "ApplicationReport".into(),
                vec![
                    ("appId".into(), ObjValue::Int(app.app_id, app.id_taint)),
                    ("state".into(), ObjValue::str_plain(state)),
                    ("pi".into(), ObjValue::Str(format!("{pi:.6}"), app.id_taint)),
                    ("wordCounts".into(), encode_cells(&app.word_counts)),
                ],
            )
        }
        _ => error_response("unknown rpc"),
    }
}

fn error_response(message: &str) -> ObjValue {
    ObjValue::Record(
        "Error".into(),
        vec![("message".into(), ObjValue::str_plain(message))],
    )
}

fn schedule_pi(rm: &Arc<RmInner>, app_id: i64, id_taint: Taint, maps: u64, samples: u64) {
    let nms = rm.node_managers.lock().clone();
    if nms.is_empty() {
        return;
    }
    for m in 0..maps {
        let nm = &nms[(m as usize) % nms.len()];
        let request = ObjValue::Record(
            "LaunchContainer".into(),
            vec![
                ("appId".into(), ObjValue::Int(app_id, id_taint)),
                ("offset".into(), ObjValue::int_plain((m * samples) as i64)),
                ("samples".into(), ObjValue::int_plain(samples as i64)),
            ],
        );
        let Ok(response) = nm.client.call(&request) else {
            return;
        };
        let inside = int_field(&response, "inside").map_or(0, |(v, _)| v) as u64;
        let outside = int_field(&response, "outside").map_or(0, |(v, _)| v) as u64;
        // The container echoed the app id back; keep its taint alive on
        // the RM (this is the NM→RM hop of the SDT flow).
        let echoed_taint = int_field(&response, "appId").map_or(Taint::EMPTY, |(_, t)| t);
        let mut apps = rm.apps.lock();
        if let Some(app) = apps.get_mut(&app_id) {
            app.pi_results.push(MapResult { inside, outside });
            app.id_taint = rm.vm.store().union(app.id_taint, echoed_taint);
            if app.pi_results.len() as u64 == maps {
                app.finished = true;
            }
        }
    }
}

/// Splits input at whitespace boundaries into roughly equal chunks so no
/// word straddles two map tasks.
fn split_input(input: &TaintedBytes, maps: u64) -> Vec<TaintedBytes> {
    let data = input.data();
    let target = data.len().div_ceil(maps as usize).max(1);
    let mut splits = Vec::new();
    let mut start = 0;
    while start < data.len() {
        let mut end = (start + target).min(data.len());
        while end < data.len() && data[end].is_ascii_alphanumeric() {
            end += 1;
        }
        splits.push(input.slice(start, end));
        start = end;
    }
    splits
}

fn schedule_wordcount(
    rm: &Arc<RmInner>,
    app_id: i64,
    id_taint: Taint,
    input: TaintedBytes,
    maps: u64,
    reducers: u64,
) {
    let nms = rm.node_managers.lock().clone();
    if nms.is_empty() {
        return;
    }
    // Map phase: one split per task, round-robin over NodeManagers.
    let splits = split_input(&input, maps);
    let mut mappers: Vec<(i64, NodeAddr)> = Vec::new();
    for (map_id, split) in splits.into_iter().enumerate() {
        let nm = &nms[map_id % nms.len()];
        let request = ObjValue::Record(
            "LaunchWordCountMap".into(),
            vec![
                ("appId".into(), ObjValue::Int(app_id, id_taint)),
                ("mapId".into(), ObjValue::int_plain(map_id as i64)),
                ("reducers".into(), ObjValue::int_plain(reducers as i64)),
                ("split".into(), ObjValue::Bytes(split)),
            ],
        );
        let Ok(response) = nm.client.call(&request) else {
            return;
        };
        if response.class_name() != Some("MapDone") {
            return;
        }
        mappers.push((map_id as i64, nm.addr));
    }
    // Reduce phase: each reducer fetches its partition from every mapper
    // NM (the NM↔NM shuffle) and returns merged cells.
    let mapper_list = ObjValue::List(
        mappers
            .iter()
            .map(|(map_id, addr)| {
                ObjValue::Record(
                    "Mapper".into(),
                    vec![
                        ("mapId".into(), ObjValue::int_plain(*map_id)),
                        ("addr".into(), ObjValue::str_plain(addr.to_string())),
                    ],
                )
            })
            .collect(),
    );
    let mut all_cells: Vec<WordCount> = Vec::new();
    for partition in 0..reducers {
        let nm = &nms[(partition as usize) % nms.len()];
        let request = ObjValue::Record(
            "LaunchWordCountReduce".into(),
            vec![
                ("appId".into(), ObjValue::Int(app_id, id_taint)),
                ("partition".into(), ObjValue::int_plain(partition as i64)),
                ("mappers".into(), mapper_list.clone()),
            ],
        );
        let Ok(response) = nm.client.call(&request) else {
            return;
        };
        let Some(cells_obj) = response.field("cells") else {
            return;
        };
        let Ok(cells) = decode_cells(cells_obj) else {
            return;
        };
        all_cells.extend(cells);
    }
    all_cells.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then(a.word.value().cmp(b.word.value()))
    });
    all_cells.truncate(50);
    let mut apps = rm.apps.lock();
    if let Some(app) = apps.get_mut(&app_id) {
        app.word_counts = all_cells;
        app.finished = true;
    }
}

/// Parses a `NodeAddr` rendered with `Display` (shuffle mapper lists).
pub(crate) fn parse_addr(text: &str) -> Result<NodeAddr, JreError> {
    NodeAddr::from_str(text).map_err(|_| JreError::Protocol("malformed node address"))
}
