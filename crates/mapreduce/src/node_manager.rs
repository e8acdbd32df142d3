//! The NodeManager: registers with the RM, launches task containers —
//! Pi map tasks, WordCount map tasks (whose partitioned output it serves
//! to reducers), and WordCount reduce tasks (which fetch partitions from
//! other NodeManagers: the shuffle).

use std::collections::HashMap;
use std::sync::Arc;

use dista_jre::{FileInputStream, JreError, ObjValue, Vm};
use dista_simnet::NodeAddr;
use dista_taint::{Taint, Tainted, TaintedBytes};
use parking_lot::Mutex;

use crate::pi::run_map_task;
use crate::rpc::{RpcClient, RpcServer};
use crate::wordcount::{decode_cells, encode_cells, run_wordcount_map, run_wordcount_reduce};

/// Map-output store: `(app, map, partition)` → encoded cells.
type MapOutputs = Arc<Mutex<HashMap<(i64, i64, i64), ObjValue>>>;

/// A running NodeManager.
pub struct NodeManager {
    vm: Vm,
    server: RpcServer,
    hostname: Tainted<String>,
}

impl std::fmt::Debug for NodeManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeManager")
            .field("vm", &self.vm.name())
            .field("hostname", self.hostname.value())
            .finish()
    }
}

impl NodeManager {
    /// Starts the NM's container-launch service at `addr`.
    ///
    /// Boot reads `etc/hadoop/yarn-site.xml` from the node's disk — the
    /// SIM source point. If the file is missing, a default hostname is
    /// used (untainted).
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        let hostname = match FileInputStream::open(vm, "etc/hadoop/yarn-site.xml") {
            Ok(file) => {
                let contents = file.read_to_string()?;
                let taint = contents.taint();
                let host = contents
                    .value()
                    .lines()
                    .find_map(|l| l.strip_prefix("hostname="))
                    .unwrap_or("nm")
                    .to_string();
                Tainted::new(host, taint)
            }
            Err(_) => Tainted::untainted(vm.name().to_string()),
        };
        let handler_vm = vm.clone();
        let outputs: MapOutputs = Arc::new(Mutex::new(HashMap::new()));
        let server = RpcServer::start(vm, addr, move |request| {
            dispatch(&handler_vm, &outputs, &request)
        })?;
        Ok(NodeManager {
            vm: vm.clone(),
            server,
            hostname,
        })
    }

    /// The NM's RPC address.
    pub fn addr(&self) -> NodeAddr {
        self.server.addr()
    }

    /// The configured hostname (file-tainted in SIM runs).
    pub fn hostname(&self) -> &Tainted<String> {
        &self.hostname
    }

    /// Registers this NM with the ResourceManager over RPC; the host
    /// string carries the config file's taint to the RM's `LOG.info`.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn register_with(&self, rm_addr: NodeAddr) -> Result<(), JreError> {
        let client = RpcClient::connect(&self.vm, rm_addr)?;
        client.call(&ObjValue::Record(
            "RegisterNode".into(),
            vec![(
                "host".into(),
                ObjValue::Str(self.hostname.value().clone(), self.hostname.taint()),
            )],
        ))?;
        client.close();
        Ok(())
    }

    /// Stops the container-launch service.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

fn dispatch(vm: &Vm, outputs: &MapOutputs, request: &ObjValue) -> ObjValue {
    match request.class_name() {
        Some("LaunchContainer") => handle_pi_container(vm, request),
        Some("LaunchWordCountMap") => handle_wordcount_map(vm, outputs, request),
        Some("FetchPartition") => handle_fetch_partition(outputs, request),
        Some("LaunchWordCountReduce") => handle_wordcount_reduce(vm, request),
        _ => ObjValue::Record(
            "Error".into(),
            vec![("message".into(), ObjValue::str_plain("unknown rpc"))],
        ),
    }
}

fn app_fields(request: &ObjValue) -> (i64, Taint) {
    match request.field("appId") {
        Some(ObjValue::Int(v, t)) => (*v, *t),
        _ => (0, Taint::EMPTY),
    }
}

/// Runs one Pi map task in a "container" and reports back. The app id
/// (and its taint) is echoed to the RM — the container-side hop of the
/// SDT flow.
fn handle_pi_container(vm: &Vm, request: &ObjValue) -> ObjValue {
    let (app_id, id_taint) = app_fields(request);
    let offset = request
        .field("offset")
        .and_then(ObjValue::as_int)
        .unwrap_or(0)
        .max(0) as u64;
    let samples = request
        .field("samples")
        .and_then(ObjValue::as_int)
        .unwrap_or(0)
        .max(0) as u64;
    let result = run_map_task(offset, samples);
    // Real containers ship task logs and counters back with the result.
    // The log starts from the container's stdout template file when one
    // exists — a per-container file read, i.e. a SIM source point whose
    // taint then crosses NM → RM.
    let mut task_log = match FileInputStream::open(vm, "container/stdout.template") {
        Ok(file) => file
            .read()
            .map(dista_taint::Payload::into_tainted)
            .unwrap_or_default(),
        Err(_) => TaintedBytes::new(),
    };
    task_log.extend_plain(
        format!(
            "container for app {app_id}: offset={offset} samples={samples}\n{}",
            "map progress 100.00% reduce 0.00%\n".repeat(256)
        )
        .as_bytes(),
    );
    ObjValue::Record(
        "ContainerResult".into(),
        vec![
            ("appId".into(), ObjValue::Int(app_id, id_taint)),
            ("inside".into(), ObjValue::int_plain(result.inside as i64)),
            ("outside".into(), ObjValue::int_plain(result.outside as i64)),
            ("taskLog".into(), ObjValue::Bytes(task_log)),
        ],
    )
}

fn handle_wordcount_map(vm: &Vm, outputs: &MapOutputs, request: &ObjValue) -> ObjValue {
    let (app_id, id_taint) = app_fields(request);
    let map_id = request
        .field("mapId")
        .and_then(ObjValue::as_int)
        .unwrap_or(0);
    let reducers = request
        .field("reducers")
        .and_then(ObjValue::as_int)
        .unwrap_or(1)
        .max(1) as u64;
    let split = match request.field("split") {
        Some(ObjValue::Bytes(b)) => b.clone(),
        _ => TaintedBytes::new(),
    };
    let partitions = run_wordcount_map(&split, reducers, vm);
    let mut store = outputs.lock();
    for partition in 0..reducers {
        let cells = partitions
            .get(&partition)
            .map(|cells| encode_cells(cells))
            .unwrap_or(ObjValue::List(Vec::new()));
        store.insert((app_id, map_id, partition as i64), cells);
    }
    ObjValue::Record(
        "MapDone".into(),
        vec![
            ("appId".into(), ObjValue::Int(app_id, id_taint)),
            ("mapId".into(), ObjValue::int_plain(map_id)),
        ],
    )
}

fn handle_fetch_partition(outputs: &MapOutputs, request: &ObjValue) -> ObjValue {
    let (app_id, _) = app_fields(request);
    let map_id = request
        .field("mapId")
        .and_then(ObjValue::as_int)
        .unwrap_or(0);
    let partition = request
        .field("partition")
        .and_then(ObjValue::as_int)
        .unwrap_or(0);
    let cells = outputs
        .lock()
        .get(&(app_id, map_id, partition))
        .cloned()
        .unwrap_or(ObjValue::List(Vec::new()));
    ObjValue::Record("Fragment".into(), vec![("cells".into(), cells)])
}

fn handle_wordcount_reduce(vm: &Vm, request: &ObjValue) -> ObjValue {
    let (app_id, id_taint) = app_fields(request);
    let partition = request
        .field("partition")
        .and_then(ObjValue::as_int)
        .unwrap_or(0);
    let Some(ObjValue::List(mappers)) = request.field("mappers") else {
        return ObjValue::Record(
            "Error".into(),
            vec![("message".into(), ObjValue::str_plain("missing mappers"))],
        );
    };
    // The shuffle: fetch this partition from every mapper NodeManager.
    let mut fragments = Vec::new();
    for mapper in mappers {
        let map_id = mapper
            .field("mapId")
            .and_then(ObjValue::as_int)
            .unwrap_or(0);
        let Some(addr_text) = mapper.field("addr").and_then(ObjValue::as_str) else {
            continue;
        };
        let Ok(addr) = crate::resource_manager::parse_addr(addr_text) else {
            continue;
        };
        let Ok(peer) = RpcClient::connect(vm, addr) else {
            continue;
        };
        let fetch = ObjValue::Record(
            "FetchPartition".into(),
            vec![
                ("appId".into(), ObjValue::Int(app_id, id_taint)),
                ("mapId".into(), ObjValue::int_plain(map_id)),
                ("partition".into(), ObjValue::int_plain(partition)),
            ],
        );
        if let Ok(response) = peer.call(&fetch) {
            if let Some(cells_obj) = response.field("cells") {
                if let Ok(cells) = decode_cells(cells_obj) {
                    fragments.push(cells);
                }
            }
        }
        peer.close();
    }
    let merged = run_wordcount_reduce(fragments, vm);
    ObjValue::Record(
        "ReduceDone".into(),
        vec![
            ("appId".into(), ObjValue::Int(app_id, id_taint)),
            ("partition".into(), ObjValue::int_plain(partition)),
            ("cells".into(), encode_cells(&merged)),
        ],
    )
}
