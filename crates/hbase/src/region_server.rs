//! RegionServers: table storage and the Get/Put protobuf RPC service.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dista_jre::{FileInputStream, JreError, ServerSocketChannel, SocketChannel, Vm};
use dista_simnet::{NodeAddr, TcpServer};
use dista_taint::{Tainted, TaintedBytes};
use dista_zookeeper::ZkClient;
use parking_lot::Mutex;

use crate::pbrpc::{read_message, write_message, PbMessage};

/// RPC method ids (field 1 of every request).
pub(crate) const METHOD_GET: u64 = 1;
pub(crate) const METHOD_PUT: u64 = 2;
pub(crate) const METHOD_SCAN: u64 = 3;

type Store = Arc<Mutex<HashMap<Vec<u8>, BTreeMap<Vec<u8>, TaintedBytes>>>>;

/// A running RegionServer.
pub struct RegionServer {
    server: TcpServer,
    hostname: Tainted<String>,
}

impl std::fmt::Debug for RegionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionServer")
            .field("addr", &self.addr())
            .field("hostname", self.hostname.value())
            .finish()
    }
}

impl RegionServer {
    /// Starts the RS at `addr`, reading `conf/hbase-site.xml` for its
    /// hostname (the SIM source point; falls back to the VM name).
    ///
    /// # Errors
    ///
    /// Transport errors (address in use).
    pub fn start(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        let hostname = match FileInputStream::open(vm, "conf/hbase-site.xml") {
            Ok(file) => {
                let contents = file.read_to_string()?;
                let taint = contents.taint();
                let host = contents
                    .value()
                    .lines()
                    .find_map(|l| l.strip_prefix("hostname="))
                    .unwrap_or("rs")
                    .to_string();
                Tainted::new(host, taint)
            }
            Err(_) => Tainted::untainted(vm.name().to_string()),
        };
        let store: Store = Arc::new(Mutex::new(HashMap::new()));
        let server = ServerSocketChannel::serve(vm, addr, "hbase-rs", move |channel| {
            serve(&channel, &store)
        })?;
        Ok(RegionServer { server, hostname })
    }

    /// The RS's RPC address.
    pub fn addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// The configured hostname (file-tainted in SIM runs).
    pub fn hostname(&self) -> &Tainted<String> {
        &self.hostname
    }

    /// Registers with the cluster by writing `/hbase/rs/<index>` into
    /// ZooKeeper. The node's *value* is this RS's RPC address, tainted
    /// with the hostname's config-file taint — the taint enters the
    /// second system here.
    ///
    /// # Errors
    ///
    /// ZooKeeper errors.
    pub fn register_in_zk(&self, zk: &ZkClient, index: usize) -> Result<(), JreError> {
        let value =
            TaintedBytes::uniform(self.addr().to_string().into_bytes(), self.hostname.taint());
        zk.create(&format!("/hbase/rs/{index}"), value)
            .map_err(|_| JreError::Protocol("zookeeper registration failed"))?;
        Ok(())
    }

    /// Stops the RPC service (see [`TcpServer::stop`]).
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

fn serve(channel: &SocketChannel, store: &Store) {
    loop {
        let request = match read_message(channel, channel.vm()) {
            Ok(Some(r)) => r,
            Ok(None) | Err(_) => return,
        };
        let method = request.varint(1).unwrap_or(0);
        let table = request.bytes(2).cloned().unwrap_or_default();
        let row = request.bytes(3).cloned().unwrap_or_default();
        let mut response = PbMessage::new();
        match method {
            METHOD_PUT => {
                let value = request.bytes(4).cloned().unwrap_or_default();
                store
                    .lock()
                    .entry(table.data().to_vec())
                    .or_default()
                    .insert(row.data().to_vec(), value);
                response.push_varint(1, 1);
            }
            METHOD_SCAN => {
                // Range scan: [startRow, stopRow); cells are nested pb
                // messages in repeated field 5.
                let start = request
                    .bytes(3)
                    .map(|b| b.data().to_vec())
                    .unwrap_or_default();
                let stop = request.bytes(4).map(|b| b.data().to_vec());
                response.push_varint(1, 1);
                let store = store.lock();
                if let Some(region) = store.get(table.data()) {
                    for (row_key, value) in region.range(start..) {
                        if let Some(stop) = &stop {
                            if !stop.is_empty() && row_key >= stop {
                                break;
                            }
                        }
                        let mut cell = PbMessage::new();
                        cell.push_bytes(1, TaintedBytes::from_plain(row_key.clone()));
                        cell.push_bytes(2, value.clone());
                        response.push_bytes(5, cell.encode());
                    }
                }
            }
            METHOD_GET => {
                let found = store
                    .lock()
                    .get(table.data())
                    .and_then(|region| region.get(row.data()))
                    .cloned();
                match found {
                    Some(value) => {
                        response.push_varint(1, 1);
                        // Echo the (possibly tainted) table name — real
                        // responses identify their region, and this is
                        // the hop that carries the TableName taint back.
                        response.push_bytes(2, table);
                        response.push_bytes(3, row);
                        response.push_bytes(4, value);
                    }
                    None => {
                        response.push_varint(1, 0);
                        response.push_bytes(2, table);
                    }
                }
            }
            _ => {
                response.push_varint(1, 0);
            }
        }
        if write_message(channel, &response).is_err() {
            return;
        }
    }
}

/// Writes an RS config file onto `vm`'s disk so SIM runs taint the
/// hostname.
pub fn seed_config(vm: &Vm, hostname: &str) {
    vm.fs().write(
        "conf/hbase-site.xml",
        format!("hostname={hostname}").into_bytes(),
    );
}
