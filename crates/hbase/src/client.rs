//! The HBase client: table handle resolved through ZooKeeper, Get/Put
//! over protobuf RPC.

use std::str::FromStr;

use dista_jre::{JreError, Logger, SocketChannel, Vm};
use dista_simnet::NodeAddr;
use dista_taint::{TagValue, Taint, Tainted, TaintedBytes};
use dista_zookeeper::ZkClient;

use crate::pbrpc::{read_message, write_message, PbMessage};
use crate::region_server::{METHOD_GET, METHOD_PUT, METHOD_SCAN};
use crate::HTABLE_CLASS;

/// One cell of a result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyValue {
    /// Row key.
    pub row: Vec<u8>,
    /// Cell value with per-byte taints.
    pub value: TaintedBytes,
}

/// The `Result` of a get — the SDT sink variable.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Whether the row existed.
    pub found: bool,
    /// The cells (empty when not found).
    pub cells: Vec<KeyValue>,
    /// Union of every taint in the result, as checked at the sink.
    pub taint: Taint,
}

/// A client-side table handle.
#[derive(Debug)]
pub struct HTable {
    vm: Vm,
    log: Logger,
    table_name: Tainted<String>,
    channel: SocketChannel,
}

impl HTable {
    /// Opens a table: taints the `TableName` (the SDT source point),
    /// resolves the owning RegionServer **through ZooKeeper** (the
    /// cross-system hop, logged via `LOG.info`), then connects to it.
    ///
    /// # Errors
    ///
    /// ZooKeeper, transport or protocol errors.
    pub fn open(vm: &Vm, zk_addr: NodeAddr, table: &str) -> Result<Self, JreError> {
        // SDT source: "we set a TableName variable as the source".
        let name_taint = vm.source_point(
            HTABLE_CLASS,
            "tableName",
            TagValue::str(format!("table:{table}")),
        );
        let table_name = Tainted::new(table.to_string(), name_taint);

        let zk = ZkClient::connect(vm, zk_addr)
            .map_err(|_| JreError::Protocol("zookeeper unreachable"))?;
        let route = zk
            .get(&format!("/hbase/table/{table}"))
            .map_err(|_| JreError::Protocol("table not assigned"))?;
        zk.close();
        let log = Logger::new(vm);
        // SIM visibility: route discovery is logged; the route bytes may
        // carry the RS's config taint (via master via ZooKeeper).
        log.info_payload("located region server", &route);

        let rs_addr = NodeAddr::from_str(
            std::str::from_utf8(route.data()).map_err(|_| JreError::Protocol("malformed route"))?,
        )
        .map_err(|_| JreError::Protocol("malformed route"))?;
        Ok(HTable {
            vm: vm.clone(),
            log,
            table_name,
            channel: SocketChannel::connect(vm, rs_addr)?,
        })
    }

    /// The (tainted) table name.
    pub fn table_name(&self) -> &Tainted<String> {
        &self.table_name
    }

    /// Stores a cell.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn put(&self, row: &[u8], value: TaintedBytes) -> Result<(), JreError> {
        let mut request = PbMessage::new();
        request
            .push_varint(1, METHOD_PUT)
            .push_str(2, self.table_name.value(), self.table_name.taint())
            .push_bytes(3, TaintedBytes::from_plain(row.to_vec()))
            .push_bytes(4, value);
        write_message(&self.channel, &request)?;
        let response = read_message(&self.channel, &self.vm)?.ok_or(JreError::Eof)?;
        if response.varint(1) != Some(1) {
            return Err(JreError::Protocol("put rejected"));
        }
        Ok(())
    }

    /// Fetches a row — `getResult` is the SDT sink point: the returned
    /// `Result`'s taint is checked before it is handed to the caller.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn get(&self, row: &[u8]) -> Result<ResultRow, JreError> {
        let mut request = PbMessage::new();
        request
            .push_varint(1, METHOD_GET)
            .push_str(2, self.table_name.value(), self.table_name.taint())
            .push_bytes(3, TaintedBytes::from_plain(row.to_vec()));
        write_message(&self.channel, &request)?;
        let response = read_message(&self.channel, &self.vm)?.ok_or(JreError::Eof)?;

        let found = response.varint(1) == Some(1);
        let store = self.vm.store();
        let mut taint = response
            .bytes(2)
            .map_or(Taint::EMPTY, |t| t.taint_union(store));
        let mut cells = Vec::new();
        if found {
            let row_bytes = response.bytes(3).cloned().unwrap_or_default();
            let value = response.bytes(4).cloned().unwrap_or_default();
            taint = store.union(taint, value.taint_union(store));
            cells.push(KeyValue {
                row: row_bytes.into_plain(),
                value,
            });
        }
        // SDT sink: check the Result.
        self.vm.sink_point(HTABLE_CLASS, "getResult", taint);
        self.log.info_taint("get served", taint);
        Ok(ResultRow {
            found,
            cells,
            taint,
        })
    }

    /// Range-scans `[start, stop)` (empty `stop` = to the end). Each
    /// returned cell keeps its stored per-byte taints; the scan result is
    /// checked at the same `getResult` sink as gets.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn scan(&self, start: &[u8], stop: &[u8]) -> Result<Vec<KeyValue>, JreError> {
        let mut request = PbMessage::new();
        request
            .push_varint(1, METHOD_SCAN)
            .push_str(2, self.table_name.value(), self.table_name.taint())
            .push_bytes(3, TaintedBytes::from_plain(start.to_vec()))
            .push_bytes(4, TaintedBytes::from_plain(stop.to_vec()));
        write_message(&self.channel, &request)?;
        let response = read_message(&self.channel, &self.vm)?.ok_or(JreError::Eof)?;
        let store = self.vm.store();
        let mut taint = Taint::EMPTY;
        let mut cells = Vec::new();
        for encoded in response.bytes_repeated(5) {
            let cell = PbMessage::decode(encoded)?;
            let row = cell.bytes(1).cloned().unwrap_or_default();
            let value = cell.bytes(2).cloned().unwrap_or_default();
            taint = store.union(taint, value.taint_union(store));
            cells.push(KeyValue {
                row: row.into_plain(),
                value,
            });
        }
        self.vm.sink_point(HTABLE_CLASS, "getResult", taint);
        Ok(cells)
    }

    /// Closes the RegionServer channel.
    pub fn close(&self) {
        self.channel.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::HMaster;
    use crate::region_server::{seed_config, RegionServer};
    use dista_core::{Cluster, Mode};
    use dista_jre::{FILE_INPUT_STREAM_CLASS, LOGGER_CLASS};
    use dista_taint::{MethodDesc, SourceSinkSpec};
    use dista_zookeeper::{ZkEnsemble, ZkEnsembleConfig};

    fn sdt_spec() -> SourceSinkSpec {
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new(HTABLE_CLASS, "tableName"))
            .add_sink(MethodDesc::new(HTABLE_CLASS, "getResult"));
        spec
    }

    fn sim_spec() -> SourceSinkSpec {
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new(FILE_INPUT_STREAM_CLASS, "read"))
            .add_sink(MethodDesc::new(LOGGER_CLASS, "info"));
        spec
    }

    struct Stack {
        cluster: Cluster,
        ensemble: ZkEnsemble,
        master: HMaster,
        region_servers: Vec<RegionServer>,
    }

    /// Paper deployment: 1 HMaster + 2 HRegionServers, each node with a
    /// ZooKeeper process, plus a client node. VM layout: 0 = master,
    /// 1..2 = region servers, 3 = client; ZK runs on VMs 0-2.
    fn stack(mode: Mode, spec: SourceSinkSpec) -> Stack {
        let cluster = Cluster::builder(mode)
            .nodes("hb", 4)
            .spec(spec)
            .build()
            .unwrap();
        let zk_vms: Vec<_> = cluster.vms()[..3].to_vec();
        let ensemble = ZkEnsemble::start(&zk_vms, ZkEnsembleConfig::default()).unwrap();

        let mut region_servers = Vec::new();
        for (i, vm) in cluster.vms()[1..3].iter().enumerate() {
            seed_config(vm, &format!("rs-host-{i}"));
            let rs = RegionServer::start(vm, NodeAddr::new(vm.ip(), 16020)).unwrap();
            let zk = ZkClient::connect(vm, ensemble.any_client_addr()).unwrap();
            rs.register_in_zk(&zk, i).unwrap();
            zk.close();
            region_servers.push(rs);
        }
        let master = HMaster::start(cluster.vm(0), ensemble.any_client_addr()).unwrap();
        let servers = master.wait_for_region_servers(2).unwrap();
        master.assign_tables(&["users"], &servers).unwrap();
        Stack {
            cluster,
            ensemble,
            master,
            region_servers,
        }
    }

    fn teardown(stack: Stack) {
        stack.master.shutdown();
        for rs in stack.region_servers {
            rs.shutdown();
        }
        stack.ensemble.shutdown();
        stack.cluster.shutdown();
    }

    #[test]
    fn get_from_table_end_to_end() {
        let stack = stack(Mode::Dista, sdt_spec());
        let client_vm = stack.cluster.vm(3);
        let table = HTable::open(client_vm, stack.ensemble.any_client_addr(), "users").unwrap();
        table
            .put(b"row1", TaintedBytes::from_plain(b"alice".to_vec()))
            .unwrap();
        let result = table.get(b"row1").unwrap();
        assert!(result.found);
        assert_eq!(result.cells[0].value.data(), b"alice");
        // SDT: the TableName taint crossed client -> RS -> client.
        let tags = client_vm.store().tag_values(result.taint);
        assert_eq!(tags, vec!["table:users".to_string()]);
        let report = client_vm.sink_report();
        assert!(report.at("HTable.getResult").iter().any(|e| e.is_tainted()));
        table.close();
        teardown(stack);
    }

    #[test]
    fn missing_row_is_not_found_but_still_checked() {
        let stack = stack(Mode::Dista, sdt_spec());
        let client_vm = stack.cluster.vm(3);
        let table = HTable::open(client_vm, stack.ensemble.any_client_addr(), "users").unwrap();
        let result = table.get(b"ghost").unwrap();
        assert!(!result.found);
        assert!(result.cells.is_empty());
        // The echoed table name still carries the taint.
        assert_eq!(
            client_vm.store().tag_values(result.taint),
            vec!["table:users".to_string()]
        );
        table.close();
        teardown(stack);
    }

    #[test]
    fn phosphor_loses_the_table_name_taint() {
        let stack = stack(Mode::Phosphor, sdt_spec());
        let client_vm = stack.cluster.vm(3);
        let table = HTable::open(client_vm, stack.ensemble.any_client_addr(), "users").unwrap();
        table
            .put(b"row1", TaintedBytes::from_plain(b"bob".to_vec()))
            .unwrap();
        let result = table.get(b"row1").unwrap();
        assert!(result.found);
        assert!(result.taint.is_empty(), "taint died at the RPC boundary");
        table.close();
        teardown(stack);
    }

    #[test]
    fn sim_config_taint_crosses_two_systems() {
        // RS config file -> ZooKeeper (system 1) -> HMaster LOG.info and
        // onward to the client's route lookup (system 2) — the paper's
        // cross-system taint tracking scenario.
        let stack = stack(Mode::Dista, sim_spec());
        // Master logged both registrations with the RS file taints.
        let master_report = stack.cluster.vm(0).sink_report();
        let registrations: Vec<_> = master_report
            .events
            .iter()
            .filter(|e| e.sink == "LOG.info" && e.is_tainted())
            .collect();
        assert_eq!(registrations.len(), 2);
        for event in &registrations {
            assert_eq!(event.tags.len(), 1);
            assert!(event.tags[0].starts_with("conf/hbase-site.xml#r"));
        }

        // The client's route lookup sees the taint through ZK as well.
        let client_vm = stack.cluster.vm(3);
        let table = HTable::open(client_vm, stack.ensemble.any_client_addr(), "users").unwrap();
        let client_report = client_vm.sink_report();
        let located: Vec<_> = client_report
            .events
            .iter()
            .filter(|e| e.sink == "LOG.info" && e.is_tainted())
            .collect();
        assert!(
            !located.is_empty(),
            "route bytes should carry the RS config taint to the client"
        );
        table.close();
        teardown(stack);
    }

    #[test]
    fn scan_returns_range_with_taints() {
        let stack = stack(Mode::Dista, sdt_spec());
        let client_vm = stack.cluster.vm(3);
        let table = HTable::open(client_vm, stack.ensemble.any_client_addr(), "users").unwrap();
        let secret = client_vm
            .store()
            .mint_source_taint(dista_taint::TagValue::str("pii"));
        for (row, tainted) in [("a1", false), ("b2", true), ("b9", true), ("c3", false)] {
            let value = if tainted {
                TaintedBytes::uniform(format!("v-{row}").into_bytes(), secret)
            } else {
                TaintedBytes::from_plain(format!("v-{row}").into_bytes())
            };
            table.put(row.as_bytes(), value).unwrap();
        }
        // Scan the b-range only.
        let cells = table.scan(b"b", b"c").unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].row, b"b2");
        assert_eq!(cells[1].row, b"b9");
        for cell in &cells {
            assert_eq!(
                client_vm
                    .store()
                    .tag_values(cell.value.taint_union(client_vm.store())),
                vec!["pii".to_string()],
                "stored taints come back out of the scan"
            );
        }
        // Full scan sees all four rows.
        assert_eq!(table.scan(b"", b"").unwrap().len(), 4);
        table.close();
        teardown(stack);
    }
}
