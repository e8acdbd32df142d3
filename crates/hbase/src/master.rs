//! The HMaster: discovers RegionServers through ZooKeeper and assigns
//! tables to them.

use std::time::Duration;

use dista_jre::{JreError, Logger, Vm};
use dista_taint::TaintedBytes;
use dista_zookeeper::{ZkClient, ZkError};

/// A running HMaster (stateless after assignment: all cluster state
/// lives in ZooKeeper, like real HBase).
#[derive(Debug)]
pub struct HMaster {
    vm: Vm,
    log: Logger,
    zk: ZkClient,
}

impl HMaster {
    /// Connects the master to ZooKeeper.
    ///
    /// # Errors
    ///
    /// ZooKeeper connection errors.
    pub fn start(vm: &Vm, zk_addr: dista_simnet::NodeAddr) -> Result<Self, ZkError> {
        Ok(HMaster {
            vm: vm.clone(),
            log: Logger::new(vm),
            zk: ZkClient::connect(vm, zk_addr)?,
        })
    }

    /// Waits for `expected` RegionServers to register in ZooKeeper,
    /// logging each discovery (`LOG.info` — the SIM sink; the logged
    /// value carries the RS's config-file taint *through ZooKeeper*).
    ///
    /// Returns the registered RS addresses as stored (taints intact).
    ///
    /// # Errors
    ///
    /// ZooKeeper errors, or [`JreError::Protocol`] on timeout.
    pub fn wait_for_region_servers(&self, expected: usize) -> Result<Vec<TaintedBytes>, JreError> {
        let mut servers = Vec::new();
        for index in 0..expected {
            let path = format!("/hbase/rs/{index}");
            let mut found = None;
            for _ in 0..1000 {
                match self.zk.get(&path) {
                    Ok(value) => {
                        found = Some(value);
                        break;
                    }
                    Err(ZkError::NoNode(_)) => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(_) => return Err(JreError::Protocol("zookeeper unavailable")),
                }
            }
            let value = found.ok_or(JreError::Protocol("region server never registered"))?;
            self.log
                .info_payload(&format!("region server {index} registered"), &value);
            servers.push(value);
        }
        Ok(servers)
    }

    /// Assigns each table to a RegionServer (round-robin) by writing
    /// `/hbase/table/<name>` — the assignment value is the RS address
    /// bytes as read from the registration, so any taint they carry
    /// continues through ZooKeeper to clients.
    ///
    /// # Errors
    ///
    /// ZooKeeper errors.
    pub fn assign_tables(&self, tables: &[&str], servers: &[TaintedBytes]) -> Result<(), JreError> {
        if servers.is_empty() {
            return Err(JreError::Protocol("no region servers to assign to"));
        }
        for (i, table) in tables.iter().enumerate() {
            let rs = &servers[i % servers.len()];
            self.zk
                .create(&format!("/hbase/table/{table}"), rs.clone())
                .map_err(|_| JreError::Protocol("table assignment failed"))?;
        }
        Ok(())
    }

    /// The master's VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Closes the ZooKeeper session.
    pub fn shutdown(self) {
        self.zk.close();
    }
}
