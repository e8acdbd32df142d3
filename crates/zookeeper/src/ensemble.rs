//! Ensemble orchestration: boot files, election, then the replicated
//! client service (leader + commit channels to followers).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dista_jre::{JreError, ObjValue, ObjectInputStream, ObjectOutputStream, Socket, Vm};
use dista_simnet::NodeAddr;
use parking_lot::Mutex;

use crate::election::{run_election, ElectionOutcome, PeerConfig};
use crate::server::{Role, ServerCore, ZkClient, ZkServerHandle};

/// How long [`ZkEnsemble::start`] waits for the leader to register the
/// followers' commit channels (normally microseconds).
const ATTACH_TIMEOUT: Duration = Duration::from_secs(5);

/// Ensemble configuration.
#[derive(Debug, Clone)]
pub struct ZkEnsembleConfig {
    /// Election listener port (same on every node IP).
    pub election_port: u16,
    /// Client service port (same on every node IP).
    pub client_port: u16,
    /// Transaction-log zxids written to each node's disk before boot,
    /// in node order. Each inner vector becomes `version-2/log.K` files.
    pub txn_logs: Vec<Vec<i64>>,
}

impl Default for ZkEnsembleConfig {
    fn default() -> Self {
        ZkEnsembleConfig {
            election_port: 3888,
            client_port: 2181,
            txn_logs: Vec::new(),
        }
    }
}

/// A running mini-ZooKeeper ensemble.
#[derive(Debug)]
pub struct ZkEnsemble {
    outcome: ElectionOutcome,
    servers: Vec<ZkServerHandle>,
    /// Keyed by `myid`, in id order.
    client_addrs: BTreeMap<i64, NodeAddr>,
}

impl ZkEnsemble {
    /// Boots the ensemble on `vms`: writes txn logs, runs the election,
    /// starts the leader's service, then attaches every follower (write
    /// forwarding + commit channel).
    ///
    /// # Errors
    ///
    /// Election or bind failures.
    pub fn start(vms: &[Vm], config: ZkEnsembleConfig) -> Result<ZkEnsemble, JreError> {
        // Seed each node's disk (the Fig.-11 boot files).
        for (i, vm) in vms.iter().enumerate() {
            if let Some(zxids) = config.txn_logs.get(i) {
                for (k, zxid) in zxids.iter().enumerate() {
                    vm.fs()
                        .write(format!("version-2/log.{k}"), zxid.to_string().into_bytes());
                }
            }
        }
        let peers: Vec<PeerConfig> = vms
            .iter()
            .enumerate()
            .map(|(i, vm)| PeerConfig {
                myid: (i + 1) as i64,
                vm: vm.clone(),
            })
            .collect();
        let outcome = run_election(peers, config.election_port)?;
        let leader_idx = (outcome.leader - 1) as usize;
        let leader_vm = &vms[leader_idx];
        let leader_addr = NodeAddr::new(leader_vm.ip(), config.client_port);

        // Leader first: followers need its client port up to attach.
        let leader_core = ServerCore::new(Role::Leader {
            followers: Mutex::new(Vec::new()),
        });
        let leader_handle = ZkServerHandle::start(leader_vm, leader_addr, leader_core)?;

        let mut servers = Vec::new();
        let mut client_addrs = BTreeMap::new();
        client_addrs.insert(outcome.leader, leader_addr);

        for (i, vm) in vms.iter().enumerate() {
            if i == leader_idx {
                continue;
            }
            // Write-forwarding session to the leader.
            let forward = ZkClient::connect(vm, leader_addr)
                .map_err(|_| JreError::Protocol("follower cannot reach leader"))?;
            let core = ServerCore::new(Role::Follower {
                leader: Mutex::new(forward),
            });
            let addr = NodeAddr::new(vm.ip(), config.client_port);
            let handle = ZkServerHandle::start(vm, addr, core)?;

            // Commit channel: announce ourselves on a fresh session; the
            // leader turns it into a broadcast sink, we apply commits.
            let attach = Socket::connect(vm, leader_addr)?;
            ObjectOutputStream::new(attach.output_stream())
                .write_object(&ObjValue::Record("FollowerAttach".into(), vec![]))?;
            handle.run_commit_loop(ObjectInputStream::new(attach.input_stream()));

            client_addrs.insert((i + 1) as i64, addr);
            servers.push(handle);
        }
        // The leader registers each commit channel on that session's own
        // thread: a write accepted before it got there would never be
        // broadcast to that follower.
        let deadline = Instant::now() + ATTACH_TIMEOUT;
        while leader_handle.attached_followers() < servers.len() {
            if Instant::now() > deadline {
                return Err(JreError::Protocol(
                    "leader never registered a follower's commit channel",
                ));
            }
            std::thread::yield_now();
        }
        servers.push(leader_handle);
        Ok(ZkEnsemble {
            outcome,
            servers,
            client_addrs,
        })
    }

    /// The election result.
    pub fn outcome(&self) -> &ElectionOutcome {
        &self.outcome
    }

    /// The elected leader's id.
    pub fn leader(&self) -> i64 {
        self.outcome.leader
    }

    /// Client-port address of server `myid`.
    pub fn client_addr(&self, myid: i64) -> Option<NodeAddr> {
        self.client_addrs.get(&myid).copied()
    }

    /// Client-port address of the member with the lowest `myid`: the
    /// same member for every ensemble started the same way. With equal
    /// logs (the default config) the highest id leads, so this member is
    /// a follower that forwards writes; [`Self::leader_client_addr`]
    /// reaches the leader.
    pub fn any_client_addr(&self) -> NodeAddr {
        *self
            .client_addrs
            .values()
            .next()
            .expect("ensemble has servers")
    }

    /// Client-port address of the elected leader.
    pub fn leader_client_addr(&self) -> NodeAddr {
        self.client_addrs[&self.outcome.leader]
    }

    /// Per-member local tree sizes, keyed by `myid` (replication
    /// diagnostics).
    pub fn local_tree_sizes(&self) -> Vec<usize> {
        self.servers
            .iter()
            .map(ZkServerHandle::local_tree_len)
            .collect()
    }

    /// Stops all servers.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_core::{Cluster, Mode};
    use dista_jre::FILE_INPUT_STREAM_CLASS;
    use dista_taint::{MethodDesc, SourceSinkSpec, TagValue, TaintedBytes};

    fn sim_spec() -> SourceSinkSpec {
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new(FILE_INPUT_STREAM_CLASS, "read"))
            .add_sink(MethodDesc::new(dista_jre::LOGGER_CLASS, "info"));
        spec
    }

    #[test]
    fn full_ensemble_lifecycle() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(
            cluster.vms(),
            ZkEnsembleConfig {
                txn_logs: vec![vec![1, 2], vec![1, 2, 3], vec![1]],
                ..Default::default()
            },
        )
        .unwrap();
        // Node 2 has the freshest log (zxid 3) -> leads.
        assert_eq!(ensemble.leader(), 2);
        // Client service works against any member.
        let client = ZkClient::connect(cluster.vm(0), ensemble.any_client_addr()).unwrap();
        client
            .create("/x", TaintedBytes::from_plain(b"1".to_vec()))
            .unwrap();
        assert!(client.exists("/x").unwrap());
        client.close();
        ensemble.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn any_client_addr_is_the_same_member_for_equal_ensembles() {
        let start = || {
            let cluster = Cluster::builder(Mode::Original)
                .nodes("zk", 3)
                .build()
                .unwrap();
            let config = ZkEnsembleConfig {
                txn_logs: vec![vec![1], vec![1, 2, 3], vec![1, 2]],
                ..Default::default()
            };
            let ensemble = ZkEnsemble::start(cluster.vms(), config).unwrap();
            (cluster, ensemble)
        };
        let (first_cluster, first) = start();
        let (second_cluster, second) = start();
        assert_eq!(first.any_client_addr(), first.client_addr(1).unwrap());
        assert_eq!(first.any_client_addr(), second.any_client_addr());
        assert_eq!(first.leader(), 2, "member 1 is a follower");
        for (ensemble, cluster) in [(first, first_cluster), (second, second_cluster)] {
            ensemble.shutdown();
            cluster.shutdown();
        }
    }

    #[test]
    fn a_follower_reads_back_every_write_it_forwarded() {
        // A follower answers a forwarded write once its own tree holds
        // it; answering on the leader's word alone let the next read here
        // see the value before it, and a read-modify-write lose an update.
        let cluster = Cluster::builder(Mode::Original)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
        let follower = if ensemble.leader() == 1 { 2 } else { 1 };
        let client =
            ZkClient::connect(cluster.vm(0), ensemble.client_addr(follower).unwrap()).unwrap();
        let value = |i: u32| TaintedBytes::from_plain(i.to_be_bytes().to_vec());
        client.create("/counter", value(0)).unwrap();
        for i in 1..=300 {
            client.set("/counter", value(i)).unwrap();
            assert_eq!(client.get("/counter").unwrap().data(), value(i).data());
        }
        client.close();
        ensemble.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn writes_to_follower_are_readable_from_leader_and_vice_versa() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
        let leader_addr = ensemble.leader_client_addr();
        let follower_addr = ensemble
            .client_addr(if ensemble.leader() == 1 { 2 } else { 1 })
            .unwrap();
        assert_ne!(leader_addr, follower_addr);

        // Write via a follower (forwarded to the leader), read via the
        // leader.
        let via_follower = ZkClient::connect(cluster.vm(0), follower_addr).unwrap();
        let t = cluster.vm(0).store().mint_source_taint(TagValue::str("fw"));
        via_follower
            .create("/forwarded", TaintedBytes::uniform(b"payload", t))
            .unwrap();
        let via_leader = ZkClient::connect(cluster.vm(0), leader_addr).unwrap();
        let got = via_leader.get("/forwarded").unwrap();
        assert_eq!(got.data(), b"payload");
        assert_eq!(
            cluster
                .vm(0)
                .store()
                .tag_values(got.taint_union(cluster.vm(0).store())),
            vec!["fw".to_string()],
            "the taint replicated with the write"
        );

        // Write via the leader, read via a follower (commit broadcast or
        // read-through).
        via_leader
            .create("/from-leader", TaintedBytes::from_plain(b"x".to_vec()))
            .unwrap();
        let got = via_follower.get("/from-leader").unwrap();
        assert_eq!(got.data(), b"x");
        via_follower.close();
        via_leader.close();
        ensemble.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn commits_replicate_to_follower_trees() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
        let client = ZkClient::connect(cluster.vm(0), ensemble.leader_client_addr()).unwrap();
        for i in 0..8 {
            client
                .create(&format!("/n{i}"), TaintedBytes::from_plain(vec![i]))
                .unwrap();
        }
        client.close();
        // The broadcast is FIFO per follower; wait for it to drain.
        for _ in 0..500 {
            if ensemble.local_tree_sizes().iter().all(|&n| n == 8) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(
            ensemble.local_tree_sizes().iter().all(|&n| n == 8),
            "every member's local tree converged: {:?}",
            ensemble.local_tree_sizes()
        );
        ensemble.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn sim_scenario_matches_fig_11() {
        // Each node reads its txn logs (3 taints minted on the leader),
        // but only the LAST file's zxid propagates into votes; followers
        // log the accepted zxid -> LOG.info sees exactly that one taint.
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .spec(sim_spec())
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(
            cluster.vms(),
            ZkEnsembleConfig {
                txn_logs: vec![vec![10, 20, 30], vec![10, 20], vec![10]],
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ensemble.leader(), 1, "node 1 has zxid 30");
        // Node 1 minted three file taints...
        assert!(cluster.vm(0).store().sources_minted() >= 3);
        // ...but followers' LOG.info observed only the last one.
        for follower in [1usize, 2] {
            let report = cluster.vm(follower).sink_report();
            let events = report.at("LOG.info");
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].tags.len(), 1, "exactly one taint, no over-taint");
            assert!(
                events[0].tags[0].starts_with("version-2/log.2#r"),
                "the LAST file's taint propagated, got {:?}",
                events[0].tags
            );
        }
        ensemble.shutdown();
        cluster.shutdown();
    }
}

#[cfg(test)]
mod watch_tests {
    use super::*;
    use dista_core::{Cluster, Mode};
    use dista_taint::{TagValue, TaintedBytes};

    #[test]
    fn watch_fires_across_members_with_taints() {
        // A watcher on one member is notified when a different client
        // writes through another member — and the pushed value carries
        // the writer's taint across three hops (writer → leader →
        // watcher's member → watcher).
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .build()
            .unwrap();
        let ensemble = ZkEnsemble::start(cluster.vms(), ZkEnsembleConfig::default()).unwrap();
        let follower_id = if ensemble.leader() == 1 { 2 } else { 1 };
        let follower_addr = ensemble.client_addr(follower_id).unwrap();

        let watcher_client = ZkClient::connect(cluster.vm(0), follower_addr).unwrap();
        let watcher = watcher_client.attach_watcher().unwrap();
        watcher_client.watch("/config/flag").unwrap();

        let writer = ZkClient::connect(cluster.vm(2), ensemble.leader_client_addr()).unwrap();
        let taint = cluster
            .vm(2)
            .store()
            .mint_source_taint(TagValue::str("flip"));
        writer
            .create("/config/flag", TaintedBytes::uniform(b"on", taint))
            .unwrap();

        let event = watcher.await_event().unwrap();
        assert_eq!(event.path, "/config/flag");
        assert_eq!(event.data.data(), b"on");
        assert_eq!(
            cluster
                .vm(0)
                .store()
                .tag_values(event.data.taint_union(cluster.vm(0).store())),
            vec!["flip".to_string()],
            "the watch notification carries the writer's taint"
        );

        // Watches are one-shot: a second write does not fire again.
        writer
            .set("/config/flag", TaintedBytes::from_plain(b"off".to_vec()))
            .unwrap();
        watcher_client.watch("/other").unwrap(); // re-arm a different path
        writer
            .create("/other", TaintedBytes::from_plain(b"x".to_vec()))
            .unwrap();
        let event = watcher.await_event().unwrap();
        assert_eq!(
            event.path, "/other",
            "one-shot semantics: /config/flag did not re-fire"
        );

        watcher.close();
        watcher_client.close();
        writer.close();
        ensemble.shutdown();
        cluster.shutdown();
    }
}
