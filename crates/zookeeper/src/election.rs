//! Fast leader election over instrumented TCP object streams.
//!
//! Thread structure mirrors the paper's Fig. 1: each connection pair gets
//! a `SendWorker` (drains an outgoing vote queue into the socket output
//! stream) and a `RecvWorker` (reads `Notification`s off the input stream
//! into the election loop's queue). The election rule is ZooKeeper's:
//! adopt any vote that beats yours by `(epoch, zxid, leader id)`,
//! rebroadcast on change, and decide once every peer agrees.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::time::Duration;

use dista_jre::{
    FileInputStream, JreError, Logger, ObjectInputStream, ObjectOutputStream, ServerSocket, Socket,
    Vm,
};
use dista_simnet::NodeAddr;
use dista_taint::{TagValue, Tainted};

use crate::vote::{ServerState, Vote};
use crate::FLE_CLASS;

/// One peer's identity and runtime.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Server id (`myid`), unique and positive.
    pub myid: i64,
    /// The peer's simulated JVM.
    pub vm: Vm,
}

/// The result of a completed election.
#[derive(Debug, Clone)]
pub struct ElectionOutcome {
    /// Elected leader id.
    pub leader: i64,
    /// Per-peer final states, keyed by `myid`.
    pub states: HashMap<i64, ServerState>,
    /// Per-peer final votes, keyed by `myid`.
    pub final_votes: HashMap<i64, Vote>,
}

/// Reads the node's transaction logs to recover its last zxid — the
/// Fig.-11 boot sequence. Files live under `version-2/` and contain the
/// zxid as ASCII digits; the *last* file's value wins, so only its taint
/// propagates (the others are minted and dropped).
fn boot_zxid(vm: &Vm) -> Result<Tainted<i64>, JreError> {
    let mut zxid = Tainted::untainted(0);
    for path in vm.fs().list("version-2/") {
        let file = FileInputStream::open(vm, &path)?;
        let contents = file.read_to_string()?;
        let parsed: i64 = contents
            .value()
            .trim()
            .parse()
            .map_err(|_| JreError::Protocol("malformed txn log"))?;
        zxid = Tainted::new(parsed, contents.taint());
    }
    Ok(zxid)
}

struct PeerLink {
    outgoing: Sender<Vote>,
}

fn spawn_workers(socket: Socket, notifications: Sender<Vote>) -> PeerLink {
    let (out_tx, out_rx) = channel::<Vote>();
    let writer = socket.clone();
    // SendWorker (Fig. 1 lines 2-6): serializes queued votes.
    std::thread::spawn(move || {
        let out = ObjectOutputStream::new(writer.output_stream());
        while let Ok(vote) = out_rx.recv() {
            if out.write_object(&vote.to_obj()).is_err() {
                return;
            }
        }
    });
    // RecvWorker (Fig. 1 lines 16-21): deserializes notifications.
    std::thread::spawn(move || {
        let input = ObjectInputStream::new(socket.input_stream());
        loop {
            match input.read_object() {
                Ok(obj) => {
                    let Ok(vote) = Vote::from_obj(&obj) else {
                        return;
                    };
                    if notifications.send(vote).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    });
    PeerLink { outgoing: out_tx }
}

fn connect_mesh(
    cfg: &PeerConfig,
    peers: &[(i64, [u8; 4])],
    port: u16,
    notifications: Sender<Vote>,
) -> Result<HashMap<i64, PeerLink>, JreError> {
    let listener = ServerSocket::bind(&cfg.vm, NodeAddr::new(cfg.vm.ip(), port))?;
    let mut links = HashMap::new();
    // Deterministic mesh: lower id dials higher id.
    let higher: Vec<_> = peers.iter().filter(|(id, _)| *id > cfg.myid).collect();
    let lower_count = peers.iter().filter(|(id, _)| *id < cfg.myid).count();
    for (id, ip) in higher {
        // The peer's listener may not be up yet; retry briefly.
        let addr = NodeAddr::new(*ip, port);
        let socket = loop {
            match Socket::connect(&cfg.vm, addr) {
                Ok(s) => break s,
                Err(JreError::Net(dista_simnet::NetError::ConnectionRefused(_))) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        };
        // Identify ourselves so the acceptor can map the connection.
        ObjectOutputStream::new(socket.output_stream())
            .write_object(&dista_jre::ObjValue::int_plain(cfg.myid))?;
        links.insert(*id, spawn_workers(socket, notifications.clone()));
    }
    for _ in 0..lower_count {
        let socket = listener.accept()?;
        let hello = ObjectInputStream::new(socket.input_stream()).read_object()?;
        let peer_id = hello
            .as_int()
            .ok_or(JreError::Protocol("bad election handshake"))?;
        links.insert(peer_id, spawn_workers(socket, notifications.clone()));
    }
    listener.close();
    Ok(links)
}

fn broadcast(links: &HashMap<i64, PeerLink>, vote: &Vote) {
    for link in links.values() {
        let _ = link.outgoing.send(vote.clone());
    }
}

/// Runs one peer's election to completion.
fn run_peer(
    cfg: PeerConfig,
    peers: Vec<(i64, [u8; 4])>,
    port: u16,
) -> Result<(i64, ServerState, Vote), JreError> {
    let vm = cfg.vm.clone();
    let log = Logger::new(&vm);
    let zxid = boot_zxid(&vm)?;

    // The SDT source point: the Vote variable first transferred into the
    // network (Table IV). One per node — three tainted votes in a
    // three-node ensemble, matching "we only select 3 variables".
    let vote_taint = vm.source_point(
        FLE_CLASS,
        "getVote",
        TagValue::str(format!("vote{}", cfg.myid)),
    );
    let mut current = Vote {
        leader: Tainted::new(cfg.myid, vote_taint),
        zxid,
        epoch: 1,
        from: cfg.myid,
        state: ServerState::Looking,
    };

    let (notif_tx, notif_rx) = channel();
    let links = connect_mesh(&cfg, &peers, port, notif_tx)?;
    let quorum_size = peers.len() + 1; // full agreement (3/3), simple + sound

    let mut ballots: HashMap<i64, (i64, i64, i64)> = HashMap::new();
    let key = |v: &Vote| (v.epoch, *v.zxid.value(), *v.leader.value());
    ballots.insert(cfg.myid, key(&current));
    broadcast(&links, &current);

    loop {
        // Decided once everyone we know about voted for the same triple.
        let agree = ballots.values().filter(|k| **k == key(&current)).count();
        if agree >= quorum_size {
            break;
        }
        let notification = notif_rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| JreError::Protocol("election stalled"))?;
        if notification.beats(&current) {
            // Adopt: the received vote's taints ride along (this is the
            // inter-node flow the SDT scenario checks).
            current = Vote {
                leader: notification.leader,
                zxid: notification.zxid,
                epoch: notification.epoch,
                from: cfg.myid,
                state: ServerState::Looking,
            };
            ballots.insert(cfg.myid, key(&current));
            broadcast(&links, &current);
        }
        ballots.insert(notification.from, key(&notification));
    }

    let leader = *current.leader.value();
    let state = if leader == cfg.myid {
        ServerState::Leading
    } else {
        ServerState::Following
    };
    current.state = state;

    if state == ServerState::Following {
        // The SDT sink: checkLeader "is invoked on a follower when the
        // leader is selected".
        vm.sink_point(FLE_CLASS, "checkLeader", current.taint(&vm));
        // The SIM flow of Fig. 11: the follower logs the epoch derived
        // from the leader's zxid; if that zxid was file-tainted on the
        // leader, LOG.info sees a cross-node taint here.
        log.info_value("FOLLOWING leader, accepted zxid =", &current.zxid);
    } else {
        log.info_value("LEADING, zxid =", &current.zxid);
    }
    Ok((cfg.myid, state, current))
}

/// Runs a full election across `peers`, using `port` for the election
/// listeners (one per node IP). Blocks until every peer decides.
///
/// # Errors
///
/// Any peer's transport, Taint Map or protocol error.
///
/// # Panics
///
/// Panics if a peer thread panics.
pub fn run_election(peers: Vec<PeerConfig>, port: u16) -> Result<ElectionOutcome, JreError> {
    let roster: Vec<(i64, [u8; 4])> = peers.iter().map(|p| (p.myid, p.vm.ip())).collect();
    let mut handles = Vec::new();
    for cfg in peers {
        let others: Vec<(i64, [u8; 4])> = roster
            .iter()
            .filter(|(id, _)| *id != cfg.myid)
            .copied()
            .collect();
        handles.push(std::thread::spawn(move || run_peer(cfg, others, port)));
    }
    let mut states = HashMap::new();
    let mut final_votes = HashMap::new();
    let mut leader = None;
    for handle in handles {
        let (myid, state, vote) = handle.join().expect("election peer panicked")?;
        if state == ServerState::Leading {
            leader = Some(myid);
        }
        states.insert(myid, state);
        final_votes.insert(myid, vote);
    }
    Ok(ElectionOutcome {
        leader: leader.ok_or(JreError::Protocol("no leader elected"))?,
        states,
        final_votes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_core::{Cluster, Mode};
    use dista_taint::{MethodDesc, SourceSinkSpec};

    fn sdt_spec() -> SourceSinkSpec {
        let mut spec = SourceSinkSpec::new();
        spec.add_source(MethodDesc::new(FLE_CLASS, "getVote"))
            .add_sink(MethodDesc::new(FLE_CLASS, "checkLeader"));
        spec
    }

    fn peers(cluster: &Cluster) -> Vec<PeerConfig> {
        cluster
            .vms()
            .iter()
            .enumerate()
            .map(|(i, vm)| PeerConfig {
                myid: (i + 1) as i64,
                vm: vm.clone(),
            })
            .collect()
    }

    #[test]
    fn three_nodes_elect_highest_id() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .spec(sdt_spec())
            .build()
            .unwrap();
        let outcome = run_election(peers(&cluster), 3888).unwrap();
        assert_eq!(outcome.leader, 3, "equal zxids: highest id wins");
        assert_eq!(outcome.states[&3], ServerState::Leading);
        assert_eq!(outcome.states[&1], ServerState::Following);
        assert_eq!(outcome.states[&2], ServerState::Following);
        cluster.shutdown();
    }

    #[test]
    fn higher_zxid_wins_over_higher_id() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .spec(sdt_spec())
            .build()
            .unwrap();
        // Node 1 has the freshest log.
        cluster.vm(0).fs().write("version-2/log.1", b"500".to_vec());
        let outcome = run_election(peers(&cluster), 3888).unwrap();
        assert_eq!(outcome.leader, 1);
        cluster.shutdown();
    }

    #[test]
    fn sdt_taint_reaches_check_leader_on_followers() {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 3)
            .spec(sdt_spec())
            .build()
            .unwrap();
        let outcome = run_election(peers(&cluster), 3888).unwrap();
        assert_eq!(outcome.leader, 3);
        // Both followers must see exactly the winner's vote tag — the
        // leader's own "vote3" tag, minted on node 3, crossed two hops.
        for follower in [0usize, 1] {
            let report = cluster.vm(follower).sink_report();
            let events = report.at("FastLeaderElection.checkLeader");
            assert_eq!(events.len(), 1, "one checkLeader per follower");
            assert_eq!(
                events[0].tags,
                vec!["vote3".to_string()],
                "sound (vote3 present) and precise (nothing else)"
            );
        }
        // The leader's own sink is not invoked.
        assert!(cluster.vm(2).sink_report().events.is_empty());
        cluster.shutdown();
    }

    #[test]
    fn phosphor_loses_the_vote_taint() {
        let cluster = Cluster::builder(Mode::Phosphor)
            .nodes("zk", 3)
            .spec(sdt_spec())
            .build()
            .unwrap();
        let outcome = run_election(peers(&cluster), 3888).unwrap();
        assert_eq!(outcome.leader, 3, "election itself still works");
        for follower in [0usize, 1] {
            let report = cluster.vm(follower).sink_report();
            let events = report.at("FastLeaderElection.checkLeader");
            assert_eq!(events.len(), 1);
            assert!(
                events[0].tags.is_empty(),
                "intra-node-only tracking drops the cross-node vote taint"
            );
        }
        cluster.shutdown();
    }
}
