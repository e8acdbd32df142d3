//! The ZooKeeper data-tree service: create/get/set over instrumented TCP
//! object streams. This is what HBase talks to in the cross-system
//! workload (meta-location lookup).
//!
//! Replication is leader-mediated, ZAB-style: every server owns its own
//! tree; followers forward writes to the leader, the leader applies them
//! and broadcasts commits to all followers over dedicated commit
//! channels. Reads are served locally, with a read-through to the leader
//! on miss; a follower answers a forwarded write only once its own tree
//! has applied that write's commit (the leader numbers its commits), so
//! clients get read-your-writes no matter which member they talk to.
//! Every hop is instrumented traffic, so stored taints replicate with the
//! data.

use std::collections::HashMap;
use std::sync::Arc;

use dista_jre::{
    JreError, ObjValue, ObjectInputStream, ObjectOutputStream, ServerSocket, Socket, Vm,
};
use dista_simnet::{NetError, NodeAddr, TcpServer};
use dista_taint::TaintedBytes;
use parking_lot::{Condvar, Mutex, RwLock};

/// Errors surfaced by the ZooKeeper client API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkError {
    /// Node does not exist.
    NoNode(String),
    /// Node already exists.
    NodeExists(String),
    /// Transport/protocol failure.
    Io(JreError),
}

impl std::fmt::Display for ZkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZkError::NoNode(p) => write!(f, "no node: {p}"),
            ZkError::NodeExists(p) => write!(f, "node exists: {p}"),
            ZkError::Io(e) => write!(f, "zookeeper i/o error: {e}"),
        }
    }
}

impl std::error::Error for ZkError {}

impl From<JreError> for ZkError {
    fn from(e: JreError) -> Self {
        ZkError::Io(e)
    }
}

/// One server's local data tree.
pub(crate) type DataTree = Arc<RwLock<HashMap<String, TaintedBytes>>>;

const STATUS_OK: i64 = 0;
const STATUS_NO_NODE: i64 = 1;
const STATUS_NODE_EXISTS: i64 = 2;

/// This member's place in the replication topology.
pub(crate) enum Role {
    /// Applies writes and broadcasts commits to followers.
    Leader {
        /// Commit channels to followers, added as they attach.
        followers: Mutex<Vec<ObjectOutputStream<dista_jre::SocketOutputStream>>>,
    },
    /// Forwards writes (and read misses) to the leader.
    Follower {
        /// A client session to the leader's client port.
        leader: Mutex<ZkClient>,
    },
    /// No ensemble (tests, single-node use).
    Standalone,
}

pub(crate) struct ServerCore {
    tree: DataTree,
    role: Role,
    /// Watch channels by client token.
    watch_channels: Mutex<HashMap<i64, ObjectOutputStream<dista_jre::SocketOutputStream>>>,
    /// Registered watches: path → watching client tokens (one-shot,
    /// like real ZooKeeper watches).
    watches: Mutex<HashMap<String, Vec<i64>>>,
    /// The number of the last commit this member applied (the leader
    /// numbers its commits 1, 2, …); `i64::MAX` once a follower's commit
    /// channel is gone, so that nothing waits on it.
    applied: Mutex<i64>,
    /// Signalled whenever `applied` moves.
    applied_moved: Condvar,
}

impl ServerCore {
    pub(crate) fn new(role: Role) -> Arc<Self> {
        Arc::new(ServerCore {
            tree: Arc::new(RwLock::new(HashMap::new())),
            role,
            watch_channels: Mutex::new(HashMap::new()),
            watches: Mutex::new(HashMap::new()),
            applied: Mutex::new(0),
            applied_moved: Condvar::new(),
        })
    }

    /// Notes that commits up to `zxid` are applied here.
    fn mark_applied(&self, zxid: i64) {
        *self.applied.lock() = zxid;
        self.applied_moved.notify_all();
    }

    /// Blocks until this member has applied commit `zxid`.
    fn await_applied(&self, zxid: i64) {
        let mut applied = self.applied.lock();
        while *applied < zxid {
            self.applied_moved.wait(&mut applied);
        }
    }

    /// Fires (and clears) the one-shot watches on `path`, pushing a
    /// `WatchEvent` — with the new value's taints — down each watcher's
    /// channel.
    fn fire_watches(&self, path: &str, data: &TaintedBytes) {
        let tokens = match self.watches.lock().remove(path) {
            Some(tokens) => tokens,
            None => return,
        };
        let event = ObjValue::Record(
            "WatchEvent".into(),
            vec![
                ("path".into(), ObjValue::str_plain(path)),
                ("data".into(), ObjValue::Bytes(data.clone())),
            ],
        );
        let mut channels = self.watch_channels.lock();
        for token in tokens {
            if let Some(sink) = channels.get(&token) {
                if sink.write_object(&event).is_err() {
                    channels.remove(&token);
                }
            }
        }
    }

    /// Applies a committed write locally (no forwarding, no broadcast)
    /// and fires any watches on the path.
    fn apply(&self, op: &str, path: &str, data: TaintedBytes) -> i64 {
        let status = {
            let mut tree = self.tree.write();
            match op {
                "create" => match tree.entry(path.to_string()) {
                    std::collections::hash_map::Entry::Occupied(_) => STATUS_NODE_EXISTS,
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(data.clone());
                        STATUS_OK
                    }
                },
                "set" => match tree.get_mut(path) {
                    Some(slot) => {
                        *slot = data.clone();
                        STATUS_OK
                    }
                    None => STATUS_NO_NODE,
                },
                _ => STATUS_NO_NODE,
            }
        };
        if status == STATUS_OK {
            self.fire_watches(path, &data);
        }
        status
    }

    /// Leader-side: apply, number and broadcast the commit to every
    /// follower. Returns the status and the commit's number (0 if
    /// nothing was committed). One lock spans all three, so followers
    /// apply commits in the leader's order.
    fn commit(&self, op: &str, path: &str, data: TaintedBytes) -> (i64, i64) {
        let mut followers = match &self.role {
            Role::Leader { followers } => Some(followers.lock()),
            _ => None,
        };
        let status = self.apply(op, path, data.clone());
        if status != STATUS_OK {
            return (status, 0);
        }
        let zxid = {
            let mut applied = self.applied.lock();
            *applied += 1;
            *applied
        };
        if let Some(followers) = &mut followers {
            let commit = ObjValue::Record(
                "Commit".into(),
                vec![
                    ("op".into(), ObjValue::str_plain(op)),
                    ("path".into(), ObjValue::str_plain(path)),
                    ("data".into(), ObjValue::Bytes(data)),
                    ("zxid".into(), ObjValue::int_plain(zxid)),
                ],
            );
            followers.retain(|sink| sink.write_object(&commit).is_ok());
        }
        (status, zxid)
    }

    fn handle(&self, request: &ObjValue) -> ObjValue {
        let op = request.field("op").and_then(ObjValue::as_str).unwrap_or("");
        let path = request
            .field("path")
            .and_then(ObjValue::as_str)
            .unwrap_or("")
            .to_string();
        let data = match request.field("data") {
            Some(ObjValue::Bytes(b)) => b.clone(),
            _ => TaintedBytes::new(),
        };
        let (status, payload) = match op {
            "create" | "set" => {
                let (status, zxid) = match &self.role {
                    Role::Follower { leader } => {
                        // Forward the write to the leader; our own tree
                        // gets the value through the commit broadcast,
                        // and the client hears back once it has: its
                        // next read here sees its write.
                        let reply = leader.lock().call_raw(op, &path, data);
                        match reply {
                            Ok(reply) => {
                                self.await_applied(reply.zxid);
                                (reply.status, reply.zxid)
                            }
                            Err(_) => (STATUS_NO_NODE, 0),
                        }
                    }
                    _ => self.commit(op, &path, data),
                };
                return response(status, TaintedBytes::new(), Some(zxid));
            }
            "get" => match self.read_through(&path) {
                Some(bytes) => (STATUS_OK, bytes),
                None => (STATUS_NO_NODE, TaintedBytes::new()),
            },
            "exists" => {
                let found = self.read_through(&path).is_some();
                (STATUS_OK, TaintedBytes::from_plain(vec![u8::from(found)]))
            }
            "watch" => {
                let token = request
                    .field("token")
                    .and_then(ObjValue::as_int)
                    .unwrap_or(0);
                self.watches.lock().entry(path).or_default().push(token);
                (STATUS_OK, TaintedBytes::new())
            }
            _ => (STATUS_NO_NODE, TaintedBytes::new()),
        };
        response(status, payload, None)
    }

    /// Local read with leader read-through on miss (read-your-writes for
    /// clients of lagging followers).
    fn read_through(&self, path: &str) -> Option<TaintedBytes> {
        if let Some(bytes) = self.tree.read().get(path) {
            return Some(bytes.clone());
        }
        if let Role::Follower { leader } = &self.role {
            let leader = leader.lock();
            if let Ok(reply) = leader.call_raw("get", path, TaintedBytes::new()) {
                if reply.status == STATUS_OK {
                    // Cache the value locally (it is committed state).
                    self.tree
                        .write()
                        .insert(path.to_string(), reply.data.clone());
                    return Some(reply.data);
                }
            }
        }
        None
    }
}

/// A `ZkResponse`; a write's also carries its commit's number.
fn response(status: i64, data: TaintedBytes, zxid: Option<i64>) -> ObjValue {
    let mut fields = vec![
        ("status".into(), ObjValue::int_plain(status)),
        ("data".into(), ObjValue::Bytes(data)),
    ];
    if let Some(zxid) = zxid {
        fields.push(("zxid".into(), ObjValue::int_plain(zxid)));
    }
    ObjValue::Record("ZkResponse".into(), fields)
}

/// A running ZooKeeper server (one ensemble member's client port).
pub struct ZkServerHandle {
    server: TcpServer,
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for ZkServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkServerHandle")
            .field("addr", &self.addr())
            .finish()
    }
}

impl ZkServerHandle {
    /// Starts serving at `addr` on `vm` with the given replication core.
    pub(crate) fn start(vm: &Vm, addr: NodeAddr, core: Arc<ServerCore>) -> Result<Self, JreError> {
        let session_core = core.clone();
        let server = ServerSocket::serve(vm, addr, "zk-server", move |socket| {
            serve_session(&socket, &session_core)
        })?;
        Ok(ZkServerHandle { server, core })
    }

    /// Starts a standalone (non-replicated) server — used by tests.
    pub fn start_standalone(vm: &Vm, addr: NodeAddr) -> Result<Self, JreError> {
        Self::start(vm, addr, ServerCore::new(Role::Standalone))
    }

    /// The client-port address.
    pub fn addr(&self) -> NodeAddr {
        self.server.local_addr()
    }

    /// Spawns the commit-apply loop for a follower (follower side).
    pub(crate) fn run_commit_loop(&self, input: ObjectInputStream<dista_jre::SocketInputStream>) {
        let core = self.core.clone();
        std::thread::spawn(move || loop {
            let commit = match input.read_object() {
                Ok(commit) => commit,
                // No commit for one block timeout: the leader is quiet.
                Err(JreError::Net(NetError::Timeout(_))) => continue,
                // No more commits will come: release every waiter.
                Err(_) => return core.mark_applied(i64::MAX),
            };
            let op = commit.field("op").and_then(ObjValue::as_str).unwrap_or("");
            let path = commit
                .field("path")
                .and_then(ObjValue::as_str)
                .unwrap_or("");
            let data = match commit.field("data") {
                Some(ObjValue::Bytes(b)) => b.clone(),
                _ => TaintedBytes::new(),
            };
            core.apply(op, path, data);
            if let Some(zxid) = commit.field("zxid").and_then(ObjValue::as_int) {
                core.mark_applied(zxid);
            }
        });
    }

    /// Commit channels the leader has registered so far (0 on a
    /// follower).
    pub(crate) fn attached_followers(&self) -> usize {
        match &self.core.role {
            Role::Leader { followers } => followers.lock().len(),
            _ => 0,
        }
    }

    /// Number of entries in this member's local tree (replication lag
    /// diagnostics in tests).
    pub fn local_tree_len(&self) -> usize {
        self.core.tree.read().len()
    }

    /// Stops the server (see [`TcpServer::stop`]).
    pub fn shutdown(mut self) {
        self.server.stop();
    }
}

fn serve_session(socket: &Socket, core: &Arc<ServerCore>) {
    let input = ObjectInputStream::new(socket.input_stream());
    let output = ObjectOutputStream::new(socket.output_stream());
    loop {
        let request = match input.read_object() {
            Ok(r) => r,
            Err(_) => return,
        };
        // A follower announcing itself turns this session into a commit
        // channel (leader side).
        if request.class_name() == Some("FollowerAttach") {
            core_attach(core, output);
            return keep_reading_until_eof(input);
        }
        // A client announcing a watch channel parks this session as an
        // event push stream.
        if request.class_name() == Some("WatcherAttach") {
            let token = request
                .field("token")
                .and_then(ObjValue::as_int)
                .unwrap_or(0);
            core.watch_channels.lock().insert(token, output);
            return keep_reading_until_eof(input);
        }
        let response = core.handle(&request);
        if output.write_object(&response).is_err() {
            return;
        }
    }
}

fn core_attach(core: &Arc<ServerCore>, sink: ObjectOutputStream<dista_jre::SocketOutputStream>) {
    if let Role::Leader { followers } = &core.role {
        followers.lock().push(sink);
    }
}

/// Parks a session whose output stream was handed over as a push
/// channel. Its peer only listens, so the session ends with the
/// connection (EOF, or closed by `stop`), not with a quiet block timeout:
/// returning is what makes the server hang up.
fn keep_reading_until_eof(input: ObjectInputStream<dista_jre::SocketInputStream>) {
    loop {
        match input.read_object() {
            Ok(_) | Err(JreError::Net(NetError::Timeout(_))) => {}
            Err(_) => return,
        }
    }
}

static NEXT_SESSION_TOKEN: std::sync::atomic::AtomicI64 = std::sync::atomic::AtomicI64::new(1);

/// A change notification pushed to a watcher.
#[derive(Debug, Clone)]
pub struct WatchEvent {
    /// The changed path.
    pub path: String,
    /// The new value, taints intact.
    pub data: TaintedBytes,
}

/// A client's watch channel: blocks on pushed [`WatchEvent`]s.
#[derive(Debug)]
pub struct ZkWatcher {
    input: ObjectInputStream<dista_jre::SocketInputStream>,
    socket: Socket,
}

impl ZkWatcher {
    /// Blocks until the next watch event arrives.
    ///
    /// # Errors
    ///
    /// Transport errors (including session close).
    pub fn await_event(&self) -> Result<WatchEvent, ZkError> {
        let event = self.input.read_object()?;
        if event.class_name() != Some("WatchEvent") {
            return Err(ZkError::Io(JreError::Protocol("expected a WatchEvent")));
        }
        let path = event
            .field("path")
            .and_then(ObjValue::as_str)
            .ok_or(JreError::Protocol("event missing path"))?
            .to_string();
        let data = match event.field("data") {
            Some(ObjValue::Bytes(b)) => b.clone(),
            _ => TaintedBytes::new(),
        };
        Ok(WatchEvent { path, data })
    }

    /// Closes the watch channel.
    pub fn close(&self) {
        self.socket.close();
    }
}

/// A server's answer: its status, its data, and for a write the number
/// of the commit that made it (0 when nothing was committed).
pub(crate) struct Reply {
    status: i64,
    data: TaintedBytes,
    zxid: i64,
}

/// A ZooKeeper client session.
#[derive(Debug)]
pub struct ZkClient {
    vm: Vm,
    addr: NodeAddr,
    token: i64,
    input: ObjectInputStream<dista_jre::SocketInputStream>,
    output: ObjectOutputStream<dista_jre::SocketOutputStream>,
    socket: Socket,
}

impl ZkClient {
    /// Connects to a server's client port.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(vm: &Vm, addr: NodeAddr) -> Result<Self, ZkError> {
        let socket = Socket::connect(vm, addr)?;
        Ok(ZkClient {
            vm: vm.clone(),
            addr,
            token: NEXT_SESSION_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            input: ObjectInputStream::new(socket.input_stream()),
            output: ObjectOutputStream::new(socket.output_stream()),
            socket,
        })
    }

    /// Opens this session's watch channel. Call before [`ZkClient::watch`].
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn attach_watcher(&self) -> Result<ZkWatcher, ZkError> {
        let socket = Socket::connect(&self.vm, self.addr)?;
        ObjectOutputStream::new(socket.output_stream()).write_object(&ObjValue::Record(
            "WatcherAttach".into(),
            vec![("token".into(), ObjValue::int_plain(self.token))],
        ))?;
        Ok(ZkWatcher {
            input: ObjectInputStream::new(socket.input_stream()),
            socket,
        })
    }

    /// Registers a one-shot watch on `path`; the next create/set there
    /// pushes a [`WatchEvent`] to this session's watcher.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn watch(&self, path: &str) -> Result<(), ZkError> {
        let request = ObjValue::Record(
            "ZkRequest".into(),
            vec![
                ("op".into(), ObjValue::str_plain("watch")),
                ("path".into(), ObjValue::str_plain(path)),
                ("token".into(), ObjValue::int_plain(self.token)),
                ("data".into(), ObjValue::Bytes(TaintedBytes::new())),
            ],
        );
        self.output.write_object(&request)?;
        let response = self.input.read_object()?;
        let status = response
            .field("status")
            .and_then(ObjValue::as_int)
            .ok_or(JreError::Protocol("malformed zk response"))?;
        Self::check(status, path)
    }

    pub(crate) fn call_raw(
        &self,
        op: &str,
        path: &str,
        data: TaintedBytes,
    ) -> Result<Reply, ZkError> {
        let request = ObjValue::Record(
            "ZkRequest".into(),
            vec![
                ("op".into(), ObjValue::str_plain(op)),
                ("path".into(), ObjValue::str_plain(path)),
                ("data".into(), ObjValue::Bytes(data)),
            ],
        );
        self.output.write_object(&request)?;
        let response = self.input.read_object()?;
        let status = response
            .field("status")
            .and_then(ObjValue::as_int)
            .ok_or(JreError::Protocol("malformed zk response"))?;
        let data = match response.field("data") {
            Some(ObjValue::Bytes(b)) => b.clone(),
            _ => TaintedBytes::new(),
        };
        let zxid = response.field("zxid").and_then(ObjValue::as_int);
        Ok(Reply {
            status,
            data,
            zxid: zxid.unwrap_or(0),
        })
    }

    fn check(status: i64, path: &str) -> Result<(), ZkError> {
        match status {
            STATUS_OK => Ok(()),
            STATUS_NO_NODE => Err(ZkError::NoNode(path.to_string())),
            STATUS_NODE_EXISTS => Err(ZkError::NodeExists(path.to_string())),
            _ => Err(ZkError::Io(JreError::Protocol("unknown zk status"))),
        }
    }

    /// Creates a node.
    ///
    /// # Errors
    ///
    /// [`ZkError::NodeExists`] or transport errors.
    pub fn create(&self, path: &str, data: TaintedBytes) -> Result<(), ZkError> {
        Self::check(self.call_raw("create", path, data)?.status, path)
    }

    /// Overwrites a node.
    ///
    /// # Errors
    ///
    /// [`ZkError::NoNode`] or transport errors.
    pub fn set(&self, path: &str, data: TaintedBytes) -> Result<(), ZkError> {
        Self::check(self.call_raw("set", path, data)?.status, path)
    }

    /// Reads a node (with the stored per-byte taints, which crossed the
    /// wire both ways — and through replication).
    ///
    /// # Errors
    ///
    /// [`ZkError::NoNode`] or transport errors.
    pub fn get(&self, path: &str) -> Result<TaintedBytes, ZkError> {
        let reply = self.call_raw("get", path, TaintedBytes::new())?;
        Self::check(reply.status, path)?;
        Ok(reply.data)
    }

    /// Whether a node exists.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn exists(&self, path: &str) -> Result<bool, ZkError> {
        let reply = self.call_raw("exists", path, TaintedBytes::new())?;
        Self::check(reply.status, path)?;
        Ok(reply.data.data() == [1])
    }

    /// The VM running this client.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Closes the session.
    pub fn close(&self) {
        self.socket.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dista_core::{Cluster, Mode};
    use dista_taint::TagValue;

    fn rig() -> (Cluster, ZkServerHandle) {
        let cluster = Cluster::builder(Mode::Dista)
            .nodes("zk", 2)
            .build()
            .unwrap();
        let server =
            ZkServerHandle::start_standalone(cluster.vm(0), NodeAddr::new([10, 0, 0, 1], 2181))
                .unwrap();
        (cluster, server)
    }

    #[test]
    fn create_get_set_exists() {
        let (cluster, server) = rig();
        let client = ZkClient::connect(cluster.vm(1), server.addr()).unwrap();
        assert!(!client.exists("/a").unwrap());
        client
            .create("/a", TaintedBytes::from_plain(b"v1".to_vec()))
            .unwrap();
        assert!(client.exists("/a").unwrap());
        assert_eq!(client.get("/a").unwrap().data(), b"v1");
        client
            .set("/a", TaintedBytes::from_plain(b"v2".to_vec()))
            .unwrap();
        assert_eq!(client.get("/a").unwrap().data(), b"v2");
        client.close();
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn error_statuses() {
        let (cluster, server) = rig();
        let client = ZkClient::connect(cluster.vm(1), server.addr()).unwrap();
        assert_eq!(
            client.get("/missing"),
            Err(ZkError::NoNode("/missing".into()))
        );
        client.create("/dup", TaintedBytes::new()).unwrap();
        assert_eq!(
            client.create("/dup", TaintedBytes::new()),
            Err(ZkError::NodeExists("/dup".into()))
        );
        assert_eq!(
            client.set("/nope", TaintedBytes::new()),
            Err(ZkError::NoNode("/nope".into()))
        );
        client.close();
        server.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn taints_survive_store_and_fetch() {
        // Client A writes tainted data; client B (different node) reads
        // it back — the taint crosses client→server→client.
        let (cluster, server) = rig();
        let writer = ZkClient::connect(cluster.vm(1), server.addr()).unwrap();
        let t = cluster
            .vm(1)
            .store()
            .mint_source_taint(TagValue::str("meta"));
        writer
            .create("/hbase/meta", TaintedBytes::uniform(b"rs2:16020", t))
            .unwrap();

        let reader = ZkClient::connect(cluster.vm(1), server.addr()).unwrap();
        let got = reader.get("/hbase/meta").unwrap();
        assert_eq!(got.data(), b"rs2:16020");
        assert_eq!(
            cluster
                .vm(1)
                .store()
                .tag_values(got.taint_union(cluster.vm(1).store())),
            vec!["meta".to_string()]
        );
        writer.close();
        reader.close();
        server.shutdown();
        cluster.shutdown();
    }
}
