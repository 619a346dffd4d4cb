//! The campaign server: admission, sharded execution, NDJSON event
//! streams and checkpoint/resume.
//!
//! One [`Server`] owns three thread families, all fixed-size and
//! spawned at startup (no per-request threads):
//!
//! * an **acceptor** pushing connections onto a bounded hand-off queue;
//! * **HTTP workers** popping connections and serving one request each
//!   (an event-stream tail occupies its worker until the campaign
//!   finishes — size the pool for the expected number of tails);
//! * **simulation workers** popping `(campaign, fault index)` jobs from
//!   a shared work queue — faults from every admitted campaign shard
//!   across the same pool, so one giant campaign cannot starve the
//!   daemon and small ones finish early.
//!
//! Durability: the spec document is persisted before the campaign is
//! admitted, every completed fault is appended to the campaign's
//! NDJSON checkpoint, and the final result document is written with a
//! tmp-file + rename. On startup the server scans the state directory
//! and resumes every campaign that has a spec but no result, replaying
//! the checkpoint (completed faults are **not** re-simulated) and
//! queueing only the remainder.

use crate::checkpoint;
use crate::http::{self, ChunkedStream, Request};
use crate::state::{CampaignPhase, EventLog};
use anafault::campaign::CampaignProgress;
use anafault::protocol::{self, CampaignSpec};
use anafault::{Fault, FaultRecord, PreparedCampaign};
use cat_telemetry::json::Json;
use diagnose::Diagnoser;
use std::collections::{BTreeMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Daemon configuration. `Default` gives a loopback ephemeral port and
/// conservative quotas; binaries override from flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4817`; port 0 picks one.
    pub addr: String,
    /// Directory for specs, checkpoints and results.
    pub state_dir: PathBuf,
    /// Simulation worker threads; 0 = one per core.
    pub sim_workers: usize,
    /// HTTP handler threads (each event-stream tail holds one).
    pub http_workers: usize,
    /// Maximum concurrently *running* campaigns; admission above this
    /// answers 429.
    pub max_campaigns: usize,
    /// Maximum faults a single client may have in running campaigns;
    /// admission above this answers 429. Campaigns without a `client`
    /// share the anonymous bucket.
    pub client_fault_budget: usize,
    /// State-dir retention: keep the checkpoints, results and
    /// dictionaries of the `n` most recent *completed* campaigns and
    /// delete the rest — applied at startup and whenever a campaign
    /// completes. `None` keeps everything.
    pub retain: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("anafault-state"),
            sim_workers: 0,
            http_workers: 8,
            max_campaigns: 8,
            client_fault_budget: 100_000,
            retain: None,
        }
    }
}

/// Mutable per-campaign completion state, under one lock so checkpoint
/// lines, slots and the completed counter can never disagree.
struct RunProgress {
    slots: Vec<Option<FaultRecord>>,
    completed: usize,
    checkpoint: File,
}

/// One admitted campaign.
struct CampaignRun {
    id: String,
    client: String,
    faults: Vec<Fault>,
    prepared: PreparedCampaign,
    progress: Mutex<RunProgress>,
    /// Records replayed from the checkpoint at admission.
    replayed: u64,
    /// Duplicate fault entries trimmed from the spec at admission,
    /// patched into the final result's telemetry.
    deduped: u64,
    resumed: bool,
    started: Instant,
    log: EventLog,
    phase: Mutex<CampaignPhase>,
}

impl CampaignRun {
    fn phase(&self) -> CampaignPhase {
        *self.phase.lock().expect("phase poisoned")
    }

    fn completed(&self) -> usize {
        self.progress.lock().expect("progress poisoned").completed
    }

    /// Status object for listings and `GET /campaigns/<id>`.
    fn status_json(&self) -> Json {
        Json::object([
            ("id", self.id.as_str().into()),
            ("phase", self.phase().as_str().into()),
            ("completed", self.completed().into()),
            ("total", self.faults.len().into()),
            ("replayed_faults", self.replayed.into()),
            ("resumed", self.resumed.into()),
            ("client", self.client.as_str().into()),
        ])
    }

    /// The 409 body for reads of a campaign that has not finished.
    fn still_running_body(&self) -> String {
        json_line(Json::object([
            ("error", "campaign still running".into()),
            ("completed", self.completed().into()),
            ("total", self.faults.len().into()),
        ]))
    }
}

/// A response body: one compact JSON line.
fn json_line(value: Json) -> String {
    format!("{value}\n")
}

fn error_body(message: &str) -> String {
    json_line(Json::object([("error", message.into())]))
}

/// Status object of a campaign known only from its result file.
fn done_json(id: &str) -> Json {
    Json::object([("id", id.into()), ("phase", "done".into())])
}

/// Quotas reserved at admission, released when a campaign finishes.
#[derive(Default)]
struct Quota {
    running_campaigns: usize,
    client_faults: BTreeMap<String, usize>,
}

struct Inner {
    config: ServerConfig,
    campaigns: Mutex<BTreeMap<String, Arc<CampaignRun>>>,
    queue: Mutex<VecDeque<(Arc<CampaignRun>, usize)>>,
    queue_grew: Condvar,
    connections: Mutex<VecDeque<TcpStream>>,
    connections_grew: Condvar,
    quota: Mutex<Quota>,
    next_id: AtomicUsize,
}

/// A running campaign server. Worker threads live for the process —
/// dropping the handle does not stop them (the daemon's lifetime *is*
/// the process; tests rely on process exit).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
}

impl Server {
    /// Binds, resumes any interrupted campaigns from the state
    /// directory, and spawns the worker pools.
    ///
    /// # Errors
    /// Bind/listen failures and an unreadable state directory.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        fs::create_dir_all(&config.state_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let sim_workers = anafault::worker_threads(config.sim_workers);
        let http_workers = config.http_workers.max(1);
        let inner = Arc::new(Inner {
            config,
            campaigns: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_grew: Condvar::new(),
            connections: Mutex::new(VecDeque::new()),
            connections_grew: Condvar::new(),
            quota: Mutex::new(Quota::default()),
            next_id: AtomicUsize::new(1),
        });
        inner.resume_state_dir()?;
        inner.gc_state_dir();
        for _ in 0..sim_workers {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.sim_worker_loop());
        }
        for _ in 0..http_workers {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || inner.http_worker_loop());
        }
        {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                for stream in listener.incoming().flatten() {
                    let mut q = inner.connections.lock().expect("connections poisoned");
                    q.push_back(stream);
                    inner.connections_grew.notify_one();
                }
            });
        }
        Ok(Server { inner, addr })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The state directory in use.
    pub fn state_dir(&self) -> &Path {
        &self.inner.config.state_dir
    }
}

impl Inner {
    fn spec_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.spec.json"))
    }

    fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.ndjson"))
    }

    fn result_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.result.json"))
    }

    fn dict_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.dict.json"))
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    fn sim_worker_loop(self: Arc<Self>) {
        loop {
            let (run, index) = {
                let mut q = self.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    q = self.queue_grew.wait(q).expect("queue poisoned");
                }
            };
            let record = run.prepared.simulate_fault(&run.faults[index]);
            self.complete_fault(&run, index, record);
        }
    }

    fn complete_fault(&self, run: &Arc<CampaignRun>, index: usize, record: FaultRecord) {
        let finished = {
            let mut p = run.progress.lock().expect("progress poisoned");
            p.completed += 1;
            let event = CampaignProgress {
                index,
                completed: p.completed,
                total: run.faults.len(),
                record,
            };
            let line = protocol::progress_to_json(&event);
            if let Err(e) = checkpoint::append_line(&mut p.checkpoint, &line) {
                eprintln!(
                    "anafault-serve: checkpoint write failed for {}: {e}",
                    run.id
                );
            }
            p.slots[index] = Some(event.record);
            run.log.push(line);
            p.completed == run.faults.len()
        };
        if finished {
            self.finalize(run);
        }
    }

    fn finalize(&self, run: &Arc<CampaignRun>) {
        let records: Vec<FaultRecord> = {
            let mut p = run.progress.lock().expect("progress poisoned");
            p.slots
                .iter_mut()
                .map(|s| s.take().expect("every fault completed"))
                .collect()
        };
        // Wall-clock here spans this process's share of the campaign
        // only; a resumed campaign's pre-kill time is not recoverable.
        let mut result =
            run.prepared
                .finish(records, run.replayed, run.started.elapsed().as_secs_f64());
        result.telemetry.deduped_faults = run.deduped;
        let text = protocol::to_json(&result);
        let path = self.result_path(&run.id);
        let tmp = self.config.state_dir.join(format!("{}.result.tmp", run.id));
        let written = fs::write(&tmp, &text).and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!("anafault-serve: result write failed for {}: {e}", run.id);
        }
        // Flip the phase before closing the stream: a client that sees
        // the stream end must never read "still running" (409) from the
        // result endpoint afterwards.
        *run.phase.lock().expect("phase poisoned") = CampaignPhase::Done;
        run.log.push(protocol::result_event_json(&result));
        run.log.close();
        self.release_quota(&run.client, run.faults.len());
        self.gc_state_dir();
    }

    /// Applies the retention policy: the `retain` most recent completed
    /// campaigns (by numeric id) keep their state files; older completed
    /// ones lose spec, checkpoint, result and dictionary, and leave the
    /// in-memory table. Running campaigns and ids outside the daemon's
    /// `cN` scheme are never touched.
    fn gc_state_dir(&self) {
        let Some(retain) = self.config.retain else {
            return;
        };
        let Ok(dir) = fs::read_dir(&self.config.state_dir) else {
            return;
        };
        let mut done: Vec<(usize, String)> = Vec::new();
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(".result.json") else {
                continue;
            };
            if let Some(n) = id.strip_prefix('c').and_then(|n| n.parse::<usize>().ok()) {
                done.push((n, id.to_string()));
            }
        }
        done.sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
        let mut campaigns = self.campaigns.lock().expect("campaigns poisoned");
        for (_, id) in done.into_iter().skip(retain) {
            for path in [
                self.spec_path(&id),
                self.checkpoint_path(&id),
                self.result_path(&id),
                self.dict_path(&id),
            ] {
                fs::remove_file(path).ok();
            }
            if campaigns
                .get(&id)
                .is_some_and(|run| run.phase() == CampaignPhase::Done)
            {
                campaigns.remove(&id);
            }
        }
    }

    /// Registers a prepared campaign, replays checkpointed records,
    /// rewrites the checkpoint to a clean prefix and queues the
    /// remaining faults. Quota must already be reserved.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        self: &Arc<Self>,
        id: String,
        client: String,
        faults: Vec<Fault>,
        prepared: PreparedCampaign,
        replayed_records: &[FaultRecord],
        deduped: u64,
        resumed: bool,
    ) -> io::Result<Arc<CampaignRun>> {
        let total = faults.len();
        // Rewrite the checkpoint from scratch: this renumbers the
        // replayed lines 1..k, drops any torn tail, and leaves the file
        // open for the live appends that follow.
        let mut checkpoint_file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.checkpoint_path(&id))?;
        let log = EventLog::new();
        let mut slots: Vec<Option<FaultRecord>> = vec![None; total];
        let mut completed = 0usize;
        for (i, record) in anafault::match_checkpoint(&faults, replayed_records) {
            completed += 1;
            let line = protocol::progress_to_json(&CampaignProgress {
                index: i,
                completed,
                total,
                record: record.clone(),
            });
            checkpoint::append_line(&mut checkpoint_file, &line)?;
            log.push(line);
            slots[i] = Some(record.clone());
        }
        let replayed = completed as u64;
        if resumed {
            crate::SERVE_CAMPAIGNS_RESUMED.inc();
            crate::SERVE_FAULTS_REPLAYED.add(replayed);
        } else {
            crate::SERVE_CAMPAIGNS_STARTED.inc();
        }
        let run = Arc::new(CampaignRun {
            id: id.clone(),
            client,
            faults,
            prepared,
            progress: Mutex::new(RunProgress {
                slots,
                completed,
                checkpoint: checkpoint_file,
            }),
            replayed,
            deduped,
            resumed,
            started: Instant::now(),
            log,
            phase: Mutex::new(CampaignPhase::Running),
        });
        self.campaigns
            .lock()
            .expect("campaigns poisoned")
            .insert(id, Arc::clone(&run));
        let remaining: Vec<usize> = (0..total)
            .filter(|&i| run.progress.lock().expect("progress poisoned").slots[i].is_none())
            .collect();
        if remaining.is_empty() {
            self.finalize(&run);
        } else {
            let mut q = self.queue.lock().expect("queue poisoned");
            for i in remaining {
                q.push_back((Arc::clone(&run), i));
            }
            self.queue_grew.notify_all();
        }
        Ok(run)
    }

    /// Scans the state directory at startup and resumes every campaign
    /// that has a spec but no result document.
    fn resume_state_dir(self: &Arc<Self>) -> io::Result<()> {
        let mut max_id = 0usize;
        let mut pending: Vec<String> = Vec::new();
        for entry in fs::read_dir(&self.config.state_dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(".spec.json") else {
                continue;
            };
            if let Some(n) = id.strip_prefix('c').and_then(|n| n.parse::<usize>().ok()) {
                max_id = max_id.max(n);
            }
            if !self.result_path(id).exists() {
                pending.push(id.to_string());
            }
        }
        self.next_id.store(max_id + 1, Ordering::Relaxed);
        for id in pending {
            if let Err(e) = self.resume_one(&id) {
                eprintln!("anafault-serve: cannot resume campaign {id}: {e}");
            }
        }
        Ok(())
    }

    fn resume_one(self: &Arc<Self>, id: &str) -> io::Result<()> {
        let text = fs::read_to_string(self.spec_path(id))?;
        let mut spec = CampaignSpec::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Specs are persisted post-dedup, so this is a no-op for the
        // daemon's own files — it matters only for hand-placed specs.
        let deduped = spec.dedup_faults();
        let campaign = spec
            .build_campaign()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let prepared = campaign
            .prepare()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let faults = prepared.budgeted(&spec.faults).to_vec();
        let client = spec.client.clone().unwrap_or_default();
        let replay = checkpoint::load(&self.checkpoint_path(id))?;
        if replay.torn {
            eprintln!(
                "anafault-serve: checkpoint for {id} had a torn tail; {} clean records kept",
                replay.records.len()
            );
        }
        self.reserve_quota_unchecked(&client, faults.len());
        self.launch(
            id.to_string(),
            client,
            faults,
            prepared,
            &replay.records,
            deduped,
            true,
        )?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Quotas
    // -----------------------------------------------------------------

    /// Admission-time reservation; answers `Err` with the reason when a
    /// quota would be exceeded.
    fn try_reserve_quota(&self, client: &str, faults: usize) -> Result<(), String> {
        let mut quota = self.quota.lock().expect("quota poisoned");
        if quota.running_campaigns >= self.config.max_campaigns {
            return Err(format!(
                "campaign quota exhausted: {} running, limit {}",
                quota.running_campaigns, self.config.max_campaigns
            ));
        }
        let in_flight = quota.client_faults.get(client).copied().unwrap_or(0);
        if in_flight + faults > self.config.client_fault_budget {
            return Err(format!(
                "fault budget exhausted for client `{client}`: {in_flight} in flight + {faults} \
                 requested > {}",
                self.config.client_fault_budget
            ));
        }
        quota.running_campaigns += 1;
        *quota.client_faults.entry(client.to_string()).or_insert(0) += faults;
        Ok(())
    }

    /// Resume-time reservation: restarting the daemon never rejects its
    /// own interrupted campaigns, even if quotas were lowered.
    fn reserve_quota_unchecked(&self, client: &str, faults: usize) {
        let mut quota = self.quota.lock().expect("quota poisoned");
        quota.running_campaigns += 1;
        *quota.client_faults.entry(client.to_string()).or_insert(0) += faults;
    }

    fn release_quota(&self, client: &str, faults: usize) {
        let mut quota = self.quota.lock().expect("quota poisoned");
        quota.running_campaigns = quota.running_campaigns.saturating_sub(1);
        if let Some(n) = quota.client_faults.get_mut(client) {
            *n = n.saturating_sub(faults);
            if *n == 0 {
                quota.client_faults.remove(client);
            }
        }
    }

    // -----------------------------------------------------------------
    // HTTP
    // -----------------------------------------------------------------

    fn http_worker_loop(self: Arc<Self>) {
        loop {
            let stream = {
                let mut q = self.connections.lock().expect("connections poisoned");
                loop {
                    if let Some(s) = q.pop_front() {
                        break s;
                    }
                    q = self.connections_grew.wait(q).expect("connections poisoned");
                }
            };
            // Client-side failures (disconnected tails, malformed
            // requests) are per-connection events, not daemon errors.
            let _ = self.handle_connection(stream);
        }
    }

    fn handle_connection(self: &Arc<Self>, stream: TcpStream) -> io::Result<()> {
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) => {
                return http::respond_json(&mut writer, 400, &error_body(&e.to_string()));
            }
        };
        crate::SERVE_REQUESTS.inc();
        self.route(&request, &mut writer)
    }

    fn route(self: &Arc<Self>, request: &Request, out: &mut TcpStream) -> io::Result<()> {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => {
                http::respond_json(out, 200, &json_line(Json::object([("ok", true.into())])))
            }
            ("GET", ["metrics"]) => self.metrics(out),
            ("POST", ["campaigns"]) => self.submit(&request.body, out),
            ("GET", ["campaigns"]) => self.list(out),
            ("GET", ["campaigns", id]) => self.status(id, out),
            ("GET", ["campaigns", id, "events"]) => self.events(id, out),
            ("GET", ["campaigns", id, "result"]) => self.result(id, out),
            ("POST", ["campaigns", id, "dictionary"]) => self.build_dict(id, out),
            ("POST", ["diagnose"]) => self.diagnose(&request.body, out),
            (_, ["healthz" | "metrics" | "campaigns" | "diagnose", ..]) => {
                http::respond_json(out, 405, &error_body("method not allowed"))
            }
            _ => http::respond_json(out, 404, &error_body("no such endpoint")),
        }
    }

    fn metrics(&self, out: &mut TcpStream) -> io::Result<()> {
        let values = cat_telemetry::global().counter_values();
        let doc = Json::object(values.into_iter().map(|(name, value)| (name, value.into())));
        http::respond_json(out, 200, &doc.to_document())
    }

    fn submit(self: &Arc<Self>, body: &str, out: &mut TcpStream) -> io::Result<()> {
        let mut spec = match CampaignSpec::from_json(body) {
            Ok(spec) => spec,
            Err(e) => return http::respond_json(out, 400, &error_body(&e.to_string())),
        };
        if let Some(tag) = &spec.client {
            if !valid_client_tag(tag) {
                let message = "client tag must be 1-64 printable ASCII bytes";
                return http::respond_json(out, 422, &error_body(message));
            }
        }
        // Dedup before the spec is persisted, so a resume of this
        // campaign replays exactly the admitted fault list.
        let deduped = spec.dedup_faults();
        let client = spec.client.clone().unwrap_or_default();
        let budgeted = anafault::apply_budget(spec.max_faults, &spec.faults).len();
        if let Err(reason) = self.try_reserve_quota(&client, budgeted) {
            return http::respond_json(out, 429, &error_body(&reason));
        }
        let id = format!("c{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let admitted = (|| -> Result<Arc<CampaignRun>, String> {
            fs::write(self.spec_path(&id), spec.to_json()).map_err(|e| e.to_string())?;
            let campaign = spec.build_campaign().map_err(|e| e.to_string())?;
            let prepared = campaign
                .prepare()
                .map_err(|e| format!("nominal simulation failed: {e}"))?;
            let faults = prepared.budgeted(&spec.faults).to_vec();
            self.launch(
                id.clone(),
                client.clone(),
                faults,
                prepared,
                &[],
                deduped,
                false,
            )
            .map_err(|e| e.to_string())
        })();
        match admitted {
            Ok(run) => {
                let created = Json::object([
                    ("id", run.id.as_str().into()),
                    ("total", run.faults.len().into()),
                ]);
                http::respond_json(out, 201, &json_line(created))
            }
            Err(reason) => {
                self.release_quota(&client, budgeted);
                fs::remove_file(self.spec_path(&id)).ok();
                fs::remove_file(self.checkpoint_path(&id)).ok();
                http::respond_json(out, 422, &error_body(&reason))
            }
        }
    }

    fn list(&self, out: &mut TcpStream) -> io::Result<()> {
        let campaigns = self.campaigns.lock().expect("campaigns poisoned");
        let mut entries: Vec<Json> = campaigns.values().map(|run| run.status_json()).collect();
        // Campaigns finished in an earlier daemon life exist only on
        // disk; list them as done.
        if let Ok(dir) = fs::read_dir(&self.config.state_dir) {
            for entry in dir.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(id) = name.strip_suffix(".result.json") else {
                    continue;
                };
                if !campaigns.contains_key(id) {
                    entries.push(done_json(id));
                }
            }
        }
        drop(campaigns);
        let listing = Json::object([("campaigns", Json::Array(entries))]);
        http::respond_json(out, 200, &json_line(listing))
    }

    fn find(&self, id: &str) -> Option<Arc<CampaignRun>> {
        self.campaigns
            .lock()
            .expect("campaigns poisoned")
            .get(id)
            .cloned()
    }

    fn status(&self, id: &str, out: &mut TcpStream) -> io::Result<()> {
        if let Some(run) = self.find(id) {
            return http::respond_json(out, 200, &json_line(run.status_json()));
        }
        if self.result_path(id).exists() {
            return http::respond_json(out, 200, &json_line(done_json(id)));
        }
        http::respond_json(out, 404, &error_body("no such campaign"))
    }

    fn events(&self, id: &str, out: &mut TcpStream) -> io::Result<()> {
        if let Some(run) = self.find(id) {
            let mut stream = ChunkedStream::start(out)?;
            let mut cursor = 0usize;
            loop {
                let (lines, drained) = run.log.wait_from(cursor);
                cursor += lines.len();
                for line in &lines {
                    crate::SERVE_STREAM_BYTES.add(stream.send_line(line)?);
                }
                if drained {
                    crate::SERVE_STREAM_BYTES.add(stream.finish()?);
                    return Ok(());
                }
            }
        }
        // Finished in an earlier daemon life: replay the files.
        let result_text = match fs::read_to_string(self.result_path(id)) {
            Ok(text) => text,
            Err(_) => {
                return http::respond_json(out, 404, &error_body("no such campaign"));
            }
        };
        let result = protocol::from_json(&result_text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut stream = ChunkedStream::start(out)?;
        if let Ok(replay) = checkpoint::load(&self.checkpoint_path(id)) {
            let total = result.records.len();
            for (k, record) in replay.records.iter().enumerate() {
                let line = protocol::progress_to_json(&CampaignProgress {
                    index: k,
                    completed: k + 1,
                    total,
                    record: record.clone(),
                });
                crate::SERVE_STREAM_BYTES.add(stream.send_line(&line)?);
            }
        }
        crate::SERVE_STREAM_BYTES.add(stream.send_line(&protocol::result_event_json(&result))?);
        crate::SERVE_STREAM_BYTES.add(stream.finish()?);
        Ok(())
    }

    fn result(&self, id: &str, out: &mut TcpStream) -> io::Result<()> {
        if let Some(run) = self.find(id) {
            if run.phase() != CampaignPhase::Done {
                return http::respond_json(out, 409, &run.still_running_body());
            }
        }
        match fs::read_to_string(self.result_path(id)) {
            Ok(text) => http::respond_json(out, 200, &text),
            Err(_) => http::respond_json(out, 404, &error_body("no such campaign")),
        }
    }

    /// `POST /campaigns/<id>/dictionary`: builds the fault dictionary
    /// from the campaign's result document, persists it next to the
    /// result (tmp + rename, like the result itself) and returns it.
    fn build_dict(&self, id: &str, out: &mut TcpStream) -> io::Result<()> {
        if let Some(run) = self.find(id) {
            if run.phase() != CampaignPhase::Done {
                return http::respond_json(out, 409, &run.still_running_body());
            }
        }
        let text = match fs::read_to_string(self.result_path(id)) {
            Ok(text) => text,
            Err(_) => {
                return http::respond_json(out, 404, &error_body("no such campaign"));
            }
        };
        let result = protocol::from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let dict = match anafault::build_dictionary(&result) {
            Ok(dict) => dict,
            Err(e) => {
                return http::respond_json(out, 422, &error_body(&e.to_string()));
            }
        };
        let doc = protocol::dictionary_to_json(&dict);
        let tmp = self.config.state_dir.join(format!("{id}.dict.tmp"));
        let written = fs::write(&tmp, &doc).and_then(|()| fs::rename(&tmp, self.dict_path(id)));
        if let Err(e) = written {
            eprintln!("anafault-serve: dictionary write failed for {id}: {e}");
            return http::respond_json(out, 500, &error_body(&e.to_string()));
        }
        http::respond_json(out, 201, &doc)
    }

    /// `POST /diagnose`: ranks the request's waveforms against a
    /// previously built (and persisted) dictionary, streaming one
    /// NDJSON candidate line per ambiguity class, best match first.
    fn diagnose(&self, body: &str, out: &mut TcpStream) -> io::Result<()> {
        let request = match protocol::DiagnoseRequest::from_json(body) {
            Ok(request) => request,
            Err(e) => return http::respond_json(out, 400, &error_body(&e.to_string())),
        };
        let text = match fs::read_to_string(self.dict_path(&request.campaign)) {
            Ok(text) => text,
            Err(_) => {
                let message = "no dictionary for campaign; POST /campaigns/<id>/dictionary first";
                return http::respond_json(out, 404, &error_body(message));
            }
        };
        let dict = protocol::dictionary_from_json(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let ranked = match Diagnoser::new(&dict).rank(&request.waves) {
            Ok(ranked) => ranked,
            Err(e) => {
                return http::respond_json(out, 422, &error_body(&e.to_string()));
            }
        };
        let mut stream = ChunkedStream::start(out)?;
        for (k, candidate) in ranked.iter().enumerate() {
            let line = protocol::candidate_json(k + 1, candidate);
            crate::SERVE_STREAM_BYTES.add(stream.send_line(&line)?);
        }
        crate::SERVE_STREAM_BYTES.add(stream.finish()?);
        Ok(())
    }
}

/// Client tags land in quota tables, log lines and state-dir metadata;
/// keep them short and plainly printable.
fn valid_client_tag(tag: &str) -> bool {
    !tag.is_empty() && tag.len() <= 64 && tag.bytes().all(|b| (0x20..=0x7e).contains(&b))
}
