//! The `scoutctl serve` child process: start, readiness, scraping, stop.

use crate::plan::Kind;
use obs::json::Value;
use serve::Client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest a server may take to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(150);
/// The server stops itself after this long even if the benchmark dies.
const MAX_RUNTIME_SECS: u64 = 170;

pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn to the first 200 from `/readyz`.
    pub setup_s: f64,
    wal_dir: Option<PathBuf>,
}

impl Server {
    /// Spawn `scoutctl serve` with its deployed defaults for `kind` and
    /// wait until `/readyz` answers 200. `scratch` is a directory the
    /// server may write its WAL under.
    pub fn start(
        bin: &Path,
        kind: Kind,
        world_seed: u64,
        scratch: &Path,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--seed"])
            .arg(world_seed.to_string())
            .args(["--max-runtime-secs", &MAX_RUNTIME_SECS.to_string()]);
        let wal_dir = match kind {
            Kind::RouteFresh | Kind::RouteStorm => {
                cmd.args(["--synthetic-teams", &kind.teams().to_string()]);
                None
            }
            Kind::PredictFeedback => {
                static STARTS: AtomicU64 = AtomicU64::new(0);
                let n = STARTS.fetch_add(1, Ordering::Relaxed);
                let dir = scratch.join(format!("wal-{}-{n}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                cmd.arg("--wal-dir").arg(&dir);
                Some(dir)
            }
        };
        let started = Instant::now();
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: String::new(),
            setup_s: 0.0,
            wal_dir,
        };
        // The server prints exactly one stdout line, once it is bound.
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .ok_or_else(|| format!("server did not start (stdout {line:?})"))?
            .to_string();
        loop {
            if let Ok(resp) = Client::connect(&server.addr).and_then(|mut c| c.get("/readyz")) {
                if resp.status == 200 {
                    break;
                }
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's /proc status".into())
    }

    /// Scrape the registry `/metrics` exports, in its JSON-lines form
    /// (`/metrics.json`), which carries histogram quantiles.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let resp = Client::connect(&self.addr)
            .and_then(|mut c| c.get("/metrics.json"))
            .map_err(|e| format!("scraping metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("/metrics.json answered {}", resp.status));
        }
        let mut scrape = Scrape::default();
        for line in resp.body_text().lines() {
            let Some(v) = Value::parse(line) else {
                continue;
            };
            let (Some(kind), Some(name)) = (
                v.get("type").and_then(Value::as_str),
                v.get("name").and_then(Value::as_str),
            ) else {
                continue;
            };
            let field = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            match kind {
                "counter" | "gauge" => {
                    scrape.values.insert(name.to_string(), field("value"));
                }
                "histogram" => {
                    for stat in ["count", "mean", "p50"] {
                        scrape.values.insert(format!("{name}:{stat}"), field(stat));
                    }
                }
                _ => {}
            }
        }
        Ok(scrape)
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = self.wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Counters, gauges and histogram stats (`name:count`, `name:mean`,
/// `name:p50`) from one scrape.
#[derive(Debug, Default)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
}

impl Scrape {
    /// The named value, 0 when the server never registered it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}
