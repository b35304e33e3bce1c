//! The `circlekit serve` child process: start it on a packed snapshot,
//! time its set-up, read its peak memory, stop it.

use crate::load::Conn;
use crate::workload::Proto;
use circlekit_serve::Request;
use std::io::{BufRead as _, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a stopping daemon may take to drain and exit.
const EXIT_PATIENCE: Duration = Duration::from_secs(30);

/// A running daemon. Dropping it kills the process if it was not
/// stopped.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    stopped: bool,
}

impl Daemon {
    /// Spawns `circlekit serve` with its default settings on `snapshot`
    /// and returns it with its set-up time in seconds: from spawn until
    /// the first `health` reply (snapshot open, checks, decode,
    /// median-degree precompute, listener).
    ///
    /// # Errors
    ///
    /// A message when the process cannot start, exits early, or does not
    /// answer `health`.
    pub fn start(binary: &Path, snapshot: &Path) -> Result<(Daemon, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on `Drop` reaps the child on every error path.
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stopped: false,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("circlekit-serve listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report its address (said {line:?})"))?;
        Conn::connect(daemon.addr, Proto::Json)?.call(&Request::Health)?;
        Ok((daemon, started.elapsed().as_secs_f64()))
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// A message when `/proc` cannot be read.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Asks the daemon to drain and exit, waits for it, and returns its
    /// final report line.
    ///
    /// # Errors
    ///
    /// A message when the shutdown request fails, the process does not
    /// exit in time (it is then killed), or it exits unsuccessfully.
    pub fn stop(mut self) -> Result<String, String> {
        self.stopped = true;
        let asked =
            Conn::connect(self.addr, Proto::Json).and_then(|mut c| c.call(&Request::Shutdown));
        let deadline = Instant::now() + EXIT_PATIENCE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("daemon did not exit within {EXIT_PATIENCE:?}"));
                }
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        asked?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(rest.trim().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
        }
        // Reap the process on every path; errors cannot be reported here.
        let _ = self.child.wait();
    }
}
