//! The closed-loop load generator: one thread per connection, each
//! sending its next pre-encoded request only after the previous reply
//! has been read, decoded and checked.

use crate::trace::Span;
use crate::workload::{encode, OpKind, Proto};
use circlekit_serve::protocol::wire;
use circlekit_serve::{binary, read_frame, Request};
use serde_json::Value;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply slower than this counts as a failure (and ends the loop on
/// that connection, whose framing is then unknown).
pub const CALL_TIMEOUT: Duration = Duration::from_secs(20);

/// Length of the slices a measured window is cut into (see
/// [`crate::report::summarize`]).
pub const SLICE: Duration = Duration::from_millis(100);

/// The machine's CPU time from `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// All CPU time.
    pub total: u64,
}

/// Reads the machine's CPU ticks (all zero when `/proc/stat` is missing).
pub fn cpu_ticks() -> CpuTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    CpuTicks {
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().sum(),
    }
}

/// One blocking connection to the daemon.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// The connection's wire protocol.
    pub proto: Proto,
}

impl Conn {
    /// Connects with Nagle off and a read timeout of [`CALL_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// A message naming the address.
    pub fn connect(addr: SocketAddr, proto: Proto) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(CALL_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Conn { stream, proto })
    }

    /// Sends one complete request frame and returns the decoded `ok:true`
    /// response, plus its raw text on a JSON connection.
    ///
    /// # Errors
    ///
    /// Transport and framing failures, and `ok:false` responses.
    pub fn send(&mut self, frame: &[u8]) -> Result<(Value, Option<String>), String> {
        self.stream
            .write_all(frame)
            .map_err(|e| format!("write: {e}"))?;
        let (value, raw) = match self.proto {
            Proto::Json => {
                let text = read_frame(&mut self.stream).map_err(|e| format!("read: {e}"))?;
                let value = serde_json::from_str(&text)
                    .map_err(|e| format!("response is not JSON: {e}"))?;
                (value, Some(text))
            }
            Proto::Ckp1 => {
                let frame = binary::read_frame_patiently(&mut self.stream, |_| false)
                    .map_err(|e| format!("read: {e}"))?
                    .ok_or_else(|| format!("no reply within {CALL_TIMEOUT:?}"))?;
                let value = binary::decode_response_payload(&frame.payload)?;
                (value, None)
            }
        };
        match wire::get(&value, "ok") {
            Some(Value::Bool(true)) => Ok((value, raw)),
            _ => Err(format!("error reply: {value}")),
        }
    }

    /// Encodes and sends one request.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`].
    pub fn call(&mut self, request: &Request) -> Result<Value, String> {
        self.send(&encode(request, self.proto))
            .map(|(value, _)| value)
    }
}

/// One successful, timed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The op.
    pub op: OpKind,
    /// Connection index (0 = CKP1, 1 = JSON).
    pub conn: usize,
    /// Index into the connection's request stream.
    pub index: usize,
    /// Send time, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Client-observed latency in nanoseconds.
    pub latency_ns: u64,
}

/// What a reply check decided: `Ok(None)` accepts the reply, `Ok(Some)`
/// keeps its scores for a check after the window, `Err` fails it.
pub type Verdict = Result<Option<Vec<f64>>, String>;

/// How one phase of load runs.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Time origin of samples and spans.
    pub origin: Instant,
    /// Stop sending at this instant.
    pub until: Instant,
    /// Record a [`Sample`] per successful request.
    pub record: bool,
    /// Record a client span per request.
    pub trace: bool,
    /// Keep the raw text of up to this many JSON replies.
    pub capture: usize,
}

/// The outcome of one phase on one connection.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Successful requests, when recording.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed or whose reply was wrong.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Scores kept for checking after the window, by stream index.
    pub deferred: Vec<(usize, Vec<f64>)>,
    /// Client spans, when tracing.
    pub spans: Vec<Span>,
    /// Raw JSON replies, by stream index.
    pub captured: Vec<(usize, String)>,
    /// Slice boundaries seen by connection 0 when recording: time since
    /// the origin and the machine's [`cpu_ticks`] at that instant.
    pub marks: Vec<(u64, CpuTicks)>,
    /// Whether the connection stopped early because its (non-wrapping)
    /// stream ran out.
    pub exhausted: bool,
}

impl ConnRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// Drives one connection until `phase.until`, starting at stream
/// position `*cursor` and advancing it.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    conn_index: usize,
    conn: &mut Conn,
    ops: &[OpKind],
    frames: &[Vec<u8>],
    cursor: &mut usize,
    wraps: bool,
    phase: Phase,
    check: &(dyn Fn(usize, usize, &Value) -> Verdict + Sync),
) -> ConnRun {
    let mut run = ConnRun::default();
    let ns = |at: Instant| at.saturating_duration_since(phase.origin).as_nanos() as u64;
    let marking = phase.record && conn_index == 0;
    let mut next_mark = Instant::now();
    while Instant::now() < phase.until {
        if marking && Instant::now() >= next_mark {
            run.marks.push((ns(Instant::now()), cpu_ticks()));
            next_mark += SLICE;
        }
        if *cursor >= frames.len() && !wraps {
            run.exhausted = true;
            break;
        }
        let index = *cursor % frames.len();
        *cursor += 1;
        run.attempted += 1;
        let start = Instant::now();
        let reply = conn.send(&frames[index]);
        let end = Instant::now();
        let (value, raw) = match reply {
            Ok(reply) => reply,
            Err(why) => {
                // The connection's framing is unknown after a transport
                // failure; stop using it.
                run.fail(format!("connection {conn_index} request {index}: {why}"));
                break;
            }
        };
        let op = ops[index];
        if phase.trace {
            run.spans.push(Span {
                name: op.client_span(),
                start_ns: ns(start),
                end_ns: ns(end),
                parent: None,
                request: request_id(conn_index, index),
            });
        }
        match check(conn_index, index, &value) {
            Ok(keep) => {
                if let Some(scores) = keep {
                    run.deferred.push((index, scores));
                }
                if phase.record {
                    run.samples.push(Sample {
                        op,
                        conn: conn_index,
                        index,
                        start_ns: ns(start),
                        latency_ns: (end - start).as_nanos() as u64,
                    });
                }
                if let Some(text) = raw {
                    if run.captured.len() < phase.capture {
                        run.captured.push((index, text));
                    }
                }
            }
            Err(why) => run.fail(format!("connection {conn_index} request {index}: {why}")),
        }
    }
    if marking {
        run.marks.push((ns(Instant::now()), cpu_ticks()));
    }
    run
}

/// Request id of stream position `index` on connection `conn`.
pub fn request_id(conn: usize, index: usize) -> u64 {
    ((conn as u64) << 40) | index as u64
}

/// Runs one phase on every connection at once: connection 0 on the
/// calling thread, each other connection on its own scoped thread.
pub fn drive(
    conns: &mut [Conn],
    ops: &[Vec<OpKind>],
    frames: &[Vec<Vec<u8>>],
    cursors: &mut [usize],
    wraps: bool,
    phase: Phase,
    check: &(dyn Fn(usize, usize, &Value) -> Verdict + Sync),
) -> Vec<ConnRun> {
    std::thread::scope(|scope| {
        let mut parts = conns.iter_mut().zip(cursors.iter_mut()).enumerate();
        let (first, (conn0, cursor0)) = parts.next().expect("at least one connection");
        let others: Vec<_> = parts
            .map(|(c, (conn, cursor))| {
                let (ops, frames) = (&ops[c], &frames[c]);
                scope.spawn(move || {
                    drive_connection(c, conn, ops, frames, cursor, wraps, phase, check)
                })
            })
            .collect();
        let mut runs = vec![drive_connection(
            first,
            conn0,
            &ops[first],
            &frames[first],
            cursor0,
            wraps,
            phase,
            check,
        )];
        runs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("load thread panicked")),
        );
        runs
    })
}
