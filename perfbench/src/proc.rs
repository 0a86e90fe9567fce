//! Spawning `chc` and measuring one process: wall time from spawn to
//! exit with its output drained, its exit status, and its own peak RSS.
//!
//! The peak RSS of a single child is only available from `wait4`, which
//! the standard library does not expose, hence the small FFI surface.

#![allow(unsafe_code)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads child rusage through the 64-bit Linux wait4/waitid ABI");

use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// `siginfo_t` is 128 bytes on Linux; only its size matters here.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

extern "C" {
    fn waitid(idtype: i32, id: u32, infop: *mut SigInfo, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

/// One finished child process.
#[derive(Debug, Clone)]
pub struct Run {
    /// Exit code, when the process exited normally.
    pub code: Option<i32>,
    /// Terminating signal, when it was killed.
    pub signal: Option<i32>,
    /// Whether the timeout fired and the process was killed.
    pub timed_out: bool,
    /// Spawn to exit, with stdout and stderr drained.
    pub wall: Duration,
    /// The process's own peak resident set, in KiB.
    pub max_rss_kb: u64,
    /// Everything written to stdout.
    pub stdout: Vec<u8>,
    /// Everything written to stderr.
    pub stderr: Vec<u8>,
}

impl Run {
    /// Why the run counts as failed when only `ok_codes` are results:
    /// a timeout, a signal, or any other exit code.
    pub fn failure(&self, ok_codes: &[i32]) -> Option<String> {
        if self.timed_out {
            return Some(format!("timed out after {:.1} s", self.wall.as_secs_f64()));
        }
        if let Some(sig) = self.signal {
            return Some(format!("killed by signal {sig}"));
        }
        match self.code {
            Some(c) if ok_codes.contains(&c) => None,
            Some(c) => Some(format!(
                "exit {c}: {}",
                String::from_utf8_lossy(&self.stderr)
                    .lines()
                    .last()
                    .unwrap_or("")
            )),
            None => Some("no exit status".to_string()),
        }
    }
}

fn retry_eintr(mut f: impl FnMut() -> i32) -> io::Result<()> {
    loop {
        if f() >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Runs `program args…` in `cwd`, killing it after `timeout`.
pub fn run(program: &Path, args: &[&str], cwd: &Path, timeout: Duration) -> io::Result<Run> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id() as i32;
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut err = child.stderr.take().expect("stderr is piped");
    let (done, stop) = mpsc::channel::<()>();
    let (stdout, stderr, exited, timed_out, wall) = std::thread::scope(|s| {
        let watchdog = s.spawn(move || match stop.recv_timeout(timeout) {
            Err(RecvTimeoutError::Timeout) => {
                // SAFETY: `pid` is our child and has not been reaped: the
                // main thread reaps only after this thread has ended, so
                // the pid cannot name another process yet.
                unsafe { kill(pid, SIGKILL) };
                true
            }
            _ => false,
        });
        let stderr = s.spawn(move || {
            let mut buf = Vec::new();
            err.read_to_end(&mut buf).map(|_| buf)
        });
        let mut stdout = Vec::new();
        let read = out.read_to_end(&mut stdout).map(|_| stdout);
        let mut info = SigInfo([0; 128]);
        // Wait for the exit without reaping, so the pid stays ours until
        // the watchdog has stood down.
        // SAFETY: `info` is a writable buffer of `siginfo_t`'s size and
        // alignment for the duration of the call.
        let exited =
            retry_eintr(|| unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) });
        let wall = start.elapsed();
        let _ = done.send(());
        let timed_out = watchdog.join().expect("watchdog thread panicked");
        let stderr = stderr.join().expect("stderr reader panicked");
        (read, stderr, exited, timed_out, wall)
    });
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are valid for writes of their C types,
    // and `pid` is an unreaped child of this process.
    retry_eintr(|| unsafe { wait4(pid, &mut status, 0, &mut usage) })?;
    drop(child);
    exited?;
    let (code, signal) = match status & 0x7f {
        0 => (Some((status >> 8) & 0xff), None),
        sig => (None, Some(sig)),
    };
    Ok(Run {
        code,
        signal,
        timed_out,
        wall,
        max_rss_kb: usage.maxrss_kb.max(0) as u64,
        stdout: stdout?,
        stderr: stderr?,
    })
}

/// This process's peak resident set in KiB (`VmHWM`), 0 if unknown.
pub fn self_peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_exit_output_and_rss() {
        let sh = Path::new("/bin/sh");
        let ok = run(
            sh,
            &["-c", "echo out; echo err >&2; exit 1"],
            Path::new("."),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(ok.code, Some(1));
        assert_eq!(ok.stdout, b"out\n");
        assert_eq!(ok.stderr, b"err\n");
        assert!(ok.max_rss_kb > 0);
        assert_eq!(ok.failure(&[0, 1]), None);
        assert!(ok.failure(&[0]).unwrap().starts_with("exit 1"));
    }

    #[test]
    fn a_hung_child_is_killed_at_the_timeout() {
        let r = run(
            Path::new("/bin/sh"),
            &["-c", "exec sleep 30"],
            Path::new("."),
            Duration::from_millis(200),
        )
        .unwrap();
        assert!(r.timed_out);
        assert_eq!(r.signal, Some(SIGKILL));
        assert!(r.wall < Duration::from_secs(10));
        assert!(r.failure(&[0, 1]).unwrap().starts_with("timed out"));
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(self_peak_rss_kb() > 0);
    }
}
