//! The server under test: building it, launching it on an OS-chosen
//! port, talking to it, and making sure it never outlives the harness.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Build the release `parscan` binary from the checkout at `root` and
/// return its path. Its own target directory keeps this build from
/// contending for the lock of the `cargo run` that started the harness.
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = root.join(base).join("scanbench-server");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "parscan",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building parscan failed: {status}"));
    }
    Ok(target.join("release").join("parscan"))
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// A running `parscan serve`. Dropping it kills the process and reaps
/// it, so every exit path of the harness — panics included — stops it.
pub struct Server {
    child: Child,
    /// Held open for the server's lifetime: a closed pipe would make its
    /// later prints fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Launch `parscan serve <args> --port 0` and wait for its first
    /// `PING` reply. Returns the server, a connection, and the seconds
    /// from launch to that reply (the boot's `setup_s` sample).
    pub fn launch(bin: &Path, args: &[String]) -> Result<(Server, Conn, f64), String> {
        let start = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .args(args)
            .args(["--port", "0"])
            // Default settings: the harness's own thread cap stays here.
            .env_remove("PARSCAN_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // SAFETY: `prctl` is async-signal-safe; the closure touches no
        // state of the parent. PR_SET_PDEATHSIG (1) with SIGKILL (9)
        // kills the server if the harness dies without unwinding.
        unsafe {
            use std::os::unix::process::CommandExt;
            cmd.pre_exec(|| {
                prctl(1, 9);
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot launch {bin:?}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = None;
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("serving ") {
                let addr = rest
                    .split(" on ")
                    .nth(1)
                    .and_then(|s| s.split_whitespace().next())
                    .unwrap_or_default()
                    .to_string();
                server = Some(addr);
                break;
            }
        }
        let Some(addr) = server else {
            let _ = child.kill();
            let status = child.wait();
            return Err(format!("server exited before serving: {status:?}"));
        };
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let mut conn = Conn::connect(&server.addr)?;
        let (_, pong) = conn.call("PING")?;
        if pong.str("op") != Some("pong") {
            return Err(format!("bad PING reply {pong:?}"));
        }
        Ok((server, conn, start.elapsed().as_secs_f64()))
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A wedged server fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Send one request line; return the round-trip seconds and the
    /// parsed reply. The clock stops before parsing.
    pub fn call(&mut self, request: &str) -> Result<(f64, Json), String> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.extend_from_slice(request.as_bytes());
        out.push(b'\n');
        self.line.clear();
        let start = Instant::now();
        self.writer
            .write_all(&out)
            .map_err(|e| format!("send {request:.40}: {e}"))?;
        let read = self.reader.read_line(&mut self.line);
        let rtt = start.elapsed().as_secs_f64();
        match read {
            Ok(0) => Err(format!("connection closed on {request:.40}")),
            Err(e) => Err(format!("reply to {request:.40}: {e}")),
            Ok(_) => Json::parse(self.line.trim_end())
                .map(|reply| (rtt, reply))
                .map_err(|e| format!("bad reply to {request:.40}: {e}")),
        }
    }
}
